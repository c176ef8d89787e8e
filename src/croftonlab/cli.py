"""Command-line front end: every table and check as a subcommand.

Subcommands:
  coeffs    exact coefficient tables (--crofton/--gb/--total-gauss/--variation)
            and the identity suite (--identities --max-n N)
  volumes   valuation table of a shape, optionally with Richardson error bars
  check     one named verification with tolerances and a pass/fail exit code:
            gauss-bonnet | gamma-b | crofton-mc | crofton-cpn | variation |
            crofton-variation | total-gauss | grassmann-pointwise

READS declares the flags each command reads, by check kind and by shape kind
or coeffs table.  A given flag the command does not read is a usage error
(exit code 2), only the flags it reads are validated, and a report's `config`
is exactly those flags with the values that ran.  Reports are JSON (default)
or CSV and contain no timestamps: identical (config, seed) runs emit
byte-identical output regardless of CROFTONLAB_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from math import isfinite
from typing import Dict, List, Optional

from . import __version__, checks, geom, planes, valuations, varcheck
from . import coeffcore as cc

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _flatten(prefix: str, obj, out: Dict[str, object]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            # CSV columns flatten (k,q) keys as "k.q"
            part = str(key).replace(",", ".")
            _flatten(f"{prefix}.{part}" if prefix else part, obj[key], out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = obj


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        flat: Dict[str, object] = {}
        _flatten("", report, flat)
        # csv quotes any value holding a comma; str() keeps None as "None"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat)
        writer.writerow([str(v) for v in flat.values()])
        text = buf.getvalue()[:-1]
    if not args.out:
        try:
            print(text, flush=True)  # a closed pipe raises here, not in the exit flush
        except BrokenPipeError:
            # `croftonlab ... | head`: the reader left early; the exit flush writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        return
    try:  # _validate has refused a missing directory; this is, say, a full disk
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        sys.exit(f"croftonlab: error: cannot write --out {args.out}: {exc.strerror or exc}")


def _config(args) -> dict:
    """The flags the command read, with the values that ran: the parsed
    --axes, an ellipsoid's own n and crofton-mc's level."""
    config = {"subcommand": args.command}
    if args.command != "volumes":
        config["what"] = args.what
    for dest in args.reads:
        key = re.sub(r"_(\w)", lambda m: m[1].upper(), dest)  # max_n -> maxN
        config[key] = _parse_axes(args.axes) if dest == "axes" else getattr(args, dest)
    return config


def _report(args, results: dict, passed: Optional[bool] = None) -> dict:
    # no timestamps and no thread count: identical (config, seed) runs must
    # emit byte-identical reports regardless of CROFTONLAB_THREADS
    rep = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": "croftonlab",
        "version": __version__,
        "config": _config(args),
        "results": results,
    }
    if passed is not None:
        rep["pass"] = bool(passed)
    return rep


def _parse_axes(text: str) -> List[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _shape_from_args(args) -> geom.Shape:
    if args.shape == "ellipsoid":
        if not args.axes:
            raise ValueError("--axes required for ellipsoids")
        return geom.Ellipsoid.from_axes(_parse_axes(args.axes))
    return geom.GeodesicBall(n=args.n, eps=args.eps, R=args.R)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    if args.identities:
        results = checks.identities(args.max_n)
        ok = results.pop("pass")
        _emit(_report(args, results, ok), args)
        return 0 if ok else 1
    if args.variation:
        op = cc.variation_operator(args.n)
        results = {varcheck.key_name(key): [
            {"kind": kind, "k": k, "q": q, "epsPow": p, "coeff": str(coeff)}
            for kind, k, q, p, coeff in op.targets(key)] for key in op.keys()}
    elif args.gb:
        results = cc.gauss_bonnet_coeffs(args.n).to_json()
    else:
        tabulate = cc.crofton_coeffs if args.crofton else cc.total_gauss_coeffs
        results = tabulate(args.n, args.r).to_json()
    _emit(_report(args, results), args)
    return 0


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def cmd_volumes(args) -> int:
    shape = args.body
    table = valuations.shape_table(shape, args.level)
    results = {"table": table.to_json()}
    if table.quadrature:
        results["quadrature"] = table.quadrature
    if args.richardson:
        # the error bar of each B, Gamma and M entry: its change from one level lower
        fine = results["table"]
        coarse = valuations.hermitian_volumes(shape, args.level - 1).to_json()
        results["richardsonError"] = {
            key: abs(fine[key] - coarse[key]) for key in fine if key[:2] in ("B:", "G:", "M:")
        }
    _emit(_report(args, results), args)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# each entry maps the flags onto the arguments of one shared check; a.body is
# the shape whose flags READS names, built once by _validate
CHECKS = {
    "gauss-bonnet": lambda a: checks.gauss_bonnet(a.body, a.level, a.tol),
    "gamma-b": lambda a: checks.gamma_b(a.body, a.tol),
    "crofton-mc": lambda a: checks.crofton_flat(
        a.r, checks.FLAT_FAMILIES[a.n], a.level, a.samples, a.seed + 1, a.tol),
    "crofton-cpn": lambda a: checks.crofton_cpn(a.n, a.r, a.samples, a.seed + 1, a.tol),
    "variation": lambda a: checks.variation(a.body, a.level, a.tol),
    "crofton-variation": lambda a: checks.crofton_variation(a.body, a.r, a.level, a.tol),
    "total-gauss": lambda a: checks.total_gauss(
        a.r, checks.FLAT_FAMILIES[a.n][:2], a.level, a.samples, a.seed + 1, a.tol),
    "grassmann-pointwise": lambda a: checks.grassmann_pointwise(
        a.n, a.r, a.samples, a.seed, a.seed + 1, 2048, a.seed, a.tol),
}


def cmd_check(args) -> int:
    results = CHECKS[args.what](args)
    _emit(_report(args, results, results.get("pass")), args)
    return 0 if results.get("pass") else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

BALL = ("shape", "n", "eps", "R")
ELLIPSOID = ("shape", "axes", "n", "level")  # a given --n must equal len(axes) / 2
MONTE_CARLO = ("n", "r", "samples", "seed", "tol")

# the flags (by dest) each command reads: by coeffs table, by volumes or check
# kind and shape kind, None for a check that builds no shape from the flags
READS = {
    ("coeffs", "gb"): ("n",),
    ("coeffs", "crofton"): ("n", "r"),
    ("coeffs", "total_gauss"): ("n", "r"),
    ("coeffs", "variation"): ("n",),
    ("coeffs", "identities"): ("max_n",),
    ("volumes", "ball"): BALL,
    ("volumes", "ellipsoid"): ELLIPSOID + ("richardson",),
    ("gauss-bonnet", "ball"): BALL + ("tol",),
    ("gauss-bonnet", "ellipsoid"): ELLIPSOID + ("tol",),
    ("gamma-b", "ball"): BALL + ("tol",),
    ("variation", "ball"): BALL + ("tol",),
    ("variation", "ellipsoid"): ELLIPSOID + ("tol",),
    ("crofton-variation", "ball"): BALL + ("r", "tol"),
    ("crofton-variation", "ellipsoid"): ELLIPSOID + ("r", "tol"),
    ("crofton-mc", None): MONTE_CARLO + ("level",),  # n = 3 runs level 1 only
    ("crofton-cpn", None): MONTE_CARLO,
    ("total-gauss", None): MONTE_CARLO + ("level",),
    ("grassmann-pointwise", None): MONTE_CARLO,
}

# a check draws its estimates at seeds up to seed + 4 (crofton-cpn's four
# radii); every one must be a seed in [0, 2**63)
SEED_MAX = 2**63 - 1 - len(checks.CPN_RADII)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading `-1e-3` and `-2.5E+4` as negative numbers too.

    argparse itself takes only `-1`- and `-.5`-style strings for numbers, so
    `--eps -1e-3` failed with "expected one argument".  Subparsers are made
    of the parent's class, so every float flag of every command reads them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Given(argparse.Action):
    """Store a flag's value (its const if it takes none) and add its dest to
    args.given, so that _validate can refuse a given flag the command does not read."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = namespace.given | {self.dest}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, so it is
    built on the first call and shared by every later one."""
    p = _Parser(prog="croftonlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.set_defaults(given=frozenset())
        sp.add_argument("--n", type=int, default=2, action=_Given)
        sp.add_argument("--r", type=int, default=1, action=_Given)
        sp.add_argument("--eps", type=float, default=0.0, action=_Given)
        sp.add_argument("--R", type=float, default=1.0, action=_Given)
        sp.add_argument("--shape", choices=["ellipsoid", "ball"], default="ball", action=_Given)
        sp.add_argument("--axes", type=str, default="", action=_Given)
        sp.add_argument("--level", type=int, default=2, action=_Given)
        sp.add_argument("--samples", type=int, default=100000, action=_Given)
        sp.add_argument("--seed", type=int, default=0, action=_Given)
        sp.add_argument("--tol", type=float, default=None, action=_Given)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", type=str, default="")

    pc = sub.add_parser("coeffs", help="exact coefficient tables and identities")
    common(pc)
    table = pc.add_mutually_exclusive_group(required=True)
    table.add_argument("--gb", action="store_true")
    table.add_argument("--crofton", action="store_true")
    table.add_argument("--total-gauss", dest="total_gauss", action="store_true")
    table.add_argument("--variation", action="store_true")
    table.add_argument("--identities", action="store_true")
    pc.add_argument("--max-n", dest="max_n", type=int, default=6, action=_Given)
    pc.set_defaults(func=cmd_coeffs)

    pv = sub.add_parser("volumes", help="valuation table of a shape")
    common(pv)
    pv.add_argument("--richardson", action=_Given, nargs=0, const=True, default=False)
    pv.set_defaults(func=cmd_volumes, closed_form=False)  # read by bench/workloads.cli_plan

    pk = sub.add_parser("check", help="run one verification, exit 0 iff it passes")
    pk.add_argument("what", choices=sorted(CHECKS))
    common(pk)
    pk.set_defaults(func=cmd_check)
    return p


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Refuse, as parser errors, a given flag the command does not read and a read
    value it would fail on; store the read flags as args.reads and build the
    shape they name, once, as args.body."""
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"argument --out: no directory {os.path.dirname(args.out)!r} to write into")
    if os.path.isdir(args.out):
        parser.error(f"argument --out: {args.out!r} is a directory")
    if args.command == "coeffs":
        what, kind = "coeffs", next(k for w, k in READS if w == "coeffs" and getattr(args, k))
        args.what = kind.replace("_", "-")
    else:
        what = args.what if args.command == "check" else args.command
        kind = args.shape if (what, args.shape) in READS else None
    reads = args.reads = READS.get((what, kind))
    if reads is None:
        parser.error(f"argument --shape: {what} applies to geodesic balls (--shape ball)")
    unread = sorted(args.given.difference(reads))
    if unread:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in unread)
        parser.error(f"argument {flags}: not read by {what}" + (f" ({kind})" if kind else ""))
    if "n" in reads and args.n < 1:
        parser.error(f"argument --n: must be an integer >= 1, got {args.n}")
    if "shape" in reads:
        try:
            args.body = _shape_from_args(args)
        except ValueError as exc:
            parser.error(f"invalid shape (--shape/--axes/--n/--eps/--R): {exc}")
        if "n" in args.given and args.n != args.body.n:
            parser.error(f"argument --n: --axes give n={args.body.n}, got n={args.n}")
        args.n = args.body.n
    if what in ("crofton-mc", "total-gauss") and args.n not in checks.FLAT_FAMILIES:
        parser.error(f"argument --n: default ellipsoid families exist for n in "
                     f"{sorted(checks.FLAT_FAMILIES)}, got n={args.n}")
    if what == "crofton-mc" and args.n != 2:  # the n = 3 family tables run at level 1
        if "level" in args.given:
            parser.error(f"argument --level: crofton-mc runs n={args.n} at level 1 only")
        args.level = 1
    if "r" in reads and not 1 <= args.r <= args.n - 1:
        parser.error(f"argument --r: need 1 <= r <= n-1, got r={args.r}, n={args.n}")
    if "level" in reads and args.level < 0:
        parser.error(f"argument --level: must be an integer >= 0, got {args.level}")
    if "richardson" in args.given and args.level < 1:  # it differences levels L and L-1
        parser.error(f"argument --richardson: needs --level >= 1, got {args.level}")
    if "max_n" in reads and args.max_n < 2:  # checks.identities has nothing to check
        parser.error(f"argument --max-n: must be an integer >= 2, got {args.max_n}")
    if "samples" in reads and args.samples < 1:
        parser.error(f"argument --samples: must be an integer >= 1, got {args.samples}")
    if "seed" in reads and not 0 <= args.seed <= SEED_MAX:
        parser.error(f"argument --seed: must be an integer in [0, {SEED_MAX}], got {args.seed}")
    if "tol" in reads and args.tol is not None and not (isfinite(args.tol) and args.tol > 0):
        parser.error(f"argument --tol: must be finite and positive, got {args.tol}")
    if args.command == "check":
        try:
            planes.thread_count()
        except ValueError as exc:
            parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except geom.RuleTooLarge as exc:  # refused before the rule is allocated
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
