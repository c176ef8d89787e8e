"""Command-line front end: every table and check as a subcommand.

Subcommands:
  coeffs    exact coefficient tables (--crofton/--gb/--total-gauss/--variation)
            and the identity suite (--identities --max-n N)
  volumes   valuation table of a shape, optionally with Richardson error bars
  check     one named verification with tolerances and a pass/fail exit code:
            gauss-bonnet | gamma-b | crofton-mc | crofton-cpn | variation |
            crofton-variation | total-gauss | grassmann-pointwise

Reports are JSON (default) or CSV, embed the full configuration, seed and
tolerance, and contain no timestamps: identical (config, seed) runs emit
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


def _report(args, config: dict, results: dict, passed: Optional[bool] = None) -> dict:
    # no timestamps and no thread count: identical (config, seed) runs must
    # emit byte-identical reports regardless of CROFTONLAB_THREADS
    rep = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": "croftonlab",
        "version": __version__,
        "config": config,
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


def _shape_config(args) -> dict:
    if args.shape == "ellipsoid":
        return {"type": "ellipsoid", "axes": _parse_axes(args.axes)}
    return {"type": "ball", "n": args.n, "eps": args.eps, "R": args.R}


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    config = {
        "subcommand": "coeffs",
        "n": args.n,
        "r": args.r,
        "maxN": args.max_n,
    }
    if args.identities:
        results = checks.identities(args.max_n)
        ok = results.pop("pass")
        _emit(_report(args, config, results, ok), args)
        return 0 if ok else 1

    if args.gb:
        table = cc.gauss_bonnet_coeffs(args.n)
    elif args.crofton:
        table = cc.crofton_coeffs(args.n, args.r)
    elif args.total_gauss:
        table = cc.total_gauss_coeffs(args.n, args.r)
    elif args.variation:
        op = cc.variation_operator(args.n)
        results = {}
        for key in op.keys():
            results[varcheck.key_name(key)] = [
                {"kind": kind, "k": k, "q": q, "epsPow": p, "coeff": str(coeff)}
                for kind, k, q, p, coeff in op.targets(key)
            ]
        _emit(_report(args, config, results), args)
        return 0
    _emit(_report(args, config, table.to_json()), args)
    return 0


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def cmd_volumes(args) -> int:
    shape = args.body
    config = {"subcommand": "volumes", "shape": _shape_config(args), "level": args.level}
    if args.closed_form:
        table = valuations.ball_closed_form(shape.eps, shape.n, shape.R)
    else:
        table = valuations.hermitian_volumes(shape, args.level)
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
    _emit(_report(args, config, results), args)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_level(args) -> int:
    """The quadrature level a check runs at: crofton-mc tabulates n != 2 at level 1."""
    return 1 if args.what == "crofton-mc" and args.n != 2 else args.level


# each entry maps the flags onto the arguments of one shared check; a.body is
# the shape that READS names, built once by _validate
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

# what each command reads: the shape it builds from --shape/--axes/--n/--eps/--R
# (None: no shape, it reads --n directly), and whether it reads --r and --level
READS = {
    "volumes": (_shape_from_args, False, True),
    "gauss-bonnet": (_shape_from_args, False, True),
    "gamma-b": (_shape_from_args, False, False),
    "crofton-mc": (None, True, True),
    "crofton-cpn": (None, True, False),
    "variation": (_shape_from_args, False, True),
    "crofton-variation": (_shape_from_args, True, True),
    "total-gauss": (None, True, True),
    "grassmann-pointwise": (None, True, False),
}


def cmd_check(args) -> int:
    args.level = _check_level(args)  # the report states the level that ran
    config = {
        "subcommand": "check",
        "what": args.what,
        "n": args.n,
        "r": args.r,
        "eps": args.eps,
        "R": args.R,
        "shape": args.shape,
        "axes": _parse_axes(args.axes),
        "level": args.level,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
    }
    results = CHECKS[args.what](args)
    _emit(_report(args, config, results, results.get("pass")), args)
    return 0 if results.get("pass") else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading `-1e-3` and `-2.5E+4` as negative numbers too.

    argparse itself takes only `-1`- and `-.5`-style strings for numbers, so
    `--eps -1e-3` failed with "expected one argument".  Subparsers are made
    of the parent's class, so every float flag of every command reads them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, so it is
    built on the first call and shared by every later one."""
    p = _Parser(prog="croftonlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--r", type=int, default=1)
        sp.add_argument("--eps", type=float, default=0.0)
        sp.add_argument("--R", type=float, default=1.0)
        sp.add_argument("--shape", choices=["ellipsoid", "ball"], default="ball")
        sp.add_argument("--axes", type=str, default="")
        sp.add_argument("--level", type=int, default=2)
        sp.add_argument("--samples", type=int, default=100000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=None)
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
    pc.add_argument("--max-n", dest="max_n", type=int, default=6)
    pc.set_defaults(func=cmd_coeffs)

    pv = sub.add_parser("volumes", help="valuation table of a shape")
    common(pv)
    pv.add_argument("--richardson", action="store_true")
    pv.add_argument("--closed-form", dest="closed_form", action="store_true")
    pv.set_defaults(func=cmd_volumes)

    pk = sub.add_parser("check", help="run one verification, exit 0 iff it passes")
    pk.add_argument("what", choices=sorted(CHECKS))
    common(pk)
    pk.set_defaults(func=cmd_check)
    return p


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Reject, as parser errors, flag values the command would fail on.

    Only the flags the command reads are checked; the shape it reads is built
    here, once, as args.body."""
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"argument --out: no directory {os.path.dirname(args.out)!r} to write into")
    if os.path.isdir(args.out):
        parser.error(f"argument --out: {args.out!r} is a directory")
    if args.command == "coeffs":
        # the tables read --n, --crofton and --total-gauss also --r
        if not args.identities and args.n < 1:
            parser.error(f"argument --n: must be an integer >= 1, got {args.n}")
        # below 2 the suite has nothing to check (checks.identities raises)
        if args.identities and args.max_n < 2:
            parser.error(f"argument --max-n: must be an integer >= 2, got {args.max_n}")
        n, reads_r = args.n, args.crofton or args.total_gauss
    else:
        what = args.what if args.command == "check" else args.command
        build, reads_r, reads_level = READS[what]
        level = _check_level(args) if args.command == "check" else args.level
        if reads_level and level < 0:
            parser.error(f"argument --level: must be an integer >= 0, got {args.level}")
        args.body, n = None, args.n
        if build is not None:
            try:
                args.body = build(args)
            except ValueError as exc:
                parser.error(f"invalid shape (--shape/--axes/--n/--eps/--R): {exc}")
            n = args.body.n
        if what == "volumes" and args.closed_form and args.body.curvatures is None:
            parser.error("argument --closed-form: applies to geodesic balls (--shape ball)")
        if what == "volumes" and args.richardson:
            # the error estimate compares the table with one a level lower
            if args.closed_form:
                parser.error("argument --richardson: not allowed with --closed-form "
                             "(an exact table has no quadrature error)")
            if level < 1:
                parser.error(f"argument --richardson: needs --level >= 1, got {level}")
        if what == "gamma-b" and args.body.curvatures is None:
            parser.error("argument --shape: gamma-b applies to geodesic balls (--shape ball)")
        if what in ("crofton-mc", "total-gauss") and n not in checks.FLAT_FAMILIES:
            parser.error(f"argument --n: default ellipsoid families exist for n in "
                         f"{sorted(checks.FLAT_FAMILIES)}, got n={n}")
    if reads_r and not 1 <= args.r <= n - 1:
        parser.error(f"argument --r: need 1 <= r <= n-1, got r={args.r}, n={n}")
    if args.command != "check":
        return
    if args.samples < 1:
        parser.error(f"argument --samples: must be an integer >= 1, got {args.samples}")
    try:  # every check reports the parsed --axes
        _parse_axes(args.axes)
    except ValueError as exc:
        parser.error(f"argument --axes: {exc}")
    if args.tol is not None and not (isfinite(args.tol) and args.tol > 0):
        parser.error(f"argument --tol: must be finite and positive, got {args.tol}")
    try:
        planes.thread_count()
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
