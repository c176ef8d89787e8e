"""The benchmark's workloads and the preflight budget guard.

Every operation is one verification that ends in a verdict.  Where the CLI has
a bounded form, the operation is a `croftonlab check`/`coeffs` run in-process
through `cli.main`; otherwise it is the sequence of public calls that the
matching acceptance criterion makes.  Before an operation runs, `preflight`
predicts the quadrature tables and planes it will build and refuses it if any
of them is over budget, so an over-budget configuration is never allocated.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from croftonlab import cli, coeffcore as cc, extalg, geom, planes, valuations

# Monte Carlo workers per workload.  Reports must not depend on it.
THREADS = {"deterministic": 1, "montecarlo": 2}

# One n=3 level-1 product grid (2,097,152 nodes, about 2.4 GB peak) is the
# largest table allowed; n=4 level 0 (4.2M) and n=3 level 2 (67M) are refused.
NODE_BUDGET = 2**21
PLANE_BUDGET = 2_000_000
Z_GATE = 3.0


class BudgetError(ValueError):
    """An operation would build a table or draw planes over budget."""


def grid_nodes(n: int, level: int) -> int:
    """Nodes of the level-L product rule on S^{2n-1}: (8*2^L)^(2n-2) * 16*2^L."""
    return (8 * 2**level) ** (2 * n - 2) * 16 * 2**level


@dataclass
class Outcome:
    """What one operation produced: its verdict, its report and its accuracy."""

    passed: bool
    report: str
    gb_residuals: List[float] = field(default_factory=list)
    mc_rel_stderrs: List[float] = field(default_factory=list)
    cli_bytes: int = 0


@dataclass
class Op:
    """One verification.  `tables` lists the (n, level) of every quadrature
    table it builds and `planes` counts the samples it draws; `refusal` is set
    when the plan itself is invalid (a silent parameter substitution)."""

    name: str
    run: Callable[[], Outcome]
    tables: List[Tuple[int, int]]
    planes: int
    refusal: Optional[str] = None


def preflight(op: Op) -> None:
    """Raise BudgetError, before anything is allocated, if `op` is over budget."""
    if op.refusal:
        raise BudgetError(f"{op.name}: {op.refusal}")
    for n, level in op.tables:
        nodes = grid_nodes(n, level)
        if nodes > NODE_BUDGET:
            raise BudgetError(
                f"{op.name}: n={n} level={level} table needs {nodes} nodes "
                f"(budget {NODE_BUDGET})"
            )
    if op.planes > PLANE_BUDGET:
        raise BudgetError(f"{op.name}: {op.planes} planes (budget {PLANE_BUDGET})")


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def cli_plan(argv: Sequence[str]) -> Tuple[List[Tuple[int, int]], int, Optional[str]]:
    """(tables, planes, refusal) that `croftonlab <argv>` would build.

    Mirrors what each subcommand allocates: quadrature tables for ellipsoids
    (balls use closed forms) and the Monte Carlo samples it draws.
    """
    args = cli.build_parser().parse_args(list(argv))
    ellipsoid = args.shape == "ellipsoid"
    n = len(args.axes.replace(",", " ").split()) // 2 if ellipsoid else args.n
    level, samples = args.level, args.samples
    if args.command == "coeffs":
        return [], 0, None
    if args.command == "volumes":
        if not ellipsoid or args.closed_form:
            return [], 0, None
        coarse = [(n, level - 1)] if args.richardson and level >= 1 else []
        return [(n, level)] + coarse, 0, None
    what = args.what
    if what == "gauss-bonnet":
        return ([(n, level)] if ellipsoid else []), 0, None
    if what == "variation":
        keys = len(cc.beta_indices(n)) + n + 1  # B keys, G keys and vol
        return ([(n, level)] * (1 + 2 * keys) if ellipsoid else []), 0, None
    if what == "crofton-variation":
        return ([(n, level)] * 3 if ellipsoid else []), 0, None
    if what == "crofton-mc":
        effective = level if args.n == 2 else 1
        refusal = None
        if effective != level:
            refusal = f"crofton-mc at n={args.n} runs level 1, not the requested level {level}"
        return [(args.n, effective)] * 4, 4 * samples, refusal
    if what == "crofton-cpn":
        return [], 5 * samples, None
    if what == "total-gauss":
        tables = [(args.n, level)] * 3
        if args.r >= 2:
            tables.append((args.r, 1))  # one section table per hit plane
        return tables, 3 * samples, None
    if what == "grassmann-pointwise":
        return [], 2048 + 2 * samples, None
    return [], 0, None


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """Run `croftonlab <argv>` in-process; returns (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _z_stderr_ratio(mean: float, prediction: float, z: float) -> Optional[float]:
    """Standard error the z-gate divided by, relative to the prediction."""
    if z == 0 or prediction == 0:
        return None
    return abs((mean - prediction) / z / prediction)


def _mc_figures(what: str, results: dict) -> List[float]:
    if what in ("crofton-mc", "crofton-cpn"):
        pairs = [(it["estimate"]["mean"], it["prediction"], it["z"]) for it in results["items"]]
    elif what == "total-gauss":
        pairs = [(it["total"]["mean"], it["prediction"], it["zTable"]) for it in results["items"]]
    elif what == "grassmann-pointwise":
        items = results["items"]
        pairs = [(items[k]["mean"], items[k]["combo"], items[k]["z"]) for k in ("h0", "h1")]
        pairs.append((items["ratio"]["value"], items["ratio"]["prediction"], items["ratio"]["z"]))
    else:
        return []
    return [v for v in (_z_stderr_ratio(*p) for p in pairs) if v is not None]


def _cli_outcome(argv: Sequence[str]) -> Outcome:
    code, text = run_cli(argv)
    report = json.loads(text)
    passed = code == 0 and report.get("pass") is True
    results = report["results"]
    gb = [results["relativeMuForm"]] if tuple(argv[:2]) == ("check", "gauss-bonnet") else []
    mc = _mc_figures(argv[1], results) if argv[0] == "check" else []
    return Outcome(passed, text, gb, mc, len(text.encode()))


def cli_op(*argv: str) -> Op:
    tables, n_planes, refusal = cli_plan(argv)
    return Op(" ".join(argv), lambda: _cli_outcome(argv), tables, n_planes, refusal)


# ---------------------------------------------------------------------------
# Public-call operations (no bounded CLI form)
# ---------------------------------------------------------------------------


def _bracket(table: valuations.ValuationTable, n: int, r: int, eps: float) -> float:
    return cc.crofton_coeffs(n, r).eval(table.mu_dict(), table.vol, eps)


def _relative_gb(shape: geom.Shape, table: valuations.ValuationTable) -> Tuple[float, float]:
    """Relative Gauss-Bonnet residuals (mu form, plane form) of a table."""
    o = cc.sphere_volume_coeff(2 * shape.n - 1).to_float()
    r_mu, r_plane = valuations.gauss_bonnet_residual(shape, table=table)
    return abs(r_mu) / o, abs(r_plane) / o


def _dump(figures: dict) -> str:
    return json.dumps(figures, sort_keys=True)


def rotated_quadric_op(seed: int, level: int = 2) -> Op:
    """Gauss-Bonnet on a seeded general quadric: no axis or J symmetry."""
    rng = np.random.default_rng([seed, 3])
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    axes = rng.uniform(1.0, 3.0, size=4)
    quadric = rot @ np.diag(axes**-2.0) @ rot.T

    def run() -> Outcome:
        shape = geom.Ellipsoid(quadric)
        rel_mu, rel_plane = _relative_gb(shape, valuations.hermitian_volumes(shape, level))
        passed = rel_mu < 1e-6 and rel_plane < 1e-6
        return Outcome(passed, _dump({"relativeMuForm": rel_mu, "relativePlaneForm": rel_plane}),
                       [rel_mu])

    return Op(f"gauss-bonnet rotated quadric seed={seed} level={level}", run, [(2, level)], 0)


def flat_ball_op(n: int, r: int, radii: Sequence[float], samples: int, seed: int) -> Op:
    """Flat Crofton Monte Carlo on eps=0 balls against closed-form brackets
    (criterion 5's gates with ball references, which need no quadrature)."""

    def run() -> Outcome:
        cal = planes.calibrate(n, r, 0.0, geom.GeodesicBall(n=n, eps=0.0, R=1.0), samples, seed)
        items, rel, passed = [], [], True
        for i, R in enumerate(radii):
            rhs = _bracket(valuations.ball_closed_form(0.0, n, R), n, r, 0.0)
            est = planes.chi_measure_estimate(
                geom.GeodesicBall(n=n, eps=0.0, R=R), r, samples, seed + 1 + i
            )
            pred, extra = cal.kappa * rhs, cal.stderr * rhs
            z = est.z_score(pred, extra_stderr=extra)
            rel_sd = est.stderr / est.mean
            passed &= abs(z) < Z_GATE and rel_sd < 0.01
            rel.append(sqrt(est.stderr**2 + extra**2) / pred)
            items.append({"R": R, "mean": est.mean, "prediction": pred, "z": z})
        return Outcome(passed, _dump({"kappa": cal.kappa, "items": items}), [], rel)

    return Op(f"crofton flat balls n={n} r={r}", run, [], samples * (1 + len(radii)))


def total_gauss_n3_op(samples: int, cal_samples: int, seed: int, level: int = 0) -> Op:
    """Small-N n=3 r=2 total Gauss curvature of sections (one section table
    per hit plane), scored against the calibrated table prediction."""
    n, r = 3, 2
    axes = [1, 1, 1, 1, 2, 2]

    def run() -> Outcome:
        shape = geom.Ellipsoid.from_axes(axes)
        ref = geom.GeodesicBall(n=n, eps=0.0, R=1.0)
        cal = planes.calibrate(n, r, 0.0, ref, cal_samples, seed)
        table = valuations.hermitian_volumes(shape, level)
        pred = cal.kappa * cc.total_gauss_coeffs(n, r).eval(table.mu_dict(), table.vol, 0.0)
        res = planes.total_gauss_estimate(shape, r, samples, seed + 1)
        extra = cal.stderr * pred / cal.kappa
        z = res.total.z_score(pred, extra_stderr=extra)
        rel = sqrt(res.total.stderr**2 + extra**2) / pred
        figures = {"mean": res.total.mean, "prediction": pred, "z": z}
        return Outcome(abs(z) < Z_GATE, _dump(figures), [_relative_gb(shape, table)[0]], [rel])

    return Op(f"total-gauss n=3 r=2 samples={samples}", run, [(n, level), (r, 1)],
              samples + cal_samples)


def identity_suite_op() -> Op:
    """Criterion 1: the exact coefficient identities."""

    def run() -> Outcome:
        ok = True
        for n in range(2, 9):
            for r in range(1, n):
                sol = cc.solve_crofton_system(n, r)
                ok &= sol.closed_form_matches()
                ok &= all(v == 0 for v in sol.d_equation_residuals().values())
        for n in range(2, 11):
            for r in range(1, n):
                ok &= cc.verify_cancellation_identity(n, r)
        for n in range(1, 7):
            for r in range(1, n + 1):
                ok &= cc.check_epsilon_independence(n, r)
        for m in range(0, 17):
            ok &= cc.sphere_volume_coeff(m) == cc.ball_volume_coeff(m + 1) * (m + 1)
        for n in range(2, 7):
            for r in range(1, n):
                lhs = cc.total_gauss_coeffs(n, r)
                rhs = cc.flat_crofton_coeffs(n, r).scaled(cc.sphere_volume_coeff(2 * r - 1))
                ok &= lhs.same_coefficients(rhs)
        return Outcome(bool(ok), _dump({"pass": bool(ok)}))

    return Op("identity suite (criterion 1)", run, [], 0)


def density_oracle_op(n: int, count: int, seed: int) -> Op:
    """Criterion 2: bitmask densities against the permutation oracle on seeded h."""

    def run() -> Outcome:
        rng = np.random.default_rng([seed, n])
        d = 2 * n - 1
        hs = rng.standard_normal((count, d, d))
        hs = (hs + np.swapaxes(hs, 1, 2)) / 2
        worst = 0.0
        for h in hs:
            for kind, keys, dens in (
                ("beta", cc.beta_indices(n), extalg.density_beta),
                ("gamma", cc.gamma_indices(n), extalg.density_gamma),
            ):
                for k, q in keys:
                    a = dens(n, k, q, h)
                    b = extalg.permutation_oracle(kind, n, k, q, h)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        return Outcome(worst < 1e-10, _dump({"worst": worst}))

    return Op(f"density oracle n={n} count={count}", run, [], 0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

N2_FAMILIES = ("1,1,2,2", "1,2,2,3", "1,1,1,2")
BALL_RADII = (0.3, 0.5, 0.7)
MC_SEED = 7  # the CLI examples' seed; see README for why it is fixed


def quadrature_ops(seed: int) -> List[Op]:
    ops = [cli_op("check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", axes, "--level", "2")
           for axes in N2_FAMILIES]
    ops += [
        # the hot path and the RSS peak: one J-invariant n=3 level-1 table,
        # at criterion 3's accuracy for flat ellipsoids
        # (--n sets the O_{2n-1} the CLI divides the residual by)
        cli_op("check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,1,1,2,2",
               "--n", "3", "--level", "1", "--tol", "1e-6"),
        # level 0 resolves Gauss-Bonnet to about 1e-3 at n=3
        cli_op("check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,1,1,1,2",
               "--n", "3", "--level", "0", "--tol", "1e-3"),
        rotated_quadric_op(seed),
        cli_op("check", "variation", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "2"),
        cli_op("check", "crofton-variation", "--shape", "ellipsoid", "--axes", "1,2,2,3",
               "--r", "1", "--level", "2"),
    ]
    return ops


def montecarlo_ops(seed: int) -> List[Op]:
    s = str(MC_SEED)
    return [
        cli_op("check", "crofton-mc", "--n", "2", "--r", "1", "--level", "2",
               "--samples", "100000", "--seed", s),
        flat_ball_op(3, 1, (0.6, 1.4), 50_000, 531),
        flat_ball_op(3, 2, (0.6, 1.4), 50_000, 532),
        cli_op("check", "crofton-cpn", "--n", "2", "--r", "1", "--samples", "50000", "--seed", s),
        # one sample chunk per estimate: two concurrent chunks of its 256-node
        # section rule would make peak RSS depend on thread timing
        cli_op("check", "total-gauss", "--n", "2", "--r", "1", "--level", "2",
               "--samples", "30000", "--seed", s),
        cli_op("check", "grassmann-pointwise", "--n", "3", "--r", "1",
               "--samples", "50000", "--seed", s),
        total_gauss_n3_op(100, 100_000, 1032),
    ]


def exact_ops(seed: int) -> List[Op]:
    ops = [cli_op("coeffs", "--identities"), identity_suite_op()]
    for eps in ("-1", "0", "1"):
        for n in (2, 3, 4):
            for R in BALL_RADII:
                ball = ("--shape", "ball", "--n", str(n), "--eps", eps, "--R", str(R))
                ops += [cli_op("check", what, *ball) for what in ("gauss-bonnet", "gamma-b", "variation")]
                ops += [cli_op("check", "crofton-variation", *ball, "--r", str(r)) for r in range(1, n)]
    ops += [density_oracle_op(n, 50, seed) for n in (2, 3)]
    return ops


def build(workload: str, seed: int) -> List[Op]:
    if workload == "deterministic":
        # the exact checks ride with the quadrature: on their own, their
        # interpreter-bound passes track the host's speed too closely to
        # give a steady wall time on a shared 2-vCPU VM (see README)
        return quadrature_ops(seed) + exact_ops(seed)
    return montecarlo_ops(seed)
