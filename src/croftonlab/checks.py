"""The verifications, shared by `croftonlab check` and the acceptance suite.

Each check is a pure function of its shapes, level, sample counts, seeds and
tolerance, and returns the `results` dict that `croftonlab check` reports; its
"pass" entry is the verdict.  A tolerance of None selects the check's default.
Monte Carlo checks calibrate kappa with `cal_seed` and draw their i-th
estimate with seed `seed + i`.

Layers are called through their module attributes (`planes.calibrate`, not a
name imported from `planes`), so a caller that wraps a layer function in its
module also sees the calls made here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, sqrt
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import coeffcore as cc
from . import geom, planes, valuations, varcheck

__all__ = [
    "FLAT_FAMILIES",
    "identities",
    "gauss_bonnet",
    "gamma_b",
    "crofton_flat",
    "crofton_cpn",
    "variation",
    "crofton_variation",
    "total_gauss",
    "grassmann_pointwise",
]

Z_GATE = 3.0

# semiaxes of the flat ellipsoid families the plane-measure checks run over
FLAT_FAMILIES: Dict[int, List[List[float]]] = {
    2: [[1, 1, 2, 2], [1, 2, 2, 3], [1, 1, 1, 2]],
    3: [[1, 1, 1, 1, 2, 2], [1, 1, 2, 2, 2, 2], [1, 2, 2, 2, 2, 2]],
}

CPN_RADII = (0.3, 0.6, 0.9, 1.2)
CPN_REFERENCE_R = 0.75


def _sphere_volume_closed_form(m: int) -> cc.PiScalar:
    """O_m = 2 pi^{(m+1)/2} / Gamma((m+1)/2) exactly: 2 pi^j / (j-1)! for
    m = 2j-1 and 2^{2j+1} pi^j j! / (2j)! for m = 2j."""
    j = (m + 1) // 2
    if m % 2:
        return cc.PiScalar.pi_power(j, Fraction(2, factorial(j - 1)))
    return cc.PiScalar.pi_power(j, Fraction(2 ** (2 * j + 1) * factorial(j), factorial(2 * j)))


def identities(max_n: int) -> dict:
    """The exact coefficient suite for n = 2..max_n, one verdict per case.

    solver: the flat Crofton system, solved exactly, matches its closed form
    with zero residual in every d-equation (1 <= r < n); cancellation: the
    eps-graded cancellation identity (1 <= r < n); epsIndependence: every
    eps-graded term of the varied bracket cancels (1 <= r <= n, r = n being
    Gauss-Bonnet); normalizations: `sphere_volume_coeff(m)` against the
    closed form of O_m (m < 2 max_n).  Below max_n = 2 the suite would check
    O_1 alone, or nothing, and pass vacuously, so it raises ValueError.
    """
    if max_n < 2:
        raise ValueError(f"the identity suite needs max_n >= 2, got {max_n}")
    results = {"solver": {}, "cancellation": {}, "epsIndependence": {}, "normalizations": {}}
    for n in range(2, max_n + 1):
        for r in range(1, n):
            sol = cc.solve_crofton_system(n, r)
            results["solver"][f"{n},{r}"] = sol.closed_form_matches() and all(
                v == 0 for v in sol.d_equation_residuals().values()
            )
            results["cancellation"][f"{n},{r}"] = cc.verify_cancellation_identity(n, r)
        for r in range(1, n + 1):
            results["epsIndependence"][f"{n},{r}"] = cc.check_epsilon_independence(n, r)
    for m in range(1, 2 * max_n):
        results["normalizations"][str(m)] = (
            cc.sphere_volume_coeff(m) == _sphere_volume_closed_form(m)
        )
    results["pass"] = all(all(group.values()) for group in results.values())
    return results


def _flow(shape: geom.Shape, diag: Optional[Sequence[float]]) -> varcheck.Flow:
    """Radial flow for balls (constant curvature), else exp(t diag) (default 0.3 - 0.07 i)."""
    if shape.curvatures is not None:
        return varcheck.RadialFlow()
    if diag is None:
        diag = [0.3 - 0.07 * i for i in range(2 * shape.n)]
    return varcheck.LinearFlow(np.diag(diag))


def gauss_bonnet(shape: geom.Shape, level: int, tol: Optional[float] = None) -> dict:
    """Both Gauss-Bonnet residuals, relative to O_{2n-1} of the shape's own n.

    Quadrature tables also report their rule and node count."""
    tol = 1e-8 if tol is None else tol
    o = cc.sphere_volume_coeff(2 * shape.n - 1).to_float()
    table = valuations.shape_table(shape, level)
    r_mu, r_plane = valuations.gauss_bonnet_residual(shape, table=table)
    rel_mu, rel_plane = abs(r_mu) / o, abs(r_plane) / o
    results = {"residualMuForm": r_mu, "residualPlaneForm": r_plane, "relativeMuForm": rel_mu,
               "relativePlaneForm": rel_plane, "tolerance": tol,
               "pass": rel_mu < tol and rel_plane < tol}
    if table.quadrature:
        results["quadrature"] = table.quadrature
    return results


def gamma_b(ball: geom.GeodesicBall, tol: Optional[float] = None) -> dict:
    """Gamma/B curvature relation on the closed-form table of a geodesic ball.

    `checked` counts the (k, q) the relation covers: none at n = 2, where the
    strict index range is empty and the pass is vacuous."""
    tol = 1e-9 if tol is None else tol
    table = valuations.ball_closed_form(ball.eps, ball.n, ball.R)
    res = valuations.check_gamma_b_relation(table)
    worst = max((abs(v) for v in res.values()), default=0.0)
    return {"residuals": {f"{k},{q}": v for (k, q), v in sorted(res.items())},
            "checked": len(res), "worst": worst, "tolerance": tol, "pass": worst < tol}


def crofton_flat(
    reference: geom.Shape, r: int, families: Sequence[Sequence[float]], level: int,
    N: int, cal_seed: int, seed: int, ztol: Optional[float] = None,
    tables: Optional[Sequence[valuations.ValuationTable]] = None,
) -> dict:
    """Flat Crofton Monte Carlo: one kappa from `reference`, then predictions.

    Each family passes if |z| < ztol (calibration error included) and
    stderr/mean < 1%.  `tables` are the families' valuation tables when the
    caller already has them; otherwise they are computed at `level`.
    """
    ztol = Z_GATE if ztol is None else ztol
    n = reference.n
    cal = planes.calibrate(n, r, 0.0, reference, N, cal_seed, level=level)
    items = []
    for i, axes in enumerate(families):
        shape = geom.Ellipsoid.from_axes(axes)
        table = valuations.hermitian_volumes(shape, level) if tables is None else tables[i]
        rhs = valuations.crofton_rhs(table, n, r, 0.0)
        est = planes.chi_measure_estimate(shape, r, N, seed + i)
        z = est.z_score(cal.kappa * rhs, extra_stderr=cal.stderr * rhs)
        rel_sd = est.stderr / est.mean if est.mean else float("inf")
        items.append({"axes": axes, "estimate": est.to_json(), "prediction": cal.kappa * rhs,
                      "z": z, "stderrOverMean": rel_sd, "pass": abs(z) < ztol and rel_sd < 0.01})
    return {"kappa": cal.kappa, "kappaStderr": cal.stderr, "items": items,
            "zTolerance": ztol, "pass": all(it["pass"] for it in items)}


def crofton_cpn(
    n: int, r: int, N: int, cal_seed: int, seed: int, ztol: Optional[float] = None
) -> dict:
    """Projective (eps = 1) Crofton radius dependence on geodesic balls."""
    ztol = Z_GATE if ztol is None else ztol
    ref = geom.GeodesicBall(n=n, eps=1.0, R=CPN_REFERENCE_R)
    cal = planes.calibrate(n, r, 1.0, ref, N, cal_seed)
    items = []
    for i, R in enumerate(CPN_RADII):
        ball = geom.GeodesicBall(n=n, eps=1.0, R=R)
        rhs = valuations.crofton_rhs(valuations.ball_closed_form(1.0, n, R), n, r, 1.0)
        est = planes.chi_measure_estimate(ball, r, N, seed + i)
        z = est.z_score(cal.kappa * rhs, extra_stderr=cal.stderr * rhs)
        items.append({"R": R, "estimate": est.to_json(), "prediction": cal.kappa * rhs,
                      "z": z, "pass": abs(z) < ztol})
    return {"kappa": cal.kappa, "kappaStderr": cal.stderr, "items": items,
            "zTolerance": ztol, "pass": all(it["pass"] for it in items)}


def variation(
    shape: geom.Shape, level: int, tol: Optional[float] = None,
    diag: Optional[Sequence[float]] = None,
) -> dict:
    """Variation formula of every valuation key against an independent oracle.

    Balls flow radially against the analytic derivative of the closed form
    (default tol 1e-6).  Ellipsoids flow by exp(t diag) against central
    differences of the tables transported to +-1e-3, one pair for all keys
    (default tol 1e-4).  Errors are relative, floored at 1e-6 of the largest
    oracle value.  `quadrature` states the tilde table's rule and node count.
    """
    flow = _flow(shape, diag)
    operator = cc.variation_operator(shape.n)
    keys = operator.keys()
    if shape.curvatures is not None:
        tol, label = (1e-6 if tol is None else tol), "oracle"
        deriv = valuations.ball_closed_form_derivative(shape.eps, shape.n, shape.R)
        tilde = varcheck.tilde_integrals(shape, flow)
        oracle = {key: varcheck.valuation_value(deriv, key) for key in keys}
    else:
        tol, label = (1e-4 if tol is None else tol), "fd"
        tilde = varcheck.tilde_integrals(shape, flow, level=level)
        oracle = varcheck.central_differences(shape, flow, keys, 1e-3, level)
    scale = max(abs(v) for v in oracle.values())
    items = {}
    for key in keys:
        formula = varcheck.variation_formula(shape, flow, key, level=level, tilde=tilde,
                                             operator=operator)
        err = abs(formula - oracle[key]) / max(abs(oracle[key]), 1e-6 * scale)
        items[varcheck.key_name(key)] = {"formula": formula, label: oracle[key], "relErr": err}
    return {"keys": items, "quadrature": tilde.quadrature, "tolerance": tol,
            "pass": all(it["relErr"] < tol for it in items.values())}


def crofton_variation(
    shape: geom.Shape, r: int, level: int, tol: Optional[float] = None,
    diag: Optional[Sequence[float]] = None,
) -> dict:
    """Variation of the plane-measure bracket: finite difference vs formula.

    Balls flow radially with step 1e-4 (default tol 1e-6); ellipsoids flow by
    exp(t diag) with step 1e-3 (default tol 1e-4).  `quadrature` states the
    tilde table's rule and node count.
    """
    ball = shape.curvatures is not None
    tol = (1e-6 if ball else 1e-4) if tol is None else tol
    flow = _flow(shape, diag)
    tilde = varcheck.tilde_integrals(shape, flow, level=level)
    lhs, rhs = varcheck.crofton_variation_check(
        shape, flow, r, level=level, h_step=1e-4 if ball else 1e-3, tilde=tilde
    )
    err = abs(lhs - rhs) / max(abs(rhs), 1e-12)
    return {"fd": lhs, "formula": rhs, "relErr": err, "quadrature": tilde.quadrature,
            "tolerance": tol, "pass": err < tol}


def total_gauss(
    reference: geom.Shape, r: int, families: Sequence[Sequence[float]], level: int,
    N: int, cal_seed: int, seed: int, ztol: Optional[float] = None,
) -> dict:
    """Plane-averaged total Gauss curvature of sections, two gates per family.

    The average is compared with kappa times the total-Gauss table (|z| <
    ztol), and its ratio to the chi estimate of the same plane stream with
    O_{2r-1} (relative 1e-9: every hit contributes O_{2r-1}).
    """
    ztol = Z_GATE if ztol is None else ztol
    n = reference.n
    cal = planes.calibrate(n, r, 0.0, reference, N, cal_seed, level=level)
    o = cc.sphere_volume_coeff(2 * r - 1).to_float()
    items = []
    for i, axes in enumerate(families):
        shape = geom.Ellipsoid.from_axes(axes)
        res = planes.total_gauss_estimate(shape, r, N, seed + i)
        table = valuations.hermitian_volumes(shape, level)
        pred = cal.kappa * cc.total_gauss_coeffs(n, r).eval(table.mu_dict(), table.vol, 0.0)
        z_table = res.total.z_score(pred, extra_stderr=cal.stderr * pred / cal.kappa)
        ratio = res.total.mean / res.chi.mean
        items.append({"axes": axes, "total": res.total.to_json(), "chi": res.chi.to_json(),
                      "ratio": ratio, "ratioTarget": o, "prediction": pred, "zTable": z_table,
                      "pass": abs(z_table) < ztol and abs(ratio - o) / o < 1e-9})
    return {"kappa": cal.kappa, "items": items, "zTolerance": ztol,
            "pass": all(it["pass"] for it in items)}


def grassmann_pointwise(
    n: int, r: int, N: int, form_seed: int, seed: int, umbilic_samples: int,
    umbilic_seed: int, ztol: Optional[float] = None,
) -> dict:
    """Haar average of sigma_{2r}(II|_V) against the density combination.

    An umbilic form must reproduce lambda^{2r} to 1e-12.  Two random forms
    drawn from `form_seed` are scored absolutely and by their ratio (|z| < ztol).
    """
    ztol = Z_GATE if ztol is None else ztol
    d = 2 * n - 1
    rng = np.random.default_rng(form_seed)
    lam = 0.8
    est = planes.grassmann_sigma_average(
        np.diag([1.3] + [lam] * (d - 1)), r, umbilic_samples, umbilic_seed
    )
    exact = lam ** (2 * r)
    items = {"umbilic": {"mean": est.mean, "exact": exact, "err": abs(est.mean - exact)}}
    ok = abs(est.mean - exact) < 1e-12
    hs = [(A + A.T) / 2 for A in (rng.standard_normal((d, d)) for _ in range(2))]
    ests = [planes.grassmann_sigma_average(h, r, N, seed + i) for i, h in enumerate(hs)]
    combos = [planes.cor44_density_combination(n, r, h) for h in hs]
    for i in range(2):
        z = ests[i].z_score(combos[i])
        items[f"h{i}"] = {"mean": ests[i].mean, "stderr": ests[i].stderr,
                          "combo": combos[i], "z": z}
        ok &= abs(z) < ztol
    ratio = ests[0].mean / ests[1].mean
    ratio_pred = combos[0] / combos[1]
    ratio_err = sqrt(
        (ests[0].stderr / ests[1].mean) ** 2
        + (ests[0].mean * ests[1].stderr / ests[1].mean ** 2) ** 2
    )
    zr = (ratio - ratio_pred) / ratio_err
    items["ratio"] = {"value": ratio, "prediction": ratio_pred, "z": zr}
    return {"items": items, "zTolerance": ztol, "pass": ok and abs(zr) < ztol}
