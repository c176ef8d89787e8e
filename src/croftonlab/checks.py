"""The verifications, shared by `croftonlab check` and the acceptance suite.

Each check is a pure function of its shapes, level, sample counts, seeds and
tolerance, and returns the `results` dict that `croftonlab check` reports; its
"pass" entry is the verdict.  A tolerance of None selects the check's default.
Monte Carlo checks draw their i-th estimate with seed `seed + i` and predict
it with the closed-form `planes.kappa`.

Layers are called through their module attributes (`planes.chi_measure_estimate`,
not a name imported from `planes`), so a caller that wraps a layer function in
its module also sees the calls made here.
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


def _sphere_volume_closed_form(m: int) -> cc.PiScalar:
    """O_m = 2 pi^{(m+1)/2} / Gamma((m+1)/2) exactly: 2 pi^j / (j-1)! for
    m = 2j-1 and 2^{2j+1} pi^j j! / (2j)! for m = 2j."""
    j = (m + 1) // 2
    if m % 2:
        return cc.PiScalar(Fraction(2, factorial(j - 1)), j)
    return cc.PiScalar(Fraction(2 ** (2 * j + 1) * factorial(j), factorial(2 * j)), j)


def identities(max_n: int) -> dict:
    """The exact coefficient suite for n = 2..max_n, one verdict per case.

    solver: the flat Crofton system, solved exactly, is the primed
    `flat_crofton_coeffs` table, with zero residual in every d-equation
    (1 <= r < n); cancellation: the eps-graded cancellation identity
    (1 <= r < n); epsIndependence: the variation operator maps
    `crofton_coeffs` to `crofton_variation_coeffs` with every eps-graded term
    cancelled (1 <= r < n), and `gauss_bonnet_coeffs` to zero (r = n; n = 1
    included); normalizations: `sphere_volume_coeff(m)`
    against the closed form of O_m (0 <= m < 2 max_n); shortGaussBonnet: the
    Gauss-Bonnet table is `coeffcore.short_gauss_bonnet_coeffs` plus the total
    curvature, which holds with a hyperplane Grassmannian of unit mass
    (`coeffcore.verify_short_gauss_bonnet`);
    totalCurvature: the total-Gauss table is O_{2r-1} times the flat Crofton
    table (1 <= r < n).  Below max_n = 2 the suite would check n = 1 alone,
    so it raises ValueError.
    """
    if max_n < 2:
        raise ValueError(f"the identity suite needs max_n >= 2, got {max_n}")
    groups = ("solver", "cancellation", "epsIndependence", "normalizations",
              "shortGaussBonnet", "totalCurvature")
    results = {group: {} for group in groups}
    results["epsIndependence"]["1,1"] = cc.check_epsilon_independence(1, 1)
    for n in range(2, max_n + 1):
        for r in range(1, n):
            sol = cc.solve_crofton_system(n, r)
            results["solver"][f"{n},{r}"] = sol.closed_form_matches() and all(
                v == 0 for v in sol.d_equation_residuals().values()
            )
            results["cancellation"][f"{n},{r}"] = cc.verify_cancellation_identity(n, r)
            flat = cc.flat_crofton_coeffs(n, r).scaled(cc.sphere_volume_coeff(2 * r - 1))
            total = cc.total_gauss_coeffs(n, r)
            results["totalCurvature"][f"{n},{r}"] = total.same_coefficients(flat)
        for r in range(1, n + 1):
            results["epsIndependence"][f"{n},{r}"] = cc.check_epsilon_independence(n, r)
        results["shortGaussBonnet"][str(n)] = cc.verify_short_gauss_bonnet(n)
    for m in range(0, 2 * max_n):
        results["normalizations"][str(m)] = (
            cc.sphere_volume_coeff(m) == _sphere_volume_closed_form(m)
        )
    results["pass"] = all(all(group.values()) for group in results.values())
    return results


def _with_rule(results: dict, table: valuations.ValuationTable) -> dict:
    """`results`, plus the rule and node count of a quadrature table as `quadrature`."""
    return {**results, "quadrature": table.quadrature} if table.quadrature else results


def gauss_bonnet(shape: geom.Shape, level: int, tol: Optional[float] = None) -> dict:
    """Both Gauss-Bonnet residuals, relative to O_{2n-1} of the shape's own n.

    Quadrature tables also report their rule and node count."""
    tol = 1e-8 if tol is None else tol
    o = cc.sphere_volume_coeff(2 * shape.n - 1).to_float()
    table = valuations.shape_table(shape, level)
    r_mu, r_plane = valuations.gauss_bonnet_residual(shape, table=table)
    rel_mu, rel_plane = abs(r_mu) / o, abs(r_plane) / o
    return _with_rule({"residualMuForm": r_mu, "residualPlaneForm": r_plane,
                       "relativeMuForm": rel_mu, "relativePlaneForm": rel_plane, "tolerance": tol,
                       "pass": rel_mu < tol and rel_plane < tol}, table)


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
    r: int, families: Sequence[Sequence[float]], level: int, N: int, seed: int,
    ztol: Optional[float] = None,
) -> dict:
    """Flat Crofton Monte Carlo on ellipsoid families of one n: each estimate
    against kappa times the bracket of its table at `level`.  A family passes
    if |z| < ztol and stderr/mean < 1%."""
    ztol = Z_GATE if ztol is None else ztol
    n = len(families[0]) // 2
    kappa = planes.kappa(n, r, 0).to_float()
    items = []
    for i, axes in enumerate(families):
        shape = geom.Ellipsoid.from_axes(axes)
        rhs = valuations.crofton_rhs(valuations.hermitian_volumes(shape, level), r)
        est = planes.chi_measure_estimate(shape, r, N, seed + i)
        z = est.z_score(kappa * rhs)
        rel_sd = est.stderr / est.mean if est.mean else float("inf")
        items.append({"axes": axes, "estimate": est.to_json(), "prediction": kappa * rhs,
                      "z": z, "stderrOverMean": rel_sd, "pass": abs(z) < ztol and rel_sd < 0.01})
    return {"kappa": kappa, "items": items, "zTolerance": ztol,
            "pass": all(it["pass"] for it in items)}


def crofton_cpn(n: int, r: int, N: int, seed: int, ztol: Optional[float] = None) -> dict:
    """Projective (eps = 1) Crofton radius dependence on geodesic balls."""
    ztol = Z_GATE if ztol is None else ztol
    kappa = planes.kappa(n, r, 1).to_float()
    items = []
    for i, R in enumerate(CPN_RADII):
        ball = geom.GeodesicBall(n=n, eps=1.0, R=R)
        rhs = valuations.crofton_rhs(valuations.ball_closed_form(1.0, n, R), r)
        est = planes.chi_measure_estimate(ball, r, N, seed + i)
        z = est.z_score(kappa * rhs)
        items.append({"R": R, "estimate": est.to_json(), "prediction": kappa * rhs,
                      "z": z, "pass": abs(z) < ztol})
    return {"kappa": kappa, "items": items, "zTolerance": ztol,
            "pass": all(it["pass"] for it in items)}


def _oracle(shape: geom.Shape, level: int, diag: Optional[Sequence[float]]):
    """(report label, tilde table, derivative table, default tolerance): a ball
    grows at unit normal speed, so its tilde table is its closed form and its
    oracle the analytic R-derivative (tol 1e-6); an ellipsoid flows by
    exp(t diag) (default 0.3 - 0.07 i), with central differences at +-1e-3 (tol 1e-4)."""
    if shape.curvatures is not None:
        return ("oracle", valuations.shape_table(shape),
                valuations.ball_closed_form_derivative(shape.eps, shape.n, shape.R), 1e-6)
    if diag is None:
        diag = [0.3 - 0.07 * i for i in range(2 * shape.n)]
    flow = varcheck.LinearFlow(np.diag(diag))
    return ("fd", valuations.hermitian_volumes(shape, level, flow),
            varcheck.central_differences(shape, flow, 1e-3, level), 1e-4)


def variation(
    shape: geom.Shape, level: int, tol: Optional[float] = None,
    diag: Optional[Sequence[float]] = None,
) -> dict:
    """Variation formula of every valuation key against the derivative table
    of `_oracle`: balls grow radially, ellipsoids flow by exp(t diag).

    Errors are relative, floored at 1e-6 of the largest oracle value.
    `quadrature` states the rule and node count of a quadrature tilde table.
    """
    keys = cc.variation_operator(shape.n).keys()
    label, tilde, deriv, default_tol = _oracle(shape, level, diag)
    tol = default_tol if tol is None else tol
    oracle = {key: varcheck.valuation_value(deriv, key) for key in keys}
    scale = max(abs(v) for v in oracle.values())
    items = {}
    for key in keys:
        formula = varcheck.variation_formula(key, tilde)
        err = abs(formula - oracle[key]) / max(abs(oracle[key]), 1e-6 * scale)
        items[varcheck.key_name(key)] = {"formula": formula, label: oracle[key], "relErr": err}
    return _with_rule({"keys": items, "tolerance": tol,
                       "pass": all(it["relErr"] < tol for it in items.values())}, tilde)


def crofton_variation(
    shape: geom.Shape, r: int, level: int, tol: Optional[float] = None,
    diag: Optional[Sequence[float]] = None,
) -> dict:
    """Variation of the plane-measure bracket: the bracket of `_oracle`'s
    derivative table against `varcheck.crofton_variation_formula`.

    `quadrature` states the rule and node count of a quadrature tilde table.
    """
    label, tilde, deriv, default_tol = _oracle(shape, level, diag)
    tol = default_tol if tol is None else tol
    lhs = valuations.crofton_rhs(deriv, r)
    rhs = varcheck.crofton_variation_formula(r, tilde)
    err = abs(lhs - rhs) / max(abs(rhs), 1e-12)
    return _with_rule({label: lhs, "formula": rhs, "relErr": err, "tolerance": tol,
                       "pass": err < tol}, tilde)


def total_gauss(
    r: int, families: Sequence[Sequence[float]], level: int, N: int, seed: int,
    ztol: Optional[float] = None,
) -> dict:
    """Plane-averaged total Gauss curvature of sections, two gates per family.

    The families share one n.  The average is compared with kappa times the
    total-Gauss table (|z| < ztol), and its ratio to the chi estimate of the
    same plane stream with O_{2r-1} (relative 1e-9): that gate guards that the
    estimator counts each hit section at its Gauss-map degree, O_{2r-1}.
    """
    ztol = Z_GATE if ztol is None else ztol
    n = len(families[0]) // 2
    kappa = planes.kappa(n, r, 0).to_float()
    o = cc.sphere_volume_coeff(2 * r - 1).to_float()
    items = []
    for i, axes in enumerate(families):
        shape = geom.Ellipsoid.from_axes(axes)
        res = planes.total_gauss_estimate(shape, r, N, seed + i)
        table = valuations.hermitian_volumes(shape, level)
        pred = kappa * cc.total_gauss_coeffs(n, r).eval(table.mu_dict(), table.vol, 0.0)
        z_table = res.total.z_score(pred)
        # nan without hits: the run fails its gate instead of raising
        ratio = res.total.mean / res.chi.mean if res.chi.mean else float("nan")
        items.append({"axes": axes, "total": res.total.to_json(), "chi": res.chi.to_json(),
                      "ratio": ratio, "ratioTarget": o, "prediction": pred, "zTable": z_table,
                      "pass": abs(z_table) < ztol and abs(ratio - o) / o < 1e-9})
    return {"kappa": kappa, "items": items, "zTolerance": ztol,
            "pass": all(it["pass"] for it in items)}


def grassmann_pointwise(
    n: int, r: int, N: int, form_seed: int, seed: int, umbilic_samples: int,
    umbilic_seed: int, ztol: Optional[float] = None,
) -> dict:
    """Haar average of sigma_{2r}(II|_V) against the density combination.

    An umbilic form must reproduce lambda^{2r} to 1e-12.  Two random forms
    drawn from `form_seed` are scored absolutely and by their ratio (|z| < ztol).
    At r = n - 1, V is the whole distribution and every sample is det(h_D), so
    the spread is roundoff: there the two estimates and the ratio are gated at
    1e-12 relative to their predictions (`relErr`) instead.
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
        items[f"h{i}"] = {"mean": ests[i].mean, "stderr": ests[i].stderr,
                          "combo": combos[i], "z": ests[i].z_score(combos[i])}
    ratio = ests[0].mean / ests[1].mean
    ratio_pred = combos[0] / combos[1]
    ratio_err = sqrt(
        (ests[0].stderr / ests[1].mean) ** 2
        + (ests[0].mean * ests[1].stderr / ests[1].mean ** 2) ** 2
    )
    # as in MCEstimate.z_score, a zero spread gives z = inf
    zr = (ratio - ratio_pred) / ratio_err if ratio_err > 0 else float("inf")
    items["ratio"] = {"value": ratio, "prediction": ratio_pred, "z": zr}
    scored = {"h0": (ests[0].mean, combos[0]), "h1": (ests[1].mean, combos[1]),
              "ratio": (ratio, ratio_pred)}
    for key, (value, prediction) in scored.items():
        if r == n - 1:
            items[key]["relErr"] = abs(value - prediction) / abs(prediction)
            ok &= items[key]["relErr"] < 1e-12
        else:
            ok &= abs(items[key]["z"]) < ztol
    return {"items": items, "zTolerance": ztol, "pass": ok}
