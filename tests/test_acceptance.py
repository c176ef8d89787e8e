"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
the suite is deterministic (fixed seeds, counter-based RNG substreams).
Criteria 3-10 run the same `croftonlab.checks` functions as `croftonlab
check`, with their own shapes, seeds, sample sizes and gates.

Criteria:
   1 exact coefficient suite (`checks.identities`, as `croftonlab coeffs --identities`)
   2 exterior-algebra densities vs the permutation oracle, umbilic closed form
   3 Gauss-Bonnet residuals: closed-form balls (eps = +-1) and flat ellipsoids
   4 Gamma/B curvature relation residuals on curved balls
   5 flat Crofton Monte Carlo across ellipsoid families, predicted by the exact kappa
   6 projective (eps = 1) Crofton radius dependence
   7 variation formulas vs finite differences / closed-form derivatives
   8 variation of the plane measure: formula vs differentiated bracket
   9 pointwise Grassmann average vs the density combination
  10 plane-averaged total Gauss curvature of sections
"""

import time
from math import factorial

import numpy as np

from croftonlab import checks
from croftonlab import coeffcore as cc
from croftonlab import extalg, geom
from croftonlab import valuations as val
from croftonlab import varcheck as vc
from helpers import radial_differences


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Exact coefficient suite
# ---------------------------------------------------------------------------


def test_criterion_01_exact_coefficients():
    t0 = time.time()
    # the suite of `croftonlab coeffs --identities`, for n <= 10
    ok = checks.identities(10)["pass"]
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(1, ok, f"solver, cancellation, eps-independence, short Gauss-Bonnet and "
                  f"total-curvature identities n<=10, normalizations m<=19; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Exterior-algebra oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_02_density_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3):
        d = 2 * n - 1
        hs = rng.standard_normal((100, d, d))
        hs = (hs + np.swapaxes(hs, 1, 2)) / 2
        for h in hs:
            for (k, q) in cc.beta_indices(n):
                a = extalg.density_beta(n, k, q, h)
                b = extalg.permutation_oracle("beta", n, k, q, h)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
            for (k, q) in cc.gamma_indices(n):
                a = extalg.density_gamma(n, k, q, h)
                b = extalg.permutation_oracle("gamma", n, k, q, h)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst < 1e-10
    # symmetric h with small integer entries: every product and partial sum
    # is an integer below 2^53, so the engine equals the oracle bit for bit
    rng = np.random.default_rng(2025)
    exact = 0
    for n in (2, 3):
        d = 2 * n - 1
        ints = rng.integers(-3, 4, (50, d, d)).astype(float)
        for h in ints + np.swapaxes(ints, 1, 2):
            for kind, keys, density in (("beta", cc.beta_indices(n), extalg.density_beta),
                                        ("gamma", cc.gamma_indices(n), extalg.density_gamma)):
                for (k, q) in keys:
                    exact += density(n, k, q, h) == extalg.permutation_oracle(kind, n, k, q, h)
    cases = 50 * sum(len(cc.beta_indices(n)) + len(cc.gamma_indices(n)) for n in (2, 3))
    ok &= exact == cases
    # umbilic closed form: the beta density of degree 2r in lambda is
    # 2^{2a-2} lambda^{2r} (n-1)! at (k, q) = (2n-2r-1, n-r-a)
    lam = 1.37
    for n in (2, 3):
        h = np.diag([2.2] + [lam] * (2 * n - 2))
        for r in range(0, n):
            for a in range(1, r + 2):
                k, q = 2 * n - 2 * r - 1, n - r - a
                if not cc.valid_index(n, k, q) or k == 2 * q:
                    continue
                got = extalg.density_beta(n, k, q, h)
                want = 2.0 ** (2 * a - 2) * lam ** (2 * r) * factorial(n - 1)
                ok &= abs(got - want) <= 1e-13 * abs(want)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(2, ok, f"100 random h per (k,q), n in {{2,3}}, worst rel err {worst:.2e}; "
                  f"{exact}/{cases} integer h bit for bit; umbilic closed form exact; "
                  f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Gauss-Bonnet
# ---------------------------------------------------------------------------


def worst_relative(results) -> float:
    return max(results["relativeMuForm"], results["relativePlaneForm"])


def test_criterion_03_gauss_bonnet():
    t0 = time.time()
    ok = True
    worst_ball = 0.0
    for eps in (-1.0, 1.0):
        for n in (2, 3):
            for R in (0.3, 0.6, 0.9):
                res = checks.gauss_bonnet(geom.GeodesicBall(n=n, eps=eps, R=R), 1, 1e-8)
                worst_ball = max(worst_ball, worst_relative(res))
                ok &= res["pass"]
    worst_flat = 0.0
    flat = [(axes, 2) for axes in checks.FLAT_FAMILIES[2]] + [([1, 1, 1, 1, 1, 2], 1)]
    for axes, level in flat:
        res = checks.gauss_bonnet(geom.Ellipsoid.from_axes(axes), level, 1e-6)
        worst_flat = max(worst_flat, worst_relative(res))
        ok &= res["pass"]
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(3, ok, f"balls eps=+-1 n=2,3 R=0.3/0.6/0.9: {worst_ball:.2e} (<1e-8); "
                  f"flat ellipsoids: {worst_flat:.2e} (<1e-6); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Gamma/B relation
# ---------------------------------------------------------------------------


def test_criterion_04_gamma_b_relation():
    ok = True
    worst = 0.0
    keys = None
    for eps in (-1.0, 1.0):
        for R in (0.5, 0.8):
            res = checks.gamma_b(geom.GeodesicBall(n=3, eps=eps, R=R), 1e-9)
            keys = [tuple(int(i) for i in key.split(",")) for key in res["residuals"]]
            worst = max(worst, res["worst"])
            ok &= res["pass"]
    report(4, ok, f"residuals on eps=+-1 balls, n=3, strict keys {keys}: {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Flat Crofton Monte Carlo
# ---------------------------------------------------------------------------

TABLE_LEVEL = {2: 2, 3: 1}


def test_criterion_05_crofton_monte_carlo():
    t0 = time.time()
    N = 1_000_000
    ok = True
    details = []
    for n, rs in ((2, (1,)), (3, (1, 2))):
        for r in rs:
            res = checks.crofton_flat(r, checks.FLAT_FAMILIES[n], TABLE_LEVEL[n], N,
                                      600 + 10 * n + r, 3.0)
            ok &= res["pass"]
            details += [f"({n},{r}) {it['axes']}: z={it['z']:+.2f} "
                        f"sd/mean={it['stderrOverMean']:.4f}" for it in res["items"]]
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    report(5, ok, "; ".join(details) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Projective Crofton radius dependence
# ---------------------------------------------------------------------------


def test_criterion_06_crofton_projective():
    t0 = time.time()
    res = checks.crofton_cpn(2, 1, 1_000_000, 62, 3.0)
    details = [f"R={it['R']}: z={it['z']:+.2f}" for it in res["items"]]
    elapsed = time.time() - t0
    ok = res["pass"] and elapsed < 300.0
    report(6, ok, "; ".join(details) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Variation formulas
# ---------------------------------------------------------------------------


def worst_rel_err(results) -> float:
    return max(item["relErr"] for item in results["keys"].values())


def test_criterion_07_variation_formulas():
    t0 = time.time()
    ok = True
    worst_ball = 0.0
    for eps in (-1.0, 0.0, 1.0):
        for n in (2, 3):
            R = 0.8 if eps != 1.0 else 0.5
            res = checks.variation(geom.GeodesicBall(n=n, eps=eps, R=R), 1, 1e-6)
            worst_ball = max(worst_ball, worst_rel_err(res))
            ok &= res["pass"]

    worst_flat = 0.0
    for axes, diag in (
        ([1, 1, 2, 2], [0.3, -0.1, 0.2, 0.05]),
        ([1, 2, 2, 3], [0.1, 0.25, -0.15, 0.2]),
    ):
        res = checks.variation(geom.Ellipsoid.from_axes(axes), 2, 1e-4, diag=diag)
        worst_flat = max(worst_flat, worst_rel_err(res))
        ok &= res["pass"]

    # central differences of the radially grown ball converge at second order
    key = ("B", 2, 0)
    exact = vc.valuation_value(val.ball_closed_form_derivative(1.0, 2, 0.5), key)
    errs = [
        abs(vc.valuation_value(radial_differences(1.0, 2, 0.5, hh), key) - exact)
        for hh in (1e-2, 5e-3, 2.5e-3)
    ]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok &= all(abs(rr - 4.0) < 0.3 for rr in ratios)
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(7, ok, f"balls worst {worst_ball:.2e} (<1e-6); ellipsoids worst "
                  f"{worst_flat:.2e} (<1e-4); fd ratios {ratios[0]:.2f}/{ratios[1]:.2f}; "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Variation of the plane measure
# ---------------------------------------------------------------------------


def test_criterion_08_crofton_variation():
    t0 = time.time()
    ok = True
    worst_ball = 0.0
    for eps in (-1.0, 0.0, 1.0):
        for n, rs in ((2, (1,)), (3, (1, 2))):
            R = 0.8 if eps != 1.0 else 0.5
            for r in rs:
                res = checks.crofton_variation(geom.GeodesicBall(n=n, eps=eps, R=R), r, 1, 1e-6)
                worst_ball = max(worst_ball, res["relErr"])
                ok &= res["pass"]
    worst_flat = 0.0
    for axes in ([1, 1, 2, 2], [1, 2, 2, 3]):
        res = checks.crofton_variation(geom.Ellipsoid.from_axes(axes), 1, 2, 1e-4,
                                       diag=[0.3, -0.1, 0.2, 0.05])
        worst_flat = max(worst_flat, res["relErr"])
        ok &= res["pass"]
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(8, ok, f"balls (eps in -1,0,1; n=2,3; all r) worst {worst_ball:.2e} (<1e-6); "
                  f"ellipsoids worst {worst_flat:.2e} (<1e-4); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Pointwise Grassmann average
# ---------------------------------------------------------------------------


def test_criterion_09_grassmann_average():
    t0 = time.time()
    res = checks.grassmann_pointwise(3, 1, 100_000, 902, 903, 4096, 901, 3.0)
    items = res["items"]
    elapsed = time.time() - t0
    ok = res["pass"] and elapsed < 60.0
    report(9, ok, f"umbilic exact; absolute z = {items['h0']['z']:+.2f}/{items['h1']['z']:+.2f}; "
                  f"ratio z = {items['ratio']['z']:+.2f}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Total Gauss curvature of sections
# ---------------------------------------------------------------------------


def test_criterion_10_total_gauss():
    t0 = time.time()
    res = checks.total_gauss(1, checks.FLAT_FAMILIES[2][:2], 2, 1_000_000, 1002, 3.0)
    details = [
        f"{it['axes']}: ratio err {abs(it['ratio'] - it['ratioTarget']) / it['ratioTarget']:.1e}, "
        f"z={it['zTable']:+.2f}"
        for it in res["items"]
    ]
    elapsed = time.time() - t0
    ok = res["pass"] and elapsed < 600.0
    report(10, ok, "; ".join(details) + f"; {elapsed:.0f}s")
