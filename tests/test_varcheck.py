"""Variation formulas vs finite differences and closed-form derivatives."""

from math import pi

import numpy as np
import pytest
from scipy.linalg import expm

from croftonlab import checks
from croftonlab import coeffcore as cc
from croftonlab import geom, valuations as val, varcheck as vc
from helpers import ProductRuleWeight, radial_differences, richardson_error, sphere_area


def rel_err(a, b, scale):
    return abs(a - b) / max(abs(a), abs(b), 1e-6 * scale)


# ---------------------------------------------------------------------------
# Tilde tables
# ---------------------------------------------------------------------------


def test_radial_tilde_equals_valuations():
    # a ball grows at unit normal speed, <X, N> = 1: its tilde table is its
    # closed-form table, and its oracle the analytic R-derivative
    ball = geom.GeodesicBall(n=2, eps=1.0, R=0.6)
    label, tilde, deriv, tol = checks._oracle(ball, 1, None)
    assert (label, tol) == ("oracle", 1e-6)
    assert tilde == val.ball_closed_form(1.0, 2, 0.6)
    assert deriv == val.ball_closed_form_derivative(1.0, 2, 0.6)


@pytest.mark.parametrize("axes", [[1, 1, 2, 2], [1, 2, 2, 3]])
def test_tilde_tables_fold_by_the_flow_symmetry(axes):
    # a diagonal generator keeps <X, N> invariant under the sign flips and the
    # conjugation but not the torus, even on the T^n-invariant [1,1,2,2]; a
    # coupled one under neither
    e = geom.Ellipsoid.from_axes(axes)
    t = val.hermitian_volumes(e, 0, vc.LinearFlow(np.diag([0.3, 0.23, 0.16, 0.09])))
    assert t.quadrature == {"rule": "conj-fold", "nodes": len(geom.sphere_grid(4, 0)[1]) // 8}
    t = val.hermitian_volumes(e, 0, vc.LinearFlow(NONDIAGONAL_GENERATOR))
    assert t.quadrature == {"rule": "product", "nodes": len(geom.sphere_grid(4, 0)[1])}


def test_flow_symmetry_groups():
    S = geom.Symmetry
    assert vc.LinearFlow(np.diag([0.3, 0.23, 0.16, 0.09])).symmetry == S(frozenset(), True, True)
    assert vc.LinearFlow(np.diag([0.3, 0.3, 0.2, 0.1])).symmetry == S(frozenset({0}), True, True)
    assert vc.LinearFlow(np.diag([0.3, 0.3, 0.1, 0.1])).symmetry == S.full(2)
    assert vc.LinearFlow(A_PLUS_BJ).symmetry == S(frozenset({0, 1}), True, False)
    assert vc.LinearFlow(NONDIAGONAL_GENERATOR).symmetry == S()


# a + bJ on each complex coordinate pair: it commutes with the torus, not with C
A_PLUS_BJ = np.array([[0.3, -0.2, 0, 0], [0.2, 0.3, 0, 0], [0, 0, 0.1, 0.4], [0, 0, -0.4, 0.1]])


def test_an_a_plus_bj_flow_folds_by_the_torus_only():
    # on a J-invariant ellipsoid its tilde table still takes the torus-orbit
    # rule; on an axis-aligned one, which commutes with C but not the torus,
    # the meet is the sign group
    flow = vc.LinearFlow(A_PLUS_BJ)
    t = val.hermitian_volumes(geom.Ellipsoid.from_axes([1, 1, 2, 2]), 0, flow)
    assert t.quadrature == {"rule": "torus-orbit", "nodes": 8}
    t = val.hermitian_volumes(geom.Ellipsoid.from_axes([1, 2, 2, 3]), 0, flow)
    assert t.quadrature == {"rule": "sign-fold", "nodes": len(geom.sphere_grid(4, 0)[1]) // 4}


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_expm_equals_scipy(d):
    # random generators of 2-norm up to 2, against scipy's scaling and squaring
    rng = np.random.default_rng(10 + d)
    for _ in range(200):
        A = rng.standard_normal((d, d))
        A *= rng.uniform(0, 2) / np.linalg.norm(A, 2)
        want = expm(A)
        assert np.linalg.norm(vc._expm(A) - want) <= 1e-14 * np.linalg.norm(want)


def test_expm_scales_and_squares_large_generators():
    # 1-norms beyond THETA_13 take the squarings: a turn by 10 radians, and
    # a diagonal generator, whose exponentials are exact
    turn = np.array([[0.0, -10.0], [10.0, 0.0]])
    assert np.max(np.abs(vc._expm(turn) - [[np.cos(10), -np.sin(10)], [np.sin(10), np.cos(10)]])) <= 1e-13
    diag = np.array([-12.0, 0.5, 9.0])
    E = vc._expm(np.diag(diag))
    assert np.allclose(np.diag(E), np.exp(diag), rtol=1e-13, atol=0)
    assert not np.any(E[~np.eye(3, dtype=bool)])
    assert np.array_equal(vc._expm(np.zeros((4, 4))), np.eye(4))


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_linear_flow_rejects_a_generator_that_is_not_finite(entry):
    # the scaling of the exponential needs a finite 1-norm
    A = np.eye(4)
    A[1, 2] = entry
    with pytest.raises(ValueError, match="finite"):
        vc.LinearFlow(A)


def _product_rule_tilde(shape, flow, level):
    """The tilde table on the full product rule: the weight claims no symmetry."""
    return val.hermitian_volumes(shape, level, ProductRuleWeight(flow))


@pytest.mark.parametrize(
    "axes,diag", [([1, 1, 2, 2], [0.3, -0.1, 0.2, 0.05]), ([1, 2, 2, 3], [0.1, 0.25, -0.15, 0.2])]
)
def test_folded_tilde_table_matches_the_product_rule(axes, diag):
    e = geom.Ellipsoid.from_axes(axes)
    flow = vc.LinearFlow(np.diag(diag))
    folded = val.hermitian_volumes(e, 2, flow)
    assert folded.quadrature["rule"] == "conj-fold"
    full = _product_rule_tilde(e, flow, 2)
    assert full.quadrature["rule"] == "product"
    got = folded.to_json()
    for key, value in full.to_json().items():
        assert got[key] == pytest.approx(value, rel=1e-13), key


def test_torus_orbit_tilde_table_within_product_rule_error():
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    flow = vc.LinearFlow(np.diag([0.3, 0.3, 0.1, 0.1]))
    orbit = val.hermitian_volumes(e, 2, flow)
    assert orbit.quadrature == {"rule": "torus-orbit", "nodes": 32}
    full = _product_rule_tilde(e, flow, 2)
    got, want = orbit.to_json(), full.to_json()
    # entries the product rule integrates exactly differ by roundoff only
    for key, err in richardson_error(full, _product_rule_tilde(e, flow, 1)).items():
        assert abs(got[key] - want[key]) <= max(err, 1e-14 * abs(want[key])), key


def test_a_flow_with_an_equal_pair_frees_that_phase():
    # the first pair is equal in both the quadric and the generator: the
    # tilde table runs on the Hopf rule, one phase integrated out
    e = geom.Ellipsoid.from_axes([1, 1, 1, 2])
    flow = vc.LinearFlow(np.diag([0.3, 0.3, 0.2, 0.1]))
    hopf = val.hermitian_volumes(e, 2, flow)
    assert hopf.quadrature == {"rule": "hopf", "nodes": 32 * 32 // 2}
    full = _product_rule_tilde(e, flow, 2)
    got, want = hopf.to_json(), full.to_json()
    for key, err in richardson_error(full, _product_rule_tilde(e, flow, 1)).items():
        assert abs(got[key] - want[key]) <= max(err, 1e-14 * abs(want[key])), key


def test_identity_flow_on_unit_sphere():
    # X = x has <X, N> = 1 on the unit sphere
    e = geom.Ellipsoid.from_axes([1, 1, 1, 1])
    t = val.hermitian_volumes(e, 1, vc.LinearFlow(np.eye(4)))
    tb = val.hermitian_volumes(e, level=1)
    for key in t.B:
        assert t.B[key] == pytest.approx(tb.B[key], rel=1e-12)


def test_invalid_pairings_raise():
    ball_neg = geom.GeodesicBall(n=2, eps=-1.0, R=0.5)
    with pytest.raises(ValueError):
        val.hermitian_volumes(ball_neg, flow=vc.LinearFlow(np.eye(4)))
    # a linear flow on a flat ball: a ball has no boundary rule to integrate
    # a weight <Ax, N> on
    flat_ball = geom.GeodesicBall(n=2, eps=0.0, R=1.0)
    flow = vc.LinearFlow(np.diag([0.3, 0.1, 0.2, 0.05]))
    with pytest.raises(ValueError):
        val.hermitian_volumes(flat_ball, flow=flow)
    # nor can the flow transport the ball for central differences
    with pytest.raises(ValueError):
        vc.central_differences(flat_ball, flow, 1e-3)


# ---------------------------------------------------------------------------
# Balls grown radially: formula vs analytic derivative
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps,R", [(0.0, 1.0), (1.0, 0.5), (-1.0, 0.8)])
@pytest.mark.parametrize("n", [2, 3])
def test_radial_variation_every_key(eps, R, n):
    res = checks.variation(geom.GeodesicBall(n=n, eps=eps, R=R), 1, 1e-6)
    assert res["pass"], res["keys"]


@pytest.mark.parametrize("eps", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_radial_variation_at_a_tiny_radius(eps, n):
    # the closed forms divided by f and g, and lost up to 1.6e-4 here
    res = checks.variation(geom.GeodesicBall(n=n, eps=eps, R=1e-6), 1)
    assert res["pass"]
    assert max(item["relErr"] for item in res["keys"].values()) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_crofton_variation_near_the_injectivity_bound(n):
    # 1e-4 below pi/2 the derivative table's divisions lost up to 37% at r = 1
    res = checks.crofton_variation(geom.GeodesicBall(n=n, eps=1.0, R=1.5707), 1, 1)
    assert res["pass"], res["relErr"]


def test_radial_fd_matches_formula():
    keys = (("B", 2, 0), ("G", 2, 1), "vol")
    fds = radial_differences(1.0, 2, 0.5, 1e-4)
    tilde = val.ball_closed_form(1.0, 2, 0.5)
    for key in keys:
        fd = vc.valuation_value(fds, key)
        assert fd == pytest.approx(vc.variation_formula(key, tilde), rel=1e-6)


def test_fd_second_order_convergence():
    key = ("B", 2, 0)
    exact = vc.valuation_value(val.ball_closed_form_derivative(1.0, 2, 0.5), key)
    errs = [
        abs(vc.valuation_value(radial_differences(1.0, 2, 0.5, h), key) - exact)
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_volume_first_variation_is_area():
    # d/dt vol = integral of <X, N>, i.e. 2 tilde-B_{2n-1,n-1}
    area = sphere_area(-1.0, 3, 0.7)
    tilde = val.ball_closed_form(-1.0, 3, 0.7)
    assert vc.variation_formula("vol", tilde) == pytest.approx(area, rel=1e-12)
    assert 2 * tilde.B[(5, 2)] == pytest.approx(area, rel=1e-12)


# ---------------------------------------------------------------------------
# Linear flows on ellipsoids: formula vs finite differences
# ---------------------------------------------------------------------------


def test_linear_flow_variation_all_keys():
    # the check reports the central-difference table's entry of every key, bit for bit
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    diag = [0.3, -0.1, 0.2, 0.05]
    res = checks.variation(e, 2, 1e-4, diag=diag)
    assert res["pass"], res["keys"]
    fds = vc.central_differences(e, vc.LinearFlow(np.diag(diag)), 1e-3, level=2)
    for key in cc.variation_operator(2).keys():
        assert res["keys"][vc.key_name(key)]["fd"] == vc.valuation_value(fds, key), key


NONDIAGONAL_GENERATOR = np.array(
    [
        [0.1, 0.2, 0.0, -0.1],
        [0.2, -0.3, 0.1, 0.0],
        [0.0, 0.1, 0.2, 0.1],
        [-0.1, 0.0, 0.1, 0.0],
    ]
)


def _assert_linear_flow_formula(a, axes, keys):
    e = geom.Ellipsoid.from_axes(axes)
    flow = vc.LinearFlow(a)
    tilde = val.hermitian_volumes(e, 2, flow)
    fds = vc.central_differences(e, flow, 1e-3, level=2)
    for key in keys:
        fd, fm = vc.valuation_value(fds, key), vc.variation_formula(key, tilde)
        assert rel_err(fd, fm, abs(fd) + 1) < 1e-4, key


def test_linear_flow_nondiagonal_generator():
    _assert_linear_flow_formula(
        NONDIAGONAL_GENERATOR, [1, 1, 1.5, 1.5], (("B", 2, 0), ("G", 2, 1), "vol")
    )


def test_linear_flow_generator_coupling_complex_coordinates():
    # coupling z_1 with z_2 leaves <X, N> not invariant under z_j -> -z_j, so
    # a tilde table folded by the sign group would be wrong on this shape
    a = NONDIAGONAL_GENERATOR.copy()
    a[0, 2], a[2, 0] = 0.15, -0.05
    _assert_linear_flow_formula(
        a, [1, 2, 2, 3], (("B", 2, 0), ("B", 1, 0), ("G", 2, 1), ("B", 3, 1), "vol")
    )


def test_isometry_generator_kills_variations():
    # complex-linear antisymmetric generator: a rigid rotation of C^2
    J = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
    ball = geom.Ellipsoid.from_axes([1, 1, 1, 1])
    flow = vc.LinearFlow(J)
    keys = (("B", 2, 0), ("G", 2, 1), ("B", 3, 1), "vol")
    fds = vc.central_differences(ball, flow, 1e-3, level=1)
    tilde = val.hermitian_volumes(ball, 1, flow)
    for key in keys:
        assert abs(vc.valuation_value(fds, key)) < 1e-9
        assert abs(vc.variation_formula(key, tilde)) < 1e-9


# ---------------------------------------------------------------------------
# Crofton variation (flat closed form and its curved extension)
# ---------------------------------------------------------------------------


def _radial_crofton_variation(eps, n, R, r):
    """(fd, formula) of the radial Crofton variation of a ball, step 1e-4."""
    fd = val.crofton_rhs(radial_differences(eps, n, R, 1e-4), r)
    return fd, vc.crofton_variation_formula(r, val.ball_closed_form(eps, n, R))


@pytest.mark.parametrize(
    "n,eps,R,r",
    [
        pytest.param(2, 0.0, 1.0, 1, id="0.0-1.0"),
        pytest.param(2, 1.0, 0.5, 1, id="1.0-0.5"),
        pytest.param(2, -1.0, 0.8, 1, id="-1.0-0.8"),
        # small radii: central differences at step 1e-4 miss the 1e-6 gate by
        # their h^2/R^2 error, or cannot shrink the ball at all
        (3, -1.0, 0.1, 1),
        (4, 1.0, 0.15, 1),
        (5, 0.0, 0.2, 1),
        (2, 0.0, 5e-5, 1),
    ],
)
def test_crofton_variation_on_balls(n, eps, R, r):
    res = checks.crofton_variation(geom.GeodesicBall(n=n, eps=eps, R=R), r, 1)
    assert res["pass"] and res["relErr"] <= 1e-12, res
    assert "fd" not in res  # the analytic R-derivative is the oracle


def test_crofton_variation_on_balls_n3():
    for r in (1, 2):
        lhs, rhs = _radial_crofton_variation(1.0, 3, 0.6, r)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_crofton_variation_on_ellipsoid():
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    flow = vc.LinearFlow(np.diag([0.3, -0.1, 0.2, 0.05]))
    tilde = val.hermitian_volumes(e, 2, flow)
    lhs = val.crofton_rhs(vc.central_differences(e, flow, 1e-3, level=2), 1)
    assert lhs == pytest.approx(vc.crofton_variation_formula(1, tilde), rel=1e-4)


def test_unit_ball_crofton_variation_value():
    # growing the unit ball: d/dR of the bracket pi^2 R^2 at R = 1 is 2 pi^2
    lhs, rhs = _radial_crofton_variation(0.0, 2, 1.0, 1)
    assert rhs == pytest.approx(2 * pi**2, rel=1e-10)
    assert lhs == pytest.approx(2 * pi**2, rel=1e-8)


# ---------------------------------------------------------------------------
# Gauss-Bonnet right-hand side has null variation
# ---------------------------------------------------------------------------


def _gauss_bonnet_rhs_variation(fds):
    """Central difference of the Gauss-Bonnet right-hand side: gauss_bonnet_coeffs(n),
    linear in (mu, vol), evaluated on the central-difference table."""
    return cc.gauss_bonnet_coeffs(fds.n).eval(fds.mu_dict(), fds.vol, fds.eps)


@pytest.mark.parametrize("eps,R", [(1.0, 0.5), (-1.0, 0.8)])
def test_gauss_bonnet_rhs_null_variation_balls(eps, R):
    fd = _gauss_bonnet_rhs_variation(radial_differences(eps, 2, R, 1e-4))
    scale = cc.sphere_volume_coeff(3).to_float()
    assert abs(fd) / scale < 1e-8


def test_gauss_bonnet_rhs_null_variation_ellipsoid():
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    flow = vc.LinearFlow(np.diag([0.3, -0.1, 0.2, 0.05]))
    fd = _gauss_bonnet_rhs_variation(vc.central_differences(e, flow, 1e-3, level=2))
    scale = cc.sphere_volume_coeff(3).to_float()
    assert abs(fd) / scale < 1e-6
