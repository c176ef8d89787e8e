"""Boundary quadrature, adapted frames and space-form radial geometry."""

from fractions import Fraction
from math import comb, cos, exp, gamma, isfinite, log, nextafter, pi, sin, sqrt, tan, tanh

import numpy as np
import pytest
from scipy.integrate import nquad, quad
from scipy.special import roots_jacobi

from croftonlab import checks, extalg, geom, varcheck
from croftonlab.valuations import QUADRATURE_CHUNK
from croftonlab.coeffcore import ball_volume_coeff, beta_indices, gamma_indices, sphere_volume_coeff
from helpers import (ConjugatePointError, jacobi_oracle, named_symmetry, realify_complex_columns,
                     whole_cloud)


# ---------------------------------------------------------------------------
# Sphere grids and ellipsoid sampling
# ---------------------------------------------------------------------------


# every (p, alpha, beta) the rules request at levels 0-4: `sphere_grid` takes
# alpha = beta = (d - 2 - i) / 2 for d <= 10, `torus_orbit_grid` alpha in
# {0, ..., 3} with beta = 0 (alpha = beta = 0 is listed once)
GAUSS_JACOBI_CASES = [(8 * 2**level, alpha, beta) for level in range(5)
                      for alpha, beta in [(i / 2, i / 2) for i in range(8)]
                      + [(float(a), 0.0) for a in (1, 2, 3)]]


def _jacobi_moments(p, alpha, beta):
    """Exact moments of x^j, j < 2p, for the weight (1 - x)^alpha (1 + x)^beta:
    (mass, [m_j / mass]), the ratios as exact fractions.

    With t = (1 + x)/2 the weight has the Beta moments E[t^i] =
    prod_{l<i} (beta + 1 + l) / (alpha + beta + 2 + l); x^j = (2t - 1)^j."""
    a, b = Fraction(alpha), Fraction(beta)
    t_moments, ratio = [], Fraction(1)
    for i in range(2 * p):
        t_moments.append(ratio)
        ratio *= (b + 1 + i) / (a + b + 2 + i)
    mass = 2 ** (alpha + beta + 1) * gamma(alpha + 1) * gamma(beta + 1) / gamma(alpha + beta + 2)
    return mass, [sum(comb(j, i) * 2**i * (-1) ** (j - i) * t_moments[i] for i in range(j + 1))
                  for j in range(2 * p)]


@pytest.mark.parametrize("p,alpha,beta", GAUSS_JACOBI_CASES)
def test_gauss_jacobi_rules_integrate_polynomials_of_degree_2p_minus_1(p, alpha, beta):
    # each x^j to 1e-13 relative to the integral of |x|^j (which is the
    # relative error wherever x^j >= 0; odd moments of a symmetric weight are 0)
    x, w = geom._gauss_jacobi(p, alpha, beta)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    if alpha == beta:  # exactly symmetric, so the sign fold halves it bit for bit
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    mass, moments = _jacobi_moments(p, alpha, beta)
    power = np.ones(p)
    for j, moment in enumerate(moments):
        scale = float(np.sum(w * np.abs(power)))
        assert abs(float(np.sum(w * power)) - mass * float(moment)) <= 1e-13 * scale, j
        power = power * x


@pytest.mark.parametrize("p,alpha,beta", [case for case in GAUSS_JACOBI_CASES if case[0] <= 64])
def test_gauss_jacobi_rules_equal_scipy(p, alpha, beta):
    # at p = 128 scipy's own weights are further from a 60-digit reference
    # (5.5e-11 for Legendre) than these (3.4e-13), so it is no reference there
    x, w = geom._gauss_jacobi(p, alpha, beta)
    xs, ws = roots_jacobi(p, alpha, beta)
    assert np.max(np.abs(x - xs)) <= 4.4e-16
    assert np.max(np.abs(w / ws - 1)) <= 1e-11


def test_gauss_jacobi_rules_stay_finite_at_high_order():
    # the orthonormal recurrence neither under- nor overflows where a monic
    # p_p' would (2^-p)
    x, w = geom._gauss_jacobi(1024, 0.0, 0.0)
    assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(2.0, rel=1e-14)
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("d,expected", [(4, 2 * pi**2), (6, pi**3)])
def test_sphere_grid_total_weight(d, expected):
    _, w = geom.sphere_grid(d, 0)
    assert w.sum() == pytest.approx(expected, rel=1e-13)


def test_unit_sphere_cloud():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([1, 1, 1, 1]), level=0)
    assert cloud.weights.sum() == pytest.approx(2 * pi**2, rel=1e-13)
    assert np.max(np.abs(cloud.h - np.eye(3))) < 1e-12


def test_round_sphere_curvature_scaling():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([2, 2, 2, 2]), level=0)
    assert np.max(np.abs(cloud.h - np.eye(3) / 2)) < 1e-12


def _frame_defect(F, normals):
    """Largest departure of frames from orthonormal, adapted to N and J-paired."""
    J = geom.apply_complex_structure
    gram = np.einsum("mai,mbi->mab", F, F) - np.eye(F.shape[1])
    return max(
        np.max(np.abs(gram)),
        # the frame is orthogonal to N, its first row is JN, the Je-slots are J e
        np.max(np.abs(np.einsum("mai,mi->ma", F, normals))),
        np.max(np.abs(F[:, 0] - J(normals))),
        np.max(np.abs(F[:, 2::2] - J(F[:, 1::2])), initial=0.0),
    )


def test_frames_orthonormal_and_adapted():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([1, 2, 2, 3]), level=1)
    assert _frame_defect(geom._adapted_frames(cloud.normals), cloud.normals) < 1e-12
    # the reflector's edge cases: N_1 = 0, N = -e_1, N = J e_1, a tiny |N_1|
    for N in ([0.0, 0.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
              [1e-300, 0.0, 0.6, 0.8], [1e-300, -1e-300, 0.0, 0.0, 0.0, 1.0]):
        normals = np.array([N])
        assert _frame_defect(geom._adapted_frames(normals), normals) < 1e-14, N
    rng = np.random.default_rng(41)
    for n in range(2, 6):
        normals = rng.standard_normal((64, 2 * n))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        assert _frame_defect(geom._adapted_frames(normals), normals) < 1e-14, n
    # the normal e_1 gets the coordinate directions
    e1 = np.eye(6)[:1]
    assert np.array_equal(geom._adapted_frames(e1)[0, 1:], np.eye(6)[2:])


def test_sff_symmetric_positive_on_convex():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([1, 1, 2, 2]), level=1)
    assert np.max(np.abs(cloud.h - np.swapaxes(cloud.h, 1, 2))) < 1e-12
    assert np.linalg.eigvalsh(cloud.h).min() > 0


def test_ellipsoid_area_against_independent_quadrature():
    # independent oracle: adaptive quadrature of the parametrized area element
    axes = np.array([1.0, 1.0, 2.0, 2.0])

    def integrand(t1, t2, t3):
        u = np.array(
            [
                cos(t1),
                sin(t1) * cos(t2),
                sin(t1) * sin(t2) * cos(t3),
                sin(t1) * sin(t2) * sin(t3),
            ]
        )
        jac = sin(t1) ** 2 * sin(t2)
        return jac * np.prod(axes) * np.linalg.norm(u / axes)

    oracle, err = nquad(
        integrand,
        [(0, pi), (0, pi), (0, 2 * pi)],
        opts={"epsabs": 1e-10, "epsrel": 1e-10},
    )
    area = whole_cloud(geom.Ellipsoid.from_axes(axes), level=2).weights.sum()
    assert area == pytest.approx(oracle, rel=1e-6)


def test_ellipsoid_area_monte_carlo_sanity():
    # crude hit-free MC of the same surface integral, 3 sigma agreement
    rng = np.random.default_rng(42)
    axes = np.array([1.0, 1.0, 2.0, 2.0])
    u = rng.standard_normal((200000, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = np.prod(axes) * np.linalg.norm(u / axes, axis=1) * 2 * pi**2
    est, sd = vals.mean(), vals.std() / sqrt(len(vals))
    area = whole_cloud(geom.Ellipsoid.from_axes(axes), level=2).weights.sum()
    assert abs(area - est) < 3 * sd


def test_quadrature_convergence_order():
    e = geom.Ellipsoid.from_axes([1, 2, 2, 3])
    areas = [whole_cloud(e, level=L).weights.sum() for L in (0, 1, 2)]
    d1 = abs(areas[1] - areas[0])
    d2 = abs(areas[2] - areas[1])
    assert d1 / d2 >= 4.0


def test_ellipsoid_validation_and_transform():
    with pytest.raises(ValueError):
        geom.Ellipsoid.from_axes([1, -1, 2, 2])
    with pytest.raises(ValueError):
        geom.Ellipsoid(np.diag([1.0, -2.0, 1.0, 1.0]))
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    M = np.diag([2.0, 2.0, 1.0, 1.0])
    assert geom.Ellipsoid.from_axes([2, 2, 2, 2]).quadric == pytest.approx(
        e.transformed(M).quadric
    )
    assert e.volume == pytest.approx(ball_volume_coeff(4).to_float() * 4.0)
    assert e.circum_radius == pytest.approx(2.0)


def test_boundary_cloud_interface():
    e = geom.Ellipsoid.from_axes([1, 1, 1, 1])
    cloud = whole_cloud(e, level=0)
    assert np.all(cloud.weights > 0)
    chunks = list(geom.boundary_chunks(e, 0, geom.Symmetry(), 100))
    assert len(chunks) == (len(cloud) + 99) // 100
    assert sum(len(c) for c in chunks) == len(cloud)
    assert {c.rule for c in chunks} == {cloud.rule}
    with pytest.raises(ValueError, match="symmetry must be a geom.Symmetry"):
        geom.boundary_chunks(e, 0, "u(n)", 100)  # refused before any chunk is built


@pytest.mark.parametrize(
    "shape,level,symmetry",
    [
        # a quadric with no symmetry: four 16,384-node product chunks
        (geom.Ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1 * np.ones((4, 4))), 2, "none"),
        # eight sign-folded chunks
        (geom.Ellipsoid.from_axes([1, 2, 2, 3]), 3, "torus"),
        # eight chunks of the Hopf rule, 4,096 simplex nodes times 32 phases
        (geom.Ellipsoid.from_axes([1, 1, 1, 1, 1, 2]), 3, "torus+conj"),
    ],
)
def test_streamed_chunks_are_the_whole_cloud(shape, level, symmetry):
    # each table chunk's geometry, computed from its own rows of the rule, is
    # the matching slice of the whole cloud bit for bit
    whole = whole_cloud(shape, level, symmetry)
    lo = 0
    group = named_symmetry(symmetry, shape.n)
    for chunk in geom.boundary_chunks(shape, level, group, QUADRATURE_CHUNK):
        assert 0 < len(chunk) <= QUADRATURE_CHUNK and chunk.rule == whole.rule
        for name in ("positions", "normals", "h", "weights"):
            assert np.array_equal(getattr(chunk, name), getattr(whole, name)[lo : lo + len(chunk)])
        lo += len(chunk)
    assert lo == len(whole)


# ---------------------------------------------------------------------------
# Folding by the sign group (+-1)^n and by conjugation
# ---------------------------------------------------------------------------


# axis-aligned shapes with no equal pair: no phase is free, so the integrand's
# phases leave the hyperspherical rule
@pytest.mark.parametrize("axes,factor", [([1, 2, 2, 3], 4), ([1, 2, 2, 3, 3, 4], 8)])
def test_sign_fold_keeps_one_node_per_orbit(axes, factor):
    e = geom.Ellipsoid.from_axes(axes)
    full = whole_cloud(e, level=0)
    folded = whole_cloud(e, level=0, symmetry="torus")
    assert (full.rule, folded.rule) == ("product", "sign-fold")
    assert len(full) == len(geom.sphere_grid(len(axes), 0)[1])
    assert len(folded) * factor == len(full)
    assert np.all(folded.positions[:, 0::2] > 0)
    assert folded.weights.sum() == pytest.approx(full.weights.sum(), rel=1e-13)


@pytest.mark.parametrize("axes,factor", [([1, 2, 2, 3], 8), ([1, 2, 2, 3, 3, 4], 16)])
def test_conj_fold_keeps_one_node_per_orbit(axes, factor):
    e = geom.Ellipsoid.from_axes(axes)
    full = whole_cloud(e, level=0)
    folded = whole_cloud(e, level=0, symmetry="torus+conj")
    assert (full.rule, folded.rule) == ("product", "conj-fold")
    assert len(folded) * factor == len(full)
    assert np.all(folded.positions[:, 0::2] > 0) and np.all(folded.positions[:, -1] > 0)
    assert folded.weights.sum() == pytest.approx(full.weights.sum(), rel=1e-13)


@pytest.mark.parametrize("d,level", [(2, 1), (4, 1), (6, 0)])
def test_folded_grid_is_the_kept_part_of_the_full_grid(d, level):
    u, w = geom.sphere_grid(d, level)
    sign = np.all(u[:, 0::2] > 0, axis=1)
    for fold, keep, halvings in [("sign", sign, d // 2), ("conj", sign & (u[:, -1] > 0), d // 2 + 1)]:
        uf, wf = geom.sphere_grid(d, level, fold=fold)
        assert np.array_equal(uf, u[keep])
        assert np.array_equal(wf, w[keep] * 2**halvings)


def _conjugate(M):
    """C M with C = diag(1, -1, 1, -1, ...): the exact conjugate of each row."""
    return M * np.tile([1.0, -1.0], M.shape[-1] // 2)


def test_densities_and_diagonal_flow_weights_are_conjugation_invariant(monkeypatch):
    # at every node of a level-0 grid and at its exact conjugate, the
    # U(n)-invariant densities and <Ax, N> of a diagonal A agree; the frame
    # at the conjugate conjugates h by diag(-1, 1, -1, 1, -1)
    e = geom.Ellipsoid.from_axes([1, 2, 2, 3, 1.5, 0.7])
    cloud = whole_cloud(e, 0)
    grid = geom.sphere_grid
    monkeypatch.setattr(geom, "sphere_grid", lambda d, level, fold="none": (
        _conjugate(grid(d, level, fold)[0]), grid(d, level, fold)[1]))
    conj = whole_cloud(e, 0)
    assert np.array_equal(conj.positions, _conjugate(cloud.positions))
    signs = np.array([-1.0, 1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(conj.h, cloud.h * signs[:, None] * signs)
    keys = [("beta", k, q) for k, q in beta_indices(3)] + [("gamma", k, q) for k, q in gamma_indices(3)]
    for a, b in zip(*(extalg.densities(extalg.build_pullbacks(c.h, 3), keys) for c in (cloud, conj))):
        assert np.array_equal(a, b)
    flow = varcheck.LinearFlow(np.diag([0.3, 0.23, 0.16, 0.09, -0.1, 0.2]))
    assert np.array_equal(flow.normal_speed(cloud), flow.normal_speed(conj))


def test_sign_fold_bypassed_without_pair_symmetry():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    e = geom.Ellipsoid(M @ M.T + np.eye(4))
    folded = whole_cloud(e, level=0, symmetry="torus")
    assert folded.rule == "product"
    assert len(folded) == len(geom.sphere_grid(4, 0)[1])


def test_sign_fold_rejects_grid_not_closed_under_flips(monkeypatch):
    # an odd polar count puts a node at z = 0: the z > 0 half of that axis
    # no longer carries half its weight
    monkeypatch.setattr(geom, "BASE_POLAR_NODES", 7)
    geom.sphere_grid.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not closed under the sign flips"):
            whole_cloud(geom.Ellipsoid.from_axes([1, 2, 2, 3]), symmetry="torus")
    finally:
        geom.sphere_grid.cache_clear()


def test_conj_fold_rejects_grid_not_closed_under_conjugation(monkeypatch):
    # 10 azimuths put a node at phi = pi/2: the sign fold still halves the
    # azimuth, but the sin(phi) > 0 part of the cos(phi) > 0 half keeps 3 of 5
    monkeypatch.setattr(geom, "BASE_AZIMUTH_NODES", 10)
    geom.sphere_grid.cache_clear()
    try:
        e = geom.Ellipsoid.from_axes([1, 2, 2, 3])
        assert len(whole_cloud(e, symmetry="torus")) == 8**2 * 10 // 4
        with pytest.raises(RuntimeError, match="not closed under the conjugation"):
            whole_cloud(e, symmetry="torus+conj")
    finally:
        geom.sphere_grid.cache_clear()


@pytest.mark.parametrize("d,level,folded", [(4, 0, False), (4, 1, True), (6, 0, True)])
def test_a_rule_is_counted_before_it_is_built(d, level, folded, monkeypatch):
    # the limit admits a rule of exactly MAX_RULE_NODES nodes, not one more
    for fold, rule in [("sign", "sign-fold"), ("conj", "conj-fold")] if folded else [("none", "product")]:
        nodes = len(geom.sphere_grid(d, level, fold=fold)[1])
        geom.sphere_grid.cache_clear()
        try:
            monkeypatch.setattr(geom, "MAX_RULE_NODES", nodes)
            assert len(geom.sphere_grid(d, level, fold=fold)[1]) == nodes
            geom.sphere_grid.cache_clear()
            monkeypatch.setattr(geom, "MAX_RULE_NODES", nodes - 1)
            with pytest.raises(geom.RuleTooLarge, match=f"level-{level} {rule} rule needs {nodes:,} "):
                geom.sphere_grid(d, level, fold=fold)
        finally:
            geom.sphere_grid.cache_clear()
            monkeypatch.undo()
    monkeypatch.setattr(geom, "MAX_RULE_NODES", 32 - 1)
    with pytest.raises(geom.RuleTooLarge, match="level-2 torus-orbit rule needs 32 "):
        geom.torus_orbit_grid(2, 2)


def test_the_rule_limit():
    # the largest rules the suites build, and the rule the README quotes, fit;
    # the level-2 rule of a transported n = 4 ellipsoid (2^31 nodes
    # conjugation-folded, 2^32 sign-folded) does not
    assert geom.MAX_RULE_NODES == 2**24
    assert (8 * 2**3) ** 2 * 16 * 2**3 == 524_288 <= geom.MAX_RULE_NODES
    assert (8 * 2**2) ** 4 == 1_048_576 <= geom.MAX_RULE_NODES
    with pytest.raises(geom.RuleTooLarge, match="level-2 conj-fold rule needs 2,147,483,648") as exc:
        geom.sphere_grid(8, 2, fold="conj")
    assert isinstance(exc.value, ValueError)
    with pytest.raises(geom.RuleTooLarge, match="level-2 sign-fold rule needs 4,294,967,296"):
        geom.sphere_grid(8, 2, fold="sign")
    with pytest.raises(geom.RuleTooLarge, match="33,554,432"):
        geom.torus_orbit_grid(6, 2)


# ---------------------------------------------------------------------------
# Torus-orbit rule for T^n-invariant quadrics
# ---------------------------------------------------------------------------


def _pair_turn(n, pair, angle):
    """Rotation z_pair -> e^{i angle} z_pair of C^n = R^{2n}."""
    M = np.eye(2 * n)
    c, s = cos(angle), sin(angle)
    M[2 * pair : 2 * pair + 2, 2 * pair : 2 * pair + 2] = [[c, -s], [s, c]]
    return M


@pytest.mark.parametrize(
    "axes,level,nodes",
    [([1, 1, 2, 2], 2, 32), ([1, 1, 1, 1, 2, 2], 1, 16**2), ([1, 1, 1, 1, 2, 2, 2, 2], 1, 16**3)],
)
def test_torus_orbit_node_count(axes, level, nodes):
    cloud = whole_cloud(geom.Ellipsoid.from_axes(axes), level, symmetry="torus")
    assert cloud.rule == "torus-orbit"
    assert len(cloud) == nodes == (geom.BASE_POLAR_NODES * 2**level) ** (len(axes) // 2 - 1)
    # one node per orbit: every y_j vanishes
    assert not np.any(cloud.positions[:, 1::2])


@pytest.mark.parametrize("n,level", [(1, 0), (2, 2), (3, 1), (4, 1)])
def test_torus_orbit_weights_sum_to_sphere_area(n, level):
    u, w = geom.torus_orbit_grid(n, level)
    assert np.all(w > 0)
    assert np.allclose(np.sum(u * u, axis=1), 1.0, rtol=1e-15, atol=0)
    area = sphere_volume_coeff(2 * n - 1).to_float()
    assert abs(w.sum() - area) <= 1e-14 * area


def test_torus_orbit_disk_is_one_node():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([2, 2]), 0, symmetry="torus")
    assert cloud.rule == "torus-orbit"
    assert cloud.positions.tolist() == [[2.0, 0.0]]
    u, w = geom.torus_orbit_grid(1, 3)
    assert u.tolist() == [[1.0, 0.0]] and w.tolist() == [2 * pi]


@pytest.mark.parametrize("pair,angle", [(0, 0.3), (1, -0.4), (2, 2.0)])
def test_torus_orbit_detects_a_turn_inside_a_pair(pair, angle):
    e = geom.Ellipsoid.from_axes([1, 1, 1, 1, 2, 2]).transformed(_pair_turn(3, pair, angle))
    cloud = whole_cloud(e, 0, symmetry="torus")
    assert cloud.rule == "torus-orbit"
    # a real axis pair that differs inside the pair is not T^n-invariant: the
    # phases of the other two coordinates stay free
    e = geom.Ellipsoid.from_axes([1, 1, 1, 2, 2, 2]).transformed(_pair_turn(3, pair, angle))
    assert whole_cloud(e, 0, symmetry="torus").rule == "hopf"
    assert geom.symmetry_group(e.quadric).phases == {0, 2}


def test_torus_orbit_only_for_invariant_integrands():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([1, 1, 2, 2]), 0)
    assert cloud.rule == "product"
    assert len(cloud) == len(geom.sphere_grid(4, 0)[1])


# ---------------------------------------------------------------------------
# Hopf rule for quadrics with some free phases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "axes,level,nodes",
    [
        # p^(n-1) (q/2)^k / 2 with p = 8 * 2^L, q = 16 * 2^L and k phases not free
        ([1, 1, 1, 2], 2, 32 * 32 // 2),
        ([1, 1, 1, 1, 1, 2], 0, 8**2 * 8 // 2),
        ([1, 1, 1, 1, 1, 2], 2, 32**2 * 32 // 2),
        ([1, 2, 2, 2, 2, 2], 1, 16**2 * 16 // 2),
        ([1, 1, 1, 2, 2, 3], 0, 8**2 * 8 * 8 // 2),
    ],
)
def test_hopf_node_count(axes, level, nodes):
    e = geom.Ellipsoid.from_axes(axes)
    cloud = whole_cloud(e, level, symmetry="torus+conj")
    assert (cloud.rule, len(cloud)) == ("hopf", nodes)
    u = cloud.positions / np.asarray(axes, dtype=float)
    free = sorted(geom.symmetry_group(e.quadric).phases)
    sampled = [j for j in range(e.n) if j not in free]
    # free phases at theta = 0; the others folded to cos > 0, the last to sin > 0
    assert np.all(u[:, [2 * j for j in free]] > 0) and not np.any(u[:, [2 * j + 1 for j in free]])
    assert np.all(u[:, [2 * j for j in sampled]] > 0) and np.all(u[:, 2 * sampled[-1] + 1] > 0)


@pytest.mark.parametrize(
    "group,nodes",
    [
        (geom.Symmetry(frozenset({0})), 8 * 16),
        (geom.Symmetry(frozenset({0}), sign=True), 8 * 8),
        (geom.Symmetry(frozenset({0}), conj=True), 8 * 8),
        (geom.Symmetry(frozenset({0}), sign=True, conj=True), 8 * 4),
    ],
)
def test_hopf_weights_sum_to_sphere_area(group, nodes):
    u, w = geom.hopf_grid(2, 0, group)
    assert len(w) == nodes and np.all(w > 0)
    assert np.allclose(np.sum(u * u, axis=1), 1.0, rtol=1e-15, atol=0)
    area = sphere_volume_coeff(3).to_float()
    assert abs(w.sum() - area) <= 1e-14 * area


@pytest.mark.parametrize("n,level", [(1, 2), (2, 1), (3, 0)])
def test_hopf_grid_with_every_phase_free_is_the_torus_orbit_grid(n, level):
    for sign, conj in [(False, False), (True, True)]:
        u, w = geom.hopf_grid(n, level, geom.Symmetry(frozenset(range(n)), sign, conj))
        want_u, want_w = geom.torus_orbit_grid(n, level)
        assert np.array_equal(u, want_u) and np.array_equal(w, want_w)


def test_hopf_rule_is_counted_before_it_is_built(monkeypatch):
    # the limit admits a rule of exactly MAX_RULE_NODES nodes, not one more;
    # the simplex rule is the first array built
    group = geom.symmetry_group(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.25]))
    assert len(geom.hopf_grid(3, 0, group)[1]) == 256
    monkeypatch.setattr(geom, "MAX_RULE_NODES", 256)
    assert len(geom.hopf_grid(3, 0, group)[1]) == 256
    monkeypatch.setattr(geom, "MAX_RULE_NODES", 255)

    def built(*args):
        raise AssertionError("simplex rule built")

    monkeypatch.setattr(geom, "torus_orbit_grid", built)
    with pytest.raises(geom.RuleTooLarge, match="level-0 hopf rule needs 256 boundary nodes"):
        geom.hopf_grid(3, 0, group)
    with pytest.raises(geom.RuleTooLarge, match="level-0 hopf rule needs 256 boundary nodes"):
        whole_cloud(geom.Ellipsoid.from_axes([1, 1, 1, 1, 1, 2]), 0, "torus+conj")


def test_hopf_rule_rejects_phases_not_closed_under_the_folds(monkeypatch):
    # 10 phases put a node at theta = pi/2, which z -> -z maps to 3 pi/2:
    # no half of them is one node per orbit.  C alone still folds them.
    monkeypatch.setattr(geom, "BASE_AZIMUTH_NODES", 10)
    assert len(geom.hopf_grid(2, 0, geom.Symmetry(frozenset({0})))[1]) == 8 * 10
    assert len(geom.hopf_grid(2, 0, geom.Symmetry(frozenset({0}), conj=True))[1]) == 8 * 5
    with pytest.raises(RuntimeError, match="phase rule of 10 nodes is not closed under the folds"):
        geom.hopf_grid(2, 0, geom.Symmetry(frozenset({0}), sign=True))


def test_rule_is_the_smaller_of_the_integrand_and_quadric_groups():
    torus = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    signs = geom.Ellipsoid.from_axes([1, 2, 2, 3])
    assert whole_cloud(torus, 0, symmetry="sign").rule == "sign-fold"
    assert whole_cloud(signs, 0, symmetry="sign").rule == "sign-fold"
    assert whole_cloud(signs, 0, symmetry="torus").rule == "sign-fold"
    # the groups form a lattice: the meet of the torus and conj is sign
    assert whole_cloud(torus, 0, symmetry="conj").rule == "conj-fold"
    assert whole_cloud(signs, 0, symmetry="conj").rule == "conj-fold"
    assert whole_cloud(signs, 0, symmetry="torus+conj").rule == "conj-fold"
    assert whole_cloud(torus, 0, symmetry="torus+conj").rule == "torus-orbit"
    turned = signs.transformed(_pair_turn(2, 0, 0.3))  # commutes with the flips only
    assert whole_cloud(turned, 0, symmetry="torus+conj").rule == "sign-fold"
    # one free phase: the Hopf rule where the integrand frees it too
    hopf = geom.Ellipsoid.from_axes([1, 1, 2, 3])
    assert whole_cloud(hopf, 0, symmetry="torus+conj").rule == "hopf"
    assert whole_cloud(hopf, 0, symmetry="torus").rule == "hopf"
    assert whole_cloud(hopf, 0, symmetry="conj").rule == "conj-fold"
    assert whole_cloud(hopf, 0, symmetry=geom.Symmetry(frozenset({1}), True, True)).rule == "conj-fold"
    with pytest.raises(ValueError, match="symmetry must be a geom.Symmetry"):
        geom.boundary_chunks(torus, 0, "u(n)", None)


def test_symmetry_group_of_linear_maps():
    S = geom.Symmetry
    assert geom.symmetry_group(np.diag([1.0, 1.0, 4.0, 4.0])) == S.full(2) == S({0, 1}, True, True)
    assert geom.symmetry_group(np.diag([1.0, 2.0, 4.0, 4.0])) == S({1}, True, True)
    assert geom.symmetry_group(np.diag([1.0, 2.0, 4.0, 3.0])) == S(frozenset(), True, True)
    # a + b J commutes with J but not with C; a reflection inside the pair
    # with neither
    assert geom.symmetry_group(np.array([[1.0, -2.0], [2.0, 1.0]])) == S({0}, True, False)
    assert geom.symmetry_group(np.array([[1.0, 2.0], [2.0, -1.0]])) == S(frozenset(), True, False)
    # a real block between coordinates 1 and 2 takes their phases and the sign
    # flips, not C or the phase of coordinate 3
    coupled = np.eye(6)
    coupled[0, 2] = 0.15
    assert geom.symmetry_group(coupled) == S({2}, False, True)
    coupled[1, 2] = 0.1
    assert geom.symmetry_group(coupled) == S({2}, False, False)
    # the meet holds the generators of both
    assert S({0, 2}, True, False) & S({2, 1}, True, True) == S({2}, True, False)


# ---------------------------------------------------------------------------
# Space-form radial geometry
# ---------------------------------------------------------------------------


def test_geodesic_sphere_curvature_examples():
    assert geom.geodesic_sphere_curvatures(0, 2) == pytest.approx((0.5, 0.5))
    mu_h, lam = geom.geodesic_sphere_curvatures(1, pi / 4)
    assert mu_h == pytest.approx(0.0, abs=1e-14)
    assert lam == pytest.approx(1.0)
    mu_h, lam = geom.geodesic_sphere_curvatures(-1, 1)
    assert mu_h == pytest.approx(2 / tanh(2))
    assert lam == pytest.approx(1 / tanh(1))


def test_geodesic_sphere_radius_bounds():
    with pytest.raises(ValueError):
        geom.geodesic_sphere_curvatures(1.0, pi / 2)
    with pytest.raises(ValueError):
        geom.GeodesicBall(n=2, eps=1.0, R=pi / 2)
    with pytest.raises(ValueError):
        geom.GeodesicBall(n=2, eps=0.0, R=-1.0)


@pytest.mark.parametrize("eps", [1e308, -1e308, 4.5e307, -4.5e307])
def test_overflowing_hopf_curvature_is_refused(eps):
    # 4 eps overflows to +-inf, where the closed forms returned nan or failed
    # inside math.sin
    overflow = "is not finite \\(4\\*eps overflows"
    with pytest.raises(ValueError, match=overflow):
        geom.geodesic_sphere_curvatures(eps, 1e-160)
    with pytest.raises(ValueError, match=overflow):
        geom.ball_closed_forms(eps, 3, 1e-160)
    with pytest.raises(ValueError, match=overflow):
        geom.GeodesicBall(n=3, eps=eps, R=1e-160)
    with pytest.raises(ValueError, match=overflow):
        geom.jacobi_field(4 * eps, 1e-160)
    # the largest eps whose 4 eps is finite still has closed forms
    mu_h, lam = geom.geodesic_sphere_curvatures(np.copysign(4.49e307, eps), 1e-160)
    assert all(map(np.isfinite, (mu_h, lam)))


@pytest.mark.parametrize("n", [0, -1])
def test_geodesic_ball_rejects_dimension_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        geom.GeodesicBall(n=n, eps=0.0, R=1.0)


def test_shape_protocol_answers_or_raises():
    ball = geom.GeodesicBall(n=2, eps=1.0, R=0.5)
    ellipsoid = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    assert ball.curvatures == geom.geodesic_sphere_curvatures(1.0, 0.5)
    assert ellipsoid.curvatures is None
    assert np.array_equal(ellipsoid.transformed(2 * np.eye(4)).quadric, ellipsoid.quadric / 4)
    # a ball is neither moved by linear maps nor integrated by a boundary rule:
    # its tables are closed forms
    for unanswered in (lambda: ball.transformed(np.eye(4)),
                       lambda: geom.boundary_chunks(ball, 0, geom.Symmetry.full(2), None)):
        with pytest.raises(ValueError):
            unanswered()


def _spd_stack(d, k, seed):
    """k seeded symmetric positive definite (d, d) forms, batch-last, and vectors b (d, k)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, d, d))
    M = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d)
    return np.ascontiguousarray(M.transpose(1, 2, 0)), rng.standard_normal((d, k))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_inverse_form_equals_lapack_solve(d):
    M, b = _spd_stack(d, 4096, 40 + d)
    sol = np.linalg.solve(M.transpose(2, 0, 1), b.T[..., None])[..., 0]
    want = (b * sol.T).sum(axis=0)
    assert np.max(np.abs(geom._inverse_form(M, b) - want) / want) <= 1e-13


@pytest.mark.parametrize("entry", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("d", [2, 4])
def test_inverse_form_rejects_degenerate_forms(d, entry):
    # a singular, indefinite or non-finite form in the last place of the stack
    # must raise, not return a NaN that would count as a miss
    M, b = _spd_stack(d, 8, 7)
    M[:, :, -1] = np.eye(d)
    M[d - 1, d - 1, -1] = entry
    with pytest.raises(ValueError, match="not positive definite"):
        geom._inverse_form(M, b)


# The section forms without BLAS, against the BLAS construction they replace:
# bitwise on the axis-aligned quadrics of every Monte Carlo family, a few ulps
# on a general symmetric form.

FLAT_QUADRICS = [geom.Ellipsoid.from_axes(axes).quadric
                 for families in checks.FLAT_FAMILIES.values() for axes in families]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _haar_columns(n, r, m, seed):
    """Batch-last Haar frames V (n, r, m) from LAPACK's QR."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return np.ascontiguousarray(np.linalg.qr(Z)[0].transpose(1, 2, 0)[:, :r])


def _stacked_real_columns(V):
    """The real columns of span_C(V) by stacking (v_j, i v_j) and then (Re, Im)."""
    n, r, m = V.shape
    z = np.stack([V, 1j * V], axis=2).reshape(n, 2 * r, m)
    return np.stack([z.real, z.imag], axis=1).reshape(2 * n, 2 * r, m)


def _blas_form(A, X):
    """X^T A X with A X as one BLAS product, entry (s, t) summed over rows in order."""
    d, k, m = X.shape
    AX = (A @ X.reshape(d, k * m)).reshape(d, k, m)
    return np.stack([(X[:, s, None] * AX).sum(axis=0) for s in range(k)])


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_real_columns_equal_the_stacked_construction(n, r):
    V = _haar_columns(n, r, 4096, 50 + n + r)
    assert np.array_equal(_bits(geom._real_columns(V)), _bits(_stacked_real_columns(V)))
    assert np.array_equal(geom._real_columns(V)[:, :, 7], realify_complex_columns(V[:, :, 7]))


def test_nonzero_product_equals_the_matrix_product():
    rng = np.random.default_rng(51)
    for Q in FLAT_QUADRICS:
        X = rng.standard_normal((len(Q), 4096))
        got = geom._nonzero_product(Q, X, np.empty_like(X))
        assert np.array_equal(_bits(got), _bits(Q @ X))
    for d in (4, 6, 8):
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2
        A[0, -1] = A[-1, 0] = 0.0
        X = rng.standard_normal((d, 4096))
        got = geom._nonzero_product(A, X, np.empty_like(X))
        scale = np.abs(A) @ np.abs(X)
        assert np.all(np.abs(got - A @ X) <= 4 * np.finfo(float).eps * scale)
    zero_row = np.diag([1.0, 0.0, 2.0])
    X = rng.standard_normal((3, 16))
    assert np.array_equal(geom._nonzero_product(zero_row, X, np.empty_like(X)), zero_row @ X)


@pytest.mark.parametrize("lower", [False, True])
def test_restricted_form_equals_the_blas_form(lower):
    # the meets layout: the real columns of V, then the anchor's coordinates
    rng = np.random.default_rng(52)
    for Q in FLAT_QUADRICS:
        n = len(Q) // 2
        for r in range(1, n):
            V = _haar_columns(n, r, 4096, 53 + n + r)
            X = np.concatenate([geom._real_columns(V), rng.standard_normal((2 * n, 1, 4096))],
                               axis=1)
            want = _blas_form(Q, X)
            got = geom._restricted_form(Q, X.copy(), lower=lower)
            s, t = np.tril_indices(2 * r + 1) if lower else np.indices((2 * r + 1,) * 2)
            assert np.array_equal(_bits(got[s, t]), _bits(want[s, t])), (n, r)
    A = rng.standard_normal((6, 6))
    A = (A + A.T) / 2
    X = geom._real_columns(_haar_columns(3, 2, 4096, 54))
    want = _blas_form(A, X)
    got = geom._restricted_form(A, X.copy(), lower=lower)
    s, t = np.tril_indices(4) if lower else np.indices((4, 4))
    assert np.max(np.abs(got[s, t] - want[s, t])) <= 64 * np.finfo(float).eps


def test_jacobi_oracle_closed_forms():
    f, ratio = jacobi_oracle(0.0, 2.0)
    assert f == pytest.approx(2.0, rel=1e-12)
    assert ratio == pytest.approx(0.5, rel=1e-12)
    f, ratio = jacobi_oracle(1.0, pi / 3)
    assert f == pytest.approx(sin(pi / 3), rel=1e-10)
    assert ratio == pytest.approx(1 / tan(pi / 3), rel=1e-10)


def test_jacobi_oracle_conjugate_point():
    with pytest.raises(ConjugatePointError):
        jacobi_oracle(4.0, pi / 2)
    with pytest.raises(ConjugatePointError):
        jacobi_oracle(1.0, 1.1 * pi)


@pytest.mark.parametrize("eps", [1.0, -1.0])
@pytest.mark.parametrize("R", [0.3, 0.6, 0.9])
def test_curvatures_match_jacobi_oracle(eps, R):
    mu_h, lam = geom.geodesic_sphere_curvatures(eps, R)
    _, hopf = jacobi_oracle(4 * eps, R)
    _, dist = jacobi_oracle(eps, R)
    assert mu_h == pytest.approx(hopf, rel=1e-10, abs=1e-10)
    assert lam == pytest.approx(dist, rel=1e-10)


def _area_and_volume(eps, n, R):
    """(area of the geodesic sphere, volume of the ball): M_0 and vol of the
    ball's closed forms, and the R-derivative of that volume."""
    _, _, M, vol = geom.ball_closed_forms(eps, n, R)
    return M[0], vol, geom.ball_closed_forms(eps, n, R, order=1)[3]


@pytest.mark.parametrize("kappa", [4.0, 1.0, 0.0, -1.0, -4.0])
@pytest.mark.parametrize("R", [0.3, 0.6, 0.7])
def test_jacobi_field_matches_jacobi_oracle(kappa, R):
    f, df = geom.jacobi_field(kappa, R)
    want_f, want_log = jacobi_oracle(kappa, R)
    assert f == pytest.approx(want_f, rel=1e-10)
    assert df / f == pytest.approx(want_log, rel=1e-10)


def _accepts(n, eps, R):
    try:
        geom.GeodesicBall(n=n, eps=eps, R=R)
    except ValueError:
        return False
    return True


def _edge(n, eps, accepted, refused):
    """The accepted radius next to the boundary between an accepted and a
    refused radius, by bisection of log R."""
    while True:
        mid = exp((log(accepted) + log(refused)) / 2)
        if mid in (accepted, refused):
            return accepted
        if _accepts(n, eps, mid):
            accepted = mid
        else:
            refused = mid


@pytest.mark.parametrize("eps", [-1.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 1.0])
def test_every_closed_form_is_finite_at_the_accepted_radii_edges(eps):
    # a radius is accepted exactly when every closed form of the ball is
    # finite: the smallest and the largest accepted radius have finite tables
    for n in range(1, 7):
        smallest = _edge(n, eps, 1.0, 5e-324)
        largest = (nextafter(pi / (2 * sqrt(eps)), 0) if eps > 0
                   else _edge(n, eps, 1.0, 1e308))
        # every dimension takes radii down to where 1/R overflows the curvatures
        assert smallest < 5.6e-309
        for R in (smallest, largest):
            assert _accepts(n, eps, R), (n, R)
            for order in (0, 1):
                B, Gamma, M, vol = geom.ball_closed_forms(eps, n, R, order)
                values = [*B.values(), *Gamma.values(), *M.values(), vol]
                assert all(map(isfinite, values)), (n, R, order)


@pytest.mark.parametrize("n,R", [(1, 354.6), (2, 177.3), (3, 118.4), (4, 88.9), (5, 71.3)])
def test_radii_past_the_last_finite_table_are_refused(n, R):
    # each radius lies past the last finite table, where balls were accepted
    # with tables of inf and nan
    with pytest.raises(ValueError, match="closed forms overflow"):
        geom.GeodesicBall(n=n, eps=-1.0, R=R)


def test_sphere_area_and_volume_flat():
    area, vol, _ = _area_and_volume(0.0, 2, 1.5)
    assert area == pytest.approx(2 * pi**2 * 1.5**3, rel=1e-12)
    assert vol == pytest.approx(pi**2 / 2 * 1.5**4, rel=1e-10)
    # the closed-form volume against the radial integral of the area, and its
    # R-derivative against the area
    for eps in (-1.0, -0.3, 0.0, 0.5, 1.0):
        for n in range(1, 7):
            for R in (0.2, 0.7, 1.5):
                if eps > 0 and R >= pi / (2 * sqrt(eps)):
                    continue
                area, vol, dvol = _area_and_volume(eps, n, R)
                want, _ = quad(lambda rho: _area_and_volume(eps, n, rho)[0],
                               0.0, R, epsabs=0.0, epsrel=2e-14, limit=200)
                assert vol == pytest.approx(want, rel=1e-13, abs=0), (eps, n, R)
                assert dvol == pytest.approx(area, rel=1e-14, abs=0), (eps, n, R)


def test_projective_line_total_volume():
    # the whole eps = 1, n = 1 space form has volume pi
    _, vol, _ = _area_and_volume(1.0, 1, pi / 2 * (1 - 1e-9))
    assert vol == pytest.approx(pi, rel=1e-6)


def test_area_small_radius_asymptotics_and_monotone():
    o3 = sphere_volume_coeff(3).to_float()
    for eps in (-1.0, 0.0, 1.0):
        R = 1e-4
        area, vol, _ = _area_and_volume(eps, 2, R)
        assert area == pytest.approx(o3 * R**3, rel=1e-6)
        vols = [_area_and_volume(eps, 2, r)[1] for r in (0.3, 0.6, 0.9)]
        assert vols[0] < vols[1] < vols[2]


# ---------------------------------------------------------------------------
# Gauge rotation of the distribution frame
# ---------------------------------------------------------------------------


def _gauge_rotate(h, U):
    """h after rotating the distribution frame by the unitary U (Hopf slot fixed)."""
    S = np.eye(h.shape[0])
    S[1:, 1:] = realify_complex_columns(U)
    return S.T @ h @ S


def _random_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    return np.linalg.qr(z)[0]


def test_gauge_rotate_identity_and_sphere():
    cloud = whole_cloud(geom.Ellipsoid.from_axes([1, 1, 1, 1]), level=0)
    h = cloud.h[5]
    assert _gauge_rotate(h, np.eye(1)) == pytest.approx(h)
    # round sphere: h = Id commutes
    assert _gauge_rotate(h, _random_unitary(1)) == pytest.approx(h)


def test_gauge_rotate_preserves_densities():
    from croftonlab import extalg as ea

    cloud = whole_cloud(geom.Ellipsoid.from_axes([1, 2, 2, 3]), level=0)
    U = _random_unitary(2)
    for idx in (0, 17, 101):
        h = cloud.h[idx]
        got = ea.density_beta(2, 2, 0, _gauge_rotate(h, U))
        want = ea.density_beta(2, 2, 0, h)
        assert got == pytest.approx(want, rel=1e-10)
