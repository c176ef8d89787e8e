"""Valuation tables: frozen ball values, closed forms, Gauss-Bonnet residuals."""

import json
from math import factorial, pi
from pathlib import Path

import numpy as np
import pytest

from croftonlab import geom, valuations as val, varcheck as vc
from croftonlab.coeffcore import sphere_volume_coeff
from helpers import OneNodeBall, ProductRuleWeight, realify_complex_columns, richardson_error


UNIT_BALL_C2 = geom.Ellipsoid.from_axes([1, 1, 1, 1])
DATA = Path(__file__).resolve().parent / "data"


def test_pairwise_sum_deterministic_and_exactish():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1001)
    assert val.pairwise_sum(a) == val.pairwise_sum(a.copy())
    assert val.pairwise_sum(a) == pytest.approx(float(np.sum(a)), rel=1e-12)
    assert val.pairwise_sum(np.array([])) == 0.0


@pytest.mark.parametrize(
    "name",
    [
        "n2_sign_fold_1_2_2_3_L2",
        "n3_torus_1_1_1_1_2_2_L1",
        "n3_hopf_1_1_1_1_1_2_L0",
        "n3_conj_fold_1_2_2_3_3_4_L0",
        "n4_torus_1_1_2_2_3_3_4_4_L0",
        "n2_tilde_1_2_2_3_L1",
        "n2_sign_fold_1_2_2_3_L3",
        "n2_tilde_1_2_2_3_L2",
    ],
)
def test_tables_match_golden_files(name):
    # every entry pinned bit for bit (as its repr); the tilde tables are weighted
    # by <Ax, N> of a coupled generator, so they run on the full product rule.
    # The level-3 conj-fold (65,536 nodes) and level-2 tilde (65,536 nodes)
    # tables span several QUADRATURE_CHUNKs.  The sign_fold files name the
    # n = 2 axis-aligned tables without an equal pair; they take the conj
    # fold, as the conj_fold file's n = 3 table does.  The hopf file's table
    # has two free phases.
    doc = json.loads((DATA / f"tables_{name}.json").read_text())
    shape = geom.Ellipsoid.from_axes(doc["axes"])
    if "generator" in doc:
        flow = vc.LinearFlow(np.array(doc["generator"]))
        table = val.hermitian_volumes(shape, doc["level"], flow)
    else:
        table = val.hermitian_volumes(shape, doc["level"])
    assert table.quadrature == doc["quadrature"]
    assert {key: repr(v) for key, v in table.to_json().items()} == doc["table"]


def test_unit_ball_quadrature_values():
    t = val.hermitian_volumes(UNIT_BALL_C2, level=1)
    assert t.mu(0, 0) == pytest.approx(1.0, rel=1e-12)
    assert t.mu(2, 0) == pytest.approx(2 * pi, rel=1e-12)
    assert t.mu(2, 1) == pytest.approx(pi, rel=1e-12)
    assert t.M[3] == pytest.approx(2 * pi**2, rel=1e-12)
    assert t.vol == pytest.approx(pi**2 / 2, rel=1e-12)


def _seeded_quadric(d, seed=5):
    """A positive quadric with no axis or pair symmetry."""
    M = np.random.default_rng(seed).standard_normal((d, d))
    return M @ M.T + np.eye(d)


def _pair_rotation(angle):
    """Real rotation inside the first complex coordinate pair of C^2."""
    M = np.eye(4)
    M[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return M


@pytest.mark.parametrize(
    "shape,level",
    [
        (geom.Ellipsoid.from_axes([1, 2, 2, 3]), 2),
        (geom.Ellipsoid.from_axes([1, 2, 2, 3, 3, 4]), 0),
        (geom.Ellipsoid.from_axes([1, 2, 2, 3]).transformed(_pair_rotation(0.3)), 2),
    ],
)
def test_sign_folded_table_matches_full_grid(shape, level):
    folded = val.hermitian_volumes(shape, level).to_json()
    # a weighted table keeps the full grid; unit weights leave the integrand as is
    full = val.hermitian_volumes(shape, level, ProductRuleWeight()).to_json()
    for key, value in full.items():
        assert folded[key] == pytest.approx(value, rel=1e-13), key


def _without_free_phases(monkeypatch):
    """Make diagonal quadrics with equal pairs take the conj fold, as the other
    axis-aligned ones do (equal to the full product rule to roundoff, see above)."""
    monkeypatch.setattr(geom, "_free_phases", lambda Q: frozenset())


@pytest.mark.parametrize("axes,level", [([1, 1, 2, 2], 2), ([1, 1, 1, 1, 2, 2], 1)])
def test_torus_orbit_table_within_product_rule_error(axes, level, monkeypatch):
    shape = geom.Ellipsoid.from_axes(axes)
    orbit = val.hermitian_volumes(shape, level)
    assert orbit.quadrature["rule"] == "torus-orbit"
    _without_free_phases(monkeypatch)
    product = val.hermitian_volumes(shape, level)
    assert product.quadrature["rule"] == "conj-fold"
    got, want = orbit.to_json(), product.to_json()
    errors = richardson_error(product, val.hermitian_volumes(shape, level - 1))
    for key, err in errors.items():
        assert abs(got[key] - want[key]) <= err, key


@pytest.mark.parametrize(
    "axes,level",
    [([1, 1, 1, 1, 2, 2], 1), ([1, 1, 2, 2], 2), ([1, 1, 1, 1, 2, 2, 2, 2], 1)],
)
def test_torus_orbit_gauss_bonnet_residual(axes, level):
    shape = geom.Ellipsoid.from_axes(axes)
    table = val.hermitian_volumes(shape, level)
    assert table.quadrature["rule"] == "torus-orbit"
    o = sphere_volume_coeff(2 * shape.n - 1).to_float()
    for residual in val.gauss_bonnet_residual(shape, table=table):
        assert abs(residual) / o < 1e-12


@pytest.mark.parametrize("level", [0, 2])
def test_torus_orbit_disk_table_equals_sign_fold(level, monkeypatch):
    disk = geom.Ellipsoid.from_axes([2, 2])
    orbit = val.hermitian_volumes(disk, level)
    assert orbit.quadrature == {"rule": "torus-orbit", "nodes": 1}
    _without_free_phases(monkeypatch)
    assert orbit.to_json() == val.hermitian_volumes(disk, level).to_json()


HOPF_SHAPES = [([1, 1, 1, 2], 2), ([1, 1, 1, 1, 1, 2], 1), ([1, 2, 2, 2, 2, 2], 1)]


@pytest.mark.parametrize("axes,level", HOPF_SHAPES)
def test_hopf_table_within_product_rule_error(axes, level, monkeypatch):
    shape = geom.Ellipsoid.from_axes(axes)
    hopf = val.hermitian_volumes(shape, level)
    assert hopf.quadrature["rule"] == "hopf"
    _without_free_phases(monkeypatch)
    product = val.hermitian_volumes(shape, level)
    assert product.quadrature["rule"] == "conj-fold"
    got, want = hopf.to_json(), product.to_json()
    errors = richardson_error(product, val.hermitian_volumes(shape, level - 1))
    for key, err in errors.items():
        assert abs(got[key] - want[key]) <= err, key


@pytest.mark.parametrize("axes", [axes for axes, _ in HOPF_SHAPES])
def test_hopf_gauss_bonnet_residual(axes):
    shape = geom.Ellipsoid.from_axes(axes)
    table = val.hermitian_volumes(shape, 2)
    assert table.quadrature["rule"] == "hopf"
    o = sphere_volume_coeff(2 * shape.n - 1).to_float()
    for residual in val.gauss_bonnet_residual(shape, table=table):
        assert abs(residual) / o < 1e-12


class _PhasesOnly:
    """The unit weight claiming only the free phases of a group: the Hopf rule
    without its sign and conjugation folds."""

    def __init__(self, group):
        self.symmetry = geom.Symmetry(group.phases)

    def normal_speed(self, cloud):
        return np.ones(len(cloud))


@pytest.mark.parametrize("axes", [[1, 1, 1, 2], [1, 1, 1, 2, 2, 3]])
def test_folded_hopf_table_matches_the_unfolded_one(axes):
    # all q nodes of each sampled phase against the 2^(k+1) times fewer that
    # the sign and conjugation folds keep of k sampled phases
    shape = geom.Ellipsoid.from_axes(axes)
    folded = val.hermitian_volumes(shape, 1)
    unfolded = val.hermitian_volumes(shape, 1, _PhasesOnly(geom.symmetry_group(shape.quadric)))
    sampled = len(axes) // 2 - len(geom.symmetry_group(shape.quadric).phases)
    assert unfolded.quadrature["nodes"] == folded.quadrature["nodes"] * 2 ** (sampled + 1)
    got = folded.to_json()
    for key, value in unfolded.to_json().items():
        assert got[key] == pytest.approx(value, rel=1e-13), key


@pytest.mark.parametrize(
    "shape,rule,divisor",
    [
        (geom.Ellipsoid.from_axes([1, 2, 2, 3]), "conj-fold", 8),
        (geom.Ellipsoid.from_axes([1, 2, 2, 3, 3, 4]), "conj-fold", 16),
        (geom.Ellipsoid(_seeded_quadric(4)), "product", 1),
        # a turn inside a pair keeps the sign flips but not the conjugation
        (geom.Ellipsoid.from_axes([1, 2, 2, 3]).transformed(_pair_rotation(0.3)), "sign-fold", 4),
    ],
)
def test_tables_without_torus_symmetry_keep_their_rule(shape, rule, divisor):
    table = val.hermitian_volumes(shape, 0)
    nodes = len(geom.sphere_grid(2 * shape.n, 0)[1]) // divisor
    assert table.quadrature == {"rule": rule, "nodes": nodes}


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_total_curvature_is_gauss_map_degree(n):
    sphere = geom.Ellipsoid.from_axes([1.0] * (2 * n))
    t = val.hermitian_volumes(sphere, level=0)
    o = sphere_volume_coeff(2 * n - 1).to_float()
    assert t.M[2 * n - 1] == pytest.approx(o, rel=1e-12)


# ---------------------------------------------------------------------------
# Curvature sums M[j]: the tridiagonal kernel against eigenvalues
# ---------------------------------------------------------------------------


def _eigvalsh_oracle(h):
    """e_0, ..., e_d of the eigenvalues of each h (m, d, d), as (d + 1, m)."""
    eigs = np.linalg.eigvalsh(h)
    m, d = eigs.shape
    e = np.zeros((d + 1, m))
    e[0] = 1.0
    for i in range(d):
        e[1 : i + 2] = e[1 : i + 2] + eigs[:, i] * e[0 : i + 1]
    return e


def _kernel(h):
    return val._elementary_symmetric_functions(h.transpose(1, 2, 0))


@pytest.mark.parametrize("d", range(1, 10))
def test_elementary_symmetric_kernel_matches_eigenvalues(d):
    rng = np.random.default_rng([11, d])
    A = rng.standard_normal((400, d, d))
    spd = A @ A.swapaxes(1, 2) / d + 0.5 * np.eye(d)
    idx = np.arange(d)
    diagonal = np.zeros((20, d, d))
    diagonal[:, idx, idx] = rng.uniform(0.1, 3.0, (20, d))
    # diagonally dominant, so positive definite: the reflectors are all identities
    tridiagonal = diagonal + 2.0 * np.eye(d)
    off = rng.uniform(-0.5, 0.5, (20, d - 1))
    tridiagonal[:, idx[1:], idx[:-1]] = off
    tridiagonal[:, idx[:-1], idx[1:]] = off
    for h in (spd, diagonal, tridiagonal):
        kept = h.copy()
        got, want = _kernel(h), _eigvalsh_oracle(h)
        assert np.array_equal(h, kept)
        assert got.shape == (d + 1, len(h))
        assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("eps,R", [(1.0, 0.5), (-1.0, 0.8), (0.0, 1.3)])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_elementary_symmetric_kernel_on_one_node_ball_clouds(eps, R, n):
    cloud = next(OneNodeBall(n, eps, R).boundary(0, "torus", None))
    kept = cloud.h.copy()
    got, want = _kernel(cloud.h), _eigvalsh_oracle(cloud.h)
    assert np.array_equal(cloud.h, kept)  # a one-node batch is not written through
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize(
    "axes,level",
    [
        ([1, 2, 2, 3], 2),
        ([1, 1, 1, 1, 1, 2], 1),
        ([1, 1, 2, 2, 3, 3, 4, 4], 2),
        ([0.2, 0.2, 1, 1, 3, 3, 5, 5, 9, 9], 1),
        ([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], 1),
    ],
)
def test_curvature_sums_match_eigenvalues_on_table_clouds(axes, level):
    # the integrated M[j] of each table's cloud, kernel against eigenvalues
    chunks = geom.boundary_chunks(geom.Ellipsoid.from_axes(axes), level,
                                  geom.Symmetry.full(len(axes) // 2), val.QUADRATURE_CHUNK)
    got = np.zeros(len(axes))
    want = np.zeros(len(axes))
    for chunk in chunks:
        got += _kernel(chunk.h) @ chunk.weights
        want += _eigvalsh_oracle(chunk.h) @ chunk.weights
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_ball_closed_form_frozen_values():
    t = val.ball_closed_form(0.0, 2, 1.0)
    assert t.B[(2, 0)] == pytest.approx(2 * pi)
    assert t.Gamma[(2, 1)] == pytest.approx(pi)
    assert t.Gamma[(0, 0)] == pytest.approx(1.0)


@pytest.mark.parametrize("eps,R", [(1.0, pi / 4), (-1.0, 0.8), (0.0, 1.3)])
@pytest.mark.parametrize("n", [2, 3])
def test_ball_quadrature_path_matches_closed_form(eps, R, n):
    # one node at h = diag(mu_H, lambda, ...) goes through the generic
    # exterior-algebra machinery; the closed form is the monomial formula
    tq = val.hermitian_volumes(OneNodeBall(n, eps, R))
    tc = val.ball_closed_form(eps, n, R)
    for key in tc.B:
        assert tq.B[key] == pytest.approx(tc.B[key], rel=1e-10)
    for key in tc.Gamma:
        assert tq.Gamma[key] == pytest.approx(tc.Gamma[key], rel=1e-10)
    for j in tc.M:
        assert tq.M[j] == pytest.approx(tc.M[j], rel=1e-10)


def test_a_ball_has_no_quadrature_table():
    # its one table is the closed form, which shape_table returns bit for bit
    ball = geom.GeodesicBall(n=2, eps=1.0, R=0.5)
    with pytest.raises(ValueError, match="no boundary quadrature"):
        val.hermitian_volumes(ball)
    assert val.shape_table(ball, 3) == val.ball_closed_form(1.0, 2, 0.5)


def test_flat_ball_degree_homogeneity():
    base = val.ball_closed_form(0.0, 2, 1.0)
    for R in (0.5, 2.0):
        t = val.ball_closed_form(0.0, 2, R)
        for (k, q) in t.B:
            assert t.B[(k, q)] == pytest.approx(base.B[(k, q)] * R**k, rel=1e-12)
        for (k, q) in t.Gamma:
            assert t.Gamma[(k, q)] == pytest.approx(base.Gamma[(k, q)] * R**k, rel=1e-12)


def test_flat_gamma_equals_b():
    t = val.ball_closed_form(0.0, 3, 0.9)
    for key in t.Gamma:
        if key in t.B:
            assert t.Gamma[key] == pytest.approx(t.B[key], rel=1e-13)
    e = val.hermitian_volumes(geom.Ellipsoid.from_axes([1, 1, 2, 2]), level=2)
    for key in e.Gamma:
        if key in e.B:
            assert e.Gamma[key] == pytest.approx(e.B[key], rel=1e-8)


def test_ellipsoid_scaling_homogeneity():
    base = val.hermitian_volumes(geom.Ellipsoid.from_axes([1, 1, 2, 2]), level=1)
    for t_scale in (0.5, 2.0):
        scaled = val.hermitian_volumes(
            geom.Ellipsoid.from_axes([t_scale, t_scale, 2 * t_scale, 2 * t_scale]),
            level=1,
        )
        for (k, q) in base.B:
            assert scaled.B[(k, q)] == pytest.approx(
                base.B[(k, q)] * t_scale**k, rel=1e-10
            )
        assert scaled.vol == pytest.approx(base.vol * t_scale**4, rel=1e-12)


def test_rigid_motion_invariance():
    # unitary part of the flat isometry group; translations act trivially on
    # every pipeline input (boundary curvature data is translation invariant)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(z)
    R = realify_complex_columns(U)
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    rotated = e.transformed(R)
    a = val.hermitian_volumes(e, level=3)
    b = val.hermitian_volumes(rotated, level=3)
    for key in a.B:
        assert b.B[key] == pytest.approx(a.B[key], rel=1e-9, abs=1e-9)
    for key in a.Gamma:
        assert b.Gamma[key] == pytest.approx(a.Gamma[key], rel=1e-9, abs=1e-9)
    for j in a.M:
        assert b.M[j] == pytest.approx(a.M[j], rel=1e-9)
    assert b.vol == pytest.approx(a.vol, rel=1e-12)


def test_richardson_error_estimates():
    e = geom.Ellipsoid.from_axes([1, 2, 2, 3])
    t0, t1, t2 = (val.hermitian_volumes(e, level) for level in (0, 1, 2))
    error, error_low = richardson_error(t2, t1), richardson_error(t1, t0)
    assert error
    # the level-2 error estimate is tiny relative to the entries
    assert error["G:0,0"] < 1e-4
    assert error["G:0,0"] < error_low["G:0,0"]


def test_tables_build_their_boundary_geometry_one_chunk_at_a_time(monkeypatch):
    # a 65,536-node product table: no frame batch may exceed one chunk
    frames = geom._adapted_frames
    batches = []

    def record(normals):
        batches.append(len(normals))
        return frames(normals)

    monkeypatch.setattr(geom, "_adapted_frames", record)
    table = val.hermitian_volumes(geom.Ellipsoid(_seeded_quadric(4)), level=2)
    assert table.quadrature == {"rule": "product", "nodes": 65536}
    assert max(batches) <= val.QUADRATURE_CHUNK
    assert sum(batches) == 65536


@pytest.mark.parametrize("eps,R", [(1.0, 0.5), (-1.0, 0.8)])
def test_gamma_b_relation_on_balls(eps, R):
    t = val.ball_closed_form(eps, 3, R)
    res = val.check_gamma_b_relation(t)
    assert sorted(res) == [(3, 1)]
    assert max(abs(v) for v in res.values()) < 1e-9


def test_gamma_b_relation_flat_reduces_to_equality():
    t = val.hermitian_volumes(geom.Ellipsoid.from_axes([1, 1, 2, 2]), level=2)
    res = val.check_gamma_b_relation(t)
    for (k, q), v in res.items():
        assert v == pytest.approx(t.Gamma[(k, q)] - t.B[(k, q)])
        assert abs(v) < 1e-8


@pytest.mark.parametrize("eps", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [0.3, 0.6, 0.9])
def test_gauss_bonnet_balls(eps, n, R):
    ball = geom.GeodesicBall(n=n, eps=eps, R=R)
    r51, r52 = val.gauss_bonnet_residual(ball, val.shape_table(ball))
    o = sphere_volume_coeff(2 * n - 1).to_float()
    assert abs(r51) / o < 1e-8
    assert abs(r52) / o < 1e-8


@pytest.mark.parametrize("axes", [[1, 1, 2, 2], [1, 2, 2, 3], [1, 1, 1, 2]])
def test_gauss_bonnet_flat_ellipsoids(axes):
    e = geom.Ellipsoid.from_axes(axes)
    r51, r52 = val.gauss_bonnet_residual(e, val.hermitian_volumes(e, 2))
    o = sphere_volume_coeff(3).to_float()
    assert abs(r51) / o < 1e-6
    assert abs(r52) / o < 1e-6


def test_closed_form_derivative_matches_fd():
    eps, n, R = -1.0, 2, 0.7
    dt = val.ball_closed_form_derivative(eps, n, R)
    h = 1e-5
    plus = val.ball_closed_form(eps, n, R + h)
    minus = val.ball_closed_form(eps, n, R - h)
    for key in dt.B:
        fd = (plus.B[key] - minus.B[key]) / (2 * h)
        assert dt.B[key] == pytest.approx(fd, rel=1e-7)
    for key in dt.Gamma:
        fd = (plus.Gamma[key] - minus.Gamma[key]) / (2 * h)
        assert dt.Gamma[key] == pytest.approx(fd, rel=1e-7)
    for j in dt.M:
        fd = (plus.M[j] - minus.M[j]) / (2 * h)
        assert dt.M[j] == pytest.approx(fd, rel=1e-7)
    assert dt.vol == pytest.approx((plus.vol - minus.vol) / (2 * h), rel=1e-9)


def test_table_json_key_format():
    t = val.ball_closed_form(0.0, 2, 1.0)
    d = t.to_json()
    assert d["mu:0,0"] == pytest.approx(1.0)
    assert d["B:2,0"] == pytest.approx(2 * pi)
    assert "M:3" in d and "vol" in d


def test_mu_assembly():
    t = val.ball_closed_form(1.0, 2, 0.5)
    assert t.mu(2, 1) == t.Gamma[(2, 1)]
    assert t.mu(2, 0) == t.B[(2, 0)]
    md = t.mu_dict()
    assert set(md) == {(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)}
