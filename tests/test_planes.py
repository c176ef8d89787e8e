"""Plane sampling, hit predicates, kappa and the Grassmann average.

Monte Carlo assertions use fixed seeds and 3 sigma gates (sharper where the
statistic is exact); the heavy 1e6-sample runs live in the acceptance suite.
Sampled frames and anchors are batch-last: frames (rows, cols, m), complex
anchors (n, m).  They are computed as the estimators compute them: a chunk's
draws, then its frames and anchors.
"""

import json
import threading
import tracemalloc
from math import comb, pi, sin, sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from croftonlab import coeffcore as cc
from croftonlab import checks, geom, planes
from croftonlab import valuations as val
from helpers import realify_complex_columns


UNIT_BALL = geom.Ellipsoid.from_axes([1, 1, 1, 1])
DATA = Path(__file__).parent / "data"


def _sampled_frames(rng, m, rows, cols):
    """m Haar frames (rows, cols, m) of one chunk: its draws, then the QR."""
    return planes._frames(planes._frame_draws(rng, m, rows, cols))


def _sampled_flat(n, r, rho, rng, m):
    """m flat planes (V (n, r, m), anchors (n, m)) of one chunk: its draws, then the planes."""
    return planes._flat_planes(planes._flat_draws(rng, m, n, r), r, rho)


# ---------------------------------------------------------------------------
# Sampling distributions
# ---------------------------------------------------------------------------


def test_haar_line_moment():
    rng = planes._chunk_rng(1, 0)
    V = _sampled_frames(rng, 100000, 2, 2)
    m = np.abs(V[0, 0]) ** 2
    sd = m.std() / sqrt(len(m))
    assert abs(m.mean() - 0.5) < 3 * sd


def test_anchor_uniform_ball_moment():
    rho, d = 1.5, 2  # n=2, r=1: complement has real dimension 2
    rng = planes._chunk_rng(2, 0)
    _, anchors = _sampled_flat(2, 1, rho, rng, 100000)
    nn = (np.abs(anchors) ** 2).sum(axis=0)
    sd = nn.std() / sqrt(len(nn))
    assert abs(nn.mean() - rho**2 * d / (d + 2)) < 3 * sd


def test_anchor_orthogonal_to_plane():
    rng = planes._chunk_rng(3, 0)
    V, anchors = _sampled_flat(3, 1, 2.0, rng, 1000)
    dots = np.einsum("irm,im->rm", V.conj(), anchors)  # complex, so J-orthogonal too
    assert np.max(np.abs(dots)) < 1e-12


@pytest.mark.parametrize("N", [1, 4464, planes.SAMPLE_CHUNK, planes.SAMPLE_CHUNK + 1,
                               65536, 70000])
def test_chunk_sums_hand_work_chunks_in_order(N, monkeypatch):
    # every chunk but the last holds SAMPLE_CHUNK planes, and each chunk's
    # stream is the one _chunk_rng gives its index, at any thread count
    monkeypatch.setenv("CROFTONLAB_THREADS", "3")
    full, rest = divmod(N, planes.SAMPLE_CHUNK)
    sizes = [planes.SAMPLE_CHUNK] * full + ([rest] if rest else [])

    class Ordered(tuple):
        # sums by concatenation, so the column sum keeps the order it adds in
        # (sum() starts from 0)
        def __radd__(self, other):
            return tuple(other or ()) + tuple(self)

    def work(rng, m, ws):
        return (Ordered([(m, rng.random())]),)

    (chunks,) = planes._chunk_sums(N, 9, work)
    assert chunks == tuple((m, planes._chunk_rng(9, ci).random()) for ci, m in enumerate(sizes))
    assert sum(m for m, _ in chunks) == N


def test_concurrent_chunks_stay_small(monkeypatch):
    # two threads each keep one workspace for the whole estimate (frames,
    # real columns and section form at 8,192 planes a chunk); the bounds are
    # the traced peaks of the kernel that allocated every chunk afresh: the
    # n = 3 ball at 11 MiB, the n = 3, r = 2 ellipsoid at 14.5 MiB and the
    # CP^2 ball at 6.7 MiB
    monkeypatch.setenv("CROFTONLAB_THREADS", "2")
    cases = [
        (geom.GeodesicBall(n=3, eps=0.0, R=1.0), 2, 11.0),
        (geom.Ellipsoid.from_axes([1, 1, 1, 1, 2, 2]), 2, 14.5),
        (geom.GeodesicBall(n=2, eps=1.0, R=1.0), 1, 6.7),
    ]
    for shape, r, bound in cases:
        tracemalloc.start()
        try:
            planes.chi_measure_estimate(shape, r, 100_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (shape, peak / 2**20)


def test_pool_and_workspaces_across_thread_counts(monkeypatch):
    # one pool, replaced when the thread count changes, and workspaces that
    # live for one estimate: every thread count gives the same estimates
    a = np.random.default_rng(8).standard_normal((5, 5))
    h = (a + a.T) / 2
    shape = geom.Ellipsoid.from_axes([1, 1, 1, 1, 2, 2])

    def estimates():
        return (planes.chi_measure_estimate(shape, 2, 30000, 5),
                planes.grassmann_sigma_average(h, 1, 30000, 5))

    results = []
    for threads in ("1", "3", "2", "1"):
        monkeypatch.setenv("CROFTONLAB_THREADS", threads)
        results.append(estimates())
    assert all(result == results[0] for result in results)

    def pool_threads():
        return {t for t in threading.enumerate() if t.name.startswith("croftonlab-planes")}

    # only the two-thread pool is left: the three-thread pool's workers are
    # gone, and the next two-thread estimate runs on the same workers
    workers = pool_threads()
    assert 1 <= len(workers) <= 2
    monkeypatch.setenv("CROFTONLAB_THREADS", "2")
    assert estimates() == results[0]
    assert pool_threads() == workers


def test_failing_chunk_raises_and_the_next_estimate_matches_its_golden(monkeypatch):
    monkeypatch.setenv("CROFTONLAB_THREADS", "3")

    def work(rng, m, ws):
        if m < planes.SAMPLE_CHUNK:
            raise RuntimeError("the last chunk failed")
        return (m,)

    with pytest.raises(RuntimeError, match="the last chunk failed"):
        planes._chunk_sums(5 * planes.SAMPLE_CHUNK + 1, 0, work)
    est = planes.chi_measure_estimate(geom.Ellipsoid.from_axes([1, 1, 1, 1, 2, 2]), 2, 70000, 5)
    golden = json.loads((DATA / "mc_chi_estimates_n3.json").read_text())["axes_1_1_1_1_2_2_r2"]
    assert {"mean": repr(est.mean), "stderr": repr(est.stderr)} == golden


def test_planes_outside_an_estimate_are_fresh_arrays():
    first = _sampled_flat(3, 2, 2.0, planes._chunk_rng(15, 0), 1000)
    second = _sampled_flat(3, 2, 2.0, planes._chunk_rng(15, 1), 1000)
    assert not any(np.shares_memory(x, y) for x in first for y in second)


def test_sliced_planes_equal_whole_chunk_planes():
    # per-plane arithmetic is elementwise: a plane does not depend on the
    # other planes of its chunk, so computing a chunk in pieces keeps every
    # plane bit for bit
    m = planes.SAMPLE_CHUNK + 123
    draws = planes._flat_draws(planes._chunk_rng(14, 0), m, 3, 1)
    # the planes overwrite their draws, so each computation gets a copy
    whole = planes._flat_planes(tuple(d.copy() for d in draws), 1, 2.0)
    pieces = [planes._flat_planes(tuple(d[..., s].copy() for d in draws), 1, 2.0)
              for s in (slice(0, 1000), slice(1000, m))]
    for got, want in zip(zip(*pieces), whole):
        assert np.array_equal(np.concatenate(got, axis=-1), want)


# ---------------------------------------------------------------------------
# Oracles: LAPACK's QR and the realified einsum sampler and predicates
# ---------------------------------------------------------------------------

ORACLE_PLANES = 1 << 16


def _lapack_frames(rng, m, rows, cols):
    """np.linalg.qr's Q of the same (m, rows, cols) complex Gaussians, batch-first."""
    Z = rng.standard_normal((m, rows, cols)) + 1j * rng.standard_normal((m, rows, cols))
    return np.linalg.qr(Z)[0]


@pytest.mark.parametrize(
    "rows,cols", [(2, 2), (3, 3), (4, 4), (3, 2), (4, 2), (4, 3), (1, 1), (2, 1)]
)
def test_haar_frames_equal_lapack_qr(rows, cols):
    # flat (n, n), projective (n+1, r+1) and Grassmann (n-1, r) frames; the
    # sign convention fixes every column, so columns agree, not just spans
    Q = _sampled_frames(planes._chunk_rng(11, 0), ORACLE_PLANES, rows, cols)
    want = _lapack_frames(planes._chunk_rng(11, 0), ORACLE_PLANES, rows, cols)
    assert Q.shape == (rows, cols, ORACLE_PLANES)
    assert np.max(np.abs(Q.transpose(2, 0, 1) - want)) <= 1e-12


def _einsum_flat_batch(n, r, rho, rng, m):
    """Flat planes from LAPACK frames and a realified window: (V (m, n, r), anchor (m, 2n))."""
    Q = _lapack_frames(rng, m, n, n)
    W = realify_complex_columns(Q[:, :, r:])
    g = rng.standard_normal((m, 2 * (n - r)))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.random(m) ** (1.0 / (2 * (n - r)))
    return Q[:, :, :r], np.einsum("mij,mj->mi", W, g * (rho * u)[:, None])


def _einsum_hits_flat(shape, V, anchors):
    Vr = realify_complex_columns(V)
    if isinstance(shape, geom.GeodesicBall):
        rel = anchors - np.einsum("mir,mjr,mj->mi", Vr, Vr, anchors)
        return np.linalg.norm(rel, axis=1) <= shape.R * (1 + 1e-12)
    Q = shape.quadric
    QV = np.einsum("ij,mjr->mir", Q, Vr)
    M = np.einsum("mir,mis->mrs", Vr, QV)
    b = np.einsum("mir,mi->mr", QV, anchors)
    c0 = np.einsum("mi,ij,mj->m", anchors, Q, anchors)
    sol = np.linalg.solve(M, b[..., None])[..., 0]
    return c0 - np.einsum("mr,mr->m", b, sol) <= 1.0 + 1e-12


def _einsum_hits_projective(ball, W):
    center = np.zeros(ball.n + 1, dtype=complex)
    center[0] = 1.0
    proj = np.einsum("mkr,k->mr", W.conj(), center)
    return np.arccos(np.minimum(np.linalg.norm(proj, axis=1), 1.0)) <= ball.R * (1 + 1e-12)


def _general_quadric(n, seed):
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    return geom.Ellipsoid(rot @ np.diag(rng.uniform(0.5, 2.0, 2 * n) ** -2.0) @ rot.T)


FLAT_ORACLE_SHAPES = {
    "ball": lambda n: geom.GeodesicBall(n=n, eps=0.0, R=0.8),
    "axes": lambda n: geom.Ellipsoid.from_axes(checks.FLAT_FAMILIES[n][1]),
    "quadric": lambda n: _general_quadric(n, 100 + n),
}


@pytest.mark.parametrize("kind", sorted(FLAT_ORACLE_SHAPES))
@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2)])
def test_flat_hits_equal_the_einsum_oracle(n, r, kind):
    shape = FLAT_ORACLE_SHAPES[kind](n)
    rho = 1.5 * shape.circum_radius  # wider than the estimators' window: more misses
    V, anchors = _sampled_flat(n, r, rho, planes._chunk_rng(12, 0), ORACLE_PLANES)
    want = _einsum_hits_flat(
        shape, *_einsum_flat_batch(n, r, rho, planes._chunk_rng(12, 0), ORACLE_PLANES)
    )
    assert 0 < np.count_nonzero(want) < ORACLE_PLANES
    assert np.array_equal(shape.meets(V, anchors), want)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2)])
def test_projective_hits_equal_the_einsum_oracle(n, r):
    ball = geom.GeodesicBall(n=n, eps=1.0, R=0.6)
    W = _sampled_frames(planes._chunk_rng(13, 0), ORACLE_PLANES, n + 1, r + 1)
    want = _einsum_hits_projective(
        ball, _lapack_frames(planes._chunk_rng(13, 0), ORACLE_PLANES, n + 1, r + 1)
    )
    assert 0 < np.count_nonzero(want) < ORACLE_PLANES
    assert np.array_equal(planes._hits_projective(ball, W), want)


def test_unitary_invariance_of_ball_hits():
    # rotating every sample by a fixed unitary leaves the unit-ball hit mask
    # unchanged: the predicate only involves invariant distances
    rng = planes._chunk_rng(4, 0)
    V, anchors = _sampled_flat(2, 1, 1.3, rng, 20000)
    ball = geom.GeodesicBall(n=2, eps=0.0, R=1.0)
    base = ball.meets(V, anchors)
    z = np.random.default_rng(0).standard_normal((2, 2)) + 1j * np.random.default_rng(
        1
    ).standard_normal((2, 2))
    U, _ = np.linalg.qr(z)
    rotated = ball.meets(np.einsum("ij,jrm->irm", U, V), U @ anchors)
    assert np.array_equal(base, rotated)


# ---------------------------------------------------------------------------
# Hit predicate
# ---------------------------------------------------------------------------


def test_meets_trivial_cases():
    rng = planes._chunk_rng(5, 0)
    V, anchors = _sampled_flat(2, 1, 0.0, rng, 1)  # through the origin
    assert UNIT_BALL.meets(V, anchors)[0]
    far = 2.0 * _unit_perp(V[:, :, 0])[:, None]
    assert not UNIT_BALL.meets(V, far)[0]


def _unit_perp(V):
    """A unit complex vector orthogonal to span_C of the columns of V (n, r)."""
    w = np.zeros(V.shape[0], dtype=complex)
    w[0] = 1.0
    w = w - V @ (V.conj().T @ w)
    return w / np.linalg.norm(w)


def _real(z):
    """Real coordinates (Re z_1, Im z_1, ...) of a complex vector."""
    return np.stack([z.real, z.imag], axis=-1).ravel()


def test_meets_against_minimizer_oracle():
    # independent oracle: numeric minimization of the quadratic on the plane
    rng = planes._chunk_rng(6, 0)
    e = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    V, anchors = _sampled_flat(2, 1, 2.5, rng, 400)
    got = e.meets(V, anchors)
    Q = e.quadric
    for i in range(400):
        Vr = realify_complex_columns(V[:, :, i])

        def f(s):
            x = _real(anchors[:, i]) + Vr @ s
            return x @ Q @ x

        res = minimize(f, np.zeros(2), method="BFGS")
        want = res.fun <= 1.0
        if abs(res.fun - 1.0) > 1e-6:
            assert got[i] == want, i


def test_hit_monotone_under_inclusion():
    small = geom.Ellipsoid.from_axes([0.8, 0.7, 1.5, 1.2])
    big = geom.Ellipsoid.from_axes([1.0, 1.0, 2.0, 2.0])
    rng = planes._chunk_rng(7, 0)
    V, anchors = _sampled_flat(2, 1, 2.5, rng, 50000)
    hs = small.meets(V, anchors)
    hb = big.meets(V, anchors)
    assert not np.any(hs & ~hb)


def test_projective_distance_and_limits():
    ball = geom.GeodesicBall(n=2, eps=1.0, R=0.5)
    rng = planes._chunk_rng(9, 0)
    W = _sampled_frames(rng, 5000, 3, 2)
    center = np.array([1.0, 0.0, 0.0])
    proj = np.einsum("krm,k->rm", W.conj(), center)
    d = np.arccos(np.minimum(np.linalg.norm(proj, axis=0), 1.0))
    assert np.all((0 <= d) & (d <= pi / 2 + 1e-12))
    fractions = []
    for R in (0.3, 0.6, 0.9, 1.2, 1.5):
        b = geom.GeodesicBall(n=2, eps=1.0, R=R)
        fractions.append(np.count_nonzero(planes._hits_projective(b, W)) / W.shape[2])
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.999


def test_eps_negative_sampling_rejected():
    ball = geom.GeodesicBall(n=2, eps=-1.0, R=0.5)
    with pytest.raises(NotImplementedError):
        planes.chi_measure_estimate(ball, 1, 100, 0)


def test_unmodelled_positive_curvature_rejected():
    ball = geom.GeodesicBall(n=2, eps=0.5, R=0.5)
    with pytest.raises(ValueError, match=r"eps = 0 .* eps = 1 .* got eps = 0\.5"):
        planes.chi_measure_estimate(ball, 1, 100, 0)


# ---------------------------------------------------------------------------
# chi-measure estimates and kappa
# ---------------------------------------------------------------------------


def test_window_exactly_characterizes_ball_hits():
    # a centered ball is hit exactly when the anchor falls in its projection,
    # so anchors beyond the circumradius never contribute (unbiased windowing)
    rng = planes._chunk_rng(10, 0)
    V, anchors = _sampled_flat(2, 1, 3.0, rng, 5000)
    ball = geom.GeodesicBall(n=2, eps=0.0, R=0.35)
    hits = ball.meets(V, anchors)
    inside = np.linalg.norm(anchors, axis=0) <= 0.35 * (1 + 1e-12)
    assert np.array_equal(hits, inside)
    assert abs(hits.mean() - (0.35 / 3.0) ** 2) < 3 * np.sqrt(hits.mean() / len(hits))


def test_chi_estimate_deterministic_and_thread_independent(monkeypatch):
    # 70000 samples span two chunks, so four threads reduce them concurrently
    a = np.random.default_rng(8).standard_normal((5, 5))
    h = (a + a.T) / 2

    def estimates():
        return (
            planes.chi_measure_estimate(UNIT_BALL, 1, 70000, 123),
            planes.total_gauss_estimate(UNIT_BALL, 1, 70000, 123),
            planes.grassmann_sigma_average(h, 1, 70000, 123),
        )

    monkeypatch.setenv("CROFTONLAB_THREADS", "1")
    first = estimates()
    assert estimates() == first
    monkeypatch.setenv("CROFTONLAB_THREADS", "4")
    assert estimates() == first


@pytest.mark.parametrize(
    "axes,r,N,seed", [([1, 2, 2, 3], 1, 30000, 9), ([1, 1, 1, 1, 2, 2], 2, 300, 4)]
)
def test_total_gauss_chi_is_the_chi_measure_estimate(axes, r, N, seed):
    # both estimators reduce the same plane stream with the same binomial builder,
    # and every hit section counts at its Gauss-map degree O_{2r-1}
    e = geom.Ellipsoid.from_axes(axes)
    res = planes.total_gauss_estimate(e, r, N, seed)
    assert res.chi == planes.chi_measure_estimate(e, r, N, seed)
    o = cc.sphere_volume_coeff(2 * r - 1).to_float()
    assert res.total.mean == pytest.approx(o * res.chi.mean, rel=1e-15)
    assert res.total.stderr == pytest.approx(o * res.chi.stderr, rel=1e-15)


def test_scaling_of_plane_measure():
    # the flat plane measure of t*shape scales as t^{2n-2r}
    est1 = planes.chi_measure_estimate(UNIT_BALL, 1, 150000, 21)
    est2 = planes.chi_measure_estimate(
        geom.Ellipsoid.from_axes([1.7] * 4), 1, 150000, 22
    )
    pred = est1.mean * 1.7**2
    sd = sqrt(est2.stderr**2 + (1.7**2 * est1.stderr) ** 2)
    assert abs(est2.mean - pred) < 3 * sd


def test_unit_ball_measure_value():
    # lines meeting the unit ball fill a unit disc of anchors: measure pi
    est = planes.chi_measure_estimate(UNIT_BALL, 1, 200000, 31)
    assert abs(est.mean - pi) < 3 * est.stderr


def test_calibration_properties():
    ref = geom.GeodesicBall(n=2, eps=0.0, R=1.0)
    cal1 = planes.calibrate(2, 1, 0.0, ref, 150000, 41)
    assert cal1.kappa > 0
    # radius independence
    half = geom.GeodesicBall(n=2, eps=0.0, R=0.5)
    cal2 = planes.calibrate(2, 1, 0.0, half, 150000, 42)
    sd = sqrt(cal1.stderr**2 + cal2.stderr**2)
    assert abs(cal1.kappa - cal2.kappa) < 3 * sd
    # sample-size consistency
    cal3 = planes.calibrate(2, 1, 0.0, ref, 50000, 43)
    sd = sqrt(cal1.stderr**2 + cal3.stderr**2)
    assert abs(cal1.kappa - cal3.kappa) < 3 * sd


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kappa_times_the_ball_bracket_is_the_exact_plane_measure(n):
    # no sampling, no quadrature: the flat planes meeting B(R) have anchors in
    # the projected ball, and a Haar r-plane of CP^n passes within R of a point
    # with the probability that a Binomial(n, sin^2 R) count reaches n - r
    for r in range(1, n):
        for R in (0.1, 0.3, 0.7, 1.2, 1.5):
            flat = planes.kappa(n, r, 0).to_float() * val.crofton_rhs(
                val.ball_closed_form(0.0, n, R), r)
            want = cc.ball_volume_coeff(2 * (n - r)).to_float() * R ** (2 * (n - r))
            assert flat == pytest.approx(want, rel=1e-12, abs=0), (n, r, R)
            X = sin(R) ** 2
            cpn = planes.kappa(n, r, 1).to_float() * val.crofton_rhs(
                val.ball_closed_form(1.0, n, R), r)
            want = sum(comb(n, j) * X**j * (1 - X) ** (n - j) for j in range(n - r, n + 1))
            assert cpn == pytest.approx(want, rel=1e-12, abs=0), (n, r, R)


def test_kappa_closed_forms():
    assert planes.kappa(3, 1, 0) == cc.PiScalar(2, -1)
    assert planes.kappa(3, 2, 1) == cc.PiScalar(6, -3)
    for n, r, eps in ((2, 1, -1.0), (2, 1, 0.5), (2, 2, 0.0), (3, 0, 1.0)):
        with pytest.raises(ValueError, match="eps = 0 or 1 and 1 <= r < n"):
            planes.kappa(n, r, eps)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("eps,R", [(0.0, 1.0), (1.0, 0.75)])
def test_calibration_measures_the_closed_form_kappa(n, r, eps, R):
    cal = planes.calibrate(n, r, eps, geom.GeodesicBall(n=n, eps=eps, R=R), 200000,
                           7000 + 100 * int(eps) + 10 * n + r)
    assert abs(cal.kappa - planes.kappa(n, r, eps).to_float()) < 3 * cal.stderr


def test_calibrated_crofton_across_shapes():
    res = checks.crofton_flat(1, checks.FLAT_FAMILIES[2], 2, 200000, 52, 3.0)
    assert res["pass"], res["items"]


def test_crofton_rhs_unit_ball_value():
    table = val.ball_closed_form(0.0, 2, 1.0)
    assert val.crofton_rhs(table, 1) == pytest.approx(pi**2, rel=1e-12)


def test_calibrate_rejects_degenerate():
    table = val.ball_closed_form(0.0, 2, 1.0)
    zeroed = val.ValuationTable(
        n=2, eps=0.0, B={k: 0.0 for k in table.B},
        Gamma={k: 0.0 for k in table.Gamma}, M=dict(table.M), vol=0.0,
    )
    with pytest.raises(ValueError):
        planes.calibrate(2, 1, 0.0, UNIT_BALL, 100, 0, table=zeroed)


@pytest.mark.parametrize(
    "n,eps,shape",
    [(2, 1.0, geom.GeodesicBall(n=2, eps=0.0, R=1.0)),
     (3, 0.0, geom.GeodesicBall(n=2, eps=0.0, R=1.0)),
     (3, 0.0, UNIT_BALL)],
    ids=["eps", "ball-n", "ellipsoid-n"],
)
def test_calibrate_rejects_a_mismatched_reference(n, eps, shape):
    with pytest.raises(ValueError, match="differs from the reference shape"):
        planes.calibrate(n, 1, eps, shape, 100, 0)


def test_cpn_radius_dependence():
    cal = planes.calibrate(2, 1, 1.0, geom.GeodesicBall(n=2, eps=1.0, R=0.75), 200000, 61)
    for i, R in enumerate((0.3, 0.9)):
        ball = geom.GeodesicBall(n=2, eps=1.0, R=R)
        rhs = val.crofton_rhs(val.ball_closed_form(1.0, 2, R), 1)
        est = planes.chi_measure_estimate(ball, 1, 200000, 62 + i)
        z = est.z_score(cal.kappa * rhs, extra_stderr=cal.stderr * rhs)
        assert abs(z) < 3.0, (R, z)


# ---------------------------------------------------------------------------
# Total Gauss curvature of sections
# ---------------------------------------------------------------------------


def test_section_total_curvature_is_gauss_map_degree():
    res = planes.total_gauss_estimate(
        geom.Ellipsoid.from_axes([1, 1, 2, 2]), 1, 50000, 71
    )
    assert res.total.mean / res.chi.mean == pytest.approx(2 * pi, rel=1e-10)


def test_total_gauss_matches_coefficient_table():
    res = checks.total_gauss(1, [[1, 1, 2, 2]], 2, 150000, 82, 3.0)
    assert res["pass"], res["items"]


def test_section_total_curvature_is_exact_for_r2():
    res = planes.total_gauss_estimate(geom.Ellipsoid.from_axes([1, 1, 1, 1, 2, 2]), 2, 300, 4)
    assert res.total.mean / res.chi.mean == pytest.approx(2 * pi**2, rel=1e-12)


def test_total_gauss_requires_flat_planes():
    for eps in (1.0, -1.0):
        with pytest.raises(ValueError, match="eps = 0"):
            planes.total_gauss_estimate(geom.GeodesicBall(n=2, eps=eps, R=0.5), 1, 10, 0)
    # a flat ball's sections are round 2r-balls
    res = planes.total_gauss_estimate(geom.GeodesicBall(n=2, eps=0.0, R=1.0), 1, 2000, 0)
    assert res.total.mean / res.chi.mean == pytest.approx(2 * pi, rel=1e-12)


# ---------------------------------------------------------------------------
# Pointwise Grassmann average
# ---------------------------------------------------------------------------


def test_grassmann_average_umbilic_exact():
    # every value is lam^{2r} up to roundoff, so the sample variance must not
    # pick up the cancellation of a raw sum of squares (about 1e-10 here)
    lam = 0.7
    h = np.diag([1.1] + [lam] * 4)
    for r in (1, 2):
        for seed in range(91, 97):
            est = planes.grassmann_sigma_average(h, r, 4000, seed)
            assert est.mean == pytest.approx(lam ** (2 * r), rel=1e-12)
            assert est.stderr < 1e-12


def test_grassmann_average_matches_density_combination():
    rng = np.random.default_rng(92)
    a = rng.standard_normal((5, 5))
    h = (a + a.T) / 2
    est = planes.grassmann_sigma_average(h, 1, 100000, 93)
    combo = planes.cor44_density_combination(3, 1, h)
    assert abs(est.z_score(combo)) < 3.0


def test_grassmann_ratio_test_two_forms():
    rng = np.random.default_rng(94)
    hs = []
    for _ in range(2):
        a = rng.standard_normal((5, 5))
        hs.append((a + a.T) / 2)
    ests = [planes.grassmann_sigma_average(h, 1, 100000, 95 + i) for i, h in enumerate(hs)]
    combos = [planes.cor44_density_combination(3, 1, h) for h in hs]
    ratio = ests[0].mean / ests[1].mean
    pred = combos[0] / combos[1]
    sd = sqrt(
        (ests[0].stderr / ests[1].mean) ** 2
        + (ests[0].mean * ests[1].stderr / ests[1].mean ** 2) ** 2
    )
    assert abs(ratio - pred) < 3 * sd


def test_grassmann_average_full_distribution_is_determinant():
    # r = n-1 takes the whole distribution: sigma_{2n-2} = det of the block
    rng = np.random.default_rng(96)
    a = rng.standard_normal((5, 5))
    h = (a + a.T) / 2
    est = planes.grassmann_sigma_average(h, 2, 500, 97)
    assert est.mean == pytest.approx(np.linalg.det(h[1:, 1:]), rel=1e-10)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_elementwise_det_matches_lapack(k):
    # random symmetric batches; the error bound is relative to the product of
    # the column norms (Hadamard's bound on |det|), not to det itself
    rng = np.random.default_rng(k)
    a = rng.standard_normal((k, k, 2000))
    S = a + a.transpose(1, 0, 2)
    want = np.linalg.det(S.transpose(2, 0, 1))
    bound = np.prod(np.linalg.norm(S, axis=0), axis=0)
    got = planes._det(S.copy())
    assert np.all(np.abs(got - want) <= 1e-14 * bound)


def test_elementwise_det_pivots_and_singular_batches_are_exact():
    # S[0, 0] = 0 needs a row swap; a zero column gives a zero pivot, which
    # must read as an exact 0 without a division by zero
    swap = np.array([[0.0, 2.0, 1.0], [3.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    singular = np.array([[1.0, 0.0, 2.0], [5.0, 0.0, 1.0], [2.0, 0.0, 3.0]])
    with np.errstate(all="raise"):
        assert planes._det(np.stack([swap, swap.T, singular], axis=2)).tolist() == [-24.0, -24.0, 0.0]
        assert planes._det(np.array([[0.0, 2.0], [3.0, 1.0]])[:, :, None]).tolist() == [-6.0]
        assert planes._det(np.array([[0.0, 2.0], [0.0, 1.0]])[:, :, None]).tolist() == [0.0]
        assert planes._det(np.zeros((4, 4, 2))).tolist() == [0.0, 0.0]


def test_grassmann_chunks_call_no_lapack_det(monkeypatch):
    h = np.diag([1.1, 0.4, 0.9, 1.7, 2.2])
    want = planes.grassmann_sigma_average(h, 1, 20000, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    for threads in ("1", "2"):
        monkeypatch.setenv("CROFTONLAB_THREADS", threads)
        assert planes.grassmann_sigma_average(h, 1, 20000, 3) == want


@pytest.mark.parametrize("N", [0, -5])
def test_estimators_reject_fewer_than_one_sample(N):
    with pytest.raises(ValueError, match="N="):
        planes.chi_measure_estimate(UNIT_BALL, 1, N, 0)
    with pytest.raises(ValueError, match="N="):
        planes.total_gauss_estimate(UNIT_BALL, 1, N, 0)
    with pytest.raises(ValueError, match="N="):
        planes.grassmann_sigma_average(np.eye(3), 1, N, 0)


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_thread_count_rejects_invalid_values(value, monkeypatch):
    monkeypatch.setenv("CROFTONLAB_THREADS", value)
    with pytest.raises(ValueError, match=f"CROFTONLAB_THREADS.*{value!r}"):
        planes.thread_count()


def test_mc_estimate_json_and_z():
    est = planes.MCEstimate(mean=1.0, stderr=0.1, samples=100, seed=7)
    assert est.z_score(1.2) == pytest.approx(-2.0)
    assert est.to_json()["samples"] == 100
