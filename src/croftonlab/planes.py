"""Spaces of complex r-planes: invariant sampling and Monte Carlo measures.

Every estimator draws from one Haar sampler: the Q factor of a complex
Gaussian matrix, computed by Householder reflections with LAPACK's sign
convention (R has a real diagonal), so it is the Q that LAPACK's QR returns
for the same draws.

One chunk, one stream: `_chunk_sums` hands each task a chunk of at most
SAMPLE_CHUNK planes, which draws its variates from its own Philox stream
(`_frame_draws`, `_flat_draws`) and computes on them directly: the frames
(`_frames`), the anchors, the hit predicates and the Grassmann determinants.
A chunk is small (its flat draws take about 1.4 MB at n = 3), so its working
set stays near the cache, and numpy releases the GIL while it fills the draws,
so with CROFTONLAB_THREADS above 1 the draws run on the thread pool as well.

Threads and memory: the chunks run on one persistent thread pool, created on
first use and replaced when CROFTONLAB_THREADS changes, so at most one pool is
alive.  Each `_chunk_sums` call gives every thread that runs its chunks one
`geom.Workspace` for the call's lifetime: the draws' staging buffer, the
frames, the anchors and the section forms' real columns are taken from it and
reused chunk after chunk, and the workspace is dropped when the estimate
returns.  So a chunk allocates almost nothing, and the heap is not trimmed and
faulted back in between chunks.  A chunk calls no BLAS either: the section
forms are elementwise sums in a fixed order (`geom._nonzero_product`), so
OpenBLAS threads neither compete with the pool nor change an estimate.
Helpers called outside an estimate make their own workspace and return fresh
arrays.

Batch-last layout: a chunk of k frames is a (rows, cols, k) array and a
chunk of complex anchors an (n, k) array, so every small-matrix entry is one
contiguous length-k vector.  The QR, the anchors, the hit predicates, the
restricted quadratic forms, the section minimum (an elementwise Cholesky,
`geom._inverse_form`) and the Grassmann determinants (an elementwise LU,
`_det`) are elementwise vector arithmetic on those entries, with no LAPACK
call: a batched LAPACK det costs about ten times the elementwise one on
2 x 2 matrices, and its calls contend when the pool runs them on two threads.

Flat case (eps = 0): a plane is an affine subspace anchor + span_C(V), with V
the first r columns of a Haar unitary frame and the anchor uniform in a
radius-rho window of the span of the other n - r columns.  The invariant
plane measure factors into Lebesgue measure on the complement times the
invariant Grassmannian measure, so

    E[window_volume * 1{plane meets shape}] = (measure of planes meeting shape)

up to one overall normalization constant: the undetermined Grassmannian mass.
That constant is the closed form `kappa`, so every comparison with the
formula bracket is a prediction.
The shape decides which flat planes meet it (`Shape.meets`).  Every hit
section is convex, so its total Gauss curvature is the Gauss-map degree times
O_{2r-1}, and the total-Gauss estimate weights the same hit count by it.

Projective case (eps = 1, holomorphic curvature 4): planes are complex
(r+1)-subspaces of C^{n+1}, sampled Haar; the plane space is compact, so the
hit fraction estimates the measure relative to the total mass (again kappa).

The hyperbolic plane space (eps < 0) is not sampled: its isometry group is
noncompact and no canonical finite window exists; those formulas are verified
through closed-form geodesic balls and the mutual consistency checks instead.

RNG discipline: `_chunk_sums` splits the N samples into SAMPLE_CHUNK-sized
chunks (the last one partial), draws each chunk from its own counter-based
Philox stream and adds the per-chunk sums in chunk order, so estimates depend
only on (seed, N), not on scheduling.  Within a chunk the draws come in a fixed
order: the real Gaussian block (m, rows, cols), the imaginary block, then for
flat planes the anchor normals (m, 2(n - r)) and the uniforms (m).  Hit counts
become a binomial estimate, sums of values and of their squares (about a fixed
shift) a sample-moment estimate.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import perm, sqrt
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import extalg, geom, valuations
from .coeffcore import (
    PiScalar,
    ball_volume_coeff,
    crofton_variation_coeffs,
    form_norm_coeff,
    sphere_volume_coeff,
)

__all__ = [
    "MCEstimate",
    "Calibration",
    "TotalGaussResult",
    "chi_measure_estimate",
    "calibrate",
    "kappa",
    "total_gauss_estimate",
    "grassmann_sigma_average",
    "cor44_density_combination",
    "thread_count",
]

SAMPLE_CHUNK = 1 << 13  # planes per chunk: one RNG stream, one thread-pool task
WINDOW_MARGIN = 1.01


def thread_count() -> int:
    """Worker cap from CROFTONLAB_THREADS (default 1; results never depend on it)."""
    raw = os.environ.get("CROFTONLAB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CROFTONLAB_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(ss))


_pool: Optional[Tuple[int, ThreadPoolExecutor]] = None  # (workers, the plane pool)
_pool_lock = threading.Lock()


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The one plane pool, created on first use and replaced when the worker
    count changes.  Call with _pool_lock held."""
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = workers, ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix="croftonlab-planes")
    return _pool[1]


def _chunk_sums(
    N: int, seed: int, work: Callable[[np.random.Generator, int, geom.Workspace], Tuple]
) -> Tuple:
    """Column sums of work(rng, m, ws) over the chunks of N samples, in chunk order.

    ws is the workspace of the thread that runs the chunk: it lives for this
    call, so its buffers serve chunk after chunk and are freed on return."""
    if N < 1:
        raise ValueError(f"need at least one sample, got N={N}")
    full, rest = divmod(N, SAMPLE_CHUNK)
    sizes = [SAMPLE_CHUNK] * full + ([rest] if rest else [])
    workspaces: Dict[int, geom.Workspace] = {}

    def run(ci: int) -> Tuple:
        ws = workspaces.setdefault(threading.get_ident(), geom.Workspace())
        return work(_chunk_rng(seed, ci), sizes[ci], ws)

    workers = thread_count()
    if workers <= 1 or len(sizes) <= 1:
        parts = [run(ci) for ci in range(len(sizes))]
    else:
        with _pool_lock:
            results = _worker_pool(workers).map(run, range(len(sizes)))
        parts = list(results)
    return tuple(sum(column) for column in zip(*parts))


@dataclass
class MCEstimate:
    """Monte Carlo mean with its standard error (sample sd / sqrt(samples))."""

    mean: float
    stderr: float
    samples: int
    seed: int

    def z_score(self, prediction: float, extra_stderr: float = 0.0) -> float:
        s = sqrt(self.stderr**2 + extra_stderr**2)
        return (self.mean - prediction) / s if s > 0 else float("inf")

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
        }


def _binomial_estimate(hits: int, N: int, seed: int, weight: float) -> MCEstimate:
    """weight times the hit fraction, with the binomial standard error."""
    p = hits / N
    sd = sqrt(p * (1 - p) * N / max(1, N - 1))
    return MCEstimate(mean=weight * p, stderr=weight * sd / sqrt(N), samples=N, seed=seed)


def _moments_estimate(
    sv: float, sv2: float, N: int, seed: int, shift: float = 0.0
) -> MCEstimate:
    """The sample mean of values v, from sv = sum(v - shift) and
    sv2 = sum((v - shift)^2).

    A shift near the mean keeps sv2 - sv^2/N from cancelling: for values that
    are constant up to roundoff the standard error stays at roundoff, not at
    sqrt(eps) times the mean."""
    var = max(0.0, (sv2 - sv * sv / N) / max(1, N - 1))
    return MCEstimate(mean=shift + sv / N, stderr=sqrt(var / N), samples=N, seed=seed)


@dataclass
class Calibration:
    """kappa as `calibrate` measures it, with its standard error."""

    n: int
    r: int
    eps: float
    kappa: float
    stderr: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _normal_block(rng: np.random.Generator, out: np.ndarray, ws: geom.Workspace) -> np.ndarray:
    """Fill the batch-last out (..., m) with the stream's next (m, ...) block of
    standard normals, drawn into the workspace's real staging buffer."""
    stage = rng.standard_normal(out=ws.take("stage", out.shape[-1:] + out.shape[:-1]))
    out[...] = stage.transpose(*range(1, stage.ndim), 0)
    return out


def _frame_draws(rng: np.random.Generator, m: int, rows: int, cols: int,
                 ws: Optional[geom.Workspace] = None) -> np.ndarray:
    """A chunk's frame draws, batch-last: re + i im (rows, cols, m), from the
    real, then the imaginary (m, rows, cols) Gaussian block of the stream."""
    ws = ws or geom.Workspace()
    A = ws.take("frames", (rows, cols, m), complex)
    _normal_block(rng, A.real, ws)
    _normal_block(rng, A.imag, ws)
    return A


def _frames(A: np.ndarray) -> np.ndarray:
    """Haar-random complex frames of a chunk's draws A (rows, cols, m), cols <= rows:
    Q of the QR of A, formed in place over A.

    LAPACK's conventions (zgeqr2/zung2r): the reflector of column i sends
    (alpha, x) to beta e_i with beta = -sign(Re alpha) |(alpha, x)|, so R's
    diagonal is real and Q is the Q factor LAPACK's zgeqrf/zungqr return.
    """
    cols = A.shape[1]
    # reflector i is kept in column i: v below the diagonal, tau on it
    for i in range(cols):
        alpha = A[i, i]
        beta = -np.copysign(np.sqrt(geom._sq_norm(A[i:, i])), alpha.real)
        v = A[i + 1 :, i]
        v /= alpha - beta
        tau = (beta - alpha) / beta
        _reflect(A[i:, i + 1 :], v, tau.conj())  # H^H from the left
        A[i, i] = tau
    # Q = H_0 ... H_{cols-1} applied to the first cols columns of I, last
    # reflector first: step i reads only columns > i and then writes column i
    for i in reversed(range(cols)):
        v, tau = A[i + 1 :, i], A[i, i]
        _reflect(A[i:, i + 1 :], v, tau)
        np.multiply(-tau, v, out=v)
        A[i, i] = 1.0 - tau
        A[:i, i] = 0.0
    return A


def _reflect(B: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
    """B <- (I - t u u^H) B in place, u = (1, v), for a batch-last block B."""
    if B.shape[1]:
        w = t * (B[0] + (v.conj()[:, None] * B[1:]).sum(axis=0))
        B[0] -= w
        B[1:] -= v[:, None] * w


def _uniform_ball(g: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Points uniform in the radius ball of R^dim from batch-last normals g
    (dim, k) and uniforms u (k): (dim, k), formed in place over g; u is
    overwritten."""
    u **= 1.0 / len(g)
    u *= radius
    u /= np.sqrt((g * g).sum(axis=0))
    g *= u
    return g


def _flat_window(shape, r: int) -> Tuple[float, float]:
    """(rho, omega_{2(n-r)} rho^{2(n-r)}): anchor window radius and volume."""
    rho = shape.circum_radius * WINDOW_MARGIN
    return rho, ball_volume_coeff(2 * (shape.n - r)).to_float() * rho ** (2 * (shape.n - r))


def kappa(n: int, r: int, eps: float) -> PiScalar:
    """kappa = sampled plane measure / `crofton_rhs`, exactly (eps = 0 or 1, 1 <= r < n).

    eps = 0: (n-1)!/((n-r-1)! pi^r) under `_flat_window`'s measure, Lebesgue anchors in
    the complement times Haar directions, by which the planes meeting B(R) have measure
    omega_{2(n-r)} R^{2(n-r)}; eps = 1: n!(n-1)!/(r!(n-r-1)! pi^n), Haar planes in CP^n."""
    if eps not in (0, 1) or not 0 < r < n:
        raise ValueError(f"kappa needs eps = 0 or 1 and 1 <= r < n, got eps={eps}, r={r}, n={n}")
    c = perm(n - 1, r)
    return PiScalar(c, -r) if eps == 0 else PiScalar(c * perm(n, n - r), -n)


def _flat_draws(rng: np.random.Generator, m: int, n: int, r: int,
                ws: Optional[geom.Workspace] = None) -> Tuple[np.ndarray, ...]:
    """A chunk's flat-plane draws, batch-last, in stream order: the frame draws
    (n, n, m) of `_frame_draws`, the anchor normals (2(n-r), m) from an
    (m, 2(n-r)) block and the anchor radii's uniforms (m)."""
    ws = ws or geom.Workspace()
    A = _frame_draws(rng, m, n, n, ws)
    g = _normal_block(rng, ws.take("normals", (2 * (n - r), m)), ws)
    u = rng.random(out=ws.take("uniforms", (m,)))
    return A, g, u


def _flat_planes(draws: Tuple[np.ndarray, ...], r: int, rho: float,
                 ws: Optional[geom.Workspace] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Flat planes of a chunk's draws, batch-last and complex: (V (n, r, k), anchor (n, k)).

    The anchor is Q[:, r:] (b_0 + i b_1, b_2 + i b_3, ...) for b uniform in the
    radius-rho ball of R^{2(n-r)}: uniform in that ball of span_C(Q[:, r:]).
    The draws are overwritten: Q over the frame draws, b over the normals."""
    ws = ws or geom.Workspace()
    A, g, u = draws
    n = len(A)
    Q = _frames(A)
    b = _uniform_ball(g, u, rho)
    coords = ws.take("anchor coordinates", (n - r, b.shape[1]), complex)
    coords.real, coords.imag = b[0::2], b[1::2]
    anchors = ws.take("anchors", (n, b.shape[1]), complex)
    np.multiply(Q[:, r], coords[0], out=anchors)
    for j in range(1, n - r):
        anchors += Q[:, r + j] * coords[j]
    return Q[:, :r], anchors


# ---------------------------------------------------------------------------
# Hit predicates (chi of a convex intersection)
# ---------------------------------------------------------------------------


def _hits_projective(ball: geom.GeodesicBall, W: np.ndarray) -> np.ndarray:
    # distance from the center [e_0] to the plane P(W): arccos |P_W e_0|, whose
    # coordinates in W's orthonormal columns are conj(W[0, j])
    nrm = np.minimum(np.sqrt(geom._sq_norm(W[0])), 1.0)
    return np.arccos(nrm) <= ball.R * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _hit_count(shape, r: int, N: int, seed: int) -> Tuple[int, float]:
    """(hits, weight): how many of N sampled planes meet shape, and the measure
    that one hit stands for (the flat window volume, or 1 for CP^n)."""
    n = shape.n
    if shape.eps == 0:
        rho, weight = _flat_window(shape, r)

        def work(rng: np.random.Generator, m: int, ws: geom.Workspace) -> Tuple[int]:
            V, anchors = _flat_planes(_flat_draws(rng, m, n, r, ws), r, rho, ws)
            return (int(np.count_nonzero(shape.meets(V, anchors, ws))),)

    elif shape.eps == 1:
        weight = 1.0

        def work(rng: np.random.Generator, m: int, ws: geom.Workspace) -> Tuple[int]:
            W = _frames(_frame_draws(rng, m, n + 1, r + 1, ws))
            return (int(np.count_nonzero(_hits_projective(shape, W))),)

    elif shape.eps < 0:
        raise NotImplementedError(
            "eps < 0 plane sampling is out of scope (noncompact isometry group)"
        )
    else:
        raise ValueError(
            "plane sampling models curvature eps = 0 (flat) or eps = 1 (projective), "
            f"got eps = {shape.eps}"
        )
    (hits,) = _chunk_sums(N, seed, work)
    return hits, weight


def chi_measure_estimate(shape, r: int, N: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the (kappa-relative) measure of planes meeting shape."""
    hits, weight = _hit_count(shape, r, N, seed)
    return _binomial_estimate(hits, N, seed, weight)


def calibrate(
    n: int,
    r: int,
    eps: float,
    reference_shape,
    N: int,
    seed: int,
    table: Optional[valuations.ValuationTable] = None,
    level: int = 1,
) -> Calibration:
    """Measure kappa = sampled plane measure / formula bracket on a reference
    shape: the Monte Carlo reference of the closed-form `kappa`, kept for its
    test and the benchmark."""
    if (n, eps) != (reference_shape.n, reference_shape.eps):
        raise ValueError(f"(n, eps) = ({n}, {eps}) differs from the reference shape's "
                         f"({reference_shape.n}, {reference_shape.eps})")
    if table is None:
        table = valuations.shape_table(reference_shape, level)
    rhs = valuations.crofton_rhs(table, r)
    if abs(rhs) < 1e-12:
        raise ValueError("reference bracket is degenerate; cannot calibrate")
    est = chi_measure_estimate(reference_shape, r, N, seed)
    return Calibration(
        n=n,
        r=r,
        eps=eps,
        kappa=est.mean / rhs,
        stderr=est.stderr / abs(rhs),
        samples=N,
        seed=seed,
    )


@dataclass
class TotalGaussResult:
    """Plane-averaged total Gauss curvature of sections, with its chi companion."""

    total: MCEstimate
    chi: MCEstimate


def total_gauss_estimate(shape, r: int, N: int, seed: int) -> TotalGaussResult:
    """Plane average of the total Gauss curvature of flat sections (eps = 0).

    Each hit section is a convex body in a real 2r-space whose boundary Gauss
    map has degree one, so its total Gauss curvature is O_{2r-1}: the total is
    the binomial estimate of the hits at O_{2r-1} times the window weight, and
    chi is that of the same hits at the window weight, equal to
    `chi_measure_estimate`.
    """
    if shape.eps != 0:
        raise ValueError(f"total Gauss curvature of sections needs flat planes (eps = 0), "
                         f"got eps = {shape.eps}")
    hits, weight = _hit_count(shape, r, N, seed)
    o = sphere_volume_coeff(2 * r - 1).to_float()
    return TotalGaussResult(
        total=_binomial_estimate(hits, N, seed, o * weight),
        chi=_binomial_estimate(hits, N, seed, weight),
    )


# ---------------------------------------------------------------------------
# Pointwise Grassmann average of the restricted curvature form
# ---------------------------------------------------------------------------


def _det(S: np.ndarray) -> np.ndarray:
    """Determinants of batch-last (k, k, m) matrices, overwriting S: an
    elementwise LU with partial pivoting, no LAPACK.

    Column j brings, matrix by matrix, the first entry of largest |value| at
    or below the diagonal into row j by row swaps (each flips the sign),
    multiplies that pivot into the determinant and eliminates the entries
    below it.  A zero pivot means that column is zero at and below the
    diagonal: the determinant is then an exact 0 and the multipliers are 0,
    with no division by zero."""
    k, _, m = S.shape
    det = np.ones(m)
    for j in range(k - 1):
        for i in range(j + 1, k):
            swap = np.abs(S[i, j]) > np.abs(S[j, j])
            upper, lower = S[j, j:], S[i, j:]
            S[j, j:], S[i, j:] = np.where(swap, lower, upper), np.where(swap, upper, lower)
            det *= 1.0 - 2.0 * swap
        pivot = S[j, j]
        det *= pivot
        factors = S[j + 1 :, j] / np.where(pivot != 0, pivot, 1.0)
        S[j + 1 :, j + 1 :] -= factors[:, None] * S[j, j + 1 :]
    det *= S[k - 1, k - 1]
    return det


def grassmann_sigma_average(
    h: np.ndarray, r: int, N: int, seed: int
) -> MCEstimate:
    """Haar average of sigma_{2r}(II restricted to a complex r-subspace of D).

    h is the full (2n-1) x (2n-1) second fundamental form in the adapted frame;
    subspaces are drawn in the distribution block (slots 1..2n-2).
    """
    h = np.asarray(h, dtype=float)
    n = (h.shape[0] + 1) // 2
    hD = h[1:, 1:]
    # moments about the value on the first coordinate r-plane
    shift = float(_det(hD[: 2 * r, : 2 * r, None].copy())[0])

    def work(rng: np.random.Generator, m: int, ws: geom.Workspace) -> Tuple[float, float]:
        V = _frames(_frame_draws(rng, m, n - 1, r, ws))
        X = geom._real_columns(V, out=ws.take("columns", (2 * n - 2, 2 * r, m)))
        S = geom._restricted_form(hD, X, ws=ws)
        vals = _det(S) - shift
        return float(vals.sum()), float((vals**2).sum())

    return _moments_estimate(*_chunk_sums(N, seed, work), N, seed, shift=shift)


def cor44_density_combination(n: int, r: int, h: np.ndarray) -> float:
    """The closed-form value of the Grassmann average, from the density combination.

    Haar expectation of sigma_{2r}(II|_V) equals the weighted sum of the
    degree-(2r) boundary densities; all constants included, no free factor.
    """
    coeffs = crofton_variation_coeffs(n, r)
    keys = [("beta", k, q) for (k, q) in coeffs]
    dens = extalg.densities(extalg.build_pullbacks(h, n), keys)
    total = 0.0
    for ((k, q), c), value in zip(coeffs.items(), dens):
        total += c.to_float() * form_norm_coeff(n, k, q).to_float() * float(value)
    return total
