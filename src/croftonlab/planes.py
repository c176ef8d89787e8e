"""Spaces of complex r-planes: invariant sampling and Monte Carlo measures.

Flat case (eps = 0): a plane is an affine subspace anchor + span(V) with V a
Haar-random complex r-frame (QR of a complex Gaussian matrix) and the anchor
uniform in a radius-rho window of the orthogonal complement.  The invariant
plane measure factors into Lebesgue measure on the complement times the
invariant Grassmannian measure, so

    E[window_volume * 1{plane meets shape}] = (measure of planes meeting shape)

up to one overall normalization constant: the undetermined Grassmannian mass.
That constant is the calibration `kappa`, fixed once per (n, r, eps) on a
reference shape and then reused, so every further comparison is prediction.

Projective case (eps = 1, holomorphic curvature 4): planes are complex
(r+1)-subspaces of C^{n+1}, sampled Haar; the plane space is compact, so the
hit fraction estimates the measure relative to the total mass (again kappa).

The hyperbolic plane space (eps < 0) is not sampled: its isometry group is
noncompact and no canonical finite window exists; those formulas are verified
through closed-form geodesic balls and the mutual consistency checks instead.

RNG discipline: a counter-based Philox generator is split per fixed-size chunk
of sample indices, so estimates depend only on (seed, N), not on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import pi, sqrt
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import extalg, geom, valuations
from .coeffcore import (
    ball_volume_coeff,
    crofton_variation_coeffs,
    form_norm_coeff,
    sphere_volume_coeff,
)

__all__ = [
    "MCEstimate",
    "Calibration",
    "ComplexPlane",
    "TotalGaussResult",
    "sample_plane_flat",
    "meets",
    "chi_measure_estimate",
    "calibrate",
    "total_gauss_estimate",
    "grassmann_sigma_average",
    "cor44_density_combination",
    "thread_count",
]

SAMPLE_CHUNK = 1 << 16
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


def _map_chunks(fn: Callable[[int], object], n_chunks: int) -> List[object]:
    workers = thread_count()
    if workers <= 1 or n_chunks <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**63 - 1), spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(ss))


def _chunk_sizes(total: int) -> List[int]:
    if total < 1:
        raise ValueError(f"need at least one sample, got N={total}")
    out = []
    while total > 0:
        out.append(min(SAMPLE_CHUNK, total))
        total -= out[-1]
    return out


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


@dataclass
class Calibration:
    """kappa: the numeric stand-in for the Grassmannian mass convention."""

    n: int
    r: int
    eps: float
    kappa: float
    stderr: float
    samples: int
    seed: int


@dataclass
class ComplexPlane:
    """One complex r-plane.

    eps = 0: V is an n x r complex frame, anchor a real point of V-perp.
    eps = 1: subspace is an (n+1) x (r+1) complex frame of the projective model.
    """

    eps: float
    V: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None
    subspace: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_frames_flat(
    n: int, r: int, rng: np.random.Generator, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(V, W): Haar complex r-frames and their complement (n-r)-frames."""
    Z = _complex_gaussian(rng, (m, n, n))
    Q, _ = np.linalg.qr(Z)
    return Q[:, :, :r], Q[:, :, r:]


def _uniform_ball(rng: np.random.Generator, m: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((m, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.random(m) ** (1.0 / dim)
    return g * (radius * u)[:, None]


def _sample_flat_batch(
    n: int, r: int, rho: float, rng: np.random.Generator, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch of flat planes: (V complex (m,n,r), anchor real (m,2n))."""
    V, W = _haar_frames_flat(n, r, rng, m)
    Wr = geom.realify_complex_columns(W)
    y = _uniform_ball(rng, m, 2 * (n - r), rho)
    anchors = np.einsum("mij,mj->mi", Wr, y)
    return V, anchors


def sample_plane_flat(
    n: int, r: int, window_radius: float, rng: np.random.Generator
) -> Tuple[ComplexPlane, float]:
    """One invariant flat plane sample and its translational measure weight."""
    V, anchors = _sample_flat_batch(n, r, window_radius, rng, 1)
    weight = (
        ball_volume_coeff(2 * (n - r)).to_float() * window_radius ** (2 * (n - r))
    )
    return ComplexPlane(eps=0.0, V=V[0], anchor=anchors[0]), weight


def _sample_projective_batch(
    n: int, r: int, rng: np.random.Generator, m: int
) -> np.ndarray:
    """Haar-random complex r-planes of the projective model: (m, n+1, r+1) frames."""
    Z = _complex_gaussian(rng, (m, n + 1, r + 1))
    Q, _ = np.linalg.qr(Z)
    return Q


# ---------------------------------------------------------------------------
# Hit predicates (chi of a convex intersection)
# ---------------------------------------------------------------------------


def _restricted_quadratic(
    Q: np.ndarray, Vr: np.ndarray, anchors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, b, c0, minval) of s -> quadratic form along the affine plane."""
    QV = np.einsum("ij,mjr->mir", Q, Vr)
    M = np.einsum("mir,mis->mrs", Vr, QV)
    b = np.einsum("mir,mi->mr", QV, anchors)
    c0 = np.einsum("mi,ij,mj->m", anchors, Q, anchors)
    sol = np.linalg.solve(M, b[..., None])[..., 0]
    minval = c0 - np.einsum("mr,mr->m", b, sol)
    return M, b, c0, minval


def _hits_flat(
    shape, V: np.ndarray, anchors: np.ndarray, center: Optional[np.ndarray] = None
) -> np.ndarray:
    if isinstance(shape, geom.GeodesicBall):
        if shape.eps != 0:
            raise ValueError("flat hit test requires eps = 0")
        Vr = geom.realify_complex_columns(V)
        rel = anchors if center is None else anchors - center
        rel = rel - np.einsum("mir,mjr,mj->mi", Vr, Vr, rel)
        return np.linalg.norm(rel, axis=1) <= shape.R * (1 + 1e-12)
    Vr = geom.realify_complex_columns(V)
    rel = anchors if center is None else anchors - center
    _, _, _, minval = _restricted_quadratic(shape.quadric, Vr, rel)
    return minval <= 1.0 + 1e-12


def _hits_projective(ball: geom.GeodesicBall, W: np.ndarray, center: np.ndarray) -> np.ndarray:
    # distance point-to-plane in the projective model: arccos |P_W p|
    proj = np.einsum("mkr,k->mr", W.conj(), center)
    nrm = np.minimum(np.linalg.norm(proj, axis=1), 1.0)
    return np.arccos(nrm) <= ball.R * (1 + 1e-12)


def _projective_center(n: int) -> np.ndarray:
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    return c


def meets(shape, plane: ComplexPlane) -> bool:
    """chi(shape intersect plane) for a convex shape: True iff nonempty."""
    if plane.eps == 0:
        return bool(_hits_flat(shape, plane.V[None], plane.anchor[None])[0])
    if plane.eps == 1:
        if not isinstance(shape, geom.GeodesicBall) or shape.eps != 1:
            raise ValueError("projective planes pair with eps = 1 geodesic balls")
        return bool(
            _hits_projective(shape, plane.subspace[None], _projective_center(shape.n))[0]
        )
    raise ValueError("plane measure sampling supports eps in {0, 1} only")


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def window_radius(shape) -> float:
    return shape.circum_radius * WINDOW_MARGIN


def chi_measure_estimate(shape, r: int, N: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the (kappa-relative) measure of planes meeting shape."""
    n = shape.n
    eps = shape.eps if isinstance(shape, geom.GeodesicBall) else 0.0
    if eps == 0:
        rho = window_radius(shape)
        weight = ball_volume_coeff(2 * (n - r)).to_float() * rho ** (2 * (n - r))

        def work(ci: int) -> int:
            m = sizes[ci]
            rng = _chunk_rng(seed, ci)
            V, anchors = _sample_flat_batch(n, r, rho, rng, m)
            return int(np.count_nonzero(_hits_flat(shape, V, anchors)))

    elif eps == 1:
        weight = 1.0
        center = _projective_center(n)

        def work(ci: int) -> int:
            m = sizes[ci]
            rng = _chunk_rng(seed, ci)
            W = _sample_projective_batch(n, r, rng, m)
            return int(np.count_nonzero(_hits_projective(shape, W, center)))

    else:
        raise NotImplementedError(
            "eps < 0 plane sampling is out of scope (noncompact isometry group)"
        )
    sizes = _chunk_sizes(N)
    hits = sum(_map_chunks(work, len(sizes)))  # type: ignore[arg-type]
    p = hits / N
    sd = sqrt(p * (1 - p) * N / max(1, N - 1))
    return MCEstimate(mean=weight * p, stderr=weight * sd / sqrt(N), samples=N, seed=seed)


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
    """Fix kappa = measured plane measure / formula bracket on a reference shape."""
    if table is None:
        if isinstance(reference_shape, geom.GeodesicBall):
            table = valuations.ball_closed_form(eps, n, reference_shape.R)
        else:
            table = valuations.hermitian_volumes(reference_shape, level)
    rhs = valuations.crofton_rhs(table, n, r, eps)
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
    per_hit_mean: float


def _ellipse_total_curvature(alpha: np.ndarray, beta: np.ndarray, nodes: int) -> np.ndarray:
    """Integral of curvature ds over the ellipse with semiaxes (alpha, beta).

    Uniform-angle rule on the smooth periodic integrand a b / (a^2 sin^2 + b^2 cos^2);
    spectrally accurate since slice eccentricity is bounded by the shape's.
    """
    t = (np.arange(nodes) + 0.5) * (2 * pi / nodes)
    s2 = np.sin(t) ** 2
    c2 = np.cos(t) ** 2
    integ = (alpha * beta)[:, None] / (
        (alpha**2)[:, None] * s2[None, :] + (beta**2)[:, None] * c2[None, :]
    )
    return integ.sum(axis=1) * (2 * pi / nodes)


def total_gauss_estimate(
    ellipsoid: geom.Ellipsoid,
    r: int,
    N: int,
    seed: int,
    nodes: int = 256,
) -> TotalGaussResult:
    """Plane average of the total Gauss curvature of ellipsoid sections (eps = 0).

    Each hit section is a convex body in a real 2r-space whose boundary Gauss
    map has degree one, so its total Gauss curvature is O_{2r-1}.  For r >= 2
    every hit contributes exactly that constant.  For r = 1 the section is an
    ellipse and its curvature integral is computed by a vectorized
    uniform-angle rule on `nodes` points, which stays as the independent
    check of the constant (2 pi).  Values are averaged with the translational
    window weight.
    """
    if not isinstance(ellipsoid, geom.Ellipsoid):
        raise ValueError("total Gauss estimate requires an ellipsoid")
    n = ellipsoid.n
    rho = window_radius(ellipsoid)
    weight = ball_volume_coeff(2 * (n - r)).to_float() * rho ** (2 * (n - r))
    sizes = _chunk_sizes(N)

    def work(ci: int) -> Tuple[int, float, float]:
        m = sizes[ci]
        rng = _chunk_rng(seed, ci)
        V, anchors = _sample_flat_batch(n, r, rho, rng, m)
        Vr = geom.realify_complex_columns(V)
        M, _, _, minval = _restricted_quadratic(ellipsoid.quadric, Vr, anchors)
        hit = minval <= 1.0 + 1e-12
        if r > 1 or not np.any(hit):
            return int(hit.sum()), 0.0, 0.0
        evals = np.linalg.eigvalsh(M[hit])
        semiaxes = np.sqrt((1.0 - minval[hit])[:, None] / evals)
        vals = _ellipse_total_curvature(semiaxes[:, 1], semiaxes[:, 0], nodes)
        return int(hit.sum()), float(vals.sum()), float((vals**2).sum())

    parts = _map_chunks(work, len(sizes))
    hits = sum(p[0] for p in parts)  # type: ignore[index]
    if r == 1:
        sv = sum(p[1] for p in parts)  # type: ignore[index]
        sv2 = sum(p[2] for p in parts)  # type: ignore[index]
        per_hit = sv / hits if hits else float("nan")
    else:
        o = sphere_volume_coeff(2 * r - 1).to_float()
        sv, sv2 = o * hits, o * o * hits
        per_hit = o if hits else float("nan")
    mean_v = sv / N
    var_v = max(0.0, (sv2 - sv * sv / N) / max(1, N - 1))
    total = MCEstimate(
        mean=weight * mean_v,
        stderr=weight * sqrt(var_v / N),
        samples=N,
        seed=seed,
    )
    p = hits / N
    chi = MCEstimate(
        mean=weight * p,
        stderr=weight * sqrt(p * (1 - p) / max(1, N - 1)),
        samples=N,
        seed=seed,
    )
    return TotalGaussResult(total=total, chi=chi, per_hit_mean=per_hit)


# ---------------------------------------------------------------------------
# Pointwise Grassmann average of the restricted curvature form
# ---------------------------------------------------------------------------


def grassmann_sigma_average(
    h: np.ndarray, r: int, N: int, seed: int
) -> MCEstimate:
    """Haar average of sigma_{2r}(II restricted to a complex r-subspace of D).

    h is the full (2n-1) x (2n-1) second fundamental form in the adapted frame;
    subspaces are drawn in the distribution block (slots 1..2n-2).
    """
    h = np.asarray(h, dtype=float)
    d = h.shape[0]
    n = (d + 1) // 2
    hD = h[1:, 1:]
    sizes = _chunk_sizes(N)

    def work(ci: int) -> Tuple[float, float]:
        m = sizes[ci]
        rng = _chunk_rng(seed, ci)
        Z = _complex_gaussian(rng, (m, n - 1, r))
        Qc, _ = np.linalg.qr(Z)
        Vr = geom.realify_complex_columns(Qc)
        restricted = np.einsum("mir,ij,mjs->mrs", Vr, hD, Vr)
        vals = np.linalg.det(restricted)
        return float(vals.sum()), float((vals**2).sum())

    parts = _map_chunks(work, len(sizes))
    sv = sum(p[0] for p in parts)  # type: ignore[index]
    sv2 = sum(p[1] for p in parts)  # type: ignore[index]
    mean = sv / N
    var = max(0.0, (sv2 - sv * sv / N) / max(1, N - 1))
    return MCEstimate(mean=mean, stderr=sqrt(var / N), samples=N, seed=seed)


def cor44_density_combination(n: int, r: int, h: np.ndarray) -> float:
    """The closed-form value of the Grassmann average, from the density combination.

    Haar expectation of sigma_{2r}(II|_V) equals the weighted sum of the
    degree-(2r) boundary densities; all constants included, no free factor.
    """
    coeffs = crofton_variation_coeffs(n, r)
    total = 0.0
    for (k, q), c in coeffs.items():
        total += (
            c.to_float()
            * form_norm_coeff(n, k, q).to_float()
            * float(extalg.density_beta(n, k, q, h))
        )
    return total
