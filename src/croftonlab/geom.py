"""Concrete domains and their boundary geometry.

Two families of test domains:

  * ellipsoids in C^n (flat case only), with per-real-coordinate semiaxes or a
    general positive quadratic form, sampled through the unit sphere with a
    Gauss-Jacobi product rule in hyperspherical angles;
  * geodesic balls in the space form of holomorphic curvature 4*eps, whose
    boundary has constant principal curvatures: one value in the Hopf
    direction JN and one on the complex distribution.

Every sampled boundary point carries the adapted frame (JN, e_2, Je_2, ...),
the second fundamental form in that frame (inner-normal convention: the unit
sphere gets II = Id, so convex bodies have positive curvatures), and a
quadrature weight.  A numeric Jacobi-field integrator serves as the
independent oracle for the geodesic-sphere curvatures.

The sign flips z_j -> -z_j of single complex coordinates form the holomorphic
isometry group (+-1)^n, and the product rule maps onto itself under it.  When
the quadric commutes with every flip (all off-pair 2x2 blocks vanish, as for
axis-aligned ellipsoids) the sampled boundary is invariant too, and
`sample_boundary(..., fold_signs=True)` keeps one node per orbit, the one with
every x_j > 0, at 2^n times its weight.  That is exact only for integrands that
are invariant under the flips, such as the U(n)-invariant curvature densities;
a weight like <X, N> for a general flow X is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, cosh, pi, sin, sinh, sqrt
from typing import Iterator, List, Tuple, Union

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import roots_jacobi

from .coeffcore import ball_volume_coeff, sphere_volume_coeff

__all__ = [
    "Ellipsoid",
    "GeodesicBall",
    "Shape",
    "BoundaryCloud",
    "ConjugatePointError",
    "apply_complex_structure",
    "realify_complex_columns",
    "sphere_grid",
    "sample_boundary",
    "geodesic_sphere_curvatures",
    "jacobi_oracle",
    "jacobi_value",
    "sphere_area_and_ball_volume",
]


class ConjugatePointError(RuntimeError):
    """Jacobi field vanished before the requested radius."""


# ---------------------------------------------------------------------------
# Complex structure on R^{2n} with coordinates (x_1, y_1, ..., x_n, y_n)
# ---------------------------------------------------------------------------


def apply_complex_structure(v: np.ndarray) -> np.ndarray:
    """J v, with J(x, y) = (-y, x) on each complex coordinate pair."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def realify_complex_columns(Vc: np.ndarray) -> np.ndarray:
    """Realify complex column vectors: (..., n, r) complex -> (..., 2n, 2r) real.

    Column j maps to the pair (v_j, J v_j); complex-orthonormal columns give
    real-orthonormal output.
    """
    shp = Vc.shape
    n, r = shp[-2], shp[-1]
    out = np.zeros(shp[:-2] + (2 * n, 2 * r))
    out[..., 0::2, 0::2] = Vc.real
    out[..., 1::2, 0::2] = Vc.imag
    out[..., 0::2, 1::2] = -Vc.imag
    out[..., 1::2, 1::2] = Vc.real
    return out


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


class Ellipsoid:
    """Solid ellipsoid {x : x^T Q x <= 1} in C^n = R^{2n} (flat case).

    Constructed either from 2n semiaxes (one per real coordinate, so
    non-J-invariant shapes are allowed) or from a general symmetric positive
    definite quadratic form, which linear flows produce.
    """

    def __init__(self, quadric: np.ndarray):
        Q = np.asarray(quadric, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] % 2 != 0:
            raise ValueError("quadric must be a (2n, 2n) matrix")
        if np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
            raise ValueError("quadric must be symmetric")
        evals = np.linalg.eigvalsh(Q)
        if evals[0] <= 0:
            raise ValueError("quadric must be positive definite")
        self.quadric = (Q + Q.T) / 2
        self.n = Q.shape[0] // 2

    @classmethod
    def from_axes(cls, axes) -> "Ellipsoid":
        a = np.asarray(axes, dtype=float)
        if a.ndim != 1 or len(a) % 2 != 0:
            raise ValueError("need 2n semiaxes")
        if np.any(a <= 0):
            raise ValueError("semiaxes must be positive")
        return cls(np.diag(1.0 / a**2))

    @property
    def eps(self) -> float:
        return 0.0

    @property
    def circum_radius(self) -> float:
        return 1.0 / sqrt(np.linalg.eigvalsh(self.quadric)[0])

    @property
    def volume(self) -> float:
        n2 = 2 * self.n
        return ball_volume_coeff(n2).to_float() / sqrt(np.linalg.det(self.quadric))

    def transformed(self, M: np.ndarray) -> "Ellipsoid":
        """Image under x -> M x (exact shape transport for linear flows)."""
        Minv = np.linalg.inv(np.asarray(M, dtype=float))
        return Ellipsoid(Minv.T @ self.quadric @ Minv)

    def __repr__(self) -> str:
        return f"Ellipsoid(n={self.n})"


@dataclass(frozen=True)
class GeodesicBall:
    """Geodesic ball of radius R in the space form of holomorphic curvature 4*eps."""

    n: int
    eps: float
    R: float

    def __post_init__(self) -> None:
        if self.R <= 0:
            raise ValueError("radius must be positive")
        if self.eps > 0 and self.R >= pi / (2 * sqrt(self.eps)):
            raise ValueError("radius beyond the injectivity bound pi/(2 sqrt(eps))")

    @property
    def circum_radius(self) -> float:
        return self.R

    @property
    def volume(self) -> float:
        return sphere_area_and_ball_volume(self.eps, self.n, self.R)[1]


Shape = Union[Ellipsoid, GeodesicBall]


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------


class BoundaryCloud:
    """Struct-of-arrays boundary sample: position, outward normal, frame, II, weight.

    Each frame's rows are (JN, e_2, Je_2, ..., e_n, Je_n); h is the second
    fundamental form in that frame with the inner-normal sign convention.  For
    geodesic balls at eps != 0 the position is a geodesic polar marker, not an
    embedding.
    """

    def __init__(self, n, positions, normals, frames, h, weights):
        self.n = n
        self.positions = positions
        self.normals = normals
        self.frames = frames
        self.h = h
        self.weights = weights

    def __len__(self) -> int:
        return len(self.weights)

    def chunks(self, size: int) -> Iterator["BoundaryCloud"]:
        for lo in range(0, len(self), size):
            hi = min(lo + size, len(self))
            yield BoundaryCloud(
                self.n,
                self.positions[lo:hi],
                self.normals[lo:hi],
                self.frames[lo:hi],
                self.h[lo:hi],
                self.weights[lo:hi],
            )


BASE_POLAR_NODES = 8
BASE_AZIMUTH_NODES = 16


@lru_cache(maxsize=32)
def sphere_grid(d: int, level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product quadrature on the unit sphere S^{d-1}.

    Hyperspherical angles; each polar angle integrated by Gauss-Jacobi in
    z = cos(theta) with the exact weight (1 - z^2)^{(d-2-i)/2}, the azimuth by
    a uniform (trapezoidal) rule.  Level L scales every node count by 2^L.
    Returns (points (m, d), weights (m,)); weights sum to the sphere volume.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    n_polar = BASE_POLAR_NODES * 2**level
    n_az = BASE_AZIMUTH_NODES * 2**level

    axes_nodes: List[np.ndarray] = []
    axes_weights: List[np.ndarray] = []
    for i in range(1, d - 1):
        alpha = (d - 2 - i) / 2.0
        z, w = roots_jacobi(n_polar, alpha, alpha)
        axes_nodes.append(z)
        axes_weights.append(w)
    phi = (np.arange(n_az) + 0.5) * (2 * pi / n_az)
    axes_nodes.append(phi)
    axes_weights.append(np.full(n_az, 2 * pi / n_az))

    grids = np.meshgrid(*axes_nodes, indexing="ij")
    wgrids = np.meshgrid(*axes_weights, indexing="ij")
    m = grids[0].size
    pts = np.empty((m, d))
    radial = np.ones(m)
    weights = np.ones(m)
    for i in range(d - 2):
        z = grids[i].reshape(-1)
        pts[:, i] = radial * z
        radial = radial * np.sqrt(np.maximum(1.0 - z * z, 0.0))
        weights *= wgrids[i].reshape(-1)
    phi = grids[d - 2].reshape(-1)
    pts[:, d - 2] = radial * np.cos(phi)
    pts[:, d - 1] = radial * np.sin(phi)
    weights *= wgrids[d - 2].reshape(-1)
    pts.setflags(write=False)
    weights.setflags(write=False)
    return pts, weights


FRAME_DEGENERACY_TOL = 1e-8


def _adapted_frames(normals: np.ndarray) -> np.ndarray:
    """Frames (JN, e_2, Je_2, ..., e_n, Je_n) for a batch of unit normals.

    The distribution basis comes from complex Gram-Schmidt of the standard
    complex coordinate directions projected off the complex span of N, taking
    candidates in coordinate order and skipping degenerate projections.
    """
    m, d2 = normals.shape
    n = d2 // 2
    frames = np.zeros((m, 2 * n - 1, d2))
    JN = apply_complex_structure(normals)
    frames[:, 0] = JN

    def _project_off(v, w):
        # subtract the complex projection of v onto the complex unit vector w
        Jw = apply_complex_structure(w)
        return (
            v
            - np.einsum("mi,mi->m", v, w)[:, None] * w
            - np.einsum("mi,mi->m", v, Jw)[:, None] * Jw
        )

    for slot in range(n - 1):
        remaining = np.ones(m, dtype=bool)
        for cand in range(n):
            if not remaining.any():
                break
            v = np.zeros((m, d2))
            v[:, 2 * cand] = 1.0
            v = _project_off(v, normals)
            for t in range(slot):
                v = _project_off(v, frames[:, 1 + 2 * t])
            norms = np.linalg.norm(v, axis=1)
            ok = remaining & (norms >= FRAME_DEGENERACY_TOL)
            if ok.any():
                e = v[ok] / norms[ok, None]
                frames[ok, 1 + 2 * slot] = e
                frames[ok, 2 + 2 * slot] = apply_complex_structure(e)
                remaining[ok] = False
        if remaining.any():
            raise RuntimeError("frame construction failed: degenerate projections")
    return frames


def _commutes_with_sign_flips(Q: np.ndarray) -> bool:
    """True if every off-pair block Q[2i:2i+2, 2j:2j+2] (i != j) is exactly zero."""
    n = Q.shape[0] // 2
    blocks = Q.reshape(n, 2, n, 2).swapaxes(1, 2)
    return not np.any(blocks[~np.eye(n, dtype=bool)])


def sample_boundary(shape: Shape, level: int = 0, fold_signs: bool = False) -> BoundaryCloud:
    """Boundary quadrature cloud: sum of weight * f(x) converges to the area integral.

    Ellipsoids use the sphere parametrization x = B u (B = Q^{-1/2}) with area
    factor det(B) * |B^{-1} u| and the level-set shape operator; geodesic balls
    use the closed-form constant curvatures as a single point of total weight
    equal to the sphere area.

    `fold_signs=True` folds the rule by the sign group (+-1)^n when the quadric
    commutes with every flip z_j -> -z_j: only nodes with x_j > 0 for all j are
    kept, each weighted 2^n times.  Use it only for integrands that are
    invariant under the flips; other quadrics take the full grid.
    """
    if isinstance(shape, GeodesicBall):
        n = shape.n
        mu_h, lam = geodesic_sphere_curvatures(shape.eps, shape.R)
        area, _ = sphere_area_and_ball_volume(shape.eps, shape.n, shape.R)
        d2 = 2 * n
        pos = np.zeros((1, d2))
        pos[0, 0] = shape.R
        normal = np.zeros((1, d2))
        normal[0, 0] = 1.0
        frames = _adapted_frames(normal)
        h = np.diag([mu_h] + [lam] * (2 * n - 2))[None]
        return BoundaryCloud(n, pos, normal, frames, h, np.array([area]))

    Q = shape.quadric
    n = shape.n
    d2 = 2 * n
    evals, evecs = np.linalg.eigh(Q)
    B = evecs @ np.diag(evals**-0.5) @ evecs.T
    Binv = evecs @ np.diag(evals**0.5) @ evecs.T
    detB = float(np.prod(evals**-0.5))

    u, w = sphere_grid(d2, level)
    if fold_signs and _commutes_with_sign_flips(Q):
        # no grid node has x_j = 0, so exactly one member of each orbit is kept
        keep = np.all(u[:, 0::2] > 0, axis=1)
        if np.count_nonzero(keep) * 2**n != len(w):
            raise RuntimeError("sphere grid is not closed under the sign flips z_j -> -z_j")
        u, w = u[keep], w[keep] * 2**n
    x = u @ B.T
    Qx = x @ Q.T
    gradnorm = np.linalg.norm(Qx, axis=1)
    normals = Qx / gradnorm[:, None]
    area_factor = detB * np.linalg.norm(u @ Binv.T, axis=1)
    weights = w * area_factor

    frames = _adapted_frames(normals)
    QF = np.einsum("ij,maj->mai", Q, frames)
    h = np.einsum("mai,mbi->mab", frames, QF) / gradnorm[:, None, None]
    h = (h + np.swapaxes(h, 1, 2)) / 2
    return BoundaryCloud(n, x, normals, frames, h, weights)


# ---------------------------------------------------------------------------
# Space-form radial geometry
# ---------------------------------------------------------------------------


def jacobi_value(kappa: float, R: float) -> float:
    """Closed-form solution of f'' + kappa f = 0, f(0)=0, f'(0)=1."""
    if kappa == 0:
        return R
    if kappa > 0:
        s = sqrt(kappa)
        return sin(s * R) / s
    s = sqrt(-kappa)
    return sinh(s * R) / s


def geodesic_sphere_curvatures(eps: float, R: float) -> Tuple[float, float]:
    """(mu_H, lambda): principal curvatures of the geodesic sphere of radius R.

    lambda rules the 2n-2 distribution directions (sectional curvature eps),
    mu_H the Hopf direction JN (sectional curvature 4*eps); both are the
    logarithmic derivatives f'/f of the corresponding Jacobi fields, positive
    for small R with the inner-normal convention.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    if eps == 0:
        return 1.0 / R, 1.0 / R
    if eps > 0:
        s = sqrt(eps)
        if R >= pi / (2 * s):
            raise ValueError("radius beyond injectivity bound")
        lam = s * cos(s * R) / sin(s * R)
        mu_h = 2 * s * cos(2 * s * R) / sin(2 * s * R)
        return mu_h, lam
    s = sqrt(-eps)
    lam = s * cosh(s * R) / sinh(s * R)
    mu_h = 2 * s * cosh(2 * s * R) / sinh(2 * s * R)
    return mu_h, lam


def jacobi_oracle(kappa: float, R: float) -> Tuple[float, float]:
    """Numeric Jacobi field: adaptive integration of f'' + kappa f = 0.

    Returns (f(R), f'(R)/f(R)); raises ConjugatePointError if f vanishes on
    (0, R].  Independent of the closed forms above.
    """
    if R <= 0:
        raise ValueError("radius must be positive")

    def rhs(t, y):
        return [y[1], -kappa * y[0]]

    def crossing(t, y):
        # downward zero crossing; the initial upward departure from 0 is ignored
        return y[0]

    crossing.terminal = True
    crossing.direction = -1
    sol = solve_ivp(
        rhs,
        (0.0, R),
        [0.0, 1.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=crossing,
        max_step=R / 8,
    )
    scale = float(np.max(np.abs(sol.y[0])))
    if sol.status == 1 or sol.y[0, -1] <= 1e-10 * scale:
        raise ConjugatePointError(f"Jacobi field vanished on (0, {R}]")
    f, fp = sol.y[0, -1], sol.y[1, -1]
    return f, fp / f


def sphere_area_and_ball_volume(eps: float, n: int, R: float) -> Tuple[float, float]:
    """(area of the geodesic sphere, volume of the geodesic ball) of radius R.

    area(R) = O_{2n-1} f_{4eps}(R) f_eps(R)^{2n-2}; the volume is the adaptive
    radial integral of the area.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    if eps > 0 and R > pi / (2 * sqrt(eps)):
        raise ValueError("radius beyond injectivity bound")
    o = sphere_volume_coeff(2 * n - 1).to_float()

    def area(rho: float) -> float:
        return o * jacobi_value(4 * eps, rho) * jacobi_value(eps, rho) ** (2 * n - 2)

    vol, err = quad(area, 0.0, R, epsabs=1e-13, epsrel=1e-12, limit=200)
    return area(R), vol

