"""Concrete domains and their boundary geometry.

Each domain is a `Shape` that answers what the other layers ask of it, so no
layer outside this module tests a shape's class: its boundary quadrature
cloud, chunk by chunk (`boundary(level, symmetry, size)`), which flat
complex planes meet it (`meets`), its principal curvatures when they are
constant (`curvatures`, else None), and its exact transport by a linear map
(`transformed`).  A kind that cannot answer raises ValueError.  The kinds
are ellipsoids in C^n (flat case only), given by 2n semiaxes or a positive
quadratic form and sampled through the unit sphere by a Gauss-Jacobi
product rule in hyperspherical angles, and geodesic balls in the space form
of holomorphic curvature 4*eps, whose boundary has constant principal
curvatures: one value in the Hopf direction JN and one on the distribution.
A ball answers no `boundary`: its tables are closed forms
(`ball_closed_forms`, which `valuations` wraps).

Every sampled boundary point carries its position, its outward normal N,
the second fundamental form in the adapted frame (JN, e_2, Je_2, ...)
(inner-normal convention: the unit sphere gets II = Id, so convex bodies have
positive curvatures), and a quadrature weight.  The frame itself is freed once
the form exists.  e_2, ..., e_n are columns 2..n of the one complex
Householder reflector that sends e_1 to a unit multiple of N, in closed form
per node.  Another basis of the distribution conjugates h by an element of
U(n-1), which the U(n)-invariant densities do not see.

A geodesic ball's closed forms are written once, as monomials in the Jacobi
fields f = f_eps and g = f_{4 eps} (`jacobi_field`) and their derivatives.
The curvatures are mu_H = g'/g and lambda = f'/f and the sphere area is
O_{2n-1} g f^{2n-2}, so with C = c_{n,k,q} 2^{k-2q-1} (n-1)! O_{2n-1}

    B[k,q]     = C g  f^{k-1} f'^{2n-k-1}
    Gamma[k,q] = C g' f^k     f'^{2n-k-2}
    M[j]       = O_{2n-1} [binom(2n-2, j) g f^{2n-2-j} f'^j
                 + binom(2n-2, j-1) g' f^{2n-1-j} f'^{j-1}] / binom(2n-1, j)
    vol        = omega_{2n} f^{2n}

with every exponent >= 0, so no entry divides by f or g.  The R-derivative
applies f -> f', f' -> -eps f, g -> g', g' -> -4 eps g to the same monomials
(`ball_closed_forms(..., order=1)`).  The description is also the ball's
overflow guard: `GeodesicBall` accepts a radius 0 < R < pi / (2 sqrt(eps))
exactly when its curvatures, its table and its derivative table are finite.

The Gauss-Jacobi rules are computed here with numpy alone: Golub-Welsch
with one Newton step (`_gauss_jacobi`).

Boundary integrals whose integrand is invariant under a group of isometries
that preserves the domain and maps complex planes to complex planes reduce
to one node per orbit.  The groups are generated by three kinds of
isometries: the sign flips z_j -> -z_j, the torus T^n (z_j -> e^{i t_j} z_j)
and the conjugation C: z -> conj(z), the antiholomorphic
diag(1, -1, 1, -1, ...).  They form a lattice, not a chain (SYMMETRIES):

    none < sign < conj         the sign flips and C
           sign < torus        T^n, which holds the sign flips
    conj, torus < torus+conj   both

`symmetry_group` names the largest one a linear map commutes with: a flow
generator a + bJ (b != 0) commutes with the torus but not with C, a
pair-rotated quadric with the sign flips but not with C.
`boundary_chunks(..., symmetry=G)` states that the integrand is G-invariant
and takes the rule of the meet of G and the quadric's group, the isometries
both commute with:

  * torus-orbit: when both are torus-invariant (for the quadric: every
    off-pair 2x2 block zero and every diagonal pair block c I_2 up to
    roundoff, as for ellipsoids with semiaxes in equal pairs and their turns
    inside a pair), the integral reduces to the (n-1)-simplex s_j = |u_j|^2
    of the sphere parameter.  A collapsed Gauss-Jacobi rule there gives
    p^{n-1} nodes u = (sqrt(s_1), 0, ..., sqrt(s_n), 0), p = 8 * 2^L;
  * conj-fold: else, when both commute with the sign flips and C (a
    diagonal matrix, as for every axis-aligned ellipsoid), the product rule
    is built on the part of the sphere where every x_j > 0 and y_n > 0, one
    node per orbit of (+-1)^n x {1, C} at 2^(n+1) times its weight;
  * sign-fold: else, when both commute with the sign flips (every off-pair
    2x2 block zero), the product rule on the x_j > 0 part, one node per
    orbit of (+-1)^n at 2^n times its weight;
  * product: every other quadric or integrand takes the full product rule.

The U(n)-invariant curvature densities are invariant under every such group
("torus+conj"): C maps the adapted frame at x to a frame at Cx in which h is
conjugated by diag(-1, 1, -1, ...), which the densities do not see.  A
weight <X, N> of a linear flow X = A x is invariant under the group that A
commutes with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, cos, cosh, exp, factorial, inf, isfinite, lgamma, log, pi, prod, sin, sinh, sqrt
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .coeffcore import (PiScalar, ball_volume_coeff, beta_indices, form_norm_coeff, gamma_indices,
                        mu_indices, sphere_volume_coeff)

__all__ = [
    "Workspace",
    "MAX_RULE_NODES",
    "RuleTooLarge",
    "Ellipsoid",
    "GeodesicBall",
    "Shape",
    "BoundaryCloud",
    "apply_complex_structure",
    "SYMMETRIES",
    "symmetry_group",
    "sphere_grid",
    "torus_orbit_grid",
    "boundary_chunks",
    "jacobi_field",
    "geodesic_sphere_curvatures",
    "ball_closed_forms",
]


# ---------------------------------------------------------------------------
# Complex structure on R^{2n} with coordinates (x_1, y_1, ..., x_n, y_n)
# ---------------------------------------------------------------------------


def apply_complex_structure(v: np.ndarray) -> np.ndarray:
    """J v, with J(x, y) = (-y, x) on each complex coordinate pair."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the leading axis."""
    return (x.real**2 + x.imag**2).sum(axis=0)


class Workspace:
    """Named scratch arrays that one thread reuses, call after call.

    `take(name, shape, dtype)` returns the first prod(shape) entries of the
    buffer called `name`, shaped: the same memory each time, reallocated only
    when a larger array or another dtype is asked for.  An array taken under
    a name is dead once that name is taken again.  A function that is handed
    no workspace makes a fresh one, so its arrays are fresh too."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype=float) -> np.ndarray:
        size = prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _real_columns(V: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Real orthonormal basis of span_C(V): (n, r, m) complex -> (2n, 2r, m) real.

    Column 2j is v_j in the coordinates (Re z_1, Im z_1, ...) and column
    2j + 1 is J v_j = i v_j, with J as in `apply_complex_structure`: four
    strided copies of V's real and imaginary parts, written into `out` when
    it is given."""
    n, r, m = V.shape
    if out is None:
        out = np.empty((2 * n, 2 * r, m))
    out[0::2, 0::2] = V.real
    out[1::2, 0::2] = V.imag
    np.negative(V.imag, out=out[0::2, 1::2])
    out[1::2, 1::2] = V.real
    return out


def _nonzero_product(A: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- A x for a (d, d) matrix A and batch-last x (d, m), without BLAS.

    A diagonal A is one scaling of x's rows, bitwise equal to A @ x.  Any
    other A sums A[:, j] x[j] over its nonzero columns j in column order (a
    zero entry adds a zero).  Either way the summation order is fixed,
    whatever the BLAS build or its threads."""
    diagonal = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(diagonal):
        return np.multiply(x, diagonal[:, None], out=out)
    first, *rest = np.flatnonzero(A.any(axis=0))
    np.multiply(A[:, first, None], x[first], out=out)
    for j in rest:
        out += A[:, j, None] * x[j]
    return out


def _restricted_form(A: np.ndarray, X: np.ndarray, lower: bool = False,
                     ws: Optional[Workspace] = None) -> np.ndarray:
    """X^T A X (k, k, m) for a symmetric (d, d) A and batch-last real columns X (d, k, m).

    Entry (s, t) sums X[i, s] (A X)[i, t] over i in order, with A X[:, t] from
    `_nonzero_product`, one column at a time: no BLAS inside a chunk.  With
    lower=True (and d >= k) only the lower triangle s >= t is formed, in
    place: column t's entries overwrite X[t:, t] once the column is used, and
    the result is the view X[:k]; otherwise the whole form is a new array."""
    d, k, m = X.shape
    ws = ws or Workspace()
    F = X[:k] if lower else ws.take("form", (k, k, m))
    AX = ws.take("form column", (d, m))
    terms = ws.take("form terms", (d, m))
    entries = ws.take("form entries", (k, m))
    for t in range(k):
        _nonzero_product(A, X[:, t], AX)
        first = t if lower else 0
        for s in range(first, k):
            np.multiply(X[:, s], AX, out=terms)
            terms.sum(axis=0, out=entries[s])
        F[first:, t] = entries[first:]
    return F


def _inverse_form(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b^T M^{-1} b for batch-last symmetric positive definite M (d, d, k) and b (d, k).

    An elementwise Cholesky factor M = L L^T (lower triangle of M) with forward
    substitution y = L^{-1} b, so the value is |y|^2.  Works in place: L
    overwrites the strictly lower triangle of M (the diagonal is only read)
    and y overwrites b.  Raises ValueError if a pivot is not positive and
    finite: such a form has no minimum, and a NaN would silently read as a
    miss."""
    d = len(b)
    L, y = M, b
    for j in range(d):
        pivot = M[j, j] - (L[j, :j] ** 2).sum(axis=0)
        if not np.all((pivot > 0) & (pivot < np.inf)):
            raise ValueError("section form is not positive definite (Cholesky pivot "
                             f"{j} is not positive and finite)")
        diag = np.sqrt(pivot)
        L[j + 1 :, j] = (M[j + 1 :, j] - (L[j + 1 :, :j] * L[j, :j]).sum(axis=1)) / diag
        y[j] = (b[j] - (L[j, :j] * y[:j]).sum(axis=0)) / diag
    return np.square(y, out=y).sum(axis=0)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


class Shape:
    """A domain of dimension n in curvature 4*eps answering for its geometry (see
    the module docstring).  Every kind answers `meets`, whose planes are
    batch-last and complex: V (n, r, m), anchors (n, m).  The defaults below
    are the questions a kind may leave unanswered.  `meets` takes an optional
    `Workspace` for its scratch arrays."""

    curvatures: Optional[Tuple[float, float]] = None

    def transformed(self, M: np.ndarray) -> "Shape":
        raise ValueError(f"{self!r} is not moved by linear flows (ellipsoids only)")

    def boundary(self, level: int, symmetry: str,
                 size: Optional[int]) -> Iterator["BoundaryCloud"]:
        raise ValueError(f"{self!r} has no boundary quadrature (ellipsoids only)")


class Ellipsoid(Shape):
    """Solid ellipsoid {x : x^T Q x <= 1} in C^n = R^{2n} (flat case).

    Constructed either from 2n semiaxes (one per real coordinate, so
    non-J-invariant shapes are allowed) or from a general symmetric positive
    definite quadratic form, which linear flows produce.
    """

    eps = 0.0

    def __init__(self, quadric: np.ndarray):
        Q = np.asarray(quadric, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] % 2 != 0:
            raise ValueError("quadric must be a (2n, 2n) matrix")
        if not np.all(np.isfinite(Q)):
            raise ValueError("quadric entries must be finite")
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
        if a.ndim != 1 or len(a) == 0 or len(a) % 2 != 0:
            raise ValueError("need 2n semiaxes")
        if not np.all(np.isfinite(a)):
            raise ValueError("semiaxes must be finite")
        if np.any(a <= 0):
            raise ValueError("semiaxes must be positive")
        with np.errstate(divide="ignore", over="ignore"):  # __init__ refuses an inf
            quadric = np.diag(1.0 / a**2)
        return cls(quadric)

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

    def boundary(self, level: int, symmetry: str,
                 size: Optional[int]) -> Iterator["BoundaryCloud"]:
        """x = B u on the unit sphere (B = Q^{-1/2}, area factor det(B) |B^{-1} u|)
        with the level-set shape operator, on the rule of the meet of
        `symmetry` and `symmetry_group(Q)`.  The rule is built once; the
        geometry of its nodes u[lo:lo + size] is computed chunk by chunk."""
        Q = self.quadric
        n = self.n
        evals, evecs = np.linalg.eigh(Q)
        B = evecs @ np.diag(evals**-0.5) @ evecs.T
        Binv = evecs @ np.diag(evals**0.5) @ evecs.T
        detB = float(np.prod(evals**-0.5))

        group = _meet(symmetry, symmetry_group(Q))
        if "torus" in SYMMETRIES[group]:
            grid, grid_weights = torus_orbit_grid(n, level)
        else:
            grid, grid_weights = sphere_grid(2 * n, level, fold=group)
        step = size or len(grid)
        for lo in range(0, len(grid), step):
            u, w = grid[lo : lo + step], grid_weights[lo : lo + step]
            x = u @ B.T
            Qx = x @ Q.T
            gradnorm = np.linalg.norm(Qx, axis=1)
            normals = Qx / gradnorm[:, None]
            weights = w * (detB * np.linalg.norm(u @ Binv.T, axis=1))

            frames = _adapted_frames(normals)
            h = np.einsum("mai,ij,mbj->mab", frames, Q, frames, optimize=True) / gradnorm[:, None, None]
            del frames  # freed before the chunk is yielded
            h = (h + np.swapaxes(h, 1, 2)) / 2
            yield BoundaryCloud(n, x, normals, h, weights, _RULES[group])

    def meets(self, V: np.ndarray, anchors: np.ndarray,
              ws: Optional[Workspace] = None) -> np.ndarray:
        """Which planes anchor + span_C(V) meet the ellipsoid x^T Q x <= 1.

        In real coordinates s on the plane, x^T Q x is s^T M s + 2 b.s + c0 with
        minimum c0 - b^T M^{-1} b (`_inverse_form`); the plane meets the
        ellipsoid iff that minimum is <= 1.  All three come from the lower
        triangle of one restricted form F: Q on the real columns Vr of V
        followed by the anchor a, so M = F[:2r, :2r], b = F[2r, :2r] = (Q Vr)^T a
        and c0 = F[2r, 2r] = a^T Q a.
        """
        n, r, m = V.shape
        ws = ws or Workspace()
        k = 2 * r
        X = ws.take("columns", (2 * n, k + 1, m))
        _real_columns(V, out=X[:, :k])
        X[0::2, k] = anchors.real
        X[1::2, k] = anchors.imag
        F = _restricted_form(self.quadric, X, lower=True, ws=ws)
        return F[k, k] - _inverse_form(F[:k, :k], F[k, :k]) <= 1.0 + 1e-12

    def __repr__(self) -> str:
        return f"Ellipsoid(n={self.n})"


@dataclass(frozen=True)
class GeodesicBall(Shape):
    """Geodesic ball of radius R in the space form of holomorphic curvature 4*eps."""

    n: int
    eps: float
    R: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n}")
        if not (isfinite(self.eps) and isfinite(self.R)):
            raise ValueError(f"eps and R must be finite, got eps={self.eps}, R={self.R}")
        # refused exactly when a closed form is not finite: the curvatures, the
        # table or its R-derivative (a power that overflows raises)
        try:
            values = list(self.curvatures)
            for order in (0, 1):
                B, Gamma, M, vol = ball_closed_forms(self.eps, self.n, self.R, order)
                values += [*B.values(), *Gamma.values(), *M.values(), vol]
        except ArithmeticError:
            values = [inf]
        if not all(map(isfinite, values)):
            raise ValueError(f"radius {self.R} out of range: its closed forms overflow")

    @property
    def circum_radius(self) -> float:
        return self.R

    @property
    def curvatures(self) -> Tuple[float, float]:
        return geodesic_sphere_curvatures(self.eps, self.R)

    def meets(self, V: np.ndarray, anchors: np.ndarray,
              ws: Optional[Workspace] = None) -> np.ndarray:
        """Flat planes (eps = 0) within distance R of the center."""
        # the anchor minus its part in span_C(V), sum_j v_j (v_j^H anchor), is
        # the plane's nearest point
        n, r, m = V.shape
        ws = ws or Workspace()
        terms = ws.take("terms", (n, r, m), complex)
        coords = ws.take("coordinates", (r, m), complex)
        rel = ws.take("nearest", (n, m), complex)
        np.multiply(np.conjugate(V, out=terms), anchors[:, None], out=terms)
        np.multiply(V, terms.sum(axis=0, out=coords), out=terms)
        np.subtract(anchors, terms.sum(axis=1, out=rel), out=rel)
        return np.sqrt(_sq_norm(rel)) <= self.R * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------


class BoundaryCloud:
    """Struct-of-arrays boundary sample: position, outward normal, II, weight.

    h is the second fundamental form in the adapted frame (JN, e_2, Je_2, ...,
    e_n, Je_n) of `_adapted_frames` with the inner-normal sign convention.
    `rule` names the quadrature that placed the nodes (see the module
    docstring).
    """

    def __init__(self, n, positions, normals, h, weights, rule):
        self.n = n
        self.positions = positions
        self.normals = normals
        self.h = h
        self.weights = weights
        self.rule = rule

    def __len__(self) -> int:
        return len(self.weights)


BASE_POLAR_NODES = 8
BASE_AZIMUTH_NODES = 16

MAX_RULE_NODES = 1 << 24  # nodes of a rule on S^{2n-1}: their points alone take n/4 GiB


class RuleTooLarge(ValueError):
    """A boundary rule of more than MAX_RULE_NODES nodes or Jacobi-matrix
    entries, refused before it is built."""


def _check_rule_size(rule: str, level: int, nodes: int, p: int) -> None:
    """Refuse a rule of more than MAX_RULE_NODES nodes, or one built from
    p-point Gauss-Jacobi rules whose dense p x p Jacobi matrix has more
    entries than that (p = 0 for a rule without one)."""
    if nodes > MAX_RULE_NODES:
        raise RuleTooLarge(f"the level-{level} {rule} rule needs {nodes:,} boundary nodes, "
                           f"over the limit of {MAX_RULE_NODES:,}")
    if p * p > MAX_RULE_NODES:
        raise RuleTooLarge(f"the level-{level} {rule} rule needs a {p:,} x {p:,} Jacobi matrix "
                           f"({p * p:,} entries), over the limit of {MAX_RULE_NODES:,}")


def _gauss_jacobi(p: int, alpha: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """p-point Gauss-Jacobi rule for the weight (1 - x)^alpha (1 + x)^beta on
    [-1, 1], alpha, beta >= 0: (nodes, weights), nodes ascending.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the orthonormal Jacobi polynomials
    p_k, b_{k+1} p_{k+1} = (x - a_k) p_k - b_k p_{k-1}, each refined by one
    Newton step on p_p; one pass of the recurrence gives p_p and its first
    two derivatives.  The weights are proportional to 1 / ((1 - x^2) p_p'^2),
    scaled to the exact mass 2^(alpha+beta+1) B(alpha+1, beta+1); for
    alpha = beta nodes and weights are symmetrized about 0.  The orthonormal
    recurrence neither underflows nor overflows at high p.  A rule costs
    about 0.3 ms at p = 32 and 2 ms at p = 128 on a 2-vCPU machine.
    """
    s = alpha + beta
    k = np.arange(1.0, p + 1)
    c = 2 * k + s
    a = np.empty(p)
    a[0] = (beta - alpha) / (s + 2)
    a[1:] = (beta * beta - alpha * alpha) / (c[:-1] * (c[:-1] + 2))
    b = np.sqrt(4 * k * (k + alpha) * (k + beta) * (k + s) / (c * c * (c + 1) * (c - 1)))
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b[:-1], 1) + np.diag(b[:-1], -1))

    # rows p_k, p_k', p_k'' at the eigenvalues, by the recurrence
    y0, y1 = np.zeros((3, p)), np.zeros((3, p))
    y1[0] = 1.0
    for a_k, b_k, b_next in zip(a, np.r_[0.0, b[:-1]], b):
        y = (x - a_k) * y1 - b_k * y0
        y[1] += y1[0]
        y[2] += 2 * y1[1]
        y /= b_next
        y0, y1 = y1, y
    f, df, ddf = y1
    step = f / df
    x = x - step
    df = df - ddf * step  # p_p' at the refined node, to first order in the step
    w = 1.0 / ((1 - x) * (1 + x) * df * df)
    if alpha == beta:
        x = (x - x[::-1]) / 2
        w = (w + w[::-1]) / 2
    mass = exp((s + 1) * log(2) + lgamma(alpha + 1) + lgamma(beta + 1) - lgamma(s + 2))
    return x, w * (mass / w.sum())


@lru_cache(maxsize=32)
def sphere_grid(d: int, level: int, fold: str = "none") -> Tuple[np.ndarray, np.ndarray]:
    """Product quadrature on the unit sphere S^{d-1}.

    Hyperspherical angles; each polar angle integrated by Gauss-Jacobi in
    z = cos(theta) with the exact weight (1 - z^2)^{(d-2-i)/2}, the azimuth by
    a uniform (trapezoidal) rule.  Level L scales every node count by 2^L.
    Returns (points (m, d), weights (m,)); weights sum to the sphere volume.
    A rule of more than MAX_RULE_NODES nodes raises `RuleTooLarge`.

    `fold="sign"` (d = 2n) builds only the nodes whose even coordinates
    u_0, u_2, ..., u_{d-2} are all positive, one per orbit of the sign flips
    (u_{2j}, u_{2j+1}) -> -(u_{2j}, u_{2j+1}), each at 2^n times its weight:
    the z > 0 half of the polar axes that set u_0, ..., u_{d-4} and the
    cos(phi) > 0 azimuths that set u_{d-2}.  `fold="conj"` also keeps only
    u_{d-1} > 0, one node per orbit of the sign flips and the conjugation
    u_{2j+1} -> -u_{2j+1}, each at 2^(n+1) times its weight: the azimuths
    with cos(phi) > 0 and sin(phi) > 0.  Nodes and weights are those of the
    full grid's kept nodes, bit for bit, in the same order.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if fold not in ("none", "sign", "conj"):
        raise ValueError(f"fold must be 'none', 'sign' or 'conj', got {fold!r}")
    if fold != "none" and d % 2:
        raise ValueError("a fold needs an even dimension")
    n_polar = BASE_POLAR_NODES * 2**level
    n_az = BASE_AZIMUTH_NODES * 2**level
    # each fold halves d/2 axes, the conjugation the azimuth once more
    halvings = {"none": 0, "sign": d // 2, "conj": d // 2 + 1}[fold]
    nodes = n_polar ** (d - 2) * n_az >> halvings
    _check_rule_size(_RULES[fold], level, nodes, n_polar if d > 2 else 0)

    axes_nodes: List[np.ndarray] = []
    axes_weights: List[np.ndarray] = []
    for i in range(1, d - 1):
        alpha = (d - 2 - i) / 2.0
        z, w = _gauss_jacobi(n_polar, alpha, alpha)
        axes_nodes.append(z)
        axes_weights.append(w)
    phi = (np.arange(n_az) + 0.5) * (2 * pi / n_az)
    axes_nodes.append(phi)
    axes_weights.append(np.full(n_az, 2 * pi / n_az))

    # each halving keeps the positive half of the coordinate u_k that axis k
    # sets, one node per orbit of a reflection; the azimuth sets u_{d-2}
    # through cos(phi) and u_{d-1} through sin(phi)
    halves = [(k, np.cos if k == d - 2 else None, "the sign flips z_j -> -z_j")
              for k in range(0, d - 1, 2) if fold != "none"]
    if fold == "conj":
        halves.append((d - 2, np.sin, "the conjugation z -> conj(z)"))
    for k, coordinate, reflection in halves:
        axis, w = axes_nodes[k], axes_weights[k]
        keep = (coordinate(axis) if coordinate else axis) > 0
        if abs(2 * w[keep].sum() - w.sum()) > 1e-13 * w.sum():
            # the folded weights times 2^halvings would not sum to the full total
            raise RuntimeError(f"sphere grid is not closed under {reflection}")
        axes_nodes[k], axes_weights[k] = axis[keep], w[keep]

    # broadcast views: each axis is expanded to full size only while it is read
    grids = np.meshgrid(*axes_nodes, indexing="ij", copy=False)
    wgrids = np.meshgrid(*axes_weights, indexing="ij", copy=False)
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
    weights *= 2**halvings
    pts.setflags(write=False)
    weights.setflags(write=False)
    return pts, weights


def torus_orbit_grid(n: int, level: int) -> Tuple[np.ndarray, np.ndarray]:
    """One node per T^n-orbit of S^{2n-1}: u = (sqrt(s_1), 0, ..., sqrt(s_n), 0).

    The area measure of the sphere maps under s_j = |u_j|^2 to the constant
    density (n-1)! O_{2n-1} in (s_1, ..., s_{n-1}) on the simplex
    s_1 + ... + s_n = 1 (one orbit per point).  The collapsed (Duffy)
    coordinates s_i = t_i (1 - t_1) ... (1 - t_{i-1}) have Jacobian
    prod_i (1 - t_i)^{n-1-i}; coordinate i takes p = 8 * 2^L Gauss-Jacobi
    nodes for that weight.  Returns (points (p^{n-1}, 2n), weights) with the
    weights summing to O_{2n-1} (`RuleTooLarge` over MAX_RULE_NODES nodes).
    Uncached: most of a call is its n - 1 Gauss-Jacobi rules, about 0.2 ms
    each at p = 16 and 0.3 ms at p = 32 on a 2-vCPU machine.
    """
    p = BASE_POLAR_NODES * 2**level
    _check_rule_size("torus-orbit", level, p ** (n - 1), p if n > 1 else 0)
    ts, one_minus_ts, axes_weights = [], [], []
    for i in range(1, n):
        alpha = n - 1 - i
        x, w = _gauss_jacobi(p, alpha, 0)
        # t = (1 + x) / 2 on [0, 1]; 1 - t is formed directly to keep its digits
        ts.append((1 + x) / 2)
        one_minus_ts.append((1 - x) / 2)
        axes_weights.append(w / 2.0 ** (alpha + 1))
    m = p ** (n - 1)
    s = np.empty((m, n))
    rest = np.ones(m)
    weights = np.full(m, factorial(n - 1) * sphere_volume_coeff(2 * n - 1).to_float())
    grids = [np.meshgrid(*axes, indexing="ij") for axes in (ts, one_minus_ts, axes_weights)]
    for i, (t, one_minus_t, w) in enumerate(zip(*grids)):
        s[:, i] = rest * t.reshape(-1)
        rest = rest * one_minus_t.reshape(-1)
        weights *= w.reshape(-1)
    s[:, n - 1] = rest
    pts = np.zeros((m, 2 * n))
    pts[:, 0::2] = np.sqrt(s)
    return pts, weights


def _adapted_frames(normals: np.ndarray) -> np.ndarray:
    """Frames (JN, e_2, Je_2, ..., e_n, Je_n) for a batch of unit normals.

    With z the complex form of N, e_2, ..., e_n are columns 2..n of the
    complex Householder reflector H = I - 2 w w^* / |w|^2, w = z + phase(z_1) e_1
    (phase(z_1) = z_1/|z_1|, or 1 when z_1 = 0).  H is unitary and sends e_1 to
    -conj(phase(z_1)) z, so its other columns are an orthonormal basis of the
    complex complement of N.  As |w|^2 = 2 (1 + |z_1|) >= 2, every unit normal
    has a frame; the normal e_1 gets the coordinate directions.
    """
    m, d2 = normals.shape
    n = d2 // 2
    z = normals[:, 0::2] + 1j * normals[:, 1::2]
    r1 = np.abs(z[:, 0])
    w = z.copy()
    w[:, 0] += np.divide(z[:, 0], r1, out=np.ones(m, dtype=complex), where=r1 > 0)
    # row k - 2 of E is column k of H, e_k - w conj(z_k) / (1 + |z_1|), k = 2..n
    E = np.eye(n)[1:] - np.conj(z[:, 1:, None]) * w[:, None, :] / (1 + r1)[:, None, None]
    frames = np.empty((m, 2 * n - 1, d2))
    frames[:, 0] = apply_complex_structure(normals)
    frames[:, 1::2, 0::2] = E.real
    frames[:, 1::2, 1::2] = E.imag
    frames[:, 2::2] = apply_complex_structure(frames[:, 1::2])
    return frames


def _pair_blocks(Q: np.ndarray) -> np.ndarray:
    """The 2x2 blocks Q[2i:2i+2, 2j:2j+2] as an (n, n, 2, 2) array."""
    n = Q.shape[0] // 2
    return Q.reshape(n, 2, n, 2).swapaxes(1, 2)


def _commutes_with_sign_flips(M: np.ndarray) -> bool:
    """True if every off-pair block M[2i:2i+2, 2j:2j+2] (i != j) is exactly zero."""
    n = M.shape[0] // 2
    return not np.any(_pair_blocks(M)[~np.eye(n, dtype=bool)])


# relative roundoff allowed in a diagonal pair block that commutes with J: a
# turn inside a pair formed in floating point (Ellipsoid.transformed) leaves a
# few ulps there
TORUS_BLOCK_TOL = 16 * np.finfo(float).eps


def _commutes_with_conjugation(M: np.ndarray) -> bool:
    """True if M commutes with C = diag(1, -1, 1, -1, ...): every entry between
    an x and a y coordinate is exactly zero."""
    return not (np.any(M[0::2, 1::2]) or np.any(M[1::2, 0::2]))


def _torus_invariant(M: np.ndarray) -> bool:
    """True if M commutes with every z_j -> e^{i t_j} z_j: off-pair blocks are
    exactly zero and every diagonal pair block [[a, b], [c, d]] commutes with J
    (a = d, b = -c) to TORUS_BLOCK_TOL.  A symmetric block is then c I_2."""
    if not _commutes_with_sign_flips(M):
        return False
    n = M.shape[0] // 2
    diag = _pair_blocks(M)[np.arange(n), np.arange(n)]
    scale = TORUS_BLOCK_TOL * (np.abs(diag[:, 0, 0]) + np.abs(diag[:, 1, 1]))
    return bool(
        np.all(np.abs(diag[:, 0, 0] - diag[:, 1, 1]) <= scale)
        and np.all(np.abs(diag[:, 0, 1] + diag[:, 1, 0]) <= 2 * scale)
    )


# the lattice of symmetry groups, each by the isometries that generate it
SYMMETRIES = {
    "none": frozenset(),
    "sign": frozenset({"sign"}),
    "conj": frozenset({"sign", "conj"}),
    "torus": frozenset({"sign", "torus"}),
    "torus+conj": frozenset({"sign", "torus", "conj"}),
}
# the boundary rule each group admits; `sphere_grid` folds by the first three
_RULES = {"none": "product", "sign": "sign-fold", "conj": "conj-fold",
          "torus": "torus-orbit", "torus+conj": "torus-orbit"}


def _group(generators: frozenset) -> str:
    return next(name for name, gens in SYMMETRIES.items() if gens == generators)


def _meet(a: str, b: str) -> str:
    """The largest group in SYMMETRIES inside both a and b."""
    return _group(SYMMETRIES[a] & SYMMETRIES[b])


def symmetry_group(M: np.ndarray) -> str:
    """The largest group in SYMMETRIES whose elements commute with the linear
    map M of R^{2n}."""
    if not _commutes_with_sign_flips(M):
        return "none"
    generators = {"sign"}
    if _torus_invariant(M):
        generators.add("torus")
    if _commutes_with_conjugation(M):
        generators.add("conj")
    return _group(frozenset(generators))


def boundary_chunks(shape: Shape, level: int, symmetry: str,
                    size: Optional[int]) -> Iterator[BoundaryCloud]:
    """Boundary quadrature cloud in consecutive chunks of at most `size` nodes
    (one chunk when size is None): the sum of weight * f(x) over all chunks
    converges to the area integral.  Only the rule's nodes and weights are
    held whole; each chunk's geometry is computed when it is reached.

    `symmetry` (one of SYMMETRIES) names a group of isometries that f is
    invariant under: "torus+conj" for the U(n)-invariant curvature densities,
    the group of the flow generator for <X, N>-weighted ones.
    `shape.boundary` takes the rule of the meet of that group and the shape's
    own (see the module docstring).
    """
    if symmetry not in SYMMETRIES:
        raise ValueError(f"symmetry must be one of {tuple(SYMMETRIES)}, got {symmetry!r}")
    return shape.boundary(level, symmetry, size)


# ---------------------------------------------------------------------------
# Space-form radial geometry
# ---------------------------------------------------------------------------


def jacobi_field(kappa: float, R: float) -> Tuple[float, float]:
    """(f(R), f'(R)) of the solution of f'' + kappa f = 0, f(0) = 0, f'(0) = 1."""
    s = _root_curvature(kappa)
    if kappa == 0:
        return R, 1.0
    if kappa > 0:
        return sin(s * R) / s, cos(s * R)
    return sinh(s * R) / s, cosh(s * R)


def _root_curvature(kappa: float) -> float:
    """sqrt(|kappa|); ValueError for a kappa that is not finite, as 4 eps is
    for |eps| > 4.49e307."""
    if not isfinite(kappa):
        raise ValueError(f"curvature {kappa!r} is not finite (4*eps overflows for |eps| > 4.49e307)")
    return sqrt(abs(kappa))


def _ball_fields(eps: float, R: float) -> Tuple[float, float, float, float]:
    """(f, f', g, g') at R of the Jacobi fields f = f_eps and g = f_{4 eps}.

    The one radius check of a geodesic ball: 0 < R < pi / (2 sqrt(eps)),
    refused at the injectivity bound, where g vanishes."""
    if R <= 0:
        raise ValueError("radius must be positive")
    if eps > 0 and R >= pi / (2 * sqrt(eps)):
        raise ValueError("radius beyond the injectivity bound pi/(2 sqrt(eps))")
    return (*jacobi_field(eps, R), *jacobi_field(4 * eps, R))


def geodesic_sphere_curvatures(eps: float, R: float) -> Tuple[float, float]:
    """(mu_H, lambda) = (g'/g, f'/f): principal curvatures of the geodesic
    sphere of radius R on the Hopf direction JN (sectional curvature 4*eps)
    and on the 2n-2 distribution directions (sectional curvature eps),
    positive for small R with the inner-normal convention."""
    f, df, g, dg = _ball_fields(eps, R)
    return dg / g, df / f


# A ball entry is a sum of monomials in the Jacobi fields, kept as
# {(e, a, b, c, d): k} for the terms k eps^e f^a f'^b g^c g'^d, k exact
Monomials = Dict[Tuple[int, int, int, int, int], PiScalar]


def _derivative(terms: Monomials) -> Monomials:
    """d/dR of a sum of monomials: f -> f', f' -> -eps f, g -> g', g' -> -4 eps g."""
    out: Monomials = {}
    for (e, a, b, c, d), k in terms.items():
        for exps, factor in (((e, a - 1, b + 1, c, d), a), ((e + 1, a + 1, b - 1, c, d), -b),
                             ((e, a, b, c - 1, d + 1), c), ((e + 1, a, b, c + 1, d - 1), -4 * d)):
            if factor:
                out[exps] = out.get(exps, 0) + k * factor
    return {exps: k for exps, k in out.items() if k}


@lru_cache(maxsize=None)
def _ball_monomials(n: int, order: int) -> Tuple[Dict, Dict, Dict, Monomials]:
    """(B, Gamma, M, vol) of a geodesic ball of dimension n, each entry as
    `Monomials` (see the module docstring), or their order-th R-derivatives."""
    if order:
        *tables, vol = _ball_monomials(n, order - 1)
        return (*({key: _derivative(t) for key, t in table.items()} for table in tables),
                _derivative(vol))
    d = 2 * n - 1
    area = sphere_volume_coeff(d)
    C = {(k, q): form_norm_coeff(n, k, q) * Fraction(2) ** (k - 2 * q - 1) * factorial(n - 1) * area
         for (k, q) in mu_indices(n)}
    B = {(k, q): {(0, k - 1, d - k, 1, 0): C[k, q]} for (k, q) in beta_indices(n)}
    Gamma = {(k, q): {(0, k, d - k - 1, 0, 1): C[k, q]} for (k, q) in gamma_indices(n)}
    M = {j: {exps: area * Fraction(comb(d - 1, i), comb(d, j))
             for exps, i in (((0, d - 1 - j, j, 1, 0), j), ((0, d - j, j - 1, 0, 1), j - 1))
             if 0 <= i <= d - 1}
         for j in range(d + 1)}
    return B, Gamma, M, {(0, 2 * n, 0, 0, 0): ball_volume_coeff(2 * n)}


def ball_closed_forms(eps: float, n: int, R: float,
                      order: int = 0) -> Tuple[Dict, Dict, Dict[int, float], float]:
    """(B, Gamma, M, vol) of the geodesic ball of radius R in the space form of
    holomorphic curvature 4*eps, or their R-derivatives (order=1): the
    monomials of `_ball_monomials` at the Jacobi fields, with no division.  An
    entry whose exact value is 0, as an eps term at eps = 0, is exactly 0.  A
    power that overflows raises OverflowError."""
    f, df, g, dg = _ball_fields(eps, R)

    def value(terms: Monomials) -> float:
        total = 0.0
        for (e, a, b, c, d), k in terms.items():
            total += k.to_float() * eps**e * f**a * df**b * g**c * dg**d
        return total

    *tables, vol = _ball_monomials(n, order)
    return (*({key: value(t) for key, t in table.items()} for table in tables), value(vol))
