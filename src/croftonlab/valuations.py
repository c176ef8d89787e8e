"""Hermitian intrinsic volumes and curvature integrals of concrete shapes.

For a shape with boundary cloud {(x, h, w)} the table holds

    B[k,q]     = c_{n,k,q}   * sum w * density_beta(n,k,q,h)      (k != 2q)
    Gamma[k,q] = c_{n,k,q}/2 * sum w * density_gamma(n,k,q,h)     (n != k-q)
    mu[k,q]    = B[k,q] if k != 2q else Gamma[2q,q]
    M[j]       = binom(2n-1,j)^{-1} * sum w * e_j(h)
    vol        = volume of the shape

with e_j(h) the j-th elementary symmetric function of the principal
curvatures (the sum of the principal j-minors of h), read off a Householder
tridiagonal form of h by the continuant recurrence.

A geodesic ball's one table is a closed form (`shape_table`): its boundary
has constant curvatures, every density is a monomial in them, and every
entry is a monomial in the Jacobi fields of the radius
(`geom.ball_closed_forms`).  `ball_closed_form_derivative`, the oracle of the
radial variations, differentiates the same monomials.  Grown at unit normal
speed, <X, N> = 1: its tilde table needs no flow object.

Unweighted tables integrate U(n)-invariant densities, invariant under every
coordinate's phase and conjugation too (`geom.Symmetry.full`), so they take
the strongest exact symmetry reduction of the boundary rule that the shape
admits (`geom.boundary_chunks`): the torus-orbit rule on the (n-1)-simplex
for ellipsoids with semiaxes in equal pairs, the Hopf rule (the simplex
times a folded midpoint rule on each phase that is not free) for
axis-aligned ellipsoids with some equal pairs, the conjugation fold for
axis-aligned ellipsoids with none, the sign fold for ellipsoids turned
inside a pair, the full product rule for general quadrics.  Tables weighted
by a flow's normal speed take the reduction that both the shape and the
flow's symmetry group admit.  Each quadrature table
records the rule and its node count in `quadrature`.

The boundary geometry is built and integrated one chunk of QUADRATURE_CHUNK
nodes at a time (`geom.boundary_chunks`), so a table holds its rule's nodes
and weights but never the whole cloud of normals and second fundamental
forms.  Quadrature sums use a fixed-chunk pairwise tree so results are
reproducible bit-for-bit at a given level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Dict, Tuple

import numpy as np

from . import extalg, geom
from .coeffcore import (
    beta_indices,
    form_norm_coeff,
    gamma_indices,
    gauss_bonnet_coeffs,
    crofton_coeffs,
    mu_indices,
    short_gauss_bonnet_coeffs,
    sphere_volume_coeff,
)

__all__ = [
    "ValuationTable",
    "pairwise_sum",
    "hermitian_volumes",
    "shape_table",
    "ball_closed_form",
    "ball_closed_form_derivative",
    "check_gamma_b_relation",
    "gauss_bonnet_residual",
    "crofton_rhs",
]

QUADRATURE_CHUNK = 1 << 14  # boundary nodes per geometry and density batch


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise tree reduction (fixed chunking)."""
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.append(a, 0.0)
        a = a[0::2] + a[1::2]
    return float(a[0])


@dataclass
class ValuationTable:
    """Valuation values of one domain, or their derivatives along a flow."""

    n: int
    eps: float
    B: Dict[Tuple[int, int], float]
    Gamma: Dict[Tuple[int, int], float]
    M: Dict[int, float]
    vol: float
    quadrature: Dict[str, object] = field(default_factory=dict)

    def mu(self, k: int, q: int) -> float:
        return self.Gamma[(k, q)] if k == 2 * q else self.B[(k, q)]

    def mu_dict(self) -> Dict[Tuple[int, int], float]:
        return {(k, q): self.mu(k, q) for (k, q) in mu_indices(self.n)}

    def to_json(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (k, q), v in sorted(self.B.items()):
            out[f"B:{k},{q}"] = v
        for (k, q), v in sorted(self.Gamma.items()):
            out[f"G:{k},{q}"] = v
        for (k, q) in mu_indices(self.n):
            out[f"mu:{k},{q}"] = self.mu(k, q)
        for j, v in sorted(self.M.items()):
            out[f"M:{j}"] = v
        out["vol"] = self.vol
        return out


def _tridiagonal(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(diagonal (d, m), squared off-diagonal (d-1, m)) of a tridiagonal form
    Q^T h Q of the batch-last symmetric matrices h (d, d, m).

    Householder reflections from the left and right, one per column, each an
    elementwise update of length-m vectors; a column that is already zero
    below its subdiagonal gets the identity (LAPACK's dlarfg with tau = 0).
    """
    A = h.copy()
    d, _, m = A.shape
    b2 = np.empty((d - 1, m))
    for k in range(d - 2):
        x = A[k + 1 :, k]
        alpha = x[0]
        sigma = (x[1:] ** 2).sum(axis=0)
        b2[k] = alpha * alpha + sigma
        reflect = sigma > 0
        beta = -np.copysign(np.sqrt(b2[k]), alpha)
        # u = (1, x[1:] / (alpha - beta)) and H = I - tau u u^T send x to beta e_1
        u = np.empty_like(x)
        u[0] = 1.0
        u[1:] = x[1:] / np.where(reflect, alpha - beta, 1.0)
        tau = np.where(reflect, (beta - alpha) / np.where(reflect, beta, 1.0), 0.0)
        # the trailing block S <- H S H as the rank-two update S - u w^T - w u^T
        S = A[k + 1 :, k + 1 :]
        p = tau * (S * u).sum(axis=1)
        w = p - (0.5 * tau * (p * u).sum(axis=0)) * u
        S -= u[:, None] * w + w[:, None] * u
    if d >= 2:
        b2[d - 2] = A[d - 1, d - 2] ** 2
    return A[np.arange(d), np.arange(d)], b2


def _elementary_symmetric_functions(h: np.ndarray) -> np.ndarray:
    """e_0, ..., e_d of each of the batch-last symmetric matrices h (d, d, m),
    as a (d + 1, m) array with e_0 = 1.

    With a_k, b_k the diagonal and off-diagonal of a tridiagonal form T, the
    leading blocks T_k satisfy the continuant recurrence
    e_j(T_k) = e_j(T_{k-1}) + a_k e_{j-1}(T_{k-1}) - b_{k-1}^2 e_{j-2}(T_{k-2}).
    """
    a, b2 = _tridiagonal(h)
    d, m = a.shape
    prev2 = np.zeros((d + 1, m))
    prev = np.zeros((d + 1, m))
    prev[0] = 1.0
    for k in range(d):
        e = prev.copy()
        e[1:] += a[k] * prev[:-1]
        if k:
            e[2:] -= b2[k - 1] * prev2[:-2]
        prev2, prev = prev, e
    return prev


def hermitian_volumes(shape: geom.Shape, level: int = 1, flow=None) -> ValuationTable:
    """Valuation table by boundary quadrature of the exterior-algebra densities.

    Without a flow the table integrates the U(n)-invariant densities, and the
    boundary rule reduces by every symmetry of the shape (free phases,
    conjugation or sign flips, see `geom.boundary_chunks`).  A `varcheck` flow
    weights the boundary measure by its `normal_speed` <X, N>, and the rule
    reduces only by the symmetries its `symmetry` group shares (the tilde
    table of the variation formulas, see `varcheck`).  `quadrature` records
    the rule and its node count.  The curvature sums M[j] come from
    `_elementary_symmetric_functions`.  A ball (no boundary rule) raises ValueError.
    """
    n = shape.n
    symmetry = geom.Symmetry.full(n) if flow is None else flow.symmetry

    bkeys = beta_indices(n)
    gkeys = gamma_indices(n)
    keys = [("beta", k, q) for (k, q) in bkeys] + [("gamma", k, q) for (k, q) in gkeys]
    d = 2 * n - 1
    parts = {key: [] for key in keys}
    m_parts = [[] for _ in range(d + 1)]
    nodes = 0
    for chunk in geom.boundary_chunks(shape, level, symmetry, QUADRATURE_CHUNK):
        rule = chunk.rule
        nodes += len(chunk)
        w = chunk.weights
        if flow is not None:
            w = w * flow.normal_speed(chunk)
        # the curvature sums first: their temporaries are freed before the forms exist
        esp = _elementary_symmetric_functions(chunk.h.transpose(1, 2, 0))
        for j in range(d + 1):
            m_parts[j].append(pairwise_sum(w * esp[j]))
        del esp
        forms = extalg.build_pullbacks(chunk.h, n)
        for key, dens in zip(keys, extalg.densities(forms, keys)):
            parts[key].append(pairwise_sum(w * dens))
        del forms, chunk  # freed before the next chunk is built

    total = {key: pairwise_sum(np.array(p)) for key, p in parts.items()}
    B = {
        (k, q): form_norm_coeff(n, k, q).to_float() * total[("beta", k, q)]
        for (k, q) in bkeys
    }
    Gamma = {
        (k, q): 0.5 * form_norm_coeff(n, k, q).to_float() * total[("gamma", k, q)]
        for (k, q) in gkeys
    }
    M = {
        j: pairwise_sum(np.array(m_parts[j])) / comb(d, j)
        for j in range(d + 1)
    }
    return ValuationTable(n=n, eps=shape.eps, B=B, Gamma=Gamma, M=M, vol=shape.volume,
                          quadrature={"rule": rule, "nodes": nodes})


def shape_table(shape: geom.Shape, level: int = 1) -> ValuationTable:
    """Valuation table: the closed form for constant-curvature boundaries, else quadrature."""
    if shape.curvatures is not None:
        return ball_closed_form(shape.eps, shape.n, shape.R)
    return hermitian_volumes(shape, level)


def ball_closed_form(eps: float, n: int, R: float) -> ValuationTable:
    """Exact valuations of a geodesic ball: closed forms in R, no quadrature."""
    return ValuationTable(n, eps, *geom.ball_closed_forms(eps, n, R))


def ball_closed_form_derivative(eps: float, n: int, R: float) -> ValuationTable:
    """d/dR of `ball_closed_form` (oracle for radial variations): the same
    monomials in the Jacobi fields, differentiated term by term."""
    return ValuationTable(n, eps, *geom.ball_closed_forms(eps, n, R, order=1))


def check_gamma_b_relation(table: ValuationTable) -> Dict[Tuple[int, int], float]:
    """Residuals of Gamma = B - eps (c_{n,k,q}/c_{n,k+2,q+1}) B_{k+2,q+1}.

    Defined on the strict index range max{0,k-n} < q < k/2 < n.
    """
    n, eps = table.n, table.eps
    out: Dict[Tuple[int, int], float] = {}
    for (k, q) in gamma_indices(n):
        if not (max(0, k - n) < q and 2 * q < k and k < 2 * n):
            continue
        ratio = (form_norm_coeff(n, k, q) / form_norm_coeff(n, k + 2, q + 1)).to_float()
        out[(k, q)] = (
            table.Gamma[(k, q)] - table.B[(k, q)] + eps * ratio * table.B[(k + 2, q + 1)]
        )
    return out


def crofton_rhs(table: ValuationTable, r: int) -> float:
    """Numeric bracket of the r-plane measure formula (kappa-relative), at the
    table's n and eps."""
    return crofton_coeffs(table.n, r).eval(table.mu_dict(), table.vol, table.eps)


def gauss_bonnet_residual(shape: geom.Shape, table: ValuationTable) -> Tuple[float, float]:
    """Residuals of the two Gauss-Bonnet expressions on a convex shape (chi = 1).

    mu-table form:      O_{2n-1} minus the full mu-table right-hand side.
    plane-measure form: O_{2n-1} - M_{2n-1} minus the short form's other terms,
                        `coeffcore.short_gauss_bonnet_coeffs` (the hyperplane
                        Grassmannian of unit mass, as the exact identity
                        `coeffcore.verify_short_gauss_bonnet` asserts; points
                        at n = 1).
    `table` is the shape's valuation table (`shape_table`).
    Returns (mu-form residual, plane-form residual).
    """
    n = shape.n
    eps = shape.eps
    mu = table.mu_dict()
    o = sphere_volume_coeff(2 * n - 1).to_float()
    res51 = o - gauss_bonnet_coeffs(n).eval(mu, table.vol, eps)
    res52 = o - table.M[2 * n - 1] - short_gauss_bonnet_coeffs(n).eval(mu, table.vol, eps)
    return res51, res52
