"""First-variation formulas checked against finite differences.

Flows act on shape parameters, never on point clouds:

  * LinearFlow(A): phi_t = exp(tA) on R^{2n}, through `Shape.transformed`;
    ellipsoids transport exactly through their quadratic form (flat case only).
  * RadialFlow(): moves the boundary of a geodesic ball of radius R to radius
    R + t at unit normal speed (any curvature), through `Shape.grown`.

For a valuation key ("B", k, q), ("G", 2q, q) or "vol" the analytic variation
contracts the exact variation operator with the tilde table: the valuation
table of the boundary measure weighted by <X, N> (N the outward unit normal),
whose B and Gamma entries are the normalized tilde integrals

    tB[k,q] = integral of <X, N> beta_{k,q},   tG[k,q] = integral of <X, N> gamma_{k,q}.

A tilde table integrates <X, N> times U(n)-invariant densities, so its
boundary rule may fold by every symmetry of the shape that also leaves
<X, N> invariant: `Flow.symmetry` names that group of the flow, and
`valuations.hermitian_volumes(shape, level, flow)` weights by its
`normal_speed`.  The variation formulas and the Crofton variation check take
the tilde table as an argument and read n and eps from it.

The oracle is a central finite difference of quadrature (or closed-form)
valuations under exact shape transport.  Radial flows on balls admit an
analytic derivative, giving the sharpest cross-check at eps != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from . import geom, valuations
from .coeffcore import crofton_variation_coeffs, variation_operator

__all__ = [
    "LinearFlow",
    "RadialFlow",
    "Flow",
    "tilde_integrals",
    "valuation_value",
    "key_name",
    "central_differences",
    "variation_formula",
    "crofton_variation_check",
]


@dataclass
class LinearFlow:
    """phi_t = exp(tA) acting on C^n = R^{2n}; moves ellipsoids only."""

    A: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")

    def transport(self, shape: geom.Shape, t: float) -> geom.Shape:
        from scipy.linalg import expm  # loaded by the first transport, not on import

        return shape.transformed(expm(t * self.A))

    @property
    def symmetry(self) -> str:
        """The group <Ax, N> is invariant under: an isometry g of the shape
        maps it to <g^T A g x, N>, so the weight keeps every g that commutes
        with A (`geom.symmetry_group`)."""
        return geom.symmetry_group(self.A)

    def normal_speed(self, cloud: geom.BoundaryCloud) -> np.ndarray:
        return np.einsum(
            "mi,mi->m", cloud.positions @ self.A.T, cloud.normals
        )


@dataclass
class RadialFlow:
    """Unit-speed outward radial flow of geodesic balls, <X, N> = 1."""

    symmetry = "torus"  # a constant weight is invariant under every isometry

    def transport(self, shape: geom.Shape, t: float) -> geom.Shape:
        return shape.grown(t)

    def normal_speed(self, cloud: geom.BoundaryCloud) -> np.ndarray:
        return np.ones(len(cloud))


Flow = Union[LinearFlow, RadialFlow]


def tilde_integrals(
    shape: geom.Shape, flow: Flow, level: int = 1
) -> valuations.ValuationTable:
    """Valuation table of the boundary measure weighted by <X, N> (the tilde table).

    The weight is invariant under `flow.symmetry`, so the boundary rule takes
    the strongest reduction that group and the shape admit: the sign fold for
    a diagonal generator on an axis-aligned ellipsoid, the torus-orbit rule
    only when it also commutes with J on every pair (`geom.boundary_chunks`).
    A flow that cannot move the shape (`flow.transport`) raises ValueError.
    """
    flow.transport(shape, 0.0)
    return valuations.hermitian_volumes(shape, level, flow)


Key = Union[Tuple[str, int, int], str]


def valuation_value(table: valuations.ValuationTable, key: Key) -> float:
    if key == "vol":
        return table.vol
    kind, k, q = key  # type: ignore[misc]
    return table.B[(k, q)] if kind == "B" else table.Gamma[(k, q)]


def key_name(key: Key) -> str:
    """Report label of a valuation key: "vol", "B:k,q" or "G:k,q"."""
    return "vol" if key == "vol" else f"{key[0]}:{key[1]},{key[2]}"


def _transported_tables(
    shape: geom.Shape, flow: Flow, h_step: float, level: int = 1
) -> Tuple[valuations.ValuationTable, valuations.ValuationTable]:
    """Valuation tables of the shape transported by +h_step and -h_step."""
    return (
        valuations.shape_table(flow.transport(shape, h_step), level),
        valuations.shape_table(flow.transport(shape, -h_step), level),
    )


def central_differences(
    shape: geom.Shape, flow: Flow, keys: Sequence[Key], h_step: float, level: int = 1
) -> Dict[Key, float]:
    """Central differences of several valuations from one pair of transported tables."""
    plus, minus = _transported_tables(shape, flow, h_step, level)
    return {
        key: (valuation_value(plus, key) - valuation_value(minus, key)) / (2 * h_step)
        for key in keys
    }


def variation_formula(key: Key, tilde: valuations.ValuationTable) -> float:
    """Analytic first variation of `key`: the coefficients of the (cached)
    `variation_operator(tilde.n)` contracted with the tilde table at tilde.eps."""
    total = 0.0
    for kind, k, q, p, coeff in variation_operator(tilde.n).targets(key):
        total += coeff.to_float() * tilde.eps**p * valuation_value(tilde, (kind, k, q))
    return total


def crofton_variation_check(
    shape: geom.Shape,
    flow: Flow,
    r: int,
    tilde: valuations.ValuationTable,
    level: int = 1,
    h_step: float = 1e-3,
) -> Tuple[float, float]:
    """(finite difference, analytic formula) for the varied plane-measure bracket.

    Both sides are kappa-relative (no Grassmannian mass), so they compare
    directly: the left side differentiates the Crofton bracket along the flow,
    the right side is the tilde-B combination of the variation formula on
    `tilde`, the flow's tilde table (`tilde_integrals`).
    """
    plus, minus = _transported_tables(shape, flow, h_step, level)
    lhs_fd = (valuations.crofton_rhs(plus, r) - valuations.crofton_rhs(minus, r)) / (2 * h_step)
    rhs_formula = sum(
        c.to_float() * tilde.B[(k, q)]
        for (k, q), c in crofton_variation_coeffs(shape.n, r).items()
    )
    return lhs_fd, rhs_formula
