"""First-variation formulas and the derivative tables they are checked against.

Flows act on shape parameters, never on point clouds: LinearFlow(A),
phi_t = exp(tA) on R^{2n}, moves a shape through `Shape.transformed`, and
ellipsoids transport exactly through their quadratic form (flat case only).
A geodesic ball grown at unit normal speed needs no flow object: its
<X, N> = 1, so its tilde table is its closed-form valuation table.

For a valuation key ("B", k, q), ("G", 2q, q) or "vol" the analytic variation
contracts the exact variation operator with the tilde table: the valuation
table of the boundary measure weighted by <X, N> (N the outward unit normal),
whose B and Gamma entries are the normalized tilde integrals

    tB[k,q] = integral of <X, N> beta_{k,q},   tG[k,q] = integral of <X, N> gamma_{k,q}.

A tilde table integrates <X, N> times U(n)-invariant densities, so its
boundary rule may fold by every symmetry of the shape that also leaves
<X, N> invariant: `LinearFlow.symmetry` names that group of the flow, and
`valuations.hermitian_volumes(shape, level, flow)` weights by its
`normal_speed`.  `variation_formula` and `crofton_variation_formula` take
the tilde table as an argument and read n and eps from it.

Both variation checks compare against a derivative table, a
`ValuationTable` of d/dt of every entry: the analytic radial derivative of
the closed form for balls (`valuations.ball_closed_form_derivative`), and
`central_differences` of the tables under exact shape transport for
ellipsoids.  The Crofton variation differentiates the plane-measure bracket
as `valuations.crofton_rhs` of that table, since the bracket is linear in the
table's entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, log2
from typing import Tuple, Union

import numpy as np

from . import geom, valuations
from .coeffcore import crofton_variation_coeffs, variation_operator

__all__ = [
    "LinearFlow",
    "valuation_value",
    "key_name",
    "central_differences",
    "variation_formula",
    "crofton_variation_formula",
]


# [13/13] Pade approximant of exp: q(x) / q(-x) with q(x) = sum_k c_k x^k,
# c_k = (26 - k)! 13! / (26! k! (13 - k)!), and the 1-norm up to which its
# backward error stays below the unit roundoff (Higham, SIAM J. Matrix Anal.
# Appl. 26, 2005)
PADE_13 = tuple(
    float(Fraction(factorial(26 - k) * factorial(13), factorial(26) * factorial(k) * factorial(13 - k)))
    for k in range(14)
)
THETA_13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring: the [13/13] Pade approximant of
    exp(A / 2^s), with 2^s the smallest power of two that brings the 1-norm
    to THETA_13, squared s times."""
    norm = np.linalg.norm(A, 1)
    s = ceil(log2(norm / THETA_13)) if norm > THETA_13 else 0
    A = A / 2.0**s
    c = PADE_13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    eye = np.eye(len(A))
    # q(A) = V + U with U the odd and V the even part
    U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2) + c[7] * A6 + c[5] * A4
             + c[3] * A2 + c[1] * eye)
    V = A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2) + c[6] * A6 + c[4] * A4 + c[2] * A2 + eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


@dataclass
class LinearFlow:
    """phi_t = exp(tA) acting on C^n = R^{2n}; moves ellipsoids only.  The
    exponential is `_expm`, a numpy scaling and squaring."""

    A: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A must be finite")

    def transport(self, shape: geom.Shape, t: float) -> geom.Shape:
        return shape.transformed(_expm(t * self.A))

    @property
    def symmetry(self) -> geom.Symmetry:
        """The group <Ax, N> is invariant under: an isometry g of the shape
        maps it to <g^T A g x, N>, so the weight keeps every g that commutes
        with A (`geom.symmetry_group`): the phase of each coordinate whose
        pair block of A is a + bJ and whose off-pair blocks are zero, the
        sign flips when every off-pair block is zero, and C when no entry of
        A links an x to a y coordinate."""
        return geom.symmetry_group(self.A)

    def normal_speed(self, cloud: geom.BoundaryCloud) -> np.ndarray:
        return np.einsum(
            "mi,mi->m", cloud.positions @ self.A.T, cloud.normals
        )


Key = Union[Tuple[str, int, int], str]


def valuation_value(table: valuations.ValuationTable, key: Key) -> float:
    if key == "vol":
        return table.vol
    kind, k, q = key  # type: ignore[misc]
    return table.B[(k, q)] if kind == "B" else table.Gamma[(k, q)]


def key_name(key: Key) -> str:
    """Report label of a valuation key: "vol", "B:k,q" or "G:k,q"."""
    return "vol" if key == "vol" else f"{key[0]}:{key[1]},{key[2]}"


def central_differences(
    shape: geom.Shape, flow: LinearFlow, h_step: float, level: int = 1
) -> valuations.ValuationTable:
    """Derivative table by central differences: every B, Gamma, M and vol entry
    is (plus - minus) / (2 h_step) of the quadrature tables of the shape
    transported by +h_step and -h_step."""
    plus = valuations.hermitian_volumes(flow.transport(shape, h_step), level)
    minus = valuations.hermitian_volumes(flow.transport(shape, -h_step), level)

    def diff(a, b):
        return (a - b) / (2 * h_step)

    return valuations.ValuationTable(
        n=plus.n, eps=plus.eps,
        B={key: diff(v, minus.B[key]) for key, v in plus.B.items()},
        Gamma={key: diff(v, minus.Gamma[key]) for key, v in plus.Gamma.items()},
        M={j: diff(v, minus.M[j]) for j, v in plus.M.items()},
        vol=diff(plus.vol, minus.vol),
    )


def variation_formula(key: Key, tilde: valuations.ValuationTable) -> float:
    """Analytic first variation of `key`: the coefficients of the (cached)
    `variation_operator(tilde.n)` contracted with the tilde table at tilde.eps."""
    total = 0.0
    for kind, k, q, p, coeff in variation_operator(tilde.n).targets(key):
        total += coeff.to_float() * tilde.eps**p * valuation_value(tilde, (kind, k, q))
    return total


def crofton_variation_formula(r: int, tilde: valuations.ValuationTable) -> float:
    """Analytic first variation of the plane-measure bracket (kappa-relative):
    the tilde-B combination `crofton_variation_coeffs(tilde.n, r)`."""
    return sum(
        c.to_float() * tilde.B[(k, q)]
        for (k, q), c in crofton_variation_coeffs(tilde.n, r).items()
    )
