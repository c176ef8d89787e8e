"""Numeric exterior algebra on the 2n-1 boundary coframe generators.

At a boundary point of a domain in complex dimension n, the coframe of the
boundary is indexed by I = (1bar, 2, 2bar, ..., n, nbar): the Hopf direction
JN first, then the complex distribution in (e_i, Je_i) pairs.  The invariant
1-forms beta, gamma and 2-forms theta_0, theta_1, theta_2 pull back to this
coframe through the second fundamental form h:

    beta    = a_{1bar}
    gamma   = sum_j h[1bar, j] a_j
    theta_2 = sum_{i=2..n} a_i ^ a_{ibar}
    theta_1 = sum_{i=2..n} ( sum_j h[ibar, j] a_i ^ a_j - sum_l h[i, l] a_{ibar} ^ a_l )
    theta_0 = sum_{i=2..n} sum_{j,l} h[i, j] h[ibar, l] a_j ^ a_l

Densities are coefficients of the ordered top form a_{1bar}^a_2^a_{2bar}^...^a_{nbar}.
Multivectors are sparse maps bitmask -> coefficient; coefficients may be numpy
arrays so a fixed polynomial evaluates over a whole batch of h matrices at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .coeffcore import IndexRangeError, valid_index

Coeff = Union[float, np.ndarray]

__all__ = [
    "MultiVector",
    "PullbackForms",
    "build_pullbacks",
    "density_from_forms",
    "density_beta",
    "density_gamma",
    "permutation_oracle",
    "merge_sign",
]


def merge_sign(a: int, b: int) -> int:
    """Sign of reordering the concatenation of two disjoint index sets.

    Counts, for every generator in b, the generators of a above it; the sign is
    (-1) to that count (transposition counting).
    """
    sign = 0
    while b:
        j = (b & -b).bit_length() - 1
        sign += (a >> (j + 1)).bit_count()
        b &= b - 1
    return -1 if sign & 1 else 1


class MultiVector:
    """Sparse element of the exterior algebra over d generators.

    terms: map from canonical bitmask (bit j set = generator j present) to a
    scalar or per-point array coefficient.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Dict[int, Coeff] | None = None):
        self.d = d
        self.terms: Dict[int, Coeff] = dict(terms) if terms else {}

    @classmethod
    def scalar(cls, d: int, value: Coeff) -> "MultiVector":
        return cls(d, {0: value})

    def wedge(self, other: "MultiVector") -> "MultiVector":
        out: Dict[int, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                term = c1 * c2 if merge_sign(m1, m2) > 0 else -(c1 * c2)
                out[m] = out[m] + term if m in out else term
        return MultiVector(self.d, out)

    def wedge_pow(self, k: int) -> "MultiVector":
        """k-th wedge power by binary exponentiation (even-degree elements)."""
        if k == 0:
            return MultiVector.scalar(self.d, 1.0)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result.wedge(base)
            k >>= 1
            if k:
                base = base.wedge(base)
        return result  # type: ignore[return-value]

    def coefficient(self, mask: int) -> Coeff:
        return self.terms.get(mask, 0.0)

    def top_coefficient(self) -> Coeff:
        return self.coefficient((1 << self.d) - 1)


def _as_batch(h: np.ndarray, n: int | None = None):
    """Normalize input to (m, d, d) float array; report if it was unbatched."""
    arr = np.asarray(h, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
        single = True
    elif arr.ndim == 3:
        single = False
    else:
        raise ValueError("h must be (d,d) or (m,d,d)")
    d = arr.shape[-1]
    if n is None:
        n = (d + 1) // 2
    if d != 2 * n - 1:
        raise ValueError(f"h has size {d}, expected {2 * n - 1} for n={n}")
    return arr, n, single


def _dist_slots(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Frame slots of e_i and Je_i for i = 2..n (slot 0 is the Hopf direction)."""
    i = np.arange(n - 1)
    return 2 * i + 1, 2 * i + 2


@dataclass
class PullbackForms:
    beta: MultiVector
    gamma: MultiVector
    theta0: MultiVector
    theta1: MultiVector
    theta2: MultiVector


def build_pullbacks(h: np.ndarray, n: int | None = None) -> PullbackForms:
    """Pull the invariant forms back to the boundary coframe, per point.

    beta and theta_2 are constant, gamma and theta_1 are linear and theta_0 is
    quadratic in the entries of h.  Batched h gives array-valued coefficients.
    """
    arr, n, single = _as_batch(h, n)
    d = 2 * n - 1
    m = arr.shape[0]

    def _c(x: np.ndarray) -> Coeff:
        return float(x[0]) if single else x

    ones = 1.0 if single else np.ones(m)
    beta = MultiVector(d, {1 << 0: ones})
    gamma = MultiVector(
        d, {1 << j: _c(arr[:, 0, j]) for j in range(d) if np.any(arr[:, 0, j])}
    )

    se, sj = _dist_slots(n)
    theta2 = MultiVector(d, {(1 << int(p)) | (1 << (int(p) + 1)): ones for p in se})

    # theta_1: antisymmetric pair coefficients T[p,q] - T[q,p] for p < q
    T = np.zeros((m, d, d))
    T[:, se, :] += arr[:, sj, :]
    T[:, sj, :] -= arr[:, se, :]
    theta1 = _two_form_from_matrix(T, d, _c)

    # theta_0: A[j,l] = sum_i h[e_i, j] h[Je_i, l]
    A = np.einsum("mij,mil->mjl", arr[:, se, :], arr[:, sj, :])
    theta0 = _two_form_from_matrix(A, d, _c)

    return PullbackForms(beta=beta, gamma=gamma, theta0=theta0, theta1=theta1, theta2=theta2)


def _two_form_from_matrix(T: np.ndarray, d: int, conv) -> MultiVector:
    terms: Dict[int, Coeff] = {}
    anti = T - np.swapaxes(T, 1, 2)
    for p in range(d):
        for q in range(p + 1, d):
            c = anti[:, p, q]
            if np.any(c):
                terms[(1 << p) | (1 << q)] = conv(c)
    return MultiVector(d, terms)


def _check_beta_index(n: int, k: int, q: int) -> None:
    if not valid_index(n, k, q) or k == 2 * q:
        raise IndexRangeError(f"beta density undefined for n={n}, k={k}, q={q}")


def _check_gamma_index(n: int, k: int, q: int) -> None:
    if not valid_index(n, k, q) or n == k - q:
        raise IndexRangeError(f"gamma density undefined for n={n}, k={k}, q={q}")


def density_from_forms(forms: PullbackForms, kind: str, n: int, k: int, q: int) -> Coeff:
    """Top-form coefficient of the (k, q) density from built pullback forms.

    kind "beta":  beta ^ theta_0^{n-k+q} ^ theta_1^{k-2q-1} ^ theta_2^q;
    kind "gamma": gamma ^ theta_0^{n-k+q-1} ^ theta_1^{k-2q} ^ theta_2^q.
    The index range is the caller's to check.
    """
    if kind == "beta":
        w, exps = forms.beta, (n - k + q, k - 2 * q - 1, q)
    else:
        w, exps = forms.gamma, (n - k + q - 1, k - 2 * q, q)
    for theta, e in zip((forms.theta0, forms.theta1, forms.theta2), exps):
        w = w.wedge(theta.wedge_pow(e))
    return w.top_coefficient()


def density_beta(n: int, k: int, q: int, h: np.ndarray) -> Coeff:
    """The beta density of `density_from_forms` at h.

    The caller applies the normalization c_{n,k,q}; the result is a polynomial
    of degree 2n-k-1 in the entries of h.
    """
    _check_beta_index(n, k, q)
    return density_from_forms(build_pullbacks(h, n), "beta", n, k, q)


def density_gamma(n: int, k: int, q: int, h: np.ndarray) -> Coeff:
    """The gamma density of `density_from_forms` at h.

    The caller applies the normalization c_{n,k,q}/2.
    """
    _check_gamma_index(n, k, q)
    return density_from_forms(build_pullbacks(h, n), "gamma", n, k, q)


# ---------------------------------------------------------------------------
# Independent oracle: Leibniz expansion over permutations
# ---------------------------------------------------------------------------


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _oracle_two_forms(n: int, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense antisymmetric matrices of theta_0, theta_1, theta_2 built by loops."""
    d = 2 * n - 1
    t0 = np.zeros((d, d))
    t1 = np.zeros((d, d))
    t2 = np.zeros((d, d))
    for i in range(2, n + 1):
        pe = 2 * (i - 2) + 1
        pj = pe + 1
        t2[pe, pj] += 1.0
        t2[pj, pe] -= 1.0
        for j in range(d):
            t1[pe, j] += h[pj, j]
            t1[j, pe] -= h[pj, j]
            t1[pj, j] -= h[pe, j]
            t1[j, pj] += h[pe, j]
            for l in range(d):
                t0[j, l] += h[pe, j] * h[pj, l]
                t0[l, j] -= h[pe, j] * h[pj, l]
    return t0, t1, t2


def permutation_oracle(kind: str, n: int, k: int, q: int, h: np.ndarray) -> float:
    """Evaluate the same density by explicit Leibniz expansion over permutations.

    Cost grows as (2n-1)!; restricted to n <= 3.  Shares no code with the
    bitmask engine.
    """
    if n > 3:
        raise ValueError("permutation oracle limited to n <= 3")
    h = np.asarray(h, dtype=float)
    d = 2 * n - 1
    if kind == "beta":
        _check_beta_index(n, k, q)
        vec = np.zeros(d)
        vec[0] = 1.0
        exps = (n - k + q, k - 2 * q - 1, q)
    elif kind == "gamma":
        _check_gamma_index(n, k, q)
        vec = h[0, :].copy()
        exps = (n - k + q - 1, k - 2 * q, q)
    else:
        raise ValueError("kind must be 'beta' or 'gamma'")
    t0, t1, t2 = _oracle_two_forms(n, h)
    mats = [t0] * exps[0] + [t1] * exps[1] + [t2] * exps[2]
    total = 0.0
    for perm in itertools.permutations(range(d)):
        v = vec[perm[0]]
        if v == 0.0:
            continue
        p = v
        for t, M in enumerate(mats):
            p *= M[perm[1 + 2 * t], perm[2 + 2 * t]]
            if p == 0.0:
                break
        else:
            total += _perm_sign(perm) * p
            continue
    return total / 2 ** len(mats)

