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

`build_pullbacks` works one coefficient row at a time: a Python float at a
single point, one contiguous row of a batch-last copy of h for a batch.  Each
two-form coefficient is the antisymmetric part M(p, q) - M(q, p) of its
coefficient matrix on one coframe pair p < q.  `densities` evaluates any set
of (kind, k, q) densities from one `PullbackForms`: each power theta_i^e is
built once, the prefixes v ^ theta_0^a and (v ^ theta_0^a) ^ theta_1^b are
shared by every key that needs them, and the last factor theta_2^c enters
only through the top coefficient, a contraction
sum_mask +-X[mask] Y[top ^ mask].  The association
((v ^ theta_0^a) ^ theta_1^b) ^ theta_2^c and the summation order of
`MultiVector.wedge` are those of the plain chain of wedges, so the values are
bit-identical to it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .coeffcore import IndexRangeError, valid_index

Coeff = Union[float, np.ndarray]

__all__ = [
    "MultiVector",
    "PullbackForms",
    "build_pullbacks",
    "densities",
    "density_beta",
    "density_gamma",
    "permutation_oracle",
    "merge_sign",
]


@functools.lru_cache(maxsize=None)
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
        """Products in the order of self's terms, then other's; each output
        coefficient sums its terms left to right.  Every stored coefficient is
        a fresh product, so the sums run in place (x - p is x + (-p) exactly)."""
        out: Dict[int, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                p = c1 * c2
                if merge_sign(m1, m2) > 0:
                    if m in out:
                        out[m] += p
                    else:
                        out[m] = p
                elif m in out:
                    out[m] -= p
                else:
                    out[m] = -p
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
    quadratic in the entries of h.  Every coefficient is built from the rows
    H[a][b]: a Python float for a single h, the contiguous row h[:, a, b] of a
    batch-last copy for a batch, so one code path serves both.  The two-forms
    take the pairs p < q in row-major order, each with coefficient
    T(p, q) - T(q, p) (theta_1) or A(p, q) - A(q, p) (theta_0); terms that are
    zero at every point are dropped.
    """
    arr, n, single = _as_batch(h, n)
    d = 2 * n - 1
    if single:
        H = arr[0].tolist()
        ones = 1.0
        nonzero = bool
    else:
        H = [list(rows) for rows in np.ascontiguousarray(arr.transpose(1, 2, 0))]
        ones = np.ones(arr.shape[0])
        nonzero = np.ndarray.any

    # frame slot 0 is the Hopf direction, slots 2i-3 and 2i-2 are e_i and Je_i
    frames = [(H[e], H[e + 1]) for e in range(1, d, 2)]

    # Both matrices are sums from 0.0, as if accumulated into zeros: 0.0 + x
    # turns a -0.0 entry of h into 0.0, and the coefficients keep that bit.
    def T(p: int, q: int) -> Coeff:
        # theta_1's matrix: T[Hopf] = 0, T[e_i] = h[Je_i], T[Je_i] = -h[e_i]
        if p == 0:
            return 0.0
        return 0.0 + H[p + 1][q] if p % 2 else 0.0 - H[p - 1][q]

    def A(p: int, q: int) -> Coeff:
        # theta_0's matrix: sum_i h[e_i, p] h[Je_i, q], in order of i
        a = 0.0
        for he, hj in frames:
            a = a + he[p] * hj[q]
        return a

    def form(terms) -> MultiVector:
        return MultiVector(d, {mask: c for mask, c in terms if nonzero(c)})

    pairs = [(p, q, (1 << p) | (1 << q)) for p in range(d) for q in range(p + 1, d)]
    return PullbackForms(
        beta=MultiVector(d, {1 << 0: ones}),
        gamma=form((1 << j, H[0][j]) for j in range(d)),
        theta0=form((mask, A(p, q) - A(q, p)) for p, q, mask in pairs),
        theta1=form((mask, T(p, q) - T(q, p)) for p, q, mask in pairs),
        theta2=MultiVector(d, {(1 << p) | (1 << (p + 1)): ones for p in range(1, d, 2)}),
    )


def _check_beta_index(n: int, k: int, q: int) -> None:
    if not valid_index(n, k, q) or k == 2 * q:
        raise IndexRangeError(f"beta density undefined for n={n}, k={k}, q={q}")


def _check_gamma_index(n: int, k: int, q: int) -> None:
    if not valid_index(n, k, q) or n == k - q:
        raise IndexRangeError(f"gamma density undefined for n={n}, k={k}, q={q}")


def _exponents(kind: str, n: int, k: int, q: int) -> Tuple[int, int, int]:
    """Powers (a, b, c) of theta_0, theta_1, theta_2 in the (k, q) density."""
    if kind == "beta":
        return n - k + q, k - 2 * q - 1, q
    return n - k + q - 1, k - 2 * q, q


def _top_of_wedge(x: MultiVector, y: MultiVector) -> Coeff:
    """Top coefficient of x ^ y: the terms `MultiVector.wedge` would add to the
    top mask, in its order."""
    top = (1 << x.d) - 1
    total = None
    for m1, c1 in x.terms.items():
        m2 = top ^ m1
        c2 = y.terms.get(m2)
        if c2 is None:
            continue
        p = c1 * c2
        if merge_sign(m1, m2) > 0:
            if total is None:
                total = p
            else:
                total += p
        elif total is None:
            total = -p
        else:
            total -= p
    return 0.0 if total is None else total


def densities(forms: PullbackForms, keys: Sequence[Tuple[str, int, int]]) -> List[Coeff]:
    """Top-form coefficients of the densities `keys` = [(kind, k, q), ...].

    kind "beta":  beta ^ theta_0^{n-k+q} ^ theta_1^{k-2q-1} ^ theta_2^q;
    kind "gamma": gamma ^ theta_0^{n-k+q-1} ^ theta_1^{k-2q} ^ theta_2^q.
    Keys run grouped by (kind, a, b), so only the current prefixes are held;
    each theta_i^e is built once.  Every coefficient is elementwise in the
    points, so the caller bounds the size of the powers by the size of the
    batch (`valuations.QUADRATURE_CHUNK`).  The index range is the caller's
    to check.
    """
    d = forms.theta2.d
    n = (d + 1) // 2
    thetas = (forms.theta0, forms.theta1, forms.theta2)
    powers: Dict[Tuple[int, int], MultiVector] = {}

    def power(i: int, e: int) -> MultiVector:
        if (i, e) not in powers:
            powers[(i, e)] = thetas[i].wedge_pow(e)
        return powers[(i, e)]

    def times_power(x: MultiVector, i: int, e: int) -> MultiVector:
        # theta^0 is the scalar 1, and x * 1.0 is x exactly
        return x if e == 0 else x.wedge(power(i, e))

    exps = {(kind, k, q): _exponents(kind, n, k, q) for kind, k, q in keys}
    out: Dict[Tuple[str, int, int], Coeff] = {}
    group_a = group_ab = None
    for key in sorted(exps, key=lambda key: (key[0], exps[key])):
        kind = key[0]
        a, b, c = exps[key]
        if group_a != (kind, a):
            group_a, group_ab = (kind, a), None
            xa = times_power(forms.beta if kind == "beta" else forms.gamma, 0, a)
        if group_ab != (kind, a, b):
            group_ab = (kind, a, b)
            xab = times_power(xa, 1, b)
        out[key] = _top_of_wedge(xab, power(2, c))
    return [out[key] for key in keys]


def density_beta(n: int, k: int, q: int, h: np.ndarray) -> Coeff:
    """The beta density of `densities` at h.

    The caller applies the normalization c_{n,k,q}; the result is a polynomial
    of degree 2n-k-1 in the entries of h.
    """
    _check_beta_index(n, k, q)
    return densities(build_pullbacks(h, n), [("beta", k, q)])[0]


def density_gamma(n: int, k: int, q: int, h: np.ndarray) -> Coeff:
    """The gamma density of `densities` at h.

    The caller applies the normalization c_{n,k,q}/2.
    """
    _check_gamma_index(n, k, q)
    return densities(build_pullbacks(h, n), [("gamma", k, q)])[0]


# ---------------------------------------------------------------------------
# Independent oracle: Leibniz expansion over permutations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _signed_permutations(d: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Every permutation of range(d) with its sign, in lexicographic order."""
    return tuple((perm, _perm_sign(perm)) for perm in itertools.permutations(range(d)))


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


Matrix = List[List[float]]


def _oracle_two_forms(n: int, h: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Dense antisymmetric matrices of theta_0, theta_1, theta_2 built by loops
    over the nested list h."""
    d = 2 * n - 1
    t0 = [[0.0] * d for _ in range(d)]
    t1 = [[0.0] * d for _ in range(d)]
    t2 = [[0.0] * d for _ in range(d)]
    for i in range(2, n + 1):
        pe = 2 * (i - 2) + 1
        pj = pe + 1
        he, hj = h[pe], h[pj]
        t2[pe][pj] += 1.0
        t2[pj][pe] -= 1.0
        for j in range(d):
            t1[pe][j] += hj[j]
            t1[j][pe] -= hj[j]
            t1[pj][j] -= he[j]
            t1[j][pj] += he[j]
            for l in range(d):
                t0[j][l] += he[j] * hj[l]
                t0[l][j] -= he[j] * hj[l]
    return t0, t1, t2


def permutation_oracle(kind: str, n: int, k: int, q: int, h: np.ndarray) -> float:
    """Evaluate the same density by explicit Leibniz expansion over permutations.

    Cost grows as (2n-1)!; restricted to n <= 3.  Shares no code with the
    bitmask engine.  Everything runs on Python floats: h, the vector and the
    dense two-form matrices are nested lists, so each product and sum is the
    one IEEE double operation numpy would make.
    """
    if n > 3:
        raise ValueError("permutation oracle limited to n <= 3")
    h = np.asarray(h, dtype=float).tolist()
    d = 2 * n - 1
    if kind == "beta":
        _check_beta_index(n, k, q)
        vec = [1.0] + [0.0] * (d - 1)
        exps = (n - k + q, k - 2 * q - 1, q)
    elif kind == "gamma":
        _check_gamma_index(n, k, q)
        vec = h[0]
        exps = (n - k + q - 1, k - 2 * q, q)
    else:
        raise ValueError("kind must be 'beta' or 'gamma'")
    t0, t1, t2 = _oracle_two_forms(n, h)
    mats = [t0] * exps[0] + [t1] * exps[1] + [t2] * exps[2]
    total = 0.0
    for perm, sign in _signed_permutations(d):
        v = vec[perm[0]]
        if v == 0.0:
            continue
        p = v
        for t, M in enumerate(mats):
            p *= M[perm[1 + 2 * t]][perm[2 + 2 * t]]
            if p == 0.0:
                break
        else:
            total += sign * p
    return total / 2 ** len(mats)
