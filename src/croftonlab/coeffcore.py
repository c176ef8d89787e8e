"""Exact coefficient tables for curvature integrals in complex space forms.

Everything in this module is exact: every coefficient is a monomial c * pi^p
with c rational and p an integer (`PiScalar`), and the undetermined
Grassmannian volume vol(G^C_{n-1,r}) is kept as an opaque formal unit per
(n, r).  No floats enter until a caller asks a `PiScalar` for its numerical
value.

Volumes, normalizations, index lists and tables depend only on a few small
integers, so their constructors are memoized (`functools.cache`): each value
is computed once per process.  The values are read-only: `PiScalar`,
`CoeffTable` and `VariationOperator` refuse attribute assignment, their maps
are `MappingProxyType`s and their lists are tuples.

Contents:
  * `PiScalar`            -- exact monomial c * pi^p
  * ball/sphere volumes   -- omega_m, O_m
  * `form_norm_coeff`     -- the normalization c_{n,k,q} of the invariant forms
  * `CoeffTable`          -- epsilon-graded tables of whole coefficients for
                             the Crofton formula, the Gauss-Bonnet formula and
                             the total Gauss curvature average; the first three
                             are one bracket (`_graded_bracket`), Gauss-Bonnet
                             being its r = n case and the flat table its eps^0
                             part; the short Gauss-Bonnet form reads the first
  * `VariationOperator`   -- first-variation coefficients of the boundary
                             valuations B_{k,q}, Gamma_{2q,q} and the volume,
                             in the primed normalization (`_primed_unit`)
  * consistency checks    -- the linear-system solver, whose solution must be
                             the primed `flat_crofton_coeffs`; the
                             combinatorial cancellation identity; the
                             epsilon-independence of the varied
                             `crofton_coeffs` (its remainder must be
                             `crofton_variation_coeffs`) and of the varied
                             `gauss_bonnet_coeffs` (no remainder); and the
                             short Gauss-Bonnet form
                             (`short_gauss_bonnet_coeffs`), which holds
                             exactly when vol(G^C_{n-1,n-1}) = 1
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import comb, factorial, pi as _PI
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "PiScalar",
    "IndexRangeError",
    "SingularSystemError",
    "CoeffTable",
    "VariationOperator",
    "CroftonSystemSolution",
    "ball_volume_coeff",
    "sphere_volume_coeff",
    "form_norm_coeff",
    "valid_index",
    "beta_indices",
    "gamma_indices",
    "mu_indices",
    "crofton_coeffs",
    "flat_crofton_coeffs",
    "gauss_bonnet_coeffs",
    "total_gauss_coeffs",
    "variation_operator",
    "crofton_variation_coeffs",
    "solve_crofton_system",
    "verify_cancellation_identity",
    "check_epsilon_independence",
    "short_gauss_bonnet_coeffs",
    "verify_short_gauss_bonnet",
]


class IndexRangeError(ValueError):
    """Raised when a (k, q) pair falls outside the admissible index range."""


class SingularSystemError(RuntimeError):
    """Raised if the Crofton coefficient system is singular (must not happen)."""


# ---------------------------------------------------------------------------
# PiScalar: exact monomials c * pi^p
# ---------------------------------------------------------------------------


class PiScalar:
    """Exact monomial coeff * pi**power: a rational times an integer power of pi.

    Every coefficient of the tables is one: every unit ball volume, including
    the odd-dimensional omega_{2j+1} = 2^{j+1} pi^j / (2j+1)!!, is a rational
    multiple of an integer power of pi.  Products, quotients and powers add
    exponents; a sum is defined for equal powers or a zero term, and any other
    sum, which is no monomial, raises ValueError.  Zero has power 0.  The float
    value is computed once, with the monomial.
    """

    __slots__ = ("coeff", "power", "_float")

    def __init__(self, coeff: RationalLike = 0, power: int = 0):
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if power != int(power):
            raise ValueError(f"pi power must be an integer, got {power}")
        p = int(power) if c else 0
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "_float", float(c) * _PI ** p)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "PiScalar":
        if isinstance(other, PiScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PiScalar(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "PiScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.coeff:
            return self
        if not self.coeff:
            return o
        if self.power != o.power:
            raise ValueError(f"{self} + {o} is not a monomial in pi")
        return PiScalar(self.coeff + o.coeff, self.power)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.power)

    def __sub__(self, other) -> "PiScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "PiScalar":
        return self._coerce(other) - self

    def __mul__(self, other) -> "PiScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PiScalar(self.coeff * o.coeff, self.power + o.power)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PiScalar(self.coeff / o.coeff, self.power - o.power)

    def __rtruediv__(self, other) -> "PiScalar":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "PiScalar":
        return PiScalar(self.coeff ** k, self.power * k)

    # -- predicates / conversions -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeff == o.coeff and self.power == o.power

    def __hash__(self) -> int:
        return hash((self.coeff, self.power))

    def to_float(self) -> float:
        return self._float

    def __repr__(self) -> str:
        return f"{self.coeff}" if self.power == 0 else f"{self.coeff}*pi^{self.power}"

    def coeff_json(self) -> Dict[str, str]:
        c = self.coeff
        return {"num": str(c.numerator), "den": str(c.denominator), "piPow": str(self.power)}


# ---------------------------------------------------------------------------
# Unit ball / sphere volumes and the form normalization constants
# ---------------------------------------------------------------------------


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@cache
def ball_volume_coeff(m: int) -> PiScalar:
    """omega_m, the m-dimensional volume of the euclidean unit ball, exactly.

    omega_{2j} = pi^j / j!,  omega_{2j+1} = 2^{j+1} pi^j / (2j+1)!!.
    """
    if m < 0:
        raise ValueError("dimension must be non-negative")
    if m % 2 == 0:
        j = m // 2
        return PiScalar(Fraction(1, factorial(j)), j)
    j = (m - 1) // 2
    return PiScalar(Fraction(2 ** (j + 1), _double_factorial(2 * j + 1)), j)


@cache
def sphere_volume_coeff(m: int) -> PiScalar:
    """O_m = (m+1) * omega_{m+1}, the volume of the euclidean unit m-sphere."""
    if m < 0:
        raise ValueError("dimension must be non-negative")
    return ball_volume_coeff(m + 1) * (m + 1)


def valid_index(n: int, k: int, q: int) -> bool:
    """max{0, k-n} <= q <= floor(k/2) < n, with k, q integers >= 0."""
    return 0 <= k <= 2 * n - 1 and max(0, k - n) <= q <= k // 2


# coeffcore's own checks run inside memoized constructors, that is only while
# a cache is cold; they use this private name so that the calls of the public
# `valid_index` (which bench/tracing.py counts) do not depend on cache state
_valid_index = valid_index


def _require_index(n: int, k: int, q: int) -> None:
    if not _valid_index(n, k, q):
        raise IndexRangeError(f"(k={k}, q={q}) outside admissible range for n={n}")


@cache
def form_norm_coeff(n: int, k: int, q: int) -> PiScalar:
    """c_{n,k,q} = 1 / (q! (n-k+q)! (k-2q)! omega_{2n-k})."""
    _require_index(n, k, q)
    denom = factorial(q) * factorial(n - k + q) * factorial(k - 2 * q)
    return PiScalar(Fraction(1, denom)) / ball_volume_coeff(2 * n - k)


@cache
def mu_indices(n: int) -> Tuple[Tuple[int, int], ...]:
    """All admissible (k, q); mu_{k,q} is B_{k,q} for k != 2q, Gamma_{2q,q} else."""
    return tuple(
        (k, q)
        for k in range(0, 2 * n)
        for q in range(max(0, k - n), k // 2 + 1)
    )


@cache
def beta_indices(n: int) -> Tuple[Tuple[int, int], ...]:
    """Admissible (k, q) for the beta-type valuations (k != 2q)."""
    return tuple((k, q) for (k, q) in mu_indices(n) if k != 2 * q)


@cache
def gamma_indices(n: int) -> Tuple[Tuple[int, int], ...]:
    """Admissible (k, q) for the gamma-type valuations (n != k - q)."""
    return tuple((k, q) for (k, q) in mu_indices(n) if n != k - q)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffTable:
    """Epsilon-graded coefficient table of a valuation identity.

    The identity reads

        LHS = sum_{(k,q,p)} entries[(k,q,p)] * eps^p * mu_{k,q}
              + sum_p vol[p] * eps^p * vol(domain)

    optionally times the formal unit vol(G^C_{n-1,r}) when `grassmannian`
    is set.  Every coefficient is whole: a plane table's binomial factor
    binom(n-1, r)^{-1} is folded into its entries and volume coefficients, so
    e.g. the volume entry of the Crofton table is exactly (r+1) /
    binom(n-1, r) at eps-power r.  Tables are read-only.
    """

    n: int
    r: Optional[int]
    entries: Mapping[Tuple[int, int, int], PiScalar]
    vol: Mapping[int, PiScalar]
    grassmannian: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "vol", MappingProxyType(dict(self.vol)))
        for (k, q, p) in self.entries:
            _require_index(self.n, k, q)
            if p < 0:
                raise IndexRangeError(f"negative eps power {p}")

    def scaled(self, s: PiScalar) -> "CoeffTable":
        return replace(self, entries={key: v * s for key, v in self.entries.items()},
                       vol={p: v * s for p, v in self.vol.items()})

    def same_coefficients(self, other: "CoeffTable") -> bool:
        """Exact equality of the nonzero coefficients (symbolic flag aside)."""
        def nonzero(coeffs: Mapping) -> dict:
            return {key: v for key, v in coeffs.items() if v}
        return (nonzero(self.entries) == nonzero(other.entries)
                and nonzero(self.vol) == nonzero(other.vol))

    def eval(self, mu: Dict[Tuple[int, int], float], vol: float, eps: float) -> float:
        """Numeric value of the identity, excluding any formal vol(G^C) unit."""
        total = 0.0
        for (k, q, p), c in sorted(self.entries.items()):
            total += c.to_float() * (eps ** p) * mu[(k, q)]
        for p, c in sorted(self.vol.items()):
            total += c.to_float() * (eps ** p) * vol
        return total

    def to_json(self) -> Dict[str, object]:
        ent = [
            {"k": k, "q": q, "epsPow": p, "coeff": self.entries[(k, q, p)].coeff_json()}
            for (k, q, p) in sorted(self.entries)
        ]
        volent = [{"epsPow": p, "coeff": c.coeff_json()} for p, c in sorted(self.vol.items())]
        return {
            "n": self.n,
            "r": self.r,
            "grassmannianFactor": self.grassmannian,
            "entries": ent,
            "vol": volent,
        }


def _require_plane_dim(n: int, r: int) -> None:
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")


def _graded_bracket(n: int, r: int) -> CoeffTable:
    """The eps-graded bracket of the r-plane measure (1 <= r <= n, and r = 0
    at n = 1):

        eps^r (r+1) vol + sum_{j=n-r}^{n-1} eps^{j-n+r} omega_{2n-2j} binom(n,j)^{-1}
            [ (j-n+r+1) mu_{2j,j} + sum_{q<j} binom(2j-2q, j-q) 4^{q-j} mu_{2j,q} ].

    r = n is the Gauss-Bonnet bracket; at n = 1, r = 0 the sum is empty and
    the bracket is the measure of points, vol.  The public tables fold in
    their binomial factor and add their formal unit.
    """
    entries: Dict[Tuple[int, int, int], PiScalar] = {}
    for j in range(n - r, n):
        w = ball_volume_coeff(2 * n - 2 * j) * Fraction(1, comb(n, j))
        p = j - (n - r)
        for q in range(max(0, 2 * j - n), j + 1):
            a = j - q
            entries[(2 * j, q, p)] = w * (p + 1 if a == 0 else Fraction(comb(2 * a, a), 4 ** a))
    return CoeffTable(n=n, r=r, entries=entries, vol={r: PiScalar(r + 1)})


def _plane_table(n: int, r: int) -> CoeffTable:
    _require_plane_dim(n, r)
    table = _graded_bracket(n, r).scaled(PiScalar(Fraction(1, comb(n - 1, r))))
    return replace(table, grassmannian=True)


@cache
def crofton_coeffs(n: int, r: int) -> CoeffTable:
    """Measure of complex r-planes meeting a domain, as a mu-table.

    The entries are `_graded_bracket(n, r)` divided by binom(n-1, r):
    mu_{2j,q} at eps-power j-(n-r) for j = n-r..n-1, plus the volume entry
    (r+1) / binom(n-1, r) at eps-power r; everything is relative to the
    formal unit vol(G^C_{n-1,r}).
    """
    return _plane_table(n, r)


@cache
def flat_crofton_coeffs(n: int, r: int) -> CoeffTable:
    """Flat-space (eps = 0) Crofton table: the eps^0 entries of `crofton_coeffs`.

    Coefficient of mu_{2n-2r,q}:  omega_{2r} binom(n,r)^{-1} binom(2n-2r-2q, n-r-q) / 4^{n-r-q},
    divided by binom(n-1,r), relative to vol(G^C_{n-1,r}).
    """
    table = _plane_table(n, r)
    return replace(table, entries={key: c for key, c in table.entries.items() if key[2] == 0},
                   vol={})


@cache
def gauss_bonnet_coeffs(n: int) -> CoeffTable:
    """Gauss-Bonnet table: O_{2n-1} * chi = eval(table) on any regular domain.

    It is 2n times the r = n bracket: 2n omega_{2m} binom(n,j)^{-1} =
    O_{2m-1} binom(n-1,j)^{-1} for m = n-j.
    """
    if n < 1:
        raise IndexRangeError("need n >= 1")
    return replace(_graded_bracket(n, n), r=None).scaled(PiScalar(2 * n))


@cache
def total_gauss_coeffs(n: int, r: int) -> CoeffTable:
    """Average of the total Gauss curvature of complex r-plane sections (eps=0).

    Coefficient of mu_{2n-2r,q}:
        2r omega_{2r}^2 binom(n,r)^{-1} binom(2n-2r-2q, n-r-q) / 4^{n-r-q},
    divided by binom(n-1,r), relative to vol(G^C_{n-1,r}).
    """
    _require_plane_dim(n, r)
    entries: Dict[Tuple[int, int, int], PiScalar] = {}
    w = ball_volume_coeff(2 * r) ** 2 * Fraction(2 * r, comb(n, r) * comb(n - 1, r))
    for q in range(max(0, n - 2 * r), n - r + 1):
        a = n - r - q
        entries[(2 * n - 2 * r, q, 0)] = w * Fraction(comb(2 * a, a), 4 ** a)
    return CoeffTable(n=n, r=r, entries=entries, vol={}, grassmannian=True)


# ---------------------------------------------------------------------------
# Variation operator (first variation of the boundary valuations)
# ---------------------------------------------------------------------------

# Keys are ("B", k, q), ("G", 2q, q) or "vol"; targets are
# (kind, k', q', eps_power, coefficient).  The "primed" normalization writes
# each valuation as unit * primed valuation (`_primed_unit`): it removes the
# c_{n,k,q} factors (and doubles Gamma), leaving pure rational coefficients in
# the operator and in the tables; the public operator restores them as exact
# PiScalars.

Key = Union[Tuple[str, int, int], str]
PrimedTarget = Tuple[str, int, int, int, Fraction]
Target = Tuple[str, int, int, int, PiScalar]
Graded = Dict[Key, Dict[int, Fraction]]


def _primed_unit(n: int, key: Key) -> PiScalar:
    """c_{n,k,q} for B_{k,q}, c_{n,k,q} / 2 for Gamma_{k,q}, 1 for vol."""
    if key == "vol":
        return PiScalar(1)
    kind, k, q = key  # type: ignore[misc]
    c = form_norm_coeff(n, k, q)
    return c / 2 if kind == "G" else c


def _primed(n: int, graded: Mapping[Key, Mapping[int, PiScalar]]) -> Graded:
    """Primed coefficients (key -> eps power -> rational).

    Zeros are dropped; a coefficient that keeps a power of pi raises ValueError.
    """
    out: Graded = {}
    for key, by_power in graded.items():
        unit = _primed_unit(n, key)
        for p, c in by_power.items():
            x = c * unit
            if x.power:
                raise ValueError(f"primed coefficient {x} of {key} is not rational")
            if x:
                out.setdefault(key, {})[p] = x.coeff
    return out


def _primed_table(table: CoeffTable) -> Graded:
    """A table's primed coefficients: mu_{k,q} is Gamma for k = 2q, else B."""
    graded: Dict[Key, Dict[int, PiScalar]] = {"vol": dict(table.vol)}
    for (k, q, p), c in table.entries.items():
        graded.setdefault(("G" if k == 2 * q else "B", k, q), {})[p] = c
    return _primed(table.n, graded)


def _delta_B_primed(n: int, k: int, q: int) -> List[PrimedTarget]:
    _require_index(n, k, q)
    if k == 2 * q:
        raise IndexRangeError("B source requires k != 2q")
    raw = [
        ("G", k - 1, q, 0, Fraction((k - 2 * q) ** 2)),
        ("G", k - 1, q - 1, 0, Fraction(-(n + q - k) * q)),
        ("B", k - 1, q - 1, 0, Fraction((2 * (n + q - k) + 1) * q)),
        ("B", k - 1, q, 0, Fraction(-2 * (k - 2 * q) * (k - 2 * q - 1))),
        ("B", k + 1, q + 1, 1, Fraction(2 * (k - 2 * q) * (k - 2 * q - 1))),
        ("B", k + 1, q, 1, Fraction(-(n - k + q) * (2 * q + 1))),
    ]
    return _validated(n, raw)


def _delta_G_primed(n: int, q: int) -> List[PrimedTarget]:
    _require_index(n, 2 * q, q)
    raw = [
        ("G", 2 * q - 1, q - 1, 0, Fraction(-2 * (n - q) * q)),
        ("B", 2 * q - 1, q - 1, 0, Fraction(2 * q * (2 * (n - q) + 1))),
        ("B", 2 * q + 1, q, 1, Fraction(2 * (q + 1) - 2 * (n - q) * (4 * q + 3))),
        ("G", 2 * q + 1, q, 1, Fraction(2 * (n - q - 1) * (q + 1))),
        ("B", 2 * q + 3, q + 1, 2, Fraction(2 * (n - q - 1) * (2 * q + 3))),
    ]
    return _validated(n, raw)


def _validated(n: int, raw: Iterable[PrimedTarget]) -> List[PrimedTarget]:
    out = []
    for kind, k, q, p, c in raw:
        if c == 0:
            continue
        # nonzero coefficients must always point at admissible valuations
        _require_index(n, k, q)
        if kind == "B" and k == 2 * q:
            raise IndexRangeError(f"nonzero coefficient on undefined B_{{{k},{q}}}")
        if kind == "G" and n == k - q:
            raise IndexRangeError(f"nonzero coefficient on undefined Gamma_{{{k},{q}}}")
        out.append((kind, k, q, p, c))
    return out


@dataclass(frozen=True)
class VariationOperator:
    """delta_X applied to B_{k,q}, Gamma_{2q,q} and vol, as coefficient tuples.

    `primed` holds rational coefficients in the primed normalization (valuation
    divided by c_{n,k,q}, Gamma additionally doubled); `targets` restores the
    exact PiScalar coefficients of the unprimed statement.  Operators are
    read-only.
    """

    n: int
    primed: Mapping[Key, Tuple[PrimedTarget, ...]]

    def __post_init__(self) -> None:
        primed = {key: tuple(targets) for key, targets in self.primed.items()}
        object.__setattr__(self, "primed", MappingProxyType(primed))

    def keys(self) -> Tuple[Key, ...]:
        return tuple(self.primed)

    def targets(self, key: Key) -> Tuple[Target, ...]:
        """Unprimed targets: delta(source) = sum coeff * eps^p * tilde(target)."""
        return _unprimed_targets(self.n, key, self.primed[key])


@cache
def _unprimed_targets(n: int, key: Key, primed: Tuple[PrimedTarget, ...]) -> Tuple[Target, ...]:
    """`VariationOperator.targets`, built once per operator row."""
    src = _primed_unit(n, key)
    return tuple(
        (kind, k, q, p, src / _primed_unit(n, (kind, k, q)) * c) for kind, k, q, p, c in primed
    )


@cache
def variation_operator(n: int) -> VariationOperator:
    if n < 1:
        raise IndexRangeError("need n >= 1")
    primed: Dict[Key, List[PrimedTarget]] = {}
    for (k, q) in beta_indices(n):
        primed[("B", k, q)] = _delta_B_primed(n, k, q)
    for q in range(0, n):
        primed[("G", 2 * q, q)] = _delta_G_primed(n, q)
    # delta vol = 2 tilde{B}_{2n-1,n-1}, and c_{n,2n-1,n-1} = 1 / (2 (n-1)!)
    primed["vol"] = [("B", 2 * n - 1, n - 1, 0, Fraction(1, factorial(n - 1)))]
    return VariationOperator(n=n, primed=primed)


@cache
def crofton_variation_coeffs(n: int, r: int) -> Mapping[Tuple[int, int], PiScalar]:
    """Coefficients of tilde{B}_{2n-2r-1,q} in the variation of the plane measure.

    Relative to the formal vol(G^C_{n-1,r}); like `crofton_coeffs`, it
    includes the binom(n-1,r)^{-1} factor, so both pair under one kappa.
    """
    _require_plane_dim(n, r)
    base = (
        ball_volume_coeff(2 * r + 1)
        * Fraction(r + 1, comb(n - 1, r) * comb(n, r))
    )
    out: Dict[Tuple[int, int], PiScalar] = {}
    for q in range(max(0, n - 2 * r - 1), n - r):
        a = n - r - q
        c = base * Fraction(comb(2 * a - 1, a), 4 ** (a - 1))
        out[(2 * n - 2 * r - 1, q)] = c
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# Epsilon independence of the varied plane-measure and Gauss-Bonnet tables
# ---------------------------------------------------------------------------


def _apply_primed(op: VariationOperator, table: Graded) -> Graded:
    """Contract the primed operator with a primed eps-graded table; zeros dropped."""
    out: Graded = {}
    for key, graded in table.items():
        for p0, c0 in graded.items():
            for kind, k, q, p, c in op.primed[key]:
                slot = out.setdefault((kind, k, q), {})
                slot[p0 + p] = slot.get(p0 + p, Fraction(0)) + c0 * c
    out = {key: {p: c for p, c in graded.items() if c} for key, graded in out.items()}
    return {key: graded for key, graded in out.items() if graded}


def check_epsilon_independence(n: int, r: int) -> bool:
    """The variation of the graded table keeps no eps-graded term (1 <= r <= n).

    Applied to the primed `crofton_coeffs(n, r)`, the variation operator leaves
    exactly the primed `crofton_variation_coeffs(n, r)`, all at eps^0; applied
    to `gauss_bonnet_coeffs(n)` (r = n) it leaves nothing.  A table
    coefficient that keeps a power of pi when primed fails the check.
    """
    if not (1 <= r <= n):
        raise IndexRangeError(f"need 1 <= r <= n, got r={r}, n={n}")
    try:
        if r == n:
            table, expected = gauss_bonnet_coeffs(n), {}
        else:
            table = crofton_coeffs(n, r)
            flat = crofton_variation_coeffs(n, r)
            expected = _primed(n, {("B", k, q): {0: c} for (k, q), c in flat.items()})
        return _apply_primed(variation_operator(n), _primed_table(table)) == expected
    except ValueError:  # a coefficient that is no rational multiple of its unit
        return False


# ---------------------------------------------------------------------------
# The linear system determining the flat Crofton coefficients
# ---------------------------------------------------------------------------


@dataclass
class CroftonSystemSolution:
    """Solution (C_q, D) of the flat-space coefficient system.

    Values are exact rational multiples of the formal unit vol(G^C_{n-1,r});
    the table identity is  integral = sum_q C[q] B'_{2n-2r,q} + D Gamma'_{...}.
    """

    n: int
    r: int
    D: Fraction
    C: Dict[int, Fraction]

    def closed_form_matches(self) -> bool:
        """(D, C) are the primed coefficients of `flat_crofton_coeffs(n, r)`."""
        k = 2 * (self.n - self.r)
        solved = {("G", k, self.n - self.r): {0: self.D}}
        solved.update({("B", k, q): {0: c} for q, c in self.C.items()})
        return _primed_table(flat_crofton_coeffs(self.n, self.r)) == solved

    def d_equation_residuals(self) -> Dict[int, Fraction]:
        """Back-substitute into the defining equations d_{n-r-a} = 0."""
        n, r = self.n, self.r
        res: Dict[int, Fraction] = {}
        qD = n - r
        if qD - 1 in self.C:
            res[1] = 4 * self.C[qD - 1] - 2 * r * (n - r) * self.D
        for a in range(2, r + 1):
            q = n - r - a
            if q in self.C and q + 1 in self.C:
                res[a] = 4 * a * a * self.C[q] - (r - a + 1) * (n - r - a + 1) * self.C[q + 1]
        return res


def _solve_rational(A: List[List[Fraction]], b: List[Fraction]) -> List[Fraction]:
    """Exact Gaussian elimination with partial pivoting over Q."""
    m = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(m):
        piv = next((row for row in range(col, m) if M[row][col] != 0), None)
        if piv is None:
            raise SingularSystemError("coefficient system is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for row in range(m):
            if row != col and M[row][col] != 0:
                f = M[row][col]
                M[row] = [v - f * w for v, w in zip(M[row], M[col])]
    return [M[i][m] for i in range(m)]


def solve_crofton_system(n: int, r: int) -> CroftonSystemSolution:
    """Determine the flat Crofton coefficients from the variational equations.

    The ansatz sum_q C_q B'_{2n-2r,q} + D Gamma'_{2n-2r,n-r} is varied with the
    eps = 0 operator; vanishing of every Gamma-tilde coefficient plus the
    normalization at the umbilic evaluation (II restricted to the complex
    distribution = Id, where the Grassmann average of sigma_{2r} equals the
    formal total mass) closes the system.  Exact rational solve.
    """
    _require_plane_dim(n, r)
    op = variation_operator(n)
    k_deg = 2 * n - 2 * r
    qs = list(range(max(0, n - 2 * r), n - r + 1))  # unknown per q; q = n-r is D
    unknown = {q: i for i, q in enumerate(qs)}

    # rows of the variation, linear in the unknowns
    gamma_rows: Dict[Tuple[int, int], List[Fraction]] = {}
    beta_rows: Dict[Tuple[int, int], List[Fraction]] = {}
    for q in qs:
        key: Key = ("G", k_deg, q) if q == n - r else ("B", k_deg, q)
        for kind, k, tq, p, c in op.primed[key]:
            if p != 0:
                continue
            rows = gamma_rows if kind == "G" else beta_rows
            row = rows.setdefault((k, tq), [Fraction(0)] * len(qs))
            row[unknown[q]] += c

    A = [row for _, row in sorted(gamma_rows.items())]
    b = [Fraction(0)] * len(A)
    # normalization: at the umbilic evaluation each B'_{2n-2r-1,q} density is
    # 2^{2a-2} (n-1)! with a = n-r-q, and the Grassmann average is the formal unit
    norm_row = [Fraction(0)] * len(qs)
    for (k, tq), row in beta_rows.items():
        a = n - r - tq
        scale = Fraction(4 ** (a - 1) * factorial(n - 1))
        for i, c in enumerate(row):
            norm_row[i] += c * scale
    A.append(norm_row)
    b.append(Fraction(1))

    if len(A) != len(qs):
        raise SingularSystemError(
            f"system is not square: {len(A)} equations, {len(qs)} unknowns"
        )
    x = _solve_rational(A, b)
    sol = CroftonSystemSolution(
        n=n,
        r=r,
        D=x[unknown[n - r]],
        C={q: x[unknown[q]] for q in qs if q != n - r},
    )
    return sol


def verify_cancellation_identity(n: int, r: int) -> bool:
    """The combinatorial identity closing the normalization computation:

    2 (n-r)! r! sum_{a=0}^{r} [(2r-2a+1)(n-r-a) - a(2a-1)] / ((n-r-a)!(r-a)!a!a!)
        = 2 n! / (r! (n-r-1)!),   exactly.
    """
    _require_plane_dim(n, r)
    total = Fraction(0)
    for a in range(0, r + 1):
        if n - r - a < 0:
            # reciprocal factorial of a negative integer vanishes (the
            # corresponding coefficient is absent when 2r > n)
            continue
        num = (2 * r - 2 * a + 1) * (n - r - a) - a * (2 * a - 1)
        den = (
            factorial(n - r - a)
            * factorial(r - a)
            * factorial(a) ** 2
        )
        total += Fraction(num, den)
    lhs = 2 * factorial(n - r) * factorial(r) * total
    rhs = Fraction(2 * factorial(n), factorial(r) * factorial(n - r - 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# The short Gauss-Bonnet form
# ---------------------------------------------------------------------------


def short_gauss_bonnet_coeffs(n: int) -> CoeffTable:
    """The short Gauss-Bonnet form without its total-curvature term O_{2n-1} mu_{0,0}:

        sum_{0<k<n} eps^k O_{2n-2k-1} binom(n-1,k)^{-1} mu_{2k,k}
            + 2n eps^n vol + 2n eps * (hyperplane measure bracket),

    the bracket being `crofton_coeffs(n, n-1)` with its formal unit set to 1;
    at n = 1 the hyperplanes are points and the bracket is vol.  A sum across
    powers of pi raises ValueError.  The table is memoized on n and the
    function this module names `crofton_coeffs` at the call, so a replaced
    `crofton_coeffs` builds a new table.
    """
    return _short_gauss_bonnet(n, crofton_coeffs)


@cache
def _short_gauss_bonnet(n: int, crofton: Callable[[int, int], CoeffTable]) -> CoeffTable:
    """`short_gauss_bonnet_coeffs(n)` with the hyperplane table `crofton(n, n - 1)`."""
    if n < 1:
        raise IndexRangeError("need n >= 1")
    hyper = _graded_bracket(1, 0) if n == 1 else crofton(n, n - 1)
    entries = {(k, q, p + 1): c * (2 * n) for (k, q, p), c in hyper.entries.items()}
    vol = {p + 1: c * (2 * n) for p, c in hyper.vol.items()}
    for k in range(1, n):
        o = sphere_volume_coeff(2 * n - 2 * k - 1) * Fraction(1, comb(n - 1, k))
        entries[(2 * k, k, k)] = entries.get((2 * k, k, k), PiScalar()) + o
    vol[n] = vol.get(n, PiScalar()) + 2 * n
    return CoeffTable(n=n, r=None, entries=entries, vol=vol)


def verify_short_gauss_bonnet(n: int) -> bool:
    """The Gauss-Bonnet table equals `short_gauss_bonnet_coeffs(n)` plus the
    total curvature O_{2n-1} mu_{0,0}, exactly (n >= 1).

    The short form sets the formal unit vol(G^C_{n-1,n-1}) to 1, so the
    identity asserts that this unit is 1.
    """
    gb = gauss_bonnet_coeffs(n)  # n < 1 raises here, not as a swallowed ValueError
    try:
        short = short_gauss_bonnet_coeffs(n)
    except ValueError:  # a sum across powers of pi is no table coefficient
        return False
    total = {(0, 0, 0): sphere_volume_coeff(2 * n - 1)}
    return gb.same_coefficients(replace(short, entries={**short.entries, **total}))
