"""Exact coefficient tables for curvature integrals in complex space forms.

Everything in this module is exact: coefficients live in the Laurent ring
Q[pi, 1/pi], and the undetermined Grassmannian volume
vol(G^C_{n-1,r}) is kept as an opaque formal unit per (n, r).  No floats enter
until a caller asks a `PiScalar` for its numerical value.

Volumes, normalizations, index lists and tables depend only on a few small
integers, so their constructors are memoized (`functools.cache`): each value
is computed once per process.  The values are read-only: `PiScalar`,
`CoeffTable` and `VariationOperator` refuse attribute assignment, their maps
are `MappingProxyType`s and their lists are tuples.

Contents:
  * `PiScalar`            -- exact rational Laurent polynomial in pi
  * ball/sphere volumes   -- omega_m, O_m
  * `form_norm_coeff`     -- the normalization c_{n,k,q} of the invariant forms
  * `CoeffTable`          -- epsilon-graded coefficient tables for the Crofton
                             formula, the Gauss-Bonnet formula and the total
                             Gauss curvature average
  * `VariationOperator`   -- first-variation coefficients of the boundary
                             valuations B_{k,q}, Gamma_{2q,q} and the volume
  * consistency checks    -- linear-system solver reproducing the closed-form
                             Crofton coefficients, the combinatorial
                             cancellation identity, and the epsilon-independence
                             of the variation of the full graded tables
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, factorial, pi as _PI
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

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
    "implied_hyperplane_grassmannian_volume",
]


class IndexRangeError(ValueError):
    """Raised when a (k, q) pair falls outside the admissible index range."""


class SingularSystemError(RuntimeError):
    """Raised if the Crofton coefficient system is singular (must not happen)."""


# ---------------------------------------------------------------------------
# PiScalar: exact Laurent polynomials in pi
# ---------------------------------------------------------------------------


class PiScalar:
    """Exact element of Q[pi, 1/pi].

    Terms are stored as a read-only map ``pi_power -> Fraction``; zero
    coefficients are never stored.  Integer powers suffice: every unit ball
    volume, including the odd-dimensional omega_{2j+1} = 2^{j+1} pi^j / (2j+1)!!,
    is a rational multiple of an integer power of pi.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[int, Fraction]] = None):
        # dict keys are unique: convert what is not a Fraction yet, drop zeros
        object.__setattr__(self, "terms", MappingProxyType({
            p: f
            for p, c in (terms or {}).items()
            if (f := c if isinstance(c, Fraction) else Fraction(c))
        }))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiScalar":
        return cls()

    @classmethod
    def one(cls) -> "PiScalar":
        return cls({0: Fraction(1)})

    @classmethod
    def from_rational(cls, x: RationalLike) -> "PiScalar":
        return cls({0: Fraction(x)})

    @classmethod
    def pi_power(cls, power: int, coeff: RationalLike = 1) -> "PiScalar":
        """coeff * pi**power."""
        if power != int(power):
            raise ValueError(f"pi power must be an integer, got {power}")
        return cls({int(power): Fraction(coeff)})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "PiScalar":
        if isinstance(other, PiScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PiScalar.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "PiScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for p, c in o.terms.items():
            out[p] = out[p] + c if p in out else c
        return PiScalar(out)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar({p: -c for p, c in self.terms.items()})

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
        out: Dict[int, Fraction] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in o.terms.items():
                p, c = p1 + p2, c1 * c2
                out[p] = out[p] + c if p in out else c
        return PiScalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if len(o.terms) != 1:
            raise ZeroDivisionError(
                "PiScalar division only defined for nonzero monomial divisors"
            )
        (dp, dc), = o.terms.items()
        return PiScalar({p - dp: c / dc for p, c in self.terms.items()})

    def __rtruediv__(self, other) -> "PiScalar":
        return self._coerce(other) / self

    def inv(self) -> "PiScalar":
        return PiScalar.one() / self

    def __pow__(self, k: int) -> "PiScalar":
        if k < 0:
            return self.inv() ** (-k)
        out = PiScalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates / conversions -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def as_monomial(self) -> Tuple[int, int, int]:
        """Return (numerator, denominator, pi_power) for a monomial value."""
        if not self.terms:
            return (0, 1, 0)
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        (p, c), = self.terms.items()
        return (c.numerator, c.denominator, p)

    def to_float(self) -> float:
        return float(sum(float(c) * _PI ** p for p, c in self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self.terms[p]}" if p == 0 else f"{self.terms[p]}*pi^{p}"
            for p in sorted(self.terms)
        )

    def coeff_json(self) -> Dict[str, str]:
        num, den, ppow = self.as_monomial()
        return {"num": str(num), "den": str(den), "piPow": str(ppow)}


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
        return PiScalar.pi_power(j, Fraction(1, factorial(j)))
    j = (m - 1) // 2
    return PiScalar.pi_power(j, Fraction(2 ** (j + 1), _double_factorial(2 * j + 1)))


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
    return PiScalar.from_rational(Fraction(1, denom)) / ball_volume_coeff(2 * n - k)


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

        LHS = prefactor * [ sum_{(k,q,p)} entries[(k,q,p)] * eps^p * mu_{k,q}
                            + sum_p vol[p] * eps^p * vol(domain) ]

    optionally times the formal unit vol(G^C_{n-1,r}) when `grassmannian`
    is set.  `prefactor` is the rational binomial prefactor of the identity;
    entries hold the bracket coefficients so that e.g. the volume entry of the
    Crofton table is exactly (r+1) at eps-power r.  Tables are read-only.
    """

    n: int
    r: Optional[int]
    entries: Mapping[Tuple[int, int, int], PiScalar]
    vol: Mapping[int, PiScalar]
    prefactor: PiScalar = field(default_factory=PiScalar.one)
    grassmannian: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "vol", MappingProxyType(dict(self.vol)))
        for (k, q, p) in self.entries:
            _require_index(self.n, k, q)
            if p < 0:
                raise IndexRangeError(f"negative eps power {p}")

    def scaled(self, s: PiScalar) -> "CoeffTable":
        return CoeffTable(
            n=self.n,
            r=self.r,
            entries={key: v * s for key, v in self.entries.items()},
            vol={p: v * s for p, v in self.vol.items()},
            prefactor=self.prefactor,
            grassmannian=self.grassmannian,
        )

    def same_coefficients(self, other: "CoeffTable") -> bool:
        """Exact equality of prefactor-folded coefficients (symbolic flag aside)."""
        a = {key: v * self.prefactor for key, v in self.entries.items() if v}
        b = {key: v * other.prefactor for key, v in other.entries.items() if v}
        av = {p: v * self.prefactor for p, v in self.vol.items() if v}
        bv = {p: v * other.prefactor for p, v in other.vol.items() if v}
        return a == b and av == bv

    def eval(self, mu: Dict[Tuple[int, int], float], vol: float, eps: float) -> float:
        """Numeric value of the bracket, excluding any formal vol(G^C) unit."""
        total = 0.0
        for (k, q, p), c in sorted(self.entries.items()):
            total += c.to_float() * (eps ** p) * mu[(k, q)]
        for p, c in sorted(self.vol.items()):
            total += c.to_float() * (eps ** p) * vol
        return self.prefactor.to_float() * total

    def to_json(self) -> Dict[str, object]:
        ent = []
        for (k, q, p) in sorted(self.entries):
            c = self.entries[(k, q, p)] * self.prefactor
            ent.append({"k": k, "q": q, "epsPow": p, "coeff": c.coeff_json()})
        volent = [
            {"epsPow": p, "coeff": (c * self.prefactor).coeff_json()}
            for p, c in sorted(self.vol.items())
        ]
        return {
            "n": self.n,
            "r": self.r,
            "grassmannianFactor": self.grassmannian,
            "entries": ent,
            "vol": volent,
        }


@cache
def crofton_coeffs(n: int, r: int) -> CoeffTable:
    """Measure of complex r-planes meeting a domain, as a mu-table.

    Entries give the coefficient of mu_{2j,q} at eps-power j-(n-r) for
    j = n-r..n-1, plus the (r+1) volume entry at eps-power r; everything is
    relative to the symbolic prefactor vol(G^C_{n-1,r}) / binom(n-1, r).
    """
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    entries: Dict[Tuple[int, int, int], PiScalar] = {}
    for j in range(n - r, n):
        w = ball_volume_coeff(2 * n - 2 * j) * Fraction(1, comb(n, j))
        p = j - (n - r)
        for q in range(max(0, 2 * j - n), j + 1):
            if q == j:
                c = w * (j + r - n + 1)
            else:
                c = w * Fraction(comb(2 * j - 2 * q, j - q), 4 ** (j - q))
            if c:
                entries[(2 * j, q, p)] = c
    return CoeffTable(
        n=n,
        r=r,
        entries=entries,
        vol={r: PiScalar.from_rational(r + 1)},
        prefactor=PiScalar.from_rational(Fraction(1, comb(n - 1, r))),
        grassmannian=True,
    )


@cache
def flat_crofton_coeffs(n: int, r: int) -> CoeffTable:
    """Flat-space (eps = 0) Crofton table, built from its own closed form.

    Coefficient of mu_{2n-2r,q}:  omega_{2r} binom(n,r)^{-1} binom(2n-2r-2q, n-r-q) / 4^{n-r-q},
    all relative to vol(G^C_{n-1,r}) / binom(n-1,r).
    """
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    entries: Dict[Tuple[int, int, int], PiScalar] = {}
    w = ball_volume_coeff(2 * r) * Fraction(1, comb(n, r))
    for q in range(max(0, n - 2 * r), n - r + 1):
        a = n - r - q
        entries[(2 * n - 2 * r, q, 0)] = w * Fraction(comb(2 * a, a), 4 ** a)
    return CoeffTable(
        n=n,
        r=r,
        entries=entries,
        vol={},
        prefactor=PiScalar.from_rational(Fraction(1, comb(n - 1, r))),
        grassmannian=True,
    )


@cache
def gauss_bonnet_coeffs(n: int) -> CoeffTable:
    """Gauss-Bonnet table: O_{2n-1} * chi = eval(table) on any regular domain."""
    if n < 1:
        raise IndexRangeError("need n >= 1")
    entries: Dict[Tuple[int, int, int], PiScalar] = {}
    for c in range(0, n):
        w = sphere_volume_coeff(2 * n - 2 * c - 1) * Fraction(1, comb(n - 1, c))
        for q in range(max(0, 2 * c - n), c + 1):
            if q == c:
                val = w * (c + 1)
            else:
                val = w * Fraction(comb(2 * c - 2 * q, c - q), 4 ** (c - q))
            if val:
                entries[(2 * c, q, c)] = val
    return CoeffTable(
        n=n,
        r=None,
        entries=entries,
        vol={n: PiScalar.from_rational(2 * n * (n + 1))},
        prefactor=PiScalar.one(),
        grassmannian=False,
    )


@cache
def total_gauss_coeffs(n: int, r: int) -> CoeffTable:
    """Average of the total Gauss curvature of complex r-plane sections (eps=0).

    Coefficient of mu_{2n-2r,q}:
        2r omega_{2r}^2 binom(n,r)^{-1} binom(2n-2r-2q, n-r-q) / 4^{n-r-q},
    relative to vol(G^C_{n-1,r}) / binom(n-1,r).
    """
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    entries: Dict[Tuple[int, int, int], PiScalar] = {}
    w = ball_volume_coeff(2 * r) ** 2 * Fraction(2 * r, comb(n, r))
    for q in range(max(0, n - 2 * r), n - r + 1):
        a = n - r - q
        entries[(2 * n - 2 * r, q, 0)] = w * Fraction(comb(2 * a, a), 4 ** a)
    return CoeffTable(
        n=n,
        r=r,
        entries=entries,
        vol={},
        prefactor=PiScalar.from_rational(Fraction(1, comb(n - 1, r))),
        grassmannian=True,
    )


# ---------------------------------------------------------------------------
# Variation operator (first variation of the boundary valuations)
# ---------------------------------------------------------------------------

# Keys are ("B", k, q), ("G", 2q, q) or "vol"; targets are
# (kind, k', q', eps_power, coefficient).  The "primed" normalization removes
# the c_{n,k,q} factors (and doubles Gamma), leaving pure rational
# coefficients; the public operator restores them as exact PiScalars.

Key = Union[Tuple[str, int, int], str]
PrimedTarget = Tuple[str, int, int, int, Fraction]
Target = Tuple[str, int, int, int, PiScalar]


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
        n = self.n
        if key == "vol":
            # first variation of volume: 2 * tilde{B}_{2n-1, n-1}
            return (("B", 2 * n - 1, n - 1, 0, PiScalar.from_rational(2)),)
        kind, k, q = key  # type: ignore[misc]
        src = form_norm_coeff(n, k, q)
        if kind == "G":
            src = src / 2
        out = []
        for tkind, tk, tq, p, c in self.primed[key]:
            tgt = form_norm_coeff(n, tk, tq)
            if tkind == "G":
                tgt = tgt / 2
            out.append((tkind, tk, tq, p, src / tgt * c))
        return tuple(out)


@cache
def variation_operator(n: int) -> VariationOperator:
    if n < 1:
        raise IndexRangeError("need n >= 1")
    primed: Dict[Key, List[PrimedTarget]] = {}
    for (k, q) in beta_indices(n):
        primed[("B", k, q)] = _delta_B_primed(n, k, q)
    for q in range(0, n):
        primed[("G", 2 * q, q)] = _delta_G_primed(n, q)
    primed["vol"] = [("B", 2 * n - 1, n - 1, 0, Fraction(1, factorial(n - 1)))]
    return VariationOperator(n=n, primed=primed)


@cache
def crofton_variation_coeffs(n: int, r: int) -> Mapping[Tuple[int, int], PiScalar]:
    """Coefficients of tilde{B}_{2n-2r-1,q} in the variation of the plane measure.

    Relative to the formal vol(G^C_{n-1,r}); includes the binom(n-1,r)^{-1}
    prefactor so the result pairs with `crofton_coeffs` under one calibration.
    """
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")
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
# The graded bracket of the plane-measure / Gauss-Bonnet tables (primed form)
# ---------------------------------------------------------------------------


def _bracket_primed(n: int, r: int) -> Dict[Key, Dict[int, Fraction]]:
    """Primed-normalized bracket of the r-plane table (r = n: Gauss-Bonnet).

    bracket = eps^r (r+1) n! vol
              + sum_j eps^{j-n+r} [ (j-n+r+1)/2 * Gamma'_{2j,j}
                + sum_q 4^{q-j} binom(n-j, j-q) binom(j, q) * B'_{2j,q} ].
    """
    if not (1 <= r <= n):
        raise IndexRangeError(f"need 1 <= r <= n, got r={r}, n={n}")
    out: Dict[Key, Dict[int, Fraction]] = {}
    out["vol"] = {r: Fraction((r + 1) * factorial(n))}
    for j in range(n - r, n):
        p = j - (n - r)
        g = Fraction(j - n + r + 1, 2)
        if g:
            out.setdefault(("G", 2 * j, j), {})[p] = g
        for q in range(max(0, 2 * j - n), j):
            c = Fraction(comb(n - j, j - q) * comb(j, q), 4 ** (j - q))
            if c:
                out.setdefault(("B", 2 * j, q), {})[p] = c
    return out


def _apply_primed(
    op: VariationOperator, table: Dict[Key, Dict[int, Fraction]]
) -> Dict[Tuple[str, int, int], Dict[int, Fraction]]:
    """Contract the primed operator with a primed eps-graded table."""
    out: Dict[Tuple[str, int, int], Dict[int, Fraction]] = {}
    for key, graded in table.items():
        for p0, c0 in graded.items():
            for kind, k, q, p, c in op.primed[key]:
                slot = out.setdefault((kind, k, q), {})
                slot[p0 + p] = slot.get(p0 + p, Fraction(0)) + c0 * c
    return {
        key: {p: c for p, c in graded.items() if c != 0}
        for key, graded in out.items()
    }


def _flat_variation_primed(n: int, r: int) -> Dict[Tuple[str, int, int], Fraction]:
    """Primed eps^0 variation of the bracket: the flat-space closed form."""
    out: Dict[Tuple[str, int, int], Fraction] = {}
    for a in range(1, r + 2):
        if a > n - r:
            continue
        q = n - r - a
        c = Fraction(comb(n - r, a) * comb(r + 1, a) * a * 4, 4 ** a)
        if c:
            out[("B", 2 * n - 2 * r - 1, q)] = c
    return out


def check_epsilon_independence(n: int, r: int) -> bool:
    """All eps-graded terms of the varied bracket beyond grade 0 cancel exactly.

    For r < n the eps^0 remainder must equal the flat-space variation formula;
    for r = n (the Gauss-Bonnet case) the variation must vanish identically.
    """
    op = variation_operator(n)
    delta = _apply_primed(op, _bracket_primed(n, r))
    expected = {} if r == n else _flat_variation_primed(n, r)
    for (kind, k, q), graded in delta.items():
        for p, c in graded.items():
            if p >= 1 and c != 0:
                return False
            if p == 0 and c != expected.get((kind, k, q), Fraction(0)):
                return False
    for key, c in expected.items():
        if c != delta.get(key, {}).get(0, Fraction(0)):
            return False
    return True


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
        n, r = self.n, self.r
        D = Fraction(1, 2 * factorial(n)) / comb(n - 1, r)
        if self.D != D:
            return False
        for q, c in self.C.items():
            a = n - r - q
            if c != D * Fraction(comb(n - r, a) * comb(r, a), 2 ** (2 * a - 1)):
                return False
        return True

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
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")
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
    if not (1 <= r <= n - 1):
        raise IndexRangeError(f"need 1 <= r <= n-1, got r={r}, n={n}")
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
# Consistency of the two Gauss-Bonnet expressions
# ---------------------------------------------------------------------------


@cache
def implied_hyperplane_grassmannian_volume(n: int) -> PiScalar:
    """The value of vol(G^C_{n-1,n-1}) implied by the short Gauss-Bonnet form.

    Subtracting from the Gauss-Bonnet table the total-Gauss-curvature term
    O_{2n-1} mu_{0,0}, the eps^k mu_{2k,k} string and the 2n eps^n vol term
    must leave exactly 2n eps * (hyperplane Crofton table); solving any entry
    for the formal unit and checking all others yields the implied constant.
    """
    if n < 2:
        raise IndexRangeError("need n >= 2")
    gb = gauss_bonnet_coeffs(n)
    residual: Dict[Tuple[int, int, int], PiScalar] = {
        key: v * gb.prefactor for key, v in gb.entries.items()
    }
    volres: Dict[int, PiScalar] = {p: v * gb.prefactor for p, v in gb.vol.items()}

    def _sub(d, key, v):
        d[key] = d.get(key, PiScalar.zero()) - v
        if not d[key]:
            del d[key]

    _sub(residual, (0, 0, 0), sphere_volume_coeff(2 * n - 1))
    for k in range(1, n):
        _sub(
            residual,
            (2 * k, k, k),
            sphere_volume_coeff(2 * n - 2 * k - 1) * Fraction(1, comb(n - 1, k)),
        )
    _sub(volres, n, PiScalar.from_rational(2 * n))

    cr = crofton_coeffs(n, n - 1)
    implied: Optional[PiScalar] = None
    for (k, q, p), v in sorted(cr.entries.items()):
        target = v * cr.prefactor * (2 * n)
        have = residual.pop((k, q, p + 1), PiScalar.zero())
        ratio = have / target
        if implied is None:
            implied = ratio
        elif implied != ratio:
            raise AssertionError("inconsistent implied Grassmannian volume")
    for p, v in sorted(cr.vol.items()):
        target = v * cr.prefactor * (2 * n)
        have = volres.pop(p + 1, PiScalar.zero())
        if implied != have / target:
            raise AssertionError("inconsistent implied Grassmannian volume (vol)")
    if residual or volres:
        raise AssertionError(f"unmatched residual terms: {residual} {volres}")
    assert implied is not None
    return implied
