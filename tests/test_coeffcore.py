"""Exact-arithmetic tests: unit volumes, coefficient tables, identities.

Everything here is exact (Fraction / PiScalar equality); expected table values
were derived by direct substitution into the closed forms and cross-checked
against independent routes (the flat-space restriction, the solver, and the
normalization identities).
"""

from fractions import Fraction
from math import comb, factorial, pi

import pytest
from hypothesis import given, settings, strategies as st

from croftonlab import coeffcore as cc
from croftonlab.coeffcore import PiScalar


def rational(x) -> PiScalar:
    return PiScalar.from_rational(x)


def pi_pow(p, c=1) -> PiScalar:
    return PiScalar.pi_power(p, c)


# ---------------------------------------------------------------------------
# PiScalar
# ---------------------------------------------------------------------------

piscalars = st.builds(
    lambda pairs: PiScalar({p: Fraction(a, b) for p, (a, b) in pairs.items()}),
    st.dictionaries(
        st.integers(-4, 4),
        st.tuples(st.integers(-20, 20), st.integers(1, 12)),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(piscalars, piscalars, piscalars)
def test_piscalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + PiScalar.zero() == a
    assert a * PiScalar.one() == a
    assert a - a == PiScalar.zero()


@settings(max_examples=40, deadline=None)
@given(piscalars, st.integers(-3, 3), st.fractions(min_value=-5, max_value=5))
def test_piscalar_monomial_division(a, p, c):
    if c == 0:
        return
    m = PiScalar({p: Fraction(c)})
    assert (a * m) / m == a


def test_piscalar_float_and_json():
    x = pi_pow(2, Fraction(3, 4))
    assert abs(x.to_float() - 0.75 * pi**2) < 1e-15
    assert x.coeff_json() == {"num": "3", "den": "4", "piPow": "2"}
    with pytest.raises(ValueError):
        (x + rational(1)).as_monomial()


def test_piscalar_rejects_fractional_pi_powers():
    with pytest.raises(ValueError):
        PiScalar.pi_power(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Unit ball / sphere volumes and c_{n,k,q}
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,expected",
    [(0, rational(1)), (2, pi_pow(1)), (4, pi_pow(2, Fraction(1, 2)))],
)
def test_ball_volume_examples(m, expected):
    assert cc.ball_volume_coeff(m) == expected


@pytest.mark.parametrize(
    "m,expected",
    [(1, pi_pow(1, 2)), (3, pi_pow(2, 2)), (0, rational(2))],
)
def test_sphere_volume_examples(m, expected):
    assert cc.sphere_volume_coeff(m) == expected


def test_odd_ball_volumes():
    assert cc.ball_volume_coeff(1) == rational(2)
    assert cc.ball_volume_coeff(3) == pi_pow(1, Fraction(4, 3))
    assert cc.ball_volume_coeff(5) == pi_pow(2, Fraction(8, 15))


def test_sphere_ball_relations_exact():
    for m in range(0, 20):
        assert cc.sphere_volume_coeff(m) == cc.ball_volume_coeff(m + 1) * (m + 1)
    for r in range(1, 10):
        assert cc.sphere_volume_coeff(2 * r - 1) == cc.ball_volume_coeff(2 * r) * (2 * r)


@pytest.mark.parametrize(
    "n,k,q,expected",
    [
        (2, 2, 1, pi_pow(-1)),
        (2, 0, 0, pi_pow(-2)),
        (2, 2, 0, pi_pow(-1, Fraction(1, 2))),
    ],
)
def test_form_norm_examples(n, k, q, expected):
    assert cc.form_norm_coeff(n, k, q) == expected


def test_form_norm_range_errors():
    with pytest.raises(cc.IndexRangeError):
        cc.form_norm_coeff(2, 3, 0)
    with pytest.raises(cc.IndexRangeError):
        cc.form_norm_coeff(2, 4, 2)
    with pytest.raises(cc.IndexRangeError):
        cc.form_norm_coeff(3, 2, 2)


# ---------------------------------------------------------------------------
# Crofton / Gauss-Bonnet / total-Gauss tables
# ---------------------------------------------------------------------------


def test_crofton_table_2_1():
    t = cc.crofton_coeffs(2, 1)
    assert t.grassmannian and t.prefactor == rational(1)
    assert t.vol == {1: rational(2)}
    # eps = 0 coefficients fixed by the flat-space closed form: the
    # mu_{2,1} slot carries pi/2 and mu_{2,0} carries pi/4
    assert t.entries == {
        (2, 1, 0): pi_pow(1, Fraction(1, 2)),
        (2, 0, 0): pi_pow(1, Fraction(1, 4)),
    }


def test_crofton_vol_entry_3_2():
    t = cc.crofton_coeffs(3, 2)
    assert t.vol == {2: rational(3)}


def test_crofton_eps0_matches_flat_table():
    for n in range(2, 6):
        for r in range(1, n):
            cr = cc.crofton_coeffs(n, r)
            flat = cc.flat_crofton_coeffs(n, r)
            eps0 = {key: v for key, v in cr.entries.items() if key[2] == 0}
            assert eps0 == flat.entries, (n, r)


def test_crofton_range_errors():
    with pytest.raises(cc.IndexRangeError):
        cc.crofton_coeffs(2, 2)
    with pytest.raises(cc.IndexRangeError):
        cc.crofton_coeffs(2, 0)


def test_gauss_bonnet_table_n1():
    t = cc.gauss_bonnet_coeffs(1)
    assert t.vol == {1: rational(4)}
    assert t.entries == {(0, 0, 0): pi_pow(1, 2)}


def test_gauss_bonnet_table_n2():
    t = cc.gauss_bonnet_coeffs(2)
    assert t.vol == {2: rational(12)}
    assert t.entries == {
        (0, 0, 0): pi_pow(2, 2),
        (2, 0, 1): pi_pow(1),
        (2, 1, 1): pi_pow(1, 4),
    }


def test_gauss_bonnet_eps0_is_total_curvature():
    # at eps = 0 only the mu_{0,0} entry survives, with coefficient O_{2n-1}
    for n in range(1, 7):
        t = cc.gauss_bonnet_coeffs(n)
        eps0 = {key: v for key, v in t.entries.items() if key[2] == 0}
        assert eps0 == {(0, 0, 0): cc.sphere_volume_coeff(2 * n - 1)}


def test_total_gauss_2_1_values():
    t = cc.total_gauss_coeffs(2, 1)
    assert t.entries == {
        (2, 1, 0): pi_pow(2),
        (2, 0, 0): pi_pow(2, Fraction(1, 2)),
    }


def test_total_gauss_3_1_q_range():
    t = cc.total_gauss_coeffs(3, 1)
    assert sorted({(k, q) for (k, q, _) in t.entries}) == [(4, 1), (4, 2)]


def test_total_gauss_equals_sphere_times_flat_crofton():
    for n in range(2, 7):
        for r in range(1, n):
            lhs = cc.total_gauss_coeffs(n, r)
            rhs = cc.flat_crofton_coeffs(n, r).scaled(
                cc.sphere_volume_coeff(2 * r - 1)
            )
            assert lhs.same_coefficients(rhs), (n, r)


def test_table_eval_unit_ball():
    # frozen unit-ball values in C^2; the bracket equals pi^2
    mu = {(0, 0): 1.0, (1, 0): 1.5 * pi, (2, 0): 2 * pi, (2, 1): pi, (3, 1): pi**2}
    val = cc.crofton_coeffs(2, 1).eval(mu, vol=pi**2 / 2, eps=0.0)
    assert abs(val - pi**2) < 1e-12


def test_table_json_roundtrip_fields():
    d = cc.crofton_coeffs(3, 1).to_json()
    assert d["grassmannianFactor"] is True
    assert {"k", "q", "epsPow", "coeff"} <= set(d["entries"][0])
    assert {"num", "den", "piPow"} == set(d["entries"][0]["coeff"])


def test_coefftable_rejects_bad_indices():
    with pytest.raises(cc.IndexRangeError):
        cc.CoeffTable(n=2, r=1, entries={(4, 2, 0): rational(1)}, vol={})


# ---------------------------------------------------------------------------
# Linear system, cancellation identity, epsilon independence
# ---------------------------------------------------------------------------


def test_solver_small_cases():
    s21 = cc.solve_crofton_system(2, 1)
    assert s21.C[0] == s21.D / 2
    s31 = cc.solve_crofton_system(3, 1)
    assert s31.C[1] == s31.D


def test_solver_matches_closed_form_and_back_substitutes():
    for n in range(2, 9):
        for r in range(1, n):
            sol = cc.solve_crofton_system(n, r)
            assert sol.closed_form_matches(), (n, r)
            assert sol.D == Fraction(1, 2 * factorial(n) * comb(n - 1, r))
            residuals = sol.d_equation_residuals()
            assert all(v == 0 for v in residuals.values()), (n, r)


@pytest.mark.parametrize("n,r", [(2, 1), (5, 2), (10, 4)])
def test_cancellation_identity_examples(n, r):
    assert cc.verify_cancellation_identity(n, r)


def test_cancellation_identity_sweep():
    for n in range(2, 11):
        for r in range(1, n):
            assert cc.verify_cancellation_identity(n, r), (n, r)


def test_epsilon_independence():
    for n in range(1, 7):
        for r in range(1, n + 1):
            assert cc.check_epsilon_independence(n, r), (n, r)


def test_implied_hyperplane_grassmannian_volume_is_one():
    for n in range(2, 7):
        assert cc.implied_hyperplane_grassmannian_volume(n) == rational(1)


# ---------------------------------------------------------------------------
# Variation operator
# ---------------------------------------------------------------------------


def test_variation_operator_first_gamma_target():
    # delta B_{k,q} has coefficient 2 c_{n,k,q} c_{n,k-1,q}^{-1} (k-2q)^2 on
    # tilde-Gamma_{k-1,q} at eps power 0
    for (n, k, q) in [(2, 2, 0), (3, 3, 1), (3, 4, 1), (4, 5, 2)]:
        op = cc.variation_operator(n)
        targets = {
            (kind, tk, tq, p): coeff for kind, tk, tq, p, coeff in op.targets(("B", k, q))
        }
        expected = (
            cc.form_norm_coeff(n, k, q)
            / cc.form_norm_coeff(n, k - 1, q)
            * (2 * (k - 2 * q) ** 2)
        )
        assert targets[("G", k - 1, q, 0)] == expected


def test_variation_operator_eps2_target():
    # delta Gamma_{2q,q} carries c c^{-1} (n-q-1)(2q+3) on tilde-B_{2q+3,q+1}
    # at eps power 2 (the half-integer prefactor absorbed into an integer one)
    for (n, q) in [(3, 0), (3, 1), (4, 1)]:
        op = cc.variation_operator(n)
        targets = {
            (kind, tk, tq, p): coeff
            for kind, tk, tq, p, coeff in op.targets(("G", 2 * q, q))
        }
        expected = (
            cc.form_norm_coeff(n, 2 * q, q)
            / cc.form_norm_coeff(n, 2 * q + 3, q + 1)
            * ((n - q - 1) * (2 * q + 3))
        )
        assert targets[("B", 2 * q + 3, q + 1, 2)] == expected


def test_variation_operator_targets_epsilon_structure():
    # targets sit at k-1 (eps^0), k+1 (eps^1) or k+3 (eps^2), never elsewhere
    for n in (2, 3, 4):
        op = cc.variation_operator(n)
        for key in op.keys():
            if key == "vol":
                continue
            _, k, _ = key
            for kind, tk, tq, p, coeff in op.targets(key):
                assert tk - k == {0: -1, 1: 1, 2: 3}[p], (key, kind, tk, p)


def test_variation_of_volume():
    op = cc.variation_operator(3)
    assert op.targets("vol") == (("B", 5, 2, 0, rational(2)),)


def test_flat_variation_coeffs_match_primed_form():
    # unprimed coefficient of tilde-B_{2n-2r-1,q} equals the primed closed form
    # divided by n! binom(n-1,r) c_{n,k,q}
    for n in range(2, 6):
        for r in range(1, n):
            coeffs = cc.crofton_variation_coeffs(n, r)
            primed = cc._flat_variation_primed(n, r)
            for (kind, k, q), c in primed.items():
                expected = (
                    rational(Fraction(c, factorial(n) * comb(n - 1, r)))
                    / cc.form_norm_coeff(n, k, q)
                )
                assert coeffs[(k, q)] == expected, (n, r, k, q)
            assert len(coeffs) == len(primed)
