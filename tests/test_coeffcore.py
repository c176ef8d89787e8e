"""Exact-arithmetic tests: unit volumes, coefficient tables, identities.

Everything here is exact (Fraction / PiScalar equality); expected table values
were derived by direct substitution into the closed forms and cross-checked
against independent routes (the flat-space restriction, the solver, and the
normalization identities).
"""

from dataclasses import fields, replace
from fractions import Fraction
from math import comb, factorial, pi

import pytest
from hypothesis import given, settings, strategies as st

from croftonlab import checks, geom
from croftonlab import coeffcore as cc
from croftonlab.coeffcore import PiScalar


def rational(x) -> PiScalar:
    return PiScalar(x)


def pi_pow(p, c=1) -> PiScalar:
    return PiScalar(c, p)


# ---------------------------------------------------------------------------
# PiScalar
# ---------------------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
powers = st.integers(-4, 4)
piscalars = st.builds(PiScalar, fractions, powers)


@settings(max_examples=60, deadline=None)
@given(piscalars, piscalars, piscalars, fractions, fractions)
def test_piscalar_monomial_laws(a, b, c, x, y):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    # products distribute over sums of one power of pi
    u, v = PiScalar(x, b.power), PiScalar(y, b.power)
    assert a * (u + v) == a * u + a * v
    assert a - a == PiScalar(0)
    assert a * 0 == PiScalar(0) and a + 0 == a
    assert a * PiScalar(1) == a


@settings(max_examples=40, deadline=None)
@given(piscalars, powers, st.fractions(min_value=-5, max_value=5))
def test_piscalar_monomial_division(a, p, c):
    if c == 0:
        return
    m = PiScalar(c, p)
    assert (a * m) / m == a


@settings(max_examples=60, deadline=None)
@given(fractions, powers)
def test_piscalar_float_is_the_monomial_value(c, p):
    assert PiScalar(c, p).to_float() == float(c) * pi**p


def test_piscalar_float_and_json():
    x = pi_pow(2, Fraction(3, 4))
    assert x.to_float() == 0.75 * pi**2
    assert x.coeff_json() == {"num": "3", "den": "4", "piPow": "2"}
    assert PiScalar(0, 3).coeff_json() == {"num": "0", "den": "1", "piPow": "0"}


@pytest.mark.parametrize("a,b", [(pi_pow(2), rational(1)), (pi_pow(-1, 3), pi_pow(1, 3))])
def test_piscalar_sum_across_powers_of_pi_is_refused(a, b):
    with pytest.raises(ValueError, match="not a monomial"):
        a + b
    with pytest.raises(ValueError, match="not a monomial"):
        a - b


def test_piscalar_rejects_fractional_pi_powers():
    with pytest.raises(ValueError):
        PiScalar(1, Fraction(1, 2))


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
    assert t.grassmannian
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


def test_plane_tables_carry_whole_coefficients():
    # binom(n-1, r)^{-1} is folded into every coefficient: no separate factor
    # is stored, and eval returns the whole value
    assert PiScalar() == rational(0)
    assert [f.name for f in fields(cc.CoeffTable)] == ["n", "r", "entries", "vol", "grassmannian"]
    for n in range(2, 7):
        for r in range(1, n):
            whole = rational(Fraction(r + 1, comb(n - 1, r)))
            assert cc.crofton_coeffs(n, r).vol == {r: whole}, (n, r)
    table = cc.crofton_coeffs(4, 1)
    mu = {key: 0.0 for key in cc.mu_indices(4)}
    assert table.eval(mu, 1.0, 1.0) == 2 / 3
    # the total-Gauss mu_{6,3} coefficient: 2r omega_{2r}^2 / (binom(n,r) binom(n-1,r))
    assert cc.total_gauss_coeffs(4, 1).entries[(6, 3, 0)] == pi_pow(2, Fraction(1, 6))


def _doubled(table, key):
    """`table` with one coefficient doubled: entry (k, q, p), or the volume term at eps^key."""
    if isinstance(key, int):
        return replace(table, vol={**table.vol, key: table.vol[key] * 2})
    return replace(table, entries={**table.entries, key: table.entries[key] * 2})


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


@pytest.mark.parametrize("n,r", [(3, 0), (3, 4), (1, 2)])
def test_epsilon_independence_range_errors(n, r):
    with pytest.raises(cc.IndexRangeError):
        cc.check_epsilon_independence(n, r)


@pytest.mark.parametrize("r,key", [(1, 1), (2, (4, 1, 1)), (2, (4, 2, 1)), (2, 2)])
def test_epsilon_independence_fails_on_a_wrong_crofton_table(r, key, monkeypatch):
    # one eps >= 1 coefficient of the public table doubled (at r = 1 the
    # volume term is the only one); the other r keep passing
    crofton = cc.crofton_coeffs
    monkeypatch.setattr(
        cc, "crofton_coeffs",
        lambda n, s: _doubled(crofton(n, s), key) if (n, s) == (3, r) else crofton(n, s),
    )
    assert not cc.check_epsilon_independence(3, r)
    assert all(cc.check_epsilon_independence(3, s) for s in (1, 2, 3) if s != r)


@pytest.mark.parametrize("key", [(2, 1, 1), (4, 1, 2), 3])
def test_epsilon_independence_fails_on_a_wrong_gauss_bonnet_table(key, monkeypatch):
    gauss_bonnet = cc.gauss_bonnet_coeffs
    monkeypatch.setattr(
        cc, "gauss_bonnet_coeffs",
        lambda n: _doubled(gauss_bonnet(n), key) if n == 3 else gauss_bonnet(n),
    )
    assert not cc.check_epsilon_independence(3, 3)
    assert cc.check_epsilon_independence(3, 2) and cc.check_epsilon_independence(2, 2)


@pytest.mark.parametrize("scale", [rational(2), pi_pow(1)])
def test_epsilon_independence_fails_on_a_rescaled_variation_table(scale, monkeypatch):
    # a wrong eps^0 remainder fails, whether it is rational or carries pi
    variation = cc.crofton_variation_coeffs
    monkeypatch.setattr(
        cc, "crofton_variation_coeffs",
        lambda n, r: {key: c * scale for key, c in variation(n, r).items()},
    )
    assert not cc.check_epsilon_independence(3, 1)
    assert cc.check_epsilon_independence(3, 3)


def test_solver_group_fails_on_a_wrong_flat_table(monkeypatch):
    flat = cc.flat_crofton_coeffs
    monkeypatch.setattr(
        cc, "flat_crofton_coeffs",
        lambda n, r: _doubled(flat(n, r), (4, 2, 0)) if (n, r) == (3, 1) else flat(n, r),
    )
    assert not cc.solve_crofton_system(3, 1).closed_form_matches()
    results = checks.identities(3)
    assert results["pass"] is False
    assert results["solver"] == {"2,1": True, "3,1": False, "3,2": True}


def test_short_gauss_bonnet_identity():
    for n in range(1, 11):
        assert cc.verify_short_gauss_bonnet(n), n
    with pytest.raises(cc.IndexRangeError):
        cc.verify_short_gauss_bonnet(0)
    with pytest.raises(cc.IndexRangeError):
        cc.short_gauss_bonnet_coeffs(0)


def test_short_gauss_bonnet_table_is_built_once_per_hyperplane_table(monkeypatch):
    # memoized on n and the crofton_coeffs it reads: a replaced crofton_coeffs
    # is a new key, so the mutation test below reaches the table
    assert cc.short_gauss_bonnet_coeffs(3) is cc.short_gauss_bonnet_coeffs(3)
    table = cc.short_gauss_bonnet_coeffs(3)
    crofton = cc.crofton_coeffs
    monkeypatch.setattr(cc, "crofton_coeffs", lambda n, r: crofton(n, r).scaled(rational(2)))
    assert not cc.short_gauss_bonnet_coeffs(3).same_coefficients(table)
    monkeypatch.undo()
    assert cc.short_gauss_bonnet_coeffs(3) is table


@pytest.mark.parametrize("scale", [rational(2), pi_pow(1)])
def test_short_gauss_bonnet_fails_on_a_wrong_hyperplane_table(scale, monkeypatch):
    # a hyperplane Grassmannian of mass other than 1 breaks the identity,
    # whether the mass is rational or carries a power of pi, and the plane
    # form of the Gauss-Bonnet check reads the same table
    crofton = cc.crofton_coeffs
    monkeypatch.setattr(cc, "crofton_coeffs", lambda n, r: crofton(n, r).scaled(scale))
    assert not cc.verify_short_gauss_bonnet(3)
    results = checks.identities(3)
    assert results["pass"] is False
    assert results["shortGaussBonnet"] == {"2": False, "3": False}
    ball = geom.GeodesicBall(n=3, eps=-1.0, R=0.7)
    if scale.power:  # the sum across powers of pi is no table coefficient
        with pytest.raises(ValueError, match="not a monomial"):
            checks.gauss_bonnet(ball, 2)
    else:
        res = checks.gauss_bonnet(ball, 2)
        assert res["relativeMuForm"] < 1e-12
        assert res["relativePlaneForm"] > 1e-3 and res["pass"] is False


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


def test_primed_normalization():
    # B_{k,q} = c_{n,k,q} B', Gamma_{k,q} = c_{n,k,q} Gamma' / 2, vol = vol'
    b, g = cc.form_norm_coeff(3, 4, 1), cc.form_norm_coeff(3, 2, 1)
    graded = {("B", 4, 1): {0: 3 / b}, ("G", 2, 1): {1: 1 / g, 2: rational(0)},
              "vol": {3: rational(5)}}
    assert cc._primed(3, graded) == {
        ("B", 4, 1): {0: Fraction(3)}, ("G", 2, 1): {1: Fraction(1, 2)}, "vol": {3: 5},
    }
    with pytest.raises(ValueError, match="not rational"):
        cc._primed(3, {("B", 4, 1): {0: rational(1)}})


def test_flat_variation_coeffs_match_primed_form():
    # the primed coefficient of tilde-B_{2n-2r-1,q}, times n! binom(n-1,r),
    # is the closed form 4 a binom(n-r, a) binom(r+1, a) / 4^a, a = n-r-q
    for n in range(2, 6):
        for r in range(1, n):
            coeffs = cc.crofton_variation_coeffs(n, r)
            primed = cc._primed(n, {("B", k, q): {0: c} for (k, q), c in coeffs.items()})
            scale = factorial(n) * comb(n - 1, r)
            expected = {
                ("B", 2 * n - 2 * r - 1, n - r - a):
                    {0: Fraction(4 * a * comb(n - r, a) * comb(r + 1, a), 4 ** a)}
                for a in range(1, min(r + 1, n - r) + 1)
            }
            assert {key: {0: v[0] * scale} for key, v in primed.items()} == expected, (n, r)
