"""Exterior-algebra engine vs the full wedge chain, the permutation oracle and closed forms."""

import json
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croftonlab import coeffcore as cc
from croftonlab import extalg as ea
from helpers import realify_complex_columns

DATA = Path(__file__).parent / "data"


def random_sff(rng, n):
    d = 2 * n - 1
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2


# ---------------------------------------------------------------------------
# MultiVector basics
# ---------------------------------------------------------------------------


def test_merge_sign_matches_permutation_parity():
    # wedge of single generators in arbitrary order vs sorting parity
    order = [3, 0, 4, 1]
    mv = ea.MultiVector.scalar(5, 1.0)
    for j in order:
        mv = mv.wedge(ea.MultiVector(5, {1 << j: 1.0}))
    # parity of the permutation sorting `order`
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    mask = sum(1 << j for j in order)
    assert mv.terms == {mask: (-1.0) ** inversions}


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 31),
    st.integers(0, 31),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_wedge_graded_anticommutative(m1, m2, c1, c2):
    d = 5
    a = ea.MultiVector(d, {m1: c1})
    b = ea.MultiVector(d, {m2: c2})
    ab = a.wedge(b)
    ba = b.wedge(a)
    sign = (-1) ** (bin(m1).count("1") * bin(m2).count("1"))
    for mask in set(ab.terms) | set(ba.terms):
        assert ab.coefficient(mask) == pytest.approx(sign * ba.coefficient(mask))


def test_wedge_of_overlapping_subsets_is_zero():
    a = ea.MultiVector(3, {0b011: 1.0})
    b = ea.MultiVector(3, {0b110: 1.0})
    assert a.wedge(b).terms == {}


def test_wedge_pow_binary_matches_iterated():
    rng = np.random.default_rng(3)
    h = random_sff(rng, 3)
    f = ea.build_pullbacks(h)
    it = f.theta1
    for k in (2, 3, 4):
        it_k = f.theta1
        for _ in range(k - 1):
            it_k = it_k.wedge(f.theta1)
        via_pow = f.theta1.wedge_pow(k)
        for mask in set(it_k.terms) | set(via_pow.terms):
            assert np.allclose(it_k.coefficient(mask), via_pow.coefficient(mask))


# ---------------------------------------------------------------------------
# Pullbacks
# ---------------------------------------------------------------------------


def test_umbilic_pullback_relations():
    # II|_D = lambda Id makes theta_1 = 2 lambda theta_2, theta_0 = lambda^2 theta_2
    lam, mu_h = 0.7, 1.3
    h = np.diag([mu_h, lam, lam, lam, lam])
    f = ea.build_pullbacks(h)
    for mask, c in f.theta2.terms.items():
        assert f.theta1.coefficient(mask) == pytest.approx(2 * lam * c)
        assert f.theta0.coefficient(mask) == pytest.approx(lam * lam * c)
    assert set(f.theta1.terms) == set(f.theta2.terms)


def test_zero_sff_pullbacks():
    f = ea.build_pullbacks(np.zeros((5, 5)))
    assert f.theta0.terms == {} and f.theta1.terms == {} and f.gamma.terms == {}
    assert len(f.theta2.terms) == 2
    assert f.beta.terms == {1: 1.0}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_index_array_two_forms_match_the_loop_oracle(n):
    rng = np.random.default_rng(29 + n)
    d = 2 * n - 1
    hs = rng.standard_normal((4, d, d))
    hs = (hs + np.swapaxes(hs, 1, 2)) / 2
    batched = ea.build_pullbacks(hs, n)
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    masks = {(1 << p) | (1 << q) for p, q in pairs}
    for i, h in enumerate(hs):
        single = ea.build_pullbacks(h, n)
        oracle = ea._oracle_two_forms(n, h.tolist())
        for name, mat in zip(("theta0", "theta1", "theta2"), oracle):
            assert all(type(c) is float for c in getattr(single, name).terms.values())
            assert set(getattr(batched, name).terms) <= masks
            for p, q in pairs:
                mask = (1 << p) | (1 << q)
                want = mat[p][q]
                got_b = np.asarray(getattr(batched, name).coefficient(mask))
                got_b = got_b[i] if got_b.ndim else got_b
                for got in (got_b, getattr(single, name).coefficient(mask)):
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (name, p, q)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_single_points_are_rows_of_the_batch_bit_for_bit(n):
    # one code path: a single h gives row i of the batched call, in the same
    # mask order, without the terms that vanish at that point
    for name, hs in _sff_cases(np.random.default_rng(41 + n), n).items():
        if hs.ndim == 2:
            continue
        batched = ea.build_pullbacks(hs, n)
        for i, h in enumerate(hs):
            single = ea.build_pullbacks(h, n)
            for form in ("beta", "gamma", "theta0", "theta1", "theta2"):
                got = getattr(single, form).terms
                rows = getattr(batched, form).terms
                assert list(got) == [mask for mask, row in rows.items() if row[i] != 0.0]
                for mask, c in got.items():
                    assert type(c) is float
                    assert np.float64(c).tobytes() == rows[mask][i:i + 1].tobytes(), (name, form)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signed_zero_entries_act_as_zero_in_the_two_forms(n):
    # theta_0 and theta_1 come from matrices summed from 0.0: a -0.0 entry of h
    # gives the bits of 0.0, and no coefficient is -0.0
    rng = np.random.default_rng(53 + n)
    hs = rng.standard_normal((6, 2 * n - 1, 2 * n - 1))
    hs[rng.random(hs.shape) < 0.4] = 0.0
    hs[rng.random(hs.shape) < 0.4] = -0.0
    got, want = ea.build_pullbacks(hs, n), ea.build_pullbacks(hs + 0.0, n)
    for form in ("theta0", "theta1"):
        terms = getattr(got, form).terms
        assert list(terms) == list(getattr(want, form).terms)
        for mask, c in terms.items():
            assert c.tobytes() == getattr(want, form).terms[mask].tobytes()
            assert not np.any(np.signbit(c) & (c == 0.0)), (form, mask)


# ---------------------------------------------------------------------------
# Densities vs the full wedge chain and the oracle
# ---------------------------------------------------------------------------


def _chain_density(forms, kind, n, k, q):
    """The (k, q) density as a chain of full wedges read at the top form."""
    if kind == "beta":
        w, exps = forms.beta, (n - k + q, k - 2 * q - 1, q)
    else:
        w, exps = forms.gamma, (n - k + q - 1, k - 2 * q, q)
    for theta, e in zip((forms.theta0, forms.theta1, forms.theta2), exps):
        w = w.wedge(theta.wedge_pow(e))
    return w.coefficient((1 << w.d) - 1)


def _all_keys(n):
    return ([("beta", k, q) for (k, q) in cc.beta_indices(n)]
            + [("gamma", k, q) for (k, q) in cc.gamma_indices(n)])


def _bits(x):
    return type(x), np.shape(x), np.asarray(x, dtype=float).tobytes()


def _sff_cases(rng, n):
    d = 2 * n - 1
    hs = rng.standard_normal((5, d, d))
    hs = (hs + np.swapaxes(hs, 1, 2)) / 2
    hopf = hs.copy()
    hopf[:, 0, :] = 0.0
    hopf[:, :, 0] = 0.0
    diag = np.array([np.diag(rng.random(d) + 0.2) for _ in range(3)])
    zero = np.zeros((3, d, d))
    return {"batched": hs, "single": hs[0], "zero": zero, "zero single": zero[0],
            "diagonal": diag, "diagonal single": diag[0], "no Hopf row": hopf,
            "no Hopf row single": hopf[0]}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_densities_equal_the_full_wedge_chain_bit_for_bit(n):
    # one evaluator call for every key shares powers and prefixes and reads
    # the last wedge as a contraction; the values must not move by one ulp
    keys = _all_keys(n)
    for name, h in _sff_cases(np.random.default_rng(31 + n), n).items():
        forms = ea.build_pullbacks(h, n)
        got = ea.densities(forms, keys)
        for key, value in zip(keys, got):
            want = _chain_density(forms, key[0], n, key[1], key[2])
            assert _bits(value) == _bits(want), (name, key)
        for key, value in zip(keys, got):
            one = (ea.density_beta if key[0] == "beta" else ea.density_gamma)(n, *key[1:], h)
            assert _bits(one) == _bits(value), (name, key)


@pytest.mark.parametrize("n", [2, 3])
def test_density_beta_matches_oracle(n):
    rng = np.random.default_rng(11 + n)
    for _ in range(10):
        h = random_sff(rng, n)
        for (k, q) in cc.beta_indices(n):
            got = ea.density_beta(n, k, q, h)
            want = ea.permutation_oracle("beta", n, k, q, h)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (n, k, q)


@pytest.mark.parametrize("n", [2, 3])
def test_density_gamma_matches_oracle(n):
    rng = np.random.default_rng(17 + n)
    for _ in range(10):
        h = random_sff(rng, n)
        for (k, q) in cc.gamma_indices(n):
            got = ea.density_gamma(n, k, q, h)
            want = ea.permutation_oracle("gamma", n, k, q, h)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (n, k, q)


def test_oracle_matches_its_golden_values():
    # values of the engine-independent oracle, pinned to the last bit
    golden = json.loads((DATA / "permutation_oracle_n2_n3.json").read_text())
    for n in (2, 3):
        rng = np.random.default_rng(37 + n)
        for want in golden[f"n{n}"]:
            h = random_sff(rng, n)
            got = {f"{kind}:{k},{q}": repr(ea.permutation_oracle(kind, n, k, q, h))
                   for kind, k, q in _all_keys(n)}
            assert got == want


def test_oracle_zero_cases():
    h = np.zeros((5, 5))
    assert ea.permutation_oracle("beta", 3, 3, 1, h) == 0.0
    assert ea.permutation_oracle("gamma", 3, 2, 1, h) == 0.0
    with pytest.raises(ValueError):
        ea.permutation_oracle("beta", 4, 3, 1, np.zeros((7, 7)))


@pytest.mark.parametrize("n", [2, 3])
def test_umbilic_density_closed_forms(n):
    lam, mu_h = 0.83, 1.7
    d = 2 * n - 1
    h = np.diag([mu_h] + [lam] * (d - 1))
    for (k, q) in cc.beta_indices(n):
        expect = 2.0 ** (k - 2 * q - 1) * lam ** (2 * n - k - 1) * factorial(n - 1)
        assert ea.density_beta(n, k, q, h) == pytest.approx(expect, rel=1e-13)
    for (k, q) in cc.gamma_indices(n):
        expect = mu_h * 2.0 ** (k - 2 * q) * lam ** (2 * n - k - 2) * factorial(n - 1)
        assert ea.density_gamma(n, k, q, h) == pytest.approx(expect, rel=1e-13)


def test_gamma_density_is_determinant_at_bottom_degree():
    # gamma against the full theta_0 power recovers (n-1)! det(h)
    rng = np.random.default_rng(5)
    for n in (2, 3):
        h = random_sff(rng, n)
        got = ea.density_gamma(n, 0, 0, h)
        assert got == pytest.approx(factorial(n - 1) * np.linalg.det(h), rel=1e-10)


def test_gamma_vanishes_without_hopf_row():
    rng = np.random.default_rng(7)
    h = random_sff(rng, 3)
    h[0, :] = 0.0
    h[:, 0] = 0.0
    for (k, q) in cc.gamma_indices(3):
        assert ea.density_gamma(3, k, q, h) == pytest.approx(0.0, abs=1e-14)


def test_diagonal_gamma_monomials_need_hopf_entry():
    # with diagonal h and vanishing Hopf-Hopf entry the k = 2q densities die
    rng = np.random.default_rng(9)
    for n in (2, 3):
        diag = np.abs(rng.standard_normal(2 * n - 1)) + 0.3
        diag[0] = 0.0
        h = np.diag(diag)
        for q in range(0, n):
            assert ea.density_gamma(n, 2 * q, q, h) == pytest.approx(0.0, abs=1e-13)


def test_density_homogeneity_in_h():
    rng = np.random.default_rng(13)
    for n in (2, 3):
        h = random_sff(rng, n)
        t = 1.7
        for (k, q) in cc.beta_indices(n):
            a = ea.density_beta(n, k, q, t * h)
            b = t ** (2 * n - k - 1) * ea.density_beta(n, k, q, h)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12), (n, k, q)


def test_density_index_errors():
    h = np.eye(3)
    with pytest.raises(cc.IndexRangeError):
        ea.density_beta(2, 2, 1, h)  # k = 2q
    with pytest.raises(cc.IndexRangeError):
        ea.density_beta(2, 3, 0, h)  # q below range
    with pytest.raises(cc.IndexRangeError):
        ea.density_gamma(2, 2, 0, h)  # n = k - q undefined
    with pytest.raises(cc.IndexRangeError):
        ea.density_gamma(2, 4, 2, h)  # k too large


def test_batched_densities_match_scalar():
    rng = np.random.default_rng(19)
    hs = rng.standard_normal((6, 5, 5))
    hs = (hs + np.swapaxes(hs, 1, 2)) / 2
    batch = ea.density_beta(3, 3, 1, hs)
    for i in range(6):
        assert batch[i] == pytest.approx(ea.density_beta(3, 3, 1, hs[i]), rel=1e-13)


def test_frame_gauge_invariance():
    # conjugating the distribution block by a realified unitary leaves the
    # densities unchanged: the forms are invariant under U(n-1) frame changes
    rng = np.random.default_rng(23)
    for n in (2, 3):
        h = random_sff(rng, n)
        z = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
        U, _ = np.linalg.qr(z)
        S = np.zeros((2 * n - 1, 2 * n - 1))
        S[0, 0] = 1.0
        S[1:, 1:] = realify_complex_columns(U)
        h2 = S.T @ h @ S
        for (k, q) in cc.beta_indices(n):
            assert ea.density_beta(n, k, q, h2) == pytest.approx(
                ea.density_beta(n, k, q, h), rel=1e-10, abs=1e-10
            )
        for (k, q) in cc.gamma_indices(n):
            assert ea.density_gamma(n, k, q, h2) == pytest.approx(
                ea.density_gamma(n, k, q, h), rel=1e-10, abs=1e-10
            )

