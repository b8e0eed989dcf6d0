from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from olepsi.params import (
    ALPHA_FACTORS,
    BITS_PER_ELEMENT_TABLE,
    PARAM_TABLE,
    derive_beta,
    derive_params,
    online_bits_per_element,
)

mp.mp.dps = 60


def _tail_oracle(trials, alpha, beta):
    # exact-precision binomial tail Pr[B(trials, 1/alpha) > beta]
    p = mp.mpf(1) / alpha
    total = mp.mpf(0)
    for i in range(beta + 1, trials + 1):
        t = mp.binomial(trials, i) * p**i * (1 - p) ** (trials - i)
        total += t
        if i > trials * p and t < total * mp.mpf(10) ** -40:
            break
    return total


def _beta_oracle(n, alpha, k, lam):
    trials = k * n
    target = mp.mpf(2) ** (-lam)
    beta = 0
    while True:
        if alpha * _tail_oracle(trials, alpha, beta) < target:
            return beta
        beta += 1


def test_derive_params_tabulated_rows():
    p = derive_params(1 << 20, 3)
    assert p.alpha == -((-127 * (1 << 20)) // 100)
    assert (p.beta, p.modulus.bit_len, p.stash_size) == (28, 14, 0)

    p = derive_params(1 << 20, 2)
    assert (p.beta, p.modulus.bit_len, p.stash_size) == (19, 13, 3)

    p = derive_params(1 << 26, 4)
    assert (p.beta, p.modulus.bit_len, p.stash_size) == (35, 9, 0)


def test_all_table_rows_consistent():
    for (n, k), (beta, log_q, s) in PARAM_TABLE.items():
        p = derive_params(n, k)
        assert p.beta == beta
        assert p.modulus.bit_len == log_q
        assert p.stash_size == s
        assert p.alpha >= n
        assert p.sigma1 + p.sigma2 == p.sigma
        assert (1 << p.sigma1) <= p.alpha < (1 << (p.sigma1 + 1))
        assert p.modulus.q > (k << p.sigma2) + 1


def test_unsupported_k_rejected():
    with pytest.raises(ValueError):
        derive_params(1 << 10, 5)
    with pytest.raises(ValueError):
        derive_params(1 << 10, 1)


@pytest.mark.parametrize("kwargs, flag", [({"stash_size": -2}, "--stash"),
                                           ({"lam": -5}, "--lam")])
def test_negative_stash_or_lambda_rejected(kwargs, flag):
    # a negative stash sizes no array; a negative lambda shrinks an
    # untabulated beta below the bins' loads
    for n in (1 << 10, 1 << 20):  # untabulated and tabulated
        with pytest.raises(ValueError, match=flag):
            derive_params(n, 3, **kwargs)
    assert derive_params(1 << 10, 3, lam=0, stash_size=0).stash_size == 0


def test_modulus_limit_enforced_at_derivation():
    # sigma = 40 at n = 256, k = 3 would need q = 12884901893
    with pytest.raises(ValueError, match="2\\^31"):
        derive_params(256, 3, sigma=40)
    assert derive_params(256, 3, sigma=36).modulus.q < 1 << 31


def test_alpha_bounded_for_int32_indices():
    # the hashing holds bin and item indices in int32
    for n, k in PARAM_TABLE:
        assert derive_params(n, k).alpha < 1 << 31
    factor = ALPHA_FACTORS[2]
    n = (((1 << 31) - 1) * factor.denominator) // factor.numerator + 1
    assert -((-factor.numerator * n) // factor.denominator) == 1 << 31
    with pytest.raises(ValueError, match="alpha"):
        derive_params(n, 2)


def test_derive_beta_single_ball():
    assert derive_beta(1, 1, 1, 0) == 1


def test_derive_beta_tabulated_point_tolerance():
    # the published table says 28; the union bound lands close by
    alpha = -((-127 * (1 << 20)) // 100)
    assert abs(derive_beta(1 << 20, alpha, 3, 40) - 28) <= 2


def test_derive_beta_matches_tail_oracle():
    cases = [
        (1 << 8, 3),
        (1 << 10, 3),
        (1 << 12, 3),
        (1 << 10, 2),
    ]
    for n, k in cases:
        f = ALPHA_FACTORS[k]
        alpha = -((-f.numerator * n) // f.denominator)
        assert derive_beta(n, alpha, k, 40) == _beta_oracle(n, alpha, k, 40)


def test_derive_beta_frozen_values():
    # pinned from the arbitrary-precision oracle above
    assert derive_beta(1 << 10, 1301, 3, 40) == 23
    assert derive_beta(1 << 8, 326, 3, 40) == 22
    assert derive_beta(1 << 12, 5202, 3, 40) == 23
    assert derive_beta(1 << 10, 2458, 2, 40) == 16


def test_off_table_stash_reuse():
    # small k=2 runs reuse the nearest larger tabulated stash size
    assert derive_params(1 << 10, 2).stash_size == 3
    assert derive_params(1 << 10, 3).stash_size == 0
    assert derive_params(1 << 10, 4).stash_size == 0
    assert derive_params(1 << 12, 2, stash_size=5).stash_size == 5


def test_bits_per_element_examples():
    v = online_bits_per_element(derive_params(1 << 20, 3))
    assert round(v) == 516
    v = online_bits_per_element(derive_params(1 << 20, 2))
    assert round(v) == 663
    v = online_bits_per_element(derive_params(1 << 26, 3))
    assert round(v) == 305


def test_bits_per_element_all_cells_within_one_bit():
    for (n, k), published in BITS_PER_ELEMENT_TABLE.items():
        v = online_bits_per_element(derive_params(n, k))
        assert abs(v - published) <= 1, (n, k, float(v), published)


def test_bits_per_element_formula():
    p = derive_params(1 << 10, 2)
    expected = (
        Fraction(p.alpha * (p.beta + 1) + p.stash_size * (p.n + 1), p.n)
        * p.modulus.bit_len
    )
    assert online_bits_per_element(p) == expected


def test_dummy_encodings():
    p = derive_params(1 << 10, 3)
    assert p.dummy_alice == 3 << p.sigma2
    assert p.dummy_bob == p.dummy_alice + 1
    assert p.dummy_bob < p.modulus.q


def test_params_digest_distinguishes():
    a = derive_params(1 << 10, 3)
    b = derive_params(1 << 10, 2)
    assert a.digest() != b.digest()
    assert a.digest() == derive_params(1 << 10, 3).digest()
    assert len(a.digest()) == 16


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 1 << 16),
    k=st.sampled_from([2, 3, 4]),
)
def test_derived_invariants_hold(n, k):
    alpha = -((-ALPHA_FACTORS[k].numerator * n) // ALPHA_FACTORS[k].denominator)
    if k << (32 - (alpha.bit_length() - 1)) >= 1 << 31:
        # at tiny n, sigma = 32 leaves so many suffix bits that q >= 2^31
        with pytest.raises(ValueError, match="2\\^31"):
            derive_params(n, k)
        return
    p = derive_params(n, k)
    assert p.alpha >= n
    assert p.sigma1 + p.sigma2 == p.sigma
    assert (1 << p.sigma1) <= p.alpha
    assert p.modulus.q > (k << p.sigma2) + 1
    assert p.dummy_bob < p.modulus.q
    assert p.beta >= 1
