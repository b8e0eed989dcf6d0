"""Vectorized modular arithmetic: Fermat inversion in int64 blocks."""

import numpy as np
import pytest

from olepsi.modvec import _INV_BLOCK, dtype_for, mod_inv


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
def test_mod_inv_unsigned_matches_pow_on_all_of_field(dtype):
    q = 6151
    xs = np.arange(1, q, dtype=dtype)
    inv = mod_inv(xs, q)
    assert inv.dtype == dtype_for(q)
    assert inv.tolist() == [pow(x, -1, q) for x in range(1, q)]


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
def test_mod_inv_rejects_zero(dtype):
    q = 6151
    for bad in (0, q):
        with pytest.raises(ZeroDivisionError):
            mod_inv(np.array([3, bad, 5], dtype=dtype), q)


@pytest.mark.parametrize("q", [
    (1 << 20) + 7,  # the smallest prime above 2^20
    (1 << 31) - 1,  # the largest prime below MAX_Q
])
def test_mod_inv_matches_pow_at_wide_q(q):
    # a (rows, 5) array of two blocks and a ragged third, extremes included,
    # unsigned and as int64 (where a negative x is inverted as x mod q)
    rng = np.random.default_rng(q)
    xs = rng.integers(1, q, 5 * (2 * _INV_BLOCK // 5 + 2))
    xs[:4] = [1, 2, q - 2, q - 1]
    want = [pow(int(x), -1, q) for x in xs]
    inv = mod_inv(xs.astype(dtype_for(q)).reshape(-1, 5), q)
    assert inv.dtype == dtype_for(q) and inv.shape == (len(xs) // 5, 5)
    assert inv.ravel().tolist() == want
    inv = mod_inv(xs - q, q)
    assert inv.dtype == np.int64 and inv.tolist() == want
