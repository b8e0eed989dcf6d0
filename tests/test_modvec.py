"""Vectorized modular arithmetic: the typed inverse-table path."""

import numpy as np
import pytest

from olepsi.modvec import dtype_for, mod_inv


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
