"""Vectorized modular arithmetic: the typed inverse-table path."""

import numpy as np
import pytest

from olepsi.modvec import dtype_for, inverse_table, mod_inv, mod_pow


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


@pytest.mark.parametrize("q", [2, 3, 11, 6151])
def test_inverse_table_matches_pow_on_all_of_field(q):
    table = inverse_table(q)
    assert table.dtype == dtype_for(q)
    assert table.tolist() == [0] + [pow(x, -1, q) for x in range(1, q)]
    assert not table.flags.writeable
    with pytest.raises(ZeroDivisionError):
        mod_inv(np.array([0], dtype=dtype_for(q)), q)


def test_inverse_table_matches_fermat_construction():
    # the generator-power table equals x^(q-2) by square-and-multiply
    q = 786449
    fermat = np.zeros(q, dtype=np.int64)
    fermat[1:] = mod_pow(np.arange(1, q, dtype=np.int64), q - 2, q)
    assert (inverse_table(q).astype(np.int64) == fermat).all()
