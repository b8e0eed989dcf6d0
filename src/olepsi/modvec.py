"""Vectorized modular arithmetic on int64 arrays.

All protocol moduli fit well below 2^31, so products of reduced values fit
int64. Callers with larger moduli must use the scalar FieldElement path.
"""

from functools import lru_cache

import numpy as np

_TABLE_LIMIT = 1 << 20


def dtype_for(q):
    """Smallest unsigned numpy dtype that holds values in [0, q)."""
    if q <= 1 << 8:
        return np.uint8
    if q <= 1 << 16:
        return np.uint16
    if q <= 1 << 32:
        return np.uint32
    return np.uint64


def work_dtype(q):
    """Signed dtype for products of two values reduced mod q, and for
    sums of a few: int32 while q < 2^15, int64 above."""
    return np.int32 if q < (1 << 15) else np.int64


def _check(q):
    if q >= 1 << 31:
        raise ValueError(f"vectorized path requires q < 2^31, got {q}")


def mod_pow(base, exp, q):
    """base**exp mod q, elementwise, square-and-multiply."""
    _check(q)
    result = np.ones_like(np.asarray(base, dtype=np.int64))
    b = np.asarray(base, dtype=np.int64) % q
    e = exp
    while e:
        if e & 1:
            result = result * b % q
        b = b * b % q
        e >>= 1
    return result


@lru_cache(maxsize=8)
def inverse_table(q):
    """Inverses of all of F_q in dtype_for(q) (index 0 unused, set to 0);
    read-only, since every caller shares it."""
    _check(q)
    table = np.zeros(q, dtype=dtype_for(q))
    table[1:] = mod_pow(np.arange(1, q, dtype=np.int64), q - 2, q)
    table.flags.writeable = False
    return table


def mod_inv(vals, q):
    """Elementwise inverse of nonzero values in F_q.

    Unsigned input with q <= _TABLE_LIMIT comes back in dtype_for(q), any
    other input in int64.
    """
    _check(q)
    vals = np.asarray(vals)
    if q <= _TABLE_LIMIT:
        inv = inverse_table(q).take(vals, mode="wrap")  # wrap: the entry at vals mod q
    else:
        inv = mod_pow(vals, q - 2, q)
    if (inv == 0).any():
        raise ZeroDivisionError("inverse of zero element")
    return inv if vals.dtype.kind == "u" else inv.astype(np.int64, copy=False)
