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


def mod_mul(a, b, q):
    _check(q)
    return (a % q) * (b % q) % q


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
    """Inverses of all of F_q (index 0 unused, set to 0)."""
    _check(q)
    table = np.zeros(q, dtype=np.int64)
    table[1:] = mod_pow(np.arange(1, q, dtype=np.int64), q - 2, q)
    return table


def mod_inv(vals, q):
    """Elementwise inverse of nonzero values in F_q."""
    _check(q)
    vals = np.asarray(vals, dtype=np.int64)
    if (vals % q == 0).any():
        raise ZeroDivisionError("inverse of zero element")
    if q <= _TABLE_LIMIT:
        return inverse_table(q)[vals % q]
    return mod_pow(vals, q - 2, q)
