"""Vectorized modular arithmetic on int64 arrays.

All protocol moduli fit below MAX_Q = 2^31, so products of reduced values
fit int64. Moduli from 2^31 up are rejected here, and derive_params refuses
parameters that would need them.
"""

import math
from functools import lru_cache

import numpy as np

MAX_Q = 1 << 31  # exclusive bound on the moduli this module handles
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


def reduce_in_place(x, m):
    """x %= m for a non-negative integer array x and an int m, written as
    x - (x // m) * m: numpy divides by a scalar with a multiply and shifts
    (libdivide), which takes a fraction of its remainder's time."""
    quot = x // m
    quot *= m
    x -= quot
    return x


def _check(q):
    if q >= MAX_Q:
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


def _primitive_root(q):
    """Smallest generator of F_q^*, from the prime factors of q - 1."""
    factors, n, d = [], q - 1, 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return next(
        g for g in range(1, q) if all(pow(g, (q - 1) // f, q) != 1 for f in factors)
    )


def _powers(base, count, q):
    """[base^0, ..., base^(count-1)] mod q as int64."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * base % q)
    return np.array(out, dtype=np.int64)


@lru_cache(maxsize=8)
def inverse_table(q):
    """Inverses of all of F_q in dtype_for(q) (index 0 unused, set to 0);
    read-only, since every caller shares it.

    With g a generator, powers[k] = g^k for k < q - 1 comes from one outer
    product of two ~sqrt(q)-long power lists, and the inverse of g^k is
    g^(q-1-k) = powers[-k mod (q-1)].
    """
    _check(q)
    g = _primitive_root(q)
    step = math.isqrt(q - 1) + 1
    small = _powers(g, step, q)
    big = _powers(pow(g, step, q), -(-(q - 1) // step), q)
    powers = (big[:, None] * small % q).ravel()[: q - 1]
    table = np.zeros(q, dtype=dtype_for(q))
    table[powers] = np.concatenate((powers[:1], powers[:0:-1]))
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
