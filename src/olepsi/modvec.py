"""Vectorized modular arithmetic on numpy arrays.

All protocol moduli fit below MAX_Q = 2^31, so products of reduced values
fit int64. Moduli from 2^31 up are rejected here, and derive_params refuses
parameters that would need them.

The comparison has two kernels, one per party. alice_c is Alice's message,
c = s_A - enc mod q. bob_reply is the one OLE kernel, (c + enc + s_B) *
r_B_inv mod q per slot: Bob's online reply, and, at c = s_A and enc = 0,
the r_A = (s_A + s_B) * r_B_inv of every tuple the offline expansion
derives.
"""

import numpy as np

from .params import MAX_Q, tiles

_BLOCK = 1 << 16  # slots per bob_reply pass: temporaries stay in cache
_INV_BLOCK = 1 << 14  # elements per mod_inv pass


def dtype_for(q):
    """Smallest unsigned numpy dtype that holds values in [0, q)."""
    if q <= 1 << 8:
        return np.uint8
    if q <= 1 << 16:
        return np.uint16
    if q <= 1 << 32:
        return np.uint32
    return np.uint64


def reduce_in_place(x, m):
    """x %= m for a non-negative integer array x and an int m, written as
    x - (x // m) * m: numpy divides by a scalar with a multiply and shifts
    (libdivide), which takes a fraction of its remainder's time."""
    quot = x // m
    quot *= m
    x -= quot
    return x


def reduce_once(x, q):
    """x mod q for an unsigned array x below 2q, in place: x - q wraps past
    x exactly where x < q, so the smaller of the two is x mod q."""
    return np.minimum(x, x - q, out=x)


def _check(q):
    if q >= MAX_Q:
        raise ValueError(f"vectorized path requires q < 2^31, got {q}")


def mod_inv(vals, q):
    """Elementwise inverse of nonzero values in F_q, as x^(q-2) by
    square-and-multiply in int64, in place over _INV_BLOCK-element passes.

    Unsigned input comes back in dtype_for(q), any other input in int64. A
    value that is 0 mod q raises ZeroDivisionError.
    """
    _check(q)
    vals = np.asarray(vals)
    out = np.empty(vals.shape, dtype_for(q) if vals.dtype.kind == "u" else np.int64)
    flat, dest = vals.reshape(-1), out.reshape(-1)
    base = np.empty(min(flat.size, _INV_BLOCK), np.int64)
    acc = np.empty_like(base)
    for lo in range(0, flat.size, _INV_BLOCK):
        b, r = base[: flat.size - lo], acc[: flat.size - lo]
        np.copyto(b, flat[lo : lo + _INV_BLOCK], casting="unsafe")
        reduce_in_place(b, q)  # floor division: negative input lands in [0, q) too
        if not b.all():
            raise ZeroDivisionError("inverse of zero element")
        r.fill(1)
        e = q - 2
        while e:
            if e & 1:
                r *= b
                reduce_in_place(r, q)
            e >>= 1
            if e:
                b *= b
                reduce_in_place(b, q)
        dest[lo : lo + _INV_BLOCK] = r
    return out


def reply_dtype(q):
    """Unsigned dtype that holds (c + enc + s_B) * r_B_inv unreduced: every
    term is below q, so the product is below 3 (q - 1)^2. uint32 up to
    q = 37838, uint64 (below 3 * 2^62) for every q < MAX_Q."""
    return np.uint32 if 3 * (q - 1) ** 2 < 1 << 32 else np.uint64


def alice_c(s_A, enc, q):
    """c = s_A - enc mod q: Alice's message per batch, as int32. Both are
    reduced, so the difference lies in (-q, q) and one conditional +q
    replaces the remainder; (x >> 31) & q is q exactly where x < 0."""
    c = np.subtract(s_A, enc, dtype=np.int32)
    c += (c >> 31) & q
    return c


def bob_reply(c, enc_rows, block, q):
    """d[i, j] = (c[i] + enc[i, j] + s_B[i, j]) * r_B_inv[i, j] mod q over
    Bob's (rows, L, 2) tuple block, in passes of at most _BLOCK slots
    (params.tiles) with one reduction per slot (reduce_in_place, in the
    reply dtype).

    Each (r_B_inv, s_B) slot is read as one little-endian word of twice the
    element width (dtype_for(q) is at most 4 bytes): s_B is its high half
    and r_B_inv its low half. So every per-slot ufunc reads contiguous
    arrays; a block in another dtype is converted once, up front."""
    rows, slot = enc_rows.shape
    elem = np.dtype(dtype_for(q)).newbyteorder("<")
    half = 8 * elem.itemsize
    pairs = np.ascontiguousarray(block, elem).view(f"<u{2 * elem.itemsize}").reshape(rows, slot)
    work = reply_dtype(q)
    c = c.astype(work)
    out = np.empty((rows, slot), dtype=dtype_for(q))
    t = np.empty(min(_BLOCK, rows * slot), work)
    u = np.empty_like(t)
    for rs, cs in tiles(rows, slot, _BLOCK):
        pair = pairs[rs, cs]
        tt, uu = t[: pair.size].reshape(pair.shape), u[: pair.size].reshape(pair.shape)
        np.copyto(tt, enc_rows[rs, cs], casting="unsafe")
        tt += c[rs, None]
        tt += np.right_shift(pair, half, out=uu)  # s_B
        tt *= np.bitwise_and(pair, (1 << half) - 1, out=uu)  # r_B_inv
        reduce_in_place(tt, q)
        out[rs, cs] = tt
    return out
