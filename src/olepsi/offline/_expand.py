"""Shared seed-to-array expansion for the seeded and dealer backends.

Every array is cut into chunks of _row_chunk(L) whole rows, and each chunk
is expanded from its own PRG stream, tagged role|section|chunk (chunk in
decimal): the bins and stash sections of one run never share a stream,
Alice-side and Bob-side material come from disjoint streams even when
expanded from the same seed, and any chunk expands without the ones before
it. Bob's r_B^-1 is drawn directly as a nonzero element: inversion is a
bijection of F_q^*, so this is the distribution of an inverted uniform r_B,
and nothing here inverts.
"""

from __future__ import annotations

import numpy as np

# mod_inv is not called here: the benchmark's tracer wraps it under this name
from ..modvec import dtype_for, mod_inv, reduce_in_place, work_dtype  # noqa: F401
from ..prg import Prg
from ..tuples import BobInventory


def _row_chunk(slot_len):
    return max(1, (1 << 21) // max(slot_len, 1))


def _chunks(count, slot_len):
    """(chunk index, first row, end row) of each chunk of whole rows."""
    step = _row_chunk(slot_len)
    return [(c, lo, min(lo + step, count)) for c, lo in enumerate(range(0, count, step))]


def _stream(seed, role, domain, chunk):
    return Prg(seed, tag=b"%s|%s|%d" % (role, domain, chunk))


def expand_s_a(seed, modulus, count, slot_len, domain):
    """The per-batch shared s_A values of a (count, slot_len) section."""
    dt = dtype_for(modulus.q)
    out = np.empty(count, dtype=dt)
    for c, lo, hi in _chunks(count, slot_len):
        out[lo:hi] = _stream(seed, b"sA", domain, c).elements(modulus, hi - lo, dtype=dt)
    return out


def expand_bob_inventory(seed, modulus, count, slot_len, domain):
    """Bob's (r_B_inv, s_B), each (count, slot_len), expanded straight into
    one BobInventory block; r_B_inv is nonzero."""
    dt = dtype_for(modulus.q)
    block = np.empty((count, slot_len, 2), dtype=dt)
    for c, lo, hi in _chunks(count, slot_len):
        shape, words = (hi - lo, slot_len), (hi - lo) * slot_len
        r_B_inv = _stream(seed, b"rBinv", domain, c).nonzero_elements(modulus, words, dtype=dt)
        block[lo:hi, :, 0] = r_B_inv.reshape(shape)
        s_B = _stream(seed, b"sB", domain, c).elements(modulus, words, dtype=dt)
        block[lo:hi, :, 1] = s_B.reshape(shape)
    return BobInventory(modulus, block)


def derive_r_a_arrays(s_A, s_B, r_B_inv, q, out=None):
    """r_A = (s_A + s_B) * r_B_inv per slot, chunked to bound temporaries;
    written into `out` (count, slot_len) when given. One reduction per slot:
    (s_A + s_B) < 2q times r_B_inv < q stays below 2q^2, which the work
    dtype holds."""
    count, slot_len = s_B.shape
    if out is None:
        out = np.empty((count, slot_len), dtype=dtype_for(q))
    wide = work_dtype(q)
    for _, lo, hi in _chunks(count, slot_len):
        t = s_A[lo:hi, None].astype(wide) + s_B[lo:hi]
        t *= r_B_inv[lo:hi]
        out[lo:hi] = reduce_in_place(t, q)
    return out
