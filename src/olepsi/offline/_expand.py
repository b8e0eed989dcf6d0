"""Shared seed-to-array expansion for the seeded and dealer backends.

Every stream is domain-separated by a PRG tag of the form role|section so
the bins and stash sections of one run never reuse stream positions, and
so Alice-side and Bob-side material come from disjoint streams even when
expanded from the same seed.
"""

from __future__ import annotations

import numpy as np

from ..modvec import dtype_for, mod_inv, work_dtype
from ..prg import Prg
from ..tuples import BobInventory


def _row_chunk(slot_len):
    return max(1, (1 << 21) // max(slot_len, 1))


def expand_s_a(seed, modulus, count, domain):
    """The per-batch shared s_A values, one stream per section."""
    prg = Prg(seed, tag=b"sA|" + domain)
    return prg.elements(modulus, count, dtype=dtype_for(modulus.q))


def expand_bob_inventory(seed, modulus, count, slot_len, domain):
    """Bob's (r_B, r_B_inv, s_B), each (count, slot_len), expanded straight
    into one BobInventory block; r_B is nonzero."""
    dt = dtype_for(modulus.q)
    total = count * slot_len
    block = np.empty((count, slot_len, 3), dtype=dt)
    block[:, :, 0] = Prg(seed, tag=b"rB|" + domain).nonzero_elements(
        modulus, total, dtype=dt
    ).reshape(count, slot_len)
    block[:, :, 2] = Prg(seed, tag=b"sB|" + domain).elements(
        modulus, total, dtype=dt
    ).reshape(count, slot_len)
    step = _row_chunk(slot_len)
    for lo in range(0, count, step):
        hi = lo + step
        block[lo:hi, :, 1] = mod_inv(block[lo:hi, :, 0], modulus.q)
    return BobInventory(modulus, block)


def derive_r_a_arrays(s_A, s_B, r_B_inv, q, out=None):
    """r_A = (s_A + s_B) / r_B per slot, chunked to bound temporaries;
    written into `out` (count, slot_len) when given."""
    count, slot_len = s_B.shape
    if out is None:
        out = np.empty((count, slot_len), dtype=dtype_for(q))
    wide = work_dtype(q)
    step = _row_chunk(slot_len)
    for lo in range(0, count, step):
        hi = lo + step
        t = s_A[lo:hi, None].astype(wide) + s_B[lo:hi]
        t %= q
        t *= r_B_inv[lo:hi]
        t %= q
        out[lo:hi] = t
    return out
