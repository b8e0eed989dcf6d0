"""Product sharing from bitwise oblivious transfer (Gilboa, CRYPTO 1999).

One multiplication r_A * r_B is shared through ell = ceil(log2 q) OTs:
for bit position i (1-based) Alice offers (-rho_i, r_A*2^(i-1) - rho_i)
and Bob selects with bit i-1 of r_B, receiving o_i.  Then

    rho_i + o_i = b_i * r_A * 2^(i-1)

so s_A = sum rho_i and s_B = sum o_i satisfy s_A + s_B = r_A * r_B.

gilboa_batch runs this on every slot of a batch at once, and shares one
s_A across the batch by constraining each slot's rho list to sum to it.

gilboa_sections runs the ot backend through the section filler the other
backends share (_expand._fill_sections): every chunk of _chunk_rows whole
rows runs gilboa_batch on its own DealerAssistedOt and Gilboa seed, derived
from the master seed and tagged section|chunk. A DealerAssistedOt draws its
pads and choice masks from sequential streams, so giving each chunk its own
means no two chunks share a pad, a choice bit or a rho, in any process, and
the output does not depend on how many processes ran. Bob holds r_B here,
not a drawn r_B^-1, so this is the one backend that inverts
(BobInventory.from_r_b_s_b), chunk by chunk.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..modvec import dtype_for
from ..prg import Prg, subseed
from ..tuples import AliceInventory, BobInventory
from ._expand import _fill_sections
from .ot import DealerAssistedOt


def _chunk_rows(slot_len, ell):
    """Rows per step: about 2^20 OTs of slot_len * ell each."""
    return max(1, (1 << 20) // max(slot_len * ell, 1))


def gilboa_batch(ot, modulus, count, slot_len, seed):
    """Generate `count` batches of slot_len slots over F_q by OT:
    slot_len * ell invocations each.

    Per batch: one shared s_A, independent (r_A, r_B) per slot, and per
    slot a rho list constrained to sum to s_A, so every slot's Gilboa run
    lands on the same Alice share. All rows run in one pass, so a caller
    bounds its memory by the rows it asks for (gilboa_sections: _chunk_rows).
    """
    q = modulus.q
    L = slot_len
    ell = modulus.bit_len
    prg = Prg(seed, tag=b"gilboa")
    dt = dtype_for(q)
    block = np.empty((count, 1 + L), dtype=dt)  # Alice's (s_A, r_A...) rows
    s_A, r_A = block[:, 0], block[:, 1:]
    s_A[:] = prg.elements(modulus, count, dtype=dt)
    r_A[:] = prg.elements(modulus, count * L, dtype=dt).reshape(count, L)
    r_B = prg.nonzero_elements(modulus, count * L, dtype=dt).reshape(count, L)
    pow2 = np.array([pow(2, i, q) for i in range(ell)], dtype=np.int64)
    positions = np.arange(ell, dtype=np.int64)
    rho = np.empty((count, L, ell), dtype=np.int64)
    if ell > 1:
        rho[:, :, : ell - 1] = prg.elements(
            modulus, count * L * (ell - 1)
        ).reshape(count, L, ell - 1)
    partial = rho[:, :, : ell - 1].sum(axis=2) % q
    rho[:, :, ell - 1] = (s_A[:, None].astype(np.int64) - partial) % q
    m0 = (-rho) % q
    m1 = (r_A[:, :, None].astype(np.int64) * pow2 - rho) % q
    bits = (r_B[:, :, None].astype(np.int64) >> positions) & 1
    ot.ot_send_many(m0.ravel(), m1.ravel())
    s_B = ot.ot_receive_many(bits.ravel()).reshape(count, L, ell).sum(axis=2) % q
    return AliceInventory(modulus, block), BobInventory.from_r_b_s_b(modulus, r_B, s_B)


def _gilboa_chunk(modulus, master, domain, slot_len, alice, bob, c, lo, hi):
    """Chunk c (rows lo..hi) of one section: gilboa_batch on the chunk's own
    OT dealer and Gilboa seed, copied into its rows of the shared blocks."""
    tag = b"%s|%d" % (domain, c)
    ot = DealerAssistedOt(modulus, seed=subseed(master, b"ot-deal|" + tag))
    a, b = gilboa_batch(ot, modulus, hi - lo, slot_len, subseed(master, b"gil|" + tag))
    alice[lo:hi] = a.block
    bob[lo:hi] = b.block


def gilboa_sections(modulus, layout, master):
    """The ot backend: Alice's and Bob's inventories for each (name, rows, L)
    section of `layout` (as params.sections gives it), by Gilboa product
    sharing over dealer-assisted OT, chunk by chunk from `master`."""
    ell = modulus.bit_len
    return _fill_sections(
        modulus, layout, lambda L: _chunk_rows(L, ell), partial(_gilboa_chunk, modulus, master)
    )
