"""Product sharing from bitwise oblivious transfer (Gilboa, CRYPTO 1999).

One multiplication r_A * r_B is shared through ell = ceil(log2 q) OTs:
for bit position i (1-based) Alice offers (-rho_i, r_A*2^(i-1) - rho_i)
and Bob selects with bit i-1 of r_B, receiving o_i.  Then

    rho_i + o_i = b_i * r_A * 2^(i-1)

so s_A = sum rho_i and s_B = sum o_i satisfy s_A + s_B = r_A * r_B.

gilboa_batch runs this on every slot of a batch, tile by tile, and shares
one s_A across the batch by constraining each slot's rho list to sum to it.

gilboa_sections runs the ot backend through the section filler the other
backends share (_expand._fill_sections): every chunk of _chunk_rows whole
rows runs gilboa_batch, straight into its rows of the shared blocks, on its
own DealerAssistedOt and Gilboa seed, derived from the master seed and
tagged section|chunk. A DealerAssistedOt draws its pads and choice masks
from sequential streams, so giving each chunk its own means no two chunks
share a pad, a choice bit or a rho, in any process, and the output does not
depend on how many processes ran. Bob holds r_B here,
not a drawn r_B^-1, so this is the one backend that inverts
(tuples.mod_inv), tile by tile.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import tuples
from ..modvec import reduce_in_place
from ..params import tiles
from ..prg import Prg, subseed
from ._expand import _TILE, _fill_sections, _sample_into
from .ot import DealerAssistedOt


def _chunk_rows(slot_len, ell):
    """Rows per step: about 2^20 OTs of slot_len * ell each."""
    return max(1, (1 << 20) // max(slot_len * ell, 1))


def gilboa_batch(ot, modulus, seed, alice, bob):
    """Fill Alice's (count, 1 + L) and Bob's (count, L, 2) blocks with
    `count` batches of L slots over F_q by OT: L * ell invocations each.

    Per batch: one shared s_A, independent (r_A, r_B) per slot, and per
    slot a rho list constrained to sum to s_A, so every slot's Gilboa run
    lands on the same Alice share.

    The Gilboa stream gives s_A, r_A and r_B for every row first, then the
    rho lists slot by slot; r_A goes straight into Alice's block and r_B into
    Bob's r_B^-1 slots. Then each tile (params.tiles) of at most _TILE
    transfers runs one OT session and writes its s_B and its inverted r_B,
    so the OT's pads and choice bits are read in slot order too. Every pass
    holds at most _TILE slots or transfers, so no temporary grows with the
    batch count or a row.
    """
    q = modulus.q
    ell = modulus.bit_len
    count, L = bob.shape[:2]
    prg = Prg(seed, tag=b"gilboa")
    s_A, r_A, r_B = alice[:, 0], alice[:, 1:], bob[:, :, 0]
    for rows, _ in tiles(count, 1, _TILE):
        _sample_into(s_A[rows], prg, modulus)
    for rows, cols in tiles(count, L, _TILE):
        _sample_into(r_A[rows, cols], prg, modulus)
    for rows, cols in tiles(count, L, _TILE):
        _sample_into(r_B[rows, cols], prg, modulus, nonzero=True)
    pow2 = np.array([pow(2, i, q) for i in range(ell)], dtype=np.int64)
    positions = np.arange(ell, dtype=np.int64)
    for rows, cols in tiles(count, L, _TILE // ell):
        b = r_B[rows, cols]
        rho = np.empty(b.shape + (ell,), np.int64)
        _sample_into(rho[:, :, : ell - 1], prg, modulus)
        # every term is reduced, so each form below is non-negative before
        # its one reduction: the closing rho is s_A - sum mod q, m0 = -rho
        # and m1 = r_A * 2^i - rho mod q
        closing = rho[:, :, ell - 1]
        np.sum(rho[:, :, : ell - 1], axis=2, out=closing)
        reduce_in_place(closing, q)
        np.subtract(s_A[rows, None].astype(np.int64) + q, closing, out=closing)
        reduce_in_place(closing, q)
        m0 = np.subtract(q, rho)
        m1 = r_A[rows, cols, None].astype(np.int64) * pow2
        m1 += m0
        reduce_in_place(m0, q)
        reduce_in_place(m1, q)
        bits = (b[:, :, None].astype(np.int64) >> positions) & 1
        ot.ot_send_many(m0.ravel(), m1.ravel())
        o = ot.ot_receive_many(bits.ravel()).reshape(bits.shape)
        bob[rows, cols, 1] = reduce_in_place(o.sum(axis=2), q)
        b[...] = tuples.mod_inv(b, q)


def _gilboa_chunk(modulus, master, domain, slot_len, alice, bob, c, lo, hi):
    """Chunk c (rows lo..hi) of one section: gilboa_batch on the chunk's own
    OT dealer and Gilboa seed, into its rows of the shared blocks."""
    tag = b"%s|%d" % (domain, c)
    ot = DealerAssistedOt(modulus, seed=subseed(master, b"ot-deal|" + tag))
    gilboa_batch(ot, modulus, subseed(master, b"gil|" + tag), alice[lo:hi], bob[lo:hi])


def gilboa_sections(modulus, layout, master):
    """The ot backend: Alice's and Bob's inventories for each (name, rows, L)
    section of `layout` (as params.sections gives it), by Gilboa product
    sharing over dealer-assisted OT, chunk by chunk from `master`."""
    ell = modulus.bit_len
    return _fill_sections(
        modulus, layout, lambda L: _chunk_rows(L, ell), partial(_gilboa_chunk, modulus, master)
    )
