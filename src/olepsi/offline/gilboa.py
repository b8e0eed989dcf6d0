"""Product sharing from bitwise oblivious transfer (Gilboa, CRYPTO 1999).

One multiplication r_A * r_B is shared through ell = ceil(log2 q) OTs:
for bit position i (1-based) Alice offers (-rho_i, r_A*2^(i-1) - rho_i)
and Bob selects with bit i-1 of r_B, receiving o_i.  Then

    rho_i + o_i = b_i * r_A * 2^(i-1)

so s_A = sum rho_i and s_B = sum o_i satisfy s_A + s_B = r_A * r_B.

gilboa_batch runs this on every slot of a batch at once, and shares one
s_A across the batch by constraining each slot's rho list to sum to it.

It keeps its own engine rather than the chunked expansion the other
backends share: the DealerAssistedOt draws its pads from one sequential
stream, so chunks expanded on forked workers would each reuse the same
pads. Bob holds r_B here, not a drawn r_B^-1, so this is the one backend
that inverts (BobInventory.from_r_b_s_b).
"""

from __future__ import annotations

import numpy as np

from ..modvec import dtype_for
from ..prg import Prg
from ..tuples import AliceInventory, BobInventory


def gilboa_batch(ot, modulus, count, slot_len, seed):
    """Generate `count` batches of slot_len slots over F_q by OT:
    slot_len * ell invocations each.

    Per batch: one shared s_A, independent (r_A, r_B) per slot, and per
    slot a rho list constrained to sum to s_A, so every slot's Gilboa run
    lands on the same Alice share.
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
    s_B = np.empty((count, L), dtype=dt)
    pow2 = np.array([pow(2, i, q) for i in range(ell)], dtype=np.int64)
    positions = np.arange(ell, dtype=np.int64)
    step = max(1, (1 << 20) // max(L * ell, 1))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        c = hi - lo
        rho = np.empty((c, L, ell), dtype=np.int64)
        if ell > 1:
            rho[:, :, : ell - 1] = prg.elements(
                modulus, c * L * (ell - 1)
            ).reshape(c, L, ell - 1)
        partial = rho[:, :, : ell - 1].sum(axis=2) % q
        rho[:, :, ell - 1] = (s_A[lo:hi, None].astype(np.int64) - partial) % q
        m0 = (-rho) % q
        m1 = (r_A[lo:hi, :, None].astype(np.int64) * pow2 - rho) % q
        bits = (r_B[lo:hi, :, None].astype(np.int64) >> positions) & 1
        ot.ot_send_many(m0.ravel(), m1.ravel())
        o = ot.ot_receive_many(bits.ravel()).reshape(c, L, ell)
        s_B[lo:hi] = o.sum(axis=2) % q
    return AliceInventory(modulus, block), BobInventory.from_r_b_s_b(modulus, r_B, s_B)
