"""Shared-seed backend.

Models the trusted-execution variant of the offline phase: both parties
hold the same PRG seed (in deployment it would live inside sealed
hardware on each side), so each can expand the full correlated randomness
locally and the offline phase costs zero communication.
"""

from __future__ import annotations

import numpy as np

from ..modvec import dtype_for
from ..tuples import AliceInventory
from ._expand import derive_r_a_arrays, expand_bob_inventory, expand_s_a


def gen_seeded(shared_seed, count, modulus, slot_len, *, domain=b"bins"):
    """Expand `count` batches of `slot_len` tuples over F_q from one seed.

    Returns (AliceInventory, BobInventory), both deterministic functions
    of the seed: running twice yields bit-identical arrays.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    bob = expand_bob_inventory(shared_seed, modulus, count, slot_len, domain)
    # s_A and r_A expanded straight into Alice's one (count, 1 + L) block
    block = np.empty((count, 1 + slot_len), dtype=dtype_for(modulus.q))
    block[:, 0] = expand_s_a(shared_seed, modulus, count, slot_len, domain)
    derive_r_a_arrays(block[:, 0], bob.s_B, bob.r_B_inv, modulus.q, out=block[:, 1:])
    return AliceInventory(modulus, block), bob
