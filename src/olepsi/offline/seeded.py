"""Shared-seed backend.

Models the trusted-execution variant of the offline phase: both parties
hold the same PRG seed (in deployment it would live inside sealed
hardware on each side), so each can expand the full correlated randomness
locally and the offline phase costs zero communication.
"""

from __future__ import annotations

from ._expand import expand_sections


def gen_seeded(shared_seed, count, modulus, slot_len, *, domain=b"bins"):
    """Expand `count` batches of `slot_len` tuples over F_q from one seed.

    Returns (AliceInventory, BobInventory), both deterministic functions
    of the seed: running twice yields bit-identical arrays.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    layout = [(domain.decode(), count, slot_len)]
    (alice,), (bob,) = expand_sections(modulus, layout, seed_a=shared_seed, seed_b=shared_seed)
    return alice, bob
