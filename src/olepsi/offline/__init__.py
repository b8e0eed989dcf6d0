"""Offline-phase backends: correlated tuple generation for the PSI protocol.

Four interchangeable backends produce the same inventory shape:

    seed     both parties expand one shared seed (trusted-execution model)
    dealer   a third party ships seeds + Alice's r_A lists
    ot       Gilboa product sharing over precomputed oblivious transfer
    lbe-sim  plaintext walk through the leveled-encryption pipeline

A PSI run needs two sections per side: `bins` (alpha batches of beta
slots) and `stash` (stash_size batches of n slots).
"""

from __future__ import annotations

from ..prg import SEED_LEN, Prg, Seed
from .dealer import (
    DealerMessages,
    dealer_generate,
    decode_to_alice,
    decode_to_bob,
    encode_to_alice,
    encode_to_bob,
    expand_alice,
    expand_bob,
)
from .gilboa import gilboa_batch, gilboa_share
from .lbe import LbeSimParams, lbe_batch, lbe_params_for, lbe_sim_tuple
from .ot import DealerAssistedOt, OtError
from .seeded import gen_seeded

BACKENDS = ("seed", "dealer", "ot", "lbe-sim")


def subseed(master, label):
    """Derive an independent seed from a master seed and a label."""
    return Seed(Prg(master, tag=b"sub|" + label).read(SEED_LEN))


def generate_psi_inventories(backend, params, master_seed=None, bin_count=None):
    """Run one backend end to end; returns (alice_sections, bob_sections).

    Each side gets [bins, stash] inventories sized for `params`
    (bin_count overrides the number of bin batches, default alpha).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    master = Seed.random() if master_seed is None else master_seed
    nbins = params.alpha if bin_count is None else bin_count
    sections = ((nbins, params.beta, b"bins"), (params.stash_size, params.n, b"stash"))

    if backend == "seed":
        shared = subseed(master, b"shared")
        halves = [
            gen_seeded(shared, count, params.modulus, slot_len, domain=domain)
            for count, slot_len, domain in sections
        ]
        return [a for a, _ in halves], [b for _, b in halves]

    if backend == "dealer":
        R_A = subseed(master, b"RA")
        R_B = subseed(master, b"RB")
        msg = dealer_generate(R_A, R_B, nbins, params)
        seed_a, r_A_lists = msg.to_alice
        alice = expand_alice(seed_a, r_A_lists, params)
        bob = expand_bob(msg.to_bob, params, bin_count=nbins)
        return alice, bob

    if backend == "ot":
        provider = DealerAssistedOt(params.modulus, seed=subseed(master, b"ot-deal"))
        halves = [
            gilboa_batch(
                provider,
                params,
                count,
                slot_len=slot_len,
                seed=subseed(master, b"gil|" + domain),
            )
            for count, slot_len, domain in sections
        ]
        return [a for a, _ in halves], [b for _, b in halves]

    # lbe-sim
    halves = [
        lbe_batch(
            params,
            count,
            slot_len=slot_len,
            seed=subseed(master, b"lbe|" + domain),
        )
        for count, slot_len, domain in sections
    ]
    return [a for a, _ in halves], [b for _, b in halves]
