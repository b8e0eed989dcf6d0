"""Offline-phase backends: correlated tuple generation for the PSI protocol.

Four interchangeable backends produce the same inventory shape:

    seed     both parties expand one shared seed (trusted-execution model)
    dealer   a third party ships seeds + Alice's r_A lists
    ot       Gilboa product sharing over precomputed oblivious transfer
    lbe-sim  plaintext walk through the leveled-encryption pipeline

A PSI run needs one inventory per side for each entry of
`params.sections(params)`, in that order: `bins` (alpha batches of beta
slots), then `stash` (stash_size batches of n slots).
"""

from __future__ import annotations

from ..params import sections
from ..prg import SEED_LEN, Prg, Seed
from ._expand import ExpansionError, expand_sections
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
from .gilboa import gilboa_batch
from .lbe import LbeSimParams, lbe_batch, lbe_params_for
from .ot import DealerAssistedOt, OtError
from .seeded import gen_seeded

BACKENDS = ("seed", "dealer", "ot", "lbe-sim")


def subseed(master, label):
    """Derive an independent seed from a master seed and a label."""
    return Seed(Prg(master, tag=b"sub|" + label).read(SEED_LEN))


def generate_psi_inventories(backend, params, master_seed=None):
    """Run one backend end to end; returns (alice_sections, bob_sections),
    one inventory per side for each of sections(params)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    master = Seed.random() if master_seed is None else master_seed

    if backend == "dealer":
        msg = dealer_generate(subseed(master, b"RA"), subseed(master, b"RB"), params)
        seed_a, r_A_lists = msg.to_alice
        return expand_alice(seed_a, r_A_lists, params), expand_bob(msg.to_bob, params)

    if backend == "seed":
        shared = subseed(master, b"shared")
        return expand_sections(params.modulus, sections(params), seed_a=shared, seed_b=shared)

    if backend == "ot":
        provider = DealerAssistedOt(params.modulus, seed=subseed(master, b"ot-deal"))

        def batch(rows, cols, domain):
            seed = subseed(master, b"gil|" + domain)
            return gilboa_batch(provider, params.modulus, rows, cols, seed)

    else:  # lbe-sim

        def batch(rows, cols, domain):
            seed = subseed(master, b"lbe|" + domain)
            return lbe_batch(params.modulus, params.lam, rows, cols, seed)

    halves = [batch(rows, cols, name.encode()) for name, rows, cols in sections(params)]
    return [a for a, _ in halves], [b for _, b in halves]
