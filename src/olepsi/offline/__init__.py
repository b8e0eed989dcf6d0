"""Offline-phase backends: correlated tuple generation for the PSI protocol.

Four interchangeable backends produce the same inventory shape:

    seed     both parties expand one shared seed (trusted-execution model)
    dealer   a third party ships Alice her tuple file and Bob his seed
    ot       Gilboa product sharing over precomputed oblivious transfer
    lbe-sim  plaintext walk through the leveled-encryption pipeline

All four fill their sections through one section filler (_expand), which
cuts every section into chunks and runs them on forked workers. The seed,
dealer and lbe-sim backends hand it one chunked expansion, which draws Bob's
r_B^-1 directly and derives r_A per chunk: lbe-sim only swaps in its residue
pipeline as the r_A step. The ot backend hands it Gilboa chunks, each on an
OT dealer and seed of its own (gilboa_sections), and is the one backend that
inverts.

A PSI run needs one inventory per side for each entry of
`params.sections(params)`, in that order: `bins` (alpha batches of beta
slots), then `stash` (stash_size batches of n slots).
"""

from __future__ import annotations

from ..params import sections
from ..prg import Seed, subseed
from ._expand import ExpansionError, expand_sections, gen_seeded
from .dealer import DealerMessages, dealer_generate, decode_to_bob, expand_bob
from .gilboa import gilboa_batch, gilboa_sections
from .lbe import LbeSimParams, lbe_params_for, lbe_r_a
from .ot import DealerAssistedOt, OtError

BACKENDS = ("seed", "dealer", "ot", "lbe-sim")


def generate_psi_inventories(backend, params, master_seed=None):
    """Run one backend end to end; returns (alice_sections, bob_sections),
    one inventory per side for each of sections(params)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    master = Seed.random() if master_seed is None else master_seed

    if backend == "dealer":
        msg = dealer_generate(subseed(master, b"RA"), subseed(master, b"RB"), params)
        return msg.to_alice, expand_bob(msg.to_bob, params)

    if backend == "seed":
        shared = subseed(master, b"shared")
        return expand_sections(params.modulus, sections(params), seed_a=shared, seed_b=shared)

    if backend == "lbe-sim":
        seed = subseed(master, b"lbe")
        return expand_sections(
            params.modulus, sections(params), seed_a=seed, seed_b=seed, r_a=lbe_r_a(params.lam)
        )

    return gilboa_sections(params.modulus, sections(params), master)
