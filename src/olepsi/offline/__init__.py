"""Offline-phase backends: correlated tuple generation for the PSI protocol.

Four interchangeable backends produce the same inventory shape:

    seed     both parties expand one shared seed (trusted-execution model)
    dealer   a third party expands both halves once and ships Alice her
             tuple file and Bob his seed
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
from .gilboa import gilboa_batch, gilboa_sections
from .lbe import LbeSimParams, lbe_params_for, lbe_r_a
from .ot import DealerAssistedOt, OtError

BACKENDS = ("seed", "dealer", "ot", "lbe-sim")


def dealer_seeds(master):
    """The dealer's (R_A, R_B) from the master seed. Alice's half is
    expanded from both, Bob's from R_B alone: his streams and his r_A step
    never read R_A, so the dealer-to-Bob message stays seed-sized no matter
    how many tuples the run needs."""
    return subseed(master, b"RA"), subseed(master, b"RB")


def expand_bob(R_B, params):
    """Bob's half of a dealer run, re-expanded from his seed R_B: the same
    bytes as the dealer's own expansion of it."""
    return expand_sections(params.modulus, sections(params), seed_a=None, seed_b=R_B)[1]


def generate_psi_inventories(backend, params, master_seed=None):
    """Run one backend end to end; returns (alice_sections, bob_sections),
    one inventory per side for each of sections(params)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    master = Seed.random() if master_seed is None else master_seed

    if backend == "dealer":
        R_A, R_B = dealer_seeds(master)
        return expand_sections(params.modulus, sections(params), seed_a=R_A, seed_b=R_B)

    if backend == "seed":
        shared = subseed(master, b"shared")
        return expand_sections(params.modulus, sections(params), seed_a=shared, seed_b=shared)

    if backend == "lbe-sim":
        seed = subseed(master, b"lbe")
        return expand_sections(
            params.modulus, sections(params), seed_a=seed, seed_b=seed, r_a=lbe_r_a(params.lam)
        )

    return gilboa_sections(params.modulus, sections(params), master)
