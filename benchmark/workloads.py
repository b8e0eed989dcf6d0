"""Workload definitions and seeded input generation, shared by run.py and child.py.

A workload fixes the protocol shape (n, k, stash, overlap, backends) and how
the roles are placed: both in one process over the in-memory channel
("pair"), or offline plus two role processes over loopback TCP ("tcp").
Inputs depend only on (workload seed, iteration); they are generated in the
child processes outside every timed region.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

SIGMA = 32


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str          # "pair": one process, Bob on a thread; "tcp": two role processes
    n: int
    k: int
    overlap: int        # |X & Y|
    backends: tuple     # one full PSI per backend per iteration, in this order
    stash: int = None   # None: derive_params decides


WORKLOADS = {
    w.name: w
    for w in (
        # The `olepsi offline` + `olepsi run` path: tuple files, two role
        # processes in parallel over loopback TCP, the only stash traffic
        # (3n extra d-values, Bob's per-element stash_encode loop).
        Workload("psi-512k-k2-tcp", "tcp", n=1 << 19, k=2, overlap=1 << 13,
                 backends=("seed",), stash=3),
        # Offline-bound (about 80% of run_s): hashing or online changes
        # should leave it unchanged. The only user of the dealer, Gilboa/OT
        # and CRT-pipeline code, and of runner.run_psi_pair (both roles in one
        # process, Bob on a thread, in-memory channel).
        Workload("offline-16k-mix", "pair", n=1 << 14, k=3, overlap=1 << 13,
                 backends=("dealer", "ot", "lbe-sim")),
    )
}
# The paper's row n = 2^20, k = 3 in one process is left out: an iteration
# takes about 10 s, so a run holds four of them, and on a shared 2-CPU VM
# ten such runs spread by more than the 0.25 regression bound.


def make_params(workload):
    from olepsi.params import derive_params

    return derive_params(workload.n, workload.k, sigma=SIGMA, stash_size=workload.stash)


def _pool(workload, seed, iteration):
    """2n - overlap distinct values in random order; X and Y are slices of it."""
    n, m = workload.n, workload.overlap
    rng = np.random.default_rng([seed, iteration])
    need = 2 * n - m
    pool = np.empty(0, dtype=np.uint64)
    while pool.size < need:
        draw = rng.integers(0, 1 << SIGMA, size=need + 4096, dtype=np.uint64)
        pool = np.concatenate([pool, draw])
        pool.sort()
        pool = pool[np.concatenate(([True], pool[1:] != pool[:-1]))]
    rng.shuffle(pool)
    return pool[:need]


def _side(pool, workload, role):
    n, m = workload.n, workload.overlap
    if role == "alice":
        return set(pool[:n].tolist())
    return set(pool[:m].tolist()) | set(pool[n:].tolist())


def make_input(workload, seed, iteration, role):
    """One party's set (Alice's X or Bob's Y) as a Python set of ints."""
    return _side(_pool(workload, seed, iteration), workload, role)


def make_inputs(workload, seed, iteration):
    """(X, Y): |X| = |Y| = n, |X & Y| = overlap."""
    pool = _pool(workload, seed, iteration)
    return _side(pool, workload, "alice"), _side(pool, workload, "bob")


def master_seed(workload, seed, iteration, backend):
    """Offline master seed: fresh per (run, iteration, backend), reproducible."""
    from olepsi.prg import Seed

    label = f"olepsi-bench|{workload.name}|{seed}|{iteration}|{backend}"
    return Seed(hashlib.sha256(label.encode()).digest())


def tuple_paths(run_dir, iteration, trace):
    """(Alice's, Bob's) tuple file of one iteration; written once, loaded once."""
    base = os.path.join(run_dir, f"iter{iteration}-{int(trace)}")
    return base + "-alice.tup", base + "-bob.tup"


def intersection_digest(values):
    """Order-free digest of a set of ints, for traced/untraced agreement."""
    arr = np.array(sorted(values), dtype=np.uint64)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]
