"""Round-based cuckoo insertion against the sequential eviction loop it replaced.

The oracle is the earlier builder: insert the items one at a time; when the
bin is taken, evict its occupant and carry it on to its next hash index, for
at most `budget` steps per item; an item still carried after that goes to the
stash. Both see the items in the same (sorted) order. Per seed, they must
reach the same outcome: the same stash size, or CuckooFailure from both.
"""

import math
from collections import Counter

import numpy as np
import pytest

from olepsi.hashing import CuckooFailure, _candidate_bins, build_cuckoo_table
from olepsi.params import derive_params
from olepsi.prg import Prg, Seed

from oracles import hash_seeds


def sequential_stash_size(arr, params, seeds):
    """Stash size of the sequential eviction loop, or None when it fails."""
    budget = 16 * max(1, math.ceil(math.log2(max(params.n, 2))))
    cand = _candidate_bins(arr, seeds, params).tolist()
    owner = [-1] * params.alpha
    used = [0] * params.alpha
    stash = 0
    for t in range(arr.size):
        item, j = t, 0
        for _ in range(budget):
            i = cand[j][item]
            evicted, j_evicted = owner[i], used[i]
            owner[i], used[i] = item, j
            if evicted < 0:
                break
            item, j = evicted, (j_evicted + 1) % params.k
        else:
            stash += 1
            if stash > params.stash_size:
                return None
    return stash


def round_based_stash_size(arr, params, seeds):
    try:
        return len(build_cuckoo_table(arr, params, seeds=seeds).stash)
    except CuckooFailure:
        return None


def _case(params, domain, seed):
    rng = np.random.default_rng([seed, params.n, params.k, params.stash_size])
    arr = np.sort(rng.choice(domain, size=params.n, replace=False)).astype(np.int64)
    prg = Prg(Seed(seed.to_bytes(32, "little")), tag=b"parity")
    return arr, hash_seeds(prg.read(16 * (params.k + 1)))


def parity_sweep(params, domain, seeds):
    """Outcome counts of the round-based builder, and every seed where the two differ."""
    outcomes, mismatches = Counter(), []
    for seed in seeds:
        arr, hs = _case(params, domain, seed)
        new = round_based_stash_size(arr, params, hs)
        old = sequential_stash_size(arr, params, hs)
        outcomes[new] += 1
        if new != old:
            mismatches.append((seed, old, new))
    return outcomes, mismatches


CONFIGS = {
    "k2-n64-s4": (derive_params(64, 2, sigma=16, stash_size=4), 1 << 16),
    "k2-n1024-s3": (derive_params(1 << 10, 2, stash_size=3), 1 << 32),
    "k2-n1024-s0": (derive_params(1 << 10, 2, stash_size=0), 1 << 32),
    "k3-n1024": (derive_params(1 << 10, 3), 1 << 32),
}
# Seed ranges per configuration: (quick, slow). The quick ranges hold
# several stashed or failed builds for every k=2 configuration.
SEEDS = {
    "k2-n64-s4": (range(300), range(1000, 4000)),
    "k2-n1024-s3": (range(200), range(1000, 1500)),
    "k2-n1024-s0": (range(250), range(1000, 1500)),
    "k3-n1024": (range(50), range(1000, 1150)),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_parity_with_sequential_builder(name):
    params, domain = CONFIGS[name]
    outcomes, mismatches = parity_sweep(params, domain, SEEDS[name][0])
    assert mismatches == []
    if params.k == 2:
        # the sweep must leave the plain path, or it shows nothing of it
        assert outcomes[0] < sum(outcomes.values())


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_parity_with_sequential_builder_wide(name):
    params, domain = CONFIGS[name]
    _, mismatches = parity_sweep(params, domain, SEEDS[name][1])
    assert mismatches == []
