"""Permutation-based hashing: Alice's cuckoo table and Bob's padded bin table.

An element x splits into prefix x1 (sigma1 bits) and suffix x2 (sigma2 bits).
Bin index = (h_j(x2) + x1) mod alpha, which absorbs the prefix injectively
because 2^sigma1 <= alpha, so tables only store the suffix together with the
hash index that placed it: enc = j * 2^sigma2 + x2. Empty slots hold one of
two reserved dummy encodings (one per party) that can never match anything.

Items Alice stashes have no bin, so stash comparisons use stash_encode: a
keyed 64-bit mixer of the whole element, reduced into the same range.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .modvec import dtype_for

HASH_SEED_LEN = 16


class HashingError(Exception):
    pass


class CuckooFailure(HashingError):
    pass


class BinOverflow(HashingError):
    pass


@dataclass(frozen=True)
class HashSeeds:
    """k bin-hash seeds plus one keyed-hash seed, shared by both parties."""

    bin_seeds: tuple
    keyed_seed: bytes

    def __post_init__(self):
        for s in self.bin_seeds:
            if len(s) != HASH_SEED_LEN:
                raise ValueError("bin seed of wrong length")
        if len(self.keyed_seed) != HASH_SEED_LEN:
            raise ValueError("keyed seed of wrong length")

    @classmethod
    def generate(cls, k, randbytes):
        """k + 1 seeds read in order from randbytes(n) -> n bytes."""
        return cls(
            bin_seeds=tuple(randbytes(HASH_SEED_LEN) for _ in range(k)),
            keyed_seed=randbytes(HASH_SEED_LEN),
        )

    def to_bytes(self):
        return b"".join(self.bin_seeds) + self.keyed_seed

    @classmethod
    def from_bytes(cls, data, k):
        if len(data) != (k + 1) * HASH_SEED_LEN:
            raise ValueError("seed block of wrong length")
        parts = [
            data[i * HASH_SEED_LEN : (i + 1) * HASH_SEED_LEN] for i in range(k + 1)
        ]
        return cls(bin_seeds=tuple(parts[:k]), keyed_seed=parts[k])


def keyed_hash(seed, x, range_size):
    """The shared keyed hash H, reduced into [0, range_size)."""
    digest = hashlib.sha256(seed + x.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:8], "little") % range_size


def _hash_words(prefix, values):
    """uint64 array: the first 8 digest bytes (little-endian) of
    sha256(prefix + v.to_bytes(8, "little")) for each v. The prefix is
    hashed once and copied per value."""
    buf = np.asarray(values, dtype="<u8").tobytes()
    copy = hashlib.sha256(prefix).copy
    digests = []
    append = digests.append
    for off in range(0, len(buf), 8):
        h = copy()
        h.update(buf[off : off + 8])
        append(h.digest())
    # every 4th word: the first 8 of each digest's 32 bytes
    return np.frombuffer(b"".join(digests), dtype="<u8")[::4]


def stash_encode(xs, seeds, params):
    """Field encodings of full elements for stash comparisons, one per element.

    z = x XOR (the first 8 keyed-seed bytes, little-endian), then the murmur3
    fmix64 finalizer on uint64 with wraparound, reduced mod dummy_alice: so
    every encoding lies in [0, k * 2^sigma2) and can never equal a dummy.
    One numpy pass over the whole array.
    """
    z = np.array(xs, dtype=np.uint64)
    z ^= np.frombuffer(seeds.keyed_seed[:8], dtype="<u8")[0]
    z ^= z >> 33
    z *= 0xFF51AFD7ED558CCD
    z ^= z >> 33
    z *= 0xC4CEB9FE1A85EC53
    z ^= z >> 33
    z %= params.dummy_alice
    return z.astype(np.int64)


def _candidate_bins(arr, seeds, params):
    """(k, len(arr)) array: entry [j, t] is the bin of arr[t] under hash j,
    (h_j(x2) + x1) mod alpha with h_j(x2) = the first 8 bytes of
    sha256(bin_seeds[j] + bytes([j]) + x2 as 8 little-endian bytes), read
    little-endian, mod alpha.

    h_j is evaluated once per distinct suffix, into a (u, k) table.
    """
    x2 = arr & ((1 << params.sigma2) - 1)
    uniq, inv = np.unique(x2, return_inverse=True)
    hvals = np.empty((uniq.size, params.k), dtype=np.int64)
    for j, seed in enumerate(seeds.bin_seeds):
        hvals[:, j] = _hash_words(seed + bytes([j]), uniq) % params.alpha
    return (hvals[inv].T + (arr >> params.sigma2)) % params.alpha


def as_element_array(elements):
    """Elements as an int64 array: an ndarray is taken as is, anything else
    iterable is read with np.fromiter."""
    if isinstance(elements, np.ndarray):
        return elements.astype(np.int64, copy=False)
    return np.fromiter(elements, dtype=np.int64)


def _check_input_set(elements, params):
    """The input as a sorted int64 array, so tables do not depend on the
    order the elements arrive in; rejects oversize, out-of-range and
    duplicate input."""
    arr = np.sort(as_element_array(elements))
    if arr.size > params.n:
        raise ValueError(f"set larger than n={params.n}")
    if arr.size:
        if arr[0] < 0 or arr[-1] >= (1 << params.sigma):
            raise ValueError(f"elements must be in [0, 2^{params.sigma})")
        if (arr[1:] == arr[:-1]).any():
            raise ValueError("duplicate elements in input set")
    return arr


@dataclass
class CuckooTable:
    """Alice's table: at most one encoded item per bin, overflow on a stash."""

    bins: np.ndarray      # encoding per bin, dummy_alice when empty
    origins: np.ndarray   # original element per bin, -1 when empty
    stash: list           # original elements that failed to place
    seeds: HashSeeds
    params: object

    def occupied(self):
        return int((self.origins >= 0).sum())


def build_cuckoo_table(elements, params, seeds):
    """Cuckoo-hash the elements under the given seeds, in one attempt, by
    round-based parallel insertion (Alcantara et al., TOG 2009).

    Each round every pending item claims its bin under its current hash
    index; the lowest item index wins each claimed bin and displaces the
    occupant. Losers and displaced occupants move on to their next hash
    index. Items still pending after 16 log2(n) rounds go to the stash; when
    more than stash_size remain, CuckooFailure is raised. The protocol pins
    the seeds to its setup data, so there is nothing to resample.
    """
    arr = _check_input_set(elements, params)
    budget = 16 * max(1, math.ceil(math.log2(max(params.n, 2))))
    size, k = arr.size, params.k
    cand = _candidate_bins(arr, seeds, params)
    owner = np.full(params.alpha, -1, dtype=np.int64)  # item index per bin
    claim = np.full(params.alpha, size, dtype=np.int64)
    hash_index = np.zeros(size, dtype=np.int64)
    pending = np.arange(size, dtype=np.int64)
    for _ in range(budget):
        if not pending.size:
            break
        want = cand[hash_index[pending], pending]
        np.minimum.at(claim, want, pending)
        won = claim[want] == pending
        claim[want] = size
        won_bins = want[won]
        evicted = owner[won_bins]
        owner[won_bins] = pending[won]
        pending = np.concatenate((pending[~won], evicted[evicted >= 0]))
        hash_index[pending] = (hash_index[pending] + 1) % k
    if pending.size > params.stash_size:
        raise CuckooFailure(f"placement failed for {size} elements, stash {params.stash_size}")

    placed = np.flatnonzero(owner >= 0)
    items = owner[placed]
    bins = np.full(params.alpha, params.dummy_alice, dtype=np.int64)
    bins[placed] = (hash_index[items] << params.sigma2) + (
        arr[items] & ((1 << params.sigma2) - 1)
    )
    origins = np.full(params.alpha, -1, dtype=np.int64)
    origins[placed] = arr[items]
    return CuckooTable(
        bins=bins,
        origins=origins,
        stash=arr[np.sort(pending)].tolist(),
        seeds=seeds,
        params=params,
    )


@dataclass
class BinTable:
    """Bob's table: every element under each of its k hashes, padded to beta."""

    bins: np.ndarray      # shape (alpha, beta), dummy_bob padding
    elements: np.ndarray  # the input set as a sorted int64 array
    seeds: HashSeeds
    params: object


def build_bin_table(elements, params, seeds):
    """Bob's table, each bin's row rotated by a fresh uniform offset.

    A bin's entries, in encoding order, fill one cyclic run of slots that
    starts at its offset, and the dummies fill the rest. So a match's slot is
    uniform on [0, beta), whatever the bin's load and the match's rank, and
    reveals nothing about Bob's other entries in that bin.
    """
    arr = _check_input_set(elements, params)
    alpha, beta, k = params.alpha, params.beta, params.k
    sigma2 = params.sigma2
    mask2 = (1 << sigma2) - 1

    # entry [t, j]: arr[t]'s bin under hash j; becomes its sort key in place
    keys = _candidate_bins(arr, seeds, params).T
    counts = np.bincount(keys.ravel(), minlength=alpha)
    if counts.max() > beta:
        raise BinOverflow(
            f"bin load {int(counts.max())} exceeds beta={beta}; "
            "parameter guarantee violated"
        )
    # one sort of (bin, encoding) keys packed in an int64; they are unique,
    # since (bin, j, x2) determines the element. They fit: derive_params
    # refuses q >= 2^31, so enc takes at most 31 bits, and the bin takes at
    # most 28 on every PARAM_TABLE row
    enc_bits = (params.dummy_alice - 1).bit_length()
    keys <<= enc_bits
    keys |= (arr & mask2)[:, None]  # enc = j * 2^sigma2 + x2
    keys |= np.arange(k, dtype=np.int64) << sigma2
    keys = keys.ravel()
    keys.sort()
    # entry i of the sorted keys goes to slot (i - starts[bin] + off[bin])
    # mod beta of its bin, where off[bin] is uniform on [0, beta) and
    # starts[bin] is the bin's first sorted entry; shift = off - starts
    shift = np.random.default_rng(list(os.urandom(16))).integers(0, beta, alpha)
    shift[1:] -= np.cumsum(counts)[:-1]
    pos = shift[keys >> enc_bits]
    pos += np.arange(keys.size, dtype=np.int64)
    pos %= beta
    pos += (keys >> enc_bits) * beta
    keys &= (1 << enc_bits) - 1
    table = np.full((alpha, beta), params.dummy_bob, dtype=dtype_for(params.dummy_bob + 1))
    table.reshape(-1)[pos] = keys
    return BinTable(bins=table, elements=arr, seeds=seeds, params=params)
