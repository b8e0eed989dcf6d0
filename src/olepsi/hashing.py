"""Permutation-based hashing: Alice's cuckoo table and Bob's padded bin table.

An element x splits into prefix x1 (sigma1 bits) and suffix x2 (sigma2 bits).
Bin index = (h_j(x2) + x1) mod alpha, which absorbs the prefix injectively
because 2^sigma1 <= alpha, so tables only store the suffix together with the
hash index that placed it: enc = j * 2^sigma2 + x2. Empty slots hold one of
two reserved dummy encodings (one per party) that can never match anything.

h_j is a keyed 64-bit mixer, fmix64(fmix64(x2 XOR a_j) XOR b_j), mapped onto
[0, alpha) by multiply-shift. Its seeds are public, so it needs to behave
like a random function for the load and stash bounds, not to be one-way.

Items Alice stashes have no bin, so stash comparisons use stash_encode: a
keyed 64-bit mixer of the whole element, reduced into the same range.

The seeds are one (k + 1, 2) array of uint64 (online.derive_hash_seeds):
row j < k holds (a_j, b_j), and the last row's first word keys stash_encode.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .modvec import dtype_for


class HashingError(Exception):
    pass


class CuckooFailure(HashingError):
    pass


class BinOverflow(HashingError):
    pass


_BLOCK = 1 << 16  # elements per pass of the bin hash: temporaries stay in cache


def _fmix64(z):
    """murmur3's 64-bit finalizer, in place on a uint64 array, wrapping mod
    2^64; returns z."""
    z ^= z >> 33
    z *= 0xFF51AFD7ED558CCD
    z ^= z >> 33
    z *= 0xC4CEB9FE1A85EC53
    z ^= z >> 33
    return z


def stash_encode(xs, seeds, params):
    """Field encodings of full elements for stash comparisons, one per element.

    z = x XOR seeds[-1, 0] (the keyed seed's first word), then fmix64,
    reduced mod dummy_alice: so every encoding lies in [0, k * 2^sigma2) and
    can never equal a dummy. One numpy pass over the whole array.
    """
    z = np.array(xs, dtype=np.uint64)
    z ^= seeds[-1, 0]
    _fmix64(z)
    z %= params.dummy_alice
    return z.astype(np.int64)


def _candidate_bins(arr, seeds, params, dtype=np.int64):
    """(k, len(arr)) array of the given integer dtype: entry [j, t] is the bin
    of arr[t] under hash j, (h_j(x2) + x1) mod alpha.

    h_j(x2) = fmix64(fmix64(x2 XOR a_j) XOR b_j), where (a_j, b_j) is row j
    of the seed array, mapped onto [0, alpha) by multiply-shift of its top
    32 bits: derive_params refuses alpha >= 2^31, so the product fits 64 bits
    and every bin fits an int32. Evaluated _BLOCK elements at a time,
    straight into the output.
    """
    alpha, sigma2 = params.alpha, params.sigma2
    cand = np.empty((params.k, arr.size), dtype=dtype)
    for lo in range(0, arr.size, _BLOCK):
        block = arr[lo : lo + _BLOCK]
        x1 = (block >> sigma2).astype(np.uint64)
        x2 = (block & ((1 << sigma2) - 1)).astype(np.uint64)
        for j, (a, b) in enumerate(seeds[: params.k]):
            z = _fmix64(x2 ^ a)
            z ^= b
            _fmix64(z)
            z >>= 32
            z *= alpha
            z >>= 32
            z += x1
            z %= alpha
            cand[j, lo : lo + _BLOCK] = z
    return cand


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

    bins: np.ndarray      # encoding per bin in dtype_for(dummy_alice + 1), dummy_alice when empty
    origins: np.ndarray   # original element per bin, -1 when empty
    stash: list           # original elements that failed to place


def build_cuckoo_table(elements, params, seeds):
    """Cuckoo-hash the elements under the given seeds, in one attempt, by
    round-based parallel insertion (Alcantara et al., TOG 2009).

    Each round every pending item claims its bin under its current hash
    index; the lowest item index wins each claimed bin and displaces the
    occupant. Losers and displaced occupants move on to their next hash
    index. Items still pending after 16 log2(n) rounds go to the stash; when
    more than stash_size remain, CuckooFailure is raised. The protocol pins
    the seeds to its setup data, so there is nothing to resample.

    The first round has every item pending under hash 0 in an empty table,
    so it is one np.minimum.at scatter of the item indices with no eviction.
    Item and bin indices are int32, which holds them because derive_params
    refuses alpha >= 2^31 and n < alpha.
    """
    arr = _check_input_set(elements, params)
    budget = 16 * max(1, math.ceil(math.log2(max(params.n, 2))))
    size, k = arr.size, params.k
    cand = _candidate_bins(arr, seeds, params, np.int32)
    idx = np.arange(size, dtype=np.int32)
    claim = np.full(params.alpha, size, dtype=np.int32)
    # the lowest index wins: numpy does not define which of several fancy-index
    # writes to one bin lands, so this is not claim[cand[0]] = idx
    np.minimum.at(claim, cand[0], idx)
    pending = idx[claim[cand[0]] != idx]
    owner = claim  # item index per bin, -1 when empty
    owner[owner == size] = -1
    claim = np.full(params.alpha, size, dtype=np.int32)
    hash_index = np.zeros(size, dtype=np.int8)
    hash_index[pending] = 1
    for _ in range(budget - 1):
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
    enc = arr[items]
    origins = np.full(params.alpha, -1, dtype=np.int64)
    origins[placed] = enc
    enc &= (1 << params.sigma2) - 1  # enc = j * 2^sigma2 + x2
    enc |= hash_index[items].astype(np.int64) << params.sigma2
    bins = np.full(params.alpha, params.dummy_alice, dtype=dtype_for(params.dummy_alice + 1))
    bins[placed] = enc
    return CuckooTable(bins=bins, origins=origins, stash=arr[np.sort(pending)].tolist())


@dataclass
class BinTable:
    """Bob's table: every element under each of its k hashes, padded to beta."""

    bins: np.ndarray      # shape (alpha, beta), dummy_bob padding
    elements: np.ndarray  # the input set as a sorted int64 array
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

    # entry [j, t]: arr[t]'s bin under hash j; becomes its int64 sort key in place
    keys = _candidate_bins(arr, seeds, params, np.int64)
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
    keys |= arr & mask2  # enc = j * 2^sigma2 + x2
    keys |= (np.arange(k, dtype=np.int64) << sigma2)[:, None]
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
    return BinTable(bins=table, elements=arr, params=params)
