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

Bob's table is never built whole. build_bin_table keeps his k * n sorted
(bin, encoding) keys and, for each, the slot a fresh rotation of its bin
gives it, and BinTable.rows fills any range of bins from them, padded to
beta with his dummy: so the online phase holds one frame of rows at a
time, not alpha * beta slots.
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


# elements per pass of the bin hash, the offset draw and the slot pass:
# temporaries stay in cache
_BLOCK = 1 << 16


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
    """Elements as a 1-D int64 array: an ndarray is taken as is, anything
    else iterable is read through a list, which numpy converts faster than
    np.fromiter reads an iterator. Input that is not 1-D is refused."""
    if isinstance(elements, np.ndarray):
        arr = elements.astype(np.int64, copy=False)
    else:
        arr = np.array(list(elements), dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"elements must form a 1-D collection, got {arr.ndim} dimensions")
    return arr


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
    """Bob's table, held as his sorted (bin, encoding) keys and each key's
    slot in its bin; rows() fills any range of bins from them on demand, so
    the whole (alpha, beta) table never has to exist at once."""

    keys: np.ndarray      # sorted int64 (bin << _enc_bits) | enc, k per element
    slots: np.ndarray     # each key's slot in its bin, in dtype_for(beta)
    elements: np.ndarray  # the input set as a sorted int64 array
    params: object

    def rows(self, lo, hi, out=None):
        """Bins lo..hi as a (hi - lo, beta) array in dtype_for(dummy_bob + 1):
        each key of those bins at its slot and dummy_bob everywhere else,
        written into the first hi - lo rows of `out` when it is given."""
        p = self.params
        bits = _enc_bits(p)
        if out is None:
            out = np.empty((hi - lo, p.beta), dtype_for(p.dummy_bob + 1))
        rows = out[: hi - lo]
        rows.fill(p.dummy_bob)
        first, last = np.searchsorted(self.keys, [lo << bits, hi << bits])
        keys = self.keys[first:last]
        bins = keys >> bits
        bins -= lo
        rows[bins, self.slots[first:last]] = keys & ((1 << bits) - 1)
        return rows

    @property
    def bins(self):
        """The whole (alpha, beta) table, through rows()."""
        return self.rows(0, self.params.alpha)


def _enc_bits(params):
    """Bits of an encoding in a packed key: derive_params refuses q >= 2^31,
    so an encoding takes at most 31 bits, and a bin at most 28 on every
    PARAM_TABLE row, so (bin, encoding) fits an int64."""
    return (params.dummy_alice - 1).bit_length()


def build_bin_table(elements, params, seeds):
    """Bob's table: the sorted (bin, encoding) keys of every element under
    each of its k hashes, each with its slot under a fresh uniform rotation
    of its bin.

    The keys are unique, since (bin, j, x2) determines the element, so one
    sort orders every bin's entries by encoding. Those entries fill the
    cyclic run of slots that starts at the bin's offset: the entry of rank r
    goes to slot (r + offset) mod beta, and rows() puts dummies around them.
    So a match's slot is uniform on [0, beta), whatever the bin's load and
    the match's rank, and reveals nothing about Bob's other entries in that
    bin.
    """
    arr = _check_input_set(elements, params)
    alpha, beta, k = params.alpha, params.beta, params.k
    sigma2 = params.sigma2
    bits = _enc_bits(params)

    # entry [j, t]: arr[t]'s bin under hash j; becomes its int64 sort key in place
    keys = _candidate_bins(arr, seeds, params, np.int64)
    keys <<= bits
    keys |= arr & ((1 << sigma2) - 1)  # enc = j * 2^sigma2 + x2
    keys |= (np.arange(k, dtype=np.int64) << sigma2)[:, None]
    keys = keys.ravel()
    keys.sort()
    # one offset per bin, uniform on [0, beta): drawn in passes, but as int64
    # in bin order from one generator, so they are the values of one
    # alpha-length draw
    rng = np.random.default_rng(list(os.urandom(16)))
    offsets = np.empty(alpha, dtype_for(beta))
    for lo in range(0, alpha, _BLOCK):
        offsets[lo : lo + _BLOCK] = rng.integers(0, beta, min(_BLOCK, alpha - lo))

    slots = np.empty(keys.size, offsets.dtype)
    load = 0  # the longest run of one bin in the sorted keys
    for lo in range(0, keys.size, _BLOCK):
        b = keys[lo : lo + _BLOCK] >> bits
        # a key's rank in its bin: its index less its bin's first key, which
        # for the pass's first bin may lie in an earlier pass
        rank = np.arange(b.size, dtype=np.int32)
        first = np.empty(b.size, bool)
        first[0] = True
        np.not_equal(b[1:], b[:-1], out=first[1:])
        start = rank * first  # a key's own index where its bin starts, else 0
        np.maximum.accumulate(start, out=start)
        rank -= start
        rank[b == b[0]] += lo - np.searchsorted(keys[:lo], b[0] << bits)
        load = max(load, int(rank.max()) + 1)
        rank += offsets[b]
        rank %= beta
        slots[lo : lo + _BLOCK] = rank
    if load > beta:
        raise BinOverflow(f"bin load {load} exceeds beta={beta}; parameter guarantee violated")
    return BinTable(keys=keys, slots=slots, elements=arr, params=params)
