"""Test oracles: scalar restatements of the tuple definitions, written from
the documented formats rather than from the vectorised code they check.

- reference_elements: the PRG sampler, one word at a time through Prg.read
- reference_section: one section of the seed and dealer expansion
- reference_section_bytes / reference_token: tuple file format 2, and
  with_header to rewrite a field of a section header
- write_format_1_bob_file: Bob's half in the retired tuple file format 1
- validate_inventories: the OLE relation over a pair of inventories
- hash_seeds: the (k + 1, 2) seed array from its raw bytes
- split_element, fmix64, bin_hash, bin_index, invert_placement:
  permutation-based hashing of one element at a time
- round_based_cuckoo: Alice's round-based cuckoo build on int64 arrays,
  every round through the same eviction step
- whole_bin_table: Bob's whole rotated (alpha, beta) table in one pass over
  int64 positions, drawing its rotations from os.urandom as the build does
- RecordingOt: an OT that counts transfers, keeps what the sender offers,
  so a test can read Gilboa's rho lists back, and rebuilds the receiver's
  view of every transfer from the pad and bit streams
- gilboa_share: one Gilboa product sharing with its rho list given
- residue_loop_reconstruct: the LBE simulation's CRT, one residue at a time
- consecutive_prime_ladder: the LBE modulus ladder by a scan over primes
"""

import hashlib
import math
import os
import struct
from collections import deque

import numpy as np

from olepsi.field import is_prime
from olepsi.hashing import CuckooFailure, _candidate_bins, _check_input_set
from olepsi.modvec import dtype_for
from olepsi.offline.ot import DealerAssistedOt
from olepsi.prg import Prg, Seed

ROW_CHUNK_WORDS = 1 << 21  # words per chunk of whole rows in the seed expansion


def word_bytes(q):
    """Bytes per field word: ceil(ceil(log2 q) / 8)."""
    return ((q - 1).bit_length() + 7) // 8


def reference_elements(prg, q, count, nonzero=False):
    """count elements of F_q (or F_q minus 0) as Python ints: read little-endian
    words one at a time, reject those at or above the largest multiple of m
    that fits, and reduce the rest mod m (plus one for the nonzero variant)."""
    width = word_bytes(q)
    m = q - 1 if nonzero else q
    limit = (1 << 8 * width) // m * m
    out = []
    while len(out) < count:
        w = int.from_bytes(prg.read(width), "little")
        if w < limit:
            out.append(w % m + int(nonzero))
    return out


def reference_section(seed_a, seed_b, q, count, slot_len, domain, chunk_rows=None):
    """(s_A, r_A, r_B_inv, s_B) of one seed- or dealer-expanded section as
    lists of rows (s_A a flat list): s_A from seed_a, Bob's half from seed_b
    (the seed backend passes one seed twice). Each chunk of whole rows comes
    from its own streams, tagged role|section|chunk."""
    if chunk_rows is None:
        chunk_rows = max(1, ROW_CHUNK_WORDS // slot_len)
    s_A, r_B_inv, s_B = [], [], []
    for c, lo in enumerate(range(0, count, chunk_rows)):
        rows = min(chunk_rows, count - lo)

        def draw(seed, role, row_words, nonzero=False):
            prg = Prg(seed, tag=b"%s|%s|%d" % (role, domain, c))
            vals = reference_elements(prg, q, rows * row_words, nonzero)
            return [vals[i * row_words : (i + 1) * row_words] for i in range(rows)]

        s_A += [row[0] for row in draw(seed_a, b"sA", 1)]
        r_B_inv += draw(seed_b, b"rBinv", slot_len, nonzero=True)
        s_B += draw(seed_b, b"sB", slot_len)
    r_A = [
        [(a + b) * v % q for v, b in zip(inv_row, sb_row)]
        for a, inv_row, sb_row in zip(s_A, r_B_inv, s_B)
    ]
    return s_A, r_A, r_B_inv, s_B


_HEADER = struct.Struct("<4sBQII16s")


def reference_section_bytes(magic, q, count, slot_len, token, words):
    """One format-2 section: header, then `words` as little-endian words."""
    width = word_bytes(q)
    head = _HEADER.pack(magic, 2, q, count, slot_len, token)
    return head + b"".join(int(w).to_bytes(width, "little") for w in words)


def with_header(data, **fields):
    """Tuple file bytes `data` with fields (magic, version, q, count,
    slot_len, token) of its first section header replaced."""
    names = ("magic", "version", "q", "count", "slot_len", "token")
    head = dict(zip(names, _HEADER.unpack_from(data)))
    head.update(fields)
    return _HEADER.pack(*(head[name] for name in names)) + bytes(data[_HEADER.size :])


def bob_words(r_B_inv, s_B):
    """Bob's payload order: per slot the pair (r_B_inv, s_B), row by row."""
    return [w for inv_row, sb_row in zip(r_B_inv, s_B) for pair in zip(inv_row, sb_row) for w in pair]


def alice_words(s_A, r_A):
    """Alice's payload order: per row s_A, then the row's r_A."""
    return [w for a, row in zip(s_A, r_A) for w in [a] + list(row)]


def reference_token(q, bob_sections):
    """SHA-256 over Bob's sections written with an all-zero token, cut to 16
    bytes; bob_sections holds (count, slot_len, words) per section."""
    h = hashlib.sha256()
    for count, slot_len, words in bob_sections:
        h.update(reference_section_bytes(b"OLEB", q, count, slot_len, bytes(16), words))
    return h.digest()[:16]


def write_format_1_bob_file(path, bob_sections, token):
    """Bob's sections as tuple file format 1: version byte 1 and per slot the
    triple (r_B, r_B_inv, s_B), r_B being the inverse of r_B_inv."""
    out = b""
    for bob in bob_sections:
        q = bob.modulus.q
        width = word_bytes(q)
        out += _HEADER.pack(b"OLEB", 1, q, len(bob), bob.slot_len, token)
        for inv, s in zip(bob.r_B_inv.ravel().tolist(), bob.s_B.ravel().tolist()):
            out += b"".join(w.to_bytes(width, "little") for w in (pow(inv, -1, q), inv, s))
    path.write_bytes(out)


def validate_inventories(alice, bob):
    """True iff every slot has r_B_inv != 0 and r_A = (s_A + s_B) * r_B_inv,
    which is r_A * r_B = s_A + s_B for r_B = r_B_inv^-1."""
    if len(alice) != len(bob) or alice.slot_len != bob.slot_len:
        raise ValueError("inventory shape mismatch")
    q = alice.modulus.q
    r_B_inv = bob.r_B_inv.astype(np.int64)
    if (r_B_inv % q == 0).any():
        return False
    rhs = (alice.s_A[:, None].astype(np.int64) + bob.s_B) % q * r_B_inv % q
    return bool((alice.r_A.astype(np.int64) % q == rhs).all())


def split_element(x, params):
    """(sigma1-bit prefix, sigma2-bit suffix) of x."""
    return x >> params.sigma2, x & ((1 << params.sigma2) - 1)


_U64 = (1 << 64) - 1


def fmix64(z):
    """murmur3's 64-bit finalizer on one Python int, mod 2^64."""
    z ^= z >> 33
    z = z * 0xFF51AFD7ED558CCD & _U64
    z ^= z >> 33
    z = z * 0xC4CEB9FE1A85EC53 & _U64
    z ^= z >> 33
    return z


def hash_seeds(raw):
    """The seed array hashing.py reads, from 16 raw bytes per seed (the k bin
    seeds, then the keyed seed): (k + 1, 2) little-endian uint64, read-only."""
    return np.frombuffer(bytes(raw), dtype="<u8").reshape(-1, 2)


def bin_hash(j, x2, seeds, params):
    """h_j(x2) = fmix64(fmix64(x2 ^ a) ^ b), (a, b) row j of the seed array;
    its top 32 bits times alpha, shifted down by 32, lies in [0, alpha)."""
    a, b = (int(w) for w in seeds[j])
    return (fmix64(fmix64(x2 ^ a) ^ b) >> 32) * params.alpha >> 32


def bin_index(j, x1, x2, seeds, params):
    """Bin for prefix x1, suffix x2 under hash function j."""
    return (bin_hash(j, x2, seeds, params) + x1) % params.alpha


def invert_placement(i, enc, seeds, params):
    """The element that encoding enc = j * 2^sigma2 + x2 in bin i stands
    for, or None when no element does."""
    j = enc >> params.sigma2
    x2 = enc & ((1 << params.sigma2) - 1)
    if j >= params.k:
        return None
    x1 = (i - bin_hash(j, x2, seeds, params)) % params.alpha
    if x1 >= (1 << params.sigma1):
        return None
    return (x1 << params.sigma2) + x2


def round_based_cuckoo(arr, params, seeds):
    """(bins, origins, stash) of Alice's cuckoo table for a sorted int64
    array, or CuckooFailure, by round-based insertion with int64 indices:
    each round every pending item claims its bin under its current hash
    index, the lowest item index wins and evicts the occupant, and losers
    and evicted items move on to their next hash index."""
    budget = 16 * max(1, math.ceil(math.log2(max(params.n, 2))))
    size, k = arr.size, params.k
    cand = _candidate_bins(arr, seeds, params)
    owner = np.full(params.alpha, -1, dtype=np.int64)
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
        raise CuckooFailure(f"placement failed for {size} elements")
    placed = np.flatnonzero(owner >= 0)
    items = owner[placed]
    bins = np.full(params.alpha, params.dummy_alice, dtype=np.int64)
    bins[placed] = (hash_index[items] << params.sigma2) + (
        arr[items] & ((1 << params.sigma2) - 1)
    )
    origins = np.full(params.alpha, -1, dtype=np.int64)
    origins[placed] = arr[items]
    return bins, origins, arr[np.sort(pending)].tolist()


def whole_bin_table(elements, params, seeds):
    """Bob's (alpha, beta) table in one pass: every element's k (bin, enc)
    keys sorted, each bin's entries placed from slot offset[bin] on,
    cyclically, and dummy_bob everywhere else. The offsets are one
    alpha-length int64 draw from a generator seeded with os.urandom(16),
    so a pinned os.urandom pins the table."""
    arr = _check_input_set(elements, params)
    alpha, beta, k, sigma2 = params.alpha, params.beta, params.k, params.sigma2
    cand = _candidate_bins(arr, seeds, params)
    enc = (np.arange(k, dtype=np.int64)[:, None] << sigma2) | (arr & ((1 << sigma2) - 1))
    bins, encs = cand.ravel(), enc.ravel()
    order = np.lexsort((encs, bins))
    bins, encs = bins[order], encs[order]
    counts = np.bincount(bins, minlength=alpha)
    assert counts.max() <= beta
    offset = np.random.default_rng(list(os.urandom(16))).integers(0, beta, alpha)
    start = np.cumsum(counts) - counts
    rank = np.arange(bins.size) - start[bins]
    table = np.full((alpha, beta), params.dummy_bob, dtype=dtype_for(params.dummy_bob + 1))
    table[bins, (rank + offset[bins]) % beta] = encs
    return table


class RecordingOt(DealerAssistedOt):
    """A DealerAssistedOt that counts its transfers in `invocations`, keeps
    the m0 vector of every ot_send_many, and rebuilds the receiver's view of
    every completed transfer from its own copies of the ot/pads and ot/bits
    streams, checking first that the view's outputs are ot_receive_many's.

    view() is that view as an (n, 6) int64 array, one row per transfer:
    (delta, e0, e1, cstar, pad, output), everything the receiver sees."""

    def __init__(self, modulus, seed=None):
        seed = Seed.random() if seed is None else seed
        super().__init__(modulus, seed=seed)
        self._view_pads = Prg(seed, tag=b"ot/pads")
        self._view_bits = Prg(seed, tag=b"ot/bits")
        self._sent = deque()
        self._views = []
        self.invocations = 0
        self.sent_m0 = []

    def ot_send_many(self, m0, m1):
        super().ot_send_many(m0, m1)
        m0, m1 = np.array(m0, dtype=np.int64), np.array(m1, dtype=np.int64)
        self._sent.append((m0, m1))
        self.sent_m0.append(m0)
        self.invocations += len(m0)

    def ot_receive_many(self, choices):
        out = super().ot_receive_many(choices)
        m0, m1 = self._sent.popleft()
        q, n = self.modulus.q, len(out)
        c = np.asarray(choices, dtype=np.int64)
        pads = self._view_pads.elements(self.modulus, 2 * n).astype(np.int64)
        p0, p1 = pads[0::2], pads[1::2]
        cstar = np.frombuffer(self._view_bits.read(n), dtype=np.uint8).astype(np.int64) & 1
        delta = c ^ cstar
        e0 = (m0 - np.where(delta, p1, p0)) % q
        e1 = (m1 - np.where(delta, p0, p1)) % q
        pad = np.where(cstar, p1, p0)
        output = (np.where(c, e1, e0) + pad) % q
        assert (output == out).all(), "receiver view disagrees with ot_receive_many"
        self._views.append(np.stack([delta, e0, e1, cstar, pad, output], axis=1))
        return out

    def view(self):
        return np.concatenate(self._views)

    def rho(self, rows, slot_len):
        """The rho lists of one gilboa_batch of `rows` batches as a
        (rows, slot_len, ell) array: Alice offers m0 = -rho mod q."""
        m0 = np.concatenate(self.sent_m0)
        return (-m0 % self.modulus.q).reshape(rows, slot_len, -1)


def gilboa_share(ot, r_A, r_B, rho):
    """Share r_A * r_B over the OT's field in ell = len(rho) transfers: at bit
    i Alice offers (-rho_i, r_A * 2^i - rho_i) and Bob selects with bit i of
    r_B. Returns the ints (s_A, s_B) = (sum rho_i, sum of Bob's outputs)."""
    q = ot.modulus.q
    ot.ot_send_many([-p % q for p in rho],
                    [(r_A * pow(2, i, q) - p) % q for i, p in enumerate(rho)])
    o = ot.ot_receive_many([(r_B >> i) & 1 for i in range(len(rho))])
    return sum(rho) % q, sum(o.tolist()) % q


def residue_loop_reconstruct(lbe, s_A, s_B, r_B, u):
    """The LBE simulation's v before reduction mod Q: each residue d_i of
    (s_A + s_B) * r_B^-1 + u*Q mod q_i, recombined by CRT with a basis
    computed here."""
    Q = lbe.modulus.q
    inv = pow(r_B, -1, Q)
    Qp = lbe.Q_prime
    v = 0
    for qi in lbe.q_i:
        Ni = Qp // qi
        d_i = (((s_A % qi) + (s_B % qi)) * (inv % qi) + (u * Q) % qi) % qi
        v += d_i * Ni * pow(Ni, -1, qi)
    return v % Qp


def consecutive_prime_ladder(Q, lam, start=2):
    """The first two consecutive primes, scanning up from `start`, whose
    product exceeds max(Q^2 2^lam, 2 Q^2 + Q 2^lam). From a start above 2 the
    first pair must fall short of the bound, which shows no earlier pair
    clears it: products of consecutive pairs grow along the scan."""
    bound = max(Q * Q << lam, 2 * Q * Q + (Q << lam))

    def next_prime(n):
        while not is_prime(n):
            n += 1
        return n

    a = next_prime(start)
    b = next_prime(a + 1)
    assert start == 2 or a * b <= bound, "scan started past the ladder"
    while a * b <= bound:
        a, b = b, next_prime(b + 1)
    return a, b
