"""Test oracles: scalar restatements of the tuple definitions, written from
the documented formats rather than from the vectorised code they check.

- reference_elements: the PRG sampler, one word at a time through Prg.read
- reference_section: one section of the seed and dealer expansion
- reference_section_bytes / reference_token: tuple file format 2
- write_format_1_bob_file: Bob's half in the retired tuple file format 1
- validate_inventories: the OLE relation over a pair of inventories
- split_element, bin_hash, bin_index, invert_placement: permutation-based
  hashing of one element at a time
- RecordingOt: an OT that keeps what the sender offers, so a test can read
  Gilboa's rho lists back
"""

import hashlib
import struct

import numpy as np

from olepsi.offline.ot import DealerAssistedOt
from olepsi.prg import Prg

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


def _hash_raw(seed, j, value):
    """The first 8 bytes, little-endian, of sha256(seed + bytes([j]) + value
    as 8 little-endian bytes)."""
    digest = hashlib.sha256(seed + bytes([j]) + value.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:8], "little")


def bin_hash(j, x2, seeds, params):
    """h_j(x2): seeded hash of the suffix, reduced into [0, alpha)."""
    return _hash_raw(seeds.bin_seeds[j], j, x2) % params.alpha


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


class RecordingOt(DealerAssistedOt):
    """A DealerAssistedOt that keeps the m0 vector of every ot_send_many."""

    def __init__(self, modulus, seed=None):
        super().__init__(modulus, seed=seed)
        self.sent_m0 = []

    def ot_send_many(self, m0, m1):
        super().ot_send_many(m0, m1)
        self.sent_m0.append(np.array(m0, dtype=np.int64))

    def rho(self, rows, slot_len):
        """The rho lists of one gilboa_batch of `rows` batches as a
        (rows, slot_len, ell) array: Alice offers m0 = -rho mod q."""
        m0 = np.concatenate(self.sent_m0)
        return (-m0 % self.modulus.q).reshape(rows, slot_len, -1)
