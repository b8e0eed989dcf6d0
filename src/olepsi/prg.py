"""Deterministic pseudo-random expansion for seeds and field sampling.

Stream definition (pinned by golden-vector tests): block i of a stream is
SHAKE-256(seed || LE16(len(tag)) || tag || LE64(i)) squeezed to 64 KiB; the
stream is the block concatenation.

Sampler definition: a sample over F_q reads the stream as little-endian
words of w = 8 * ceil(bit_len/8) bits. With m = q (`elements`) or m = q - 1
(`nonzero_elements`), a word at or above floor(2^w / m) * m is rejected and
an accepted word x gives x mod m (`elements`) or x mod m + 1
(`nonzero_elements`): exactly uniform, since each residue has the same
number of accepted words. A sample consumes the stream up to and including
its last accepted word and no further, so the elements of any sequence of
calls on one Prg are the accepted words in stream order.

A sample reads at most _PASS_WORDS words per pass, so its working set
beyond the count elements it returns stays bounded however many it draws.
Callers that expand large arrays (offline._expand) cut each array into
chunks of whole rows and give every chunk a stream of its own, tagged
role|section|chunk, so any chunk expands without the ones before it, in
any process; within a chunk they sample tile by tile, which reads each
stream as one sample of the whole chunk would.
"""

import hashlib
import os

import numpy as np

from .codec import unpack_words
from .modvec import reduce_in_place

SEED_LEN = 32
_BLOCK = 65536
_PASS_WORDS = 1 << 16  # stream words per pass of a sample


class Seed:
    """A fixed-length 32-byte seed."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not isinstance(value, (bytes, bytearray)) or len(value) != SEED_LEN:
            raise ValueError(f"seed must be exactly {SEED_LEN} bytes")
        self.value = bytes(value)

    @classmethod
    def random(cls):
        return cls(os.urandom(SEED_LEN))

    @classmethod
    def from_hex(cls, text):
        return cls(bytes.fromhex(text))

    def __eq__(self, other):
        return isinstance(other, Seed) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Seed({self.value.hex()[:16]}...)"


class Prg:
    """Counter-mode SHAKE-256 stream over (seed || tag || counter)."""

    def __init__(self, seed, tag=b""):
        if isinstance(seed, Seed):
            seed = seed.value
        # length-prefixed tag so distinct tags can never alias via the counter
        self._prefix = seed + len(tag).to_bytes(2, "little") + tag
        self._counter = 0
        self._buf = memoryview(b"")  # the unread rest of the last block

    def read(self, n):
        """The next n bytes of the stream, as one bytearray that each SHAKE
        block is copied into once."""
        out = bytearray(n)
        view = memoryview(out)
        pos = 0
        while pos < n:
            if not self._buf:
                block = hashlib.shake_256(self._prefix + self._counter.to_bytes(8, "little"))
                self._buf = memoryview(block.digest(_BLOCK))
                self._counter += 1
            take = min(n - pos, len(self._buf))
            view[pos : pos + take] = self._buf[:take]
            self._buf = self._buf[take:]
            pos += take
        return out

    def _sample(self, modulus, count, reject_zero, dtype):
        width = modulus.byte_len
        bits = 8 * width
        m = modulus.q - 1 if reject_zero else modulus.q
        limit = (1 << bits) // m * m  # words at or above it are rejected
        word = np.dtype(f"<u{1 << (width - 1).bit_length()}")
        rate = limit / (1 << bits)
        out = np.empty(count, dtype=dtype)
        have = 0
        while have < count:
            need = count - have
            # a few standard deviations over the expected draw
            draw = min(int(need / rate + 4 * need**0.5) + 16, _PASS_WORDS)
            raw = self.read(draw * width)
            vals = unpack_words(raw, bits, draw, word)
            keep = vals <= limit - 1
            surplus = int(np.count_nonzero(keep)) - need
            if surplus >= 0:
                # stop at the need-th accepted word; the rest goes back (a
                # copy of the surplus words and of the block's unread rest)
                used = _end_of_nth_from_last(keep, surplus + 1)
                self._buf = memoryview(raw[used * width :] + self._buf)
                vals, keep = vals[:used], keep[:used]
            vals = np.compress(keep, vals)
            reduce_in_place(vals, m)
            if reject_zero:
                vals += 1
            out[have : have + vals.size] = vals
            have += vals.size
        return out

    def elements(self, modulus, count, dtype=np.int64):
        """count uniform elements of F_q."""
        return self._sample(modulus, count, reject_zero=False, dtype=dtype)

    def nonzero_elements(self, modulus, count, dtype=np.int64):
        """count uniform elements of F_q \\ {0}."""
        return self._sample(modulus, count, reject_zero=True, dtype=dtype)


def subseed(master, label):
    """Derive an independent seed from a master seed and a label."""
    return Seed(Prg(master, tag=b"sub|" + label).read(SEED_LEN))


def _end_of_nth_from_last(flags, n):
    """1 + the index of the n-th True counted from the end of flags, which
    holds at least n. Searches a window at the end, doubled as needed, so a
    draw with a small surplus scans little of it."""
    window = 2 * n + 64
    while True:
        start = max(0, flags.size - window)
        hits = np.flatnonzero(flags[start:])
        if hits.size >= n:
            return start + int(hits[-n]) + 1
        window *= 2
