"""Deterministic pseudo-random expansion for seeds and field sampling.

Stream definition (pinned by golden-vector tests): block i of a stream is
SHAKE-256(seed || LE16(len(tag)) || tag || LE64(i)) squeezed to 64 KiB; the
stream is the block concatenation. Field elements come from fixed-width little-endian words of
ceil(bit_len/8) bytes, masked to bit_len bits, rejection-sampled below q
(and above 0 for the nonzero variant).
"""

import hashlib
import os

import numpy as np

from .codec import unpack_words
from .modvec import dtype_for

SEED_LEN = 32
_BLOCK = 65536


class Seed:
    """A fixed-length 32-byte seed."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not isinstance(value, bytes) or len(value) != SEED_LEN:
            raise ValueError(f"seed must be exactly {SEED_LEN} bytes")
        self.value = value

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
        self._buf = b""

    def read(self, n):
        chunks = []
        while n > 0:
            if not self._buf:
                block = hashlib.shake_256(
                    self._prefix + self._counter.to_bytes(8, "little")
                ).digest(_BLOCK)
                self._counter += 1
                self._buf = block
            take = self._buf[:n]
            self._buf = self._buf[len(take):]
            chunks.append(take)
            n -= len(take)
        return b"".join(chunks)

    def _sample(self, modulus, count, reject_zero, dtype):
        q = modulus.q
        width = modulus.byte_len
        mask = (1 << modulus.bit_len) - 1
        rate = q / float(mask + 1)
        word = dtype_for(q)
        out = np.empty(count, dtype=dtype)
        have = 0
        while have < count:
            need = count - have
            draw = min(int(need / rate * 1.05) + 16, 1 << 22)
            vals = unpack_words(self.read(draw * width), 8 * width, draw, word) & mask
            keep = vals < q
            if reject_zero:
                keep &= vals != 0
            vals = np.compress(keep, vals)
            take = min(vals.size, need)
            out[have : have + take] = vals[:take]
            have += take
        return out

    def elements(self, modulus, count, dtype=np.int64):
        """count uniform elements of F_q."""
        return self._sample(modulus, count, reject_zero=False, dtype=dtype)

    def nonzero_elements(self, modulus, count, dtype=np.int64):
        """count uniform elements of F_q \\ {0}."""
        return self._sample(modulus, count, reject_zero=True, dtype=dtype)
