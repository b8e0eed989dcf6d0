"""OLE tuple inventories, their token and file format.

One tuple slot (r_A, r_B, s_A, s_B) with r_A * r_B = s_A + s_B backs one
equality comparison. A communication-optimized batch shares a single s_A
across its slots of independent (r_A, r_B, s_B); an inventory holds `count`
batches, one row per batch, in one numpy block laid out as its tuple file
section, and it is built only from such a block.

Bob keeps only what the online phase reads: per slot (r_B^-1, s_B), never
r_B itself, since r_A = (s_A + s_B) * r_B^-1 needs no r_B either.

Tuple file format 2 is a sequence of sections (bins, then stash), each a
header <4s B Q I I 16s> = (magic OLEA or OLEB, version 2, q, count, L,
token) followed by the inventory's block as little-endian words of
ceil(bit_len/8) bytes in C order: Alice's rows are (s_A, r_A[0..L)), Bob's
are L interleaved (r_B^-1, s_B) pairs. A file of any other version, such as
format 1 with Bob's (r_B, r_B^-1, s_B) triples, is refused.
"""

import hashlib
import math
import os
import struct

import numpy as np

from .codec import pack_words, unpack_words
from .field import FieldError, PrimeModulus
from .modvec import dtype_for, mod_inv

FILE_VERSION = 2
TOKEN_LEN = 16
_HEADER = struct.Struct(f"<4sBQII{TOKEN_LEN}s")

SIDE_ALICE = "alice"
SIDE_BOB = "bob"
_MAGIC = {SIDE_ALICE: b"OLEA", SIDE_BOB: b"OLEB"}


class TupleFileError(Exception):
    pass


class AliceInventory:
    """Alice's halves of `count` batches as one (count, 1 + L) block: s_A
    (count,) in column 0 and r_A (count, L) in the rest, as in the tuple
    file. Both are views of the block, so the file write reads it as it is."""

    def __init__(self, modulus, block):
        if block.ndim != 2 or block.shape[1] < 1:
            raise ValueError("block must be (count, 1 + L)")
        self.modulus = modulus
        self.block = block

    @property
    def s_A(self):
        return self.block[:, 0]

    @property
    def r_A(self):
        return self.block[:, 1:]

    @property
    def slot_len(self):
        return self.block.shape[1] - 1

    def __len__(self):
        return self.block.shape[0]


class BobInventory:
    """Bob's halves of `count` batches as one (count, L, 2) block of
    (r_B_inv, s_B) slots, interleaved as in the tuple file. Both are
    (count, L) views of the block, so the token and the file write read it
    as it is."""

    def __init__(self, modulus, block):
        if block.ndim != 3 or block.shape[2] != 2:
            raise ValueError("block must be (count, L, 2)")
        self.modulus = modulus
        self.block = block

    @classmethod
    def from_r_b_s_b(cls, modulus, r_B, s_B):
        """Bob's half from r_B and s_B, each (count, L): inverts r_B."""
        r_B = np.asarray(r_B)
        block = np.empty(r_B.shape + (2,), dtype=r_B.dtype)
        block[:, :, 0] = mod_inv(r_B, modulus.q)
        block[:, :, 1] = s_B
        return cls(modulus, block)

    @property
    def r_B_inv(self):
        return self.block[:, :, 0]

    @property
    def s_B(self):
        return self.block[:, :, 1]

    @property
    def slot_len(self):
        return self.block.shape[1]

    def __len__(self):
        return self.block.shape[0]


def _payload(inv):
    return pack_words(inv.block, 8 * inv.modulus.byte_len)


def _section_header(modulus, count, slot_len, token, side=SIDE_BOB):
    return _HEADER.pack(_MAGIC[side], FILE_VERSION, modulus.q, count, slot_len, token)


def inventory_token(bob_inventories):
    """16-byte digest of Bob's halves; identifies one offline run's output."""
    h = hashlib.sha256()
    for inv in bob_inventories:
        h.update(_section_header(inv.modulus, len(inv), inv.slot_len, bytes(TOKEN_LEN)))
        h.update(_payload(inv))
    return h.digest()[:TOKEN_LEN]


def save_inventories(path, inventories, side, token):
    """Write one or more sections (bin batches, then stash batches) to a file."""
    if side not in (SIDE_ALICE, SIDE_BOB):
        raise ValueError(f"side must be alice or bob, got {side}")
    with open(path, "wb") as f:
        for inv in inventories:
            f.write(_section_header(inv.modulus, len(inv), inv.slot_len, token, side))
            f.write(_payload(inv))


# per side: the inventory class and the shape of its block for (count, L)
_SECTIONS = {
    SIDE_ALICE: (AliceInventory, lambda count, L: (count, 1 + L)),
    SIDE_BOB: (BobInventory, lambda count, L: (count, L, 2)),
}


def load_inventories(path, side):
    """Read all sections; returns (inventories, token). Each block is a view
    of the bytes read whenever the field width is 1, 2, 4 or 8 bytes."""
    if side not in _SECTIONS:
        raise ValueError(f"side must be alice or bob, got {side}")
    cls, block_shape = _SECTIONS[side]
    out = []
    token = None
    with open(path, "rb") as f:
        while True:
            header = f.read(_HEADER.size)
            if not header:
                break
            if len(header) < _HEADER.size:
                raise TupleFileError("truncated section header")
            magic, version, q, count, slot_len, tok = _HEADER.unpack(header)
            if magic != _MAGIC[side]:
                if magic in _MAGIC.values():
                    other = SIDE_BOB if side == SIDE_ALICE else SIDE_ALICE
                    raise TupleFileError(
                        f"file holds {other}-side sections, wanted {side}"
                    )
                raise TupleFileError(f"bad magic {magic!r}")
            if version != FILE_VERSION:
                raise TupleFileError(
                    f"tuple file format {version} is not supported (need {FILE_VERSION})"
                )
            try:
                modulus = PrimeModulus(q)
            except FieldError as e:
                raise TupleFileError(f"{side} section header: {e}") from None
            if token is None:
                token = tok
            elif token != tok:
                raise TupleFileError("sections carry different inventory tokens")
            width = modulus.byte_len
            shape = block_shape(count, slot_len)
            words = math.prod(shape)
            # checked before reading: f.read allocates the declared size first
            if words * width > os.fstat(f.fileno()).st_size - f.tell():
                raise TupleFileError(f"truncated {side} section payload")
            data = f.read(words * width)
            block = unpack_words(data, 8 * width, words, dtype_for(q))
            out.append(cls(modulus, block.reshape(shape)))
    if token is None:
        raise TupleFileError("empty tuple file")
    return out, token
