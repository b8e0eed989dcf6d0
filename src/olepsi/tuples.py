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

A run maps its tuple file read-only and reads its blocks straight from the
mapping: each frame brings in the pages under its rows, and release_rows
drops them once the frame is used (every slot is used once). A tuple file
must therefore not be modified in place while a run uses it; saves write a
new file and rename it over the old one.
"""

import hashlib
import math
import mmap
import os
import secrets
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

    _rows_in_file = None  # (mapping, payload offset, row bytes) once loaded

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

    _rows_in_file = None  # (mapping, payload offset, row bytes) once loaded

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
    """Write one or more sections (bin batches, then stash batches) to a file.

    The sections go to a new file beside `path`, which is then renamed over
    it: a run that maps the old file keeps reading the old bytes, and a
    failed write leaves `path` as it was and no partial file behind."""
    if side not in (SIDE_ALICE, SIDE_BOB):
        raise ValueError(f"side must be alice or bob, got {side}")
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            for inv in inventories:
                f.write(_section_header(inv.modulus, len(inv), inv.slot_len, token, side))
                f.write(_payload(inv))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# per side: the inventory class and the shape of its block for (count, L)
_SECTIONS = {
    SIDE_ALICE: (AliceInventory, lambda count, L: (count, 1 + L)),
    SIDE_BOB: (BobInventory, lambda count, L: (count, L, 2)),
}


def load_inventories(path, side):
    """Map the file read-only and parse all sections; returns (inventories,
    token). Whenever the field width is 1, 2, 4 or 8 bytes each block is a
    read-only view of the mapping, and release_rows can drop its pages; at
    other widths it is a copy, and the mapping is closed once no view of it
    is left."""
    if side not in _SECTIONS:
        raise ValueError(f"side must be alice or bob, got {side}")
    cls, block_shape = _SECTIONS[side]
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            raise TupleFileError("empty tuple file")
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    out = []
    token = None
    pos = 0
    while pos < size:
        if size - pos < _HEADER.size:
            raise TupleFileError("truncated section header")
        magic, version, q, count, slot_len, tok = _HEADER.unpack_from(mm, pos)
        pos += _HEADER.size
        if magic != _MAGIC[side]:
            if magic in _MAGIC.values():
                other = SIDE_BOB if side == SIDE_ALICE else SIDE_ALICE
                raise TupleFileError(f"file holds {other}-side sections, wanted {side}")
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
        nbytes = math.prod(shape) * width
        # checked before any view is made: the header's sizes are untrusted
        if nbytes > size - pos:
            raise TupleFileError(f"truncated {side} section payload")
        payload = memoryview(mm)[pos : pos + nbytes]
        block = unpack_words(payload, 8 * width, nbytes // width, dtype_for(q))
        inv = cls(modulus, block.reshape(shape))
        if np.may_share_memory(block, np.frombuffer(payload, np.uint8)):
            inv._rows_in_file = (mm, pos, nbytes // max(count, 1))
        out.append(inv)
        pos += nbytes
    return out, token


def release_rows(inv, rows):
    """Drop the resident pages under `rows` (a slice of batches) of an
    inventory mapped from a tuple file, once the caller has used them.

    The pages stay in the page cache and the file, and the mapping is
    read-only, so a later read of any row faults the same bytes back in:
    releasing never changes a value. The first page is dropped whole and a
    page that runs on past the rows is kept, unless the rows end the file,
    so a front-to-back pass drops each page once the rows on it are used.
    Inventories not mapped from a file (generated ones, copies) are never
    touched, and where the platform has no MADV_DONTNEED this does nothing."""
    if inv._rows_in_file is None or not hasattr(mmap, "MADV_DONTNEED"):
        return
    mm, offset, row_bytes = inv._rows_in_file
    lo = offset + rows.start * row_bytes
    hi = offset + rows.stop * row_bytes
    start = lo - lo % mmap.PAGESIZE
    end = hi if hi == len(mm) else hi - hi % mmap.PAGESIZE
    if end > start:
        mm.madvise(mmap.MADV_DONTNEED, start, end - start)
