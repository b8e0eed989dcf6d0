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
The dealer service streams Alice her tuple file as the parts section_bytes
yields, one frame each and none longer than MAX_PART bytes. Her client
writes the frames as they arrive through save_inventories' writer
(write_file), up to alice_file_len, the file's exact length.

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
# mod_inv is not called here: offline.gilboa calls it as tuples.mod_inv, the
# name the benchmark's tracer wraps
from .modvec import dtype_for, mod_inv  # noqa: F401
from .params import sections

FILE_VERSION = 2
TOKEN_LEN = 16
_PASS_WORDS = 1 << 16  # block words per part of section_bytes
MAX_PART = 8 * _PASS_WORDS  # bytes in the longest part: words are at most 8 bytes
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


def section_bytes(inventories, side, token):
    """The tuple file of `inventories`, as the parts save_inventories writes:
    per section its header, then its block's words, _PASS_WORDS at a time.
    A part is a view of the block where the field width is 1, 2, 4 or 8
    bytes, else a packed copy of its words, so no part grows with the
    section."""
    for inv in inventories:
        yield _HEADER.pack(_MAGIC[side], FILE_VERSION, inv.modulus.q, len(inv), inv.slot_len, token)
        words = inv.block.reshape(-1)
        for lo in range(0, words.size, _PASS_WORDS):
            yield pack_words(words[lo : lo + _PASS_WORDS], 8 * inv.modulus.byte_len)


def inventory_token(bob_inventories):
    """16-byte digest of Bob's halves; identifies one offline run's output."""
    h = hashlib.sha256()
    for part in section_bytes(bob_inventories, SIDE_BOB, bytes(TOKEN_LEN)):
        h.update(part)
    return h.digest()[:TOKEN_LEN]


def save_inventories(path, inventories, side, token):
    """Write one or more sections (bin batches, then stash batches) to a file,
    as a new file renamed over `path` (write_file)."""
    if side not in (SIDE_ALICE, SIDE_BOB):
        raise ValueError(f"side must be alice or bob, got {side}")
    write_file(path, section_bytes(inventories, side, token))


def write_file(path, parts, check=None):
    """Write the byte strings `parts` to a new file beside `path`, then rename
    it over `path`; returns check(new file's path), called before the rename,
    if a check is given. A run that maps the old file keeps reading the old
    bytes, and a failed write or check leaves `path` as it was and no partial
    file behind."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.writelines(parts)
        result = None if check is None else check(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


# per side: the inventory class and the shape of its block for (count, L)
_SECTIONS = {
    SIDE_ALICE: (AliceInventory, lambda count, L: (count, 1 + L)),
    SIDE_BOB: (BobInventory, lambda count, L: (count, L, 2)),
}


def alice_file_len(params):
    """Bytes of Alice's tuple file for one parameter set: one header and
    rows * (1 + L) words per section of sections(params)."""
    return sum(
        _HEADER.size + rows * (1 + cols) * params.modulus.byte_len
        for _, rows, cols in sections(params)
    )


def load_inventories(path, side):
    """Map the file read-only and parse all its sections; returns
    (inventories, token). Whenever the field width is 1, 2, 4 or 8 bytes
    each block is a read-only view of the mapping, and release_rows can drop
    its pages; at other widths it is a copy, and the mapping is closed once
    no view of it is left."""
    if side not in _SECTIONS:
        raise ValueError(f"side must be alice or bob, got {side}")
    cls, block_shape = _SECTIONS[side]
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            raise TupleFileError("empty tuple file")
        data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    out = []
    token = None
    pos = 0
    while pos < size:
        where = f"{side} section {len(out) + 1}"
        if size - pos < _HEADER.size:
            raise TupleFileError(f"truncated {where} header")
        magic, version, q, count, slot_len, tok = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        if magic != _MAGIC[side]:
            if magic in _MAGIC.values():
                other = SIDE_BOB if side == SIDE_ALICE else SIDE_ALICE
                raise TupleFileError(f"{where} holds {other}-side data, wanted {side}")
            raise TupleFileError(f"{where}: bad magic {magic!r}")
        if version != FILE_VERSION:
            raise TupleFileError(
                f"{where}: tuple file format {version} is not supported (need {FILE_VERSION})"
            )
        try:
            modulus = PrimeModulus(q)
        except FieldError as e:
            raise TupleFileError(f"{where} header: {e}") from None
        if token is None:
            token = tok
        elif token != tok:
            raise TupleFileError("sections carry different inventory tokens")
        width = modulus.byte_len
        shape = block_shape(count, slot_len)
        nbytes = math.prod(shape) * width
        # checked before any view is made: the header's sizes are untrusted
        if nbytes > size - pos:
            raise TupleFileError(f"truncated {side} section payload ({where})")
        payload = memoryview(data)[pos : pos + nbytes]
        block = unpack_words(payload, 8 * width, nbytes // width, dtype_for(q))
        inv = cls(modulus, block.reshape(shape))
        if np.may_share_memory(block, np.frombuffer(payload, np.uint8)):
            inv._rows_in_file = (data, pos, nbytes // max(count, 1))
        out.append(inv)
        pos += nbytes
    return out, token


def check_sections(inventories, params, error):
    """Raise error(message) unless `inventories` holds one inventory per
    section of sections(params), in that order, each over the parameters'
    field and exactly (rows, cols). Every message names the section."""
    layout = sections(params)
    q = params.modulus.q
    for (name, rows, cols), inv in zip(layout, inventories):
        if inv.modulus.q != q:
            raise error(
                f"{_batches(name)}: inventory modulus {inv.modulus.q} does not match params ({q})"
            )
        if len(inv) != rows:
            raise error(f"{_batches(name)}: need {rows} batches, have {len(inv)}")
        if inv.slot_len != cols:
            raise error(f"{_batches(name)}: need slot length {cols}, have {inv.slot_len}")
    if len(inventories) != len(layout):
        names = ", ".join(name for name, _, _ in layout)
        raise error(f"{len(inventories)} tuple sections, the run needs {len(layout)} ({names})")


def _batches(name):
    return name.removesuffix("s") + " batches"  # bin / stash batches


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
