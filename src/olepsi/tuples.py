"""OLE tuple inventories, their validation, token and file format.

One tuple slot (r_A, r_B, s_A, s_B) with r_A * r_B = s_A + s_B backs one
equality comparison. A communication-optimized batch shares a single s_A
across its slots of independent (r_A, r_B, s_B); an inventory holds `count`
batches as arrays, one row per batch. Bob's half stores r_B's inverse
alongside so the online phase never inverts anything.
"""

import hashlib
import struct

import numpy as np

from .codec import pack_words, unpack_words
from .field import PrimeModulus
from .modvec import dtype_for, mod_inv

FILE_VERSION = 1
TOKEN_LEN = 16
_HEADER = struct.Struct(f"<4sBQII{TOKEN_LEN}s")

SIDE_ALICE = "alice"
SIDE_BOB = "bob"
_MAGIC = {SIDE_ALICE: b"OLEA", SIDE_BOB: b"OLEB"}


class TupleFileError(Exception):
    pass


def _as_int_array(a):
    # keep compact storage dtypes (uint16 at PSI scale); widen anything else
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        a = a.astype(np.int64)
    return a


class AliceInventory:
    """Alice's halves of `count` batches: s_A (count,), r_A (count, L).

    Both are views into one (count, 1 + L) block, s_A in column 0 as in the
    tuple file, so the file write reads the block as it is."""

    def __init__(self, modulus, s_A, r_A):
        s_A = _as_int_array(s_A)
        r_A = _as_int_array(r_A)
        if r_A.ndim != 2 or s_A.shape != (r_A.shape[0],):
            raise ValueError("s_A must be (count,), r_A must be (count, L)")
        block = np.empty((r_A.shape[0], 1 + r_A.shape[1]), dtype=np.result_type(s_A, r_A))
        block[:, 0] = s_A
        block[:, 1:] = r_A
        self.modulus = modulus
        self.block = block

    @classmethod
    def from_block(cls, modulus, block):
        """Wrap a (count, 1 + L) block of (s_A, r_A...) rows without copying."""
        if block.ndim != 2 or block.shape[1] < 1:
            raise ValueError("block must be (count, 1 + L)")
        inv = cls.__new__(cls)
        inv.modulus = modulus
        inv.block = block
        return inv

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
    """Bob's halves of `count` batches: r_B, r_B_inv, s_B all (count, L).

    The three are views into one (count, L, 3) block, interleaved per slot
    as in the tuple file, so the token and the file write read the block
    as it is."""

    def __init__(self, modulus, r_B, r_B_inv, s_B):
        r_B = _as_int_array(r_B)
        r_B_inv = _as_int_array(r_B_inv)
        s_B = _as_int_array(s_B)
        if not (r_B.shape == r_B_inv.shape == s_B.shape) or r_B.ndim != 2:
            raise ValueError("r_B, r_B_inv, s_B must share one (count, L) shape")
        block = np.empty(r_B.shape + (3,), dtype=np.result_type(r_B, r_B_inv, s_B))
        block[:, :, 0] = r_B
        block[:, :, 1] = r_B_inv
        block[:, :, 2] = s_B
        self.modulus = modulus
        self.block = block

    @classmethod
    def from_block(cls, modulus, block):
        """Wrap a (count, L, 3) block of (r_B, r_B_inv, s_B) slots without copying."""
        if block.ndim != 3 or block.shape[2] != 3:
            raise ValueError("block must be (count, L, 3)")
        inv = cls.__new__(cls)
        inv.modulus = modulus
        inv.block = block
        return inv

    @classmethod
    def from_r_b_s_b(cls, modulus, r_B, s_B):
        r_B = _as_int_array(r_B)
        inv = mod_inv(r_B, modulus.q).astype(r_B.dtype, copy=False)
        return cls(modulus, r_B, inv, s_B)

    @property
    def r_B(self):
        return self.block[:, :, 0]

    @property
    def r_B_inv(self):
        return self.block[:, :, 1]

    @property
    def s_B(self):
        return self.block[:, :, 2]

    @property
    def slot_len(self):
        return self.block.shape[1]

    def __len__(self):
        return self.block.shape[0]


def validate_inventories(alice, bob):
    """True iff every slot satisfies r_A * r_B = s_A + s_B with r_B nonzero
    and r_B * r_B_inv = 1."""
    if len(alice) != len(bob) or alice.slot_len != bob.slot_len:
        raise ValueError("inventory shape mismatch")
    q = alice.modulus.q
    step = max(1, (1 << 22) // max(alice.slot_len, 1))
    for lo in range(0, len(alice), step):
        hi = lo + step
        r_B = bob.r_B[lo:hi].astype(np.int64)
        if (r_B % q == 0).any():
            return False
        if (r_B * bob.r_B_inv[lo:hi] % q != 1).any():
            return False
        lhs = alice.r_A[lo:hi].astype(np.int64) * r_B % q
        rhs = (alice.s_A[lo:hi, None].astype(np.int64) + bob.s_B[lo:hi]) % q
        if not (lhs == rhs).all():
            return False
    return True


def _alice_payload(inv):
    return pack_words(inv.block, 8 * inv.modulus.byte_len)


def _bob_payload(inv):
    return pack_words(inv.block, 8 * inv.modulus.byte_len)


def _section_header(modulus, count, slot_len, token, side=SIDE_BOB):
    return _HEADER.pack(_MAGIC[side], FILE_VERSION, modulus.q, count, slot_len, token)


def inventory_token(bob_inventories):
    """16-byte digest of Bob's halves; identifies one offline run's output."""
    h = hashlib.sha256()
    for inv in bob_inventories:
        h.update(_section_header(inv.modulus, len(inv), inv.slot_len, bytes(TOKEN_LEN)))
        h.update(_bob_payload(inv))
    return h.digest()[:TOKEN_LEN]


def save_inventories(path, inventories, side, token):
    """Write one or more sections (bin batches, then stash batches) to a file."""
    if side not in (SIDE_ALICE, SIDE_BOB):
        raise ValueError(f"side must be alice or bob, got {side}")
    with open(path, "wb") as f:
        for inv in inventories:
            f.write(_section_header(inv.modulus, len(inv), inv.slot_len, token, side))
            if side == SIDE_ALICE:
                f.write(_alice_payload(inv))
            else:
                f.write(_bob_payload(inv))


def load_inventories(path, side):
    """Read all sections; returns (inventories, token)."""
    if side not in (SIDE_ALICE, SIDE_BOB):
        raise ValueError(f"side must be alice or bob, got {side}")
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
                raise TupleFileError(f"unsupported version {version}")
            modulus = PrimeModulus(q)
            if token is None:
                token = tok
            elif token != tok:
                raise TupleFileError("sections carry different inventory tokens")
            width = modulus.byte_len
            kind = dtype_for(q)
            if side == SIDE_ALICE:
                need = count * (1 + slot_len) * width
                data = f.read(need)
                if len(data) < need:
                    raise TupleFileError("truncated alice section payload")
                block = unpack_words(data, 8 * width, count * (1 + slot_len), kind)
                out.append(AliceInventory.from_block(modulus, block.reshape(count, 1 + slot_len)))
            else:
                need = count * slot_len * 3 * width
                data = f.read(need)
                if len(data) < need:
                    raise TupleFileError("truncated bob section payload")
                block = unpack_words(data, 8 * width, count * slot_len * 3, kind)
                out.append(BobInventory.from_block(modulus, block.reshape(count, slot_len, 3)))
    if token is None:
        raise TupleFileError("empty tuple file")
    return out, token
