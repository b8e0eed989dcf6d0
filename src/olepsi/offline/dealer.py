"""Trusted-dealer backend.

A dealer expands Bob's half and the shared s_A values from two seeds,
derives every r_A, then distributes: Alice receives her seed, the full
r_A matrices, and a short token identifying Bob's half; Bob receives
nothing but his 32-byte seed and re-expands locally.  The asymmetry is
the point: the dealer-to-Bob message stays seed-sized no matter how many
tuples the run needs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..codec import pack_words, unpack_words
from ..field import PrimeModulus
from ..modvec import dtype_for
from ..prg import SEED_LEN, Seed
from ..tuples import AliceInventory, inventory_token
from ._expand import derive_r_a_arrays, expand_bob_inventory, expand_s_a

_SECTION_DOMAINS = (b"bins", b"stash")


@dataclass(frozen=True)
class DealerMessages:
    """What the dealer sends out: to_alice = (R_A, r_A arrays), to_bob = R_B.

    token identifies Bob's expanded half (it rides along to Alice so a
    later run can detect mismatched tuple material before any comparison).
    """

    to_alice: tuple
    to_bob: Seed
    token: bytes


def _sections(params, bin_count=None):
    bins = (params.alpha if bin_count is None else bin_count, params.beta)
    stash = (params.stash_size, params.n)
    return (bins, stash)


def dealer_generate(R_A, R_B, count, params):
    """PSI-shaped dealer run: `count` bin batches plus the stash section."""
    modulus = params.modulus
    r_A_lists = []
    bob_invs = []
    for (rows, slot_len), domain in zip(_sections(params, count), _SECTION_DOMAINS):
        s_A = expand_s_a(R_A, modulus, rows, domain)
        bob = expand_bob_inventory(R_B, modulus, rows, slot_len, domain)
        r_A_lists.append(derive_r_a_arrays(s_A, bob.s_B, bob.r_B_inv, modulus.q))
        bob_invs.append(bob)
    token = inventory_token(bob_invs)
    return DealerMessages(to_alice=(R_A, tuple(r_A_lists)), to_bob=R_B, token=token)


def expand_alice(R_A, r_A_lists, params):
    """Alice's side of the dealer protocol: seed plus received r_A arrays."""
    modulus = params.modulus
    invs = []
    for r_A, domain in zip(r_A_lists, _SECTION_DOMAINS):
        block = np.empty((r_A.shape[0], 1 + r_A.shape[1]), dtype=dtype_for(modulus.q))
        block[:, 0] = expand_s_a(R_A, modulus, r_A.shape[0], domain)
        block[:, 1:] = r_A
        invs.append(AliceInventory(modulus, block))
    return invs


def expand_bob(R_B, params, *, bin_count=None):
    """Bob's side: everything re-expanded from the 32-byte seed."""
    modulus = params.modulus
    return [
        expand_bob_inventory(R_B, modulus, count, slot_len, domain)
        for (count, slot_len), domain in zip(_sections(params, bin_count), _SECTION_DOMAINS)
    ]


_ALICE_HEAD = struct.Struct("<32s16sQB")
_SECTION_HEAD = struct.Struct("<II")


def encode_to_alice(msg, modulus):
    """Wire form of the dealer-to-Alice message."""
    R_A, r_A_lists = msg.to_alice
    parts = [_ALICE_HEAD.pack(R_A.value, msg.token, modulus.q, len(r_A_lists))]
    for r_A in r_A_lists:
        count, slot_len = r_A.shape
        parts.append(_SECTION_HEAD.pack(count, slot_len))
        parts.append(pack_words(r_A, 8 * modulus.byte_len))
    return b"".join(parts)


def to_alice_len(params, count):
    """Bytes of the dealer-to-Alice message for `count` bin batches (alpha
    when None): a receiver's exact frame bound."""
    words = sum(rows * slot_len for rows, slot_len in _sections(params, count))
    return (
        _ALICE_HEAD.size
        + len(_SECTION_DOMAINS) * _SECTION_HEAD.size
        + words * params.modulus.byte_len
    )


def decode_to_alice(data):
    """Inverse of encode_to_alice; returns (R_A, r_A arrays, token, modulus)."""
    seed_bytes, token, q, nsec = _ALICE_HEAD.unpack_from(data, 0)
    modulus = PrimeModulus(q)
    off = _ALICE_HEAD.size
    r_A_lists = []
    for _ in range(nsec):
        count, slot_len = _SECTION_HEAD.unpack_from(data, off)
        off += _SECTION_HEAD.size
        nbytes = count * slot_len * modulus.byte_len
        block = unpack_words(
            data[off : off + nbytes], 8 * modulus.byte_len, count * slot_len, dtype_for(q)
        )
        off += nbytes
        r_A_lists.append(block.reshape(count, slot_len))
    if off != len(data):
        raise ValueError("trailing bytes in dealer message")
    return Seed(seed_bytes), tuple(r_A_lists), token, modulus


def encode_to_bob(msg):
    """Wire form of the dealer-to-Bob message: the bare 32-byte seed."""
    return msg.to_bob.value


def decode_to_bob(data):
    if len(data) != SEED_LEN:
        raise ValueError(f"dealer-to-Bob message must be {SEED_LEN} bytes")
    return Seed(bytes(data))
