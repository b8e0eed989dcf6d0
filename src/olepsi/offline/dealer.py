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
from ..modvec import dtype_for
from ..params import sections
from ..prg import SEED_LEN, Seed
from ..transport import TransportError
from ..tuples import inventory_token
from ._expand import expand_sections


@dataclass(frozen=True)
class DealerMessages:
    """What the dealer sends out: to_alice = (R_A, r_A arrays), to_bob = R_B.

    token identifies Bob's expanded half (it rides along to Alice so a
    later run can detect mismatched tuple material before any comparison).
    """

    to_alice: tuple
    to_bob: Seed
    token: bytes


def dealer_generate(R_A, R_B, params):
    """PSI-shaped dealer run: one r_A array per section of the run."""
    alice, bob = expand_sections(params.modulus, sections(params), seed_a=R_A, seed_b=R_B)
    # copies, so that the expanded blocks are freed once the token is taken
    r_A_lists = tuple(np.ascontiguousarray(a.r_A) for a in alice)
    return DealerMessages(to_alice=(R_A, r_A_lists), to_bob=R_B, token=inventory_token(bob))


def expand_alice(R_A, r_A_lists, params):
    """Alice's side of the dealer protocol: seed plus received r_A arrays."""
    invs, _ = expand_sections(params.modulus, sections(params), seed_a=R_A)
    for inv, r_A in zip(invs, r_A_lists, strict=True):
        inv.block[:, 1:] = r_A
    return invs


def expand_bob(R_B, params):
    """Bob's side: everything re-expanded from the 32-byte seed."""
    return expand_sections(params.modulus, sections(params), seed_b=R_B)[1]


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


def to_alice_len(params):
    """Bytes of the dealer-to-Alice message: a receiver's exact frame bound."""
    layout = sections(params)
    words = sum(rows * cols for _, rows, cols in layout)
    return (
        _ALICE_HEAD.size
        + len(layout) * _SECTION_HEAD.size
        + words * params.modulus.byte_len
    )


def decode_to_alice(data, params):
    """Inverse of encode_to_alice for one run's parameters; returns
    (R_A, r_A arrays, token). A message of another length, field or section
    layout raises TransportError."""
    need = to_alice_len(params)
    if len(data) != need:
        raise TransportError(f"dealer message is {len(data)} bytes, parameters need {need}")
    seed_bytes, token, q, nsec = _ALICE_HEAD.unpack_from(data, 0)
    modulus = params.modulus
    if q != modulus.q:
        raise TransportError(f"dealer served field q={q}, parameters need {modulus.q}")
    layout = sections(params)
    if nsec != len(layout):
        raise TransportError(f"dealer sent {nsec} sections, parameters need {len(layout)}")
    off = _ALICE_HEAD.size
    r_A_lists = []
    for name, rows, cols in layout:
        shape = _SECTION_HEAD.unpack_from(data, off)
        if shape != (rows, cols):
            raise TransportError(
                f"dealer {name} section is {shape[0]} x {shape[1]}, "
                f"parameters need {rows} x {cols}"
            )
        off += _SECTION_HEAD.size
        nbytes = rows * cols * modulus.byte_len
        words = unpack_words(
            data[off : off + nbytes], 8 * modulus.byte_len, rows * cols, dtype_for(q)
        )
        off += nbytes
        r_A_lists.append(words.reshape(rows, cols))
    return Seed(seed_bytes), tuple(r_A_lists), token


def encode_to_bob(msg):
    """Wire form of the dealer-to-Bob message: the bare 32-byte seed."""
    return msg.to_bob.value


def decode_to_bob(data):
    if len(data) != SEED_LEN:
        raise TransportError(f"dealer-to-Bob message must be {SEED_LEN} bytes")
    return Seed(bytes(data))
