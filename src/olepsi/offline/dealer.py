"""Trusted-dealer backend.

A dealer expands both halves from two seeds, deriving every r_A, then
distributes: Alice receives her half as her tuple file, whose token
identifies Bob's half; Bob receives nothing but his 32-byte seed and
re-expands locally. The asymmetry is the point: the dealer-to-Bob message
stays seed-sized no matter how many tuples the run needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import sections
from ..prg import SEED_LEN, Seed
from ..transport import TransportError
from ..tuples import inventory_token
from ._expand import expand_sections


@dataclass(frozen=True)
class DealerMessages:
    """What the dealer sends out: to_alice = Alice's inventories, one per
    section, to_bob = R_B.

    token identifies Bob's expanded half (it rides along to Alice so a
    later run can detect mismatched tuple material before any comparison).
    """

    to_alice: list
    to_bob: Seed
    token: bytes


def dealer_generate(R_A, R_B, params):
    """PSI-shaped dealer run: Alice's inventories as expanded, one per
    section of the run. Bob's half is dropped once its token is taken."""
    alice, bob = expand_sections(params.modulus, sections(params), seed_a=R_A, seed_b=R_B)
    return DealerMessages(to_alice=alice, to_bob=R_B, token=inventory_token(bob))


def expand_bob(R_B, params):
    """Bob's side: everything re-expanded from the 32-byte seed."""
    return expand_sections(params.modulus, sections(params), seed_a=None, seed_b=R_B)[1]


def decode_to_bob(data):
    if len(data) != SEED_LEN:
        raise TransportError(f"dealer-to-Bob message must be {SEED_LEN} bytes")
    return Seed(bytes(data))
