"""Inequality tests built from bitwise OT plus one degenerate set comparison.

mismatch_plain decides x != y for ell-bit inputs. Alice pads each bit
position with an additive share r_i; the i-th OT delivers c_i = r_i +
(x_i xor y_i), so Bob's sum d exceeds Alice's e = sum(r_i) by exactly the
Hamming distance. Bob's candidate set {d - 1, ..., d - ell} therefore
contains e exactly when the strings differ. The membership test is the
comparison protocol in its degenerate shape: one c-value against ell
d-values, which needs q > ell so the offsets stay distinct mod q. Bob's
candidates go out rotated by a fresh uniform offset, so the slot of a hit
says nothing about the Hamming distance.

mismatch_keyed is the same protocol with key offsets: Alice's value is
e + H(k_A) and Bob's candidates are d - j + H(k_B). A hit needs
H(k_B) - H(k_A) + HD - j = 0 mod q for some j in 1..ell, so the answer is
true when the keys agree and the strings differ, and otherwise only on an
ell/q hash coincidence. Both variants consume one (AliceInventory,
BobInventory) batch through set_compare_single.
"""

import hashlib
import secrets

import numpy as np

from .modvec import alice_c, bob_reply


def keyed_hash(seed, x, range_size):
    """The shared keyed hash H, reduced into [0, range_size)."""
    digest = hashlib.sha256(seed + x.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:8], "little") % range_size


def _check_input(value, ell, who):
    if not 0 <= value < (1 << ell):
        raise ValueError(f"{who} input must be an {ell}-bit value")


def _ot_masked_sum(x, y, ell, shares, ot, modulus):
    """Per-bit transfer of r_i + (x_i xor y_i); returns Bob's masked sum d."""
    q = modulus.q
    xi = np.array([(x >> i) & 1 for i in range(ell)], dtype=np.int64)
    r = np.array(shares, dtype=np.int64)
    ot.ot_send_many((r + xi) % q, (r + (xi ^ 1)) % q)
    o = ot.ot_receive_many([(y >> i) & 1 for i in range(ell)])
    return sum(o.tolist()) % q


def set_compare_single(e, candidates, alice, bob):
    """Degenerate set comparison: is Alice's e among Bob's candidates?

    The first batch of the (AliceInventory, BobInventory) pair backs the
    whole test: a single c-value out, one d-value back per candidate,
    checked against the batch's r_A values. Bob's candidate row is rotated
    by a fresh offset, uniform on [0, len(candidates)), as build_bin_table
    rotates a bin's row, so the slot of a hit is uniform whatever its rank.
    """
    k = len(candidates)
    if alice.slot_len < k or bob.slot_len < k:
        raise ValueError("batch too short for the candidate set")
    q = alice.modulus.q
    c = alice_c(alice.s_A[:1], e, q)
    enc = np.roll(np.asarray(candidates, dtype=np.int64), secrets.randbelow(max(k, 1)))
    d = bob_reply(c, enc.reshape(1, k), bob.block[:1, :k], q)
    return bool((d[0] == alice.r_A[0, :k]).any())


def _mismatch(x, y, ell, ot, batch, prg, offset_a, offset_b):
    """Alice's e + offset_a against Bob's d - j + offset_b for j = 1..ell,
    with e the sum of ell uniform shares (from prg, else from secrets)."""
    alice, bob = batch
    modulus = alice.modulus
    q = modulus.q
    if q <= ell:
        raise ValueError(f"need q > ell, got q={q}, ell={ell}")
    _check_input(x, ell, "alice")
    _check_input(y, ell, "bob")
    if prg is None:
        shares = [secrets.randbelow(q) for _ in range(ell)]
    else:
        shares = prg.elements(modulus, ell).tolist()
    e = sum(shares) % q

    d = _ot_masked_sum(x, y, ell, shares, ot, modulus)
    candidates = [(d - j + offset_b) % q for j in range(1, ell + 1)]
    return set_compare_single((e + offset_a) % q, candidates, alice, bob)


def mismatch_plain(x, y, ell, ot, batch, *, prg=None):
    """True exactly when x != y, for ell-bit x (Alice) and y (Bob).

    batch is an (AliceInventory, BobInventory) pair whose first batch has
    at least ell slots; one call consumes it.
    """
    return _mismatch(x, y, ell, ot, batch, prg, 0, 0)


def mismatch_keyed(key_a, x, key_b, y, batch, ot, *, h_seed, prg=None):
    """True exactly when the keys agree and x != y (up to an ell/q coincidence).

    ell is the slot length of batch, an (AliceInventory, BobInventory) pair
    that one call consumes. H is the keyed hash under h_seed, common to both
    parties, reduced mod q: Alice offsets her value by H(key_a) and Bob his
    candidates by H(key_b).
    """
    q = batch[0].modulus.q
    h_a, h_b = keyed_hash(h_seed, key_a, q), keyed_hash(h_seed, key_b, q)
    return _mismatch(x, y, batch[0].slot_len, ot, batch, prg, h_a, h_b)
