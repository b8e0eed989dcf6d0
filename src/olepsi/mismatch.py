"""Inequality tests built from bitwise OT plus one degenerate set comparison.

mismatch_plain decides x != y for ell-bit inputs. Alice pads each bit
position with an additive share r_i; the i-th OT delivers c_i = r_i +
(x_i xor y_i), so Bob's sum d exceeds Alice's e = sum(r_i) by exactly the
Hamming distance. Bob's candidate set {d - 1, ..., d - ell} therefore
contains e exactly when the strings differ. The membership test is the
comparison protocol in its degenerate shape: one c-value against ell
d-values, which needs q > ell so the offsets stay distinct mod q.

mismatch_keyed binds the test to a shared key: Alice's shares sum to
r_A - H(k_A) instead of a free value, and Bob folds H(k_B) back in while
evaluating his half of the tuple relation, so the answer is true only when
the keys agree and the strings differ (or an ell/q hash coincidence hits).
"""

import hashlib
import secrets
from dataclasses import dataclass

import numpy as np

from .online import _alice_c, _bob_reply


def keyed_hash(seed, x, range_size):
    """The shared keyed hash H, reduced into [0, range_size)."""
    digest = hashlib.sha256(seed + x.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:8], "little") % range_size


def _random_shares(total, ell, modulus, prg):
    """ell field values summing to total mod q; all but one uniform."""
    q = modulus.q
    if prg is None:
        shares = [secrets.randbelow(q) for _ in range(ell - 1)]
    else:
        shares = prg.elements(modulus, ell - 1).tolist()
    shares.append((total - sum(shares)) % q)
    return shares


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
    checked against the batch's r_A values.
    """
    k = len(candidates)
    if alice.slot_len < k or bob.slot_len < k:
        raise ValueError("batch too short for the candidate set")
    q = alice.modulus.q
    c = _alice_c(alice.s_A[:1], e, q)
    enc = np.asarray(candidates, dtype=np.int64).reshape(1, k)
    d = _bob_reply(c, enc, bob.block[:1, :k], q)
    return bool((d[0] == alice.r_A[0, :k]).any())


def mismatch_plain(x, y, ell, ot, batch, *, prg=None, shares=None):
    """True exactly when x != y, for ell-bit x (Alice) and y (Bob).

    batch is an (AliceInventory, BobInventory) pair whose first batch has
    at least ell slots; one call consumes it. shares overrides Alice's
    random pad values, which pins the whole transcript for tests.
    """
    alice, bob = batch
    modulus = alice.modulus
    q = modulus.q
    if q <= ell:
        raise ValueError(f"need q > ell, got q={q}, ell={ell}")
    _check_input(x, ell, "alice")
    _check_input(y, ell, "bob")
    if shares is None:
        shares = _random_shares(secrets.randbelow(q), ell, modulus, prg)
    elif len(shares) != ell:
        raise ValueError("need exactly ell shares")
    e = sum(shares) % q

    d = _ot_masked_sum(x, y, ell, shares, ot, modulus)
    candidates = [(d - j) % q for j in range(1, ell + 1)]
    return set_compare_single(e, candidates, alice, bob)


@dataclass(frozen=True)
class MismatchTriples:
    """ell correlated slots sharing one r_A: r_A * r_B[i] = s_A[i] + s_B[i].

    r_A is an int; s_A, r_B and s_B are int64 arrays of length ell.
    """

    modulus: object
    r_A: int
    s_A: np.ndarray
    r_B: np.ndarray
    s_B: np.ndarray

    def __len__(self):
        return len(self.s_A)

    @classmethod
    def generate(cls, modulus, ell, prg):
        q = modulus.q
        r_A = int(prg.elements(modulus, 1)[0])
        r_B = prg.nonzero_elements(modulus, ell)
        s_B = prg.elements(modulus, ell)
        return cls(modulus=modulus, r_A=r_A, s_A=(r_A * r_B - s_B) % q, r_B=r_B, s_B=s_B)


def mismatch_keyed(key_a, x, key_b, y, triples, ot, *, h=None, h_seed=None,
                   prg=None, shares=None):
    """True exactly when the keys agree and x != y (up to an ell/q coincidence).

    ell is the slot count of the triples. h maps a key to a field value and
    must be common to both parties; by default it is the seeded keyed hash
    under h_seed. Alice's shares sum to r_A - h(key_a); Bob evaluates
    f_i = (d_i + h(key_b)) * r_B_i - s_B_i over his candidate offsets, and
    Alice reports whether any f_i equals her s_A_i. A key disagreement
    shifts every candidate away from r_A, leaving only hash coincidences.
    """
    modulus = triples.modulus
    q = modulus.q
    ell = len(triples)
    if q <= ell:
        raise ValueError(f"need q > ell, got q={q}, ell={ell}")
    _check_input(x, ell, "alice")
    _check_input(y, ell, "bob")
    if h is None:
        if h_seed is None:
            raise ValueError("mismatch_keyed needs h or h_seed")
        h = lambda key: keyed_hash(h_seed, key, q)

    total = (triples.r_A - h(key_a)) % q
    if shares is None:
        shares = _random_shares(total, ell, modulus, prg)
    else:
        if len(shares) != ell:
            raise ValueError("need exactly ell shares")
        if sum(shares) % q != total:
            raise ValueError("shares must sum to r_A - h(key_a)")

    d = _ot_masked_sum(x, y, ell, shares, ot, modulus)

    d_j = (d - np.arange(1, ell + 1)) % q
    f = ((d_j + h(key_b)) * triples.r_B - triples.s_B) % q
    return bool((f == triples.s_A).any())
