"""Plaintext simulation of the leveled-encryption offline construction.

Replays the exact residue arithmetic the encrypted pipeline performs,
minus ciphertexts and noise: Bob-side values enter componentwise modulo
two coprime plaintext moduli q_1, q_2, and Alice recovers

    v = u*Q + (s_A + s_B) * (r_B^{-1} mod Q)

by CRT over the q_i and reduces mod Q to get r_A.  The masking term u*Q
(u uniform below 2^lambda) is what hides the payload's magnitude in the
real construction, so it is kept and its distribution is testable.  The
modulus product must clear Q^2 * 2^lambda (hiding) and the slightly
larger no-wraparound bound, so CRT reconstruction is exact over the
integers.

lbe_batch replays this for about 2^16 slots at a time through
lbe_reconstruct, on Python-int (object) arrays, so it stays exact however
wide the q_i and the CRT basis terms are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..codec import unpack_words
from ..field import MAX_MODULUS, FieldError, is_prime
from ..modvec import dtype_for
from ..prg import Prg
from ..tuples import AliceInventory, BobInventory

_CHUNK_SLOTS = 1 << 16  # slots per object-array CRT pass in lbe_batch


def _bound(Q, lam):
    """The hiding bound Q^2 2^lam, plus headroom so v never wraps mod Q'."""
    return max(Q * Q << lam, 2 * Q * Q + (Q << lam))


@dataclass(frozen=True)
class LbeSimParams:
    """Plaintext-modulus ladder for one target field F_Q."""

    modulus: object
    lam: int
    q_i: tuple

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        for i, a in enumerate(self.q_i):
            for b in self.q_i[i + 1 :]:
                if math.gcd(a, b) != 1:
                    raise ValueError("q_i must be pairwise coprime")
        if self.Q_prime <= _bound(self.modulus.q, self.lam):
            raise ValueError("modulus product too small for the hiding bound")

    @property
    def Q_prime(self):
        return math.prod(self.q_i)

    @property
    def u_domain(self):
        return 1 << self.lam


def _prime_from(n, step):
    """The first prime met walking from n in steps of +1 or -1."""
    while not is_prime(n):
        n += step
    return n


@lru_cache(maxsize=16)
def lbe_params_for(modulus, lam):
    """The two smallest consecutive primes whose product clears the bound B.

    With p the largest prime <= isqrt(B) and p+ the next one, the pair
    before (p, p+) has product below p^2 <= B, and p+ > sqrt(B) puts
    p+ * p++ above B. So the ladder is (p, p+) if that clears B, else
    (p+, p++).
    """
    bound = _bound(modulus.q, lam)
    root = math.isqrt(bound)
    if root >= MAX_MODULUS:  # keeps is_prime well inside its exact range, n < 3.3e24
        raise FieldError(f"no supported ladder for Q={modulus.q}, lambda={lam}")
    p = _prime_from(root, -1)
    p1 = _prime_from(p + 1, 1)
    if p * p1 <= bound:
        p, p1 = p1, _prime_from(p1 + 1, 1)
    return LbeSimParams(modulus=modulus, lam=lam, q_i=(p, p1))


@lru_cache(maxsize=16)
def _crt_basis(lbe):
    Qp = lbe.Q_prime
    basis = []
    for qi in lbe.q_i:
        Ni = Qp // qi
        basis.append(Ni * pow(Ni, -1, qi))
    return tuple(basis)


def lbe_reconstruct(lbe, s_A, s_B, r_B_inv, u):
    """The integer v = CRT(x mod q_i) mod Q' for x = (s_A + s_B) * r_B_inv +
    u*Q, before Alice reduces it mod Q to r_A.

    Runs on Python ints or, elementwise, on object arrays of them (s_A and
    u object, the others may be unsigned arrays), so it is exact for q_i and
    CRT basis terms of any size.
    """
    x = (s_A + s_B) * r_B_inv + u * lbe.modulus.q
    v = 0
    for qi, bi in zip(lbe.q_i, _crt_basis(lbe)):
        v += (x % qi) * bi
    return v % lbe.Q_prime


def lbe_batch(modulus, lam, count, slot_len, seed):
    """`count` batches of slot_len slots over F_q where every r_A went
    through the residue pipeline at masking width lam."""
    q = modulus.q
    L = slot_len
    if lam > 64:
        raise ValueError("batch sampling supports lambda <= 64")
    lbe = lbe_params_for(modulus, lam)
    prg = Prg(seed, tag=b"lbe")
    dt = dtype_for(q)
    block = np.empty((count, 1 + L), dtype=dt)  # Alice's (s_A, r_A...) rows
    s_A, r_A = block[:, 0], block[:, 1:]
    s_A[:] = prg.elements(modulus, count, dtype=dt)
    r_B = prg.nonzero_elements(modulus, count * L, dtype=dt).reshape(count, L)
    s_B = prg.elements(modulus, count * L, dtype=dt).reshape(count, L)
    mask = np.uint64(lbe.u_domain - 1)
    u_vals = unpack_words(prg.read(8 * count * L), 64, count * L, np.uint64) & mask
    u_vals = u_vals.reshape(count, L)
    bob = BobInventory.from_r_b_s_b(modulus, r_B, s_B)
    step = max(1, _CHUNK_SLOTS // max(L, 1))
    for lo in range(0, count, step):
        hi = lo + step
        s = s_A[lo:hi, None].astype(object)
        u = u_vals[lo:hi].astype(object)
        r_A[lo:hi] = lbe_reconstruct(lbe, s, s_B[lo:hi], bob.r_B_inv[lo:hi], u) % q
    return AliceInventory(modulus, block), bob
