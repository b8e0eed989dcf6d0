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

The lbe-sim backend is the seed expansion (_expand) from a seed of its
own, with lbe_r_a as its r_A step: each tile of the expansion reads one u
per slot from its chunk's own stream and replays the pipeline through
lbe_reconstruct on Python-int (object) arrays, so it stays exact however
wide the q_i and the CRT basis terms are. An object slot costs about five
times the bytes of a numpy slot, so the step cuts each tile again, into
passes of at most 2^14 slots (params.tiles). Its r_B^-1 is drawn, as the
seed backend draws it, so nothing inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..codec import unpack_words
from ..field import MAX_MODULUS, FieldError, is_prime
from ..modvec import dtype_for
from ..params import tiles

_CHUNK_SLOTS = 1 << 14  # slots per object-array CRT pass in lbe_r_a


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


def lbe_r_a(lam):
    """The lbe-sim backend's r_A step for expand_sections at masking width
    lam: per slot u is the next little-endian 8-byte word of the chunk's
    stream, masked to lam bits, and r_A = lbe_reconstruct(...) mod Q, in
    passes of at most _CHUNK_SLOTS slots."""
    if lam > 64:
        raise ValueError("batch sampling supports lambda <= 64")

    def r_a(modulus, s_A, bob_rows, stream):
        lbe = lbe_params_for(modulus, lam)
        mask = np.uint64(lbe.u_domain - 1)
        out = np.empty(bob_rows.shape[:2], dtype_for(modulus.q))
        for rows, cols in tiles(*out.shape, _CHUNK_SLOTS):
            tile = bob_rows[rows, cols]
            shape = tile.shape[:2]
            slots = math.prod(shape)
            u = unpack_words(stream.read(8 * slots), 64, slots, np.uint64) & mask
            s, u = s_A[rows, None].astype(object), u.reshape(shape).astype(object)
            v = lbe_reconstruct(lbe, s, tile[:, :, 1], tile[:, :, 0], u)
            out[rows, cols] = v % modulus.q
        return out

    return r_a
