"""Plaintext simulation of the leveled-encryption offline construction.

Replays the exact residue arithmetic the encrypted pipeline performs,
minus ciphertexts and noise: Bob-side values enter componentwise modulo
two coprime plaintext moduli q_1 < q_2, and Alice recovers

    v = u*Q + (s_A + s_B) * (r_B^{-1} mod Q)

by CRT over the q_i and reduces mod Q to get r_A.  The masking term u*Q
(u uniform below 2^lambda) is what hides the payload's magnitude in the
real construction, so it is kept and its distribution is testable.  The
modulus product must clear Q^2 * 2^lambda (hiding) and the slightly
larger no-wraparound bound, so CRT reconstruction is exact over the
integers.

The CRT is Garner's two-prime form, v = a_1 + q_1 * t, and lbe_digits
computes (a_1, t) on uint64 words: every product is either one machine
product, where the static bounds of its operands show it stays below 2^64,
or Horner over limbs of the multiplier narrow enough that no intermediate
reaches 2^64. That holds for any q_i below 2^63, which covers every ladder
lbe_params_for returns (its primes start below 2^62), so one kernel serves
every Q and lambda <= 64 and is exact on Python ints as well.

The lbe-sim backend is the seed expansion (_expand) from a seed of its
own, with lbe_r_a as its r_A step: each tile of the expansion reads one u
per slot from its chunk's own stream, runs lbe_digits on the tile and
reduces v mod Q from the digits. Its r_B^-1 is drawn, as the seed backend
draws it, so nothing inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..codec import unpack_words
from ..field import MAX_MODULUS, FieldError, is_prime
from ..modvec import reduce_in_place

_WORD = 1 << 64  # every intermediate of the kernel stays below one uint64 word


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
        if len(self.q_i) != 2 or not 1 < self.q_i[0] < self.q_i[1] < 1 << 63:
            raise ValueError("q_i must be two increasing moduli below 2^63")
        if math.gcd(*self.q_i) != 1:
            raise ValueError("q_i must be coprime")
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


def _mulmod(a, a_top, b, b_top, m):
    """a * b mod m for 0 <= a <= a_top, 0 <= b <= b_top and m < 2^63, exact
    on Python ints and on unsigned arrays whose product is uint64 alike: one
    product where the tops show it stays below 2^64, else a reduced below m
    and Horner over w-bit limbs of b, w = 64 - bitlen(m), so that no
    intermediate reaches 2^64."""
    if a_top * b_top < _WORD:
        return reduce_in_place(a * b, m)
    if a_top >= m:
        a = a % m
    w = 64 - m.bit_length()
    shift = (b_top.bit_length() - 1) // w * w
    r = reduce_in_place(a * (b >> shift), m)
    while shift:
        shift -= w
        r <<= w
        r = reduce_in_place(r, m)
        r += reduce_in_place(a * (b >> shift & (1 << w) - 1), m)
        r = reduce_in_place(r, m)
    return r


@lru_cache(maxsize=16)
def _q1_inverse(lbe):
    q1, q2 = lbe.q_i
    return pow(q1, -1, q2)


def lbe_digits(lbe, s_A, s_B, r_B_inv, u):
    """Garner's digits (a_1, t) of v = a_1 + q_1 * t, the CRT over the q_i of
    x = (s_A + s_B) * r_B_inv + u*Q, which the ladder makes equal to x.

    a_1 = x mod q_1 and t = (x mod q_2 - a_1) * q_1^-1 mod q_2, both below
    2^63: x itself where it fits 64 bits, else each residue from _mulmod's
    products. Exact on Python ints and, elementwise, on arrays with s_A and u
    uint64 (s_A, s_B, r_B_inv below Q, u below 2^lambda): s_B and r_B_inv may
    be any unsigned dtype, since every term they enter is promoted to uint64
    by s_A's, and the digits come back uint64.
    """
    Q, (q1, q2) = lbe.modulus.q, lbe.q_i
    s, s_top, u_top = s_A + s_B, 2 * Q - 2, lbe.u_domain - 1
    if s_top * (Q - 1) + u_top * Q < _WORD:
        s *= r_B_inv
        s += u * Q
        a1, a2 = s % q1, reduce_in_place(s, q2)
    else:
        a1, a2 = (
            (_mulmod(r_B_inv, Q - 1, s, s_top, qi) + _mulmod(u, u_top, Q, Q, qi)) % qi
            for qi in (q1, q2)
        )
    a2 += q2 - a1  # a_1 < q_1 < q_2: no term is negative
    return a1, _mulmod(reduce_in_place(a2, q2), q2 - 1, _q1_inverse(lbe), q2 - 1, q2)


def lbe_r_a(lam):
    """The lbe-sim backend's r_A step for expand_sections at masking width
    lam: per slot u is the next little-endian 8-byte word of the chunk's
    stream, masked to lam bits, and r_A = v mod Q = a_1 + (q_1 mod Q) * t
    mod Q from lbe_digits, on uint64 arrays of the expansion's tile."""
    if lam > 64:
        raise ValueError("batch sampling supports lambda <= 64")

    def r_a(modulus, s_A, bob_rows, stream):
        lbe = lbe_params_for(modulus, lam)
        Q, (q1, q2) = modulus.q, lbe.q_i
        shape = bob_rows.shape[:2]
        slots = math.prod(shape)
        u = unpack_words(stream.read(8 * slots), 64, slots, np.uint64) & lbe.u_domain - 1
        a1, t = lbe_digits(
            lbe,
            s_A.astype(np.uint64)[:, None],
            bob_rows[:, :, 1],
            bob_rows[:, :, 0],
            u.reshape(shape),
        )
        return reduce_in_place(a1 + _mulmod(t, q2 - 1, q1 % Q, Q - 1, Q), Q)  # < q_1 + Q < 2^64

    return r_a
