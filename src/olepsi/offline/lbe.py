"""Plaintext simulation of the leveled-encryption offline construction.

Replays the exact residue arithmetic the encrypted pipeline performs,
minus ciphertexts and noise: Bob-side values enter componentwise modulo
pairwise-coprime q_i, Alice recovers

    v = u*Q + (s_A + s_B) * (r_B^{-1} mod Q)

by CRT over the q_i and reduces mod Q to get r_A.  The masking term u*Q
(u uniform below 2^lambda) is what hides the payload's magnitude in the
real construction, so it is kept and its distribution is testable.  The
modulus product must clear Q^2 * 2^lambda (hiding) and the slightly
larger no-wraparound bound, so CRT reconstruction is exact over the
integers.

The batch path replays this for about 2^16 slots at a time: it forms
x = (s_A + s_B) * r_B^{-1} + u*Q on Python-int (object) arrays, takes the
residues x mod q_i and recombines them with the CRT basis, so it stays
exact however wide the q_i and basis terms are.  The scalar API runs the
same routine on one slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..codec import unpack_words
from ..field import InversionOfZero, smallest_prime_at_least
from ..modvec import dtype_for
from ..prg import Prg, Seed
from ..tuples import AliceInventory, BobInventory

_CHUNK_SLOTS = 1 << 16  # slots per object-array CRT pass in lbe_batch


@dataclass(frozen=True)
class LbeSimParams:
    """Plaintext-modulus ladder for one target field F_Q."""

    modulus: object
    lam: int
    q_i: tuple

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if len(self.q_i) < 1:
            raise ValueError("need at least one plaintext modulus")
        for i, a in enumerate(self.q_i):
            for b in self.q_i[i + 1 :]:
                if math.gcd(a, b) != 1:
                    raise ValueError("q_i must be pairwise coprime")
        Q = self.modulus.q
        if self.m == 1:
            if self.q_i[0] != Q:
                raise ValueError("single-modulus form requires q_1 = Q")
        elif self.Q_prime <= max(Q * Q << self.lam, 2 * Q * Q + (Q << self.lam)):
            # hiding bound, plus headroom so CRT reconstruction never wraps
            raise ValueError("modulus product too small for the hiding bound")

    @property
    def m(self):
        return len(self.q_i)

    @property
    def Q_prime(self):
        return math.prod(self.q_i)

    @property
    def u_domain(self):
        return 1 << self.lam if self.m > 1 else 1


def _int_root(n, m):
    """floor(n ** (1/m)) exactly."""
    if m == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / m)))
    while r > 0 and r**m > n:
        r -= 1
    while (r + 1) ** m <= n:
        r += 1
    return r


def _next_prime_at_least(p):
    if p <= 2:
        return 2
    if p <= 3:
        return 3
    return smallest_prime_at_least(max(p, 5)).q


def _prime_window(bound, m, start):
    """First run of m consecutive primes from `start` whose product > bound.

    Returns None if the very first window already clears the bound (the
    caller cannot tell whether an earlier start would have sufficed).
    """
    run = []
    p = start
    while len(run) < m:
        p = _next_prime_at_least(p)
        run.append(p)
        p += 1
    if start > 2 and math.prod(run) > bound:
        return None
    while math.prod(run) <= bound:
        p = _next_prime_at_least(p)
        run.pop(0)
        run.append(p)
        p += 1
    return tuple(run)


@lru_cache(maxsize=16)
def lbe_params_for(modulus, lam, m=2):
    """Smallest run of m consecutive primes clearing both product bounds.

    The scan starts a safe margin below bound^(1/m): sliding the window
    start to the next prime strictly grows the product, so the first
    window that clears the bound while scanning upward is the minimal one.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return LbeSimParams(modulus=modulus, lam=lam, q_i=(modulus.q,))
    Q = modulus.q
    # hiding bound Q^2 2^lam, plus headroom so v never wraps mod Q'
    bound = max(Q * Q << lam, 2 * Q * Q + (Q << lam))
    start = max(2, _int_root(bound, m) - 2000 * m)
    run = _prime_window(bound, m, start)
    if run is None:
        run = _prime_window(bound, m, 2)
    return LbeSimParams(modulus=modulus, lam=lam, q_i=tuple(run))


@lru_cache(maxsize=16)
def _crt_basis(lbe):
    Qp = lbe.Q_prime
    basis = []
    for qi in lbe.q_i:
        Ni = Qp // qi
        basis.append(Ni * pow(Ni, -1, qi))
    return tuple(basis)


def _check_inputs(lbe, s_A, s_B, r_B, u):
    Q = lbe.modulus.q
    for name, val in (("s_A", s_A), ("s_B", s_B), ("r_B", r_B)):
        if not 0 <= val < Q:
            raise ValueError(f"{name} out of range for F_Q")
    if r_B == 0:
        raise InversionOfZero("r_B must be nonzero")
    if lbe.m == 1:
        if u != 0:
            raise ValueError("single-modulus form requires u = 0")
    elif not 0 <= u < lbe.u_domain:
        raise ValueError("u out of range")


def _crt_replay(lbe, s_A, s_B, r_B_inv, u):
    """v = CRT(x mod q_i) mod Q' for x = (s_A + s_B) * r_B_inv + u*Q.

    Runs on Python ints or, elementwise, on object arrays of them (s_A and
    u object, the others may be unsigned arrays), so it is exact for q_i and
    CRT basis terms of any size.
    """
    x = (s_A + s_B) * r_B_inv + u * lbe.modulus.q
    v = 0
    for qi, bi in zip(lbe.q_i, _crt_basis(lbe)):
        v += (x % qi) * bi
    return v % lbe.Q_prime


def lbe_reconstruct(lbe, s_A, s_B, r_B, u):
    """The integer v recovered by CRT, before reduction mod Q."""
    _check_inputs(lbe, s_A, s_B, r_B, u)
    return _crt_replay(lbe, s_A, s_B, pow(r_B, -1, lbe.modulus.q), u)


def lbe_sim_tuple(lbe, s_A, s_B, r_B, u):
    """Alice's r_A as the encrypted pipeline would deliver it: v mod Q."""
    return lbe_reconstruct(lbe, s_A, s_B, r_B, u) % lbe.modulus.q


def lbe_batch(params, count, *, slot_len=None, seed=None, lbe=None):
    """PSI inventories where every r_A went through the residue pipeline."""
    modulus = params.modulus
    q = modulus.q
    L = params.beta if slot_len is None else slot_len
    if lbe is None:
        lbe = lbe_params_for(modulus, params.lam)
    if lbe.modulus.q != q:
        raise ValueError("lbe params built for a different field")
    if lbe.lam > 64:
        raise ValueError("batch sampling supports lambda <= 64")
    prg = Prg(seed if seed is not None else Seed.random(), tag=b"lbe")
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
        r_A[lo:hi] = _crt_replay(lbe, s, s_B[lo:hi], bob.r_B_inv[lo:hi], u) % q
    return AliceInventory(modulus, block), bob
