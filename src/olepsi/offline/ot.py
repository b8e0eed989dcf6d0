"""1-out-of-2 oblivious transfer on vectors of field elements.

Ships one test backend: dealer-assisted precomputed OT.  A local dealer
hands out random pad correlations (p0, p1) to the sender and (c*, p_c*)
to the receiver; the online step is pure one-time-pad derandomization:

    receiver announces  delta = choice XOR c*
    sender answers      e_i = m_i - p_{i XOR delta}
    receiver outputs    e_choice + p_c*  ( = m_choice )

The unchosen message stays masked by the pad the receiver never saw, so
the receiver-side transcript structurally cannot contain it; a test
asserts exactly that.  Real deployments would substitute an OT extension
with the same two methods.

A session runs in uint32, the field's own word: q < MAX_Q = 2^31, so every
sum of two reduced values is below 2q < 2^32, and each difference is
formed as m - p + q, one wrapping subtract and add that land in (0, 2q).
Each is then brought into [0, q) by modvec.reduce_once.  Every pick
between two values is a branch-free mask select, x ^ ((x ^ y) & -bit):
-bit is all ones where the bit is 1, so the select gives y there and x
elsewhere.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..modvec import reduce_once
from ..prg import Prg, Seed


class OtError(Exception):
    """OT sessions driven out of order or with mismatched shapes."""


class DealerAssistedOt:
    """Precomputed OT over one prime field, with an in-process dealer.

    ot_send_many(m0, m1) opens a session of len(m0) transfers on the sender
    side, refusing messages that are not integers in [0, q); the matching
    ot_receive_many(choices) completes it and returns m_choice per transfer
    as uint32.  Sessions complete strictly in FIFO order, and a rejected
    call leaves the pending session in place.  The contract: the receiver
    learns nothing about m_{1-choice}, the sender nothing about choice.
    Deterministic given the seed and the sequence of session sizes.
    """

    def __init__(self, modulus, seed=None):
        self.modulus = modulus
        seed = Seed.random() if seed is None else seed
        self._pads = Prg(seed, tag=b"ot/pads")
        self._bits = Prg(seed, tag=b"ot/bits")
        self._pending = deque()

    def ot_send_many(self, m0, m1):
        m0, m1 = np.asarray(m0), np.asarray(m1)
        if m0.shape != m1.shape or m0.ndim != 1:
            raise OtError("ot_send_many needs two equal-length vectors")
        q = self.modulus.q
        for m in (m0, m1):
            if m.size and m.dtype.kind not in "iu":
                raise ValueError(f"OT messages must be integers, got {m.dtype}")
            if m.size and (m.min() < 0 or m.max() >= q):
                raise ValueError(f"OT messages must lie in [0, {q})")
        self._pending.append((m0.astype(np.uint32, copy=False), m1.astype(np.uint32, copy=False)))

    def ot_receive_many(self, choices):
        if not self._pending:
            raise OtError("no pending ot_send_many")
        m0, m1 = self._pending[0]
        c = np.asarray(choices)
        if c.shape != m0.shape:
            raise OtError("choice vector length mismatch")
        if c.size and (c.dtype.kind not in "biu" or c.min() < 0 or c.max() > 1):
            raise ValueError("choices must be 0 or 1")
        self._pending.popleft()
        q = self.modulus.q
        n = len(c)
        pads = self._pads.elements(self.modulus, 2 * n, dtype=np.uint32)
        p0 = pads[0::2]
        flip = p0 ^ pads[1::2]  # p0 ^ flip is p1
        # the masks -c, -c* and -delta: all ones where the bit is 1. Most
        # steps write in place: each more session-sized temporary can cost
        # page faults, where the heap hands the freed ones back to the system
        choose = c.astype(np.uint32)
        np.negative(choose, out=choose)
        cstar = np.frombuffer(self._bits.read(n), dtype=np.uint8).astype(np.uint32)
        cstar &= 1
        np.negative(cstar, out=cstar)
        delta = cstar ^ choose
        # the sender: e_i = m_i - p_{i ^ delta}, formed as m_i + q - p
        e0 = flip & delta
        e0 ^= p0
        e1 = e0 ^ flip
        for e, m in ((e0, m0), (e1, m1)):
            np.subtract(m, e, out=e)
            e += q
            reduce_once(e, q)
        # the receiver: e_c + p_c*, selected as e0 ^ ((e0 ^ e1) & -c)
        out = e0 ^ e1
        out &= choose
        out ^= e0
        cstar &= flip
        cstar ^= p0
        out += cstar
        return reduce_once(out, q)
