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
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..prg import Prg, Seed


class OtError(Exception):
    """OT sessions driven out of order or with mismatched shapes."""


class DealerAssistedOt:
    """Precomputed OT over one prime field, with an in-process dealer.

    ot_send_many(m0, m1) opens a session of len(m0) transfers on the sender
    side; the matching ot_receive_many(choices) completes it and returns
    m_choice per transfer.  Sessions complete strictly in FIFO order, and a
    rejected call leaves the pending session in place.  The contract: the
    receiver learns nothing about m_{1-choice}, the sender nothing about
    choice.  Deterministic given the seed and the sequence of session sizes.
    """

    def __init__(self, modulus, seed=None):
        self.modulus = modulus
        seed = Seed.random() if seed is None else seed
        self._pads = Prg(seed, tag=b"ot/pads")
        self._bits = Prg(seed, tag=b"ot/bits")
        self._pending = deque()

    def ot_send_many(self, m0, m1):
        m0 = np.asarray(m0, dtype=np.int64)
        m1 = np.asarray(m1, dtype=np.int64)
        if m0.shape != m1.shape or m0.ndim != 1:
            raise OtError("ot_send_many needs two equal-length vectors")
        q = self.modulus.q
        if m0.size and (min(m0.min(), m1.min()) < 0 or max(m0.max(), m1.max()) >= q):
            raise ValueError(f"OT messages must lie in [0, {q})")
        self._pending.append((m0, m1))

    def ot_receive_many(self, choices):
        if not self._pending:
            raise OtError("no pending ot_send_many")
        m0, m1 = self._pending[0]
        c = np.asarray(choices, dtype=np.int64)
        if c.shape != m0.shape:
            raise OtError("choice vector length mismatch")
        if ((c != 0) & (c != 1)).any():
            raise ValueError("choices must be 0 or 1")
        self._pending.popleft()
        q = self.modulus.q
        n = len(c)
        pp = self._pads.elements(self.modulus, 2 * n)
        p0, p1 = pp[0::2], pp[1::2]
        cstar = (np.frombuffer(self._bits.read(n), dtype=np.uint8) & 1).astype(bool)
        c = c == 1
        delta = c ^ cstar
        # every operand is reduced, so one conditional +q replaces each % q;
        # (x >> 63) & q is q exactly where the int64 x is negative
        e0 = m0 - np.where(delta, p1, p0)
        e0 += (e0 >> 63) & q
        e1 = m1 - np.where(delta, p0, p1)
        e1 += (e1 >> 63) & q
        pad = np.where(cstar, p1, p0)
        out = np.where(c, e1, e0)
        out += pad - q
        out += (out >> 63) & q
        return out
