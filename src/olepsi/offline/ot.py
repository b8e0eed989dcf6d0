"""1-out-of-2 oblivious transfer on field elements.

Ships one test backend: dealer-assisted precomputed OT.  A local dealer
hands out random pad correlations (p0, p1) to the sender and (c*, p_c*)
to the receiver; the online step is pure one-time-pad derandomization:

    receiver announces  delta = choice XOR c*
    sender answers      e_i = m_i - p_{i XOR delta}
    receiver outputs    e_choice + p_c*  ( = m_choice )

The unchosen message stays masked by the pad the receiver never saw, so
the receiver-side transcript structurally cannot contain it; a test
asserts exactly that.  Real deployments would substitute an OT extension
behind the same interface.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..field import ModulusMismatch
from ..prg import Prg, Seed


class OtError(Exception):
    """OT sessions driven out of order or with mismatched shapes."""


class OtProvider(abc.ABC):
    """Paired-session OT over one prime field.

    ot_send(m0, m1) opens a session on the sender side; the matching
    ot_receive(choice) completes it and returns m_choice.  Sessions
    complete strictly in FIFO order.  The contract: the receiver learns
    nothing about m_{1-choice}, the sender nothing about choice.
    """

    @abc.abstractmethod
    def ot_send(self, m0, m1):
        raise NotImplementedError

    @abc.abstractmethod
    def ot_receive(self, choice):
        raise NotImplementedError

    def ot_send_many(self, m0, m1):
        for a, b in zip(m0, m1, strict=True):
            self.ot_send(self.modulus.element(int(a)), self.modulus.element(int(b)))

    def ot_receive_many(self, choices):
        return np.array(
            [self.ot_receive(int(c)).value for c in choices], dtype=np.int64
        )


@dataclass(frozen=True)
class ReceiverRecord:
    """Everything the receiver side of one session ever materializes."""

    delta: int
    e0: int
    e1: int
    cstar: int
    pad: int
    output: int


class DealerAssistedOt(OtProvider):
    """Precomputed OT with an in-process dealer.

    Deterministic given (seed, sequence of calls); the scalar and vector
    paths draw from the same pad streams but with different rejection
    batching, so a reproducible transcript also requires a fixed call
    pattern.
    """

    def __init__(self, modulus, seed=None, record=False):
        self.modulus = modulus
        seed = Seed.random() if seed is None else seed
        self._pads = Prg(seed, tag=b"ot/pads")
        self._bits = Prg(seed, tag=b"ot/bits")
        self._pending = deque()
        self.invocations = 0
        self.record = record
        self.receiver_records = []

    def _check(self, m):
        if m.modulus != self.modulus:
            raise ModulusMismatch("OT message from a different field")

    def ot_send(self, m0, m1):
        self._check(m0)
        self._check(m1)
        self._pending.append(("one", m0.value, m1.value))
        self.invocations += 1

    def ot_receive(self, choice):
        if choice not in (0, 1):
            raise ValueError("choice must be 0 or 1")
        if not self._pending or self._pending[0][0] != "one":
            raise OtError("no pending scalar ot_send")
        _, m0, m1 = self._pending.popleft()
        q = self.modulus.q
        p0 = self._pads.element(self.modulus)
        p1 = self._pads.element(self.modulus)
        cstar = self._bits.read(1)[0] & 1
        pad = p1 if cstar else p0
        delta = choice ^ cstar
        e0 = (m0 - (p1 if delta else p0)) % q
        e1 = (m1 - (p0 if delta else p1)) % q
        out = ((e1 if choice else e0) + pad) % q
        if self.record:
            self.receiver_records.append(
                ReceiverRecord(delta=delta, e0=e0, e1=e1, cstar=cstar, pad=pad, output=out)
            )
        return self.modulus.element(out)

    def ot_send_many(self, m0, m1):
        m0 = np.asarray(m0, dtype=np.int64)
        m1 = np.asarray(m1, dtype=np.int64)
        if m0.shape != m1.shape or m0.ndim != 1:
            raise OtError("ot_send_many needs two equal-length vectors")
        self._pending.append(("many", m0, m1))
        self.invocations += len(m0)

    def ot_receive_many(self, choices):
        if not self._pending or self._pending[0][0] != "many":
            raise OtError("no pending vector ot_send_many")
        _, m0, m1 = self._pending.popleft()
        c = np.asarray(choices, dtype=np.int64)
        if c.shape != m0.shape:
            raise OtError("choice vector length mismatch")
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
        if self.record:
            for i in range(n):
                self.receiver_records.append(
                    ReceiverRecord(
                        delta=int(delta[i]),
                        e0=int(e0[i]),
                        e1=int(e1[i]),
                        cstar=int(cstar[i]),
                        pad=int(pad[i]),
                        output=int(out[i]),
                    )
                )
        return out
