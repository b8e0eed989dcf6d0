"""Framed, bit-accounted message exchange between the parties.

Wire format: 4-byte big-endian payload length, 1 type byte, payload.
Field elements travel packed at byte granularity (little-endian,
modulus.byte_len each); the accounting layer tracks the theoretical
bit cost (elements times ceil(log2 q)) separately so communication
tables stay reproducible regardless of byte rounding.

Two channel backends: a queue-based in-memory pair for tests and
single-process runs, and TCP sockets for real two-process runs.
"""

from __future__ import annotations

import queue
import socket
import struct
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import pack_words, unpack_words
from .modvec import dtype_for

SETUP = 1
ALICE_C = 2
BOB_D = 3
DEALER_A = 4
DEALER_B = 5
MISMATCH_OT = 6
MISMATCH_F = 7

FRAME_TYPES = frozenset((SETUP, ALICE_C, BOB_D, DEALER_A, DEALER_B, MISMATCH_OT, MISMATCH_F))

MAX_PAYLOAD = 1 << 31

_HEAD = struct.Struct(">IB")


class TransportError(Exception):
    pass


class ChannelClosed(TransportError):
    """Peer hung up or the stream ended mid-frame."""


class OversizeFrame(TransportError):
    pass


class UnknownType(TransportError):
    pass


class UnexpectedType(TransportError):
    """A well-formed frame arrived, but not the kind the protocol expects."""


@dataclass(frozen=True)
class Frame:
    msg_type: int
    payload: bytes


@dataclass
class CommStats:
    """Byte and field-element counters for one channel, per direction."""

    bytes_sent: int = 0
    bytes_received: int = 0
    elements_sent: int = 0
    elements_received: int = 0
    theoretical_bits_sent: int = 0
    theoretical_bits_received: int = 0

    def add_sent(self, nbytes, elements=0, bit_len=0):
        self.bytes_sent += nbytes
        self.elements_sent += elements
        self.theoretical_bits_sent += elements * bit_len

    def add_received(self, nbytes, elements=0, bit_len=0):
        self.bytes_received += nbytes
        self.elements_received += elements
        self.theoretical_bits_received += elements * bit_len

    @property
    def theoretical_bits_total(self):
        return self.theoretical_bits_sent + self.theoretical_bits_received

    def summary(self):
        return (
            f"sent: {self.bytes_sent} B ({self.elements_sent} elements, "
            f"{self.theoretical_bits_sent} theoretical bits)\n"
            f"received: {self.bytes_received} B ({self.elements_received} elements, "
            f"{self.theoretical_bits_received} theoretical bits)"
        )


class Channel:
    """Byte stream with stats; subclasses provide the actual transport."""

    stats: CommStats

    def send_bytes(self, data):
        raise NotImplementedError

    def recv_bytes(self, n):
        raise NotImplementedError

    def close(self):
        raise NotImplementedError


class InMemoryChannel(Channel):
    """One endpoint of a paired queue transport; safe for two threads."""

    def __init__(self, out_q, in_q, timeout=120.0):
        self._out = out_q
        self._in = in_q
        self._buf = bytearray()
        self._eof = False
        self._timeout = timeout
        self.stats = CommStats()

    def send_bytes(self, data):
        self._out.put(bytes(data))

    def recv_bytes(self, n):
        while len(self._buf) < n:
            if self._eof:
                raise ChannelClosed("stream ended mid-message")
            try:
                chunk = self._in.get(timeout=self._timeout)
            except queue.Empty:
                raise ChannelClosed("timed out waiting for peer") from None
            if chunk is None:
                self._eof = True
                continue
            self._buf += chunk
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def close(self):
        self._out.put(None)


def memory_channel_pair(timeout=120.0):
    """Two connected endpoints: whatever one sends, the other receives."""
    q1, q2 = queue.Queue(), queue.Queue()
    return InMemoryChannel(q1, q2, timeout), InMemoryChannel(q2, q1, timeout)


class TcpChannel(Channel):
    def __init__(self, sock):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.stats = CommStats()

    def send_bytes(self, data):
        try:
            self._sock.sendall(data)
        except OSError as e:
            raise ChannelClosed(str(e)) from None

    def recv_bytes(self, n):
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(min(n - len(buf), 1 << 20))
            except OSError as e:
                raise ChannelClosed(str(e)) from None
            if not chunk:
                raise ChannelClosed("stream ended mid-message")
            buf += chunk
        return bytes(buf)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpListener:
    """Bound listening socket; port 0 picks an ephemeral port."""

    def __init__(self, host, port):
        self._srv = socket.create_server((host, port))
        self.port = self._srv.getsockname()[1]

    def accept(self):
        conn, _ = self._srv.accept()
        return TcpChannel(conn)

    def close(self):
        self._srv.close()


def tcp_connect(host, port, attempts=40, delay=0.25):
    """Connect with retries so either party may start first."""
    last = None
    for _ in range(attempts):
        try:
            return TcpChannel(socket.create_connection((host, port)))
        except OSError as e:
            last = e
            time.sleep(delay)
    raise ChannelClosed(f"could not connect to {host}:{port}: {last}")


def send_frame(channel, frame, *, elements=0, bit_len=0):
    """Write one frame; the element counters feed the bit accounting."""
    if frame.msg_type not in FRAME_TYPES:
        raise UnknownType(f"frame type {frame.msg_type}")
    n = len(frame.payload)
    if n > MAX_PAYLOAD:
        raise OversizeFrame(f"{n} byte payload")
    channel.send_bytes(_HEAD.pack(n, frame.msg_type) + frame.payload)
    channel.stats.add_sent(_HEAD.size + n, elements, bit_len)


def recv_frame(channel, *, elements_of=None, max_payload=MAX_PAYLOAD):
    """Read one frame.  elements_of: modulus used to count received elements.

    A header declaring more than max_payload (capped at MAX_PAYLOAD) bytes
    raises OversizeFrame before any of the payload is read.
    """
    head = channel.recv_bytes(_HEAD.size)
    n, msg_type = _HEAD.unpack(head)
    if msg_type not in FRAME_TYPES:
        raise UnknownType(f"frame type {msg_type}")
    limit = min(max_payload, MAX_PAYLOAD)
    if n > limit:
        raise OversizeFrame(f"{n} byte payload, limit {limit}")
    payload = channel.recv_bytes(n)
    elements = bit_len = 0
    if elements_of is not None and n:
        elements = n // elements_of.byte_len
        bit_len = elements_of.bit_len
    channel.stats.add_received(_HEAD.size + n, elements, bit_len)
    return Frame(msg_type, payload)


def send_elements(channel, msg_type, values, modulus):
    """Pack a vector of field elements into one frame and send it."""
    values = np.asarray(values)
    payload = pack_words(values, modulus.byte_len)
    send_frame(
        channel,
        Frame(msg_type, payload),
        elements=values.size,
        bit_len=modulus.bit_len,
    )


def recv_elements(channel, expect_type, modulus, max_count):
    """Receive one frame of at most max_count packed elements; enforces the
    frame type.  The count is checked against the frame header, so a peer
    cannot make us read or allocate more than the protocol needs."""
    frame = recv_frame(channel, elements_of=modulus, max_payload=max_count * modulus.byte_len)
    if frame.msg_type != expect_type:
        raise UnexpectedType(f"wanted type {expect_type}, got {frame.msg_type}")
    if len(frame.payload) % modulus.byte_len:
        raise TransportError("payload is not a whole number of elements")
    count = len(frame.payload) // modulus.byte_len
    vals = unpack_words(frame.payload, modulus.byte_len, count, dtype_for(modulus.q))
    if count and int(vals.max()) >= modulus.q:
        raise TransportError("element out of field range")
    return vals


def bits_per_element_measured(stats, n):
    """Total theoretical bits over both directions, per input element."""
    if n <= 0:
        raise ValueError("n must be positive")
    return Fraction(stats.theoretical_bits_total, n)
