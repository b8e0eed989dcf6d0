"""Framed, bit-accounted message exchange between the parties.

Wire format: 4-byte big-endian payload length, 1 type byte, payload.
Field elements travel bit-packed at modulus.bit_len bits each
(little-endian bit order, the last byte zero-padded; see codec.py). An
element frame's length is fixed by the element count the protocol expects,
so a receiver checks the header before reading any payload. The
accounting layer tracks the theoretical bit cost (elements times
ceil(log2 q)) next to the bytes on the wire.

One channel implementation over a connected stream socket: TCP for real
two-process runs, and one end of a socketpair for tests and single-process
runs (memory_channel_pair). Reads, EOF, backpressure and the deadline are
the same code either way: a peer that neither sends nor takes data for
`timeout` seconds raises PeerTimeout.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import pack_words, packed_len, unpack_words
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


class PeerTimeout(ChannelClosed):
    """The peer sent nothing within the channel's timeout."""


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


PEER_TIMEOUT = 120.0  # seconds a read may wait for data, or one send to be taken
_CONNECT_ATTEMPTS = 40
_CONNECT_DELAY = 0.25  # seconds between connection attempts


class TcpChannel:
    """Byte stream with stats over one end of a connected stream socket."""

    def __init__(self, sock, timeout=PEER_TIMEOUT):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        self._sock = sock
        self._timeout = timeout
        self.stats = CommStats()

    def send_bytes(self, data):
        try:
            self._sock.sendall(data)
        except TimeoutError:
            raise PeerTimeout(f"peer did not take the data within {self._timeout} s") from None
        except OSError as e:
            raise ChannelClosed(str(e)) from None

    def recv_bytes(self, n):
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                k = self._sock.recv_into(view[got:])
            except TimeoutError:
                raise PeerTimeout(f"no data from peer for {self._timeout} s") from None
            except OSError as e:
                raise ChannelClosed(str(e)) from None
            if not k:
                raise ChannelClosed("stream ended mid-message")
            got += k
        return buf

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class InMemoryChannel(TcpChannel):
    """One end of an in-process socketpair (memory_channel_pair).

    A class of its own only so that code patching channel methods by class
    name, such as benchmark/tracing.py, can tell in-process runs apart."""


def memory_channel_pair(timeout=PEER_TIMEOUT):
    """Two connected endpoints: whatever one sends, the other receives."""
    a, b = socket.socketpair()
    return InMemoryChannel(a, timeout), InMemoryChannel(b, timeout)


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


def tcp_connect(host, port):
    """Connect with retries so either party may start first."""
    last = None
    for _ in range(_CONNECT_ATTEMPTS):
        try:
            return TcpChannel(socket.create_connection((host, port)))
        except OSError as e:
            last = e
            time.sleep(_CONNECT_DELAY)
    raise ChannelClosed(f"could not connect to {host}:{port}: {last}")


def _check_head(n, msg_type, limit):
    if msg_type not in FRAME_TYPES:
        raise UnknownType(f"frame type {msg_type}")
    if n > limit:
        raise OversizeFrame(f"{n} byte payload, limit {limit}")


def send_frame(channel, frame):
    """Write one frame."""
    _check_head(len(frame.payload), frame.msg_type, MAX_PAYLOAD)
    channel.send_bytes(_HEAD.pack(len(frame.payload), frame.msg_type) + frame.payload)
    channel.stats.add_sent(_HEAD.size + len(frame.payload))


def recv_frame(channel, *, max_payload=MAX_PAYLOAD):
    """Read one frame.

    A header declaring more than max_payload (capped at MAX_PAYLOAD) bytes
    raises OversizeFrame before any of the payload is read.
    """
    n, msg_type = _HEAD.unpack(channel.recv_bytes(_HEAD.size))
    _check_head(n, msg_type, min(max_payload, MAX_PAYLOAD))
    payload = channel.recv_bytes(n)
    channel.stats.add_received(_HEAD.size + n)
    return Frame(msg_type, payload)


def send_elements(channel, msg_type, values, modulus):
    """Bit-pack a vector of field elements into one frame and send it.

    The header and the packed payload share one buffer, so the frame goes
    out in one send_bytes call without a concatenating copy."""
    values = np.asarray(values)
    bits = modulus.bit_len
    n = packed_len(values.size, bits)
    _check_head(n, msg_type, MAX_PAYLOAD)
    buf = bytearray(_HEAD.size + n)
    _HEAD.pack_into(buf, 0, n, msg_type)
    pack_words(values, bits, out=memoryview(buf)[_HEAD.size :])
    channel.send_bytes(buf)
    channel.stats.add_sent(len(buf), values.size, bits)


def recv_elements(channel, expect_type, modulus, count):
    """Receive one frame of exactly `count` packed elements of the expected
    type. The header must declare exactly their packed length, which is
    checked before any payload is read, so a peer cannot make us wait for
    or allocate more than the protocol needs."""
    bits = modulus.bit_len
    need = packed_len(count, bits)
    n, msg_type = _HEAD.unpack(channel.recv_bytes(_HEAD.size))
    _check_head(n, msg_type, need)
    if msg_type != expect_type:
        raise UnexpectedType(f"wanted type {expect_type}, got {msg_type}")
    if n != need:
        raise TransportError(
            f"{n} byte payload is not {count} whole elements of {bits} bits ({need} bytes)"
        )
    payload = channel.recv_bytes(n)
    channel.stats.add_received(_HEAD.size + n, count, bits)
    try:
        vals = unpack_words(payload, bits, count, dtype_for(modulus.q))
    except ValueError as e:
        raise TransportError(str(e)) from None
    if count and int(vals.max()) >= modulus.q:
        raise TransportError("element out of field range")
    return vals


def bits_per_element_measured(stats, n):
    """Total theoretical bits over both directions, per input element."""
    if n <= 0:
        raise ValueError("n must be positive")
    return Fraction(stats.theoretical_bits_total, n)
