"""Framing, channels, and communication accounting."""

import socket
import struct
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from olepsi.codec import packed_len
from olepsi.field import PrimeModulus
from olepsi.transport import (
    ALICE_C,
    BOB_D,
    SETUP,
    ChannelClosed,
    CommStats,
    Frame,
    OversizeFrame,
    PeerTimeout,
    TcpChannel,
    TcpListener,
    TransportError,
    UnexpectedType,
    UnknownType,
    bits_per_element_measured,
    memory_channel_pair,
    recv_elements,
    recv_frame,
    send_elements,
    send_frame,
    tcp_connect,
)

Q6151 = PrimeModulus(6151)


def _packed(vals, bits):
    """The bit-packed payload, built from one Python int."""
    word = sum(v << (i * bits) for i, v in enumerate(vals))
    return word.to_bytes(packed_len(len(vals), bits), "little")


def test_empty_payload_roundtrip(channel_pair):
    a, b = channel_pair()
    send_frame(a, Frame(SETUP, b""))
    got = recv_frame(b)
    assert got == Frame(SETUP, b"")


def test_framing_arithmetic_one_element(channel_pair):
    # one q=6151 element is 2 payload bytes: 4 len + 1 type + 2 = 7 wire bytes
    a, b = channel_pair()
    send_elements(a, ALICE_C, np.array([516]), Q6151)
    assert a.stats.bytes_sent == 7
    assert a.stats.elements_sent == 1
    assert a.stats.theoretical_bits_sent == 13  # ceil(log2 6151)
    vals = recv_elements(b, ALICE_C, Q6151, 1)
    assert vals.tolist() == [516]
    assert b.stats.bytes_received == 7
    assert b.stats.elements_received == 1
    assert b.stats.theoretical_bits_received == 13


def test_frame_sequence_self_delimiting(channel_pair):
    a, b = channel_pair()
    frames = [
        Frame(SETUP, b"hello"),
        Frame(ALICE_C, bytes(range(10))),
        Frame(BOB_D, b""),
        Frame(ALICE_C, b"\xff" * 257),
    ]
    for f in frames:
        send_frame(a, f)
    assert [recv_frame(b) for f in frames] == frames


def test_truncated_stream_raises_channel_closed(channel_pair):
    a, b = channel_pair(timeout=2.0)
    a.send_bytes(b"\x00\x00\x00\x05\x02ab")  # promises 5 payload bytes, sends 2
    a.close()
    with pytest.raises(ChannelClosed):
        recv_frame(b)


def test_peer_that_never_reads_times_out_instead_of_buffering(channel_pair):
    # an 8 MiB frame is larger than the socket buffers: with the peer not
    # reading, the send gives up after the timeout rather than queue it all
    a, _ = channel_pair(timeout=1.0)
    with pytest.raises(PeerTimeout):
        send_frame(a, Frame(ALICE_C, bytes(8 << 20)))


def test_slow_but_steady_reader_completes_a_large_frame():
    # the reader takes 256 KiB every 0.1 s, so the 8 MiB frame takes over
    # 3 s in all, far past the timeout; every wait for progress stays under it
    a, b = memory_channel_pair(timeout=0.5)
    got = []

    def reader():
        buf = bytearray()
        while len(buf) < 5 + (8 << 20):
            time.sleep(0.1)
            buf += b.recv_bytes(min(256 << 10, 5 + (8 << 20) - len(buf)))
        got.append(bytes(buf))

    t = threading.Thread(target=reader)
    t.start()
    try:
        payload = bytes(range(256)) * (1 << 15)
        send_frame(a, Frame(ALICE_C, payload))
    finally:
        t.join()
        a.close()
        b.close()
    assert got == [struct.pack(">IB", len(payload), ALICE_C) + payload]


def test_unknown_type_rejected_both_ways(channel_pair):
    a, b = channel_pair()
    with pytest.raises(UnknownType):
        send_frame(a, Frame(99, b""))
    a.send_bytes(b"\x00\x00\x00\x00\x63")
    with pytest.raises(UnknownType):
        recv_frame(b)


def test_oversize_frame_rejected(channel_pair):
    a, _ = channel_pair()

    class Huge(bytes):
        def __len__(self):
            return (1 << 31) + 1

    with pytest.raises(OversizeFrame):
        send_frame(a, Frame(SETUP, Huge()))


def test_element_frame_short_of_expected_count_fails_at_header(channel_pair):
    a, b = channel_pair(timeout=5.0)
    a.send_bytes(struct.pack(">IB", packed_len(2, Q6151.bit_len), ALICE_C))
    with pytest.raises(TransportError, match="whole"):
        recv_elements(b, ALICE_C, Q6151, 3)
    assert b.stats.bytes_received == 0


def test_element_frame_over_expected_count_fails_at_header(channel_pair):
    # the peer sends only an ALICE_C header declaring one element too many
    # (four 13-bit elements, 7 bytes, where three take 5): the error comes
    # from the header, before any wait for the payload
    a, b = channel_pair(timeout=5.0)
    a.send_bytes(struct.pack(">IB", packed_len(4, Q6151.bit_len), ALICE_C))
    with pytest.raises(OversizeFrame):
        recv_elements(b, ALICE_C, Q6151, 3)
    assert b.stats.bytes_received == 0


def test_unexpected_type_on_element_recv(channel_pair):
    a, b = channel_pair()
    send_elements(a, BOB_D, np.array([1, 2]), Q6151)
    with pytest.raises(UnexpectedType):
        recv_elements(b, ALICE_C, Q6151, 2)


def test_element_range_checked_on_recv(channel_pair):
    a, b = channel_pair()
    send_frame(a, Frame(ALICE_C, (6151).to_bytes(2, "little")))
    with pytest.raises(Exception):
        recv_elements(b, ALICE_C, Q6151, 1)


@pytest.mark.parametrize("q", [6151, 786449])
def test_element_at_or_above_q_raises_transport_error(q, channel_pair):
    m = PrimeModulus(q)
    for bad in (q, (1 << m.bit_len) - 1):
        a, b = channel_pair()
        send_frame(a, Frame(ALICE_C, _packed([1, bad, 0], m.bit_len)))
        with pytest.raises(TransportError):
            recv_elements(b, ALICE_C, m, 3)


@pytest.mark.parametrize(
    "q", [251, 65521, 16777213, 4294967291, 1099511627689, (1 << 62) - 57]
)
def test_element_codec_roundtrip_at_field_ends(q, channel_pair):
    # 8 to 62 bits: 0 and q-1 travel as little-endian bit_len-bit words
    m = PrimeModulus(q)
    vals = [0, q - 1, 1]
    a, b = channel_pair()
    send_elements(a, BOB_D, np.array(vals), m)
    send_elements(a, BOB_D, np.array(vals), m)
    frame = recv_frame(b)
    assert frame.payload == _packed(vals, m.bit_len)
    got = recv_elements(b, BOB_D, m, 3)
    assert [int(v) for v in got] == vals


def test_element_vector_roundtrip_and_dtype(channel_pair):
    a, b = channel_pair()
    rng = np.random.default_rng(1)
    vals = rng.integers(6151, size=1000)
    send_elements(a, BOB_D, vals, Q6151)
    got = recv_elements(b, BOB_D, Q6151, 1000)
    assert got.dtype == np.uint16
    assert (got == vals).all()
    assert a.stats.bytes_sent == 5 + 13000 // 8
    assert a.stats.theoretical_bits_sent == 13000


def test_stats_monotone_and_total():
    s = CommStats()
    s.add_sent(7, 1, 13)
    s.add_received(12, 2, 13)
    assert s.theoretical_bits_total == 39
    assert bits_per_element_measured(s, 3) == Fraction(39, 3)
    with pytest.raises(ValueError):
        bits_per_element_measured(s, 0)


def test_tcp_channel_roundtrip():
    listener = TcpListener("127.0.0.1", 0)
    got = {}

    def server():
        ch = listener.accept()
        got["frame"] = recv_frame(ch)
        send_frame(ch, Frame(BOB_D, b"pong"))
        ch.close()

    t = threading.Thread(target=server)
    t.start()
    ch = tcp_connect("127.0.0.1", listener.port)
    send_frame(ch, Frame(ALICE_C, b"ping"))
    reply = recv_frame(ch)
    t.join()
    listener.close()
    assert got["frame"] == Frame(ALICE_C, b"ping")
    assert reply == Frame(BOB_D, b"pong")
    assert ch.stats.bytes_sent == 9 and ch.stats.bytes_received == 9
    ch.close()


def test_tcp_peer_hangup_raises():
    listener = TcpListener("127.0.0.1", 0)

    def server():
        ch = listener.accept()
        ch.close()

    t = threading.Thread(target=server)
    t.start()
    ch = tcp_connect("127.0.0.1", listener.port)
    t.join()
    with pytest.raises(ChannelClosed):
        recv_frame(ch)
    listener.close()
    ch.close()


def test_byte_overhead_within_bound_for_default_sets(channel_pair):
    # bit packing leaves only the header and the last byte's pad: under 1%
    for n, k in ((1 << 10, 3), (1 << 20, 3)):
        from olepsi.params import derive_params

        p = derive_params(n, k)
        a, b = channel_pair()
        batch = np.arange(977) % p.modulus.q
        send_elements(a, ALICE_C, batch, p.modulus)
        wire_bits = 8 * a.stats.bytes_sent
        assert wire_bits <= 1.01 * a.stats.theoretical_bits_sent


def test_tcp_silent_peer_times_out():
    # the peer accepts and then never sends: the read gives up after the
    # channel's timeout instead of hanging
    listener = TcpListener("127.0.0.1", 0)
    done = threading.Event()

    def server():
        ch = listener.accept()
        done.wait(30)
        ch.close()

    t = threading.Thread(target=server)
    t.start()
    ch = TcpChannel(socket.create_connection(("127.0.0.1", listener.port)), timeout=0.5)
    try:
        with pytest.raises(PeerTimeout):
            recv_frame(ch)
    finally:
        done.set()
        t.join()
        listener.close()
        ch.close()
