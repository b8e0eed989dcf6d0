"""The bit-width word codec: exact layout, round trips and pad-bit checks."""

import numpy as np
import pytest

from olepsi import codec
from olepsi.codec import pack_words, packed_len, unpack_words


def _reference(vals, bits):
    """Word i at bits [i * bits, (i + 1) * bits) of one little-endian integer,
    built by halves so that long vectors stay fast."""

    def word(lo, hi):
        if hi - lo <= 16:
            return sum(int(v) << ((i - lo) * bits) for i, v in enumerate(vals[lo:hi], lo))
        mid = (lo + hi) // 2
        return word(lo, mid) | word(mid, hi) << ((mid - lo) * bits)

    return word(0, len(vals)).to_bytes(packed_len(len(vals), bits), "little")


@pytest.mark.parametrize("bits", range(2, 64))
def test_roundtrip_every_width_with_field_ends(bits):
    # counts around the kernel's G-word group and one word past a full pass,
    # so the second pass is a single word in a zero-padded group
    _, group, _ = codec._lanes(bits)
    one_pass = codec._PASS_WORDS // group * group
    top = (1 << bits) - 1
    rng = np.random.default_rng(bits)
    for count in (1, group - 1, group, group + 1, one_pass + 1):
        vals = rng.integers(0, top, size=count, dtype=np.uint64, endpoint=True)
        vals[0] = 0
        vals[-1] = top
        buf = bytes(pack_words(vals, bits))
        assert buf == _reference(vals.tolist(), bits)
        assert (unpack_words(buf, bits, count, np.uint64) == vals).all()


@pytest.mark.parametrize("bits", [13, 14, 33])
def test_roundtrip_across_kernel_chunks(bits):
    # more words than one pass of the shift kernels, and a ragged tail
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 1 << bits, size=200_003, dtype=np.uint64)
    buf = pack_words(vals, bits)
    assert len(buf) == packed_len(vals.size, bits)
    assert (unpack_words(buf, bits, vals.size, np.uint64) == vals).all()


def test_pack_into_preallocated_buffer():
    vals = np.array([516, 1, 6150], dtype=np.uint16)
    for bits in (13, 16):
        out = bytearray(1 + packed_len(3, bits))
        pack_words(vals, bits, out=memoryview(out)[1:])
        assert bytes(out[1:]) == bytes(pack_words(vals, bits))
        assert out[0] == 0
    with pytest.raises(ValueError):
        pack_words(vals, 13, out=bytearray(4))


def test_byte_widths_are_plain_words():
    vals = np.array([1, 0x0203, 0xFFFF], dtype=np.uint16)
    assert bytes(pack_words(vals, 16)) == b"\x01\x00\x03\x02\xff\xff"
    assert bytes(pack_words(vals, 24)) == b"\x01\x00\x00\x03\x02\x00\xff\xff\x00"


@pytest.mark.parametrize("bits", [2, 5, 13, 14, 33, 62])
def test_nonzero_pad_bits_rejected(bits):
    count = 3
    assert count * bits % 8, "needs a partial last byte"
    buf = bytearray(pack_words(np.zeros(count, np.uint64), bits))
    buf[-1] |= 0x80
    with pytest.raises(ValueError, match="pad"):
        unpack_words(bytes(buf), bits, count, np.uint64)


def test_empty_vector():
    assert len(pack_words(np.zeros(0, np.uint16), 13)) == 0
    assert unpack_words(b"", 13, 0, np.uint16).size == 0


@pytest.mark.parametrize("bits, dtype", [(8, np.uint8), (16, np.uint16), (24, np.uint32),
                                         (32, np.uint32), (64, np.uint64)])
def test_view_widths_share_memory(bits, dtype):
    # load_inventories maps a tuple file's blocks as views of the file and
    # release_rows drops their pages, so the view widths must not copy;
    # 24 bits goes through the lane kernels, which do
    views = bits in (8, 16, 32, 64)
    vals = np.arange(1000, dtype=dtype)
    buf = np.frombuffer(bytes(pack_words(vals, bits)), np.uint8)
    assert np.shares_memory(unpack_words(buf, bits, vals.size, dtype), buf) == views
    assert np.shares_memory(np.frombuffer(pack_words(vals, bits), np.uint8), vals) == views
