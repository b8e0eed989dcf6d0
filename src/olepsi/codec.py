"""Little-endian field words of 2 to 64 bits: the one codec for PRG output,
tuple files, dealer messages and frames.

`count` words of `bits` bits take ceil(count * bits / 8) bytes: word i holds
bits [i * bits, (i + 1) * bits) of the little-endian bit string, and the
bits after the last word are zero. At widths that are whole bytes this is
plain byte words: 8, 16, 32 and 64 bits are numpy '<u{width}' views, and
24 and 40-56 bits are read as overlapping 4- or 8-byte words at a byte
stride with the surplus high bytes masked off. At other widths eight words
fill exactly `bits` bytes, and they are moved on uint64 lanes with shifts.
"""

import numpy as np

_GROUP_CHUNK = 1 << 13  # 8-word groups per pass of the shift kernels: 64 KiB of lanes


def packed_len(count, bits):
    """Bytes that `count` words of `bits` bits take."""
    return -(-count * bits // 8)


def _lane_moves(bits):
    """Per word of an 8-word group: (lane, shift, spills into the next lane)."""
    return [(i * bits >> 6, i * bits & 63, (i * bits & 63) + bits > 64) for i in range(8)]


def pack_words(vals, bits, out=None):
    """vals as `bits`-bit words: a flat byte buffer of packed_len(vals.size, bits)
    bytes. Written into `out` (a writable uint8 buffer of that length) when
    given; otherwise a fresh buffer, or one sharing memory with vals when
    bits is 8, 16, 32 or 64 and vals is C-contiguous in that dtype."""
    vals = np.asarray(vals).reshape(-1)
    nbytes = packed_len(vals.size, bits)
    if out is not None:
        out = np.frombuffer(out, dtype=np.uint8)
        if out.size != nbytes:
            raise ValueError(f"output holds {out.size} bytes, {nbytes} needed")
    if bits % 8 == 0:
        width = bits // 8
        native = 1 << (width - 1).bit_length()
        words = np.ascontiguousarray(vals, dtype=f"<u{native}")
        raw = words.view(np.uint8)
        if native != width:
            raw = raw.reshape(-1, native)[:, :width]
        if out is None:
            return memoryview(np.ascontiguousarray(raw).reshape(-1))
        out.reshape(raw.shape)[...] = raw
        return memoryview(out)

    if out is None:
        out = np.empty(nbytes, dtype=np.uint8)
    lanes = -(-bits // 8)  # uint64 lanes that cover one group's `bits` bytes
    mask = np.uint64((1 << bits) - 1)
    groups = -(-vals.size // 8)
    for g0 in range(0, groups, _GROUP_CHUNK):
        g1 = min(groups, g0 + _GROUP_CHUNK)
        part = vals[8 * g0 : 8 * g1]
        if part.size == 8 * (g1 - g0):
            src = part.astype(np.uint64).reshape(-1, 8)
        else:  # a short last group is padded with zero words
            src = np.zeros((g1 - g0, 8), dtype=np.uint64)
            src.reshape(-1)[: part.size] = part
        src &= mask
        acc = np.zeros((g1 - g0, lanes), dtype=np.uint64)
        for i, (lane, shift, spills) in enumerate(_lane_moves(bits)):
            acc[:, lane] |= src[:, i] << np.uint64(shift)
            if spills:
                acc[:, lane + 1] |= src[:, i] >> np.uint64(64 - shift)
        packed = acc.view(np.uint8)[:, :bits]
        lo = g0 * bits
        hi = min(nbytes, g1 * bits)
        if hi - lo == packed.size:
            out[lo:hi].reshape(packed.shape)[...] = packed
        else:  # the last group is cut short: its zero high bytes are dropped
            out[lo:hi] = packed.reshape(-1)[: hi - lo]
    return memoryview(out)


def unpack_words(buf, bits, count, dtype):
    """The first `count` `bits`-bit words of buf as a `dtype` array: a read-only
    view of buf when bits is 8, 16, 32 or 64 and dtype matches, else one copy.

    Below whole-byte widths the bits after the last word must be zero, or
    ValueError is raised."""
    if bits % 8 == 0:
        width = bits // 8
        native = 1 << (width - 1).bit_length()
        if native == width:
            return np.frombuffer(buf, dtype=f"<u{width}", count=count).astype(dtype, copy=False)
        # overlapping native-width reads at a `width`-byte stride, top bytes
        # masked off; the zero tail keeps the last read inside the buffer
        ext = np.zeros(count * width + native - width, dtype=np.uint8)
        ext[: count * width] = np.frombuffer(buf, np.uint8, count * width)
        words = np.ndarray((count,), dtype=f"<u{native}", buffer=ext, strides=(width,))
        return np.bitwise_and(words, (1 << 8 * width) - 1, dtype=dtype)

    nbytes = packed_len(count, bits)
    raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes)
    tail = count * bits % 8
    if tail and raw[-1] >> tail:
        raise ValueError("non-zero pad bits after the last word")
    out = np.empty(count, dtype=dtype)
    lanes = -(-bits // 8)
    mask = np.uint64((1 << bits) - 1)
    groups = -(-count // 8)
    for g0 in range(0, groups, _GROUP_CHUNK):
        g1 = min(groups, g0 + _GROUP_CHUNK)
        part = raw[g0 * bits : g1 * bits]
        if part.size < (g1 - g0) * bits:  # a short last group reads as zeros
            part = np.concatenate((part, np.zeros((g1 - g0) * bits - part.size, np.uint8)))
        # bytes past `bits` in a row only feed bits that the mask drops
        grid = np.empty((g1 - g0, 8 * lanes), dtype=np.uint8)
        grid[:, :bits] = part.reshape(-1, bits)
        acc = grid.view(np.uint64)
        whole = 8 * g1 <= count
        dst = out[8 * g0 : 8 * g1].reshape(-1, 8) if whole else np.empty((g1 - g0, 8), np.uint64)
        for i, (lane, shift, spills) in enumerate(_lane_moves(bits)):
            col = acc[:, lane] >> np.uint64(shift)
            if spills:
                col |= acc[:, lane + 1] << np.uint64(64 - shift)
            col &= mask
            dst[:, i] = col
        if not whole:
            out[8 * g0 :] = dst.reshape(-1)[: count - 8 * g0]
    return out
