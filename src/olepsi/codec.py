"""Little-endian field words of 2 to 64 bits: the one codec for PRG output,
tuple files, dealer messages and frames.

`count` words of `bits` bits take ceil(count * bits / 8) bytes: word i holds
bits [i * bits, (i + 1) * bits) of the little-endian bit string, and the
bits after the last word are zero. At widths that are whole bytes this is
plain byte words: 8, 16, 32 and 64 bits are numpy '<u{width}' views, and
24 and 40-56 bits are read as overlapping 4- or 8-byte words at a byte
stride with the surplus high bytes masked off. At other widths G words
fill whole lanes of 16, 32 or 64 bits (_lanes). Each pass of the lane
kernels (2^18 words) copies its words once into a transposed (G, groups) buffer, shifts
and ORs whole contiguous rows into (lanes, groups) lanes, and writes those
back with one transposed copy into the output viewed as lane words; unpacking
runs the same steps backwards. So every shift, OR and mask is a contiguous
numpy pass of one dtype.
"""

import numpy as np

_PASS_WORDS = 1 << 18  # words per pass of the lane kernels
_COPY_BYTES = 1 << 17  # source bytes per block of a transposing copy


def packed_len(count, bits):
    """Bytes that `count` words of `bits` bits take."""
    return -(-count * bits // 8)


def _lanes(bits):
    """The lane kernels' layout for a width that is not whole bytes: (lane
    dtype, G, per word of a G-word group (lane, shift, spills into the next
    lane)). Lanes are the narrowest of 16, 32 or 64 bits that hold a word,
    and G is the smallest power of two >= 8 whose words fill whole lanes."""
    lane_bits = max(16, 1 << (bits - 1).bit_length())
    group = 8
    while group * bits % lane_bits:
        group *= 2
    moves = [
        (i * bits // lane_bits, i * bits % lane_bits, i * bits % lane_bits + bits > lane_bits)
        for i in range(group)
    ]
    return np.dtype(f"<u{lane_bits // 8}"), group, moves


def _transpose_into(dst, src):
    """dst[...] = src.T for a 2-D src, in blocks of _COPY_BYTES of src rows,
    so each block is transposed while it is in cache. One whole-array copy
    sweeps all of src once per row of dst, and at wide rows (64 words of 8
    bytes) fetches src's lines from memory again on each sweep."""
    step = max(1, _COPY_BYTES // (src.shape[1] * src.itemsize))
    for lo in range(0, src.shape[0], step):
        np.copyto(dst[:, lo : lo + step], src[lo : lo + step].T, casting="unsafe")


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
    lane, group, moves = _lanes(bits)
    lane_bits = 8 * lane.itemsize
    mask = lane.type((1 << bits) - 1)
    group_bytes = group * bits // 8
    groups = -(-vals.size // group)
    step = max(1, min(groups, _PASS_WORDS // group))  # groups per pass
    words = np.empty((group, step), lane)  # row i: word i of every group
    lanes = np.empty((group_bytes // lane.itemsize, step), lane)
    spare = np.empty(step, lane)
    for g0 in range(0, groups, step):
        g1 = min(groups, g0 + step)
        w, acc, t = words[:, : g1 - g0], lanes[:, : g1 - g0], spare[: g1 - g0]
        part = vals[group * g0 : group * g1]
        if part.size < w.size:  # a short last group is padded with zero words
            part = np.concatenate((part, np.zeros(w.size - part.size, part.dtype)))
        _transpose_into(w, part.reshape(-1, group))
        w &= mask
        for i, (j, shift, spills) in enumerate(moves):
            if shift == 0:  # word i starts lane j
                acc[j] = w[i]
            else:
                np.left_shift(w[i], shift, out=t)
                acc[j] |= t
            if spills:  # and starts lane j + 1 with its high bits
                np.right_shift(w[i], lane_bits - shift, out=acc[j + 1])
        lo = g0 * group_bytes
        hi = min(nbytes, g1 * group_bytes)
        if hi - lo == acc.size * lane.itemsize:
            np.copyto(out[lo:hi].view(lane).reshape(-1, acc.shape[0]), acc.T)
        else:  # the last group is cut short: its zero high bytes are dropped
            out[lo:hi] = np.ascontiguousarray(acc.T).view(np.uint8).reshape(-1)[: hi - lo]
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
    lane, group, moves = _lanes(bits)
    lane_bits = 8 * lane.itemsize
    mask = lane.type((1 << bits) - 1)
    group_bytes = group * bits // 8
    nlanes = group_bytes // lane.itemsize
    groups = -(-count // group)
    step = max(1, min(groups, _PASS_WORDS // group))  # groups per pass
    lanes = np.empty((nlanes, step), lane)  # row j: lane j of every group
    words = np.empty((group, step), lane)
    spare = np.empty(step, lane)
    for g0 in range(0, groups, step):
        g1 = min(groups, g0 + step)
        acc, w, t = lanes[:, : g1 - g0], words[:, : g1 - g0], spare[: g1 - g0]
        part = raw[g0 * group_bytes : g1 * group_bytes]
        if part.size < acc.size * lane.itemsize:  # a short last group reads as zeros
            part = np.concatenate((part, np.zeros(acc.size * lane.itemsize - part.size, np.uint8)))
        _transpose_into(acc, part.view(lane).reshape(-1, nlanes))
        for i, (j, shift, spills) in enumerate(moves):
            np.right_shift(acc[j], shift, out=w[i])
            if spills:
                np.left_shift(acc[j + 1], lane_bits - shift, out=t)
                w[i] |= t
        w &= mask
        dst = out[group * g0 : group * g1]
        if dst.size == w.size:
            np.copyto(dst.reshape(-1, group), w.T, casting="unsafe")
        else:  # the zero words that pad a short last group are dropped
            dst[...] = w.T.reshape(-1)[: dst.size]
    return out
