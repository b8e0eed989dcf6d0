"""Little-endian field words of 2 to 64 bits: the one codec for PRG output,
tuple files, dealer messages and frames.

`count` words of `bits` bits take ceil(count * bits / 8) bytes: word i holds
bits [i * bits, (i + 1) * bits) of the little-endian bit string, and the
bits after the last word are zero. There are two kernels per direction. At
8, 16, 32 and 64 bits the bytes are a numpy '<u{width}' view. At every
other width, 24 and 40-56 bits included, G words fill whole lanes of 16, 32
or 64 bits (_lanes). Each pass of the lane kernels (2^18 words) copies its
words once into a transposed (G, groups) buffer, shifts and ORs whole
contiguous rows into (lanes, groups) lanes, and writes those back with one
transposed copy into the output viewed as lane words; unpacking runs the
same steps backwards. So every shift, OR and mask is a contiguous numpy
pass of one dtype.
"""

import numpy as np

_PASS_WORDS = 1 << 18  # words per pass of the lane kernels


def packed_len(count, bits):
    """Bytes that `count` words of `bits` bits take."""
    return -(-count * bits // 8)


def _lanes(bits):
    """The lane kernels' layout at `bits` bits: (lane dtype, G, (moves, mask,
    group bytes, groups per pass)). Lanes are the narrowest of 16, 32 or 64
    bits that hold a word, and G is the smallest power of two >= 8 whose
    words fill whole lanes. moves[i] = (j, shift, back) places word i of a
    group in lane j at `shift` bits; when it spills, its high bits start
    lane j + 1 shifted right by `back` bits, else back is 0."""
    lane_bits = max(16, 1 << (bits - 1).bit_length())
    group = 8
    while group * bits % lane_bits:
        group *= 2
    moves = []
    for i in range(group):
        j, shift = divmod(i * bits, lane_bits)
        moves.append((j, shift, lane_bits - shift if shift + bits > lane_bits else 0))
    lane = np.dtype(f"<u{lane_bits // 8}")
    plan = (moves, lane.type((1 << bits) - 1), group * bits // 8, _PASS_WORDS // group)
    return lane, group, plan


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
    if bits in (8, 16, 32, 64):
        raw = np.ascontiguousarray(vals, dtype=f"<u{bits // 8}").view(np.uint8)
        if out is None:
            return memoryview(raw)
        out[:] = raw
        return memoryview(out)

    if out is None:
        out = np.empty(nbytes, dtype=np.uint8)
    lane, group, (moves, mask, group_bytes, step) = _lanes(bits)
    groups = -(-vals.size // group)
    step = max(1, min(groups, step))
    words = np.empty((group, step), lane)  # row i: word i of every group
    lanes = np.empty((group_bytes // lane.itemsize, step), lane)
    spare = np.empty(step, lane)
    for g0 in range(0, groups, step):
        g1 = min(groups, g0 + step)
        w, acc, t = words[:, : g1 - g0], lanes[:, : g1 - g0], spare[: g1 - g0]
        part = vals[group * g0 : group * g1]
        if part.size < w.size:  # a short last group is padded with zero words
            part = np.concatenate((part, np.zeros(w.size - part.size, part.dtype)))
        np.copyto(w, part.reshape(-1, group).T, casting="unsafe")
        w &= mask
        for i, (j, shift, back) in enumerate(moves):
            if shift == 0:  # word i starts lane j
                acc[j] = w[i]
            else:
                np.left_shift(w[i], shift, out=t)
                acc[j] |= t
            if back:  # and starts lane j + 1 with its high bits
                np.right_shift(w[i], back, out=acc[j + 1])
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

    The bits after the last word must be zero, or ValueError is raised."""
    if bits in (8, 16, 32, 64):
        return np.frombuffer(buf, dtype=f"<u{bits // 8}", count=count).astype(dtype, copy=False)

    nbytes = packed_len(count, bits)
    raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes)
    tail = count * bits % 8
    if tail and raw[-1] >> tail:
        raise ValueError("non-zero pad bits after the last word")
    out = np.empty(count, dtype=dtype)
    lane, group, (moves, mask, group_bytes, step) = _lanes(bits)
    nlanes = group_bytes // lane.itemsize
    groups = -(-count // group)
    step = max(1, min(groups, step))
    lanes = np.empty((nlanes, step), lane)  # row j: lane j of every group
    words = np.empty((group, step), lane)
    spare = np.empty(step, lane)
    for g0 in range(0, groups, step):
        g1 = min(groups, g0 + step)
        acc, w, t = lanes[:, : g1 - g0], words[:, : g1 - g0], spare[: g1 - g0]
        part = raw[g0 * group_bytes : g1 * group_bytes]
        if part.size < acc.size * lane.itemsize:  # a short last group reads as zeros
            part = np.concatenate((part, np.zeros(acc.size * lane.itemsize - part.size, np.uint8)))
        np.copyto(acc, part.view(lane).reshape(-1, nlanes).T)
        for i, (j, shift, back) in enumerate(moves):
            np.right_shift(acc[j], shift, out=w[i])
            if back:
                np.left_shift(acc[j + 1], back, out=t)
                w[i] |= t
        w &= mask
        dst = out[group * g0 : group * g1]
        if dst.size == w.size:
            np.copyto(dst.reshape(-1, group), w.T, casting="unsafe")
        else:  # the zero words that pad a short last group are dropped
            dst[...] = w.T.reshape(-1)[: dst.size]
    return out
