"""Little-endian field words of 1 to 8 bytes: the byte codec for PRG output,
tuple files, dealer messages and frames. Widths 1, 2, 4 and 8 are numpy
'<u{width}' views; widths 3 and 5-7 are read as overlapping 4- or 8-byte
words at a `width`-byte stride with the surplus high bytes masked off."""

import numpy as np


def pack_words(vals, width):
    """vals as `width`-byte words in a flat byte memoryview. It shares
    memory with vals when vals is C-contiguous in the native word dtype."""
    native = 1 << (width - 1).bit_length()
    raw = np.ascontiguousarray(vals, dtype=f"<u{native}").reshape(-1).view(np.uint8)
    if native != width:
        raw = np.ascontiguousarray(raw.reshape(-1, native)[:, :width]).reshape(-1)
    return memoryview(raw)


def unpack_words(buf, width, count, dtype):
    """The first `count` `width`-byte words of buf as a `dtype` array: a
    read-only view of buf when width and dtype are native, else one copy."""
    native = 1 << (width - 1).bit_length()
    if native == width:
        return np.frombuffer(buf, dtype=f"<u{width}", count=count).astype(dtype, copy=False)
    # overlapping native-width reads at a `width`-byte stride, top bytes
    # masked off; the zero tail keeps the last read inside the buffer
    ext = np.zeros(count * width + native - width, dtype=np.uint8)
    ext[: count * width] = np.frombuffer(buf, np.uint8, count * width)
    words = np.ndarray((count,), dtype=f"<u{native}", buffer=ext, strides=(width,))
    return np.bitwise_and(words, (1 << 8 * width) - 1, dtype=dtype)
