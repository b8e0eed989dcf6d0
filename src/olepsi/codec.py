"""Little-endian field words of 1 to 8 bytes: the byte codec for PRG output,
tuple files, dealer messages and frames. Widths 1, 2, 4 and 8 are numpy
'<u{width}' views; widths 3 and 5-7 pass through a zero-padded (count, 4
or 8) byte buffer viewed at that native width."""

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
        words = np.frombuffer(buf, dtype=f"<u{width}", count=count)
    else:
        padded = np.zeros((count, native), dtype=np.uint8)
        padded[:, :width] = np.frombuffer(buf, np.uint8, count * width).reshape(count, width)
        words = padded.view(f"<u{native}").reshape(count)
    return words.astype(dtype, copy=False)
