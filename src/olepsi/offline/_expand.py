"""The one section filler of the offline phase, the chunked seed-to-array
expansion that the seed, dealer and lbe-sim backends share, and the forked
chunk runner under both.

_fill_sections allocates each section's blocks, cuts the section into
chunks of whole rows and runs a backend's chunk function on every chunk:
the expansion's (_expand_chunk, _row_chunk rows) here, Gilboa's
(offline.gilboa) for the ot backend. It does not know which backend it
serves. A chunk function cuts its chunk once more, into tiles of at most
_TILE slots (params.tiles: whole rows while a row fits, else pieces of one
row), and writes each tile straight into the blocks, so a process holds its
blocks plus a working set that does not grow with the chunk or a row.

The expansion draws each chunk from its own PRG streams, tagged
role|section|chunk (chunk in decimal): the bins and stash sections of one
run never share a stream, Alice-side and Bob-side material come from
disjoint streams even when expanded from the same seed, and any chunk
expands without the ones before it. Bob's r_B^-1 is drawn directly as a
nonzero element: inversion is a bijection of F_q^*, so this is the
distribution of an inverted uniform r_B, and nothing here inverts.

Where Alice's half is expanded too, a backend's r_A step derives her r_A
from both halves, tile by tile: by default Bob's reply kernel, lbe-sim's
residue pipeline in its place. The step gets one more stream of its own per
chunk, tagged rA|section|chunk from Bob's seed, and reads it in tile order.
Each stream is read in tiles in row-major order, which gives the elements
one sample of the whole chunk would (prg), so the tile size moves no byte.

Since chunks are independent, the chunks of all sections of one call are
dealt out in turn to up to one process per CPU: the caller and forked
children, all writing into blocks on anonymous shared mappings. The output
does not depend on how many processes ran, as long as each chunk draws only
from streams of its own.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from functools import partial

import numpy as np

# mod_inv is not called here: the benchmark's tracer wraps it under this name
from ..modvec import bob_reply, dtype_for, mod_inv  # noqa: F401
from ..params import tiles
from ..prg import Prg
from ..tuples import AliceInventory, BobInventory


class ExpansionError(Exception):
    """A forked expansion worker did not finish its chunks."""


_TILE = 1 << 16  # slots per pass of the expansion; Gilboa's transfers per pass


def _row_chunk(slot_len):
    return max(1, (1 << 21) // max(slot_len, 1))


def _chunks(count, step):
    """(chunk index, first row, end row) of each chunk of `step` whole rows."""
    return [(c, lo, min(lo + step, count)) for c, lo in enumerate(range(0, count, step))]


def _stream(seed, role, domain, chunk):
    return Prg(seed, tag=b"%s|%s|%d" % (role, domain, chunk))


def _reply_r_a(modulus, s_A, bob_rows, stream):
    """r_A = (s_A + s_B) * r_B_inv per slot: Bob's reply to c = s_A on
    encoding 0. Reads nothing from the chunk's stream."""
    zeros = np.broadcast_to(np.uint8(0), bob_rows.shape[:2])
    return bob_reply(s_A, zeros, bob_rows, modulus.q)


def _sample_into(dest, stream, modulus, nonzero=False):
    """Fill the array view dest with the next dest.size elements of F_q
    (F_q minus 0 when nonzero) from stream, in row-major order."""
    sample = stream.nonzero_elements if nonzero else stream.elements
    dest[...] = sample(modulus, dest.size, dtype=dest.dtype).reshape(dest.shape)


def _expand_chunk(modulus, seed_a, seed_b, r_a, domain, slot_len, alice, bob, c, lo, hi):
    """Chunk c (rows lo..hi) of one section: Bob's r_B^-1 and s_B from
    seed_b and, when Alice's block is given, her s_A from seed_a (first,
    for the whole chunk) and her r_A by the r_A step. Every pass covers one
    tile of at most _TILE slots (params.tiles) and writes straight into the
    blocks, so nothing here grows with the chunk or a row."""
    bob = bob[lo:hi]
    r_B_inv = _stream(seed_b, b"rBinv", domain, c)
    s_B = _stream(seed_b, b"sB", domain, c)
    if alice is not None:
        alice = alice[lo:hi]
        s_A = _stream(seed_a, b"sA", domain, c)
        for rows, _ in tiles(hi - lo, 1, _TILE):
            _sample_into(alice[rows, 0], s_A, modulus)
        stream = _stream(seed_b, b"rA", domain, c)
    for rows, cols in tiles(hi - lo, slot_len, _TILE):
        tile = bob[rows, cols]
        _sample_into(tile[:, :, 0], r_B_inv, modulus, nonzero=True)
        _sample_into(tile[:, :, 1], s_B, modulus)
        if alice is not None:
            r_A = r_a(modulus, alice[rows, 0], tile, stream)
            alice[rows, 1 + cols.start : 1 + cols.stop] = r_A


def _shared_block(shape, dtype):
    """An ndarray on an anonymous MAP_SHARED mapping of its own, so that
    writes from forked workers reach the caller and the block is freed with
    its last view."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _worker_count(jobs):
    """Processes to expand `jobs` chunks with: one per CPU this process may
    run on, but only the caller while another thread is alive, since a
    forked child holds just the forking thread and any lock another thread
    held at the fork stays held in it. Where the platform cannot tell which
    CPUs are usable (no sched_getaffinity, as on macOS and Windows), also
    only the caller."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(jobs, len(os.sched_getaffinity(0))))


def _run_chunks(work, chunk):
    """Call chunk(*item) on every item of `work`: with P workers, worker w
    takes items w, w + P, ...; worker 0 is this process and the others are
    forked children, so `chunk` returns nothing and writes its output into
    shared blocks. Returns once every child has been reaped; a child that
    fails raises ExpansionError, and a failure here kills the children
    before it propagates."""
    procs = _worker_count(len(work))
    children = []
    try:
        for w in range(1, procs):
            pid = os.fork()
            if pid == 0:
                _child(work[w::procs], chunk)
            children.append(pid)
        for item in work[::procs]:
            chunk(*item)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    failed = [code for code in codes if code != 0]
    if failed:
        raise ExpansionError(f"{len(failed)} of {procs - 1} expansion workers failed: {failed}")


def _child(items, chunk):
    """A forked worker: run `chunk` on `items`, then leave by os._exit, so that
    none of the parent's atexit handlers, finalizers or stdio buffers run here."""
    status = 1
    try:
        for item in items:
            chunk(*item)
        status = 0
    except BaseException:
        import traceback  # only a failing worker needs it

        os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(status)


def _fill_sections(modulus, layout, rows_per_chunk, chunk, alice=True):
    """Fill each (name, rows, L) section of `layout` (as params.sections
    gives it): Bob's (rows, L, 2) block, and Alice's (rows, 1 + L) block when
    `alice` is true, each on a shared mapping of its own. Every section is
    cut into chunks of rows_per_chunk(L) rows, and
    chunk(domain, L, alice_block_or_None, bob_block, c, lo, hi) fills chunk c
    (rows lo..hi) on the chunk runner. Returns (Alice's inventories or None,
    Bob's), one per section."""
    dt = dtype_for(modulus.q)
    alices = [_shared_block((rows, 1 + L), dt) if alice else None for _, rows, L in layout]
    bobs = [_shared_block((rows, L, 2), dt) for _, rows, L in layout]
    work = [
        (name.encode(), L, a, b, *c)
        for (name, rows, L), a, b in zip(layout, alices, bobs)
        for c in _chunks(rows, rows_per_chunk(L))
    ]
    _run_chunks(work, chunk)
    return (
        [AliceInventory(modulus, a) for a in alices] if alice else None,
        [BobInventory(modulus, b) for b in bobs],
    )


def expand_sections(modulus, layout, seed_a, seed_b, r_a=_reply_r_a):
    """Expand each (name, rows, L) section of `layout`: Bob's (r_B^-1, s_B)
    from seed_b and, unless seed_a is None, Alice's s_A from seed_a and her
    r_A as r_a(modulus, s_A, bob_rows, stream) returns it per tile: s_A the
    tile's (rows,) column, bob_rows its (rows, cols, 2) block, stream its
    chunk's rA|section|chunk Prg. Returns (Alice's inventories or None,
    Bob's)."""
    chunk = partial(_expand_chunk, modulus, seed_a, seed_b, r_a)
    return _fill_sections(modulus, layout, _row_chunk, chunk, alice=seed_a is not None)


def gen_seeded(shared_seed, count, modulus, slot_len, *, domain=b"bins"):
    """Expand `count` batches of `slot_len` tuples over F_q from one seed:
    the shared-seed (trusted-execution) backend on one section.

    Returns (AliceInventory, BobInventory), both deterministic functions
    of the seed: running twice yields bit-identical arrays.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    layout = [(domain.decode(), count, slot_len)]
    (alice,), (bob,) = expand_sections(modulus, layout, seed_a=shared_seed, seed_b=shared_seed)
    return alice, bob
