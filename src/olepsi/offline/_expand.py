"""The chunked seed-to-array expansion that the seed, dealer and lbe-sim
backends share, and the chunk runner that the ot backend's Gilboa chunks
(offline.gilboa) run on too.

Every section is cut into chunks of _row_chunk(L) whole rows, and each chunk
is expanded from its own PRG streams, tagged role|section|chunk (chunk in
decimal): the bins and stash sections of one run never share a stream,
Alice-side and Bob-side material come from disjoint streams even when
expanded from the same seed, and any chunk expands without the ones before
it. Bob's r_B^-1 is drawn directly as a nonzero element: inversion is a
bijection of F_q^*, so this is the distribution of an inverted uniform r_B,
and nothing here inverts.

Where both halves are expanded, a backend's r_A step derives Alice's r_A
from them, chunk by chunk: by default Bob's reply kernel, lbe-sim's residue
pipeline in its place. The step gets one more stream of its own per chunk,
tagged rA|section|chunk from Bob's seed.

Since chunks are independent, the chunks of all sections of one call are
dealt out in turn to up to one process per CPU: the caller and forked
children, all writing into blocks on anonymous shared mappings.
The output does not depend on how many processes ran. Any backend whose
chunks draw only from streams of their own can run on the same runner
(_run_chunks) with its own chunk function, as Gilboa does.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

# mod_inv is not called here: the benchmark's tracer wraps it under this name
from ..modvec import bob_reply, dtype_for, mod_inv  # noqa: F401
from ..prg import Prg
from ..tuples import AliceInventory, BobInventory


class ExpansionError(Exception):
    """A forked expansion worker did not finish its chunks."""


def _row_chunk(slot_len):
    return max(1, (1 << 21) // max(slot_len, 1))


def _chunks(count, step):
    """(chunk index, first row, end row) of each chunk of `step` whole rows."""
    return [(c, lo, min(lo + step, count)) for c, lo in enumerate(range(0, count, step))]


def _stream(seed, role, domain, chunk):
    return Prg(seed, tag=b"%s|%s|%d" % (role, domain, chunk))


@dataclass(frozen=True)
class _Section:
    """One section to expand: Alice's (rows, 1 + L) block when seed_a is
    given, Bob's (rows, L, 2) block when seed_b is given, else None, and
    the r_A step that fills Alice's r_A columns when both are."""

    modulus: object
    domain: bytes
    rows: int
    slot_len: int
    seed_a: object
    seed_b: object
    alice: np.ndarray | None
    bob: np.ndarray | None
    r_a: object


def _reply_r_a(modulus, s_A, bob_rows, stream):
    """r_A = (s_A + s_B) * r_B_inv per slot: Bob's reply to c = s_A on
    encoding 0. Reads nothing from the chunk's stream."""
    zeros = np.broadcast_to(np.uint8(0), bob_rows.shape[:2])
    return bob_reply(s_A, zeros, bob_rows, modulus.q)


def _expand_chunk(sec, c, lo, hi):
    """Chunk c (rows lo..hi) of one section: Bob's r_B^-1 and s_B, Alice's
    s_A, and her r_A by the section's r_A step when both halves are
    expanded here."""
    dt = dtype_for(sec.modulus.q)
    shape = (hi - lo, sec.slot_len)
    if sec.bob is not None:
        r_B_inv = _stream(sec.seed_b, b"rBinv", sec.domain, c).nonzero_elements(
            sec.modulus, math.prod(shape), dtype=dt
        ).reshape(shape)
        s_B = _stream(sec.seed_b, b"sB", sec.domain, c).elements(
            sec.modulus, math.prod(shape), dtype=dt
        ).reshape(shape)
        sec.bob[lo:hi, :, 0] = r_B_inv
        sec.bob[lo:hi, :, 1] = s_B
    if sec.alice is not None:
        s_A = _stream(sec.seed_a, b"sA", sec.domain, c).elements(sec.modulus, hi - lo, dtype=dt)
        sec.alice[lo:hi, 0] = s_A
        if sec.bob is not None:
            stream = _stream(sec.seed_b, b"rA", sec.domain, c)
            sec.alice[lo:hi, 1:] = sec.r_a(sec.modulus, s_A, sec.bob[lo:hi], stream)


def _shared_blocks(shapes, dtype):
    """One ndarray per shape, each on an anonymous MAP_SHARED mapping of its
    own, so that writes from forked workers reach the caller and each block
    is freed with its last view."""
    return [
        np.frombuffer(
            mmap.mmap(-1, max(1, math.prod(shape) * np.dtype(dtype).itemsize)),
            dtype=dtype,
            count=math.prod(shape),
        ).reshape(shape)
        for shape in shapes
    ]


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


def expand_sections(modulus, layout, seed_a=None, seed_b=None, r_a=_reply_r_a):
    """Expand each (name, rows, L) section of `layout` (as params.sections
    gives it): Alice's s_A from seed_a, Bob's (r_B^-1, s_B) from seed_b, and
    r_A when both seeds are given, as r_a(modulus, s_A, bob_rows, stream)
    returns it per chunk: s_A the chunk's (rows,) column, bob_rows its
    (rows, L, 2) block, stream its rA|section|chunk Prg. Returns (Alice's
    inventories, Bob's), a list per side whose seed was given, else None;
    without seed_b, Alice's r_A columns are left for the caller to fill."""
    dt = dtype_for(modulus.q)
    shapes = []
    for _, rows, cols in layout:
        if seed_a is not None:
            shapes.append((rows, 1 + cols))
        if seed_b is not None:
            shapes.append((rows, cols, 2))
    blocks = iter(_shared_blocks(shapes, dt))
    secs = [
        _Section(
            modulus, name.encode(), rows, cols, seed_a, seed_b,
            next(blocks) if seed_a is not None else None,
            next(blocks) if seed_b is not None else None,
            r_a,
        )
        for name, rows, cols in layout
    ]
    work = [(sec, *c) for sec in secs for c in _chunks(sec.rows, _row_chunk(sec.slot_len))]
    _run_chunks(work, _expand_chunk)
    alice = [AliceInventory(modulus, s.alice) for s in secs] if seed_a is not None else None
    bob = [BobInventory(modulus, s.bob) for s in secs] if seed_b is not None else None
    return alice, bob
