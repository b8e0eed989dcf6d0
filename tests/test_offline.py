"""Offline backends: seeded, dealer, OT/Gilboa, LBE simulation."""

import hashlib
import itertools
import math
import mmap
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from olepsi import modvec
from olepsi import prg as prg_mod
from olepsi import tuples as tuples_mod
from olepsi.field import FieldError, PrimeModulus
from olepsi.modvec import dtype_for
from olepsi.offline import (
    BACKENDS,
    DealerAssistedOt,
    ExpansionError,
    OtError,
    dealer_seeds,
    expand_bob,
    gen_seeded,
    generate_psi_inventories,
    lbe_params_for,
    subseed,
)
from olepsi.offline import _expand as expand_mod
from olepsi.offline import gilboa as gilboa_mod
from olepsi.offline import lbe as lbe_mod
from olepsi.offline import ot as ot_mod
from olepsi.offline.lbe import LbeSimParams, lbe_digits, lbe_r_a
from olepsi.params import PARAM_TABLE, derive_params, sections, tiles
from olepsi.prg import SEED_LEN, Prg, Seed
from olepsi.tuples import inventory_token, load_inventories, save_inventories

from blocks import alice_inventory, bob_inventory, dealer_reply, gilboa_inventories
from oracles import (
    RecordingOt,
    alice_words,
    bob_words,
    consecutive_prime_ladder,
    gilboa_share,
    lbe_reconstruct,
    reference_elements,
    reference_section,
    reference_section_bytes,
    reference_token,
    residue_loop_reconstruct,
    validate_inventories,
)

M11 = PrimeModulus(11)


def params_small():
    # alpha=615, beta=15, q=263, stash=3, n=256
    return derive_params(1 << 8, 2, sigma=16)


def params_q6151():
    return derive_params(1 << 21, 3)


# ---------------------------------------------------------------- seeded

def test_gen_seeded_deterministic():
    p = params_small()
    a1, b1 = gen_seeded(Seed(bytes(32)), 7, p.modulus, p.beta)
    a2, b2 = gen_seeded(Seed(bytes(32)), 7, p.modulus, p.beta)
    assert (a1.s_A == a2.s_A).all() and (a1.r_A == a2.r_A).all()
    assert (b1.r_B_inv == b2.r_B_inv).all() and (b1.s_B == b2.s_B).all()


def test_gen_seeded_validates():
    p = params_small()
    a, b = gen_seeded(Seed.random(), 9, p.modulus, p.beta)
    assert validate_inventories(a, b)
    first_a = alice_inventory(p.modulus, a.s_A[:1], a.r_A[:1])
    first_b = bob_inventory(p.modulus, b.r_B_inv[:1], b.s_B[:1])
    assert validate_inventories(first_a, first_b)
    assert len(a) == 9 and a.slot_len == p.beta


def test_gen_seeded_golden_vector():
    # frozen: all-zero seed, q=6151 parameter row, one batch; every value
    # is also re-derived by the scalar reference
    p = params_q6151()
    assert p.modulus.q == 6151 and p.beta == 26
    a, b = gen_seeded(Seed(bytes(32)), 1, p.modulus, p.beta)
    assert a.s_A.tolist() == [4007]
    assert a.r_A[0].tolist() == [
        901, 1112, 1132, 5398, 2005, 2349, 1936, 5664, 3132, 4825, 3579,
        4595, 4905, 690, 4409, 2231, 3877, 1302, 3599, 1008, 3827, 3759,
        5386, 1221, 171, 4967,
    ]
    assert b.r_B_inv[0].tolist() == [
        1052, 3907, 5426, 5105, 2772, 3409, 3400, 718, 1286, 452, 282,
        3300, 2113, 1066, 4825, 2358, 656, 3129, 1318, 3065, 611, 4109,
        2763, 1385, 514, 3999,
    ]
    assert b.s_B[0].tolist() == [
        5425, 1376, 505, 4985, 2715, 279, 2984, 1141, 4978, 5271, 2353,
        5603, 4807, 529, 3472, 5450, 3472, 3548, 966, 2048, 3761, 2103,
        621, 1985, 3712, 2922,
    ]
    ref = reference_section(Seed(bytes(32)), Seed(bytes(32)), 6151, 1, p.beta, b"bins")
    assert ref == (a.s_A.tolist(), a.r_A.tolist(), b.r_B_inv.tolist(), b.s_B.tolist())
    assert validate_inventories(a, b)


def test_gen_seeded_chunks_expand_independently(monkeypatch):
    # chunks of 2 rows: 5 rows take three chunks, each from its own streams,
    # and a section that ends inside chunk 1 agrees with the longer one there
    monkeypatch.setattr(expand_mod, "_row_chunk", lambda slot_len: 2)
    m = PrimeModulus(263)
    seed = Seed(bytes([4]) * 32)
    a, b = gen_seeded(seed, 5, m, 3)
    ref = reference_section(seed, seed, m.q, 5, 3, b"bins", chunk_rows=2)
    assert ref == (a.s_A.tolist(), a.r_A.tolist(), b.r_B_inv.tolist(), b.s_B.tolist())
    a3, b3 = gen_seeded(seed, 3, m, 3)
    assert np.array_equal(a3.block, a.block[:3]) and np.array_equal(b3.block, b.block[:3])
    # chunk 1 (rows 2 and 3) read alone from its own stream
    prg = Prg(seed, tag=b"rBinv|bins|1")
    assert b.r_B_inv[2:4].ravel().tolist() == reference_elements(prg, m.q, 6, nonzero=True)


def _expand_on(monkeypatch, cpus):
    """Chunks of 2 rows and `cpus` usable CPUs, as the expansion sees them;
    returns the list of pids os.fork gave the parent."""
    monkeypatch.setattr(expand_mod, "_row_chunk", lambda slot_len: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_expansion_is_identical_on_any_number_of_processes(monkeypatch, cpus):
    # 9 bin rows and 3 stash rows in chunks of 2: 7 chunks dealt out to
    # `cpus` processes give the scalar reference's blocks and token
    forks = _expand_on(monkeypatch, cpus)
    p = replace(params_small(), alpha=9)
    q, layout = p.modulus.q, [("bins", 9, p.beta), ("stash", p.stash_size, p.n)]
    seed, R_A, R_B = Seed(bytes([4]) * 32), Seed(bytes([6]) * 32), Seed(bytes([7]) * 32)

    a, b = gen_seeded(seed, 9, p.modulus, p.beta)
    ref = reference_section(seed, seed, q, 9, p.beta, b"bins", chunk_rows=2)
    assert ref == (a.s_A.tolist(), a.r_A.tolist(), b.r_B_inv.tolist(), b.s_B.tolist())

    alice, token = dealer_reply(R_A, R_B, p)
    bob = expand_bob(R_B, p)
    refs = [reference_section(R_A, R_B, q, rows, cols, name.encode(), chunk_rows=2)
            for name, rows, cols in layout]
    for x, y, r in zip(alice, bob, refs, strict=True):
        assert r == (x.s_A.tolist(), x.r_A.tolist(), y.r_B_inv.tolist(), y.s_B.tolist())
    words = [(rows, cols, bob_words(r[2], r[3])) for (_, rows, cols), r in zip(layout, refs)]
    assert token == inventory_token(bob) == reference_token(q, words)
    # one fork per extra process for each of the three expansions
    assert len(forks) == 3 * (cpus - 1)
    _no_children_left()


def _failing_chunk(fail_on, then=None):
    """_expand_chunk that raises on chunks of parity `fail_on` and runs
    `then` on the others."""
    real = expand_mod._expand_chunk

    def chunk(*item):
        c = item[-3]
        if c % 2 == fail_on:
            raise RuntimeError(f"chunk {c} failed")
        if then is not None:
            then()
        real(*item)

    return chunk


def test_failed_worker_fails_the_expansion(monkeypatch):
    # odd chunks run in the forked child: the parent raises once it has
    # reaped it, and returns no half-filled block
    forks = _expand_on(monkeypatch, 2)
    monkeypatch.setattr(expand_mod, "_expand_chunk", _failing_chunk(1))
    with pytest.raises(ExpansionError) as err:
        gen_seeded(Seed(bytes(32)), 8, PrimeModulus(263), 3)
    assert len(forks) == 1
    _no_children_left()
    # defined under olepsi.offline, so a run record counts it as an offline failure
    assert type(err.value).__module__.split(".")[:2] == ["olepsi", "offline"]


def test_failed_parent_kills_and_reaps_worker(monkeypatch, tmp_path):
    # even chunks run here and fail at once; the child, parked before its
    # first chunk, is killed, or it would wake and leave a marker
    marker = tmp_path / "child-ran"

    def park():
        time.sleep(3)
        marker.write_text("ran")

    forks = _expand_on(monkeypatch, 2)
    monkeypatch.setattr(expand_mod, "_expand_chunk", _failing_chunk(0, then=park))
    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        gen_seeded(Seed(bytes(32)), 8, PrimeModulus(263), 3)
    assert len(forks) == 1
    _no_children_left()
    assert not marker.exists()


def test_workers_leave_without_running_exit_handlers(tmp_path):
    # a forked worker ends by os._exit: the parent's unflushed stdout and its
    # atexit handler come out once, from the parent alone
    script = tmp_path / "fork.py"
    script.write_text(
        "import atexit, os\n"
        "from olepsi.field import PrimeModulus\n"
        "from olepsi.offline import _expand, gen_seeded\n"
        "from olepsi.prg import Seed\n"
        "_expand._row_chunk = lambda slot_len: 2\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "real_fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or real_fork()\n"
        "atexit.register(lambda: print('atexit'))\n"
        "print('before')\n"
        "gen_seeded(Seed(bytes(32)), 8, PrimeModulus(263), 3)\n"
        "print('forks', len(forks))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "before\nforks 1\natexit\n"


def test_live_thread_keeps_expansion_in_one_process(monkeypatch):
    # a second live thread, as in an in-process pair: fork is never called
    monkeypatch.setattr(expand_mod, "_row_chunk", lambda slot_len: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def no_fork():
        raise AssertionError("fork with a second thread alive")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        m, seed = PrimeModulus(263), Seed(bytes([4]) * 32)
        a, b = gen_seeded(seed, 8, m, 3)
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    ref = reference_section(seed, seed, m.q, 8, 3, b"bins", chunk_rows=2)
    assert ref == (a.s_A.tolist(), a.r_A.tolist(), b.r_B_inv.tolist(), b.s_B.tolist())


@pytest.mark.parametrize("backend", ["seed", "dealer", "lbe-sim"])
def test_seed_and_dealer_backends_invert_nothing(monkeypatch, backend):
    # r_B_inv is drawn as a nonzero element, so no inversion is left to do:
    # only the ot backend (Gilboa) inverts
    def no_inversion(*args):
        raise AssertionError("mod_inv called")

    for module in (modvec, tuples_mod, expand_mod):
        monkeypatch.setattr(module, "mod_inv", no_inversion)
    p = replace(params_small(), alpha=6)
    alice, bob = generate_psi_inventories(backend, p, Seed(bytes([8]) * 32))
    assert all(validate_inventories(a, b) for a, b in zip(alice, bob, strict=True))


def test_gen_seeded_sections_are_domain_separated():
    p = params_small()
    a1, _ = gen_seeded(Seed(bytes(32)), 3, p.modulus, 5, domain=b"bins")
    a2, _ = gen_seeded(Seed(bytes(32)), 3, p.modulus, 5, domain=b"stash")
    assert (a1.s_A != a2.s_A).any()


# ---------------------------------------------------------------- one block per side

def _buffer_owner(a):
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return a


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_backend_holds_each_side_in_one_block(tmp_path, backend):
    p = params_small()
    assert p.modulus.byte_len == 2  # a whole native width: files load as views
    dt = dtype_for(p.modulus.q)
    alice, bob = generate_psi_inventories(backend, p, Seed(bytes([5]) * 32))
    for a, b in zip(alice, bob):
        assert a.block.dtype == dt and a.block.flags.c_contiguous
        assert a.block.shape == (len(a), 1 + a.slot_len)
        assert np.shares_memory(a.s_A, a.block) and np.shares_memory(a.r_A, a.block)
        assert b.block.dtype == dt
        assert b.block.shape == (len(b), b.slot_len, 2)
    token = inventory_token(bob)
    for side, sections in (("alice", alice), ("bob", bob)):
        save_inventories(tmp_path / side, sections, side, token)
        back, tok = load_inventories(tmp_path / side, side)
        assert tok == token
        for orig, loaded in zip(sections, back, strict=True):
            # a view of the file's read-only mapping, not a copy of it
            assert isinstance(_buffer_owner(loaded.block), mmap.mmap)
            assert loaded.block.dtype == dt
            assert np.array_equal(loaded.block, orig.block)


# ---------------------------------------------------------------- bounded passes

def _pass_slots(rows, cols, chunk_rows, limits):
    """(first slot, slots) of every innermost pass over a rows x cols
    section, in the order the kernels run them: chunks of chunk_rows whole
    rows, each cut into params.tiles at limits[0], each of those at
    limits[1], and so on."""

    def cut(r0, c0, height, width, limits):
        if not limits:
            yield r0 * cols + c0, height * width
            return
        for r, c in tiles(height, width, limits[0]):
            yield from cut(r0 + r.start, c0 + c.start, r.stop - r.start, c.stop - c.start,
                           limits[1:])

    for _, lo, hi in expand_mod._chunks(rows, chunk_rows):
        yield from cut(lo, 0, hi - lo, cols, limits)


@pytest.mark.parametrize("n, k", sorted(PARAM_TABLE))
def test_offline_passes_bounded_at_every_table_row(n, k):
    # computed from the parameters alone: nothing of size n is allocated.
    # Per kernel, the passes over each section (and over Alice's s_A column)
    # cover it once, in row-major order, and none exceeds the kernel's limit
    p = derive_params(n, k)
    ell = p.modulus.bit_len
    tile = expand_mod._TILE
    assert tile == 1 << 16
    for _, rows, cols in sections(p):
        expand_rows = expand_mod._row_chunk(cols)
        gilboa_rows = gilboa_mod._chunk_rows(cols, ell)
        kernels = [
            (cols, expand_rows, [tile]),  # expansion: r_B^-1, s_B and r_A (lbe-sim's too)
            (1, expand_rows, [tile]),  # expansion: s_A
            (cols, gilboa_rows, [tile]),  # Gilboa: r_A and r_B
            (1, gilboa_rows, [tile]),  # Gilboa: s_A
            (cols, gilboa_rows, [tile // ell]),  # Gilboa: one OT session each
        ]
        for width, chunk_rows, limits in kernels:
            pos = 0
            for first, count in _pass_slots(rows, width, chunk_rows, limits):
                assert first == pos
                assert 0 < count <= limits[-1]
                pos += count
            assert pos == rows * width
        assert (tile // ell) * ell <= 1 << 16  # transfers per Gilboa session


@pytest.mark.parametrize("backend", BACKENDS)
def test_tile_sizes_move_no_byte(monkeypatch, backend):
    # tiles of a few slots (every n = 256 stash row cut into pieces, and
    # lbe-sim's CRT with them) and sampler passes of 7 words give the blocks
    # of the default passes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    p = replace(params_small(), alpha=9)
    master = Seed(bytes([8]) * 32)
    want = generate_psi_inventories(backend, p, master)
    monkeypatch.setattr(expand_mod, "_TILE", 40)
    monkeypatch.setattr(gilboa_mod, "_TILE", 40)
    monkeypatch.setattr(prg_mod, "_PASS_WORDS", 7)
    got = generate_psi_inventories(backend, p, master)
    for side_want, side_got in zip(want, got, strict=True):
        for x, y in zip(side_want, side_got, strict=True):
            assert x.block.tobytes() == y.block.tobytes()


# traced peak MiB of one backend's passes: the blocks sit on anonymous
# mappings, which tracemalloc does not see, so what it traces is the working
# set of the passes. Measured: 2.2 (seed, dealer), 4.0 (ot, with uint32
# OT sessions; 6.4 in int64) and 3.8 (lbe-sim, on 2^16-slot tiles);
# sampling or inverting a whole 2^17-slot row at once takes 4.5 MiB at the
# least, and the ot backend's Gilboa temporaries for it 207 MiB
_PASS_PEAK_MIB = {"seed": 3, "dealer": 3, "ot": 8, "lbe-sim": 6}


@pytest.mark.parametrize("backend", BACKENDS)
def test_offline_working_set_does_not_grow_with_a_row(monkeypatch, backend):
    # one process, 64 bin rows and one stash row of 2^17 slots, wider than
    # any pass, over a field of 3-byte words (packed a pass at a time)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    p = replace(derive_params(1 << 17, 2, sigma=34), alpha=64, stash_size=1)
    assert p.modulus.byte_len == 3 and p.n == 1 << 17
    tracemalloc.start()
    try:
        generate_psi_inventories(backend, p, Seed(bytes([9]) * 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _PASS_PEAK_MIB[backend] << 20, peak / (1 << 20)


# ---------------------------------------------------------------- dealer

def test_dealer_reconstruction_validates():
    p = replace(params_small(), alpha=5)
    alice, _ = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    # Alice's half as she receives it, Bob's as he expands it from his seed
    bob = expand_bob(Seed(bytes([2]) * 32), p)
    assert len(alice) == len(bob) == 2
    assert all(validate_inventories(x, y) for x, y in zip(alice, bob))
    # bins section shaped (alpha, beta), stash section (stash_size, n)
    assert (len(alice[0]), alice[0].slot_len) == (5, p.beta)
    assert (len(alice[1]), alice[1].slot_len) == (p.stash_size, p.n)


def test_dealer_to_bob_is_seed_sized():
    # at any alpha, Bob's half of a dealer run is his expansion of R_B alone
    master = Seed.random()
    R_B = dealer_seeds(master)[1]
    assert len(R_B.value) == SEED_LEN
    for count in (1, 40):
        p = replace(params_small(), alpha=count)
        _, bob = generate_psi_inventories("dealer", p, master)
        assert inventory_token(bob) == inventory_token(expand_bob(R_B, p))


def test_dealer_backend_expands_once(monkeypatch):
    # k=2 with a stash: the backend fills both halves in one expansion, and
    # Bob's half and token are those of his expansion of R_B
    p = replace(params_small(), alpha=7)
    assert p.k == 2 and p.stash_size > 0
    master = Seed(bytes([5]) * 32)
    fill, calls = expand_mod._fill_sections, []

    def counted(*args, **kwargs):
        calls.append(args)
        return fill(*args, **kwargs)

    monkeypatch.setattr(expand_mod, "_fill_sections", counted)
    _, bob = generate_psi_inventories("dealer", p, master)
    assert len(calls) == 1
    ref = expand_bob(dealer_seeds(master)[1], p)
    for x, y in zip(bob, ref, strict=True):
        assert np.array_equal(x.r_B_inv, y.r_B_inv) and np.array_equal(x.s_B, y.s_B)
    assert inventory_token(bob) == inventory_token(ref)


def test_dealer_token_identifies_bob_half():
    p = replace(params_small(), alpha=4)
    _, token = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    bob = expand_bob(Seed(bytes([2]) * 32), p)
    assert token == inventory_token(bob)
    other = expand_bob(Seed(bytes([9]) * 32), p)
    assert token != inventory_token(other)


def test_dealer_mismatched_seed_fails_validation():
    p = replace(params_small(), alpha=6)
    alice, _ = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    wrong = expand_bob(Seed(bytes([3]) * 32), p)
    assert not validate_inventories(alice[0], wrong[0])


def test_dealer_micro_run_stub(monkeypatch):
    # fixed shares s_A=4, s_B=2, r_B=3 over q=11 must yield r_A=2
    class FixedStream:
        def __init__(self, value):
            self.value = value

        def elements(self, modulus, count, dtype):
            return np.full(count, self.value, dtype=dtype)

        nonzero_elements = elements

    # r_B = 3, so r_B_inv = 4; the dealer's r_A step reads nothing from the
    # rA stream it is handed
    values = {b"sA": 4, b"sB": 2, b"rBinv": 4, b"rA": None}
    monkeypatch.setattr(expand_mod, "_stream", lambda seed, role, domain, c: FixedStream(values[role]))
    # sections (1, 1) of bins and (0, 1) of stash over F_11
    p = SimpleNamespace(modulus=M11, alpha=1, beta=1, stash_size=0, n=1)
    alice, _ = dealer_reply(Seed(bytes(32)), Seed(bytes([1]) * 32), p)
    assert (int(alice[0].s_A[0]), int(alice[0].r_A[0, 0])) == (4, 2)


def test_dealer_alice_expansion_golden_prefix():
    # frozen: seed 0x01..01, small parameter set
    p = replace(params_small(), alpha=5)
    alice, _ = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    assert alice[0].s_A[:4].tolist() == [115, 148, 119, 49]
    prg = Prg(Seed(bytes([1]) * 32), tag=b"sA|bins|0")
    assert reference_elements(prg, p.modulus.q, 4) == [115, 148, 119, 49]


def _reference_seed_files(p, master, dealer_a, dealer_b):
    """(token, Alice's file, Bob's file, dealer-to-Alice message) of the seed
    and dealer backends, from the scalar reference and the documented
    formats alone."""
    q = p.modulus.q
    shared = subseed(master, b"shared")
    layout = [("bins", p.alpha, p.beta), ("stash", p.stash_size, p.n)]
    secs = [reference_section(shared, shared, q, rows, cols, name.encode())
            for name, rows, cols in layout]
    token = reference_token(
        q, [(rows, cols, bob_words(s[2], s[3])) for (_, rows, cols), s in zip(layout, secs)]
    )
    alice = b"".join(
        reference_section_bytes(b"OLEA", q, rows, cols, token, alice_words(s[0], s[1]))
        for (_, rows, cols), s in zip(layout, secs)
    )
    bob = b"".join(
        reference_section_bytes(b"OLEB", q, rows, cols, token, bob_words(s[2], s[3]))
        for (_, rows, cols), s in zip(layout, secs)
    )
    # the dealer message: Alice's tuple file of the dealer's run
    layout[0] = ("bins", 5, p.beta)
    secs = [reference_section(dealer_a, dealer_b, q, rows, cols, name.encode())
            for name, rows, cols in layout]
    dealer_token = reference_token(
        q, [(rows, cols, bob_words(s[2], s[3])) for (_, rows, cols), s in zip(layout, secs)]
    )
    dealer = b"".join(
        reference_section_bytes(b"OLEA", q, rows, cols, dealer_token, alice_words(s[0], s[1]))
        for (_, rows, cols), s in zip(layout, secs)
    )
    return token, alice, bob, dealer


@pytest.mark.parametrize(
    "k, sigma, q, token, alice_sha, bob_sha, dealer_sha",
    [
        (2, 20, 4099, "8a31cdf726ea6e23a7ffd4580a677c95",
         "df1500f1c760a4f09654068179a49d16f8a875358a946a5befaab4b60c21b94e",
         "78b5ea2bc6fc8b8771df7ce2daab4f87e77634d5959c5a98470591589543c117",
         "6f68eecfd8b12911681e49cfe3c5a2b9e381c5ecf660f98a835fdcb239f24451"),
        (3, 25, 393241, "e0338402e3c4da1d50b7088c6733f3f0",
         "8e87b985dad45d2448aed16d5ea32b1230c9218ac088afe3cf60ca3ec33e60ff",
         "c213c0d6596e540ba86faefb0be56d8f49d819a845c8fad7ca2065d16fb896ce",
         "062cc4032078df0bbc9b77e9107fbafdf31e98c2c902e5dc2dbef968f77a09d6"),
    ],
    ids=["k2-q4099", "k3-q393241"],  # not the pinned values: a re-pin keeps the name
)
def test_seed_inventory_and_dealer_bytes_golden(
    tmp_path, k, sigma, q, token, alice_sha, bob_sha, dealer_sha
):
    # frozen: token, tuple files and dealer message at a 2-byte and a 3-byte
    # q, each equal to the scalar reference's
    p = derive_params(1 << 8, k, sigma=sigma)
    assert p.modulus.q == q
    master, dealer_a, dealer_b = Seed(bytes(range(32))), Seed(bytes(32)), Seed(bytes([1]) * 32)
    alice, bob = generate_psi_inventories("seed", p, master)
    tok = inventory_token(bob)
    assert tok.hex() == token
    save_inventories(tmp_path / "a", alice, "alice", tok)
    save_inventories(tmp_path / "b", bob, "bob", tok)
    assert hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest() == alice_sha
    assert hashlib.sha256((tmp_path / "b").read_bytes()).hexdigest() == bob_sha
    dealer_alice, dealer_token = dealer_reply(dealer_a, dealer_b, replace(p, alpha=5))
    data = b"".join(tuples_mod.section_bytes(dealer_alice, "alice", dealer_token))
    assert hashlib.sha256(data).hexdigest() == dealer_sha
    ref = _reference_seed_files(p, master, dealer_a, dealer_b)
    assert ref == (tok, (tmp_path / "a").read_bytes(), (tmp_path / "b").read_bytes(), data)


@pytest.mark.parametrize(
    "backend, k, sigma, q, token, alice_sha",
    [
        ("ot", 2, 20, 4099, "053ec6ea36cbdd5a3c572de5baea3ddf",
         "f990adc267162e525156c063bbcbed5f356ca01c42665f70e166797cb3ca7efa"),
        ("ot", 3, 25, 393241, "98b3fad6302e2801c4f0b432ea9799d9",
         "3c4ea73770761c60d788867663a823ff25ac09c3cba7d4b2564cf96ff65e7600"),
        ("lbe-sim", 2, 20, 4099, "4ffc9d9ac92f5f72d7f32c93b2ad6270",
         "ebbb30f7a792c0a8c099a8c11f3a16b01b85bc2e609417ba3ff9120d8a291c7c"),
        ("lbe-sim", 3, 25, 393241, "dca5f2f079e23a9a325d549cf6ee6716",
         "b943149fe06a504c8b1af5fcf5f1802f2c74574b4387af459573795c4e14ace6"),
    ],
    ids=["ot-k2-q4099", "ot-k3-q393241", "lbe-sim-k2-q4099", "lbe-sim-k3-q393241"],
)
def test_ot_and_lbe_inventory_golden(tmp_path, backend, k, sigma, q, token, alice_sha):
    # frozen: Bob's token and Alice's tuple file, with (k=2) and without a stash
    p = derive_params(1 << 8, k, sigma=sigma)
    assert p.modulus.q == q and (p.stash_size > 0) == (k == 2)
    master = Seed(bytes(range(32)))
    alice, bob = generate_psi_inventories(backend, p, master)
    tok = inventory_token(bob)
    assert tok.hex() == token
    save_inventories(tmp_path / "a", alice, "alice", tok)
    assert hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest() == alice_sha
    # the same values from the scalar reference: each backend's PRG draws in
    # stream order, the rest fixed by the OLE relation, the bytes by the format
    # (lbe-sim is the seed expansion from its own seed: its r_A step leaves
    # r_A = (s_A + s_B) * r_B_inv exactly)
    sections = (("bins", p.alpha, p.beta), ("stash", p.stash_size, p.n))
    for (name, rows, cols), a, b in zip(sections, alice, bob, strict=True):
        if backend == "ot":
            # one Gilboa chunk per section at this size: chunk 0's seed
            assert gilboa_mod._chunk_rows(cols, p.modulus.bit_len) >= rows
            prg = Prg(subseed(master, b"gil|%s|0" % name.encode()), tag=b"gilboa")
            assert a.s_A.tolist() == reference_elements(prg, q, rows)
            assert a.r_A.ravel().tolist() == reference_elements(prg, q, rows * cols)
            r_B = reference_elements(prg, q, rows * cols, nonzero=True)
            assert b.r_B_inv.ravel().tolist() == [pow(r, -1, q) for r in r_B]
        else:
            seed = subseed(master, b"lbe")
            ref = reference_section(seed, seed, q, rows, cols, name.encode())
            assert ref == (a.s_A.tolist(), a.r_A.tolist(), b.r_B_inv.tolist(), b.s_B.tolist())
        assert validate_inventories(a, b)
    ref_token = reference_token(
        q, [(len(b), b.slot_len, bob_words(b.r_B_inv.tolist(), b.s_B.tolist())) for b in bob]
    )
    assert ref_token == tok
    ref_alice = b"".join(
        reference_section_bytes(b"OLEA", q, len(a), a.slot_len, tok,
                                alice_words(a.s_A.tolist(), a.r_A.tolist()))
        for a in alice
    )
    assert ref_alice == (tmp_path / "a").read_bytes()


def test_dealer_alice_message_length_is_fixed_by_params(tmp_path):
    # the client reads DEALER_A frames until this many bytes are in, and
    # the message is the tuple file that Alice saves. Its length and header
    # refusals, once checked here on the joined message, are test_cli.py's
    # refuse_alice_payload cases, which fetch it from a fake dealer.
    for count in (None, 1, 7):
        p = params_small() if count is None else replace(params_small(), alpha=count)
        alice, token = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
        data = b"".join(tuples_mod.section_bytes(alice, "alice", token))
        assert len(data) == tuples_mod.alice_file_len(p)
        save_inventories(tmp_path / "a", alice, "alice", token)
        assert data == (tmp_path / "a").read_bytes()


# ---------------------------------------------------------------- OT provider

def test_ot_delivers_chosen_message():
    ot = RecordingOt(M11, seed=Seed(bytes(32)))
    m0, m1, c = [3, 3, 0, 7], [9, 9, 10, 7], [0, 1, 1, 0]
    ot.ot_send_many(m0, m1)
    got = ot.ot_receive_many(c)
    assert got.tolist() == [b if ci else a for a, b, ci in zip(m0, m1, c)]
    assert ot.invocations == 4


def test_ot_receiver_never_materializes_unchosen():
    # large field so a chance collision cannot mask a leak
    big = PrimeModulus((1 << 31) - 1)
    rng = np.random.default_rng(7)
    ot = RecordingOt(big, seed=Seed(bytes(32)))
    m0 = rng.integers(big.q, size=200)
    m1 = rng.integers(big.q, size=200)
    c = rng.integers(2, size=200)
    ot.ot_send_many(m0, m1)
    out = ot.ot_receive_many(c)
    view = ot.view().tolist()
    for i, (delta, e0, e1, cstar, pad, output) in enumerate(view):
        chosen, unchosen = (int(m1[i]), int(m0[i])) if c[i] else (int(m0[i]), int(m1[i]))
        assert int(out[i]) == chosen
        assert unchosen not in (delta, e0, e1, cstar, pad, output)
        # the unchosen wire word is still masked by the pad the receiver lacks
        assert (e0 if c[i] else e1) != (unchosen - pad) % big.q
    assert len(view) == 200


def test_ot_vector_path_matches_semantics():
    q = 263
    mod = PrimeModulus(q)
    rng = np.random.default_rng(11)
    m0 = rng.integers(q, size=500)
    m1 = rng.integers(q, size=500)
    c = rng.integers(2, size=500)
    ot = RecordingOt(mod, seed=Seed(bytes(32)))
    ot.ot_send_many(m0, m1)
    out = ot.ot_receive_many(c)
    assert (out == np.where(c == 1, m1, m0)).all()
    assert ot.invocations == 500


def test_ot_deterministic_given_seed():
    mod = PrimeModulus(263)
    outs = []
    for _ in range(2):
        ot = DealerAssistedOt(mod, seed=Seed(bytes([5]) * 32))
        ot.ot_send_many([1, 2, 3], [4, 5, 6])
        outs.append(ot.ot_receive_many([0, 1, 0]).tolist())
    assert outs[0] == outs[1] == [1, 5, 3]


def test_ot_vector_transcript_golden():
    # frozen: the receiver's view of six transfers at a 3-byte q, with the
    # messages at both ends of the field; pins how the pad and bit streams
    # are consumed
    mod = PrimeModulus(786449)
    q = mod.q
    ot = RecordingOt(mod, seed=Seed(bytes([3]) * 32))
    m0 = [0, q - 1, 5, 123456, q - 1, 0]
    m1 = [q - 1, 0, 786000, 7, 0, 1]
    c = [0, 1, 1, 0, 1, 0]
    ot.ot_send_many(m0, m1)
    out = ot.ot_receive_many(c)
    assert out.tolist() == [0, 0, 786000, 123456, 0, 0]
    records = [tuple(row[:5]) for row in ot.view().tolist()]
    assert records == [
        (1, 224511, 428182, 1, 561938),
        (1, 405089, 190139, 0, 596310),
        (0, 355152, 729059, 1, 56941),
        (0, 770803, 693295, 0, 139102),
        (0, 109282, 484067, 1, 302382),
        (1, 692809, 61611, 1, 93640),
    ]
    assert ot.view()[:, 5].tolist() == out.tolist()
    # the same transcript from the scalar reference of both streams
    pads = reference_elements(Prg(Seed(bytes([3]) * 32), tag=b"ot/pads"), q, 12)
    bits = Prg(Seed(bytes([3]) * 32), tag=b"ot/bits").read(6)
    want = []
    for i in range(6):
        p0, p1, cstar = pads[2 * i], pads[2 * i + 1], bits[i] & 1
        delta = c[i] ^ cstar
        e0 = (m0[i] - (p1 if delta else p0)) % q
        e1 = (m1[i] - (p0 if delta else p1)) % q
        want.append((delta, e0, e1, cstar, p1 if cstar else p0))
    assert records == want


def test_ot_session_discipline():
    ot = RecordingOt(M11, seed=Seed(bytes(32)))
    with pytest.raises(OtError):
        ot.ot_receive_many([0])
    ot.ot_send_many([1, 3], [2, 4])
    with pytest.raises(ValueError):
        ot.ot_receive_many([2, 0])
    with pytest.raises(ValueError):
        ot.ot_receive_many([0, -1])
    with pytest.raises(OtError):
        ot.ot_receive_many([0])
    # messages outside [0, q), such as an F_13 value at q = 11
    for bad in ([11], [-1]):
        with pytest.raises(ValueError):
            ot.ot_send_many(bad, [0])
    with pytest.raises(OtError):
        ot.ot_send_many([1, 2], [3])
    # rejected calls leave the pending session intact
    assert ot.ot_receive_many([1, 0]).tolist() == [2, 3]
    assert ot.invocations == 2


def test_ot_session_at_the_widest_field():
    # q = 2^31 - 1, where a sum of two reduced values comes closest to 2^32:
    # one session past 2^16 transfers, every message at 0 or q - 1
    big = PrimeModulus((1 << 31) - 1)
    q, n = big.q, (1 << 16) + 1000
    rng = np.random.default_rng(5)
    m0 = np.where(rng.integers(2, size=n) == 1, q - 1, 0)
    m1 = np.where(rng.integers(2, size=n) == 1, q - 1, 0)
    c = rng.integers(2, size=n)
    ot = RecordingOt(big, seed=Seed(bytes([4]) * 32))
    ot.ot_send_many(m0, m1)
    out = ot.ot_receive_many(c)
    assert (out == np.where(c == 1, m1, m0)).all()
    view = ot.view()
    assert (view[:, 5] == out).all()
    # every (c, c*) case and every (m0, m1) pair of end values occurs
    assert set(zip(c.tolist(), view[:, 3].tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(set(zip(m0.tolist(), m1.tolist()))) == 4


def test_ot_dtypes_and_refusals():
    # the session runs in uint32 whatever integer dtype the messages come in,
    # which pins the numpy promotions it relies on (the uint32 - uint32
    # wrap, Python-int operands kept at uint32); anything outside [0, q) or
    # not an integer is refused before it can be cast
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)))
    for dtype in (None, np.int64, np.uint64, np.uint8):
        m0 = [0, 10, 3] if dtype is None else np.array([0, 10, 3], dtype)
        ot.ot_send_many(m0, m0[::-1])
        out = ot.ot_receive_many([0, 1, 1])
        assert out.dtype == np.uint32 and out.tolist() == [0, 10, 0]
    out_of_range = [[11], [-1], np.array([11, 0]), np.array([-1, 0]),
                    np.array([11], np.uint64), np.array([1 << 63], np.uint64)]
    for bad in out_of_range:
        with pytest.raises(ValueError, match="lie in"):
            ot.ot_send_many(bad, np.zeros(len(bad), np.int64))
        with pytest.raises(ValueError, match="lie in"):
            ot.ot_send_many(np.zeros(len(bad), np.int64), bad)
    for bad in ([1.0], [0.5], np.array([1], object), [1 << 70]):
        with pytest.raises(ValueError, match="integers"):
            ot.ot_send_many(bad, [0])
    # choices are 0 or 1 in an integer or bool dtype
    ot.ot_send_many([1, 2], [3, 4])
    for bad in ([0.0, 1.0], [2, 0], np.array([0, -1]), np.array([1 << 32, 0])):
        with pytest.raises(ValueError, match="0 or 1"):
            ot.ot_receive_many(bad)
    assert ot.ot_receive_many(np.array([True, False])).tolist() == [3, 2]


# ---------------------------------------------------------------- Gilboa

def test_gilboa_worked_example():
    # the scalar reference, worked by hand: the batch form runs the same
    # transfers on every slot
    ot = RecordingOt(M11, seed=Seed(bytes(32)))
    s_A, s_B = gilboa_share(ot, 5, 3, [2, 7, 1, 6])
    assert (s_A, s_B) == (5, 10)
    assert ot.view()[:, 5].tolist() == [3, 3, 10, 5]
    assert ot.invocations == 4  # exactly ceil(log2 11) transfers
    assert (s_A + s_B) % 11 == 5 * 3 % 11


def _r_b(bob):
    return modvec.mod_inv(bob.r_B_inv, bob.modulus.q).astype(np.int64)


def test_gilboa_zero_r_a():
    # 160 slots over F_11 draw r_A = 0 about 15 times
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)))
    alice, bob = gilboa_inventories(ot, M11, 40, 4, Seed(bytes([1]) * 32))
    zero = alice.r_A == 0
    assert zero.any()
    s_A = np.broadcast_to(alice.s_A[:, None], zero.shape).astype(np.int64)
    assert ((s_A + bob.s_B)[zero] % 11 == 0).all()


def test_gilboa_random_trials():
    mod = PrimeModulus(251)
    ot = DealerAssistedOt(mod, seed=Seed(bytes(32)))
    alice, bob = gilboa_inventories(ot, mod, 500, 1, Seed(bytes([3]) * 32))
    s_A, s_B = alice.s_A.astype(np.int64)[:, None], bob.s_B.astype(np.int64)
    assert ((s_A + s_B) % 251 == alice.r_A.astype(np.int64) * _r_b(bob) % 251).all()


def test_gilboa_batch_validates_and_counts():
    p = params_small()
    ot = RecordingOt(p.modulus, seed=Seed(bytes(32)))
    alice, bob = gilboa_inventories(ot, p.modulus, 6, p.beta, Seed(bytes(32)))
    assert validate_inventories(alice, bob)
    assert ot.invocations == 6 * p.beta * p.modulus.bit_len


def test_gilboa_batch_at_the_widest_field():
    # ell = 31 at q = 2^31 - 1: the closing rho sums 30 terms and s_B 31,
    # each below 2^31, so both sums need their uint64
    big = PrimeModulus((1 << 31) - 1)
    assert big.bit_len == 31
    ot = RecordingOt(big, seed=Seed(bytes([6]) * 32))
    alice, bob = gilboa_inventories(ot, big, 40, 7, Seed(bytes([2]) * 32))
    assert ot.invocations == 40 * 7 * 31
    q = big.q
    s_A = alice.s_A.astype(np.int64)[:, None]
    assert ((s_A + bob.s_B) % q == alice.r_A.astype(np.int64) * _r_b(bob) % q).all()
    assert (ot.rho(40, 7).sum(axis=2) % q == s_A).all()


def test_gilboa_batch_rho_sums_to_shared_s_a():
    p = params_small()
    ot = RecordingOt(p.modulus, seed=Seed(bytes(32)))
    alice, bob = gilboa_inventories(ot, p.modulus, 5, p.beta, Seed(bytes(32)))
    rho = ot.rho(5, p.beta)
    assert rho.shape == (5, p.beta, p.modulus.bit_len)
    sums = rho.sum(axis=2) % p.modulus.q
    assert (sums == alice.s_A.astype(np.int64)[:, None]).all()
    # each slot's shares are the scalar reference's on the recorded rho list
    r_B = _r_b(bob)
    for i in range(5):
        for j in range(p.beta):
            got = gilboa_share(DealerAssistedOt(p.modulus), int(alice.r_A[i, j]),
                               int(r_B[i, j]), rho[i, j].tolist())
            assert got == (int(alice.s_A[i]), int(bob.s_B[i, j]))


def _gilboa_on(monkeypatch, cpus):
    """Gilboa chunks of 2 rows on `cpus` usable CPUs, and a k=2 layout of 9
    bin rows and 3 stash rows: 7 chunks over two sections. Returns the
    params, the layout and the parent's list of forked pids."""
    forks = _expand_on(monkeypatch, cpus)
    monkeypatch.setattr(gilboa_mod, "_chunk_rows", lambda slot_len, ell: 2)
    p = replace(params_small(), alpha=9)
    assert p.k == 2 and p.stash_size == 3
    return p, [("bins", 9, p.beta), ("stash", 3, p.n)], forks


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ot_is_identical_on_any_number_of_processes(monkeypatch, cpus):
    # the ot backend's 7 chunks dealt out to `cpus` processes give the blocks
    # and token of gilboa_batch run chunk by chunk, in order, on each chunk's
    # own dealer and Gilboa seed
    p, layout, forks = _gilboa_on(monkeypatch, cpus)
    master = Seed(bytes([5]) * 32)
    alice, bob = generate_psi_inventories("ot", p, master)
    assert len(forks) == cpus - 1
    _no_children_left()
    for (name, rows, cols), a, b in zip(layout, alice, bob, strict=True):
        ref_a, ref_b = [], []
        for c, lo in enumerate(range(0, rows, 2)):
            tag = b"%s|%d" % (name.encode(), c)
            ot = DealerAssistedOt(p.modulus, seed=subseed(master, b"ot-deal|" + tag))
            x, y = gilboa_inventories(ot, p.modulus, min(2, rows - lo), cols,
                                      subseed(master, b"gil|" + tag))
            ref_a.append(x.block)
            ref_b.append(y.block)
        assert np.concatenate(ref_a).tobytes() == a.block.tobytes()
        assert np.concatenate(ref_b).tobytes() == b.block.tobytes()
        assert validate_inventories(a, b)
    ref_token = reference_token(
        p.modulus.q,
        [(len(b), b.slot_len, bob_words(b.r_B_inv.tolist(), b.s_B.tolist())) for b in bob],
    )
    assert inventory_token(bob) == ref_token


def test_failed_gilboa_worker_fails_the_ot_backend(monkeypatch):
    # every chunk the forked child runs raises there; the parent's succeed
    p, _, forks = _gilboa_on(monkeypatch, 2)
    parent, real = os.getpid(), gilboa_mod._gilboa_chunk

    def chunk(*item):
        if os.getpid() != parent:
            raise RuntimeError("worker chunk failed")
        real(*item)

    monkeypatch.setattr(gilboa_mod, "_gilboa_chunk", chunk)
    with pytest.raises(ExpansionError):
        generate_psi_inventories("ot", p, Seed(bytes([5]) * 32))
    assert len(forks) == 1
    _no_children_left()


def test_ot_chunks_share_no_stream(monkeypatch, tmp_path):
    # every Prg that a chunk's DealerAssistedOt (ot/pads, ot/bits) or its
    # Gilboa run constructs, in either process, has a prefix (seed and tag)
    # of its own: no two chunks share a pad, a choice bit or a rho
    p, layout, forks = _gilboa_on(monkeypatch, 2)
    log = tmp_path / "prefixes"

    class RecordingPrg(Prg):
        def __init__(self, seed, tag=b""):
            super().__init__(seed, tag)
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, self._prefix.hex().encode() + b"\n")
            finally:
                os.close(fd)

    for module in (ot_mod, gilboa_mod):
        monkeypatch.setattr(module, "Prg", RecordingPrg)
    generate_psi_inventories("ot", p, Seed(bytes([5]) * 32))
    assert len(forks) == 1
    _no_children_left()
    prefixes = log.read_text().split()
    chunks = sum(math.ceil(rows / 2) for _, rows, _ in layout)
    assert chunks == 7
    assert len(prefixes) == 3 * chunks  # ot/pads, ot/bits, gilboa per chunk
    assert len(set(prefixes)) == len(prefixes)
    for tag in (b"ot/pads", b"ot/bits", b"gilboa"):
        assert sum(bytes.fromhex(x).endswith(tag) for x in prefixes) == chunks


# ---------------------------------------------------------------- LBE simulation

def test_lbe_params_examples():
    lbe = lbe_params_for(M11, 4)
    assert lbe.q_i == (43, 47)
    assert lbe.Q_prime == 2021 and lbe.u_domain == 16


def test_lbe_ladder_matches_prime_scan():
    # criterion 7's grid, against a scan from 2
    for Q in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for lam in range(5):
            got = lbe_params_for(PrimeModulus(Q), lam).q_i
            assert got == consecutive_prime_ladder(Q, lam), (Q, lam)
    # wide fields: the scan starts 4000 below isqrt of the bound, and the
    # oracle checks that its first pair falls short
    for Q in (4099, 786449, (1 << 31) - 1):
        for lam in range(41):
            bound = max(Q * Q << lam, 2 * Q * Q + (Q << lam))
            start = max(2, math.isqrt(bound) - 4000)
            got = lbe_params_for(PrimeModulus(Q), lam).q_i
            assert got == consecutive_prime_ladder(Q, lam, start), (Q, lam)


def test_lbe_worked_example():
    lbe = lbe_params_for(M11, 4)
    # componentwise: d = 6*4 + 55 mod q_i -> (36, 32); CRT gives 79 = 2 mod 11
    v = lbe_reconstruct(lbe, 4, 2, pow(3, -1, 11), 5)
    assert v == 79
    assert v % 43 == 36
    assert v % 47 == 32
    assert v % 11 == 2


def test_lbe_matches_dealer_formula_randomized():
    p = params_small()
    q = p.modulus.q
    lbe = lbe_params_for(p.modulus, 40)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s_A, s_B = int(rng.integers(q)), int(rng.integers(q))
        inv = pow(int(rng.integers(1, q)), -1, q)
        u = int(rng.integers(1 << 40))
        want = (s_A + s_B) * inv % q
        assert lbe_reconstruct(lbe, s_A, s_B, inv, u) % q == want


def test_lbe_masking_support():
    # over random u the reconstruction is uniform on {c, c+Q, ..., c+15Q}
    lbe = lbe_params_for(M11, 4)
    for s_A, s_B, r_B in [(4, 2, 3), (0, 0, 1), (10, 10, 7)]:
        inv = pow(r_B, -1, 11)
        c = (s_A + s_B) * inv
        support = {lbe_reconstruct(lbe, s_A, s_B, inv, u) for u in range(16)}
        assert support == {c + 11 * u for u in range(16)}


def test_lbe_validation_errors():
    with pytest.raises(ValueError):
        LbeSimParams(modulus=M11, lam=4, q_i=(6, 9))  # not coprime
    with pytest.raises(ValueError):
        LbeSimParams(modulus=M11, lam=4, q_i=(13, 17))  # product too small
    with pytest.raises(ValueError):
        LbeSimParams(modulus=M11, lam=-1, q_i=(43, 47))
    for q_i in [(47, 43), (43, 47, 53), (43, (1 << 63) + 29)]:  # lbe_digits' Garner step
        with pytest.raises(ValueError):
            LbeSimParams(modulus=M11, lam=4, q_i=q_i)
    with pytest.raises(FieldError):  # ladder primes near 2^93
        lbe_params_for(PrimeModulus((1 << 61) - 1), 64)


def test_lbe_batch_validates():
    p = replace(params_small(), alpha=4)
    alice, bob = generate_psi_inventories("lbe-sim", p, Seed(bytes(32)))
    assert all(validate_inventories(a, b) for a, b in zip(alice, bob, strict=True))


def _assert_batch_matches_scalar(monkeypatch, p, count, lam):
    # one bins section of `count` rows through the lbe-sim r_A step, in one
    # process: every v = a_1 + q_1 * t from the digits lbe_digits returns is
    # the per-residue reference's, with u replayed from each chunk's rA
    # stream, and r_A is v reduced mod Q; the tuple values are the seed
    # expansion's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    recorded, real = [], lbe_mod.lbe_digits

    def recording(*args):
        a1, t = real(*args)
        assert a1.dtype == t.dtype == np.uint64
        recorded.append((a1.tolist(), t.tolist()))
        return a1, t

    monkeypatch.setattr(lbe_mod, "lbe_digits", recording)
    q, seed = p.modulus.q, Seed(bytes([6]) * 32)
    layout = [("bins", count, p.beta)]
    (alice,), (bob,) = expand_mod.expand_sections(p.modulus, layout, seed, seed, lbe_r_a(lam))
    chunk_rows = expand_mod._row_chunk(p.beta)
    ref = reference_section(seed, seed, q, count, p.beta, b"bins", chunk_rows=chunk_rows)
    assert ref == (alice.s_A.tolist(), alice.r_A.tolist(), bob.r_B_inv.tolist(), bob.s_B.tolist())
    lbe = lbe_params_for(p.modulus, lam)
    u = []
    for c, lo in enumerate(range(0, count, chunk_rows)):
        prg = Prg(seed, tag=b"rA|bins|%d" % c)
        slots = (min(lo + chunk_rows, count) - lo) * p.beta
        u += [int.from_bytes(prg.read(8), "little") % lbe.u_domain for _ in range(slots)]
    q1 = lbe.q_i[0]
    v = [a + q1 * t for a1, t1 in recorded for ra, rt in zip(a1, t1) for a, t in zip(ra, rt)]
    assert len(v) == len(u) == count * p.beta
    for i in range(count):
        s_A = int(alice.s_A[i])
        for j in range(p.beta):
            slot = i * p.beta + j
            r_B = pow(int(bob.r_B_inv[i, j]), -1, q)
            want = residue_loop_reconstruct(lbe, s_A, int(bob.s_B[i, j]), r_B, u[slot])
            assert v[slot] == want
            assert int(alice.r_A[i, j]) == want % q


def test_lbe_batch_matches_scalar_across_ragged_chunks(monkeypatch):
    # chunks of 6 rows in 64-slot tiles of 4 rows at beta=15: 10 rows give
    # chunks 0 (passes of 4 and 2 rows) and 1 (one pass of 4)
    monkeypatch.setattr(expand_mod, "_TILE", 64)
    monkeypatch.setattr(expand_mod, "_row_chunk", lambda slot_len: 6)
    p = params_small()
    _assert_batch_matches_scalar(monkeypatch, p, 10, p.lam)


def test_lbe_batch_matches_scalar_lambda40_width3(monkeypatch):
    # 39-bit q_i: v is near 2^77, far past one word, and Garner's step
    # multiplies by q_1^-1 mod q_2 in two 25-bit limbs
    p = derive_params(1 << 8, 3, sigma=25)
    assert p.modulus.byte_len == 3
    lbe = lbe_params_for(p.modulus, 40)
    assert min(lbe.q_i) > 1 << 36 and lbe.Q_prime > 1 << 76
    _assert_batch_matches_scalar(monkeypatch, p, 4, 40)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_lbe_sim_is_identical_on_any_number_of_processes(monkeypatch, cpus):
    # 9 bin rows and 3 stash rows in chunks of 2: 7 chunks dealt out to
    # `cpus` processes give the seed expansion's values from lbe-sim's seed
    forks = _expand_on(monkeypatch, cpus)
    p = replace(params_small(), alpha=9)
    master = Seed(bytes([3]) * 32)
    alice, bob = generate_psi_inventories("lbe-sim", p, master)
    seed = subseed(master, b"lbe")
    for (name, rows, cols), a, b in zip(
        [("bins", 9, p.beta), ("stash", p.stash_size, p.n)], alice, bob, strict=True
    ):
        ref = reference_section(seed, seed, p.modulus.q, rows, cols, name.encode(), chunk_rows=2)
        assert ref == (a.s_A.tolist(), a.r_A.tolist(), b.r_B_inv.tolist(), b.s_B.tolist())
    assert len(forks) == cpus - 1
    _no_children_left()


def test_lbe_reconstruct_matches_residue_loop_at_extremes():
    p = derive_params(1 << 8, 3, sigma=25)
    Q = p.modulus.q
    lbe = lbe_params_for(p.modulus, 40)
    top = lbe.u_domain - 1
    for s_A, s_B, r_B, u in [(Q - 1, Q - 1, 1, top), (Q - 1, Q - 1, Q - 1, top),
                             (0, 0, 1, 0), (Q - 1, 0, 2, top),
                             (12345, 6789, Q - 2, 1 << 39)]:
        got = lbe_reconstruct(lbe, s_A, s_B, pow(r_B, -1, Q), u)
        assert got == residue_loop_reconstruct(lbe, s_A, s_B, r_B, u)


def _r_a_on_words(lam, modulus, s_A, s_B, r_B_inv, u):
    """lbe-sim's r_A step on one (rows, cols) tile, its stream yielding the
    words of u: s_A per row, the others per slot."""
    dt = dtype_for(modulus.q)
    bob_rows = np.stack([r_B_inv, s_B], axis=-1).astype(dt)
    words = np.ascontiguousarray(u, "<u8").tobytes()

    def read(n):
        assert n == len(words)
        return words

    return lbe_r_a(lam)(modulus, s_A.astype(dt), bob_rows, SimpleNamespace(read=read))


def _assert_digits_are_words(lbe, s_A, s_B, r_B_inv, u):
    # lbe_digits on uint64 arrays: both digits stay uint64 words
    a1, t = lbe_digits(lbe, s_A[:, None], s_B, r_B_inv, u)
    assert a1.dtype == t.dtype == np.uint64
    assert a1.shape == t.shape == s_B.shape
    return a1, t


@pytest.mark.parametrize("Q", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_lbe_kernel_exhaustive_on_words(Q):
    # criterion 7's grid as one uint64 tile per lambda: row s_A, every
    # (s_B, r_B, u) along it. r_A from lbe_r_a is the dealer formula's, and
    # v = a_1 + q_1 t (below 2^15 here) is x = (s_A + s_B) r_B^-1 + u Q,
    # which is what residue_loop_reconstruct returns (checked on a stride)
    m = PrimeModulus(Q)
    inv_of = np.array([0] + [pow(r, -1, Q) for r in range(1, Q)], dtype=np.uint64)
    for lam in range(5):
        lbe = lbe_params_for(m, lam)
        row = itertools.product(range(Q), range(1, Q), range(lbe.u_domain))
        s_B, r_B, u = (np.tile(np.array(c, np.uint64), (Q, 1)) for c in zip(*row))
        s_A = np.arange(Q, dtype=np.uint64)
        inv = inv_of[r_B]
        x = (s_A[:, None] + s_B) * inv + u * Q
        assert (_r_a_on_words(lam, m, s_A, s_B, inv, u) == x % Q).all()
        a1, t = _assert_digits_are_words(lbe, s_A, s_B, inv, u)
        assert (a1 + lbe.q_i[0] * t == x).all()
        for i, j in itertools.product(range(Q), range(0, s_B.shape[1], 37)):
            args = int(s_A[i]), int(s_B[i, j]), int(r_B[i, j]), int(u[i, j])
            assert residue_loop_reconstruct(lbe, *args) == int(x[i, j])


def _ladder_exists(Q, lam):
    try:
        lbe_params_for(PrimeModulus(Q), lam)
    except FieldError:  # refused before any kernel runs: sqrt of the bound passes 2^62
        assert math.isqrt(Q * Q << lam) >= 1 << 62
        return False
    return True


@pytest.mark.parametrize("Q, lam", [
    (Q, lam) for Q in (5, 31, 12301, 786449, 2147483477, (1 << 31) - 1)
    for lam in (0, 40, 60, 62, 64) if _ladder_exists(Q, lam)
])
def test_lbe_kernel_exact_on_wide_ladders(Q, lam):
    # q_i up to 62 bits, where Horner runs on 2-bit limbs: edge and random
    # values, r_A from lbe_r_a against the dealer formula, and v from the
    # word digits against residue_loop_reconstruct and the Python-int path
    m = PrimeModulus(Q)
    lbe = lbe_params_for(m, lam)
    rng = random.Random(Q ^ lam)
    top = lbe.u_domain - 1
    s_A = [0, 1, Q - 1, rng.randrange(Q)]
    combos = list(itertools.product([0, 1, Q - 1, rng.randrange(Q)],
                                    [1, 2, Q - 1, rng.randrange(1, Q)],
                                    [0, 1, top, rng.randrange(lbe.u_domain)]))
    s_B, r_B, u = (np.array([c[k] for c in combos] * len(s_A), np.uint64).reshape(len(s_A), -1)
                   for k in range(3))
    inv = np.array([pow(int(r), -1, Q) for r in r_B.ravel()], np.uint64).reshape(r_B.shape)
    r_A = _r_a_on_words(lam, m, np.array(s_A, np.uint64), s_B, inv, u)
    a1, t = _assert_digits_are_words(lbe, np.array(s_A, np.uint64), s_B, inv, u)
    for i, j in np.ndindex(s_B.shape):
        a, b, r, w, r_inv = s_A[i], int(s_B[i, j]), int(r_B[i, j]), int(u[i, j]), int(inv[i, j])
        v = int(a1[i, j]) + lbe.q_i[0] * int(t[i, j])
        assert v == residue_loop_reconstruct(lbe, a, b, r, w) == lbe_reconstruct(lbe, a, b, r_inv, w)
        assert int(r_A[i, j]) == (a + b) * r_inv % Q


# ---------------------------------------------------------------- orchestrator

@pytest.mark.parametrize("backend", BACKENDS)
def test_generate_psi_inventories(backend):
    p = replace(params_small(), alpha=8)
    alice, bob = generate_psi_inventories(backend, p, master_seed=Seed(bytes([7]) * 32))
    assert all(validate_inventories(x, y) for x, y in zip(alice, bob))
    assert [(len(x), x.slot_len) for x in alice] == [(8, p.beta), (p.stash_size, p.n)]


def test_generate_psi_inventories_deterministic_backends():
    p = replace(params_small(), alpha=4)
    for backend in BACKENDS:
        a1, b1 = generate_psi_inventories(backend, p, Seed(bytes([9]) * 32))
        a2, b2 = generate_psi_inventories(backend, p, Seed(bytes([9]) * 32))
        for x, y in zip(a1, a2):
            assert (x.s_A == y.s_A).all() and (x.r_A == y.r_A).all()
        for x, y in zip(b1, b2):
            assert (x.r_B_inv == y.r_B_inv).all() and (x.s_B == y.s_B).all()


def test_generate_psi_inventories_rejects_unknown():
    with pytest.raises(ValueError):
        generate_psi_inventories("magic", params_small())


def test_subseed_labels_are_independent():
    master = Seed(bytes(32))
    assert subseed(master, b"a") != subseed(master, b"b")
    assert subseed(master, b"a") == subseed(master, b"a")
