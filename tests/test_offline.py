"""Offline backends: seeded, dealer, OT/Gilboa, LBE simulation."""

import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from olepsi import modvec
from olepsi import tuples as tuples_mod
from olepsi.field import FieldError, InversionOfZero, PrimeModulus
from olepsi.modvec import dtype_for
from olepsi.offline import (
    BACKENDS,
    DealerAssistedOt,
    ExpansionError,
    OtError,
    dealer_generate,
    decode_to_alice,
    decode_to_bob,
    encode_to_alice,
    encode_to_bob,
    expand_alice,
    expand_bob,
    gen_seeded,
    generate_psi_inventories,
    gilboa_batch,
    gilboa_share,
    lbe_params_for,
    lbe_sim_tuple,
    subseed,
)
from olepsi.offline import _expand as expand_mod
from olepsi.offline import dealer as dealer_mod
from olepsi.offline import lbe as lbe_mod
from olepsi.offline.lbe import LbeSimParams, lbe_batch, lbe_reconstruct
from olepsi.params import derive_params
from olepsi.prg import Prg, Seed
from olepsi.transport import TransportError
from olepsi.tuples import inventory_token, load_inventories, save_inventories

from blocks import alice_inventory, bob_inventory
from oracles import (
    RecordingOt,
    alice_words,
    bob_words,
    reference_elements,
    reference_section,
    reference_section_bytes,
    reference_token,
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

    msg = dealer_generate(R_A, R_B, p)
    alice, bob = expand_alice(msg.to_alice[0], msg.to_alice[1], p), expand_bob(R_B, p)
    refs = [reference_section(R_A, R_B, q, rows, cols, name.encode(), chunk_rows=2)
            for name, rows, cols in layout]
    for x, y, r in zip(alice, bob, refs, strict=True):
        assert r == (x.s_A.tolist(), x.r_A.tolist(), y.r_B_inv.tolist(), y.s_B.tolist())
    words = [(rows, cols, bob_words(r[2], r[3])) for (_, rows, cols), r in zip(layout, refs)]
    assert msg.token == inventory_token(bob) == reference_token(q, words)
    # one fork per extra process for each of the four expansions
    assert len(forks) == 4 * (cpus - 1)
    _no_children_left()


def _failing_chunk(fail_on, then=None):
    """_expand_chunk that raises on chunks of parity `fail_on` and runs
    `then` on the others."""
    real = expand_mod._expand_chunk

    def chunk(sec, c, lo, hi):
        if c % 2 == fail_on:
            raise RuntimeError(f"chunk {c} failed")
        if then is not None:
            then()
        real(sec, c, lo, hi)

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


@pytest.mark.parametrize("backend", ["seed", "dealer"])
def test_seed_and_dealer_backends_invert_nothing(monkeypatch, backend):
    # r_B_inv is drawn as a nonzero element, so no inversion is left to do
    def no_inversion(*args):
        raise AssertionError("mod_inv called")

    for module in (modvec, tuples_mod, expand_mod):
        monkeypatch.setattr(module, "mod_inv", no_inversion)
    monkeypatch.setattr(modvec, "inverse_table", no_inversion)
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
    while isinstance(a, np.ndarray):
        a = a.base
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
            # a view of the bytes read from the file, not a copy of them
            assert isinstance(_buffer_owner(loaded.block), bytes)
            assert loaded.block.dtype == dt
            assert np.array_equal(loaded.block, orig.block)


# ---------------------------------------------------------------- dealer

def test_dealer_reconstruction_validates():
    p = replace(params_small(), alpha=5)
    msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    alice = expand_alice(msg.to_alice[0], msg.to_alice[1], p)
    bob = expand_bob(msg.to_bob, p)
    assert len(alice) == len(bob) == 2
    assert all(validate_inventories(x, y) for x, y in zip(alice, bob))
    # bins section shaped (alpha, beta), stash section (stash_size, n)
    assert (len(alice[0]), alice[0].slot_len) == (5, p.beta)
    assert (len(alice[1]), alice[1].slot_len) == (p.stash_size, p.n)


def test_dealer_to_bob_is_seed_sized():
    for count in (1, 40):
        p = replace(params_small(), alpha=count)
        msg = dealer_generate(Seed.random(), Seed.random(), p)
        assert len(encode_to_bob(msg)) == 32


def test_dealer_token_identifies_bob_half():
    p = replace(params_small(), alpha=4)
    msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    bob = expand_bob(msg.to_bob, p)
    assert msg.token == inventory_token(bob)
    other = expand_bob(Seed(bytes([9]) * 32), p)
    assert msg.token != inventory_token(other)


def test_dealer_mismatched_seed_fails_validation():
    p = replace(params_small(), alpha=6)
    msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    alice = expand_alice(msg.to_alice[0], msg.to_alice[1], p)
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

    # r_B = 3, so r_B_inv = 4
    values = {b"sA": 4, b"sB": 2, b"rBinv": 4}
    monkeypatch.setattr(expand_mod, "_stream", lambda seed, role, domain, c: FixedStream(values[role]))
    # sections (1, 1) of bins and (0, 1) of stash over F_11
    p = SimpleNamespace(modulus=M11, alpha=1, beta=1, stash_size=0, n=1)
    msg = dealer_mod.dealer_generate(Seed(bytes(32)), Seed(bytes([1]) * 32), p)
    assert int(msg.to_alice[1][0][0, 0]) == 2


def test_dealer_alice_expansion_golden_prefix():
    # frozen: seed 0x01..01, small parameter set
    p = replace(params_small(), alpha=5)
    msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    alice = expand_alice(msg.to_alice[0], msg.to_alice[1], p)
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
    # the dealer message: R_A, the token of Bob's half, q, the section count,
    # then per section (count, L) and the r_A words
    layout[0] = ("bins", 5, p.beta)
    secs = [reference_section(dealer_a, dealer_b, q, rows, cols, name.encode())
            for name, rows, cols in layout]
    dealer_token = reference_token(
        q, [(rows, cols, bob_words(s[2], s[3])) for (_, rows, cols), s in zip(layout, secs)]
    )
    width = p.modulus.byte_len
    dealer = struct.pack("<32s16sQB", dealer_a.value, dealer_token, q, len(layout))
    for (_, rows, cols), s in zip(layout, secs):
        dealer += struct.pack("<II", rows, cols)
        dealer += b"".join(w.to_bytes(width, "little") for row in s[1] for w in row)
    return token, alice, bob, dealer


@pytest.mark.parametrize(
    "k, sigma, q, token, alice_sha, bob_sha, dealer_sha",
    [
        (2, 20, 4099, "8a31cdf726ea6e23a7ffd4580a677c95",
         "df1500f1c760a4f09654068179a49d16f8a875358a946a5befaab4b60c21b94e",
         "78b5ea2bc6fc8b8771df7ce2daab4f87e77634d5959c5a98470591589543c117",
         "ffe1e1dfa60358eab6fbfcec2746802f02f2bbe04543495770371da5fc125996"),
        (3, 25, 393241, "e0338402e3c4da1d50b7088c6733f3f0",
         "8e87b985dad45d2448aed16d5ea32b1230c9218ac088afe3cf60ca3ec33e60ff",
         "c213c0d6596e540ba86faefb0be56d8f49d819a845c8fad7ca2065d16fb896ce",
         "c0fc57ee7715ea5174d93f611bc7854f9aa31640cb7534ae12ecf62fc9d85758"),
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
    msg = dealer_generate(dealer_a, dealer_b, replace(p, alpha=5))
    data = encode_to_alice(msg, p.modulus)
    assert hashlib.sha256(data).hexdigest() == dealer_sha
    ref = _reference_seed_files(p, master, dealer_a, dealer_b)
    assert ref == (tok, (tmp_path / "a").read_bytes(), (tmp_path / "b").read_bytes(), data)


@pytest.mark.parametrize(
    "backend, k, sigma, q, token, alice_sha",
    [
        ("ot", 2, 20, 4099, "5eb796969eb07c4dd21e22c03e88c2d8",
         "7063eaf67bc2ef534d8f7bf9508c3b3e5e23ca4fe7a76aba812d6ab43d1e3155"),
        ("ot", 3, 25, 393241, "ccc2d262b2cbcc569f86d5b7c94bd8e1",
         "df40eafedc9595e4235095f79cb2d6632015bd99ecba1340c914fa6ce54838f9"),
        ("lbe-sim", 2, 20, 4099, "f176cdfbf0be6e705a18b7601a2a2567",
         "3ad330121ac8bdafdf50c7f5297cb396dc5105654c5dfbfb4d4caa26f2542ba2"),
        ("lbe-sim", 3, 25, 393241, "45e05b4d230d5a551176125f01ab8740",
         "948f8440d727bc1fbab66d3ae5d46ebdc8737d91e91168e3e3c86b5ad976e2c3"),
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
    sections = (("bins", p.alpha, p.beta), ("stash", p.stash_size, p.n))
    for (name, rows, cols), a, b in zip(sections, alice, bob, strict=True):
        label, tag = (b"gil|", b"gilboa") if backend == "ot" else (b"lbe|", b"lbe")
        prg = Prg(subseed(master, label + name.encode()), tag=tag)
        assert a.s_A.tolist() == reference_elements(prg, q, rows)
        if backend == "ot":
            assert a.r_A.ravel().tolist() == reference_elements(prg, q, rows * cols)
        r_B = reference_elements(prg, q, rows * cols, nonzero=True)
        assert b.r_B_inv.ravel().tolist() == [pow(r, -1, q) for r in r_B]
        if backend == "lbe-sim":
            assert b.s_B.ravel().tolist() == reference_elements(prg, q, rows * cols)
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


def test_dealer_alice_message_roundtrip():
    p = replace(params_small(), alpha=3)
    msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    data = encode_to_alice(msg, p.modulus)
    seed, lists, token = decode_to_alice(data, p)
    assert seed == msg.to_alice[0]
    assert token == msg.token
    assert all((x == y).all() for x, y in zip(lists, msg.to_alice[1], strict=True))
    for bad in (data + b"\x00", data[:60], data[:-1]):
        with pytest.raises(TransportError, match="bytes, parameters need"):
            decode_to_alice(bad, p)
    # as many words, in the layout of parameters with alpha and beta swapped
    with pytest.raises(TransportError, match="bins section is 3 x 15, parameters need 15 x 3"):
        decode_to_alice(data, replace(p, alpha=p.beta, beta=p.alpha))
    with pytest.raises(TransportError):
        decode_to_bob(b"\x00" * 31)


def test_dealer_alice_message_length_is_fixed_by_params():
    # the client bounds the DEALER_A frame by this length before reading it
    for count in (None, 1, 7):
        p = params_small() if count is None else replace(params_small(), alpha=count)
        msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
        assert len(encode_to_alice(msg, p.modulus)) == dealer_mod.to_alice_len(p)


# ---------------------------------------------------------------- OT provider

def test_ot_delivers_chosen_message():
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)))
    m0, m1, c = [3, 3, 0, 7], [9, 9, 10, 7], [0, 1, 1, 0]
    ot.ot_send_many(m0, m1)
    got = ot.ot_receive_many(c)
    assert got.tolist() == [b if ci else a for a, b, ci in zip(m0, m1, c)]
    assert ot.invocations == 4


def test_ot_receiver_never_materializes_unchosen():
    # large field so a chance collision cannot mask a leak
    big = PrimeModulus((1 << 31) - 1)
    rng = np.random.default_rng(7)
    ot = DealerAssistedOt(big, seed=Seed(bytes(32)), record=True)
    m0 = rng.integers(big.q, size=200)
    m1 = rng.integers(big.q, size=200)
    c = rng.integers(2, size=200)
    ot.ot_send_many(m0, m1)
    out = ot.ot_receive_many(c)
    for i, rec in enumerate(ot.receiver_records):
        chosen, unchosen = (int(m1[i]), int(m0[i])) if c[i] else (int(m0[i]), int(m1[i]))
        assert int(out[i]) == chosen
        assert unchosen not in (rec.delta, rec.e0, rec.e1, rec.cstar, rec.pad, rec.output)
        # the unchosen wire word is still masked by the pad the receiver lacks
        assert (rec.e0 if c[i] else rec.e1) != (unchosen - rec.pad) % big.q
    assert len(ot.receiver_records) == 200


def test_ot_vector_path_matches_semantics():
    q = 263
    mod = PrimeModulus(q)
    rng = np.random.default_rng(11)
    m0 = rng.integers(q, size=500)
    m1 = rng.integers(q, size=500)
    c = rng.integers(2, size=500)
    ot = DealerAssistedOt(mod, seed=Seed(bytes(32)))
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
    ot = DealerAssistedOt(mod, seed=Seed(bytes([3]) * 32), record=True)
    m0 = [0, q - 1, 5, 123456, q - 1, 0]
    m1 = [q - 1, 0, 786000, 7, 0, 1]
    c = [0, 1, 1, 0, 1, 0]
    ot.ot_send_many(m0, m1)
    out = ot.ot_receive_many(c)
    assert out.tolist() == [0, 0, 786000, 123456, 0, 0]
    records = [(r.delta, r.e0, r.e1, r.cstar, r.pad) for r in ot.receiver_records]
    assert records == [
        (1, 224511, 428182, 1, 561938),
        (1, 405089, 190139, 0, 596310),
        (0, 355152, 729059, 1, 56941),
        (0, 770803, 693295, 0, 139102),
        (0, 109282, 484067, 1, 302382),
        (1, 692809, 61611, 1, 93640),
    ]
    assert [r.output for r in ot.receiver_records] == out.tolist()
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
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)))
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


# ---------------------------------------------------------------- Gilboa

def test_gilboa_worked_example():
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)), record=True)
    s_A, s_B = gilboa_share(ot, 5, 3, rho=[2, 7, 1, 6])
    assert (s_A, s_B) == (5, 10)
    assert [r.output for r in ot.receiver_records] == [3, 3, 10, 5]
    assert ot.invocations == 4  # exactly ceil(log2 11) transfers
    assert (s_A + s_B) % 11 == 5 * 3 % 11


def test_gilboa_zero_r_a():
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)))
    for r_B in (1, 5, 10):
        s_A, s_B = gilboa_share(ot, 0, r_B)
        assert (s_A + s_B) % 11 == 0


def test_gilboa_random_trials():
    q = 251
    mod = PrimeModulus(q)
    ot = DealerAssistedOt(mod, seed=Seed(bytes(32)))
    rng = np.random.default_rng(3)
    for _ in range(500):
        r_A = int(rng.integers(q))
        r_B = int(rng.integers(1, q))
        s_A, s_B = gilboa_share(ot, r_A, r_B)
        assert (s_A + s_B) % q == r_A * r_B % q


def test_gilboa_input_validation():
    ot = DealerAssistedOt(M11, seed=Seed(bytes(32)))
    with pytest.raises(ValueError):
        gilboa_share(ot, 5, 0)
    with pytest.raises(ValueError):
        gilboa_share(ot, 5, 3, ell=1)
    with pytest.raises(ValueError):
        gilboa_share(ot, 5, 3, rho=[1, 2])
    # values of F_13 outside F_11, on either input
    with pytest.raises(ValueError):
        gilboa_share(ot, 5, 12)
    with pytest.raises(ValueError):
        gilboa_share(ot, 12, 3)
    assert ot.invocations == 0


def test_gilboa_batch_validates_and_counts():
    p = params_small()
    ot = DealerAssistedOt(p.modulus, seed=Seed(bytes(32)))
    alice, bob = gilboa_batch(ot, p, 6, seed=Seed(bytes(32)))
    assert validate_inventories(alice, bob)
    assert ot.invocations == 6 * p.beta * p.modulus.bit_len


def test_gilboa_batch_rho_sums_to_shared_s_a():
    p = params_small()
    ot = RecordingOt(p.modulus, seed=Seed(bytes(32)))
    alice, _ = gilboa_batch(ot, p, 5, seed=Seed(bytes(32)))
    rho = ot.rho(5, p.beta)
    assert rho.shape == (5, p.beta, p.modulus.bit_len)
    sums = rho.sum(axis=2) % p.modulus.q
    assert (sums == alice.s_A.astype(np.int64)[:, None]).all()


# ---------------------------------------------------------------- LBE simulation

def test_lbe_params_examples():
    lbe = lbe_params_for(M11, 4)
    assert lbe.q_i == (43, 47)
    assert lbe.Q_prime == 2021 and lbe.m == 2 and lbe.u_domain == 16
    one = lbe_params_for(M11, 4, m=1)
    assert one.q_i == (11,) and one.u_domain == 1


def test_lbe_worked_example():
    lbe = lbe_params_for(M11, 4)
    # componentwise: d = 6*4 + 55 mod q_i -> (36, 32); CRT gives 79 = 2 mod 11
    assert lbe_reconstruct(lbe, 4, 2, 3, 5) == 79
    assert lbe_reconstruct(lbe, 4, 2, 3, 5) % 43 == 36
    assert lbe_reconstruct(lbe, 4, 2, 3, 5) % 47 == 32
    assert lbe_sim_tuple(lbe, 4, 2, 3, 5) == 2


def test_lbe_degenerate_single_modulus():
    one = lbe_params_for(M11, 4, m=1)
    for s_A in range(11):
        for s_B in range(11):
            for r_B in range(1, 11):
                want = (s_A + s_B) * pow(r_B, -1, 11) % 11
                assert lbe_sim_tuple(one, s_A, s_B, r_B, 0) == want


def test_lbe_matches_dealer_formula_randomized():
    p = params_small()
    q = p.modulus.q
    lbe = lbe_params_for(p.modulus, 40)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s_A, s_B = int(rng.integers(q)), int(rng.integers(q))
        r_B = int(rng.integers(1, q))
        u = int(rng.integers(1 << 40))
        want = (s_A + s_B) * pow(r_B, -1, q) % q
        assert lbe_sim_tuple(lbe, s_A, s_B, r_B, u) == want


def test_lbe_masking_support():
    # over random u the reconstruction is uniform on {c, c+Q, ..., c+15Q}
    lbe = lbe_params_for(M11, 4)
    for s_A, s_B, r_B in [(4, 2, 3), (0, 0, 1), (10, 10, 7)]:
        c = (s_A + s_B) * pow(r_B, -1, 11)
        support = {lbe_reconstruct(lbe, s_A, s_B, r_B, u) for u in range(16)}
        assert support == {c + 11 * u for u in range(16)}


def test_lbe_validation_errors():
    with pytest.raises(ValueError):
        LbeSimParams(modulus=M11, lam=4, q_i=(6, 9))  # not coprime
    with pytest.raises(ValueError):
        LbeSimParams(modulus=M11, lam=4, q_i=(13, 17))  # product too small
    with pytest.raises(ValueError):
        LbeSimParams(modulus=M11, lam=4, q_i=(13,))  # m=1 needs q_1 = Q
    lbe = lbe_params_for(M11, 4)
    with pytest.raises(InversionOfZero):
        lbe_sim_tuple(lbe, 4, 2, 0, 5)
    with pytest.raises(ValueError):
        lbe_sim_tuple(lbe, 4, 2, 3, 16)
    with pytest.raises(ValueError):
        lbe_sim_tuple(lbe, 11, 2, 3, 5)
    one = lbe_params_for(M11, 4, m=1)
    with pytest.raises(ValueError):
        lbe_sim_tuple(one, 4, 2, 3, 1)


def test_lbe_batch_validates():
    p = params_small()
    alice, bob = lbe_batch(p, 4, seed=Seed(bytes(32)))
    assert validate_inventories(alice, bob)


def _residue_loop_reconstruct(lbe, s_A, s_B, r_B, u):
    # reference: the per-residue scalar CRT with its own basis
    Q = lbe.modulus.q
    inv = pow(r_B, -1, Q)
    Qp = lbe.Q_prime
    v = 0
    for qi in lbe.q_i:
        Ni = Qp // qi
        d_i = (((s_A % qi) + (s_B % qi)) * (inv % qi) + (u * Q) % qi) % qi
        v += d_i * Ni * pow(Ni, -1, qi)
    return v % Qp


def _lbe_u_draws(seed, modulus, count, slot_len, lbe):
    # replays lbe_batch's stream: s_A, r_B, s_B, then one 8-byte u per slot
    prg = Prg(seed, tag=b"lbe")
    prg.elements(modulus, count)
    prg.nonzero_elements(modulus, count * slot_len)
    prg.elements(modulus, count * slot_len)
    raw = np.frombuffer(prg.read(8 * count * slot_len), dtype="<u8")
    return (raw & np.uint64(lbe.u_domain - 1)).reshape(count, slot_len)


def _assert_batch_matches_scalar(p, count, lbe):
    seed = Seed(bytes([6]) * 32)
    alice, bob = lbe_batch(p, count, seed=seed, lbe=lbe)
    assert validate_inventories(alice, bob)
    u = _lbe_u_draws(seed, p.modulus, count, p.beta, lbe)
    for i in range(count):
        s_A = int(alice.s_A[i])
        for j in range(p.beta):
            r_B = pow(int(bob.r_B_inv[i, j]), -1, p.modulus.q)
            args = (s_A, int(bob.s_B[i, j]), r_B, int(u[i, j]))
            want = lbe_sim_tuple(lbe, *args)
            assert _residue_loop_reconstruct(lbe, *args) % p.modulus.q == want
            assert int(alice.r_A[i, j]) == want


def test_lbe_batch_matches_scalar_across_ragged_chunks(monkeypatch):
    # 64-slot chunks of 4 rows at beta=15: 10 rows give chunks 4, 4 and 2
    monkeypatch.setattr(lbe_mod, "_CHUNK_SLOTS", 64)
    p = params_small()
    _assert_batch_matches_scalar(p, 10, lbe_params_for(p.modulus, p.lam))


def test_lbe_batch_matches_scalar_single_modulus():
    p = params_small()
    one = lbe_params_for(p.modulus, p.lam, m=1)
    assert one.u_domain == 1
    _assert_batch_matches_scalar(p, 6, one)


def test_lbe_batch_matches_scalar_lambda40_width3():
    # 40-bit q_i: each CRT basis term is near 2^77, far past int64
    p = derive_params(1 << 8, 3, sigma=25)
    assert p.modulus.byte_len == 3
    lbe = lbe_params_for(p.modulus, 40)
    assert min(lbe.q_i) > 1 << 36 and lbe.Q_prime > 1 << 76
    _assert_batch_matches_scalar(p, 4, lbe)


def test_lbe_reconstruct_matches_residue_loop_at_extremes():
    p = derive_params(1 << 8, 3, sigma=25)
    Q = p.modulus.q
    lbe = lbe_params_for(p.modulus, 40)
    top = lbe.u_domain - 1
    for args in [(Q - 1, Q - 1, 1, top), (Q - 1, Q - 1, Q - 1, top), (0, 0, 1, 0),
                 (Q - 1, 0, 2, top), (12345, 6789, Q - 2, 1 << 39)]:
        assert lbe_reconstruct(lbe, *args) == _residue_loop_reconstruct(lbe, *args)


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
