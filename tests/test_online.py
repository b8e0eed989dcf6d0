"""Online phase: comparison algebra, the set protocol end to end, OT from PSI.

Oracle policy: the q=11 comparison values and the {5,9}x{9,12} intersection
are pinned independently (worked by hand); protocol-level results are checked
against brute-force set intersection, which is the natural frozen oracle.
"""

import dataclasses
import importlib.util
import mmap
import os
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olepsi import online, runner
from olepsi.codec import packed_len
from olepsi.field import PrimeModulus
from olepsi.hashing import BinOverflow, build_cuckoo_table
from olepsi.modvec import alice_c, bob_reply, dtype_for, reply_dtype
from olepsi.offline import BACKENDS, gen_seeded, generate_psi_inventories
from olepsi.online import (
    PROTOCOL_VERSION,
    PsiSession,
    SeedMismatch,
    TupleExhausted,
    _setup_payload,
    derive_hash_seeds,
    frame_plan,
    ot_via_psi,
    psi_alice,
    psi_bob,
)
from olepsi.params import PARAM_TABLE, derive_params, online_bits_per_element
from olepsi.prg import Seed
from olepsi.runner import make_sessions, run_psi_pair, small_psi_engine
from olepsi.transport import (
    _HEAD,
    ALICE_C,
    BOB_D,
    MAX_PAYLOAD,
    SETUP,
    Frame,
    OversizeFrame,
    UnexpectedType,
    memory_channel_pair,
    send_elements,
    send_frame,
)
from olepsi.tuples import inventory_token, load_inventories, save_inventories

from blocks import bob_inventory, psi_once

M11 = PrimeModulus(11)
_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _ints(*rows):
    return np.array(rows, dtype=np.int64)


def _reply(c, y_enc, s_B, r_B_inv, q):
    """Bob's replies to c (rows,) for encodings y_enc (rows, L), one shared
    tuple half (s_B, r_B_inv) in every slot."""
    shape = np.shape(y_enc)
    inv = bob_inventory(PrimeModulus(q), np.full(shape, r_B_inv), np.full(shape, s_B))
    return bob_reply(np.asarray(c), np.asarray(y_enc), inv.block, q)


def test_compare_alice_c_pinned():
    # x_enc = 5, s_A = 4  ->  c = 4 - 5 = 10 (mod 11)
    assert alice_c(_ints(4), 5, 11).tolist() == [10]


def test_compare_bob_d_pinned_match():
    # c = 10, y_enc = 5, s_B = 2, r_B_inv = 4  ->  d = (10+5+2)*4 = 2 (mod 11)
    assert _reply(_ints(10), [[5]], 2, 4, 11).tolist() == [[2]]


def test_compare_bob_d_pinned_mismatch():
    # same tuple, y_enc = 7  ->  d = (10+7+2)*4 = 10 (mod 11)
    assert _reply(_ints(10), [[7]], 2, 4, 11).tolist() == [[10]]


def test_compare_alice_check():
    # tuple (r_A, r_B, s_A, s_B) = (2, 3, 4, 2): d equals r_A = 2 only for
    # the matching encoding
    c = alice_c(_ints(4), 5, 11)
    d = _reply(c, [[5, 7]], 2, 4, 11)
    assert (d == 2).tolist() == [[True, False]]


def test_comparison_exhaustive_small_field():
    """d = r_A iff x = y, over every (x, y) pair at q = 31, one fresh tuple
    per pair."""
    q = 31
    m = PrimeModulus(q)
    alice, bob = gen_seeded(Seed(b"\x31" * 32), q * q, m, 1, domain=b"exh")
    x, y = np.divmod(np.arange(q * q), q)
    c = alice_c(alice.s_A, x, q)
    d = bob_reply(c, y[:, None], bob.block, q)
    assert ((d == alice.r_A)[:, 0] == (x == y)).all()


def test_comparison_supports_r_a_zero():
    """r_A = 0 is a legal tuple value and the equality test still works."""
    q = 11
    # r_A = 0 forces s_B = -s_A; pick s_A = 3, r_B = 5
    s_A, r_B = 3, 5
    s_B = -s_A % q
    r_A = (s_A + s_B) * pow(r_B, -1, q) % q
    assert r_A == 0
    c = alice_c(np.full(q, s_A), np.arange(q), q)  # row x
    d = _reply(c, np.tile(np.arange(q), (q, 1)), s_B, pow(r_B, -1, q), q)  # slot y
    assert ((d == r_A) == np.eye(q, dtype=bool)).all()


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([11, 31, 251]),
    x=st.integers(min_value=0, max_value=250),
    y=st.integers(min_value=0, max_value=250),
    raw=st.integers(min_value=0, max_value=2**62),
)
def test_comparison_equivalence_property(q, x, y, raw):
    x, y = x % q, y % q
    s_A = raw % q
    r_B = 1 + (raw // q) % (q - 1)
    s_B = (raw // q // (q - 1)) % q
    r_A = (s_A + s_B) * pow(r_B, -1, q) % q
    c = alice_c(_ints(s_A), x, q)
    d = _reply(c, [[y]], s_B, pow(r_B, -1, q), q)
    assert (int(d[0, 0]) == r_A) == (x == y)


@pytest.mark.parametrize("q", [32749, 32771])  # either side of 2^15
def test_bob_reply_matches_scalar_formula_at_extremes(q):
    """The vectorized reply equals (c + enc + s_B) * r_B_inv mod q per slot,
    with every input at q - 1 in some rows, for q either side of 2^15."""
    rng = np.random.default_rng(q)
    rows, slot = 40, 7
    c = rng.integers(0, q, rows)
    enc = rng.integers(0, q, (rows, slot))
    s_B = rng.integers(0, q, (rows, slot))
    r_B_inv = rng.integers(1, q, (rows, slot))
    for a in (c, enc, s_B, r_B_inv):
        a[:5] = q - 1
    block = np.stack([r_B_inv, s_B], axis=-1).astype(np.uint16)
    d = bob_reply(c.astype(np.uint16), enc.astype(np.uint16), block, q)
    expect = [
        [(int(c[i]) + int(enc[i, j]) + int(s_B[i, j])) * int(r_B_inv[i, j]) % q
         for j in range(slot)]
        for i in range(rows)
    ]
    assert d.tolist() == expect


def _two_reductions(c, enc, s_B, r_B_inv, q):
    """The reply as computed before one reduction per slot sufficed: reduce
    the sum, then the product, in int64."""
    t = (c[:, None].astype(np.int64) + enc + s_B) % q
    return t * r_B_inv % q


@pytest.mark.parametrize("q", [
    8209,          # psi-512k-k2-tcp
    37831,         # largest prime with 3 (q - 1)^2 below 2^32: uint32
    37847,         # smallest prime above it: uint64
    (1 << 31) - 1,  # largest prime below MAX_Q
])
def test_bob_reply_one_reduction_matches_two(q):
    """One reduction per slot gives bit-identical replies to reducing the sum
    first, with every input at its largest value in some rows and Bob's
    dummy encoding (q - 1 at most) among the encodings."""
    assert reply_dtype(q) == (np.uint32 if q < 37838 else np.uint64)
    rng = np.random.default_rng(q)
    rows, slot = 300, 5
    dt = dtype_for(q)
    c = rng.integers(0, q, rows).astype(dt)
    enc = rng.integers(0, q, (rows, slot)).astype(dt)
    s_B = rng.integers(0, q, (rows, slot)).astype(dt)
    r_B_inv = rng.integers(1, q, (rows, slot)).astype(dt)
    for a in (c, enc, s_B, r_B_inv):
        a[:7] = q - 1
    d = bob_reply(c, enc, np.stack([r_B_inv, s_B], axis=-1), q)
    assert d.dtype == dt
    assert (d == _two_reductions(c, enc, s_B, r_B_inv, q)).all()


def test_bob_reply_reads_loaded_block_and_stash_piece(tmp_path):
    """The reply over a block mapped from a tuple file (read-only, its
    payload at byte 37, so its words are unaligned) and over one column
    piece of a stash row equals reducing the sum, then the product."""
    p = derive_params(1 << 10, 2, sigma=24)  # 2-byte words: blocks are views of the mapping
    q = p.modulus.q
    _, bob_secs = generate_psi_inventories("seed", p, Seed(b"\x0e" * 32))
    path = tmp_path / "bob.tup"
    save_inventories(path, bob_secs, "bob", inventory_token(bob_secs))
    (bins, stash), _ = load_inventories(path, "bob")
    assert not bins.block.flags.writeable and not bins.block.flags.aligned
    rng = np.random.default_rng(q)
    dt = dtype_for(q)
    c = rng.integers(0, q, len(bins)).astype(dt)
    enc = rng.integers(0, q, (len(bins), p.beta)).astype(dt)
    c[:3] = enc[:3] = q - 1
    d = bob_reply(c, enc, bins.block, q)
    assert (d == _two_reductions(c, enc, bins.s_B, bins.r_B_inv, q)).all()

    row, cols = 1, slice(300, 700)  # a piece that starts and ends mid-row
    enc_st = rng.integers(0, q, p.n).astype(dt)
    enc_rows = np.broadcast_to(enc_st[cols], (1, cols.stop - cols.start))
    c_st = c[row : row + 1]
    d = bob_reply(c_st, enc_rows, stash.block[row : row + 1, cols], q)
    expect = _two_reductions(
        c_st, enc_rows, stash.s_B[row : row + 1, cols], stash.r_B_inv[row : row + 1, cols], q
    )
    assert (d == expect).all()


def test_bob_reply_cuts_a_wide_row_into_passes():
    """A row wider than one pass (every k=2 stash frame is n slots wide) is
    cut into passes of at most 2^16 slots, as a bins frame's rows are: the
    traced peak is the 1 MiB reply plus about one pass's temporaries (one
    pass over the whole row peaked at 7.0 MiB), and every d equals reducing
    the sum, then the product."""
    q, slot = 8209, 1 << 19
    dt = dtype_for(q)
    rng = np.random.default_rng(q)
    c = rng.integers(0, q, 1).astype(dt)
    enc = rng.integers(0, q, (1, slot)).astype(dt)
    s_B = rng.integers(0, q, (1, slot)).astype(dt)
    r_B_inv = rng.integers(1, q, (1, slot)).astype(dt)
    block = np.stack([r_B_inv, s_B], axis=-1)
    tracemalloc.start()
    try:
        d = bob_reply(c, enc, block, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.nbytes == 1 << 20
    assert peak < d.nbytes + (1 << 20), peak / (1 << 20)
    assert (d == _two_reductions(c, enc, s_B, r_B_inv, q)).all()


def test_d_never_hits_r_a_on_mismatch_and_spreads():
    """For x != y the reply avoids r_A and looks uniform on the rest (q=31)."""
    m = PrimeModulus(31)
    q = 31
    trials = 20000
    alice, bob = gen_seeded(Seed(b"\x07" * 32), trials, m, 1, domain=b"chi")
    r_A = alice.r_A[:, 0].astype(np.int64)
    x, y = 4, 9  # fixed distinct encodings
    d = bob_reply(alice_c(alice.s_A, x, q), np.full((trials, 1), y), bob.block, q)[:, 0]
    assert not np.any(d == r_A)
    # chi-square over the q-1 reachable values per tuple: shift so r_A -> 0
    shifted = (d - r_A) % q
    counts = np.bincount(shifted, minlength=q)
    assert counts[0] == 0
    expected = trials / (q - 1)
    chi2 = float(((counts[1:] - expected) ** 2 / expected).sum())
    # df = 29; p > 0.001 means chi2 below ~59.7
    assert chi2 < 59.7


def test_derive_hash_seeds_deterministic_and_token_bound():
    p = derive_params(256, 3, sigma=16)
    a = derive_hash_seeds(p, b"\x01" * 16)
    b = derive_hash_seeds(p, b"\x01" * 16)
    c = derive_hash_seeds(p, b"\x02" * 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (4, 2)
    assert not a.flags.writeable


class TestPsiSession:
    def test_role_validation(self):
        p = derive_params(4, 3, sigma=8)
        with pytest.raises(ValueError):
            PsiSession(role="carol", params=p, inventories=(), token=bytes(16))

    def test_token_length(self):
        p = derive_params(4, 3, sigma=8)
        with pytest.raises(ValueError):
            PsiSession(role="alice", params=p, inventories=(), token=b"short")

    def test_modulus_consistency(self):
        p = derive_params(4, 3, sigma=8)
        other = derive_params(4, 3, sigma=10)
        secs, _ = generate_psi_inventories("seed", other, Seed(bytes(32)))
        with pytest.raises(TupleExhausted):
            PsiSession(role="alice", params=p, inventories=secs, token=bytes(16))

    def test_sessions_are_single_use(self):
        p = derive_params(4, 3, sigma=8)
        a, b = make_sessions(p, master_seed=Seed(bytes(32)))
        run_psi_pair(a, {1, 2}, b, {2, 3})
        a2, b2 = make_sessions(p, master_seed=Seed(bytes(32)))
        with pytest.raises(TupleExhausted):
            run_psi_pair(a, {1, 2}, b2, {2, 3})
        with pytest.raises(TupleExhausted):
            run_psi_pair(a2, {1, 2}, b, {2, 3})


def test_psi_pinned_example():
    """X = {5, 9}, Y = {9, 12} at sigma = 16 must yield exactly {9}."""
    p = derive_params(4, 3, sigma=16)
    assert psi_once({5, 9}, {9, 12}, params=p) == {9}


def test_psi_empty_sets_and_input_independent_traffic():
    p = derive_params(4, 3, sigma=16)
    a, b = make_sessions(p, master_seed=Seed(b"\x05" * 32))
    result, sa, _ = run_psi_pair(a, set(), b, set())
    assert result == set()
    # dummy bins still produce the full fixed-size transcript
    assert sa.elements_sent == p.alpha + p.stash_size
    assert sa.elements_received == p.alpha * p.beta + p.stash_size * p.n


def test_psi_disjoint_sets():
    p = derive_params(8, 3, sigma=16)
    assert psi_once({1, 2, 3}, {4, 5, 6}, params=p) == set()


def test_psi_one_side_empty():
    p = derive_params(8, 3, sigma=16)
    assert psi_once(set(), {4, 5, 6}, params=p) == set()
    assert psi_once({4, 5, 6}, set(), params=p) == set()


@pytest.mark.parametrize("backend", BACKENDS)
def test_psi_matches_brute_force_per_backend(backend):
    p = derive_params(256, 3, sigma=32)
    rng = np.random.default_rng(hash(backend) % 2**32)
    x = set(map(int, rng.choice(1 << 32, size=200, replace=False)))
    y = set(map(int, rng.choice(1 << 32, size=200, replace=False)))
    y |= set(list(x)[:37])
    while len(y) > 256:
        y.pop()
    a, b = make_sessions(p, backend=backend, master_seed=Seed(b"\x0a" * 32))
    result, sa, sb = run_psi_pair(a, x, b, y)
    assert result == x & y
    assert sa.elements_sent == p.alpha + p.stash_size
    assert sb.elements_sent == p.alpha * p.beta + p.stash_size * p.n


def test_psi_stash_path_end_to_end():
    """A k=2 configuration whose cuckoo build leaves an element on the stash."""
    # seed 112 is the first from 25 up whose session seeds stash an element
    p = derive_params(64, 2, sigma=16, stash_size=4)
    master = Seed((112).to_bytes(32, "little"))
    rng = np.random.default_rng(112)
    x = set(map(int, rng.choice(1 << 16, size=64, replace=False)))
    a, b = make_sessions(p, master_seed=master)
    table = build_cuckoo_table(x, p, seeds=a.seeds)
    assert len(table.stash) >= 1  # the configuration this test exists for
    stash_item = int(table.stash[0])

    y = set(sorted(x)[:10]) | {stash_item, 65535, 40000}
    result, sa, _ = run_psi_pair(a, x, b, y)
    assert result == x & y
    assert stash_item in result
    assert sa.elements_sent == p.alpha + p.stash_size
    assert sa.elements_received == p.alpha * p.beta + p.stash_size * p.n


def test_psi_stash_nonmember_does_not_match():
    p = derive_params(64, 2, sigma=16, stash_size=4)
    master = Seed((112).to_bytes(32, "little"))
    rng = np.random.default_rng(112)
    x = set(map(int, rng.choice(1 << 16, size=64, replace=False)))
    a, b = make_sessions(p, master_seed=master)
    table = build_cuckoo_table(x, p, seeds=a.seeds)
    stash_item = int(table.stash[0])
    y = {v for v in range(32, 96) if v not in x}
    result, _, _ = run_psi_pair(a, x, b, y)
    assert stash_item not in result
    assert result == x & y


class TestSetupRejections:
    def test_token_mismatch(self):
        p = derive_params(16, 3, sigma=16)
        a, _ = make_sessions(p, master_seed=Seed(bytes(32)))
        _, b = make_sessions(p, master_seed=Seed(b"\x01" * 32))
        with pytest.raises(SeedMismatch, match="token"):
            run_psi_pair(a, {1}, b, {2})

    def test_params_digest_mismatch(self):
        p1 = derive_params(16, 3, sigma=16)
        p2 = derive_params(16, 3, sigma=16, stash_size=1)
        a, _ = make_sessions(p1, master_seed=Seed(bytes(32)))
        _, b = make_sessions(p2, master_seed=Seed(bytes(32)))
        with pytest.raises(SeedMismatch, match="digest"):
            run_psi_pair(a, {1}, b, {2})

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_oversize_setup_header_rejected_at_once(self, role, channel_pair):
        # a header declaring a 2^30-byte SETUP, with no payload behind it:
        # waiting for the payload would end in ChannelClosed after 30 s
        p = derive_params(16, 3, sigma=16)
        a, b = make_sessions(p, master_seed=Seed(bytes(32)))
        chan_peer, chan = channel_pair(timeout=30.0)
        chan_peer.send_bytes(_HEAD.pack(1 << 30, SETUP))
        session, run = (a, psi_alice) if role == "alice" else (b, psi_bob)
        with pytest.raises(OversizeFrame):
            run(session, {1}, chan)

    def test_bob_rejects_non_setup_frame(self, channel_pair):
        p = derive_params(16, 3, sigma=16)
        _, b = make_sessions(p, master_seed=Seed(bytes(32)))
        chan_a, chan_b = channel_pair(timeout=2.0)
        send_frame(chan_a, Frame(ALICE_C, b"\x00\x00"))
        with pytest.raises(UnexpectedType):
            psi_bob(b, {1}, chan_b)


class TestTupleExhaustion:
    def test_missing_stash_section(self):
        p = derive_params(64, 2, sigma=16, stash_size=4)
        a, b = make_sessions(p, master_seed=Seed(bytes(32)))
        a.inventories = (a.inventories[0],)
        with pytest.raises(TupleExhausted, match="stash"):
            run_psi_pair(a, {1}, b, {2})

    @pytest.mark.parametrize("extra", [-1, 1], ids=["alpha-1", "alpha+1"])
    def test_too_few_bin_batches(self, extra, channel_pair):
        # extra bin batches are refused before SETUP as well as missing ones
        p = derive_params(16, 3, sigma=16)
        a, b = make_sessions(p, master_seed=Seed(bytes(32)))
        other = dataclasses.replace(p, alpha=p.alpha + extra)
        a.inventories, _ = generate_psi_inventories("seed", other, Seed(bytes(32)))
        chan_a, chan_b = channel_pair(timeout=5.0)
        with pytest.raises(TupleExhausted, match="bin batches"):
            psi_alice(a, {1}, chan_a)
        assert chan_a.stats.bytes_sent == 0

    def test_wrong_slot_length(self):
        p = derive_params(16, 3, sigma=16)
        wrong = dataclasses.replace(p, beta=p.beta + 1)
        a, b = make_sessions(p, master_seed=Seed(bytes(32)))
        bad_secs, _ = generate_psi_inventories("seed", wrong, Seed(bytes(32)))
        a.inventories = bad_secs
        with pytest.raises(TupleExhausted, match="slot length"):
            run_psi_pair(a, {1}, b, {2})


def test_bin_overflow_propagates():
    p = derive_params(4, 3, sigma=8)
    tight = dataclasses.replace(p, beta=1)
    a, b = make_sessions(tight, master_seed=Seed(bytes(32)))
    # 3 elements hash to 9 slots over 6 bins: some bin must exceed beta = 1
    with pytest.raises(BinOverflow):
        run_psi_pair(a, {1, 2, 3}, b, {1, 2, 3})


def test_role_enforcement():
    p = derive_params(4, 3, sigma=8)
    a, b = make_sessions(p, master_seed=Seed(bytes(32)))
    with pytest.raises(ValueError):
        run_psi_pair(b, {1}, a, {2})


@pytest.mark.parametrize("fail", [False, True], ids=["ok", "tuple-exhausted"])
def test_run_psi_pair_closes_both_channel_ends(monkeypatch, fail):
    p = derive_params(4, 3, sigma=8)
    a, b = make_sessions(p, master_seed=Seed(bytes(32)))
    pairs = []

    def capture(*args):
        pairs.append(memory_channel_pair(*args))
        return pairs[-1]

    monkeypatch.setattr(runner, "memory_channel_pair", capture)
    if fail:
        a.inventories = ()
        with pytest.raises(TupleExhausted):
            run_psi_pair(a, {1, 2}, b, {2, 3})
    else:
        assert run_psi_pair(a, {1, 2}, b, {2, 3})[0] == {2}
    (chan_a, chan_b), = pairs
    assert chan_a._sock.fileno() == -1 and chan_b._sock.fileno() == -1


@pytest.mark.parametrize("n, sigma", [(1 << 8, 12), (1 << 8, 16), (1 << 10, 20)])
def test_bench_sets_match_np_unique_draw(n, sigma):
    # the sets for default_rng(0xB17) are those of the np.unique pool; at
    # sigma = 12 and 16 the 3n + 16 draws hold repeats
    p = dataclasses.replace(derive_params(n, 2), sigma=sigma)
    rng = np.random.default_rng(0xB17)
    draw = rng.integers(0, 1 << sigma, size=3 * n + 16, dtype=np.uint64)
    pool = np.unique(draw)
    assert pool.size < draw.size or sigma == 20
    rng.shuffle(pool)
    need = n + (n - n // 2)
    x = set(map(int, pool[:n]))
    y = set(map(int, pool[: n // 2])) | set(map(int, pool[n:need]))
    assert runner.bench_sets(p, np.random.default_rng(0xB17)) == (x, y)
    assert len(x) == len(y) == n


def test_wire_token_matches_inventory_token():
    p = derive_params(16, 3, sigma=16)
    _, bob_secs = generate_psi_inventories("seed", p, Seed(b"\x09" * 32))
    assert len(inventory_token(bob_secs)) == 16
    assert PROTOCOL_VERSION == 5


class TestOtViaPsi:
    def test_truth_table(self):
        engine = small_psi_engine()
        for choice in (0, 1):
            for y0 in (0, 1):
                for y1 in (0, 1):
                    got = ot_via_psi(choice, y0, y1, engine)
                    assert got == (y1 if choice else y0)

    def test_pinned_example(self):
        # choice=0, y0=0, y1=1: sender set {2, 1}, receiver {0} -> empty -> 0
        seen = {}

        def spy(recv, send):
            seen["recv"], seen["send"] = set(recv), set(send)
            return seen["recv"] & seen["send"]

        assert ot_via_psi(0, 0, 1, spy) == 0
        assert seen == {"recv": {0}, "send": {1, 2}}
        assert ot_via_psi(1, 0, 1, spy) == 1
        assert seen["send"] == {1, 2}

    def test_rejects_non_bits(self):
        engine = lambda a, b: a & b
        with pytest.raises(ValueError):
            ot_via_psi(2, 0, 1, engine)
        with pytest.raises(ValueError):
            ot_via_psi(0, 3, 1, engine)


def test_random_instances_small_sweep():
    """A quick randomized sweep; the wide version lives in the acceptance suite."""
    p = derive_params(64, 3, sigma=32)
    rng = np.random.default_rng(123)
    for trial in range(5):
        nx, ny = int(rng.integers(0, 65)), int(rng.integers(0, 65))
        x = set(map(int, rng.choice(1 << 32, size=nx, replace=False)))
        y = set(map(int, rng.choice(1 << 32, size=ny, replace=False)))
        if x and rng.integers(0, 2):
            y |= set(list(x)[: int(rng.integers(1, len(x) + 1))])
            while len(y) > 64:
                y.pop()
        a, b = make_sessions(p, master_seed=Seed(bytes([trial] * 32)))
        result, _, _ = run_psi_pair(a, x, b, y)
        assert result == x & y


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("n, k", sorted(PARAM_TABLE))
def test_frame_plan_bounded_at_every_table_row(n, k):
    # computed from the parameters alone: nothing of size n is allocated
    p = derive_params(n, k)
    up, down = frame_plan(p)
    for cut in up + down:
        assert 0 < cut.count <= online._CHUNK
        assert packed_len(cut.count, p.modulus.bit_len) < MAX_PAYLOAD
    # the closed forms, written out: one c per bin and per stash row, beta
    # d-values per bin and n per stash row
    assert sum(cut.count for cut in up) == p.alpha + p.stash_size
    assert sum(cut.count for cut in down) == p.alpha * p.beta + p.stash_size * p.n
    log_q = p.modulus.bit_len
    assert online_bits_per_element(p) == Fraction(
        (p.alpha * (p.beta + 1) + p.stash_size * (p.n + 1)) * log_q, p.n
    )
    # each section's frames tile its rows x columns in row-major order
    for cuts, widths in ((up, {"bins": 1, "stash": 1}), (down, {"bins": p.beta, "stash": p.n})):
        pos = {"bins": 0, "stash": 0}
        for cut in cuts:
            width = widths[cut.section]
            assert cut.rows.start * width + cut.cols.start == pos[cut.section]
            pos[cut.section] += cut.count
        assert pos == {"bins": p.alpha * widths["bins"], "stash": p.stash_size * widths["stash"]}


@pytest.mark.parametrize("chunk", [None, 1000])
def test_traced_psi_bytes_and_frames_match_stats_and_plan(monkeypatch, chunk):
    # chunk 1000 cuts Bob's reply into many bin ranges and every n = 1024
    # stash row into two pieces
    if chunk is not None:
        monkeypatch.setattr(online, "_CHUNK", chunk)
    p = derive_params(1 << 10, 2)
    assert p.stash_size > 0
    rng = np.random.default_rng(10)
    pool = rng.choice(1 << 32, size=2 * p.n - 300, replace=False).tolist()
    x, y = set(pool[: p.n]), set(pool[p.n - 300 :])
    a, b = make_sessions(p, master_seed=Seed(b"\x0b" * 32))
    tracer = _load_tracer()(run_id=0, process="test")
    tracer.install()
    try:
        result, sa, sb = run_psi_pair(a, x, b, y)
    finally:
        tracer.uninstall()
    assert result == x & y
    values = tracer.layer_values()
    traced = sum(values[f"transport.bytes.{kind}"] for kind in ("setup", "alice_c", "bob_d"))
    assert traced == sa.bytes_sent + sb.bytes_sent == sa.bytes_sent + sa.bytes_received
    up, down = frame_plan(p)
    assert values["transport.frames"] == len(up) + len(down) + 2  # and two SETUP frames
    if chunk is not None:
        assert len(down) > 4


def test_stash_match_found_across_cut_rows(monkeypatch):
    # the stash path of test_psi_stash_path_end_to_end with every n = 64
    # stash row cut into four frames
    monkeypatch.setattr(online, "_CHUNK", 16)
    p = derive_params(64, 2, sigma=16, stash_size=4)
    master = Seed((112).to_bytes(32, "little"))
    rng = np.random.default_rng(112)
    x = set(map(int, rng.choice(1 << 16, size=64, replace=False)))
    a, b = make_sessions(p, master_seed=master)
    stash_item = int(build_cuckoo_table(x, p, seeds=a.seeds).stash[0])
    y = set(sorted(x)[:10]) | {stash_item, 65535, 40000}
    result, sa, _ = run_psi_pair(a, x, b, y)
    assert result == x & y
    assert stash_item in result
    assert sa.elements_received == p.alpha * p.beta + p.stash_size * p.n


def test_alice_match_finds_hits_at_frame_edges(channel_pair, monkeypatch):
    """Bob's replies are forged to equal r_A in the first slot of a frame's
    first row and the last slot of its last row, in one bins frame and one
    stash piece; Alice reports exactly the elements behind those rows. A
    hit in an empty bin or an unused stash row is never reported."""
    monkeypatch.setattr(online, "_CHUNK", 48)  # 3-row bin frames, 64-slot stash rows in two pieces
    p = derive_params(64, 2, sigma=16, stash_size=4)
    rng = np.random.default_rng(112)
    x = set(map(int, rng.choice(1 << 16, size=64, replace=False)))
    a, b = make_sessions(p, master_seed=Seed((112).to_bytes(32, "little")))
    table = build_cuckoo_table(x, p, seeds=a.seeds)
    assert 0 < len(table.stash) < p.stash_size
    _, down = frame_plan(p)
    origins = table.origins
    bins_cut = next(
        cut for cut in down
        if cut.section == "bins" and cut.rows.start > 0 and cut.shape[0] > 1
        and origins[cut.rows.start] >= 0 and origins[cut.rows.stop - 1] >= 0
    )
    stash_cut = next(cut for cut in down if cut.section == "stash" and cut.cols.start > 0)
    assert stash_cut.rows.start < len(table.stash)
    planted = {  # (row, slot) of each forced hit, in section coordinates
        "bins": [
            (bins_cut.rows.start, 0),
            (bins_cut.rows.stop - 1, p.beta - 1),
            (int(np.flatnonzero(origins < 0)[0]), 0),  # an empty bin
        ],
        "stash": [
            (stash_cut.rows.start, stash_cut.cols.start),
            (stash_cut.rows.start, stash_cut.cols.stop - 1),
            (len(table.stash), p.n - 1),  # a stash row with no item
        ],
    }
    chan_a, chan_b = channel_pair(timeout=5.0)
    send_frame(chan_b, Frame(SETUP, _setup_payload(b)))
    invs = dict(zip(("bins", "stash"), a.inventories))
    for cut in down:
        r_A = invs[cut.section].r_A[cut.rows, cut.cols].astype(np.int64)
        d = (r_A + 1) % p.modulus.q
        for row, slot in planted[cut.section]:
            if cut.rows.start <= row < cut.rows.stop and cut.cols.start <= slot < cut.cols.stop:
                i, j = row - cut.rows.start, slot - cut.cols.start
                d[i, j] = r_A[i, j]
        send_elements(chan_b, BOB_D, d, p.modulus)
    result = psi_alice(a, x, chan_a)
    element = {"bins": origins.tolist(), "stash": table.stash + [-1] * p.stash_size}
    expected = {
        element[section][row]
        for section, hits in planted.items()
        for row, _ in hits
        if element[section][row] >= 0
    }
    assert result == expected
    assert len(expected) == 3 and -1 not in result


@pytest.mark.parametrize("version", [
    1,  # byte-rounded elements, one frame per message
    # encoded stash items with a keyed SHA-256: its stash encodings differ
    # from ours, so it must be refused before any traffic
    2,
    # hashed suffixes into bins with a keyed SHA-256: its elements land in
    # other bins, so it would miss matches and must be refused
    3,
    4,  # also sent the hash seeds, which both sides now derive
])
def test_old_protocol_version_rejected_at_setup(channel_pair, version):
    p = derive_params(16, 3, sigma=16)
    a, b = make_sessions(p, master_seed=Seed(bytes(32)))
    chan_peer, chan = channel_pair(timeout=5.0)
    send_frame(chan_peer, Frame(SETUP, bytes([version]) + _setup_payload(a)[1:]))
    with pytest.raises(SeedMismatch, match=f"version {version}"):
        psi_bob(b, {1}, chan)


def test_version_4_setup_refused_at_its_header(channel_pair):
    """A real version-4 SETUP carries the k + 1 hash seeds of 16 bytes after
    the token, so it is longer than ours and refused at its header, with its
    payload left unread."""
    p = derive_params(16, 3, sigma=16)
    a, b = make_sessions(p, master_seed=Seed(bytes(32)))
    payload = bytes([4]) + _setup_payload(a)[1:] + a.seeds.tobytes()
    assert len(payload) == 97
    chan_peer, chan = channel_pair(timeout=5.0)
    send_frame(chan_peer, Frame(SETUP, payload))
    with pytest.raises(OversizeFrame):
        psi_bob(b, {1}, chan)
    assert chan.recv_bytes(len(payload)) == payload


# ------------------------------------------------- tuple rows from mapped files

# every n = 4096 stash row in two pieces, and about 50 bin frames per side
_RELEASE_CHUNK = 3000


def _loaded_run(tmp_path, monkeypatch, sigma):
    """One in-process run of both roles over tuple files loaded from disk,
    with many frames per section. Returns (params, sessions, files,
    intersection, brute-force intersection, pre-run copies of the blocks)."""
    monkeypatch.setattr(online, "_CHUNK", _RELEASE_CHUNK)
    p = derive_params(1 << 12, 2, sigma=sigma)
    alice_secs, bob_secs = generate_psi_inventories("seed", p, Seed(b"\x0c" * 32))
    token = inventory_token(bob_secs)
    sessions, files = {}, {}
    for role, secs in (("alice", alice_secs), ("bob", bob_secs)):
        files[role] = tmp_path / f"{role}.tup"
        save_inventories(files[role], secs, role, token)
        loaded, tok = load_inventories(files[role], role)
        sessions[role] = PsiSession(role=role, params=p, inventories=loaded, token=tok)
    # the copies read every row, so every page of a mapping is resident
    copies = {role: [inv.block.copy() for inv in s.inventories] for role, s in sessions.items()}
    rng = np.random.default_rng(sigma)
    pool = rng.choice(1 << sigma, size=2 * p.n - 500, replace=False).tolist()
    x, y = set(pool[: p.n]), set(pool[p.n - 500 :])
    result, _, _ = run_psi_pair(sessions["alice"], x, sessions["bob"], y)
    return p, sessions, files, result, x & y, copies


@pytest.mark.parametrize("sigma", [24, 32])  # 2-byte words mapped, 3-byte words copied
def test_released_tuple_rows_read_back_unchanged(tmp_path, monkeypatch, sigma):
    p, sessions, _, result, expected, copies = _loaded_run(tmp_path, monkeypatch, sigma)
    _, down = frame_plan(p)
    assert len(down) > 10 and any(cut.cols.start > 0 for cut in down)
    assert result == expected
    for role, session in sessions.items():
        for inv, before in zip(session.inventories, copies[role], strict=True):
            assert np.array_equal(inv.block, before)


def _mapped_rss(path):
    """Resident bytes of this process's mappings of `path` (/proc/self/smaps)."""
    target, rss, inside = os.path.realpath(path), 0, False
    with open("/proc/self/smaps") as f:
        for line in f:
            head = line.split()
            if not head[0].endswith(":"):  # a mapping's first line
                inside = " ".join(head[5:]) == target
            elif inside and head[0] == "Rss:":
                rss += int(head[1]) * 1024
    return rss


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
@pytest.mark.parametrize("sigma", [24, 32])
def test_mapped_tuple_rows_do_not_stay_resident(tmp_path, monkeypatch, sigma):
    p, sessions, files, result, expected, _ = _loaded_run(tmp_path, monkeypatch, sigma)
    assert result == expected
    _, down = frame_plan(p)
    for role, session in sessions.items():
        invs = dict(zip(("bins", "stash"), session.inventories))
        frame = max(invs[cut.section].block[cut.rows].nbytes for cut in down)
        assert _mapped_rss(files[role]) <= frame + 2 * mmap.PAGESIZE


def test_alice_releases_every_up_row_before_her_first_d_frame(tmp_path, monkeypatch):
    """Alice computes each c frame in passes of at most _PASS_ROWS rows and
    releases each pass once its c is computed, so every row of her mapped
    file is released before the first d frame arrives."""
    events = []  # (kind, inventory, rows), from both roles' threads
    release = online.release_rows
    recv = online.recv_elements

    def recording_release(inv, rows):
        events.append(("release", inv, rows))
        release(inv, rows)

    def recording_recv(channel, msg_type, *args):
        if msg_type == BOB_D:
            events.append(("d", None, None))
        return recv(channel, msg_type, *args)

    monkeypatch.setattr(online, "release_rows", recording_release)
    monkeypatch.setattr(online, "recv_elements", recording_recv)
    monkeypatch.setattr(online, "_PASS_ROWS", 1000)  # 3 passes per 3000-row c frame
    p, sessions, _, result, expected, _ = _loaded_run(tmp_path, monkeypatch, 24)
    assert result == expected
    first_d = next(i for i, (kind, _, _) in enumerate(events) if kind == "d")
    for inv in sessions["alice"].inventories:
        assert inv._rows_in_file is not None
        passes = [rows for _, owner, rows in events[:first_d] if owner is inv]
        assert all(rows.stop - rows.start <= 1000 for rows in passes)
        released = np.zeros(len(inv), bool)
        for rows in passes:
            released[rows] = True
        assert released.all()


def test_bob_bins_buffer_is_one_frame_at_every_tabulated_row():
    """psi_bob fills every bins frame into one buffer of the first bins
    cut's rows, beta wide: at most _CHUNK encodings, at every PARAM_TABLE
    row. Read off frame_plan, without allocating."""
    for n, k in PARAM_TABLE:
        p = derive_params(n, k)
        bins = [cut for cut in frame_plan(p)[1] if cut.section == "bins"]
        rows = bins[0].shape[0]
        assert all(cut.shape[0] <= rows and cut.cols == slice(0, p.beta) for cut in bins)
        itemsize = np.dtype(dtype_for(p.dummy_bob + 1)).itemsize
        assert rows * p.beta * itemsize <= online._CHUNK * itemsize


def test_bob_drops_his_keys_before_the_last_bins_reply(monkeypatch):
    """Bob's bin table (his sorted keys) lives through every bins frame but
    the last: once the last bin is filled it is dropped before that frame's
    reply, so a one-frame run holds the rows and not the keys as well."""
    tables, alive = [], []
    build, reply = online.build_bin_table, online.bob_reply

    def recording_build(*args):
        table = build(*args)
        tables.append(weakref.ref(table))
        return table

    def recording_reply(*args):
        alive.append(tables[0]() is not None)
        return reply(*args)

    monkeypatch.setattr(online, "build_bin_table", recording_build)
    monkeypatch.setattr(online, "bob_reply", recording_reply)
    monkeypatch.setattr(online, "_CHUNK", _RELEASE_CHUNK)
    p = derive_params(1 << 12, 2, stash_size=2)
    a, b = make_sessions(p, master_seed=Seed(b"\x0e" * 32))
    x = set(np.random.default_rng(1).choice(1 << 32, size=p.n, replace=False).tolist())
    assert run_psi_pair(a, x, b, set(sorted(x)[:100]))[0] == set(sorted(x)[:100])
    down = frame_plan(p)[1]
    bins = sum(cut.section == "bins" for cut in down)
    assert bins > 1 and len(down) > bins
    assert alive == [True] * (bins - 1) + [False] * (len(down) - bins + 1)


def test_generated_inventories_untouched_by_run(monkeypatch):
    monkeypatch.setattr(online, "_CHUNK", _RELEASE_CHUNK)
    p = derive_params(1 << 12, 2, sigma=24)
    a, b = make_sessions(p, master_seed=Seed(b"\x0d" * 32))
    before = [inv.block.copy() for s in (a, b) for inv in s.inventories]
    rng = np.random.default_rng(0)
    x = set(rng.choice(1 << 24, size=p.n, replace=False).tolist())
    run_psi_pair(a, x, b, set(sorted(x)[:100]))
    after = [inv.block for s in (a, b) for inv in s.inventories]
    assert all(np.array_equal(u, v) for u, v in zip(after, before, strict=True))
