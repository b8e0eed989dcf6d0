"""Offline backends: seeded, dealer, OT/Gilboa, LBE simulation."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from olepsi.field import FieldError, InversionOfZero, PrimeModulus
from olepsi.modvec import dtype_for
from olepsi.offline import (
    BACKENDS,
    DealerAssistedOt,
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
from olepsi.offline import dealer as dealer_mod
from olepsi.offline import lbe as lbe_mod
from olepsi.offline.lbe import LbeSimParams, lbe_batch, lbe_reconstruct
from olepsi.params import derive_params
from olepsi.prg import Prg, Seed
from olepsi.transport import TransportError
from olepsi.tuples import (
    inventory_token,
    load_inventories,
    save_inventories,
    validate_inventories,
)

from blocks import alice_inventory, bob_inventory

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
    assert (b1.r_B == b2.r_B).all() and (b1.s_B == b2.s_B).all()
    assert (b1.r_B_inv == b2.r_B_inv).all()


def test_gen_seeded_validates():
    p = params_small()
    a, b = gen_seeded(Seed.random(), 9, p.modulus, p.beta)
    assert validate_inventories(a, b)
    first_a = alice_inventory(p.modulus, a.s_A[:1], a.r_A[:1])
    first_b = bob_inventory(p.modulus, b.r_B[:1], b.r_B_inv[:1], b.s_B[:1])
    assert validate_inventories(first_a, first_b)
    assert len(a) == 9 and a.slot_len == p.beta


def test_gen_seeded_golden_vector():
    # frozen on first run: all-zero seed, q=6151 parameter row, one batch
    p = params_q6151()
    assert p.modulus.q == 6151 and p.beta == 26
    a, b = gen_seeded(Seed(bytes(32)), 1, p.modulus, p.beta)
    assert a.s_A.tolist() == [250]
    assert a.r_A[0].tolist() == [
        3629, 4272, 6141, 5116, 3584, 2608, 5821, 1895, 2996, 5604, 1577,
        3962, 613, 2559, 335, 1523, 5971, 3964, 3074, 4955, 5178, 2176,
        915, 1836, 5518, 5420,
    ]
    assert b.r_B[0].tolist() == [
        2838, 806, 2349, 29, 1534, 6099, 5611, 2457, 2592, 2734, 6008,
        3003, 1747, 5891, 5325, 4951, 5493, 393, 361, 2856, 2048, 5009,
        5864, 4862, 5889, 924,
    ]
    assert b.s_B[0].tolist() == [
        2078, 4573, 864, 490, 4763, 5607, 5722, 5609, 2820, 5096, 1826,
        1602, 387, 4869, 5986, 5148, 1321, 1399, 2284, 3930, 6121, 5913,
        1638, 1281, 5670, 916,
    ]
    assert validate_inventories(a, b)


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
        assert b.block.shape == (len(b), b.slot_len, 3)
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
    def fake_s_a(seed, modulus, count, domain):
        return np.full(count, 4, dtype=np.int64)

    def fake_bob(seed, modulus, count, slot_len, domain):
        shape = (count, slot_len)
        return bob_inventory(
            modulus,
            np.full(shape, 3, dtype=np.int64),
            np.full(shape, 4, dtype=np.int64),
            np.full(shape, 2, dtype=np.int64),
        )

    monkeypatch.setattr(dealer_mod, "expand_s_a", fake_s_a)
    monkeypatch.setattr(dealer_mod, "expand_bob_inventory", fake_bob)
    # sections (1, 1) of bins and (0, 1) of stash over F_11
    p = SimpleNamespace(modulus=M11, alpha=1, beta=1, stash_size=0, n=1)
    msg = dealer_mod.dealer_generate(Seed(bytes(32)), Seed(bytes([1]) * 32), p)
    assert int(msg.to_alice[1][0][0, 0]) == 2


def test_dealer_alice_expansion_golden_prefix():
    # frozen on first run: seed 0x01..01, small parameter set
    p = replace(params_small(), alpha=5)
    msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    alice = expand_alice(msg.to_alice[0], msg.to_alice[1], p)
    assert alice[0].s_A[:4].tolist() == [157, 43, 24, 43]


@pytest.mark.parametrize(
    "k, sigma, q, token, alice_sha, bob_sha, dealer_sha",
    [
        (2, 20, 4099, "1aabf85980d597a88715ce26726637e9",
         "9a212147ddc1be1aa4feef6bff4fcc2ed9ab93ab56819c34c7725c8ee8b38e82",
         "9bff1a90185b370e97734938d45759dcc296da16faececff468de9502a30f8a3",
         "74f1e7e79832833e2ae4913a248ebbc4e560808bb30cc6bc215c1b1f75a86bf1"),
        (3, 25, 393241, "0c09b4e59f5879db925fe14b02edd757",
         "b7d822bd0ed151367a24579d8d44590bc7b43793354abeb5d4d08912262622f7",
         "aa0fea890125bd3eab8b59b065790d7c9bfeef40cd761c310e5bb14a59e7ef78",
         "caf4944ce16eac3c8af7a6a3ede8b807cb7eef267b8cbbb02a9edb680836b0dd"),
    ],
)
def test_seed_inventory_and_dealer_bytes_golden(
    tmp_path, k, sigma, q, token, alice_sha, bob_sha, dealer_sha
):
    # frozen: token, tuple files and dealer message at a 2-byte and a 3-byte q
    p = derive_params(1 << 8, k, sigma=sigma)
    assert p.modulus.q == q
    alice, bob = generate_psi_inventories("seed", p, Seed(bytes(range(32))))
    tok = inventory_token(bob)
    assert tok.hex() == token
    save_inventories(tmp_path / "a", alice, "alice", tok)
    save_inventories(tmp_path / "b", bob, "bob", tok)
    assert hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest() == alice_sha
    assert hashlib.sha256((tmp_path / "b").read_bytes()).hexdigest() == bob_sha
    msg = dealer_generate(Seed(bytes(32)), Seed(bytes([1]) * 32), replace(p, alpha=5))
    data = encode_to_alice(msg, p.modulus)
    assert hashlib.sha256(data).hexdigest() == dealer_sha


@pytest.mark.parametrize(
    "backend, k, sigma, q, token, alice_sha",
    [
        ("ot", 2, 20, 4099, "e6e2d608b1a420375ac2b160565f0085",
         "f9c2a578640f4514af1b81ef6bb41e7b73e21ccda2b88dd5da6edabbffcd6b04"),
        ("ot", 3, 25, 393241, "1b5c98c04d6755d421ff59ae6748c664",
         "4b43e0bac535b0b990ab9a48d46b509bc32b709bd1836f7b240f5d94bdf0801e"),
        ("lbe-sim", 2, 20, 4099, "8ac54e6e7ba28c4c6f9440acc2dc67f0",
         "cf7840463d29edf2e14db104dac96a3e3442bd0edcb4ea6c062cd83211b76610"),
        ("lbe-sim", 3, 25, 393241, "ecdd7615e66da485e015cf460e79314d",
         "f8c6ac9843b2b5c06026a248bca5a0a279f17876e3967cfa5dd949a6820519a4"),
    ],
)
def test_ot_and_lbe_inventory_golden(tmp_path, backend, k, sigma, q, token, alice_sha):
    # frozen: Bob's token and Alice's tuple file, with (k=2) and without a stash
    p = derive_params(1 << 8, k, sigma=sigma)
    assert p.modulus.q == q and (p.stash_size > 0) == (k == 2)
    alice, bob = generate_psi_inventories(backend, p, Seed(bytes(range(32))))
    tok = inventory_token(bob)
    assert tok.hex() == token
    save_inventories(tmp_path / "a", alice, "alice", tok)
    assert hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest() == alice_sha


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
    assert [(r.delta, r.e0, r.e1, r.cstar, r.pad) for r in ot.receiver_records] == [
        (1, 189799, 224306, 1, 596650),
        (1, 205117, 617274, 0, 169175),
        (0, 384953, 430644, 1, 355356),
        (0, 494594, 746065, 0, 415311),
        (0, 323668, 692605, 1, 93844),
        (1, 8244, 328827, 1, 778205),
    ]
    assert [r.output for r in ot.receiver_records] == out.tolist()


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
    ot = DealerAssistedOt(p.modulus, seed=Seed(bytes(32)))
    sink = []
    alice, _ = gilboa_batch(ot, p, 5, seed=Seed(bytes(32)), rho_sink=sink)
    rho = np.concatenate(sink, axis=0)
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
            args = (s_A, int(bob.s_B[i, j]), int(bob.r_B[i, j]), int(u[i, j]))
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
            assert (x.r_B == y.r_B).all() and (x.s_B == y.s_B).all()


def test_generate_psi_inventories_rejects_unknown():
    with pytest.raises(ValueError):
        generate_psi_inventories("magic", params_small())


def test_subseed_labels_are_independent():
    master = Seed(bytes(32))
    assert subseed(master, b"a") != subseed(master, b"b")
    assert subseed(master, b"a") == subseed(master, b"a")
