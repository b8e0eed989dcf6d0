import numpy as np
import pytest
from scipy import stats

from olepsi.field import PrimeModulus
from olepsi.modvec import bob_reply, mod_inv
from olepsi.offline import gen_seeded
from olepsi.prg import Seed
from olepsi.tuples import (
    TupleFileError,
    inventory_token,
    load_inventories,
    save_inventories,
)

from blocks import alice_inventory, bob_inventory
from oracles import reference_section_bytes, validate_inventories, write_format_1_bob_file

Q11 = PrimeModulus(11)


def make_batch(modulus, s_A, slots):
    # one batch; slots: list of (r_A, r_B_inv, s_B) ints
    r_A, r_B_inv, s_B = ([list(col)] for col in zip(*slots))
    return alice_inventory(modulus, [s_A], r_A), bob_inventory(modulus, r_B_inv, s_B)


def test_validate_batch_examples():
    # r_B = 3, r_B_inv = 4: 2 * 3 = 6 = 4 + 2
    alice, bob = make_batch(Q11, 4, [(2, 4, 2)])
    assert validate_inventories(alice, bob) is True

    alice, bob = make_batch(Q11, 4, [(2, 0, 2)])
    assert validate_inventories(alice, bob) is False

    # 5 * 3 = 15 = 4 != 6
    alice, bob = make_batch(Q11, 4, [(5, 4, 2)])
    assert validate_inventories(alice, bob) is False


def test_validate_batch_checks_inverse():
    # r_B_inv = 5 is the inverse of 9, and 2 * 9 = 18 = 7 != 4 + 2
    alice, bob = make_batch(Q11, 4, [(2, 5, 2)])
    assert validate_inventories(alice, bob) is False


def test_validate_batch_length_mismatch():
    alice, _ = make_batch(Q11, 4, [(2, 4, 2)])
    _, bob = make_batch(Q11, 4, [(2, 4, 2), (2, 4, 2)])
    with pytest.raises(ValueError):
        validate_inventories(alice, bob)


def test_derive_r_A_examples():
    # r_A = (s_A + s_B) / r_B per slot: (4+2)/3, (0+0)/7, (5+6)/1 mod 11, as
    # Bob's reply to c = s_A on encoding 0
    s_A = np.array([4, 0, 5], dtype=np.uint8)
    s_B = np.array([[2], [0], [6]], dtype=np.uint8)
    r_B_inv = mod_inv(np.array([[3], [7], [1]], dtype=np.uint8), 11)
    block = np.stack([r_B_inv, s_B], axis=-1)
    assert bob_reply(s_A, np.zeros((3, 1), np.uint8), block, 11).tolist() == [[2], [0], [0]]
    with pytest.raises(ZeroDivisionError):
        mod_inv(np.array([[0]], dtype=np.uint8), 11)


@pytest.mark.parametrize("q", [
    251,            # 1-byte words
    8209,           # 2-byte words
    37831,          # largest prime whose reply dtype is uint32
    37847,          # smallest prime above it: uint64
    786449,         # 3-byte words
    (1 << 31) - 1,  # 4-byte words, largest prime below MAX_Q
])
def test_engine_r_a_matches_python_ints(q):
    # the expansion's r_A is (s_A + s_B) * r_B_inv mod q over Python ints
    alice, bob = gen_seeded(Seed(bytes([q % 256]) * 32), 40, PrimeModulus(q), 7)
    want = [
        [(s_A + s_B) * inv % q for inv, s_B in zip(inv_row, sb_row)]
        for s_A, inv_row, sb_row in zip(alice.s_A.tolist(), bob.r_B_inv.tolist(),
                                        bob.s_B.tolist())
    ]
    assert alice.r_A.tolist() == want


def test_ole_tuple_from_values():
    bob = bob_inventory(Q11, mod_inv(np.array([[3]], np.uint8), 11), [[2]])
    assert bob.r_B_inv.tolist() == [[4]]
    assert validate_inventories(alice_inventory(Q11, [4], [[2]]), bob)
    assert not validate_inventories(alice_inventory(Q11, [4], [[5]]), bob)


def test_random_tuples_always_valid():
    alice, bob = gen_seeded(Seed(bytes(32)), 200, PrimeModulus(251), 1, domain=b"tuples")
    assert validate_inventories(alice, bob)


def _slots(modulus, count, tag):
    # count independent tuples (one slot per batch) as flat int64 arrays;
    # Bob keeps no r_B, so it is the inverse of his r_B_inv
    alice, bob = gen_seeded(Seed(bytes(32)), count, modulus, 1, domain=tag)
    flat = lambda a: a.astype(np.int64).reshape(count)
    r_B_inv = flat(bob.r_B_inv)
    r_B = mod_inv(r_B_inv, modulus.q)
    return flat(alice.r_A), r_B, r_B_inv, flat(alice.s_A), flat(bob.s_B)


def test_sample_arrays_satisfy_equation():
    m = PrimeModulus(12301)
    r_A, r_B, r_B_inv, s_A, s_B = _slots(m, 50000, b"arrays")
    q = m.q
    assert (r_B_inv != 0).all()
    assert (r_B * r_B_inv % q == 1).all()
    assert (r_A * r_B % q == (s_A + s_B) % q).all()


def test_marginal_uniformity_chi_square():
    # each of r_B and r_B_inv (over F*), s_A, s_B (over F_q) individually
    # uniform: r_B_inv is drawn, and inversion permutes F*
    m = PrimeModulus(101)
    count = 100000
    _, r_B, r_B_inv, s_A, s_B = _slots(m, count, b"marginals")
    for r in (r_B, r_B_inv):
        _, p = stats.chisquare(np.bincount(r, minlength=101)[1:])
        assert p > 0.001
    _, p = stats.chisquare(np.bincount(s_A, minlength=101))
    assert p > 0.001
    _, p = stats.chisquare(np.bincount(s_B, minlength=101))
    assert p > 0.001


def _random_inventories(m, count, slot_len, tag):
    return gen_seeded(Seed(bytes(32)), count, m, slot_len, domain=tag)


def test_inventories_expose_batches():
    m = PrimeModulus(6151)
    alice, bob = _random_inventories(m, 5, 4, b"inv")
    assert len(alice) == len(bob) == 5
    assert alice.slot_len == bob.slot_len == 4
    assert alice.s_A.shape == (5,) and alice.r_A.shape == (5, 4)
    assert bob.r_B_inv.shape == bob.s_B.shape == (5, 4)
    assert bob.block.shape == (5, 4, 2)
    # row i is batch i: each one-row slice validates on its own
    for i in range(5):
        a = alice_inventory(m, alice.s_A[i : i + 1], alice.r_A[i : i + 1])
        b = bob_inventory(m, bob.r_B_inv[i : i + 1], bob.s_B[i : i + 1])
        assert validate_inventories(a, b)
    assert validate_inventories(alice, bob)


def test_validate_inventories_catches_corruption():
    m = PrimeModulus(6151)
    alice, bob = _random_inventories(m, 5, 4, b"inv2")
    alice.r_A[2, 1] = (alice.r_A[2, 1] + 1) % m.q
    assert not validate_inventories(alice, bob)
    a = alice_inventory(m, alice.s_A[2:3], alice.r_A[2:3])
    b = bob_inventory(m, bob.r_B_inv[2:3], bob.s_B[2:3])
    assert not validate_inventories(a, b)


def test_file_roundtrip(tmp_path):
    m = PrimeModulus(6151)
    alice, bob = _random_inventories(m, 7, 3, b"file")
    alice2, bob2 = _random_inventories(m, 2, 10, b"file-stash")
    token = inventory_token([bob, bob2])
    assert len(token) == 16

    apath = tmp_path / "alice.oleb"
    bpath = tmp_path / "bob.oleb"
    save_inventories(apath, [alice, alice2], "alice", token)
    save_inventories(bpath, [bob, bob2], "bob", token)

    alice_back, tok_a = load_inventories(apath, "alice")
    bob_back, tok_b = load_inventories(bpath, "bob")
    assert tok_a == tok_b == token
    assert len(alice_back) == len(bob_back) == 2
    assert np.array_equal(alice_back[0].s_A, alice.s_A)
    assert np.array_equal(alice_back[0].r_A, alice.r_A)
    assert np.array_equal(alice_back[1].r_A, alice2.r_A)
    assert np.array_equal(bob_back[0].r_B_inv, bob.r_B_inv)
    assert np.array_equal(bob_back[0].s_B, bob.s_B)
    assert np.array_equal(bob_back[1].s_B, bob2.s_B)
    assert validate_inventories(alice_back[0], bob_back[0])
    assert validate_inventories(alice_back[1], bob_back[1])


def test_file_header_layout(tmp_path):
    m = PrimeModulus(6151)
    alice, bob = _random_inventories(m, 2, 3, b"hdr")
    token = inventory_token([bob])
    path = tmp_path / "a.oleb"
    save_inventories(path, [alice], "alice", token)
    raw = path.read_bytes()
    assert raw[:4] == b"OLEA"
    assert raw[4] == 2
    assert int.from_bytes(raw[5:13], "little") == 6151
    assert int.from_bytes(raw[13:17], "little") == 2
    assert int.from_bytes(raw[17:21], "little") == 3
    assert raw[21:37] == token
    # payload: 2 batches x (1 + 3) elements x 2 bytes
    assert len(raw) == 37 + 2 * 4 * 2
    # Bob's payload: 2 batches x 3 slots x (r_B_inv, s_B) x 2 bytes, two
    # thirds of format 1's (r_B, r_B_inv, s_B) slots
    bpath = tmp_path / "b.oleb"
    save_inventories(bpath, [bob], "bob", token)
    raw = bpath.read_bytes()
    assert raw[:5] == b"OLEB\x02"
    assert len(raw) - 37 == 2 * 3 * 2 * 2 == 2 * (2 * 3 * 3 * 2) // 3
    words = np.frombuffer(raw[37:], "<u2").reshape(2, 3, 2)
    assert np.array_equal(words[:, :, 0], bob.r_B_inv)
    assert np.array_equal(words[:, :, 1], bob.s_B)


def test_file_errors(tmp_path):
    m = PrimeModulus(6151)
    alice, bob = _random_inventories(m, 2, 3, b"err")
    token = inventory_token([bob])
    path = tmp_path / "t.oleb"
    save_inventories(path, [alice], "alice", token)
    raw = path.read_bytes()

    bad = tmp_path / "bad.oleb"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(TupleFileError):
        load_inventories(bad, "alice")

    trunc = tmp_path / "trunc.oleb"
    trunc.write_bytes(raw[:-3])
    with pytest.raises(TupleFileError):
        load_inventories(trunc, "alice")

    empty = tmp_path / "empty.oleb"
    empty.write_bytes(b"")
    with pytest.raises(TupleFileError):
        load_inventories(empty, "alice")

    with pytest.raises(ValueError):
        save_inventories(tmp_path / "x.oleb", [alice], "carol", token)

    bobf = tmp_path / "b.oleb"
    save_inventories(bobf, [bob], "bob", token)
    assert bobf.read_bytes()[:4] == b"OLEB"
    with pytest.raises(TupleFileError, match="holds bob-side"):
        load_inventories(bobf, "alice")
    with pytest.raises(TupleFileError, match="holds alice-side"):
        load_inventories(path, "bob")


@pytest.mark.parametrize("count, slot_len", [(2**32 - 1, 2**32 - 1), (2**31, 4096)])
def test_section_larger_than_file_refused(tmp_path, count, slot_len):
    # refused from the header and the file size, before any read allocates
    # the declared size
    path = tmp_path / "big.oleb"
    path.write_bytes(reference_section_bytes(b"OLEB", 6151, count, slot_len, bytes(16), [])
                     + bytes(64))
    with pytest.raises(TupleFileError, match="truncated"):
        load_inventories(path, "bob")


def test_token_tracks_bob_content():
    m = PrimeModulus(6151)
    _, bob1 = _random_inventories(m, 3, 4, b"tok1")
    _, bob2 = _random_inventories(m, 3, 4, b"tok2")
    assert inventory_token([bob1]) != inventory_token([bob2])
    assert inventory_token([bob1]) == inventory_token([bob1])


def test_format_1_file_refused(tmp_path):
    m = PrimeModulus(6151)
    alice, bob = _random_inventories(m, 2, 3, b"v1")
    token = inventory_token([bob])
    write_format_1_bob_file(tmp_path / "b1.oleb", [bob], token)
    with pytest.raises(TupleFileError, match="format 1 is not supported"):
        load_inventories(tmp_path / "b1.oleb", "bob")
    # Alice's layout did not change, but her format-1 header is refused too
    save_inventories(tmp_path / "a.oleb", [alice], "alice", token)
    raw = bytearray((tmp_path / "a.oleb").read_bytes())
    raw[4] = 1
    (tmp_path / "a1.oleb").write_bytes(bytes(raw))
    with pytest.raises(TupleFileError, match="format 1"):
        load_inventories(tmp_path / "a1.oleb", "alice")


def test_save_over_a_loaded_file_keeps_its_views(tmp_path):
    # saves replace the file, so a run still reading the old mapping keeps
    # its bytes (an in-place rewrite would change them, or fault past the
    # new end of file)
    m = PrimeModulus(6151)
    path = tmp_path / "b.oleb"
    _, bob = _random_inventories(m, 300, 20, b"old")
    save_inventories(path, [bob], "bob", inventory_token([bob]))
    (old,), _ = load_inventories(path, "bob")
    before = old.block.copy()
    _, bob2 = _random_inventories(m, 3, 2, b"new")
    save_inventories(path, [bob2], "bob", inventory_token([bob2]))
    assert np.array_equal(old.block, before)
    (new,), _ = load_inventories(path, "bob")
    assert np.array_equal(new.block, bob2.block)
    assert [f.name for f in tmp_path.iterdir()] == ["b.oleb"]


def test_failed_save_leaves_the_old_file(tmp_path):
    m = PrimeModulus(6151)
    path = tmp_path / "b.oleb"
    _, bob = _random_inventories(m, 3, 4, b"kept")
    token = inventory_token([bob])
    save_inventories(path, [bob], "bob", token)
    raw = path.read_bytes()
    with pytest.raises(AttributeError):
        save_inventories(path, [bob, object()], "bob", token)
    assert path.read_bytes() == raw
    assert [f.name for f in tmp_path.iterdir()] == ["b.oleb"]
