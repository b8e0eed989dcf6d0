"""Inequality tests: the plain and keyed mismatch protocols.

The q=11 traces are worked by hand. Plain: shares [2,7,1,6] give e=5, d=7
and candidates {6,5,4,3}. Keyed, on the one-row batch s_A=5, r_B_inv=(3,4),
s_B=(1,2), r_A=(7,6), with H(4)=5 and H(2)=8 under H33: shares [3,1] give
e=4 and d=5, Alice's value e + H(4) = 9 and c = 5 - 9 = 7, and Bob's
candidates d - j + H(4) = {9, 8}; candidate 9 replies (7+9+1)*3 = 7 = r_A
in slot 0 and (7+9+2)*4 = 6 = r_A in slot 1. Everything else is checked
against the boolean x != y, which needs no oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from olepsi import mismatch as mismatch_mod
from olepsi.field import PrimeModulus
from olepsi.mismatch import (
    _ot_masked_sum,
    keyed_hash,
    mismatch_keyed,
    mismatch_plain,
    set_compare_single,
)
from olepsi.offline import gen_seeded
from olepsi.offline.ot import DealerAssistedOt
from olepsi.modvec import bob_reply
from olepsi.prg import SEED_LEN, Prg, Seed

from blocks import alice_inventory, bob_inventory
from oracles import RecordingOt, validate_inventories

M11 = PrimeModulus(11)
M17 = PrimeModulus(17)
M251 = PrimeModulus(251)
H33 = b"\x33" * 16


def _prg(tag):
    return Prg(Seed(b"\x42" * 32), tag=tag)


def random_batch(modulus, slot_len, prg):
    # one fresh shared-s_A batch, seeded from the caller's stream
    return gen_seeded(Seed(prg.read(SEED_LEN)), 1, modulus, slot_len)


class TestPlainPinnedTrace:
    """q=11, ell=4, x=5, y=6, shares [2,7,1,6]."""

    def test_masked_sum(self):
        ot = DealerAssistedOt(M11)
        d = _ot_masked_sum(5, 6, 4, [2, 7, 1, 6], ot, M11)
        assert d == 7  # e + hamming(5, 6) = 5 + 2
        assert sum([2, 7, 1, 6]) % 11 == 5
        assert [(d - j) % 11 for j in range(1, 5)] == [6, 5, 4, 3]

    def test_end_to_end(self):
        alice, bob = random_batch(M11, 4, _prg(b"pin"))
        assert set_compare_single(5, [6, 5, 4, 3], alice, bob) is True
        assert mismatch_plain(5, 6, 4, DealerAssistedOt(M11), (alice, bob)) is True

    def test_equal_inputs_stay_false(self):
        # x = y: d = e = 5, so the candidates {4, 3, 2, 1} all miss
        alice, bob = random_batch(M11, 4, _prg(b"pin2"))
        assert set_compare_single(5, [4, 3, 2, 1], alice, bob) is False
        assert mismatch_plain(6, 6, 4, DealerAssistedOt(M11), (alice, bob)) is False


def test_set_compare_single_membership():
    prg = _prg(b"scs")
    alice, bob = random_batch(M17, 5, prg)
    assert validate_inventories(alice, bob)
    assert set_compare_single(9, [3, 9, 11], alice, bob) is True
    assert set_compare_single(9, [3, 8, 11], alice, bob) is False


def test_set_compare_single_batch_too_short():
    alice, bob = random_batch(M17, 2, _prg(b"short"))
    with pytest.raises(ValueError):
        set_compare_single(1, [1, 2, 3], alice, bob)


def test_plain_exhaustive_ell_2():
    prg = _prg(b"exh2")
    for x in range(4):
        for y in range(4):
            batch = random_batch(M11, 2, prg)
            ot = DealerAssistedOt(M11)
            assert mismatch_plain(x, y, 2, ot, batch, prg=prg) == (x != y)


@settings(max_examples=60, deadline=None)
@given(
    ell=st.integers(min_value=1, max_value=6),
    x=st.integers(min_value=0, max_value=63),
    y=st.integers(min_value=0, max_value=63),
)
def test_plain_equivalence_property(ell, x, y):
    x &= (1 << ell) - 1
    y &= (1 << ell) - 1
    prg = _prg(b"prop")
    batch = random_batch(M251, ell, prg)
    ot = DealerAssistedOt(M251)
    assert mismatch_plain(x, y, ell, ot, batch, prg=prg) == (x != y)


class TestPlainValidation:
    def test_field_too_small(self):
        batch = random_batch(M11, 11, _prg(b"v1"))
        with pytest.raises(ValueError, match="q > ell"):
            mismatch_plain(0, 1, 11, DealerAssistedOt(M11), batch)

    def test_input_range(self):
        batch = random_batch(M11, 3, _prg(b"v2"))
        with pytest.raises(ValueError, match="3-bit"):
            mismatch_plain(8, 1, 3, DealerAssistedOt(M11), batch)


class TestKeyedPinnedTrace:
    """q=11, ell=2, H33 keys 4 and 2, shares [3,1], the hand-made batch."""

    def _batch(self):
        a = lambda *v: np.array([v], dtype=np.int64)
        return alice_inventory(M11, [5], a(7, 6)), bob_inventory(M11, a(3, 4), a(1, 2))

    def test_slots_are_valid(self):
        assert validate_inventories(*self._batch())

    def test_trace_values(self):
        ot = DealerAssistedOt(M11)
        d = _ot_masked_sum(0b01, 0b11, 2, [3, 1], ot, M11)
        assert d == 5  # e + hamming = 4 + 1
        assert (keyed_hash(H33, 4, 11), keyed_hash(H33, 2, 11)) == (5, 8)
        assert [(d - j + 5) % 11 for j in (1, 2)] == [9, 8]
        # c = 7 against the candidates in either order: 9 meets r_A = (7, 6)
        block = self._batch()[1].block
        c = np.array([7], dtype=np.int64)
        assert bob_reply(c, np.array([[9, 8]]), block, 11).tolist() == [[7, 2]]
        assert bob_reply(c, np.array([[8, 9]]), block, 11).tolist() == [[4, 6]]

    def test_worked_example(self):
        # x = 0b01, y = 0b11: hamming distance 1, Alice's value 4 + 5 = 9
        assert set_compare_single(9, [9, 8], *self._batch()) is True
        got = mismatch_keyed(4, 0b01, 4, 0b11, self._batch(), DealerAssistedOt(M11), h_seed=H33)
        assert got is True

    def test_equal_strings_false(self):
        # d = e = 4, so Bob's candidates are 4 - j + 5 = {8, 7}
        assert set_compare_single(9, [8, 7], *self._batch()) is False
        got = mismatch_keyed(4, 0b11, 4, 0b11, self._batch(), DealerAssistedOt(M11), h_seed=H33)
        assert got is False

    def test_different_keys_false(self):
        # Bob's key 2: candidates 5 - j + 8 = {1, 0}; a hit would need j = 4
        assert set_compare_single(9, [1, 0], *self._batch()) is False
        got = mismatch_keyed(4, 0b01, 2, 0b11, self._batch(), DealerAssistedOt(M11), h_seed=H33)
        assert got is False


def test_keyed_same_key_tracks_inequality():
    prg = _prg(b"keyed")
    for x in range(8):
        for y in range(8):
            batch = random_batch(M251, 3, prg)
            ot = DealerAssistedOt(M251)
            got = mismatch_keyed(99, x, 99, y, batch, ot, h_seed=H33, prg=prg)
            assert got == (x != y)


def test_keyed_different_keys_rarely_true():
    """Key disagreement leaves only the ~ell/q hash coincidence."""
    prg = _prg(b"difkey")
    h_seed = b"\x55" * 16
    trials, hits = 200, 0
    for t in range(trials):
        batch = random_batch(M251, 4, prg)
        ot = DealerAssistedOt(M251, seed=Seed(bytes([t % 256] * 32)))
        if mismatch_keyed(1, 5, 2, 6, batch, ot, h_seed=h_seed, prg=prg):
            hits += 1
    # expectation 200 * 4/251 = 3.2, std ~1.8; allow a generous margin
    assert hits <= 12


def test_keyed_validation():
    batch = random_batch(M251, 3, _prg(b"kv"))
    ot = DealerAssistedOt(M251)
    with pytest.raises(TypeError, match="h_seed"):
        mismatch_keyed(1, 2, 1, 3, batch, ot)
    with pytest.raises(ValueError, match="3-bit"):
        mismatch_keyed(1, 8, 1, 3, batch, ot, h_seed=H33)
    tiny = random_batch(M11, 11, _prg(b"kv2"))
    with pytest.raises(ValueError, match="q > ell"):
        mismatch_keyed(1, 2, 1, 3, tiny, DealerAssistedOt(M11), h_seed=H33)


@pytest.mark.parametrize("variant", ["plain", "keyed"])
def test_hit_slot_is_uniform_at_fixed_distance(variant, monkeypatch):
    """At Hamming distance 1 the matching candidate is Bob's first, d - 1;
    the rotated row puts it in each of the ell slots equally often
    (chi-square, p > 0.001), so the slot does not reveal the distance."""
    ell, runs = 4, 400
    prg = _prg(b"rotate-" + variant.encode())
    replies = []

    def recording_reply(c, enc, block, q):
        d = bob_reply(c, enc, block, q)
        replies.append(d[0])
        return d

    monkeypatch.setattr(mismatch_mod, "bob_reply", recording_reply)
    counts = np.zeros(ell, dtype=np.int64)
    for _ in range(runs):
        alice, bob = random_batch(M251, ell, prg)
        ot = DealerAssistedOt(M251)
        if variant == "plain":
            assert mismatch_plain(0b0000, 0b0100, ell, ot, (alice, bob), prg=prg)
        else:
            assert mismatch_keyed(7, 0b0000, 7, 0b0100, (alice, bob), ot, h_seed=H33, prg=prg)
        (slot,) = np.flatnonzero(replies[-1] == alice.r_A[0, :ell])
        counts[slot] += 1
    assert len(replies) == runs
    assert chisquare(counts).pvalue > 0.001, counts


def test_plain_ot_count_is_ell():
    batch = random_batch(M17, 4, _prg(b"count"))
    ot = RecordingOt(M17)
    mismatch_plain(3, 9, 4, ot, batch, prg=_prg(b"count2"))
    assert ot.invocations == 4
