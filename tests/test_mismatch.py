"""Inequality tests: the plain and keyed mismatch protocols.

The q=11 traces (shares [2,7,1,6] giving e=5, d=7, candidates {6,5,4,3};
the keyed slot trace f_0 = (4+9)*3 - 1 = 5) are worked by hand. Everything
else is checked against the boolean x != y, which needs no oracle.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olepsi.field import PrimeModulus
from olepsi.mismatch import (
    MismatchTriples,
    _ot_masked_sum,
    mismatch_keyed,
    mismatch_plain,
    set_compare_single,
)
from olepsi.offline import gen_seeded
from olepsi.offline.ot import DealerAssistedOt
from olepsi.prg import SEED_LEN, Prg, Seed

from oracles import validate_inventories, validate_triples

M11 = PrimeModulus(11)
M17 = PrimeModulus(17)
M251 = PrimeModulus(251)


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
        batch = random_batch(M11, 4, _prg(b"pin"))
        ot = DealerAssistedOt(M11)
        assert mismatch_plain(5, 6, 4, ot, batch, shares=[2, 7, 1, 6]) is True

    def test_equal_inputs_stay_false(self):
        batch = random_batch(M11, 4, _prg(b"pin2"))
        ot = DealerAssistedOt(M11)
        assert mismatch_plain(6, 6, 4, ot, batch, shares=[2, 7, 1, 6]) is False


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

    def test_share_count(self):
        batch = random_batch(M11, 3, _prg(b"v3"))
        with pytest.raises(ValueError, match="shares"):
            mismatch_plain(1, 2, 3, DealerAssistedOt(M11), batch, shares=[1, 2])


class TestKeyedPinnedTrace:
    """q=11, r_A=2, first slot (s_A=5, r_B=3, s_B=1), H == 9, shares [3,1]."""

    def _triples(self):
        # slot 0: (s_A, r_B, s_B) = (5, 3, 1); slot 1: 2*4 = 6+2
        a = lambda *v: np.array(v, dtype=np.int64)
        return MismatchTriples(modulus=M11, r_A=2, s_A=a(5, 6), r_B=a(3, 4), s_B=a(1, 2))

    def test_slots_are_valid(self):
        assert validate_triples(self._triples())

    def test_worked_example(self):
        # x = 0b01, y = 0b11: hamming distance 1, shares sum to 2 - 9 = 4
        ot = DealerAssistedOt(M11)
        got = mismatch_keyed(
            7, 0b01, 7, 0b11, self._triples(), ot, h=lambda k: 9, shares=[3, 1]
        )
        assert got is True

    def test_trace_values(self):
        ot = DealerAssistedOt(M11)
        d = _ot_masked_sum(0b01, 0b11, 2, [3, 1], ot, M11)
        assert d == 5
        assert (5 - 1) % 11 == 4          # first candidate offset
        assert ((4 + 9) * 3 - 1) % 11 == 5  # f_0 equals s_A of slot 1

    def test_equal_strings_false(self):
        ot = DealerAssistedOt(M11)
        got = mismatch_keyed(
            7, 0b11, 7, 0b11, self._triples(), ot, h=lambda k: 9, shares=[3, 1]
        )
        assert got is False


def test_keyed_same_key_tracks_inequality():
    prg = _prg(b"keyed")
    h_seed = b"\x33" * 16
    for x in range(8):
        for y in range(8):
            triples = MismatchTriples.generate(M251, 3, prg)
            ot = DealerAssistedOt(M251)
            got = mismatch_keyed(99, x, 99, y, triples, ot, h_seed=h_seed, prg=prg)
            assert got == (x != y)


def test_keyed_different_keys_rarely_true():
    """Key disagreement leaves only the ~ell/q hash coincidence."""
    prg = _prg(b"difkey")
    h_seed = b"\x55" * 16
    trials, hits = 200, 0
    for t in range(trials):
        triples = MismatchTriples.generate(M251, 4, prg)
        ot = DealerAssistedOt(M251, seed=Seed(bytes([t % 256] * 32)))
        if mismatch_keyed(1, 5, 2, 6, triples, ot, h_seed=h_seed, prg=prg):
            hits += 1
    # expectation 200 * 4/251 = 3.2, std ~1.8; allow a generous margin
    assert hits <= 12


def test_keyed_validation():
    prg = _prg(b"kv")
    triples = MismatchTriples.generate(M251, 3, prg)
    ot = DealerAssistedOt(M251)
    with pytest.raises(ValueError, match="h or h_seed"):
        mismatch_keyed(1, 2, 1, 3, triples, ot)
    with pytest.raises(ValueError, match="sum"):
        mismatch_keyed(1, 2, 1, 3, triples, ot, h=lambda k: 0, shares=[1, 1, 1])
    tiny = MismatchTriples.generate(M11, 11, _prg(b"kv2"))
    with pytest.raises(ValueError, match="q > ell"):
        mismatch_keyed(1, 2, 1, 3, tiny, ot)


def test_triples_validate_rejects_tampering():
    good = MismatchTriples.generate(M251, 4, _prg(b"tamper"))
    assert validate_triples(good)
    s_A = good.s_A.copy()
    s_A[2] = (s_A[2] + 1) % 251
    assert not validate_triples(dataclasses.replace(good, s_A=s_A))
    r_B = good.r_B.copy()
    r_B[2] = 0
    assert not validate_triples(dataclasses.replace(good, r_B=r_B))


def test_plain_ot_count_is_ell():
    batch = random_batch(M17, 4, _prg(b"count"))
    ot = DealerAssistedOt(M17)
    mismatch_plain(3, 9, 4, ot, batch, prg=_prg(b"count2"))
    assert ot.invocations == 4
