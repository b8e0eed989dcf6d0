import hashlib

import numpy as np
import pytest
from scipy import stats

from olepsi.field import PrimeModulus
from olepsi.prg import Prg, Seed

Z32 = Seed(bytes(32))


def test_seed_length_enforced():
    with pytest.raises(ValueError):
        Seed(b"short")
    with pytest.raises(ValueError):
        Seed(bytes(33))
    assert Seed.from_hex("00" * 32) == Z32


def test_stream_matches_block_construction():
    # independent recomputation of the pinned stream definition
    ref = hashlib.shake_256(
        bytes(32) + (0).to_bytes(2, "little") + (0).to_bytes(8, "little")
    ).digest(16)
    assert Prg(Z32).read(16) == ref
    assert ref.hex() == "d645548f4599e0d329ca67149b191153"


def test_read_split_invariance():
    a = Prg(Z32)
    b = Prg(Z32)
    assert a.read(10) + a.read(20) + a.read(3) == b.read(33)


def test_block_boundary():
    a = Prg(Z32)
    b = Prg(Z32)
    first = a.read(65536 + 100)
    assert first == b.read(65530) + b.read(106)


def test_tags_separate_streams():
    assert Prg(Z32).read(16) != Prg(Z32, tag=b"x").read(16)
    assert Prg(Z32, tag=b"x").read(16).hex() == "43f19392951fdb9385a82a8211e8fb80"


def test_elements_golden_vector():
    m = PrimeModulus(6151)
    got = list(Prg(Z32).elements(m, 8))
    assert got == [1494, 3924, 5088, 2601, 5223, 4881, 2984, 1455]


def test_elements_golden_vector_q11():
    # hand-derived from the stream bytes: mask 0xF, reject >= 11
    m = PrimeModulus(11)
    got = list(Prg(Z32).elements(m, 12))
    assert got == [6, 5, 4, 5, 9, 0, 3, 9, 10, 7, 4, 9]


def test_elements_golden_vector_width3():
    # 3-byte words; q is the offline-16k-mix modulus
    m = PrimeModulus(786449)
    assert list(Prg(Z32).elements(m, 8)) == [
        280022, 607631, 644064, 288714, 72091, 763987, 372012, 554893,
    ]
    assert list(Prg(Z32, tag=b"nz").nonzero_elements(m, 8)) == [
        65827, 430502, 30136, 752004, 365093, 782342, 457545, 462680,
    ]


def test_elements_in_range():
    m = PrimeModulus(251)
    vals = Prg(Seed.random()).elements(m, 10000)
    assert vals.min() >= 0
    assert vals.max() < 251


def test_nonzero_elements_never_zero():
    m = PrimeModulus(11)
    vals = Prg(Seed.random()).nonzero_elements(m, 20000)
    assert (vals != 0).all()
    assert vals.max() < 11


def test_determinism_across_runs():
    s = Seed.random()
    m = PrimeModulus(12301)
    a = Prg(s, tag=b"t").elements(m, 5000)
    b = Prg(s, tag=b"t").elements(m, 5000)
    assert np.array_equal(a, b)


def test_uniformity_smoke():
    m = PrimeModulus(101)
    vals = Prg(Z32, tag=b"uniformity").elements(m, 100000)
    counts = np.bincount(vals, minlength=101)
    _, p = stats.chisquare(counts)
    assert p > 0.001
