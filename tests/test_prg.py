import hashlib

import numpy as np
import pytest
from scipy import stats

from olepsi.field import PrimeModulus
from olepsi.prg import Prg, Seed

from oracles import reference_elements

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
    assert got == [5576, 5937, 2331, 5032, 2545, 5223, 404, 2812]
    assert got == reference_elements(Prg(Z32), 6151, 8)


def test_elements_golden_vector_q11():
    # hand-derived from the stream bytes d6 45 54 8f ...: every byte is
    # below 253 = 23 * 11 and is reduced mod 11
    m = PrimeModulus(11)
    got = list(Prg(Z32).elements(m, 12))
    assert got == [5, 3, 7, 0, 3, 10, 4, 2, 8, 4, 4, 9]
    assert got == reference_elements(Prg(Z32), 11, 12)
    # nonzero: mod 10, plus one
    got = list(Prg(Z32, tag=b"nz").nonzero_elements(m, 12))
    assert got == [6, 2, 4, 7, 6, 7, 7, 6, 6, 5, 8, 9]
    assert got == reference_elements(Prg(Z32, tag=b"nz"), 11, 12, nonzero=True)


def test_elements_golden_vector_width3():
    # 3-byte words; q is the offline-16k-mix modulus
    m = PrimeModulus(786449)
    got = list(Prg(Z32).elements(m, 8))
    assert got == [17759, 607427, 381869, 550841, 334218, 239461, 402557, 634003]
    assert got == reference_elements(Prg(Z32), m.q, 8)
    got = list(Prg(Z32, tag=b"nz").nonzero_elements(m, 8))
    assert got == [327828, 692439, 516275, 30073, 751941, 102710, 677826, 257831]
    assert got == reference_elements(Prg(Z32, tag=b"nz"), m.q, 8, nonzero=True)


@pytest.mark.parametrize("q", [11, 263, 8209, 786449])
@pytest.mark.parametrize("nonzero", [False, True])
def test_sampler_matches_scalar_reference(q, nonzero):
    # long enough to cross a 64 KiB stream block at every width
    m = PrimeModulus(q)
    count = 40000
    prg = Prg(Z32, tag=b"ref")
    draw = prg.nonzero_elements if nonzero else prg.elements
    assert draw(m, count).tolist() == reference_elements(
        Prg(Z32, tag=b"ref"), q, count, nonzero=nonzero
    )


def test_sample_consumes_exactly_its_words():
    # a sample stops at its last accepted word: split calls and other reads
    # on one Prg see the same stream positions as one scalar reader
    m = PrimeModulus(8209)
    prg, ref = Prg(Z32, tag=b"split"), Prg(Z32, tag=b"split")
    got = [prg.elements(m, 5).tolist(), prg.nonzero_elements(m, 7).tolist(), prg.read(3)]
    got.append(prg.elements(m, 3000).tolist())
    want = [reference_elements(ref, m.q, 5), reference_elements(ref, m.q, 7, nonzero=True)]
    want += [ref.read(3), reference_elements(ref, m.q, 3000)]
    assert got == want
    assert prg.read(16) == ref.read(16)


def test_sample_gives_back_rejected_words_after_its_last():
    # one accepted byte, then twenty that q = 11 rejects (>= 253): a sample
    # of one stops after the first byte, so the next read starts at the second
    prg = Prg(Z32)
    prg._buf = bytes([5]) + bytes([255]) * 20 + bytes([7]) + prg._buf
    assert prg.elements(PrimeModulus(11), 1).tolist() == [5]
    assert prg.read(1) == bytes([255])


def test_sampler_bytes_per_element_at_q8209():
    # q = 8209 sits just above 2^13: 7 * 8209 of the 2^16 2-byte words are
    # accepted, 2.28 bytes per element
    m = PrimeModulus(8209)
    prg = Prg(Z32, tag=b"rate")
    prg.elements(m, 100000)
    read = prg._counter * 65536 - len(prg._buf)
    assert 2.2 < read / 100000 < 2.36


@pytest.mark.parametrize("q", [11, 8209, 786449])
@pytest.mark.parametrize("nonzero", [False, True])
def test_sampler_uniformity_chi_square(q, nonzero):
    m = PrimeModulus(q)
    prg = Prg(Z32, tag=b"chi|%d|%d" % (q, nonzero))
    draw = prg.nonzero_elements if nonzero else prg.elements
    # 2^20 draws in at most 64 cells of consecutive values: enough to see the
    # few-percent excess that reducing without rejection gives low values
    lo = 1 if nonzero else 0
    cells = min(q - lo, 64)
    vals = draw(m, 1 << 20)
    edges = np.linspace(lo, q, cells + 1).round().astype(np.int64)
    counts = np.histogram(vals, bins=edges)[0]
    expected = len(vals) * np.diff(edges) / (q - lo)
    _, p = stats.chisquare(counts, expected)
    assert p > 0.001
    assert vals.min() >= lo and vals.max() < q


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
