import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, chisquare

from olepsi import hashing
from olepsi.hashing import (
    BinOverflow,
    CuckooFailure,
    _candidate_bins,
    build_bin_table,
    build_cuckoo_table,
    stash_encode,
)
from olepsi.modvec import dtype_for
from olepsi.params import derive_params
from olepsi.prg import Prg, Seed

from oracles import (
    bin_hash,
    bin_index,
    fmix64,
    hash_seeds,
    invert_placement,
    round_based_cuckoo,
    split_element,
)


def fixed_seeds(k, label=b"seeds"):
    prg = Prg(Seed(bytes(32)), tag=label)
    return hash_seeds(prg.read(16 * (k + 1)))


def test_split_element_examples():
    p = derive_params(4, 2, sigma=8)
    assert (p.sigma1, p.sigma2) == (3, 5)
    assert split_element(0b10110101, p) == (0b101, 0b10101)
    assert split_element(0, p) == (0, 0)

    p = derive_params(1 << 20, 3)
    assert (p.sigma1, p.sigma2) == (20, 12)
    assert split_element(0xDEADBEEF, p) == (0xDEADB, 0xEEF)


def _enc(j, x2, p):
    # table encoding: hash index above the sigma2-bit suffix
    return (j << p.sigma2) + x2


def test_encode_item_examples():
    """Tables store enc = j * 2^sigma2 + x2, all below dummy_alice;
    invert_placement reads one back and refuses a hash index >= k."""
    p = derive_params(1 << 21, 3)  # k=3 with sigma2 = 11
    assert p.sigma2 == 11
    assert _enc(0, 5, p) == 5
    assert _enc(2, 0, p) == 4096
    assert _enc(1, (1 << p.sigma2) - 1, p) == (1 << (p.sigma2 + 1)) - 1
    assert _enc(p.k - 1, (1 << p.sigma2) - 1, p) == p.dummy_alice - 1
    seeds = fixed_seeds(3)
    x1, x2 = 5, 9
    for j in range(p.k):
        i = bin_index(j, x1, x2, seeds, p)
        assert invert_placement(i, _enc(j, x2, p), seeds, p) == (x1 << p.sigma2) + x2
    assert invert_placement(0, _enc(3, 0, p), seeds, p) is None


def test_bin_index_zero_prefix():
    p = derive_params(12, 3)
    assert p.alpha == 16
    seeds = fixed_seeds(3)
    for j in range(3):
        assert bin_index(j, 0, 9, seeds, p) == bin_hash(j, 9, seeds, p)


def test_bin_index_injective_in_prefix():
    p = derive_params(12, 3)
    seeds = fixed_seeds(3)
    for j in range(3):
        idx = {bin_index(j, x1, 5, seeds, p) for x1 in range(1 << p.sigma1)}
        assert len(idx) == 1 << p.sigma1


def test_bin_index_concrete_value():
    # h_1(7) worked out by hand from the definition, independent of the module
    p = derive_params(12, 3)
    assert p.alpha == 16
    seeds = fixed_seeds(3)
    j, x1, x2 = 1, 3, 7
    assert seeds[j].tobytes().hex() == "d65eeaf1ee4614cd376253538dbc07f2"
    a, b = 0xCD1446EEF1EA5ED6, 0xF207BC8D53536237  # the little-endian halves

    def fmix64(z):
        z ^= z >> 33
        z = z * 0xFF51AFD7ED558CCD % 2**64
        z ^= z >> 33
        z = z * 0xC4CEB9FE1A85EC53 % 2**64
        return z ^ z >> 33

    h = fmix64(fmix64(x2 ^ a) ^ b)
    assert h == 0x9542EFCAC1426712
    assert (h >> 32) * p.alpha >> 32 == 9  # multiply-shift of the top 32 bits
    expected = (9 + x1) % p.alpha
    assert bin_index(j, x1, x2, seeds, p) == expected == 12
    arr = np.array([(x1 << p.sigma2) + x2], dtype=np.int64)
    assert _candidate_bins(arr, seeds, p)[j, 0] == expected


def test_candidate_bins_match_oracle_across_blocks(monkeypatch):
    # 64-element blocks, so 1000 elements end in a partial block
    monkeypatch.setattr(hashing, "_BLOCK", 64)
    p = derive_params(1 << 10, 3)
    seeds = fixed_seeds(3)
    xs = np.sort(np.random.default_rng(47).choice(1 << 32, size=1000, replace=False))
    cand = _candidate_bins(xs, seeds, p)
    for t, x in enumerate(xs.tolist()):
        x1, x2 = split_element(x, p)
        assert cand[:, t].tolist() == [bin_index(j, x1, x2, seeds, p) for j in range(3)]


def test_cuckoo_empty_set():
    p = derive_params(1 << 8, 3)
    t = build_cuckoo_table([], p, seeds=fixed_seeds(3))
    assert (t.bins == p.dummy_alice).all()
    assert (t.origins == -1).all()
    assert t.stash == []


def test_cuckoo_singleton_uses_first_hash():
    p = derive_params(1 << 8, 3)
    seeds = fixed_seeds(3)
    x = 123456
    t = build_cuckoo_table([x], p, seeds=seeds)
    x1, x2 = split_element(x, p)
    i = bin_index(0, x1, x2, seeds, p)
    assert t.origins[i] == x
    assert t.bins[i] == _enc(0, x2, p)
    assert (t.origins >= 0).sum() == 1


def test_cuckoo_random_set_membership():
    p = derive_params(1 << 10, 3)
    rng = np.random.default_rng(7)
    xs = rng.choice(1 << 32, size=1 << 10, replace=False)
    seeds = fixed_seeds(3, b"src")
    t = build_cuckoo_table(xs, p, seeds=seeds)
    placed = set(int(v) for v in t.origins[t.origins >= 0])
    assert placed | set(t.stash) == set(int(v) for v in xs)
    assert len(placed) + len(t.stash) == xs.size
    # every placed element sits in one of its k candidate bins, correctly encoded
    for i in np.flatnonzero(t.origins >= 0):
        x = int(t.origins[i])
        x1, x2 = split_element(x, p)
        j = int(t.bins[i]) >> p.sigma2
        assert bin_index(j, x1, x2, seeds, p) == i
        assert t.bins[i] == _enc(j, x2, p)


def test_cuckoo_and_bin_tables_ignore_input_type_and_order():
    p = derive_params(1 << 10, 2)
    seeds = fixed_seeds(2)
    rng = np.random.default_rng(29)
    xs = rng.choice(1 << 32, size=1 << 10, replace=False)
    as_set = build_cuckoo_table(set(xs.tolist()), p, seeds=seeds)
    for other in (xs, xs[::-1].copy(), xs.tolist()):
        t = build_cuckoo_table(other, p, seeds=seeds)
        assert np.array_equal(t.bins, as_set.bins)
        assert np.array_equal(t.origins, as_set.origins)
        assert t.stash == as_set.stash
    # bin slots are shuffled per build, so compare each bin's contents
    assert np.array_equal(np.sort(build_bin_table(xs, p, seeds).bins, axis=1),
                          np.sort(build_bin_table(set(xs.tolist()), p, seeds).bins, axis=1))


def test_bin_table_slot_order_is_fresh_per_build():
    p = derive_params(1 << 10, 3)
    seeds = fixed_seeds(3)
    ys = np.random.default_rng(31).choice(1 << 32, size=1 << 10, replace=False)
    t1 = build_bin_table(ys, p, seeds).bins
    t2 = build_bin_table(ys, p, seeds).bins
    assert np.array_equal(np.sort(t1, axis=1), np.sort(t2, axis=1))
    # every bin's real entries fill one cyclic run of `load` slots: a row
    # with 0 < load < beta has exactly one dummy-to-real step, cyclically
    for t in (t1, t2):
        real = t != p.dummy_bob
        load = real.sum(axis=1)
        run_starts = (real & ~np.roll(real, 1, axis=1)).sum(axis=1)
        assert np.array_equal(run_starts, ((load > 0) & (load < p.beta)).astype(int))
    assert not np.array_equal(t1, t2)


def test_bin_table_builds_sigma_46():
    # 18 bin bits and 30 encoding bits, with q still < 2^31: the widest
    # (bin, encoding) sort key still fits an int64
    p = derive_params(1 << 16, 2, sigma=46)
    assert p.modulus.q < 1 << 31
    seeds = fixed_seeds(2)
    ys = np.random.default_rng(37).choice(1 << 46, size=512, replace=False)
    t = build_bin_table(ys, p, seeds)
    assert int((t.bins != p.dummy_bob).sum()) == 2 * ys.size
    for y in ys.tolist():
        y1, y2 = split_element(y, p)
        for j in range(2):
            assert _enc(j, y2, p) in t.bins[bin_index(j, y1, y2, seeds, p)]


@pytest.mark.parametrize("k", [2, 3])
def test_bin_table_match_slots_uniform(k, monkeypatch):
    """The slot of each match, which a semi-honest Alice sees, is uniform on
    [0, beta) and independent of the bin's load: at n = 2^16 with half the
    sets shared, the slots fit uniform (chi-square) and some match sits at a
    slot at or above its bin's load, past every real entry of an unrotated
    row."""
    # a fixed os.urandom stream pins the rotations
    monkeypatch.setattr(os, "urandom", Prg(Seed(bytes(32)), tag=b"rotation").read)
    n = 1 << 16
    p = derive_params(n, k)
    seeds = fixed_seeds(k)
    pool = np.random.default_rng(41 + k).choice(1 << 32, size=n + n // 2, replace=False)
    xs, ys = pool[:n], pool[n // 2 :]
    cuckoo = build_cuckoo_table(xs, p, seeds)
    rows = build_bin_table(ys, p, seeds).bins
    shared = np.flatnonzero(np.isin(cuckoo.origins, ys))
    hits = rows[shared] == cuckoo.bins[shared, None]
    assert (hits.sum(axis=1) == 1).all()
    slots = hits.argmax(axis=1)
    assert slots.size >= n // 2 - p.stash_size
    counts = np.bincount(slots, minlength=p.beta)
    assert chisquare(counts).pvalue > 0.001
    load = (rows[shared] != p.dummy_bob).sum(axis=1)
    assert (slots >= load).any()


@pytest.mark.parametrize("k", [2, 3])
def test_cuckoo_placement_invariants_2_14(k):
    p = derive_params(1 << 14, k)
    rng = np.random.default_rng(31 + k)
    xs = rng.choice(1 << 32, size=1 << 14, replace=False)
    seeds = fixed_seeds(k, b"src")
    t = build_cuckoo_table(xs, p, seeds=seeds)
    real = np.flatnonzero(t.origins >= 0)
    placed = t.origins[real]
    assert len(t.stash) <= p.stash_size
    assert real.size + len(t.stash) == xs.size
    assert set(placed.tolist()) | set(t.stash) == set(xs.tolist())
    assert (t.bins[t.origins < 0] == p.dummy_alice).all()
    for i, x in zip(real.tolist(), placed.tolist()):
        x1, x2 = split_element(x, p)
        j = int(t.bins[i]) >> p.sigma2
        assert j < k
        assert bin_index(j, x1, x2, seeds, p) == i
        assert t.bins[i] == _enc(j, x2, p)


def test_cuckoo_with_stash_k2():
    p = derive_params(1 << 10, 2)
    rng = np.random.default_rng(11)
    xs = rng.choice(1 << 32, size=1 << 10, replace=False)
    t = build_cuckoo_table(xs, p, seeds=fixed_seeds(2, b"src"))
    assert len(t.stash) <= p.stash_size
    placed = set(int(v) for v in t.origins[t.origins >= 0])
    assert placed | set(t.stash) == set(int(v) for v in xs)


def test_cuckoo_failure_without_resampling():
    # k=2, no stash, overloaded table, fixed seeds: must fail cleanly
    p = dataclasses.replace(derive_params(1 << 8, 2), stash_size=0)
    rng = np.random.default_rng(3)
    xs = rng.choice(1 << 32, size=1 << 8, replace=False)
    with pytest.raises(CuckooFailure):
        # alpha bins would fit, but beta... force failure by shrinking alpha
        tiny = dataclasses.replace(p, alpha=16, sigma1=4)
        build_cuckoo_table(xs[:64], tiny, seeds=fixed_seeds(2))


@pytest.mark.parametrize("n,k,sigma,stash,size,seed,outcome", [
    (64, 2, 16, 1, 64, 4, "stash"),
    (64, 2, 16, 0, 64, 4, "fail"),
    (1 << 12, 2, 32, None, 1 << 12, 0, "placed"),
    (1 << 12, 3, 32, None, 1 << 12, 1, "placed"),
    (1 << 12, 4, 32, None, 1 << 12, 2, "placed"),
    (1 << 12, 3, 32, None, 3000, 3, "placed"),
])
def test_cuckoo_build_matches_int64_rounds(n, k, sigma, stash, size, seed, outcome):
    """The int32 build, with its scatter-only first round, places every item
    where the int64 round loop of tests/oracles.py does, stashes the same
    items and fails on the same input."""
    p = derive_params(n, k, sigma=sigma, stash_size=stash)
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.choice(1 << sigma, size=size, replace=False)).astype(np.int64)
    seeds = hash_seeds(Prg(Seed(seed.to_bytes(32, "little")), tag=b"eq").read(16 * (k + 1)))
    if outcome == "fail":
        with pytest.raises(CuckooFailure):
            round_based_cuckoo(xs, p, seeds)
        with pytest.raises(CuckooFailure):
            build_cuckoo_table(xs, p, seeds)
        return
    bins, origins, stash_items = round_based_cuckoo(xs, p, seeds)
    t = build_cuckoo_table(xs, p, seeds)
    assert t.bins.dtype == dtype_for(p.dummy_alice + 1)
    assert np.array_equal(t.bins.astype(np.int64), bins)
    assert np.array_equal(t.origins, origins)
    assert t.stash == stash_items
    assert (len(stash_items) > 0) == (outcome == "stash")


def test_cuckoo_rejects_bad_input():
    p = derive_params(1 << 8, 3)
    with pytest.raises(ValueError):
        build_cuckoo_table([1, 1], p, seeds=fixed_seeds(3))
    with pytest.raises(ValueError):
        build_cuckoo_table([1 << 32], p, seeds=fixed_seeds(3))
    with pytest.raises(ValueError):
        build_cuckoo_table(list(range((1 << 8) + 1)), p, seeds=fixed_seeds(3))


def test_bin_table_empty():
    p = derive_params(1 << 8, 3)
    t = build_bin_table([], p, fixed_seeds(3))
    assert t.bins.shape == (p.alpha, p.beta)
    assert (t.bins == p.dummy_bob).all()


def test_bin_table_singleton_three_distinct_bins():
    p = derive_params(1 << 8, 3)
    seeds = fixed_seeds(3)
    y = 424242
    y1, y2 = split_element(y, p)
    idx = [bin_index(j, y1, y2, seeds, p) for j in range(3)]
    if len(set(idx)) != 3:
        pytest.skip("hash collision for this seed; example wants distinct bins")
    t = build_bin_table([y], p, seeds)
    assert int((t.bins != p.dummy_bob).sum()) == 3
    for j in range(3):
        assert _enc(j, y2, p) in t.bins[idx[j]]


def test_bin_table_every_element_under_every_hash():
    p = derive_params(1 << 10, 3)
    seeds = fixed_seeds(3)
    rng = np.random.default_rng(13)
    ys = rng.choice(1 << 32, size=1 << 10, replace=False)
    t = build_bin_table(ys, p, seeds)
    assert t.bins.shape == (p.alpha, p.beta)
    for y in ys[:200]:
        y1, y2 = split_element(int(y), p)
        for j in range(3):
            i = bin_index(j, y1, y2, seeds, p)
            assert _enc(j, y2, p) in t.bins[i]
    # total non-dummy entries: one per (element, hash)
    assert int((t.bins != p.dummy_bob).sum()) == 3 * ys.size


def test_bin_table_same_bin_collision_keeps_both_encodings():
    # if two hashes send y to one bin, both encodings must be present
    p = derive_params(1 << 10, 3)
    seeds = fixed_seeds(3)
    rng = np.random.default_rng(19)
    ys = rng.choice(1 << 32, size=1 << 10, replace=False)
    collided = None
    for y in ys:
        y1, y2 = split_element(int(y), p)
        idx = [bin_index(j, y1, y2, seeds, p) for j in range(3)]
        if len(set(idx)) < 3:
            collided = (int(y), y1, y2, idx)
            break
    if collided is None:
        pytest.skip("no same-bin collision in this sample")
    y, y1, y2, idx = collided
    t = build_bin_table(ys, p, seeds)
    for j in range(3):
        assert _enc(j, y2, p) in t.bins[idx[j]]


def test_bin_table_overflow():
    p = derive_params(1 << 8, 3)
    tiny = dataclasses.replace(p, beta=1)
    rng = np.random.default_rng(5)
    ys = rng.choice(1 << 32, size=1 << 8, replace=False)
    with pytest.raises(BinOverflow):
        build_bin_table(ys, tiny, fixed_seeds(3))


def test_exhaustive_inversion_small_domain():
    # sigma = 10: every (bin, encoding) pair determines the element uniquely
    p = derive_params(1 << 8, 3, sigma=10)
    seeds = fixed_seeds(3)
    seen = {}
    for x in range(1 << 10):
        x1, x2 = split_element(x, p)
        for j in range(p.k):
            i = bin_index(j, x1, x2, seeds, p)
            enc = _enc(j, x2, p)
            assert invert_placement(i, enc, seeds, p) == x
            key = (i, enc)
            assert key not in seen or seen[key] == x
            seen[key] = x


def test_distinct_elements_distinct_pairs_sigma32():
    p = derive_params(1 << 10, 3)
    seeds = fixed_seeds(3)
    rng = np.random.default_rng(23)
    xs = rng.choice(1 << 32, size=2000, replace=False)
    seen = {}
    for x in xs:
        x1, x2 = split_element(int(x), p)
        for j in range(3):
            key = (bin_index(j, x1, x2, seeds, p), _enc(j, x2, p))
            assert key not in seen, "two elements share (bin, encoding)"
            seen[key] = int(x)


def _stash_encode_ref(x, keyed_seed, range_size):
    """The stash mixer on one Python int: x XOR the first 8 keyed-seed bytes
    (little-endian), fmix64, reduced into range_size."""
    return fmix64(x ^ int.from_bytes(keyed_seed[:8], "little")) % range_size


def _occupancy_pvalue(bins, alpha):
    """p-value of a chi-square of how many of alpha bins hold 0, 1, 2, 3, 4
    and at least 5 of the given entries, against the Binomial(entries,
    1/alpha) load of a random function."""
    loads = np.bincount(np.bincount(bins, minlength=alpha), minlength=6)
    observed = np.append(loads[:5], loads[5:].sum())
    pmf = binom.pmf(np.arange(5), bins.size, 1 / alpha)
    return chisquare(observed, alpha * np.append(pmf, 1 - pmf.sum())).pvalue


def _quality_inputs(p, rng):
    """Three 2^16-element sets: random, an arithmetic progression, and 16
    elements sharing each of 2^12 suffixes, under random distinct prefixes."""
    n = 1 << 16
    suffixes = rng.choice(1 << p.sigma2, size=n >> 4, replace=False)
    prefixes = np.stack([rng.choice(1 << p.sigma1, size=16, replace=False)
                         for _ in suffixes])
    return {
        "random": rng.choice(1 << 32, size=n, replace=False),
        "progression": 7 + 40503 * np.arange(n),
        "shared suffix": ((prefixes << p.sigma2) | suffixes[:, None]).ravel(),
    }


@pytest.mark.parametrize("k", [2, 3])
def test_bin_occupancy_per_hash_fits_random_function(k):
    """At n = 2^16, each hash's bin loads fit those of a random function
    (chi-square, p > 0.001), on random, progression and shared-suffix sets."""
    p = derive_params(1 << 16, k)
    seeds = fixed_seeds(k)
    for name, xs in _quality_inputs(p, np.random.default_rng(43 + k)).items():
        cand = _candidate_bins(np.sort(xs).astype(np.int64), seeds, p)
        for j in range(k):
            assert _occupancy_pvalue(cand[j], p.alpha) > 0.001, (name, j)


def _halves(seed, first=None, second=None):
    return (first or seed[:8]) + (second or seed[8:])


@pytest.mark.parametrize("shared", [None, "first", "second"])
def test_joint_hash_pair_grid_is_uniform(shared):
    """(h_0(x2), h_1(x2)) over all 2^16 suffixes of n = 2^16, k = 3, counted
    on a 64 x 64 grid, fits uniform (chi-square, p > 0.001): also when the two
    seeds share their first or their second 8 bytes, so every seed byte
    counts and h_1 is no simple function of h_0."""
    p = derive_params(1 << 16, 3)
    assert p.sigma2 == 16
    s0, s1, s2 = (row.tobytes() for row in fixed_seeds(3)[:3])
    if shared == "first":
        s1 = _halves(s1, first=s0[:8])
    elif shared == "second":
        s1 = _halves(s1, second=s0[8:])
    seeds = hash_seeds(s0 + s1 + s2 + bytes(16))
    h = _candidate_bins(np.arange(1 << p.sigma2, dtype=np.int64), seeds, p)
    cells = (h[0] * 64 // p.alpha) * 64 + h[1] * 64 // p.alpha
    counts = np.bincount(cells, minlength=64 * 64)
    assert chisquare(counts).pvalue > 0.001


def test_stash_encode_range():
    p = derive_params(1 << 8, 2)
    seeds = fixed_seeds(2)
    vals = stash_encode(np.arange(500), seeds, p)
    assert vals.dtype == np.int64 and vals.shape == (500,)
    assert ((0 <= vals) & (vals < p.dummy_alice)).all()
    # one batched call is bit-identical to the scalar mixer per element
    assert vals.tolist() == [
        _stash_encode_ref(x, seeds[-1].tobytes(), p.dummy_alice) for x in range(500)
    ]
    assert stash_encode(np.empty(0, dtype=np.int64), seeds, p).size == 0


def test_stash_encode_spreads_consecutive_inputs():
    """2^16 consecutive elements over the 1024 stash encodings of n=64, k=2,
    sigma=16: each count is Binomial(2^16, 1/1024), mean 64 and standard
    deviation 8, and must lie within 6 deviations, in [16, 112], so every
    encoding is hit."""
    p = derive_params(64, 2, sigma=16)
    assert p.dummy_alice == 1024
    vals = stash_encode(np.arange(1 << 16), fixed_seeds(2), p)
    counts = np.bincount(vals, minlength=p.dummy_alice)
    assert counts.size == p.dummy_alice
    assert counts.min() >= 16 and counts.max() <= 112


@settings(max_examples=50, deadline=None)
@given(x=st.integers(0, (1 << 32) - 1))
def test_split_recombines(x):
    p = derive_params(1 << 10, 3)
    x1, x2 = split_element(x, p)
    assert (x1 << p.sigma2) + x2 == x
    assert x2 < 1 << p.sigma2
