"""Acceptance suite: one test per release criterion.

Each test name carries its criterion number, so `pytest -v` emits one
pass/fail line per criterion.  Seeds are pinned; statistical thresholds
are generous enough that reruns cannot flake.
"""

import time

import numpy as np
import pytest
from scipy.stats import chisquare

from olepsi.field import PrimeModulus
from olepsi.mismatch import mismatch_keyed, mismatch_plain
from olepsi.offline import BACKENDS, gen_seeded
from olepsi.offline.lbe import lbe_params_for
from olepsi.offline.ot import DealerAssistedOt
from olepsi.modvec import mod_inv
from olepsi.params import derive_params, online_bits_per_element
from olepsi.prg import SEED_LEN, Prg, Seed
from olepsi.runner import bench_sets, make_sessions, run_psi_pair, small_psi_engine
from olepsi.transport import bits_per_element_measured

from blocks import alice_inventory, bob_inventory, gilboa_inventories, psi_once
from oracles import RecordingOt, lbe_reconstruct, validate_inventories


def seed(i):
    return Seed(i.to_bytes(32, "little"))


def tuple_arrays(modulus, count, master, tag):
    """count independent tuples as flat int64 arrays (r_A, r_B, r_B_inv, s_A,
    s_B): gen_seeded batches of one slot each, so no two share an s_A. Bob
    keeps no r_B, so it is the inverse of his r_B_inv."""
    alice, bob = gen_seeded(master, count, modulus, 1, domain=tag)
    flat = lambda a: a.astype(np.int64).reshape(count)
    r_B_inv = flat(bob.r_B_inv)
    r_B = mod_inv(r_B_inv, modulus.q)
    return flat(alice.r_A), r_B, r_B_inv, flat(alice.s_A), flat(bob.s_B)


def test_criterion_1_exhaustive_comparison_correctness_q251():
    """All 251*251 encoding pairs against 1000 random tuples each:
    d == r_A exactly when the encodings agree.  Budget: 2 minutes."""
    t0 = time.perf_counter()
    q = 251
    m = PrimeModulus(q)
    r_A, r_B, r_B_inv, s_A, s_B = tuple_arrays(m, 1000, seed(1), b"crit1")
    y = np.arange(q)[:, None]  # q x 1, broadcast against 1000 tuples
    for x in range(q):
        c = (s_A - x) % q
        d = (c + y + s_B) % q * r_B_inv % q
        hits = d == r_A
        assert hits[x].all(), f"match missed at x=y={x}"
        mask = np.ones(q, dtype=bool)
        mask[x] = False
        assert not hits[mask].any(), f"false match against x={x}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_2_masking_distributions_q101():
    """With x != y, d is uniform on F_q \\ {r_A} and never hits r_A;
    c is uniform on F_q.  Chi-square at q=101 over 10^5 samples."""
    q = 101
    m = PrimeModulus(q)
    N = 100_000
    r_A, r_B, r_B_inv, s_A, s_B = tuple_arrays(m, N, seed(2), b"crit2")
    x_enc, y_enc = 7, 8

    c = (s_A - x_enc) % q
    d = (c + y_enc + s_B) % q * r_B_inv % q
    assert not (d == r_A).any(), "d hit r_A on mismatched encodings"

    # shift by r_A so the excluded point is 0 for every sample
    u = (d - r_A) % q
    counts_d = np.bincount(u, minlength=q)
    assert counts_d[0] == 0
    p_d = chisquare(counts_d[1:]).pvalue
    assert p_d > 0.001, f"d distribution rejected (p={p_d:.2e})"

    counts_c = np.bincount(c, minlength=q)
    p_c = chisquare(counts_c).pvalue
    assert p_c > 0.001, f"c distribution rejected (p={p_c:.2e})"


@pytest.mark.slow
def test_criterion_3_random_instances_all_backends():
    """100 random PSI instances (25 per backend) at n in {2^8, 2^10, 2^12},
    sigma=32, k=3; every output equals the plain set intersection.
    Budget: 5 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    sizes = (256, 1024, 4096)
    for b_idx, backend in enumerate(BACKENDS):
        for i in range(25):
            n = sizes[i % len(sizes)]
            n_x = int(rng.integers(1, n + 1))
            n_y = int(rng.integers(1, n + 1))
            pool = rng.choice(1 << 32, size=n_x + n_y, replace=False)
            x = set(map(int, pool[:n_x]))
            overlap = rng.random() * min(n_x, n_y)
            y = set(map(int, pool[n_x + int(overlap):]))
            y |= set(list(x)[: int(overlap)])
            got = psi_once(x, y, derive_params(n, 3, sigma=32), backend=backend,
                           master_seed=seed(1000 * b_idx + i))
            assert got == (x & y), f"{backend} n={n} instance {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


PUBLISHED_BITS = {
    (1 << 20, 2): 663, (1 << 22, 2): 588, (1 << 24, 2): 472, (1 << 26, 2): 384,
    (1 << 20, 3): 516, (1 << 22, 3): 442, (1 << 24, 3): 381, (1 << 26, 3): 305,
    (1 << 20, 4): 556, (1 << 22, 4): 496, (1 << 24, 4): 432, (1 << 26, 4): 353,
}


@pytest.mark.slow
def test_criterion_4_bits_per_element_table_and_measured_run():
    """The twelve published bits-per-element cells reproduce within +/-1
    from derived parameters, and a real n=2^20, k=3 run measures 516 +/- 1
    in under 60 seconds."""
    for (n, k), published in PUBLISHED_BITS.items():
        got = float(online_bits_per_element(derive_params(n, k)))
        assert abs(got - published) <= 1.0, f"n=2^{n.bit_length()-1} k={k}: {got}"

    t0 = time.perf_counter()
    p = derive_params(1 << 20, 3)
    sa, sb = make_sessions(p, backend="seed", master_seed=seed(4))
    x, y = bench_sets(p, np.random.default_rng(4))
    result, stats_a, _ = run_psi_pair(sa, x, sb, y)
    elapsed = time.perf_counter() - t0
    assert result == (x & y)
    measured = bits_per_element_measured(stats_a, p.n)
    assert measured == online_bits_per_element(p)
    assert abs(float(measured) - 516.0) <= 1.0, f"measured {float(measured):.2f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_5_ot_from_psi_truth_table():
    """The PSI-based 1-of-2 OT returns y_choice on all eight input rows."""
    from olepsi.online import ot_via_psi

    engine = small_psi_engine(master_seed=seed(5))
    for choice in (0, 1):
        for y0 in (0, 1):
            for y1 in (0, 1):
                got = ot_via_psi(choice, y0, y1, engine)
                assert got == (y1 if choice else y0), (choice, y0, y1)


def test_criterion_6_gilboa_products_and_batch_costs():
    """10^4 OT-based product sharings at q=251 all satisfy
    s_A + s_B = r_A * r_B; batches share one s_A, keep every r_B
    invertible, and cost exactly slot_len * ceil(log2 q) OTs."""
    m = PrimeModulus(251)
    ot = RecordingOt(m, seed=seed(6))
    alice, bob = gilboa_inventories(ot, m, 10_000, 1, seed(60))
    # one rho list of ceil(log2 q) = 8 transfers per sharing
    assert ot.rho(10_000, 1).shape == (10_000, 1, 8)
    assert ot.invocations == 80_000
    r_B = mod_inv(bob.r_B_inv, m.q).astype(np.int64)
    s_A, s_B = alice.s_A.astype(np.int64)[:, None], bob.s_B.astype(np.int64)
    assert (alice.r_A.astype(np.int64) * r_B % m.q == (s_A + s_B) % m.q).all()

    p = derive_params(64, 3, sigma=16)
    ot2 = RecordingOt(p.modulus, seed=seed(61))
    count = 50
    alice, bob = gilboa_inventories(ot2, p.modulus, count, p.beta, seed(62))
    assert ot2.invocations == count * p.beta * p.modulus.bit_len
    rho = ot2.rho(count, p.beta)
    assert rho.shape == (count, p.beta, p.modulus.bit_len)
    # every slot's rho list closes to the batch's shared s_A
    assert (rho.sum(axis=2) % p.modulus.q == alice.s_A[:, None]).all()
    for i in range(count):
        a = alice_inventory(p.modulus, alice.s_A[i : i + 1], alice.r_A[i : i + 1])
        b = bob_inventory(p.modulus, bob.r_B_inv[i : i + 1], bob.s_B[i : i + 1])
        assert validate_inventories(a, b)


@pytest.mark.slow
def test_criterion_7_lbe_pipeline_equivalence():
    """The residue-pipeline simulation agrees with the dealer formula
    exhaustively for Q <= 31, lambda <= 4; on 10^4 random wide inputs;
    and its pre-reduction support is exactly {c + i*Q} at lambda=4."""
    for Q in (5, 7, 11, 13, 17, 19, 23, 29, 31):  # primes the field supports
        mod = PrimeModulus(Q)
        for lam in (1, 2, 3, 4):
            lbe = lbe_params_for(mod, lam)
            for s_A in range(Q):
                for s_B in range(Q):
                    for r_B in range(1, Q):
                        inv = pow(r_B, -1, Q)
                        want = (s_A + s_B) * inv % Q
                        for u in range(lbe.u_domain):
                            assert lbe_reconstruct(lbe, s_A, s_B, inv, u) % Q == want

    m = PrimeModulus(12301)
    lbe = lbe_params_for(m, 40)
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        s_A, s_B = int(rng.integers(m.q)), int(rng.integers(m.q))
        r_B = int(rng.integers(1, m.q))
        u = int(rng.integers(lbe.u_domain))
        inv = pow(r_B, -1, m.q)
        want = (s_A + s_B) * inv % m.q
        assert lbe_reconstruct(lbe, s_A, s_B, inv, u) % m.q == want

    m11 = PrimeModulus(11)
    lbe4 = lbe_params_for(m11, 4)
    for s_A, s_B, r_B in ((4, 2, 3), (0, 0, 1), (10, 10, 7), (6, 0, 9)):
        # base point is the unreduced integer (s_A + s_B) * r_B^-1
        c = (s_A + s_B) * pow(r_B, -1, 11)
        support = {lbe_reconstruct(lbe4, s_A, s_B, pow(r_B, -1, 11), u)
                   for u in range(lbe4.u_domain)}
        assert support == {c + 11 * i for i in range(lbe4.u_domain)}


def test_criterion_8_mismatch_protocols():
    """Plain variant: exhaustive over all 256 pairs at ell=4, q=17.
    Keyed variant: exact on matched keys; on mismatched keys the false
    positive rate stays within ell/q + 3 sigma."""
    q, ell = 17, 4
    m = PrimeModulus(q)
    prg = Prg(seed(8), tag=b"crit8")
    for x in range(16):
        for y in range(16):
            batch = gen_seeded(Seed(prg.read(SEED_LEN)), 1, m, ell)
            ot = DealerAssistedOt(m)
            assert mismatch_plain(x, y, ell, ot, batch, prg=prg) == (x != y)

    h_seed = b"\x42" * 16
    for x in range(16):
        for y in range(16):
            batch = gen_seeded(Seed(prg.read(SEED_LEN)), 1, m, ell)
            ot = DealerAssistedOt(m)
            got = mismatch_keyed(3, x, 3, y, batch, ot, h_seed=h_seed, prg=prg)
            assert got == (x != y), (x, y)

    trials, hits = 2000, 0
    rng = np.random.default_rng(80)
    for _ in range(trials):
        batch = gen_seeded(Seed(prg.read(SEED_LEN)), 1, m, ell)
        ot = DealerAssistedOt(m)
        x, y = int(rng.integers(16)), int(rng.integers(16))
        if mismatch_keyed(3, x, 5, y, batch, ot, h_seed=h_seed, prg=prg):
            hits += 1
    p0 = ell / q
    bound = p0 + 3 * (p0 * (1 - p0) / trials) ** 0.5
    assert hits / trials <= bound, f"rate {hits / trials:.3f} > bound {bound:.3f}"


def test_criterion_9_message_count_invariant():
    """Every run moves exactly alpha + stash elements from Alice and
    (alpha*beta + stash*n) back, independent of the inputs; the same
    accounting is asserted inside psi_alice and psi_bob on every run."""
    p = derive_params(64, 2, sigma=16, stash_size=4)
    for inputs in ((set(range(50)), set(range(25, 75))),
                   (set(), {1, 2, 3}),
                   ({9}, set())):
        sa, sb = make_sessions(p, backend="seed", master_seed=seed(9))
        result, st_a, st_b = run_psi_pair(sa, inputs[0], sb, inputs[1])
        assert result == (inputs[0] & inputs[1])
        sent = p.alpha + p.stash_size
        recv = p.alpha * p.beta + p.stash_size * p.n
        assert st_a.elements_sent == sent
        assert st_a.elements_received == recv
        assert st_b.elements_sent == recv
        assert st_b.elements_received == sent
        assert st_a.theoretical_bits_sent == sent * p.modulus.bit_len
        assert bits_per_element_measured(st_a, p.n) == online_bits_per_element(p)
