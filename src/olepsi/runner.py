"""Single-process orchestration: both roles over a socketpair in one process.

Glue used by the CLI, the bench harness and the tests. Real two-process runs
use the same psi_alice/psi_bob entry points over TCP; both go through the
one channel implementation in transport.py.
"""

import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .offline import generate_psi_inventories
from .online import PsiSession, psi_alice, psi_bob
from .params import derive_params, online_bits_per_element
from .transport import (
    PEER_TIMEOUT,
    ChannelClosed,
    bits_per_element_measured,
    memory_channel_pair,
)
from .tuples import inventory_token


def make_sessions(params, backend="seed", master_seed=None):
    """Fresh matched sessions for one run: offline phase plus setup state."""
    alice_secs, bob_secs = generate_psi_inventories(backend, params, master_seed)
    token = inventory_token(bob_secs)
    alice = PsiSession(role="alice", params=params, inventories=alice_secs, token=token)
    bob = PsiSession(role="bob", params=params, inventories=bob_secs, token=token)
    return alice, bob


def run_psi_pair(alice_session, alice_set, bob_session, bob_set):
    """Run both roles to completion; returns (intersection, alice stats, bob stats).

    Bob runs on a worker thread. When either side fails, the other usually
    sees a secondary ChannelClosed; the root cause is re-raised here. Both
    channel ends are closed on every path.
    """
    chan_a, chan_b = memory_channel_pair()
    failure = []

    def bob_side():
        try:
            psi_bob(bob_session, bob_set, chan_b)
        except BaseException as exc:
            failure.append(exc)
            chan_b.close()  # unblock Alice instead of letting her time out

    worker = threading.Thread(target=bob_side, daemon=True)
    worker.start()
    result = None
    alice_exc = None
    try:
        result = psi_alice(alice_session, alice_set, chan_a)
    except BaseException as exc:
        alice_exc = exc
    finally:
        chan_a.close()
        worker.join(PEER_TIMEOUT)
        chan_b.close()

    errors = [e for e in (failure[0] if failure else None, alice_exc) if e is not None]
    if errors:
        primary = next(
            (e for e in errors if not isinstance(e, ChannelClosed)), errors[0]
        )
        raise primary
    return result, chan_a.stats, chan_b.stats


def psi_once(alice_set, bob_set, params=None, backend="seed", master_seed=None,
             n=None, k=3, sigma=32):
    """One-call PSI: derive params, run the offline phase, run the protocol."""
    if params is None:
        size = n if n is not None else max(4, len(alice_set), len(bob_set))
        params = derive_params(size, k, sigma=sigma)
    alice, bob = make_sessions(params, backend=backend, master_seed=master_seed)
    result, _, _ = run_psi_pair(alice, alice_set, bob, bob_set)
    return result


@dataclass
class BenchReport:
    """One benchmark run's numbers.

    offline_seconds times the offline phase and wall_seconds the real
    protocol run end to end. The bits/element figures come from the
    transcript accounting and from the closed-form cost; they agree exactly
    whenever the message counts are right.
    """

    n: int
    k: int
    backend: str
    offline_seconds: float
    wall_seconds: float
    alice_stats: object
    bits_measured: Fraction
    bits_formula: Fraction
    intersection_size: int
    correct: bool

    def format(self):
        lines = [
            "bench-report:",
            f"  n: {self.n}",
            f"  k: {self.k}",
            f"  backend: {self.backend}",
            f"  offline-seconds: {self.offline_seconds:.3f}",
            f"  wall-seconds: {self.wall_seconds:.3f}",
            f"  alice-sent-bytes: {self.alice_stats.bytes_sent}",
            f"  alice-received-bytes: {self.alice_stats.bytes_received}",
            f"  elements-sent: {self.alice_stats.elements_sent}",
            f"  elements-received: {self.alice_stats.elements_received}",
            f"  bits-per-element-measured: {float(self.bits_measured):.2f}",
            f"  bits-per-element-formula: {float(self.bits_formula):.2f}",
            f"  measured-equals-formula: {self.bits_measured == self.bits_formula}",
            f"  intersection-size: {self.intersection_size}",
            f"  correct: {self.correct}",
        ]
        return "\n".join(lines)


def bench_sets(params, rng):
    """Random input pair of size n with roughly n/2 overlap."""
    n, bound = params.n, 1 << params.sigma
    pool = np.unique(rng.integers(0, bound, size=3 * n + 16, dtype=np.uint64))
    rng.shuffle(pool)
    need = n + (n - n // 2)
    if pool.size < need:  # only possible when 2^sigma is tiny
        pool = np.arange(min(bound, need), dtype=np.uint64)
        rng.shuffle(pool)
    x = set(map(int, pool[:n]))
    y = set(map(int, pool[: n // 2])) | set(map(int, pool[n:need]))
    return x, y


def bench_run(params, backend="seed", master_seed=None, rng=None):
    """Time one full run, offline and online; see BenchReport."""
    if rng is None:
        rng = np.random.default_rng(0xB17)
    x, y = bench_sets(params, rng)

    t0 = time.perf_counter()
    alice, bob = make_sessions(params, backend=backend, master_seed=master_seed)
    offline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result, stats_a, _ = run_psi_pair(alice, x, bob, y)
    wall_s = time.perf_counter() - t0

    return BenchReport(
        n=params.n,
        k=params.k,
        backend=backend,
        offline_seconds=offline_s,
        wall_seconds=wall_s,
        alice_stats=stats_a,
        bits_measured=bits_per_element_measured(stats_a, params.n),
        bits_formula=online_bits_per_element(params),
        intersection_size=len(result),
        correct=result == (x & y),
    )


def small_psi_engine(params=None, backend="seed", master_seed=None):
    """A (receiver set, sender set) -> intersection callable on tiny inputs.

    Backs the OT-from-PSI reduction and the mismatch protocols' final step
    with real protocol runs rather than plain set intersection.
    """
    if params is None:
        params = derive_params(4, 3, sigma=4)

    def engine(receiver_set, sender_set):
        alice, bob = make_sessions(params, backend=backend, master_seed=master_seed)
        result, _, _ = run_psi_pair(alice, receiver_set, bob, sender_set)
        return result

    return engine
