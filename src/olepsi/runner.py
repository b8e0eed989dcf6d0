"""Single-process orchestration: both roles over a socketpair in one process.

Glue used by the CLI, the bench harness and the tests. Real two-process runs
use the same psi_alice/psi_bob entry points over TCP; both go through the
one channel implementation in transport.py.
"""

import threading

import numpy as np

from .offline import generate_psi_inventories
from .online import PsiSession, psi_alice, psi_bob
from .params import derive_params
from .transport import PEER_TIMEOUT, ChannelClosed, memory_channel_pair
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


def bench_sets(params, rng):
    """Random input pair of size n with roughly n/2 overlap."""
    n, bound = params.n, 1 << params.sigma
    pool = np.sort(rng.integers(0, bound, size=3 * n + 16, dtype=np.uint64))
    pool = pool[np.concatenate(([True], pool[1:] != pool[:-1]))]  # distinct, as np.unique
    rng.shuffle(pool)
    need = n + (n - n // 2)
    if pool.size < need:  # only possible when 2^sigma is tiny
        pool = np.arange(min(bound, need), dtype=np.uint64)
        rng.shuffle(pool)
    x = set(map(int, pool[:n]))
    y = set(map(int, pool[: n // 2])) | set(map(int, pool[n:need]))
    return x, y


def small_psi_engine(master_seed=None):
    """A (receiver set, sender set) -> intersection callable on tiny inputs
    (n = 4, k = 3, sigma = 4, seed backend).

    Backs the OT-from-PSI reduction with real protocol runs rather than
    plain set intersection.
    """
    params = derive_params(4, 3, sigma=4)

    def engine(receiver_set, sender_set):
        alice, bob = make_sessions(params, master_seed=master_seed)
        result, _, _ = run_psi_pair(alice, receiver_set, bob, sender_set)
        return result

    return engine
