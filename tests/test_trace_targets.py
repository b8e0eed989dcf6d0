"""The benchmark's outside-in tracer wraps olepsi entry points by name.

Installing it here makes a rename or deletion in src/ that drops one of
those names fail the test suite, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import olepsi.offline._expand as expand
import olepsi.online as online
import olepsi.runner as runner
import olepsi.transport as transport
import olepsi.tuples as tuples
from olepsi.offline.ot import DealerAssistedOt
from olepsi.prg import Prg

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_and_uninstalls():
    originals = [
        (online, "psi_alice"), (runner, "psi_bob"), (online, "stash_encode"),
        (tuples, "mod_inv"), (expand, "mod_inv"), (Prg, "read"),
        (DealerAssistedOt, "ot_receive_many"),
        (transport.InMemoryChannel, "send_bytes"), (transport.TcpChannel, "recv_bytes"),
    ]
    before = [getattr(owner, name) for owner, name in originals]
    tracer = _load_tracer()(run_id=0, process="test")
    tracer.install()
    try:
        assert tracer._patched
        for (owner, name), fn in zip(originals, before):
            traced = getattr(owner, name)
            assert traced is not fn, name
            # wrapped exactly once: a second layer would count bytes twice
            assert not hasattr(traced.__wrapped__, "__wrapped__"), name
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in originals] == before
