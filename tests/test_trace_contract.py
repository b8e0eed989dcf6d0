"""What the benchmark tracer reads from a call's result, not only its name.

The tracer's bins_done hook reads a BinTable's bins and params after
online.build_bin_table returns; this pins that contract until the tracer
reads only what a run returns.
"""

import importlib.util
from pathlib import Path

import numpy as np

import olepsi.online as online
from olepsi.params import derive_params

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_bob_slots_from_bin_table():
    p = derive_params(1 << 10, 3)
    ys = set(np.random.default_rng(61).choice(1 << 32, size=900, replace=False).tolist())
    seeds = online.derive_hash_seeds(p, bytes(16))
    tracer = _load_tracer()(run_id=0, process="test")
    tracer.install()
    try:
        online.build_bin_table(ys, p, seeds)
    finally:
        tracer.uninstall()
    assert tracer.counts[("hashing.bob_real_slots", "test")] == p.k * len(ys)
    assert tracer.counts[("hashing.bob_slots", "test")] == p.alpha * p.beta
