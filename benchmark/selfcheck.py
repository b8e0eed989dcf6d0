"""Tiny-n check of the benchmark itself: `python3 benchmark/selfcheck.py` from the repo root.

Runs each workload's shape (three-backend in-process pair; offline plus two
TCP role processes) at n = 2^10, once untraced and once traced, and checks:
  - BENCHMARK.json names exactly the metrics run.py defines, with their units;
  - each result line and JSON record has the expected schema and no failures;
  - the traced run reports every per-layer metric, agrees with the untraced
    run on intersections and wire bytes, and Alice's and Bob's spans equal
    their self time plus their children.
Exits 0 when every check passes.
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 1 << 10
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RECORD_KEYS = {
    "run_id", "workload", "seed", "n", "k", "backends", "param_digest", "inventory_tokens",
    "git_revision", "source_digest", "attempted", "failed", "fail_rate", "end_to_end",
    "per_layer", "samples", "notes",
}


def fail(msg):
    raise SystemExit(f"selfcheck: {msg}")


def check_benchmark_json(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != run.END_TO_END:
        fail(f"BENCHMARK.json end_to_end {e2e} != run.END_TO_END")
    if layers != {m: u for m, (u, _, _) in run.PER_LAYER.items()}:
        fail("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_result(result, record, trace):
    if result is None:
        fail(f"{record['workload']}: no result")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{record['workload']}: failures {record['failures']}")
    wanted = run.PER_LAYER if trace else run.END_TO_END
    if set(result["metrics"]) != set(wanted):
        fail(f"{record['workload']}: metrics {sorted(set(wanted) ^ set(result['metrics']))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"metric {name}: {m}")
    missing = RECORD_KEYS - set(record)
    if missing:
        fail(f"record lacks {sorted(missing)}")
    for name, m in record["end_to_end" if not trace else "per_layer"].items():
        if not {"samples", "median", "unit"} <= set(m):
            fail(f"record metric {name}: {sorted(m)}")


def check_traced(record):
    plain = [s for s in record["samples"] if not s["trace"]]
    traced = [s for s in record["samples"] if s["trace"]]
    if not traced or len(plain) != len(traced):
        fail(f"{record['workload']}: {len(plain)} untraced vs {len(traced)} traced iterations")
    for a, b in zip(plain, traced):
        if [p["digest"] for p in a["psi"]] != [p["digest"] for p in b["psi"]]:
            fail(f"{record['workload']}: traced intersection differs")
        if [p["wire_bytes"] for p in a["psi"]] != [p["wire_bytes"] for p in b["psi"]]:
            fail(f"{record['workload']}: traced wire bytes differ")
        lay = b["layers"]
        for role, children in (
            ("alice", ("hashing.cuckoo_s", "hashing.alice_stash_encode_s",
                       "transport.alice_codec_s", "transport.alice_wait_s",
                       "transport.alice_send_s")),
            ("bob", ("hashing.bins_s", "hashing.bob_stash_encode_s", "transport.bob_codec_s",
                     "transport.bob_wait_s", "transport.bob_send_s")),
        ):
            parts = lay[f"online.{role}_self_s"] + sum(lay[c] for c in children)
            gap = lay[f"online.{role}_s"] - parts
            if abs(gap) > 1e-6:
                fail(f"{record['workload']}: online.{role}_s != self + children (gap {gap:.6f})")
        if lay["transport.frames"] < 3:
            fail(f"{record['workload']}: only {lay['transport.frames']} frames traced")


def main():
    root = Path.cwd()
    check_benchmark_json(root)
    for workload in WORKLOADS.values():
        tiny = dataclasses.replace(workload, n=TINY, overlap=workload.overlap * TINY // workload.n)
        for trace in (0, 1):
            result, record = run.run(tiny, seed=7, seconds=1, trace=trace, root=root)
            check_result(result, record, trace)
            if trace:
                check_traced(record)
        print(f"selfcheck: {workload.name} shape ok at n={TINY}")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
