"""The olepsi benchmark: `python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1`.

Run from the root of a source checkout; the program under test is imported
from ./src. One run is a closed loop of iterations, one at a time: each
iteration starts fresh processes (see child.py), runs one full PSI per
backend of the workload, and passes it through the correctness gate. New
iterations start while they still fit in --seconds.

--trace 0 prints the end-to-end metrics, the medians over iterations.
--trace 1 alternates untraced and traced iterations on the same inputs,
prints the per-layer metrics of the traced ones, and reports the
difference between the two as the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. A JSON record of the run goes to .bench_runs/ in the checkout.
A PSI that completes but fails a check still reports its metrics, with
correct false. Exit status 2: no src/olepsi here; 1: no PSI completed.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import combine_layers  # noqa: E402
from workloads import WORKLOADS, make_params, tuple_paths  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 165.0        # a whole run, including its last iteration
ITERATION_LIMIT_S = 120.0  # one iteration; past it every role process is killed

# name -> unit; the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": "s",
    "offline_s": "s",
    "online_s": "s",
    "run_s": "s",
    "online_cpu_s": "s",
    "peak_rss_mb": "MiB",
    "wire_bits_per_element": "bits",
    "wire_overhead": "ratio",
}

FAILURE_KINDS = ("hashing", "online", "transport", "tuples", "offline", "other", "timeout", "check")

# name -> (unit, end-to-end metric it should move, where it is large / small)
PER_LAYER = {
    "online.alice_s": ("s", "online_s", "512k / 16k"),
    "online.bob_s": ("s", "online_s", "512k / 16k"),
    "online.alice_self_s": ("s", "online_s", "16k (n/2 hits) / 512k (n/64 hits), as a share"),
    "online.bob_self_s": ("s", "online_s, online_cpu_s", "512k / 16k"),
    "hashing.cuckoo_s": ("s", "online_s", "512k / 16k"),
    "hashing.bins_s": ("s", "online_cpu_s on 512k; online_s on 16k", "512k / 16k"),
    "hashing.stash_encode_s": ("s", "online_s", "512k only"),
    "hashing.stash_encode_calls": ("count", "online_s", "512k only"),
    "hashing.stash_used": ("count", "wire_bits_per_element", "all"),
    "hashing.bob_slot_fill": ("ratio", "wire_bits_per_element", "all"),
    "transport.alice_codec_s": ("s", "online_s, online_cpu_s", "512k / 16k"),
    "transport.bob_codec_s": ("s", "online_s, online_cpu_s", "512k / 16k"),
    "transport.alice_wait_s": ("s", "critical path of online_s", "512k (parallel roles) vs 16k (serialised)"),
    "transport.bob_wait_s": ("s", "critical path of online_s", "512k (parallel roles) vs 16k (serialised)"),
    "transport.alice_send_s": ("s", "critical path of online_s", "512k (parallel roles) vs 16k (serialised)"),
    "transport.bob_send_s": ("s", "critical path of online_s", "512k (parallel roles) vs 16k (serialised)"),
    "transport.bytes.setup": ("bytes", "wire_bits_per_element, wire_overhead", "all"),
    "transport.bytes.alice_c": ("bytes", "wire_bits_per_element, wire_overhead", "all"),
    "transport.bytes.bob_d": ("bytes", "wire_bits_per_element, wire_overhead", "all"),
    "transport.frames": ("count", "wire_bits_per_element, wire_overhead", "all"),
    "transport.max_frame_bytes": ("bytes", "peak_rss_mb", "512k / 16k"),
    "tuples.token_s": ("s", "offline_s", "all"),
    "tuples.save_s": ("s", "offline_s", "512k only"),
    "tuples.load_s": ("s", "setup_s", "512k only"),
    "tuples.file_bytes": ("bytes", "offline_s, setup_s", "512k only"),
    "offline.seed_s": ("s", "offline_s", "512k only"),
    "offline.dealer_s": ("s", "offline_s", "16k only"),
    "offline.ot_s": ("s", "offline_s", "16k only"),
    "offline.lbe_sim_s": ("s", "offline_s", "16k only"),
    "prg.sample_s": ("s", "offline_s", "512k / 16k"),
    "prg.read_s": ("s", "offline_s", "512k / 16k"),
    "prg.bytes": ("bytes", "offline_s", "512k / 16k"),
    "prg.overdraw": ("ratio", "offline_s", "512k / 16k"),
    "modvec.inv_s": ("s", "offline_s", "512k"),
    "modvec.inv_elements": ("count", "offline_s", "512k"),
    "ot.transfers": ("count", "offline_s", "16k only"),
    "ot.transfer_s": ("s", "offline_s", "16k only"),
    "offline.rss_mb": ("MiB", "peak_rss_mb", "512k"),
    "online.alice_rss_mb": ("MiB", "peak_rss_mb", "512k"),
    "online.bob_rss_mb": ("MiB", "peak_rss_mb", "512k"),
    **{f"failures.{k}": ("count", "failed / attempted", "all") for k in FAILURE_KINDS},
    "trace.overhead_s": ("s", "traced minus untraced online_s", "all"),
    "trace.spans": ("count", "tracing overhead", "all"),
}

NOTES = [
    "tuple files are written and read back through the page cache; caches are not dropped",
    "peak RSS is each fresh child process's own ru_maxrss; run.py's own process is not measured",
    "closed loop: one iteration at a time, at most two busy role processes or threads",
]


class IterationFailed(Exception):
    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class Child:
    """One child.py process; its JSON stdout lines arrive on a queue."""

    def __init__(self, job, spec, log_path):
        spec = dict(spec, t_spawn=time.monotonic())
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.job = job
        self.log_path = log_path
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(CHILD), job, json.dumps(spec)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=env,
            )
        self.lines = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, event, deadline):
        try:
            line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise IterationFailed("timeout", f"{self.job}: no {event!r} by the deadline") from None
        if line is None:
            self.proc.wait()
            tail = Path(self.log_path).read_text(errors="replace")[-2000:]
            raise IterationFailed(
                "other", f"{self.job} exited with {self.proc.returncode} before {event!r}:\n{tail}"
            )
        try:
            msg = json.loads(line)
        except ValueError:
            raise IterationFailed("other", f"{self.job}: not a JSON line: {line[:200]!r}") from None
        if msg.get("event") != event:
            raise IterationFailed("other", f"{self.job}: wanted {event!r}, got {msg}")
        return msg

    def send(self, text):
        try:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise IterationFailed("other", f"{self.job}: cannot send {text!r}: {exc}") from None

    def stop(self):
        """Kill if still running; always reap the process and its reader."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._pump.join(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def run_children(jobs, spec, run_dir, deadline, script):
    """Start the children, drive them with script(children, deadline), reap them."""
    children = {}
    try:
        for job in jobs:
            children[job] = Child(job, spec, run_dir / f"{job}.log")
        out = script(children, deadline)
        for child in children.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                child.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise IterationFailed("timeout", f"{child.job} did not exit") from None
            if child.proc.returncode != 0:
                raise IterationFailed("other", f"{child.job} exited with {child.proc.returncode}")
        return out
    finally:
        for child in children.values():
            child.stop()


def iterate_pair(spec, run_dir, deadline):
    done = run_children(("pair",), spec, run_dir, deadline,
                        lambda c, d: c["pair"].expect("done", d))
    done["parts"] = [done["layers"]]
    return done


def iterate_tcp(spec, run_dir, deadline):
    """offline process, then Alice and Bob processes over loopback TCP."""

    def script(c, d):
        loaded = {r: c[r].expect("loaded", d) for r in ("alice", "bob")}
        c["bob"].send(str(loaded["alice"]["port"]))
        c["alice"].send("accept")
        ready = [c[r].expect("ready", d) for r in ("alice", "bob")]
        for r in ("alice", "bob"):
            c[r].send("go")
        return ready, [c[r].expect("done", d) for r in ("alice", "bob")]

    try:
        offline = run_children(("offline",), spec, run_dir, deadline,
                               lambda c, d: c["offline"].expect("done", d))
        ready, (alice, bob) = run_children(("alice", "bob"), spec, run_dir, deadline, script)
    finally:
        for path in tuple_paths(run_dir, spec["iteration"], spec["trace"]):
            Path(path).unlink(missing_ok=True)
    return {
        "setup_s": max(r["setup_s"] for r in ready),
        "offline_s": offline["offline_s"],
        "online_s": max(alice["end"], bob["end"]) - min(alice["start"], bob["start"]),
        "online_cpu_s": alice["online_cpu_s"] + bob["online_cpu_s"],
        "rss_mb": max(offline["rss_mb"], alice["rss_mb"], bob["rss_mb"]),
        "param_digest": alice["param_digest"],
        "psi": [dict(alice["psi"][0], bob_ok=bob["psi"][0]["ok"],
                     bob_failure=bob["psi"][0]["failure"], bob_error=bob["psi"][0]["error"],
                     offline_token=offline["token"])],
        "parts": [offline["layers"], alice["layers"], bob["layers"]],
    }


def run_iteration(workload, formula_bits, spec, run_dir, deadline):
    """One iteration -> sample dict; never raises for a failed PSI."""
    attempted = len(workload.backends)
    head = {"iteration": spec["iteration"], "trace": spec["trace"], "attempted": attempted}
    try:
        if workload.shape == "tcp":
            out = iterate_tcp(spec, run_dir, deadline)
        else:
            out = iterate_pair(spec, run_dir, deadline)
    except IterationFailed as exc:
        print(f"iteration {spec['iteration']}: {exc}", file=sys.stderr)
        return dict(head, failures=[exc.kind] * attempted, ok=False)

    failures = []
    for psi in out["psi"]:
        if not psi["ok"]:
            failures.append(psi["failure"])
        elif psi.get("bob_ok") is False:
            failures.append(psi["bob_failure"])
        else:
            continue
        print(f"iteration {spec['iteration']} {psi['backend']}: "
              f"{psi.get('error') or psi.get('bob_error')}", file=sys.stderr)
    if workload.shape == "tcp" and out["psi"][0]["token"] != out["psi"][0]["offline_token"]:
        failures.append("check")
    if any("wire_bytes" not in p for p in out["psi"]):
        return dict(head, failures=failures, ok=False, psi=out["psi"])
    if len({p["wire_bytes"] for p in out["psi"]}) != 1:
        failures.append("check")  # every backend must put the same bytes on the wire
    # a completed run that fails a check still reports its metrics, flagged by ok=False
    sample = dict(head, failures=failures, ok=not failures, psi=out["psi"],
                  param_digest=out["param_digest"])
    wire_bits = out["psi"][0]["wire_bytes"] * 8 / workload.n
    sample["metrics"] = {
        "setup_s": out["setup_s"],
        "offline_s": out["offline_s"],
        "online_s": out["online_s"],
        "run_s": out["setup_s"] + out["offline_s"] + out["online_s"],
        "online_cpu_s": out["online_cpu_s"],
        "peak_rss_mb": out["rss_mb"],
        "wire_bits_per_element": wire_bits,
        "wire_overhead": wire_bits / formula_bits,
    }
    sample["layers"] = combine_layers(out["parts"])
    return sample


def _outputs(sample):
    """What tracing must not change: each PSI's intersection and wire bytes."""
    return [(p["digest"], p["wire_bytes"]) for p in sample["psi"]]


def summarize(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"samples": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "values": values}


def git_revision(root):
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "olepsi").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run(workload, seed, seconds, trace, root):
    """Run the closed loop; returns (result line dict or None, record dict)."""
    from olepsi.params import online_bits_per_element  # src/ is on the path only now

    params = make_params(workload)
    formula_bits = float(online_bits_per_element(params))
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_id = f"{workload.name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    run_dir = root / ".bench_runs" / run_id
    run_dir.mkdir(parents=True)

    start = time.monotonic()
    hard_end = start + RUN_LIMIT_S
    plain, traced, overhead, longest = [], [], [], 0.0
    iteration = 0
    while True:
        t0 = time.monotonic()
        base = {"workload": dataclasses.asdict(workload), "seed": seed, "iteration": iteration,
                "run_id": run_id, "run_dir": str(run_dir)}
        deadline = min(hard_end, t0 + ITERATION_LIMIT_S)
        sample = run_iteration(workload, formula_bits, dict(base, trace=False), run_dir, deadline)
        plain.append(sample)
        if trace and time.monotonic() < hard_end:
            deadline = min(hard_end, time.monotonic() + ITERATION_LIMIT_S)
            tsample = run_iteration(workload, formula_bits, dict(base, trace=True), run_dir,
                                    deadline)
            traced.append(tsample)
            if "metrics" in sample and "metrics" in tsample:
                if _outputs(sample) != _outputs(tsample):
                    print(f"iteration {iteration}: traced run disagrees with untraced",
                          file=sys.stderr)
                    tsample.update(ok=False, failures=["check"])
                else:
                    overhead.append(tsample["metrics"]["online_s"] - sample["metrics"]["online_s"])
        iteration += 1
        now = time.monotonic()
        longest = max(longest, now - t0)
        if now - start + longest > seconds or now + longest > hard_end:
            break

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    good = [s for s in plain if "metrics" in s]
    good_traced = [s for s in traced if "metrics" in s]

    e2e = {m: summarize([s["metrics"][m] for s in good]) for m in END_TO_END} if good else {}
    layers = {}
    if good_traced:
        for name in PER_LAYER:
            if name.startswith(("failures.", "trace.overhead")):
                continue
            layers[name] = summarize([s["layers"].get(name, 0.0) for s in good_traced])
        if overhead:
            layers["trace.overhead_s"] = summarize(overhead)
    for kind in FAILURE_KINDS:
        layers[f"failures.{kind}"] = summarize([failures.count(kind)])

    tokens = [p.get("token") for s in samples for p in s.get("psi", [])]
    record = {
        "run_id": run_id,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "n": workload.n,
        "k": workload.k,
        "stash": params.stash_size,
        "overlap": workload.overlap,
        "backends": list(workload.backends),
        "shape": workload.shape,
        "param_digest": params.digest().hex(),
        "inventory_tokens": tokens,
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "iterations": iteration,
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "failures": {k: failures.count(k) for k in FAILURE_KINDS},
        "end_to_end": {m: dict(e2e[m], unit=END_TO_END[m]) for m in e2e},
        "per_layer": {m: dict(v, unit=PER_LAYER[m][0], moves=PER_LAYER[m][1],
                              large_small=PER_LAYER[m][2]) for m, v in layers.items()},
        "samples": samples,
        "notes": NOTES,
        "wall_s": time.monotonic() - start,
    }
    (root / ".bench_runs" / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    wanted = PER_LAYER if trace else END_TO_END
    source = layers if trace else e2e
    if not all(m in source for m in wanted):
        return None, record
    metrics = {m: {"value": source[m]["median"],
                   "unit": PER_LAYER[m][0] if trace else END_TO_END[m]} for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "olepsi" / "__init__.py").is_file():
        print("run.py: no src/olepsi here; run from the root of an olepsi checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    if result is None:
        print(f"run.py: no successful iteration; see .bench_runs/{record['run_id']}.json",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
