"""One fresh process of a benchmark iteration: `python3 benchmark/child.py JOB SPEC`.

JOB is one of
  pair     both roles in this process (runner.run_psi_pair, Bob on a thread),
           one full PSI per backend of the workload
  offline  generate tuples, compute the inventory token, write both tuple files
  alice    load Alice's tuple file, listen on loopback TCP, run psi_alice
  bob      load Bob's tuple file, connect, run psi_bob
SPEC is a JSON object from run.py (workload, seed, iteration, run_dir,
trace flag, t_spawn). The child reports JSON lines on stdout; alice and bob
also read their cues from stdin: once both have loaded, one to connect (Bob
gets Alice's port), then "go", so both roles start the protocol together.
Peak RSS is this process's own ru_maxrss.
"""

import contextlib
import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, _HERE)

from olepsi import online, runner  # noqa: E402
from olepsi.offline import generate_psi_inventories  # noqa: E402
from olepsi.params import BITS_PER_ELEMENT_TABLE, online_bits_per_element  # noqa: E402
from olepsi.transport import TcpListener, bits_per_element_measured, tcp_connect  # noqa: E402
from olepsi.tuples import (  # noqa: E402
    SIDE_ALICE,
    SIDE_BOB,
    inventory_token,
    load_inventories,
    save_inventories,
)

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    Workload,
    intersection_digest,
    make_input,
    make_inputs,
    make_params,
    master_seed,
    tuple_paths,
)

_LAYERS = ("hashing", "online", "transport", "tuples", "offline")


def emit(**msg):
    print(json.dumps(msg), flush=True)


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def failure_layer(exc):
    """The layer whose module defines the exception class, else "other"."""
    parts = type(exc).__module__.split(".")
    if parts[0] == "olepsi" and len(parts) > 1 and parts[1] in _LAYERS:
        return parts[1]
    return "other"


def check_counts(params, stats, role):
    """Element totals from CommStats against alpha + stash and alpha*beta + stash*n."""
    p = params
    up = p.alpha + p.stash_size
    down = p.alpha * p.beta + p.stash_size * p.n
    sent, received = (up, down) if role == "alice" else (down, up)
    problems = []
    if stats.elements_sent != sent:
        problems.append(f"{role} sent {stats.elements_sent} elements, expected {sent}")
    if stats.elements_received != received:
        problems.append(f"{role} received {stats.elements_received} elements, expected {received}")
    return problems


def check_alice(params, x, y, result, stats):
    """The correctness gate on Alice's side: intersection, counts, bits/element."""
    problems = []
    if result != (x & y):
        problems.append(f"intersection has {len(result)} elements, brute force {len(x & y)}")
    problems += check_counts(params, stats, "alice")
    measured = bits_per_element_measured(stats, params.n)
    formula = online_bits_per_element(params)
    if measured != formula:
        problems.append(f"bits/element {float(measured):.3f} != formula {float(formula):.3f}")
    published = BITS_PER_ELEMENT_TABLE.get((params.n, params.k))
    if published is not None and round(measured) != published:
        problems.append(f"bits/element {float(measured):.2f} does not round to {published}")
    return problems


class Job:
    def __init__(self, spec, process):
        self.spec = spec
        w = spec["workload"]
        self.workload = Workload(**dict(w, backends=tuple(w["backends"])))
        self.params = make_params(self.workload)
        self.tracer = None
        if spec["trace"]:
            self.tracer = Tracer(spec["run_id"], process)
            self.tracer.install()
        self.process = process
        # process start to here: interpreter, imports, derive_params
        self.setup_s = time.monotonic() - spec["t_spawn"]

    def phase(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def inputs(self, role=None):
        """Both sets, or only `role`'s; built outside every timed region."""
        if role is None:
            return make_inputs(self.workload, self.spec["seed"], self.spec["iteration"])
        return make_input(self.workload, self.spec["seed"], self.spec["iteration"], role)

    def offline(self, backend):
        """Tuple generation plus inventory token, as make_sessions does."""
        master = master_seed(self.workload, self.spec["seed"], self.spec["iteration"], backend)
        with self.phase(f"offline.{backend}"):
            alice_secs, bob_secs = generate_psi_inventories(backend, self.params, master)
        with self.phase("tuples.token"):
            token = inventory_token(bob_secs)
        return alice_secs, bob_secs, token

    def session(self, role, sections, token):
        t0 = time.monotonic()
        s = online.PsiSession(role=role, params=self.params, inventories=sections, token=token)
        self.setup_s += time.monotonic() - t0
        return s

    def finish(self, layers, **fields):
        if self.tracer:
            self.tracer.uninstall()
            path = os.path.join(
                self.spec["run_dir"],
                f"spans-iter{self.spec['iteration']}-{self.process}.jsonl",
            )
            self.tracer.dump(path)
            layers.update(self.tracer.layer_values())
        emit(
            event="done",
            param_digest=self.params.digest().hex(),
            layers=layers,
            **fields,
        )


def job_pair(spec):
    job = Job(spec, "pair")
    x, y = job.inputs()
    offline_s = online_s = online_cpu = 0.0
    psi = []
    layers = {}
    for backend in job.workload.backends:
        t0 = time.monotonic()
        alice_secs, bob_secs, token = job.offline(backend)
        offline_s += time.monotonic() - t0
        layers["offline.rss_mb"] = rss_mb()
        alice = job.session("alice", alice_secs, token)
        bob = job.session("bob", bob_secs, token)
        del alice_secs, bob_secs
        record = {"backend": backend, "token": token.hex()}
        c0, t0 = cpu_s(), time.monotonic()
        try:
            result, stats_a, stats_b = runner.run_psi_pair(alice, x, bob, y)
        except Exception as exc:  # a protocol failure is a data point, not a crash
            record.update(ok=False, failure=failure_layer(exc), error=repr(exc))
            psi.append(record)
            continue
        online_s += time.monotonic() - t0
        online_cpu += cpu_s() - c0
        problems = check_alice(job.params, x, y, result, stats_a)
        problems += check_counts(job.params, stats_b, "bob")
        record.update(
            ok=not problems,
            failure="check" if problems else None,
            error="; ".join(problems),
            digest=intersection_digest(result),
            size=len(result),
            wire_bytes=stats_a.bytes_sent + stats_a.bytes_received,
        )
        psi.append(record)
        del alice, bob, result
    peak = rss_mb()
    layers["online.alice_rss_mb"] = layers["online.bob_rss_mb"] = peak
    job.finish(
        layers,
        setup_s=job.setup_s,
        offline_s=offline_s,
        online_s=online_s,
        online_cpu_s=online_cpu,
        rss_mb=peak,
        psi=psi,
    )


def job_offline(spec):
    """What `olepsi offline` does: generate, token, write both tuple files."""
    job = Job(spec, "offline")
    backend = job.workload.backends[0]
    path_a, path_b = tuple_paths(spec["run_dir"], spec["iteration"], spec["trace"])
    t0 = time.monotonic()
    alice_secs, bob_secs, token = job.offline(backend)
    with job.phase("tuples.save"):
        save_inventories(path_a, alice_secs, SIDE_ALICE, token)
        save_inventories(path_b, bob_secs, SIDE_BOB, token)
    offline_s = time.monotonic() - t0
    peak = rss_mb()
    layers = {
        "offline.rss_mb": peak,
        "tuples.file_bytes": os.path.getsize(path_a) + os.path.getsize(path_b),
    }
    job.finish(layers, offline_s=offline_s, rss_mb=peak, token=token.hex())


def job_role(spec, role):
    """One `olepsi run` role over loopback TCP, cued by run.py on stdin."""
    job = Job(spec, role)
    mine = job.inputs(role)
    path_a, path_b = tuple_paths(spec["run_dir"], spec["iteration"], spec["trace"])
    path = path_a if role == "alice" else path_b
    t0 = time.monotonic()
    with job.phase("tuples.load"):
        sections, token = load_inventories(path, SIDE_ALICE if role == "alice" else SIDE_BOB)
    job.setup_s += time.monotonic() - t0
    session = job.session(role, sections, token)
    del sections
    t0 = time.monotonic()
    listener = TcpListener("127.0.0.1", 0) if role == "alice" else None
    job.setup_s += time.monotonic() - t0
    # Both roles are loaded before either connects, so neither role's setup_s
    # counts the time it waits for the other to build its inputs or load.
    emit(event="loaded", port=listener.port if listener else None)
    cue = sys.stdin.readline()
    t0 = time.monotonic()
    if listener:
        chan = listener.accept()
        listener.close()
    else:
        chan = tcp_connect("127.0.0.1", int(cue))
    job.setup_s += time.monotonic() - t0
    emit(event="ready", setup_s=job.setup_s)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("run.py did not send go")

    c0, start = cpu_s(), time.monotonic()
    record = {"backend": job.workload.backends[0], "token": token.hex()}
    try:
        if role == "alice":
            result = online.psi_alice(session, mine, chan)
        else:
            online.psi_bob(session, mine, chan)
    except Exception as exc:
        record.update(ok=False, failure=failure_layer(exc), error=repr(exc))
    finally:
        end, cpu, peak = time.monotonic(), cpu_s() - c0, rss_mb()
        chan.close()
    if "ok" not in record:
        if role == "alice":
            # Bob's set is built only now, so it is not in Alice's peak RSS
            problems = check_alice(job.params, mine, job.inputs("bob"), result, chan.stats)
            record.update(digest=intersection_digest(result), size=len(result))
        else:
            problems = check_counts(job.params, chan.stats, "bob")
        record.update(
            ok=not problems,
            failure="check" if problems else None,
            error="; ".join(problems),
            wire_bytes=chan.stats.bytes_sent + chan.stats.bytes_received,
        )
    job.finish(
        {f"online.{role}_rss_mb": peak},
        setup_s=job.setup_s,
        start=start,
        end=end,
        online_cpu_s=cpu,
        rss_mb=peak,
        psi=[record],
    )


def main():
    job, spec = sys.argv[1], json.loads(sys.argv[2])
    if job == "pair":
        job_pair(spec)
    elif job == "offline":
        job_offline(spec)
    elif job in ("alice", "bob"):
        job_role(spec, job)
    else:
        raise SystemExit(f"unknown job {job!r}")


if __name__ == "__main__":
    main()
