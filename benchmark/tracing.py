"""Outside-in tracing: wrap layer entry points under the names callers look up.

Nothing in src/ knows about this module. install() replaces module globals
(e.g. olepsi.online.build_cuckoo_table) and class attributes (Prg.read,
channel send_bytes/recv_bytes) with timing wrappers. Each call becomes a span
(run id, process, role, parent, start, end); spans stay in memory and are
written out when the process ends. A span's self time is its duration minus
the time its direct children cover. High-frequency calls (stash_encode, once
per element) are aggregated into their parent instead of stored one by one.
"""

import contextlib
import itertools
import json
import struct
import threading
import time
from collections import defaultdict

_HEAD = struct.Struct(">IB")  # transport frame header: payload length, type
_FRAME_NAMES = {1: "setup", 2: "alice_c", 3: "bob_d"}


class _Open:
    __slots__ = ("id", "name", "role", "parent", "start", "child")

    def __init__(self, sid, name, role, parent, start):
        self.id, self.name, self.role, self.parent = sid, name, role, parent
        self.start, self.child = start, 0.0


class Tracer:
    def __init__(self, run_id, process):
        self.run_id = run_id
        self.process = process
        self.spans = []                           # (id, parent, name, role, start, end, self)
        self.calls = defaultdict(lambda: [0, 0.0])  # aggregated (name, role) -> [calls, seconds]
        self.counts = defaultdict(float)          # (name, role) -> value
        self.max_frame = 0
        self._ids = itertools.count(1)
        self._local = threading.local()  # span stack per thread: Bob may run on his own
        self._lock = threading.Lock()    # guards counts, calls and max_frame
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, value, role):
        with self._lock:
            self.counts[(name, role)] += value

    def top(self):
        stack = self._stack()
        return stack[-1].name if stack else None

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own calls, e.g. generate_psi_inventories."""
        frame = self._open(name, None)
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, name, role):
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Open(
            next(self._ids),
            name,
            role or (parent.role if parent else self.process),
            parent.id if parent else None,
            time.perf_counter(),
        )
        stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        self.spans.append(
            (frame.id, frame.parent, frame.name, frame.role, frame.start, end, dur - frame.child)
        )

    def wrap(self, name, fn, role=None, after=None):
        def traced(*args, **kwargs):
            frame = self._open(name, role)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(frame.role, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_aggregated(self, name, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            stack = self._stack()
            if stack:
                stack[-1].child += dt
            with self._lock:
                agg = self.calls[(name, stack[-1].role if stack else self.process)]
                agg[0] += 1
                agg[1] += dt
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer entry point the per-layer metrics need."""
        import olepsi.offline._expand as expand
        import olepsi.online as online
        import olepsi.runner as runner
        import olepsi.transport as transport
        import olepsi.tuples as tuples
        from olepsi.offline.ot import DealerAssistedOt
        from olepsi.prg import Prg

        alice = self.wrap("online.alice", online.psi_alice, role="alice")
        bob = self.wrap("online.bob", online.psi_bob, role="bob")
        for mod in (online, runner):
            self.patch(mod, "psi_alice", alice)
            self.patch(mod, "psi_bob", bob)

        def cuckoo_done(role, args, table):
            self.count("hashing.stash_used", len(table.stash), role)

        def bins_done(role, args, table):
            p = table.params
            self.count("hashing.bob_real_slots", int((table.bins != p.dummy_bob).sum()), role)
            self.count("hashing.bob_slots", p.alpha * p.beta, role)

        self.patch(online, "build_cuckoo_table",
                   self.wrap("hashing.cuckoo", online.build_cuckoo_table, after=cuckoo_done))
        self.patch(online, "build_bin_table",
                   self.wrap("hashing.bins", online.build_bin_table, after=bins_done))
        self.patch(online, "stash_encode",
                   self.wrap_aggregated("hashing.stash_encode", online.stash_encode))
        for fname in ("send_elements", "recv_elements"):
            self.patch(online, fname, self.wrap("transport.codec", getattr(online, fname)))

        def frame_sent(role, args, result):
            data = args[1]
            _length, msg_type = _HEAD.unpack_from(data)
            kind = _FRAME_NAMES.get(msg_type, "other")
            self.count(f"transport.bytes.{kind}", len(data), role)
            self.count("transport.frames", 1, role)
            with self._lock:
                self.max_frame = max(self.max_frame, len(data))

        for cls in (transport.InMemoryChannel, transport.TcpChannel):
            self.patch(cls, "send_bytes",
                       self.wrap("transport.send", cls.send_bytes, after=frame_sent))
            self.patch(cls, "recv_bytes", self.wrap("transport.recv", cls.recv_bytes))

        def prg_read(role, args, result):
            self.count("prg.bytes", len(result), role)
            if self.top() == "prg.sample":
                self.count("prg.sample_read_bytes", len(result), role)

        def prg_sampled(role, args, result):
            self.count("prg.sample_wanted_bytes", result.size * args[1].byte_len, role)

        self.patch(Prg, "read", self.wrap("prg.read", Prg.read, after=prg_read))
        for fname in ("elements", "nonzero_elements"):
            self.patch(Prg, fname, self.wrap("prg.sample", getattr(Prg, fname), after=prg_sampled))

        def inverted(role, args, result):
            self.count("modvec.inv_elements", result.size, role)

        for mod in (expand, tuples):
            self.patch(mod, "mod_inv", self.wrap("modvec.inv", mod.mod_inv, after=inverted))

        def transferred(role, args, result):
            self.count("ot.transfers", len(result), role)

        self.patch(DealerAssistedOt, "ot_send_many",
                   self.wrap("ot.transfer", DealerAssistedOt.ot_send_many))
        self.patch(DealerAssistedOt, "ot_receive_many",
                   self.wrap("ot.transfer", DealerAssistedOt.ot_receive_many, after=transferred))

    # -- reporting ---------------------------------------------------------

    def totals(self):
        """(name, role) -> [duration, self, calls] over stored spans and aggregates."""
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for _sid, _parent, name, role, start, end, self_s in self.spans:
            t = out[(name, role)]
            t[0] += end - start
            t[1] += self_s
            t[2] += 1
        for (name, role), (calls, secs) in self.calls.items():
            t = out[(name, role)]
            t[0] += secs
            t[1] += secs
            t[2] += calls
        return out

    def layer_values(self):
        """Raw per-process sums; combine_layers() turns them into metrics."""
        totals = self.totals()

        def dur(name, role=None):
            return sum(v[0] for (n, r), v in totals.items() if n == name and role in (None, r))

        def self_time(name, role=None):
            return sum(v[1] for (n, r), v in totals.items() if n == name and role in (None, r))

        def cnt(name, role=None):
            return sum(v for (n, r), v in self.counts.items() if n == name and role in (None, r))

        values = {
            "online.alice_s": dur("online.alice"),
            "online.bob_s": dur("online.bob"),
            "online.alice_self_s": self_time("online.alice"),
            "online.bob_self_s": self_time("online.bob"),
            "hashing.cuckoo_s": dur("hashing.cuckoo"),
            "hashing.bins_s": dur("hashing.bins"),
            "hashing.stash_encode_s": dur("hashing.stash_encode"),
            "hashing.stash_encode_calls": sum(
                v[2] for (n, _), v in totals.items() if n == "hashing.stash_encode"
            ),
            "hashing.stash_used": cnt("hashing.stash_used"),
            "hashing.bob_real_slots": cnt("hashing.bob_real_slots"),
            "hashing.bob_slots": cnt("hashing.bob_slots"),
            "transport.frames": cnt("transport.frames"),
            "transport.max_frame_bytes": self.max_frame,
            "tuples.token_s": dur("tuples.token"),
            "tuples.save_s": dur("tuples.save"),
            "tuples.load_s": dur("tuples.load"),
            "offline.seed_s": dur("offline.seed"),
            "offline.dealer_s": dur("offline.dealer"),
            "offline.ot_s": dur("offline.ot"),
            "offline.lbe_sim_s": dur("offline.lbe-sim"),
            "prg.sample_s": self_time("prg.sample"),
            "prg.read_s": dur("prg.read"),
            "prg.bytes": cnt("prg.bytes"),
            "prg.sample_read_bytes": cnt("prg.sample_read_bytes"),
            "prg.sample_wanted_bytes": cnt("prg.sample_wanted_bytes"),
            "modvec.inv_s": dur("modvec.inv"),
            "modvec.inv_elements": cnt("modvec.inv_elements"),
            "ot.transfers": cnt("ot.transfers"),
            "ot.transfer_s": dur("ot.transfer"),
            "trace.spans": len(self.spans) + sum(c for c, _ in self.calls.values()),
        }
        for role in ("alice", "bob"):
            values[f"transport.{role}_codec_s"] = self_time("transport.codec", role)
            values[f"transport.{role}_wait_s"] = dur("transport.recv", role)
            values[f"transport.{role}_send_s"] = dur("transport.send", role)
            # raw, for the self + children check: stash_encode split by role
            values[f"hashing.{role}_stash_encode_s"] = dur("hashing.stash_encode", role)
        for kind in ("setup", "alice_c", "bob_d"):
            values[f"transport.bytes.{kind}"] = cnt(f"transport.bytes.{kind}")
        return values

    def dump(self, path):
        """Write every span and aggregate as JSON lines."""
        with open(path, "w") as f:
            for sid, parent, name, role, start, end, self_s in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "process": self.process, "id": sid,
                    "parent": parent, "name": name, "role": role,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")
            for (name, role), (calls, secs) in sorted(self.calls.items()):
                f.write(json.dumps({
                    "run": self.run_id, "process": self.process, "aggregate": name,
                    "role": role, "calls": calls, "seconds": secs,
                }) + "\n")


def combine_layers(parts):
    """Sum raw per-process values of one iteration; derive the ratio metrics."""
    raw = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            if key == "transport.max_frame_bytes" or key.endswith("rss_mb"):
                raw[key] = max(raw[key], value)
            else:
                raw[key] += value
    slots = raw.pop("hashing.bob_slots", 0)
    real = raw.pop("hashing.bob_real_slots", 0)
    raw["hashing.bob_slot_fill"] = real / slots if slots else 0.0
    wanted = raw.pop("prg.sample_wanted_bytes", 0)
    read = raw.pop("prg.sample_read_bytes", 0)
    raw["prg.overdraw"] = read / wanted if wanted else 0.0
    return dict(raw)
