"""End-to-end coverage of every CLI subcommand.

Most tests call main() in process; one subprocess test exercises the
console entry point and the dealer service over real loopback TCP.
"""

import hashlib
import io
import os
import re
import socket
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from olepsi import tuples as tuples_mod
from olepsi.cli import UsageError, _hostport, _serve_dealer_request, main, read_set_file
from olepsi.cli import write_set as cli_write_set
from olepsi.hashing import build_cuckoo_table
from olepsi.offline import BACKENDS
from olepsi.offline import _expand as expand_mod
from olepsi.online import derive_hash_seeds
from olepsi.params import PARAM_TABLE, derive_params, sections
from olepsi.prg import SEED_LEN, Seed
from olepsi.transport import (
    _HEAD,
    DEALER_A,
    DEALER_B,
    MAX_PAYLOAD,
    SETUP,
    ChannelClosed,
    Frame,
    TcpChannel,
    TcpListener,
    recv_frame,
    send_frame,
    tcp_connect,
)
from olepsi.tuples import (
    MAX_PART,
    SIDE_ALICE,
    SIDE_BOB,
    alice_file_len,
    load_inventories,
    save_inventories,
    section_bytes,
)

from blocks import dealer_reply
from oracles import (
    bin_index,
    reference_section_bytes,
    split_element,
    with_header,
    write_format_1_bob_file,
)

ROOT = Path(__file__).resolve().parents[1]
BASE = ["--n", "64", "--k", "3", "--sigma", "16"]
BASE_STASH = ["--n", "64", "--k", "2", "--sigma", "16", "--stash", "4"]
# a 4.13 MiB Alice file at a 2-byte field: many frames of the dealer's stream
BIG = ["--n", "65536", "--k", "3", "--sigma", "24"]
SEED_A = "11" * 32
SEED_B = "22" * 32


def invoke(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse exits on usage errors
        return e.code


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture(scope="module")
def tuple_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("tuples")
    a, b = str(d / "a.tup"), str(d / "b.tup")
    rc = invoke(["offline", "--mode", "seed", "--seed", SEED_A,
                 "--out-alice", a, "--out-bob", b] + BASE)
    assert rc == 0
    return a, b


def write_set(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


@pytest.mark.parametrize("values", [set(), {7}, {2**31, 2**31 + 5, 3, 2**40 - 1}],
                         ids=["empty", "one", "wide"])
def test_write_set_bytes_match_per_line_print(values):
    # one buffered write gives the bytes the per-line print writer gave
    old = io.StringIO()
    for v in sorted(values):
        print(v, file=old)
    new = io.StringIO()
    cli_write_set(new, values)
    assert new.getvalue() == old.getvalue()


class TestParams:
    def test_prints_derived_values(self, capsys):
        assert invoke(["params", "--n", "1024", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "q: 12582917" in out
        assert "beta: 23" in out
        assert re.search(r"digest: [0-9a-f]{32}", out)

    def test_bad_k_is_usage_error(self, capsys):
        assert invoke(["params", "--n", "1024", "--k", "5"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert invoke([]) == 2
        assert "COMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["params", "--n", "1024", "--k", "3", "--stash", "-2"], "--stash"),
        (["bench", "--n", "64", "--k", "2", "--stash", "-1"], "--stash"),
        (["bench", "--n", "1024", "--k", "3", "--lam", "-5"], "--lam"),
        (["bench", "--n", "1024", "--k", "3", "--lam", "-5", "--offline", "lbe-sim"], "--lam"),
    ])
    def test_negative_stash_or_lambda_is_usage_error(self, capsys, argv, flag):
        assert invoke(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("text, want", [("127.0.0.1:7000", ("127.0.0.1", 7000)),
                                            ("[::1]:7000", ("::1", 7000)),
                                            (":7000", ("127.0.0.1", 7000)),
                                            ("127.0.0.1:0", ("127.0.0.1", 0)),
                                            ("127.0.0.1:65535", ("127.0.0.1", 65535)),
                                            ("127.0.0.1:65536", None),
                                            ("127.0.0.1:70000", None),
                                            ("[::1]:99999", None),
                                            ("127.0.0.1:-1", None),
                                            ("127.0.0.1:\u00b2", None)])
    def test_hostport(self, text, want):
        if want is None:
            with pytest.raises(UsageError, match="0-65535"):
                _hostport(text)
        else:
            assert _hostport(text) == want

    @pytest.mark.parametrize("argv", [
        ["dealer", "--listen", "127.0.0.1:99999", "--seed", SEED_B],
        ["offline", "--connect", "127.0.0.1:70000", "--role", "alice", "--out-alice", "{tmp}/a"],
        ["run", "--role", "bob", "--connect", "127.0.0.1:70000",
         "--set", "{tmp}/set", "--tuples", "{tmp}/b"],
    ], ids=["dealer", "offline", "run"])
    def test_port_above_65535_is_usage_error(self, tmp_path, capsys, argv):
        # the port is refused before any work, and not wrapped mod 2^16
        assert invoke([a.format(tmp=tmp_path) for a in argv] + BASE) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1 and "0-65535" in err
        assert list(tmp_path.iterdir()) == []


class TestOffline:
    def test_files_load_and_tokens_agree(self, tuple_files):
        a, b = tuple_files
        secs_a, tok_a = load_inventories(a, SIDE_ALICE)
        secs_b, tok_b = load_inventories(b, SIDE_BOB)
        assert tok_a == tok_b
        p = derive_params(64, 3, sigma=16)
        assert [len(s) for s in secs_a] == [p.alpha, p.stash_size]
        assert [s.slot_len for s in secs_b] == [p.beta, p.n]

    def test_deterministic_given_seed(self, tmp_path, tuple_files, capsys):
        a2 = str(tmp_path / "a2.tup")
        b2 = str(tmp_path / "b2.tup")
        rc = invoke(["offline", "--mode", "seed", "--seed", SEED_A,
                     "--out-alice", a2, "--out-bob", b2] + BASE)
        assert rc == 0
        with open(tuple_files[0], "rb") as f1, open(a2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_all_backends_run(self, tmp_path, capsys):
        for mode in ("dealer", "ot", "lbe-sim"):
            rc = invoke(["offline", "--mode", mode, "--seed", SEED_B,
                         "--out-alice", str(tmp_path / f"{mode}.a"),
                         "--out-bob", str(tmp_path / f"{mode}.b"),
                         "--n", "16", "--k", "3", "--sigma", "8"])
            assert rc == 0, mode
            assert f"mode: {mode}" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        rc = invoke(["offline", "--out-alice", "/tmp/only-one.tup"] + BASE)
        assert rc == 2
        assert "out-bob" in capsys.readouterr().err

    def test_bad_seed_hex(self, tmp_path, capsys):
        rc = invoke(["offline", "--seed", "zz",
                     "--out-alice", str(tmp_path / "a"),
                     "--out-bob", str(tmp_path / "b")] + BASE)
        assert rc == 2

    def test_failed_worker_exits_4(self, tmp_path, monkeypatch, capfd):
        # two usable CPUs and chunks of 2 rows: the forked worker's chunks
        # fail there, and the command reports it without a traceback of its own
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(expand_mod, "_row_chunk", lambda slot_len: 2)
        parent, real = os.getpid(), expand_mod._expand_chunk

        def chunk(*item):
            if os.getpid() != parent:
                raise RuntimeError("worker chunk failed")
            real(*item)

        monkeypatch.setattr(expand_mod, "_expand_chunk", chunk)
        a, b = tmp_path / "a.tup", tmp_path / "b.tup"
        rc = invoke(["offline", "--mode", "seed", "--seed", SEED_A,
                     "--out-alice", str(a), "--out-bob", str(b)] + BASE)
        assert rc == 4
        last = capfd.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("error: ") and "expansion workers failed" in last
        assert not a.exists() and not b.exists()

    def test_connect_requires_role(self, capsys):
        rc = invoke(["offline", "--connect", "127.0.0.1:1"] + BASE)
        assert rc == 2
        assert "--role" in capsys.readouterr().err


class TestDealerFrameBounds:
    """Each side of the dealer service bounds the frame it reads by the size
    the protocol fixes, so an oversize header is refused while the peer
    still holds the connection open and has sent no payload. The dealer
    drops a bad client and keeps serving; a client given a bad reply exits 3."""

    def start_dealer(self, rc, base=BASE):
        port = free_port()
        # a daemon, so a dealer still waiting for a client cannot hang the tests
        dealer = threading.Thread(target=lambda: rc.append(invoke(
            ["dealer", "--listen", f"127.0.0.1:{port}", "--seed", SEED_B] + base)),
            daemon=True)
        dealer.start()
        return dealer, port

    def fetch(self, tmp_path, port, role, base=BASE):
        return invoke(["offline", "--connect", f"127.0.0.1:{port}", "--role", role,
                       f"--out-{role}", str(tmp_path / f"{role}.tup")] + base)

    def test_oversize_request_fails_at_header(self, tmp_path, capsys):
        rc = []
        dealer, port = self.start_dealer(rc)
        try:
            chan = tcp_connect("127.0.0.1", port)
            try:
                chan.send_bytes(_HEAD.pack(len(b"alice") + 16 + 1, SETUP))
                # the dealer closes the connection without reading a payload
                with pytest.raises(ChannelClosed):
                    chan.recv_bytes(1)
            finally:
                chan.close()
            assert dealer.is_alive()
            assert "22 byte payload, limit 21" in capsys.readouterr().err
            # both real parties are still served, and the service ends cleanly
            assert self.fetch(tmp_path, port, "alice") == 0
            assert self.fetch(tmp_path, port, "bob") == 0
        finally:
            dealer.join(timeout=30)
        assert rc == [0]
        secs_a, tok_a = load_inventories(tmp_path / "alice.tup", SIDE_ALICE)
        secs_b, tok_b = load_inventories(tmp_path / "bob.tup", SIDE_BOB)
        assert tok_a == tok_b
        assert "served alice" in capsys.readouterr().err

    def test_dealer_gives_up_after_refused_connections(self, monkeypatch, capsys):
        import olepsi.cli as cli

        monkeypatch.setattr(cli, "DEALER_MAX_REFUSED", 2)
        rc = []
        dealer, port = self.start_dealer(rc)
        try:
            for _ in range(2):
                chan = tcp_connect("127.0.0.1", port)
                send_frame(chan, Frame(SETUP, b"carol" + bytes(16)))
                with pytest.raises(ChannelClosed):
                    chan.recv_bytes(1)
                chan.close()
        finally:
            dealer.join(timeout=30)
        assert rc == [3]
        err = capsys.readouterr().err
        assert err.count("bad dealer request") == 2
        assert "gave up after 2 refused connections" in err

    def fetch_from_fake(self, tmp_path, reply, role, hold=True, base=BASE):
        """Fetch `role` from a fake dealer that answers with the bytes `reply`,
        then holds the connection open until the fetch ends, or closes it
        at once if not `hold`."""
        srv = TcpListener("127.0.0.1", 0)
        done = threading.Event()

        def fake_dealer():
            chan = srv.accept()
            try:
                recv_frame(chan)
                chan.send_bytes(reply)
                if hold:
                    done.wait(10)
            finally:
                chan.close()

        server = threading.Thread(target=fake_dealer)
        server.start()
        try:
            return self.fetch(tmp_path, srv.port, role, base)
        finally:
            done.set()
            server.join(timeout=30)
            srv.close()

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_oversize_dealer_reply_fails_at_header(self, tmp_path, capsys, role):
        p = derive_params(64, 3, sigma=16)
        limits = {"alice": (DEALER_A, alice_file_len(p)), "bob": (DEALER_B, SEED_LEN)}
        msg_type, limit = limits[role]
        rc = self.fetch_from_fake(tmp_path, _HEAD.pack(limit + 1, msg_type), role)
        assert rc == 3
        assert f"{limit + 1} byte payload, limit {limit}" in capsys.readouterr().err
        assert not (tmp_path / f"{role}.tup").exists()

    def alice_payload(self, p, **fields):
        """A DEALER_A payload for p with `fields` of its bins section header
        replaced."""
        alice, token = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
        return with_header(b"".join(section_bytes(alice, SIDE_ALICE, token)), **fields)

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_truncated_dealer_reply_is_protocol_error(self, tmp_path, capsys, role):
        p = derive_params(64, 3, sigma=16)
        # Alice's file streams in frames, so her fake dealer closes after
        # its 60 bytes: the stream ends before the file does
        if role == "alice":
            short = _HEAD.pack(60, DEALER_A) + self.alice_payload(p)[:60]
            want = "stream ended mid-message"
        else:
            short = _HEAD.pack(20, DEALER_B) + bytes(20)
            want = f"dealer-to-Bob message must be {SEED_LEN} bytes"
        rc = self.fetch_from_fake(tmp_path, short, role, hold=role == "bob")
        assert rc == 3
        err = capsys.readouterr().err
        assert want in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{role}.tup").exists()

    def refuse_alice_payload(self, tmp_path, capsys, payload, want):
        """A reply of the right length carrying `payload` exits 3 with `want`
        in the error, no traceback and no tuple file."""
        p = derive_params(64, 3, sigma=16)
        assert len(payload) == alice_file_len(p)
        rc = self.fetch_from_fake(tmp_path, _HEAD.pack(len(payload), DEALER_A) + payload, "alice")
        assert rc == 3
        err = capsys.readouterr().err
        assert want in err
        assert "Traceback" not in err
        assert not (tmp_path / "alice.tup").exists()

    def test_misshaped_dealer_reply_is_protocol_error(self, tmp_path, capsys):
        # as many words as the parameters need, with the bins header declaring
        # 1 + beta batches of alpha - 1 slots
        p = derive_params(64, 3, sigma=16)
        payload = self.alice_payload(p, count=p.beta + 1, slot_len=p.alpha - 1)
        want = f"bin batches: need {p.alpha} batches, have {p.beta + 1}"
        self.refuse_alice_payload(tmp_path, capsys, payload, want)

    @pytest.mark.parametrize("fields, want", [
        ({"q": 3083}, "bin batches: inventory modulus 3083 does not match params (3079)"),
        ({"magic": b"OLEB"}, "alice section 1 holds bob-side data, wanted alice"),
        ({"q": 3080}, "alice section 1 header: modulus 3080 is not prime"),
    ], ids=["other-field", "bob-magic", "non-prime-q"])
    def test_bad_dealer_reply_header_is_protocol_error(self, tmp_path, capsys, fields, want):
        p = derive_params(64, 3, sigma=16)
        assert p.modulus.q == 3079
        self.refuse_alice_payload(tmp_path, capsys, self.alice_payload(p, **fields), want)

    @pytest.mark.parametrize("base", [BASE_STASH, BASE], ids=["k2-stash4", "k3"])
    def test_served_files_equal_local_dealer_files(self, tmp_path, capsys, base):
        # the dealer service and `offline --mode dealer` give the same bytes
        rc = []
        dealer, port = self.start_dealer(rc, base)
        try:
            for role in ("alice", "bob"):
                assert self.fetch(tmp_path, port, role, base) == 0
        finally:
            dealer.join(timeout=30)
        assert rc == [0]
        assert invoke(["offline", "--mode", "dealer", "--seed", SEED_B,
                       "--out-alice", str(tmp_path / "a.tup"),
                       "--out-bob", str(tmp_path / "b.tup")] + base) == 0
        for served, local in (("alice.tup", "a.tup"), ("bob.tup", "b.tup")):
            assert (tmp_path / served).read_bytes() == (tmp_path / local).read_bytes()

    def local_dealer_files(self, tmp_path, base):
        """The bytes of Alice's and Bob's files from `offline --mode dealer`."""
        a, b = tmp_path / "local-a.tup", tmp_path / "local-b.tup"
        assert invoke(["offline", "--mode", "dealer", "--seed", SEED_B,
                       "--out-alice", str(a), "--out-bob", str(b)] + base) == 0
        return a.read_bytes(), b.read_bytes()

    @pytest.mark.parametrize("sizes", [(1, 3, 5, 7, 9, 37, 2), None], ids=["odd", "one-frame"])
    def test_frames_of_any_size_give_the_local_file(self, tmp_path, capsys, sizes):
        # the client writes what arrives, however the stream is cut: here in
        # frames of the given sizes, in turn, or (an older dealer's reply) in
        # one frame, which fits the bound while the file is at most one part
        local, _ = self.local_dealer_files(tmp_path, BASE)
        assert len(local) <= MAX_PART
        reply, pos, turn = b"", 0, 0
        while pos < len(local):
            size = len(local) if sizes is None else sizes[turn % len(sizes)]
            part = local[pos : pos + size]
            reply += _HEAD.pack(len(part), DEALER_A) + part
            pos, turn = pos + len(part), turn + 1
        assert self.fetch_from_fake(tmp_path, reply, "alice") == 0
        assert (tmp_path / "alice.tup").read_bytes() == local

    @pytest.mark.parametrize("frames, want", [
        ([(DEALER_A, b"")], "empty DEALER_A frame"),
        ([(DEALER_A, b"OLEA"), (DEALER_B, bytes(32))], "wanted DEALER_A, got type 5"),
    ], ids=["empty", "other-type"])
    def test_bad_stream_frame_is_protocol_error(self, tmp_path, capsys, frames, want):
        reply = b"".join(_HEAD.pack(len(body), t) + body for t, body in frames)
        assert self.fetch_from_fake(tmp_path, reply, "alice") == 3
        err = capsys.readouterr().err
        assert want in err
        assert "Traceback" not in err
        assert not (tmp_path / "alice.tup").exists()
        assert os.listdir(tmp_path) == []  # no temp file either

    def test_frame_longer_than_a_part_fails_at_header(self, tmp_path, capsys):
        # within the file's length, but longer than any part the dealer sends:
        # an older dealer's one-frame reply at this size is refused here too
        p = derive_params(1 << 16, 3, sigma=24)
        assert alice_file_len(p) > MAX_PART + 1
        reply = _HEAD.pack(MAX_PART + 1, DEALER_A)
        assert self.fetch_from_fake(tmp_path, reply, "alice", base=BIG) == 3
        assert f"{MAX_PART + 1} byte payload, limit {MAX_PART}" in capsys.readouterr().err
        assert not (tmp_path / "alice.tup").exists()

    def test_fetch_holds_about_one_frame(self, tmp_path, capsys):
        # a dealer process streams a 4.13 MiB Alice file; the client's traced
        # peak stays far below the file it writes (the whole-file reply
        # peaked at 4.3 MiB), and both served files equal the local ones
        p = derive_params(1 << 16, 3, sigma=24)
        assert p.modulus.byte_len == 2 and alice_file_len(p) > 4 << 20
        with subprocess.Popen(
            [sys.executable, "-m", "olepsi.cli", "dealer", "--listen", "127.0.0.1:0",
             "--seed", SEED_B] + BIG,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        ) as dealer:
            try:
                port = re.search(r"port (\d+)", dealer.stderr.readline()).group(1)
                tracemalloc.start()
                try:
                    rc = self.fetch(tmp_path, port, "alice", BIG)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert rc == 0
                assert self.fetch(tmp_path, port, "bob", BIG) == 0
                assert dealer.wait(timeout=60) == 0
            finally:
                dealer.kill()
        assert peak < 1 << 20, peak / (1 << 20)
        local_a, local_b = self.local_dealer_files(tmp_path, BIG)
        assert (tmp_path / "alice.tup").read_bytes() == local_a
        assert (tmp_path / "bob.tup").read_bytes() == local_b

    def test_serve_holds_about_one_part(self):
        # the dealer sends Alice's 4.13 MiB file part by part, one frame
        # each; its traced peak stays far below the file (the joined reply
        # peaked at 8.3 MiB). The client end is drained into one small buffer.
        p = derive_params(1 << 16, 3, sigma=24)
        R_B = Seed(bytes([2]) * 32)
        alice, token = dealer_reply(Seed(bytes([1]) * 32), R_B, p)
        parts = list(section_bytes(alice, SIDE_ALICE, token))
        want = hashlib.sha256(b"".join(_HEAD.pack(len(x), DEALER_A) + bytes(x) for x in parts))
        total = sum(_HEAD.size + len(x) for x in parts)
        del parts
        ours, theirs = socket.socketpair()
        chan = TcpChannel(ours)
        theirs.sendall(_HEAD.pack(len(b"alice") + 16, SETUP) + b"alice" + p.digest())
        got = hashlib.sha256()

        def drain():
            buf = memoryview(bytearray(1 << 16))
            left = total
            while left:
                k = theirs.recv_into(buf, min(left, len(buf)))
                assert k
                got.update(buf[:k])
                left -= k

        tracemalloc.start()
        try:
            reader = threading.Thread(target=drain)
            reader.start()
            try:
                assert _serve_dealer_request(chan, p, alice, token, R_B, set()) == "alice"
            finally:
                reader.join(timeout=60)
            assert not reader.is_alive()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            chan.close()
            theirs.close()
        assert got.digest() == want.digest()
        assert peak < 1 << 20, peak / (1 << 20)


def alice_part_lens(p):
    """The byte length of each part section_bytes yields for Alice's file at
    p, from the parameters alone: per section a header, then its rows
    * (1 + cols) words in passes of tuples._PASS_WORDS."""
    for _, rows, cols in sections(p):
        yield tuples_mod._HEADER.size
        words = rows * (1 + cols)
        for lo in range(0, words, tuples_mod._PASS_WORDS):
            yield min(tuples_mod._PASS_WORDS, words - lo) * p.modulus.byte_len


def test_alice_part_lens_are_the_parts_section_bytes_yields(tmp_path):
    # a stash section and a bins section of several passes each
    p = derive_params(1 << 13, 2, sigma=20)
    assert p.stash_size and p.alpha * (1 + p.beta) > 2 * tuples_mod._PASS_WORDS
    alice, token = dealer_reply(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
    parts = section_bytes(alice, SIDE_ALICE, token)
    assert [len(x) for x in parts] == list(alice_part_lens(p))
    save_inventories(tmp_path / "a.tup", alice, SIDE_ALICE, token)
    assert (tmp_path / "a.tup").stat().st_size == sum(alice_part_lens(p))


@pytest.mark.parametrize("n, k", sorted(PARAM_TABLE))
def test_dealer_stream_fits_frames_at_every_param_table_row(n, k):
    # computed from the parameters, without allocating: every part of
    # Alice's stream fits the client's per-frame bound, which fits the wire's,
    # and the parts add up to the file the client waits for (2.4-4.9 GiB at
    # 2^26, more than one frame could carry)
    p = derive_params(n, k)
    lens = list(alice_part_lens(p))
    assert max(lens) <= MAX_PART <= MAX_PAYLOAD
    assert sum(lens) == alice_file_len(p)


class TestSetFiles:
    def test_read_round_trip(self, tmp_path):
        path = write_set(tmp_path / "s.txt", [5, 1, 9])
        assert read_set_file(path, 16).tolist() == [1, 5, 9]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("3\n\n7\n")
        assert read_set_file(str(p), 8).tolist() == [3, 7]

    def test_underscore_digits_refused(self, tmp_path, capsys, tuple_files):
        # int() reads "1_000", but the one accepted format is np.loadtxt's;
        # the file is refused before any connection is tried
        p = tmp_path / "bad.txt"
        p.write_text("1_000\n5\n")
        rc = invoke(["run", "--role", "bob", "--set", str(p),
                     "--tuples", tuple_files[1],
                     "--connect", f"127.0.0.1:{free_port()}"] + BASE)
        assert rc == 2
        err = capsys.readouterr().err
        assert str(p) in err and "1_000" in err

    @pytest.mark.parametrize("body,fragment", [
        ("4\n4\n", "duplicate"),
        ("4\nbeef\n", "not an unsigned integer"),
        ("4\n70000\n", "outside"),
        ("-1\n", "outside"),
    ])
    def test_rejections_carry_line_numbers(self, tmp_path, capsys, tuple_files,
                                           body, fragment):
        p = tmp_path / "bad.txt"
        p.write_text(body)
        rc = invoke(["run", "--role", "alice", "--set", str(p),
                     "--tuples", tuple_files[0],
                     "--listen", "127.0.0.1:0"] + BASE)
        assert rc == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert f"{p}:2" in err or f"{p}:1" in err


class TestRun:
    def run_pair(self, tmp_path, tuple_files, x, y, extra_a=(), extra_b=(),
                 tuples_b=None, base=BASE):
        a_file = write_set(tmp_path / "x.txt", x)
        b_file = write_set(tmp_path / "y.txt", y)
        out = tmp_path / "out.txt"
        port = str(free_port())
        rcs = {}

        def alice():
            rcs["a"] = invoke(["run", "--role", "alice", "--set", a_file,
                               "--tuples", tuple_files[0],
                               "--listen", f"127.0.0.1:{port}",
                               "--out", str(out)] + base + list(extra_a))

        t = threading.Thread(target=alice, daemon=True)
        t.start()
        rcs["b"] = invoke(["run", "--role", "bob", "--set", b_file,
                           "--tuples", tuples_b or tuple_files[1],
                           "--connect", f"127.0.0.1:{port}"] + base + list(extra_b))
        t.join(timeout=60)
        assert not t.is_alive()
        return rcs, out

    def test_tcp_intersection(self, tmp_path, tuple_files):
        x = list(range(100, 150))
        y = list(range(130, 180))
        rcs, out = self.run_pair(tmp_path, tuple_files, x, y)
        assert rcs == {"a": 0, "b": 0}
        got = [int(s) for s in out.read_text().split()]
        assert got == sorted(set(x) & set(y))
        assert got == sorted(got)

    def test_tcp_intersection_with_stash(self, tmp_path):
        # k=2 with a stash: three of Alice's elements share both candidate
        # bins, so one of them must go to the stash and is compared through
        # stash encodings sent over the socket
        files = str(tmp_path / "a.tup"), str(tmp_path / "b.tup")
        assert invoke(["offline", "--mode", "seed", "--seed", SEED_A,
                       "--out-alice", files[0], "--out-bob", files[1]] + BASE_STASH) == 0
        p = derive_params(64, 2, sigma=16, stash_size=4)
        seeds = derive_hash_seeds(p, load_inventories(files[1], SIDE_BOB)[1])
        by_bins = {}
        for v in range(1 << 16):
            x1, x2 = split_element(v, p)
            key = tuple(sorted(bin_index(j, x1, x2, seeds, p) for j in range(2)))
            by_bins.setdefault(key, []).append(v)
            if len(by_bins[key]) == 3:
                break
        x = by_bins[key] + [v for v in range(1000, 1020) if v not in by_bins[key]]
        stash = build_cuckoo_table(x, p, seeds=seeds).stash
        assert stash and stash[0] in by_bins[key]  # the path this test exists for
        y = [stash[0], 1005, 1006] + list(range(50000, 50030))
        rcs, out = self.run_pair(tmp_path, files, x, y, base=BASE_STASH)
        assert rcs == {"a": 0, "b": 0}
        got = [int(s) for s in out.read_text().split()]
        assert got == sorted(set(x) & set(y))
        assert stash[0] in got

    def test_stats_flag(self, tmp_path, tuple_files, capsys):
        rcs, _ = self.run_pair(tmp_path, tuple_files, [1, 2], [2, 3],
                               extra_b=["--stats"])
        assert rcs["b"] == 0
        err = capsys.readouterr().err
        assert "sent:" in err and "received:" in err

    def test_token_mismatch_is_protocol_error(self, tmp_path, tuple_files, capsys):
        other_b = str(tmp_path / "other.b")
        rc = invoke(["offline", "--mode", "seed", "--seed", SEED_B,
                     "--out-alice", str(tmp_path / "other.a"),
                     "--out-bob", other_b] + BASE)
        assert rc == 0
        rcs, _ = self.run_pair(tmp_path, tuple_files, [1], [1],
                               tuples_b=other_b)
        assert rcs == {"a": 3, "b": 3}
        # both roles name the cause, not only the one that read first
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 2
        assert all("token" in line for line in errors)

    def test_silent_peer_is_io_error(self, tmp_path, tuple_files, monkeypatch, capsys):
        # the peer accepts and never sends; a short channel timeout stands
        # in for the default one
        import olepsi.cli as cli
        from olepsi.transport import TcpChannel

        monkeypatch.setattr(cli, "tcp_connect", lambda host, port: TcpChannel(
            socket.create_connection((host, port)), timeout=0.5))
        srv = socket.create_server(("127.0.0.1", 0))
        s = write_set(tmp_path / "s.txt", [1])
        try:
            rc = invoke(["run", "--role", "bob", "--set", s,
                         "--tuples", tuple_files[1],
                         "--connect", f"127.0.0.1:{srv.getsockname()[1]}"] + BASE)
        finally:
            srv.close()
        assert rc == 4
        assert "no data from peer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "dealer"])
    def test_no_peer_connecting_is_io_error(self, tmp_path, tuple_files, monkeypatch,
                                            capsys, command):
        # no peer ever connects: the listener gives up after its timeout, a
        # short one standing in for the default, instead of waiting forever
        import functools
        import time

        import olepsi.cli as cli

        monkeypatch.setattr(cli, "TcpListener", functools.partial(TcpListener, timeout=0.3))
        if command == "run":
            argv = ["run", "--role", "alice", "--set", write_set(tmp_path / "s.txt", [1]),
                    "--tuples", tuple_files[0]]
        else:
            argv = ["dealer", "--seed", SEED_B]
        start = time.monotonic()
        rc = invoke(argv + ["--listen", "127.0.0.1:0"] + BASE)
        assert time.monotonic() - start < 10
        assert rc == 4
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "no peer connected" in errors[0]

    @pytest.mark.parametrize("command", ["run", "offline"])
    def test_unreachable_peer_is_io_error(self, tmp_path, tuple_files, monkeypatch, capsys,
                                          command):
        # nothing listens on the port: the connector gives up with exit 4, a
        # network failure, as a listener that no peer reaches does
        import olepsi.transport as transport

        monkeypatch.setattr(transport, "_CONNECT_DELAY", 0)
        if command == "run":
            argv = ["run", "--role", "bob", "--set", write_set(tmp_path / "s.txt", [1]),
                    "--tuples", tuple_files[1]]
        else:
            argv = ["offline", "--role", "bob", "--out-bob", str(tmp_path / "b.tup")]
        rc = invoke(argv + ["--connect", f"127.0.0.1:{free_port()}"] + BASE)
        assert rc == 4
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "could not connect to 127.0.0.1:" in errors[0]

    def test_oversize_set_exits_2_before_connecting(self, tmp_path, tuple_files, capsys):
        srv = socket.create_server(("127.0.0.1", 0))
        s = write_set(tmp_path / "s.txt", range(65))
        try:
            rc = invoke(["run", "--role", "bob", "--set", s, "--tuples", tuple_files[1],
                         "--connect", f"127.0.0.1:{srv.getsockname()[1]}"] + BASE)
            # refused before connecting: no peer is left waiting on a dead channel
            srv.settimeout(0.2)
            with pytest.raises(TimeoutError):
                srv.accept()
        finally:
            srv.close()
        assert rc == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {s}: 65 elements, more than n = 64"]

    def test_missing_tuples_is_io_error(self, tmp_path, capsys):
        s = write_set(tmp_path / "s.txt", [1])
        rc = invoke(["run", "--role", "alice", "--set", s,
                     "--tuples", str(tmp_path / "nope.tup"),
                     "--listen", "127.0.0.1:0"] + BASE)
        assert rc == 4

    def test_wrong_side_file_is_io_error(self, tmp_path, tuple_files, capsys):
        s = write_set(tmp_path / "s.txt", [1])
        rc = invoke(["run", "--role", "alice", "--set", s,
                     "--tuples", tuple_files[1],
                     "--listen", "127.0.0.1:0"] + BASE)
        assert rc == 4
        assert "side" in capsys.readouterr().err

    def test_format_1_tuple_file_exits_4_before_setup(self, tmp_path, tuple_files, capsys):
        secs, token = load_inventories(tuple_files[1], SIDE_BOB)
        old = tmp_path / "b1.tup"
        write_format_1_bob_file(old, secs, token)
        srv = socket.create_server(("127.0.0.1", 0))
        s = write_set(tmp_path / "s.txt", [1])
        try:
            rc = invoke(["run", "--role", "bob", "--set", s, "--tuples", str(old),
                         "--connect", f"127.0.0.1:{srv.getsockname()[1]}"] + BASE)
            # refused before connecting, so no SETUP frame can have been sent
            srv.settimeout(0.2)
            with pytest.raises(TimeoutError):
                srv.accept()
        finally:
            srv.close()
        assert rc == 4
        assert "format 1 is not supported" in capsys.readouterr().err

    def test_section_larger_than_file_exits_4(self, tmp_path, capsys):
        big = tmp_path / "big.tup"
        big.write_bytes(reference_section_bytes(b"OLEB", 6151, 2**31, 4096, bytes(16), [])
                        + bytes(64))
        s = write_set(tmp_path / "s.txt", [1])
        rc = invoke(["run", "--role", "bob", "--set", s, "--tuples", str(big),
                     "--connect", "127.0.0.1:9"] + BASE)
        assert rc == 4
        assert "truncated bob section payload" in capsys.readouterr().err

    def test_non_prime_modulus_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.tup"
        bad.write_bytes(reference_section_bytes(b"OLEB", 6150, 1, 1, bytes(16), [1, 1]))
        s = write_set(tmp_path / "s.txt", [1])
        rc = invoke(["run", "--role", "bob", "--set", s, "--tuples", str(bad),
                     "--connect", "127.0.0.1:9"] + BASE)
        assert rc == 4
        assert "modulus 6150 is not prime" in capsys.readouterr().err

    def test_file_of_another_sigma_exits_3(self, tmp_path, capsys):
        # same sections, another prime field: refused like any other misfit
        a, b = str(tmp_path / "a.tup"), str(tmp_path / "b.tup")
        assert invoke(["offline", "--mode", "seed", "--seed", SEED_A,
                       "--out-alice", a, "--out-bob", b,
                       "--n", "64", "--k", "3", "--sigma", "20"]) == 0
        s = write_set(tmp_path / "s.txt", [1])
        rc = invoke(["run", "--role", "alice", "--set", s, "--tuples", a,
                     "--connect", "127.0.0.1:9"] + BASE)
        assert rc == 3
        assert "bin batches" in capsys.readouterr().err

    def test_needs_exactly_one_endpoint(self, tmp_path, tuple_files, capsys):
        s = write_set(tmp_path / "s.txt", [1])
        base = ["run", "--role", "alice", "--set", s,
                "--tuples", tuple_files[0]] + BASE
        assert invoke(base) == 2
        assert invoke(base + ["--listen", "h:1", "--connect", "h:2"]) == 2

    def test_bad_hostport(self, tmp_path, tuple_files, capsys):
        s = write_set(tmp_path / "s.txt", [1])
        rc = invoke(["run", "--role", "alice", "--set", s,
                     "--tuples", tuple_files[0],
                     "--listen", "nocolon"] + BASE)
        assert rc == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestBench:
    def test_report_and_formula_match(self, capsys):
        rc = invoke(["bench", "--n", "64", "--sigma", "16",
                     "--offline", "seed", "--seed", SEED_A])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench-report:" in out
        assert "measured-equals-formula: True" in out
        assert "correct: True" in out
        for key in ("offline-seconds", "wall-seconds", "bits-per-element-measured"):
            assert key in out, key

    def test_other_backend(self, capsys):
        rc = invoke(["bench", "--n", "16", "--sigma", "8", "--offline", "lbe-sim"])
        assert rc == 0
        assert "backend: lbe-sim" in capsys.readouterr().out


def readme_bench_keys():
    """The keys of README's bench-report table, in order."""
    section = (ROOT / "README.md").read_text().split("## Benchmarks", 1)[1].split("\n## ", 1)[0]
    return [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([a-z-]+)`", line.split("|")[1])]


class TestBenchReport:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", [3, 2])  # k=2 has a stash at n=64
    def test_whole_report(self, capsys, backend, k):
        rc = invoke(["bench", "--n", "64", "--k", str(k), "--sigma", "16",
                     "--offline", backend, "--seed", SEED_A])
        assert rc == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head == "bench-report:"
        report = dict(line.strip().split(": ", 1) for line in lines)
        assert list(report) == readme_bench_keys()
        assert len(report) == 14
        p = derive_params(64, k, sigma=16)
        assert report["backend"] == backend
        assert int(report["elements-sent"]) == p.alpha + p.stash_size
        assert int(report["elements-received"]) == p.alpha * p.beta + p.stash_size * p.n
        assert report["measured-equals-formula"] == "True"
        assert report["correct"] == "True"


class TestDemos:
    def test_ot_demo_all_rows(self, capsys):
        assert invoke(["ot-demo"]) == 0
        out = capsys.readouterr().out
        assert "all-rows-match: True" in out
        assert len([l for l in out.splitlines() if "|" in l]) == 9  # header + 8

    def test_mismatch_demo(self, capsys):
        assert invoke(["mismatch-demo"]) == 0
        out = capsys.readouterr().out
        assert out.count("(expected True)") >= 2
        assert out.count("(expected False)") >= 2
        assert "keyed variant" in out


@pytest.mark.slow
class TestLoopbackSmoke:
    """Console entry point, dealer service, and a full PSI run as real
    subprocesses over loopback TCP."""

    CLI = [sys.executable, "-m", "olepsi.cli"]

    def test_dealer_then_run(self, tmp_path):
        da, db = str(tmp_path / "da.tup"), str(tmp_path / "db.tup")
        # leaving the with block closes the dealer's pipes
        with subprocess.Popen(
            self.CLI + ["dealer", "--listen", "127.0.0.1:0", "--seed", SEED_B] + BASE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as dealer:
            try:
                port = re.search(r"port (\d+)", dealer.stderr.readline()).group(1)
                for role, out_flag, path in (("alice", "--out-alice", da),
                                             ("bob", "--out-bob", db)):
                    fetch = subprocess.run(
                        self.CLI + ["offline", "--connect", f"127.0.0.1:{port}",
                                    "--role", role, out_flag, path] + BASE,
                        capture_output=True, text=True, timeout=60)
                    assert fetch.returncode == 0, fetch.stderr
                assert dealer.wait(timeout=30) == 0
            finally:
                dealer.kill()

        x = write_set(tmp_path / "x.txt", range(200, 264))
        y = write_set(tmp_path / "y.txt", range(232, 296))
        port = str(free_port())
        alice = subprocess.Popen(
            self.CLI + ["run", "--role", "alice", "--set", x, "--tuples", da,
                        "--listen", f"127.0.0.1:{port}", "--stats"] + BASE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            bob = subprocess.run(
                self.CLI + ["run", "--role", "bob", "--set", y, "--tuples", db,
                            "--connect", f"127.0.0.1:{port}"] + BASE,
                capture_output=True, text=True, timeout=60)
            out, err = alice.communicate(timeout=60)
        finally:
            alice.kill()
        assert bob.returncode == 0, bob.stderr
        assert alice.returncode == 0, err
        assert [int(v) for v in out.split()] == list(range(232, 264))
        assert "received:" in err
