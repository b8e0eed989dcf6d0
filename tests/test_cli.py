"""End-to-end coverage of every CLI subcommand.

Most tests call main() in process; one subprocess test exercises the
console entry point and the dealer service over real loopback TCP.
"""

import dataclasses
import re
import socket
import subprocess
import sys
import threading

import pytest

from olepsi.cli import main, read_set_file
from olepsi.hashing import build_cuckoo_table
from olepsi.offline.dealer import dealer_generate, encode_to_alice, to_alice_len
from olepsi.online import derive_hash_seeds
from olepsi.params import derive_params
from olepsi.prg import SEED_LEN, Seed
from olepsi.transport import (
    _HEAD,
    DEALER_A,
    DEALER_B,
    SETUP,
    ChannelClosed,
    Frame,
    TcpListener,
    recv_frame,
    send_frame,
    tcp_connect,
)
from olepsi.tuples import SIDE_ALICE, SIDE_BOB, load_inventories

from oracles import bin_index, split_element, write_format_1_bob_file

BASE = ["--n", "64", "--k", "3", "--sigma", "16"]
BASE_STASH = ["--n", "64", "--k", "2", "--sigma", "16", "--stash", "4"]
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

    def test_connect_requires_role(self, capsys):
        rc = invoke(["offline", "--connect", "127.0.0.1:1"] + BASE)
        assert rc == 2
        assert "--role" in capsys.readouterr().err


class TestDealerFrameBounds:
    """Each side of the dealer service bounds the frame it reads by the size
    the protocol fixes, so an oversize header is refused while the peer
    still holds the connection open and has sent no payload. The dealer
    drops a bad client and keeps serving; a client given a bad reply exits 3."""

    def start_dealer(self, rc):
        port = free_port()
        # a daemon, so a dealer still waiting for a client cannot hang the tests
        dealer = threading.Thread(target=lambda: rc.append(invoke(
            ["dealer", "--listen", f"127.0.0.1:{port}", "--seed", SEED_B] + BASE)),
            daemon=True)
        dealer.start()
        return dealer, port

    def fetch(self, tmp_path, port, role):
        return invoke(["offline", "--connect", f"127.0.0.1:{port}", "--role", role,
                       f"--out-{role}", str(tmp_path / f"{role}.tup")] + BASE)

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

    def fetch_from_fake(self, tmp_path, reply, role):
        """Fetch `role` from a fake dealer that answers with the bytes `reply`."""
        srv = TcpListener("127.0.0.1", 0)
        done = threading.Event()

        def fake_dealer():
            chan = srv.accept()
            try:
                recv_frame(chan)
                chan.send_bytes(reply)
                done.wait(10)
            finally:
                chan.close()

        server = threading.Thread(target=fake_dealer)
        server.start()
        try:
            return self.fetch(tmp_path, srv.port, role)
        finally:
            done.set()
            server.join(timeout=30)
            srv.close()

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_oversize_dealer_reply_fails_at_header(self, tmp_path, capsys, role):
        p = derive_params(64, 3, sigma=16)
        limits = {"alice": (DEALER_A, to_alice_len(p)), "bob": (DEALER_B, SEED_LEN)}
        msg_type, limit = limits[role]
        rc = self.fetch_from_fake(tmp_path, _HEAD.pack(limit + 1, msg_type), role)
        assert rc == 3
        assert f"{limit + 1} byte payload, limit {limit}" in capsys.readouterr().err
        assert not (tmp_path / f"{role}.tup").exists()

    def alice_payload(self, p, mangle=lambda r_A: r_A):
        """A DEALER_A payload for p with `mangle` applied to each r_A array."""
        msg = dealer_generate(Seed(bytes([1]) * 32), Seed(bytes([2]) * 32), p)
        R_A, r_A_lists = msg.to_alice
        msg = dataclasses.replace(msg, to_alice=(R_A, tuple(map(mangle, r_A_lists))))
        return encode_to_alice(msg, p.modulus)

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_truncated_dealer_reply_is_protocol_error(self, tmp_path, capsys, role):
        p = derive_params(64, 3, sigma=16)
        if role == "alice":
            short = _HEAD.pack(60, DEALER_A) + self.alice_payload(p)[:60]
            want = f"dealer message is 60 bytes, parameters need {to_alice_len(p)}"
        else:
            short = _HEAD.pack(20, DEALER_B) + bytes(20)
            want = f"dealer-to-Bob message must be {SEED_LEN} bytes"
        rc = self.fetch_from_fake(tmp_path, short, role)
        assert rc == 3
        err = capsys.readouterr().err
        assert want in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{role}.tup").exists()

    def test_misshaped_dealer_reply_is_protocol_error(self, tmp_path, capsys):
        # as many words as the parameters need, with each section transposed
        p = derive_params(64, 3, sigma=16)
        payload = self.alice_payload(p, lambda r_A: r_A.T.copy())
        assert len(payload) == to_alice_len(p)
        rc = self.fetch_from_fake(tmp_path, _HEAD.pack(len(payload), DEALER_A) + payload, "alice")
        assert rc == 3
        err = capsys.readouterr().err
        assert f"bins section is {p.beta} x {p.alpha}, parameters need {p.alpha} x {p.beta}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "alice.tup").exists()


class TestSetFiles:
    def test_read_round_trip(self, tmp_path):
        path = write_set(tmp_path / "s.txt", [5, 1, 9])
        assert read_set_file(path, 16) == {1, 5, 9}

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("3\n\n7\n")
        assert read_set_file(str(p), 8) == {3, 7}

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
        assert rcs["b"] == 3
        assert rcs["a"] == 3
        assert "token" in capsys.readouterr().err

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
