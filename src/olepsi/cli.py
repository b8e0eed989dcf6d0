"""Command-line front end.

Subcommands: params (derive and print a parameter set), offline (generate
tuple files, locally or from a dealer service), run (one PSI role over TCP),
dealer (serve both parties the halves of the dealer backend's one
expansion), bench (timing and communication report), ot-demo and
mismatch-demo (protocol walkthroughs).

Exit codes: 0 success, 2 usage or bad input data (a set file of more than n
elements included), 3 protocol failure, 4 file, network or worker-process
failure (a --connect that reaches no peer included).
"""

import argparse
import sys
import time
import warnings

import numpy as np

from .field import FieldError, PrimeModulus
from .hashing import HashingError
from .mismatch import mismatch_keyed, mismatch_plain
from .offline import (
    BACKENDS,
    ExpansionError,
    dealer_seeds,
    expand_bob,
    gen_seeded,
    generate_psi_inventories,
)
from .offline.ot import DealerAssistedOt, OtError
from .online import OnlineError, PsiSession, ot_via_psi, psi_alice, psi_bob
from .params import derive_params, online_bits_per_element
from .prg import SEED_LEN, Prg, Seed
from .runner import bench_sets, make_sessions, run_psi_pair, small_psi_engine
from .transport import (
    DEALER_A,
    DEALER_B,
    SETUP,
    Frame,
    PeerTimeout,
    TcpListener,
    TransportError,
    bits_per_element_measured,
    recv_frame,
    send_frame,
    tcp_connect,
)
from .tuples import (
    MAX_PART,
    SIDE_ALICE,
    SIDE_BOB,
    TupleFileError,
    alice_file_len,
    check_sections,
    inventory_token,
    load_inventories,
    save_inventories,
    section_bytes,
    write_file,
)


# refused dealer requests (bad header, digest or role, dead peer) before the
# dealer service gives up with exit 3
DEALER_MAX_REFUSED = 16


class UsageError(Exception):
    pass


def _hostport(text):
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdecimal() or int(port) > 65535:
        raise UsageError(f"expected HOST:PORT with a port in 0-65535, got {text!r}")
    if host.startswith("[") and host.endswith("]"):  # an IPv6 literal, [::1]:7000
        host = host[1:-1]
    return host or "127.0.0.1", int(port)


def _seed_from(args):
    if getattr(args, "seed", None) is None:
        return None
    try:
        return Seed.from_hex(args.seed)
    except ValueError as e:
        raise UsageError(f"--seed: {e}") from None


def _params_from(args):
    return derive_params(
        args.n, args.k, sigma=args.sigma, lam=args.lam, stash_size=args.stash
    )


def read_set_file(path, sigma):
    """Newline-delimited unsigned decimals < 2^sigma, blank lines skipped, as
    a sorted int64 array; duplicates rejected.

    One np.loadtxt parse reads the file, and only a file it reads is
    accepted. When it refuses the file, or a value is out of range or
    repeated, _set_file_error reads it again line by line to name the first
    line at fault.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt on an empty file
        try:
            values = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2)
        except ValueError as e:
            raise _set_file_error(path, sigma, str(e)) from None
    if values.shape[1] == 1:
        arr = np.sort(values[:, 0])
        if not arr.size or (
            arr[0] >= 0 and arr[-1] < (1 << sigma) and not (arr[1:] == arr[:-1]).any()
        ):
            return arr
    raise _set_file_error(path, sigma, "not one unsigned integer per line")


def _set_file_error(path, sigma, reason):
    """The UsageError for a set file that read_set_file refused: it names
    path:line at the first line that is not an integer, is out of range or
    repeats. A file with no such line, which only np.loadtxt refused (int()
    also reads "1_000"), is refused for the given reason."""
    values = set()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            text = line.strip()
            if not text:
                continue
            try:
                v = int(text, 10)
            except ValueError:
                return UsageError(f"{path}:{lineno}: not an unsigned integer: {text!r}")
            if not 0 <= v < (1 << sigma):
                return UsageError(f"{path}:{lineno}: element {v} outside [0, 2^{sigma})")
            if v in values:
                return UsageError(f"{path}:{lineno}: duplicate element {v}")
            values.add(v)
    return UsageError(f"{path}: {reason}")


def write_set(stream, values):
    """One decimal value per line, ascending, in a single write."""
    text = "\n".join(map(str, sorted(values)))
    if text:
        stream.write(text + "\n")


def cmd_params(args):
    p = _params_from(args)
    bits = online_bits_per_element(p)
    print(f"n: {p.n}")
    print(f"k: {p.k}")
    print(f"alpha: {p.alpha}  (factor {p.alpha_factor})")
    print(f"beta: {p.beta}")
    print(f"stash: {p.stash_size}")
    print(f"sigma: {p.sigma}  (sigma1 {p.sigma1}, sigma2 {p.sigma2})")
    print(f"lambda: {p.lam}")
    print(f"q: {p.modulus.q}  ({p.modulus.bit_len} bits)")
    print(f"dummy-alice: {p.dummy_alice}")
    print(f"dummy-bob: {p.dummy_bob}")
    print(f"bits-per-element: {float(bits):.2f}  (exact {bits})")
    print(f"digest: {p.digest().hex()}")
    return 0


def cmd_offline(args):
    p = _params_from(args)
    if args.connect:
        return _offline_fetch(args, p)
    if not (args.out_alice and args.out_bob):
        raise UsageError("local generation needs --out-alice and --out-bob")
    master = _seed_from(args)
    alice_secs, bob_secs = generate_psi_inventories(args.mode, p, master)
    token = inventory_token(bob_secs)
    save_inventories(args.out_alice, alice_secs, SIDE_ALICE, token)
    save_inventories(args.out_bob, bob_secs, SIDE_BOB, token)
    total = sum(len(s) * s.slot_len for s in bob_secs)
    print(f"mode: {args.mode}")
    print(f"tuples: {total}")
    print(f"token: {token.hex()}")
    return 0


def _offline_fetch(args, p):
    """Client side of the dealer service: request, then write Alice's tuple
    file as it streams in, or expand Bob's half from his seed and save it."""
    if not args.role:
        raise UsageError("--connect needs --role")
    out = args.out_alice if args.role == "alice" else args.out_bob
    if not out:
        raise UsageError(f"--connect with --role {args.role} needs --out-{args.role}")
    host, port = _hostport(args.connect)
    chan = tcp_connect(host, port)
    try:
        send_frame(chan, Frame(SETUP, args.role.encode() + p.digest()))
        if args.role == "alice":
            token = _fetch_alice_file(chan, p, out)
        else:
            frame = recv_frame(chan, max_payload=SEED_LEN)
            if frame.msg_type != DEALER_B:
                raise TransportError(f"wanted DEALER_B, got type {frame.msg_type}")
            if len(frame.payload) != SEED_LEN:
                raise TransportError(f"dealer-to-Bob message must be {SEED_LEN} bytes")
            invs = expand_bob(Seed(bytes(frame.payload)), p)
            token = inventory_token(invs)
            save_inventories(out, invs, SIDE_BOB, token)
    finally:
        chan.close()
    print(f"role: {args.role}")
    print(f"token: {token.hex()}")
    return 0


def _fetch_alice_file(chan, p, out):
    """Write the DEALER_A frames to `out` as they arrive, until the file's
    alice_file_len(p) bytes are in, then check it as `olepsi run` would load
    it; returns its token. A frame may be no longer than the bytes still due
    and than MAX_PART, so its header is checked before any payload is read;
    an empty frame, a frame of another type or a file that is not Alice's for
    p raises TransportError and leaves no file behind."""

    def frames():
        due = alice_file_len(p)
        while due:
            frame = recv_frame(chan, max_payload=min(due, MAX_PART))
            if frame.msg_type != DEALER_A:
                raise TransportError(f"wanted DEALER_A, got type {frame.msg_type}")
            if not frame.payload:
                raise TransportError("empty DEALER_A frame")
            due -= len(frame.payload)
            yield frame.payload

    def check(path):
        try:
            invs, token = load_inventories(path, SIDE_ALICE)
            check_sections(invs, p, TupleFileError)
        except TupleFileError as e:
            raise TransportError(f"dealer message: {e}") from None
        return token

    return write_file(out, frames(), check)


def cmd_dealer(args):
    """Expand both halves once, as `offline --mode dealer` does, keep Bob's
    only until its token is taken, then serve Alice her tuple file and Bob
    his seed, each once."""
    addr = _hostport(args.listen)
    p = _params_from(args)
    master = _seed_from(args)
    if master is None:
        master = Seed.random()
    alice, bob = generate_psi_inventories("dealer", p, master)
    token = inventory_token(bob)
    del bob
    seed_b = dealer_seeds(master)[1]

    listener = TcpListener(*addr)
    print(f"dealer listening on port {listener.port}", file=sys.stderr, flush=True)
    served = set()
    refused = 0
    try:
        while served != {"alice", "bob"}:
            chan = listener.accept()
            try:
                role = _serve_dealer_request(chan, p, alice, token, seed_b, served)
            except (TransportError, OnlineError, OSError) as e:
                # one bad client loses its connection, not the service
                refused += 1
                print(f"refused connection: {e}", file=sys.stderr, flush=True)
                if refused >= DEALER_MAX_REFUSED:
                    raise OnlineError(f"gave up after {refused} refused connections") from e
                continue
            finally:
                chan.close()
            served.add(role)
            print(f"served {role}", file=sys.stderr, flush=True)
    finally:
        listener.close()
    print(f"token: {token.hex()}")
    return 0


def _serve_dealer_request(chan, p, alice, token, seed_b, served):
    """Answer one dealer request: Alice gets the tuple file of her
    inventories under `token`, Bob his seed seed_b. Returns the role served."""
    # a request is a role name and the 16-byte parameter digest
    frame = recv_frame(chan, max_payload=len(b"alice") + 16)
    role = frame.payload[:-16].decode("ascii", "replace")
    if frame.msg_type != SETUP or role not in ("alice", "bob"):
        raise TransportError(f"bad dealer request (role {role!r})")
    if frame.payload[-16:] != p.digest():
        raise OnlineError("client parameter digest does not match the dealer's")
    if role in served:
        raise OnlineError(f"second {role} connection refused")
    if role == "alice":
        # Alice's tuple file, one frame per part
        for part in section_bytes(alice, SIDE_ALICE, token):
            send_frame(chan, Frame(DEALER_A, part))
    else:
        send_frame(chan, Frame(DEALER_B, seed_b.value))
    return role


def cmd_run(args):
    p = _params_from(args)
    if bool(args.listen) == bool(args.connect):
        raise UsageError("need exactly one of --listen or --connect")
    addr = _hostport(args.listen or args.connect)
    elements = read_set_file(args.set, p.sigma)
    if len(elements) > p.n:
        raise UsageError(f"{args.set}: {len(elements)} elements, more than n = {p.n}")
    side = SIDE_ALICE if args.role == "alice" else SIDE_BOB
    sections, token = load_inventories(args.tuples, side)
    session = PsiSession(
        role=args.role, params=p, inventories=sections, token=token
    )

    if args.listen:
        listener = TcpListener(*addr)
        print(f"listening on port {listener.port}", file=sys.stderr, flush=True)
        try:
            chan = listener.accept()
        finally:
            listener.close()
    else:
        chan = tcp_connect(*addr)

    try:
        if args.role == "alice":
            result = psi_alice(session, elements, chan)
            if args.out:
                with open(args.out, "w") as f:
                    write_set(f, result)
            else:
                write_set(sys.stdout, result)
        else:
            psi_bob(session, elements, chan)
        if args.stats:
            print(chan.stats.summary(), file=sys.stderr)
    finally:
        chan.close()
    return 0


def cmd_bench(args):
    """Time one full run on bench_sets' pair, the offline phase and then both
    roles in this process, and print its bench-report block; exits 3 unless
    the intersection is the brute-force one. The measured bits/element come
    from Alice's transcript accounting and the formula from the closed-form
    cost; they agree exactly whenever the message counts are right."""
    p = _params_from(args)
    master = _seed_from(args)
    x, y = bench_sets(p, np.random.default_rng(0xB17))

    t0 = time.perf_counter()
    alice, bob = make_sessions(p, backend=args.offline, master_seed=master)
    offline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result, stats, _ = run_psi_pair(alice, x, bob, y)
    wall_s = time.perf_counter() - t0

    measured = bits_per_element_measured(stats, p.n)
    formula = online_bits_per_element(p)
    correct = result == (x & y)
    print("\n".join([
        "bench-report:",
        f"  n: {p.n}",
        f"  k: {p.k}",
        f"  backend: {args.offline}",
        f"  offline-seconds: {offline_s:.3f}",
        f"  wall-seconds: {wall_s:.3f}",
        f"  alice-sent-bytes: {stats.bytes_sent}",
        f"  alice-received-bytes: {stats.bytes_received}",
        f"  elements-sent: {stats.elements_sent}",
        f"  elements-received: {stats.elements_received}",
        f"  bits-per-element-measured: {float(measured):.2f}",
        f"  bits-per-element-formula: {float(formula):.2f}",
        f"  measured-equals-formula: {measured == formula}",
        f"  intersection-size: {len(result)}",
        f"  correct: {correct}",
    ]))
    return 0 if correct else 3


def cmd_ot_demo(args):
    engine = small_psi_engine()
    print("b  y0 y1 | receiver C  sender D | output expected")
    ok = True
    for b in (0, 1):
        for y0 in (0, 1):
            for y1 in (0, 1):
                sender = {0 if y0 else 2, 1 if y1 else 3}
                got = ot_via_psi(b, y0, y1, engine)
                want = y1 if b else y0
                ok = ok and got == want
                print(
                    f"{b}  {y0}  {y1}  | {{{b}}}         {sorted(sender)}"
                    f"   | {got}      {want}"
                )
    print(f"all-rows-match: {ok}")
    return 0 if ok else 3


def cmd_mismatch_demo(args):
    """Both mismatch variants at q = 251, ell = 8. Every case consumes a
    fresh one-batch inventory pair of the same kind: the keyed variant is
    the plain one with key offsets, and Bob's candidates go out in a row
    rotated by a fresh offset."""
    q = 251
    ell = 8
    m = PrimeModulus(q)
    prg = Prg(Seed.random(), tag=b"demo")

    def batch():
        return gen_seeded(Seed(prg.read(SEED_LEN)), 1, m, ell)

    print(f"plain variant, q={q}, ell={ell}")
    for x, y in ((0xA5, 0xA5), (0xA5, 0xA4), (0x00, 0xFF)):
        got = mismatch_plain(x, y, ell, DealerAssistedOt(m), batch(), prg=prg)
        print(f"  x={x:#04x} y={y:#04x} -> mismatch={got} (expected {x != y})")

    h_seed = b"\x5a" * 16
    print(f"keyed variant, q={q}, ell={ell}")
    cases = ((7, 0xA5, 7, 0xA4), (7, 0xA5, 7, 0xA5), (7, 0xA5, 9, 0xA4))
    for k_a, x, k_b, y in cases:
        got = mismatch_keyed(k_a, x, k_b, y, batch(), DealerAssistedOt(m), h_seed=h_seed, prg=prg)
        want = (k_a == k_b) and (x != y)
        print(f"  k_A={k_a} k_B={k_b} x={x:#04x} y={y:#04x} -> {got} (expected {want})")
    return 0


def _add_param_flags(sp, n_default=None):
    sp.add_argument("--n", type=int, required=n_default is None, default=n_default,
                    help="set size bound (per party)")
    sp.add_argument("--k", type=int, default=3, choices=(2, 3, 4),
                    help="number of bin hash functions")
    sp.add_argument("--sigma", type=int, default=32, help="element bit width")
    sp.add_argument("--lam", type=int, default=40, help="statistical security")
    sp.add_argument("--stash", type=int, default=None, help="stash size override")


def _parser():
    ap = argparse.ArgumentParser(
        prog="olepsi",
        description="Two-party PSI from precomputed OLE tuples.",
    )
    sub = ap.add_subparsers(metavar="COMMAND")

    sp = sub.add_parser("params", help="derive and print a parameter set")
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("offline", help="generate tuple inventories")
    _add_param_flags(sp)
    sp.add_argument("--mode", default="seed", choices=BACKENDS)
    sp.add_argument("--out-alice", metavar="FILE")
    sp.add_argument("--out-bob", metavar="FILE")
    sp.add_argument("--seed", metavar="HEX", help="64 hex chars; deterministic run")
    sp.add_argument("--connect", metavar="HOST:PORT",
                    help="fetch from a dealer service instead of generating")
    sp.add_argument("--role", choices=("alice", "bob"),
                    help="which half to fetch when using --connect")
    sp.set_defaults(func=cmd_offline)

    sp = sub.add_parser("dealer", help="serve tuples to both parties over TCP")
    _add_param_flags(sp)
    sp.add_argument("--listen", metavar="HOST:PORT", required=True)
    sp.add_argument("--seed", metavar="HEX")
    sp.set_defaults(func=cmd_dealer)

    sp = sub.add_parser("run", help="run one PSI role over TCP")
    _add_param_flags(sp)
    sp.add_argument("--role", required=True, choices=("alice", "bob"))
    sp.add_argument("--set", required=True, metavar="FILE",
                    help="newline-delimited decimal elements")
    sp.add_argument("--tuples", required=True, metavar="FILE")
    sp.add_argument("--listen", metavar="HOST:PORT")
    sp.add_argument("--connect", metavar="HOST:PORT")
    sp.add_argument("--out", metavar="FILE", help="write the intersection here")
    sp.add_argument("--stats", action="store_true",
                    help="print communication accounting to stderr")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("bench", help="time one full run and report costs")
    _add_param_flags(sp, n_default=1024)
    sp.add_argument("--offline", default="seed", choices=BACKENDS)
    sp.add_argument("--seed", metavar="HEX")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("ot-demo", help="print the OT-from-PSI truth table")
    sp.set_defaults(func=cmd_ot_demo)

    sp = sub.add_parser("mismatch-demo", help="walk through the mismatch protocols")
    sp.set_defaults(func=cmd_mismatch_demo)

    return ap


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, TupleFileError, PeerTimeout, ExpansionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (OnlineError, TransportError, HashingError, FieldError, OtError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
