"""The cryptography-free online phase: masked comparisons over prepared tuples.

One comparison consumes one tuple slot. Alice sends c = s_A - enc(x); Bob
answers d = (c + enc(y) + s_B) * r_B_inv. Because r_A * r_B = s_A + s_B,
the reply collapses to d = r_A exactly when the encodings agree, and lands
uniformly on the rest of the field when they do not. Matching d against the
precomputed r_A values therefore decides equality with zero error, using
nothing but field additions and one multiplication per slot, reduced once.

The set protocol runs the comparison over the hashing layout: one c-value per
cuckoo bin (alpha + stash_size of them), beta d-values back per bin plus n per
stash slot. Bins without a real element still send well-formed messages under
a reserved dummy encoding, so traffic never depends on the inputs. Stash
slots compare whole elements under hashing.stash_encode, a keyed mixer that
Bob evaluates over his whole set in one numpy pass. Every message is cut
into frames of at most _CHUNK elements along a frame plan that both sides
derive from the parameters alone; Bob computes and sends his reply one bin
range at a time, and Alice matches each range as it arrives.

Neither role holds more than its hashing arrays plus about one frame. Bob
fills each frame's bin rows from his sorted keys into one reused buffer
(BinTable.rows), and each role releases a frame's tuple rows once it is
used (tuples.release_rows): Alice computes her c frames in passes of
_PASS_ROWS rows and releases each pass behind her, so no c frame keeps her
tuple file resident until the d frames arrive.

SETUP, the first frame each way, holds the protocol version, the parameter
digest and the inventory token; both sides derive the hash seeds from the
last two. PROTOCOL_VERSION 5 is the first that does not also send the seeds.
Version 4 did, so its longer SETUP is refused at the frame header; version 4
was the first whose bin hashes are a keyed fmix64 mixer, version 3 used a
keyed SHA-256 there, so its elements land in other bins, and version 2 also
encoded the stash with one. Every older peer is refused at SETUP.
"""

import hashlib
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hashing import build_bin_table, build_cuckoo_table, stash_encode
from .modvec import bob_reply, dtype_for
from .params import sections, tiles
from .prg import Prg, Seed
from .transport import (
    ALICE_C,
    BOB_D,
    SETUP,
    Frame,
    UnexpectedType,
    recv_elements,
    recv_frame,
    send_elements,
    send_frame,
)
from .tuples import TOKEN_LEN, check_sections, release_rows

PROTOCOL_VERSION = 5

_CHUNK = 1 << 22  # field elements per frame
_PASS_ROWS = 1 << 16  # rows per pass of Alice's c, released behind it


class OnlineError(Exception):
    pass


class TupleExhausted(OnlineError):
    """The run needs more (or longer) tuple batches than the inventory holds."""


class SeedMismatch(OnlineError):
    """Setup exchange shows the parties disagree on the protocol version, the
    parameters or the tuples; both roles raise it, naming the cause."""


def derive_hash_seeds(params, token):
    """Shared hash seeds derived from public setup data: a read-only
    (k + 1, 2) array of little-endian uint64, the k bin seeds and then the
    keyed seed, 16 bytes each, read in that order from one PRG stream.

    Binding the seeds to (parameter digest, inventory token), which SETUP
    compares, lets both parties compute identical seeds without sending them.
    """
    material = hashlib.sha256(b"hash-seeds|" + params.digest() + token).digest()
    prg = Prg(Seed(material), tag=b"hash-seeds")
    raw = bytes(prg.read(16 * (params.k + 1)))
    return np.frombuffer(raw, dtype="<u8").reshape(params.k + 1, 2)


@dataclass
class PsiSession:
    """One party's agreed state for a single protocol run.

    inventories holds one inventory per entry of sections(params), in that
    order (the layout produced by the offline generators), each over the
    parameters' field and exactly its (rows, cols): check_sections refuses
    any other at construction and again when the run starts. The hash seeds
    are always derive_hash_seeds(params, token), so both parties hold the
    same ones and a table build never resamples them.
    Batches are single-use: a session refuses to run twice.
    """

    role: str
    params: object
    inventories: tuple
    token: bytes

    def __post_init__(self):
        if self.role not in ("alice", "bob"):
            raise ValueError(f"role must be alice or bob, got {self.role!r}")
        if len(self.token) != TOKEN_LEN:
            raise ValueError(f"token must be {TOKEN_LEN} bytes")
        check_sections(self.inventories, self.params, TupleExhausted)
        self.seeds = derive_hash_seeds(self.params, self.token)
        self._used = False

    def _start(self, role):
        """Claim the session for one run; returns its inventories by section
        name, each exactly (rows, cols) of sections(params)."""
        if self.role != role:
            raise ValueError(f"session role is not {role}")
        if self._used:
            raise TupleExhausted("session already ran; tuple batches are single-use")
        self._used = True
        check_sections(self.inventories, self.params, TupleExhausted)
        return dict(zip((name for name, _, _ in sections(self.params)), self.inventories))


class FrameCut(NamedTuple):
    """One element frame: the rows and columns of a section's message it carries."""

    section: str  # "bins" or "stash"
    rows: slice
    cols: slice

    @property
    def shape(self):
        return (self.rows.stop - self.rows.start, self.cols.stop - self.cols.start)

    @property
    def count(self):
        rows, cols = self.shape
        return rows * cols


def frame_plan(params):
    """Every element frame of one run, in send order: (Alice's c frames,
    Bob's d frames), each section's message cut into tiles of at most
    _CHUNK elements (params.tiles). A pure function of the parameters, so
    both sides cut the messages the same way without telling each other."""
    layout = sections(params)
    up = [FrameCut(name, *t) for name, rows, _ in layout for t in tiles(rows, 1, _CHUNK)]
    down = [FrameCut(name, *t) for name, rows, cols in layout for t in tiles(rows, cols, _CHUNK)]
    return up, down


def _check_totals(channel, before, sent, received):
    """Assert that since `before` (elements sent, received) the channel moved
    exactly the elements of the frame_plan cuts this side sends and receives."""
    stats = channel.stats
    got = (stats.elements_sent - before[0], stats.elements_received - before[1])
    for verb, n, cuts in zip(("sent", "received"), got, (sent, received)):
        need = sum(cut.count for cut in cuts)
        if n != need:
            raise OnlineError(f"{verb} {n} elements, protocol requires {need}")


def _setup_payload(session):
    return bytes([PROTOCOL_VERSION]) + session.params.digest() + session.token


def _verify_setup(session, payload):
    digest = session.params.digest()
    expect = 1 + len(digest) + TOKEN_LEN
    if len(payload) != expect:
        raise SeedMismatch(f"setup frame is {len(payload)} bytes, expected {expect}")
    if payload[0] != PROTOCOL_VERSION:
        raise SeedMismatch(
            f"peer speaks protocol version {payload[0]}, ours is {PROTOCOL_VERSION}"
        )
    if payload[1 : 1 + len(digest)] != digest:
        raise SeedMismatch("parameter digest mismatch")
    if payload[1 + len(digest) :] != session.token:
        raise SeedMismatch(
            "tuple inventory tokens differ; the halves are not from one offline run"
        )


def _setup_exchange(session, channel):
    """Verify agreement before any comparison traffic: each side sends its
    SETUP, then reads the peer's and checks it, so on any mismatch both
    roles raise SeedMismatch naming the cause.

    A peer that agrees sends a payload as long as ours, so a header
    declaring more (such as a version-4 SETUP, which also carried the hash
    seeds) raises OversizeFrame before any payload is read.
    """
    mine = _setup_payload(session)
    send_frame(channel, Frame(SETUP, mine))
    frame = recv_frame(channel, max_payload=len(mine))
    if frame.msg_type != SETUP:
        raise UnexpectedType(f"wanted SETUP, got type {frame.msg_type}")
    _verify_setup(session, frame.payload)


def psi_alice(session, elements, channel):
    """Run the protocol as Alice; returns the intersection as a set of ints.

    Sends alpha + stash_size c-values, receives alpha*beta + stash_size*n
    d-values in fixed row-major order, frame by frame along frame_plan, and
    matches each frame against r_A as it arrives, then releases the frame's
    tuple rows (a file-mapped inventory drops their pages). Each c frame is
    computed in passes of at most _PASS_ROWS rows, and each pass's rows are
    released once its c is computed, so the match faults them back in frame
    by frame. The element counts are asserted against the channel's
    accounting on every run.
    Placement failure beyond the stash raises CuckooFailure, since the
    session's seeds are pinned and cannot be resampled mid-protocol.
    """
    invs = session._start("alice")
    p = session.params
    q = p.modulus.q

    table = build_cuckoo_table(elements, p, seeds=session.seeds)
    before = (channel.stats.elements_sent, channel.stats.elements_received)
    _setup_exchange(session, channel)
    up, down = frame_plan(p)

    # per section, the encoding each row compares and the element behind it:
    # stash rows past Alice's stash items hold her dummy encoding and -1, as
    # empty bins do, and never report a hit
    stash = np.array(table.stash, dtype=np.int64)
    pad = (0, p.stash_size - stash.size)
    enc = {
        "bins": table.bins,
        "stash": np.pad(stash_encode(stash, session.seeds, p), pad, constant_values=p.dummy_alice),
    }
    element = {"bins": table.origins, "stash": np.pad(stash, pad, constant_values=-1)}
    for cut in up:
        inv = invs[cut.section]
        c = np.empty(cut.count, np.int32)
        # in passes of rows, each released once its c is computed: s_A is
        # column 0 of every row, so the frame touches every page of its rows
        for part, _ in tiles(cut.count, 1, _PASS_ROWS):
            rows = slice(cut.rows.start + part.start, cut.rows.start + part.stop)
            c[part] = _alice_c(inv.s_A[rows], enc[cut.section][rows], q)
            release_rows(inv, rows)
        send_elements(channel, ALICE_C, c, p.modulus)

    out = set()
    for cut in down:
        d = recv_elements(channel, BOB_D, p.modulus, cut.count).reshape(cut.shape)
        inv = invs[cut.section]
        hits = np.flatnonzero(d == inv.r_A[cut.rows, cut.cols]) // cut.shape[1]
        found = element[cut.section][hits + cut.rows.start]
        out.update(found[found >= 0].tolist())
        _release(inv, cut)

    _check_totals(channel, before, up, down)
    return out


def psi_bob(session, elements, channel):
    """Run the protocol as Bob; sends the d-values and learns nothing.

    Replies to every bin's c-value with beta d-values (row-major: bin-major,
    slot-minor), then to every stash c-value with one d per slot for each of
    n shuffled element encodings. Each frame of frame_plan is computed and
    sent before the next, so the whole reply is never held at once, and
    its tuple rows are released once sent, so neither is the file. A bins
    frame's rows are filled from the table's sorted keys (BinTable.rows)
    into one buffer sized by the first bins frame, so neither is the whole
    (alpha, beta) table, and the keys are dropped once the last bin is
    filled. Padding slots reply under Bob's dummy encoding,
    which can never match.
    """
    invs = session._start("bob")
    p = session.params
    q = p.modulus.q

    table = build_bin_table(elements, p, session.seeds)
    before = (channel.stats.elements_sent, channel.stats.elements_received)
    _setup_exchange(session, channel)
    up, down = frame_plan(p)

    c = {name: np.empty(len(inv), dtype_for(q)) for name, inv in invs.items()}
    for cut in up:
        c[cut.section][cut.rows] = recv_elements(channel, ALICE_C, p.modulus, cut.count)

    # one buffer for every bins frame's rows, sized by the first (and largest)
    buf = np.empty((down[0].shape[0], p.beta), dtype_for(p.dummy_bob + 1))
    ys = table.elements
    enc = None
    for cut in down:
        if cut.section == "bins":
            enc_rows = table.rows(cut.rows.start, cut.rows.stop, buf)[:, cut.cols]
            if cut.rows.stop == p.alpha and cut.cols.stop == p.beta:
                table = None  # every bin is filled: drop the keys before the reply
        else:
            if enc is None:
                enc = _stash_encodings(ys, session.seeds, p)
            enc_rows = np.broadcast_to(enc[cut.cols], cut.shape)
        inv = invs[cut.section]
        d = bob_reply(c[cut.section][cut.rows], enc_rows, inv.block[cut.rows, cut.cols], q)
        send_elements(channel, BOB_D, d, p.modulus)
        _release(inv, cut)

    _check_totals(channel, before, down, up)
    return None


def _release(inv, cut):
    """Drop the tuple rows of a used frame and every row before it, after
    the last piece of a row cut into column pieces (tuples.release_rows).

    The rows before it are used too, and releasing them again costs little:
    a fault on a frame's rows may map neighbouring pages of the file as well
    (fault-around), among them pages an earlier release dropped, and this
    keeps those from staying resident."""
    if cut.cols.stop == inv.slot_len:
        release_rows(inv, slice(0, cut.rows.stop))


def _alice_c(s_A, enc, q):
    """c = s_A - enc mod q: Alice's message per batch, as int32. Both are
    reduced, so the difference lies in (-q, q) and one conditional +q
    replaces the remainder; (x >> 31) & q is q exactly where x < 0."""
    c = np.subtract(s_A, enc, dtype=np.int32)
    c += (c >> 31) & q
    return c


def _stash_encodings(arr, seeds, params):
    """Keyed encodings of Bob's whole set (the bin table's sorted int64
    array), shuffled and padded to n slots, in the bin table's dtype.

    The shuffle hides the sorted order, which would tell Alice a match's rank
    in Bob's set; padding uses Bob's dummy encoding, which no keyed encoding
    can equal.
    """
    enc = np.full(params.n, params.dummy_bob, dtype=dtype_for(params.dummy_bob + 1))
    enc[: arr.size] = stash_encode(arr, seeds, params)
    np.random.default_rng(list(os.urandom(16))).shuffle(enc)
    return enc


def ot_via_psi(choice, y0, y1, psi):
    """1-of-2 bit OT from a single PSI call.

    The receiver's set is {choice}; the sender adds, for each of its bits,
    either the matching choice value (bit 1) or an unmatchable filler (bit
    0). The intersection is nonempty exactly when y_choice = 1. psi is any
    callable mapping (receiver set, sender set) to their intersection.
    """
    if choice not in (0, 1) or y0 not in (0, 1) or y1 not in (0, 1):
        raise ValueError("choice and both sender bits must be 0 or 1")
    sender = {0 if y0 else 2, 1 if y1 else 3}
    return 1 if psi({choice}, sender) else 0
