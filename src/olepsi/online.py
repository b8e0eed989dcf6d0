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

PROTOCOL_VERSION 3 is the first with that stash encoding; version 2 used a
keyed SHA-256, so a version-2 peer is refused at SETUP.
"""

import hashlib
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hashing import (
    HASH_SEED_LEN,
    HashSeeds,
    build_bin_table,
    build_cuckoo_table,
    stash_encode,
)
from .modvec import dtype_for
from .params import sections
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
from .tuples import TOKEN_LEN, BobInventory

PROTOCOL_VERSION = 3

_CHUNK = 1 << 22  # field elements per frame
_BLOCK = 1 << 16  # field elements per vectorized pass: temporaries stay in cache


class OnlineError(Exception):
    pass


class TupleExhausted(OnlineError):
    """The run needs more (or longer) tuple batches than the inventory holds."""


class SeedMismatch(OnlineError):
    """Setup exchange shows the parties disagree on parameters, seeds or tuples."""


def derive_hash_seeds(params, token):
    """Shared hash seeds derived from public setup data.

    Binding the seeds to (parameter digest, inventory token) lets both
    parties compute identical seeds without an agreement round.
    """
    material = hashlib.sha256(b"hash-seeds|" + params.digest() + token).digest()
    prg = Prg(Seed(material), tag=b"hash-seeds")
    return HashSeeds.generate(params.k, randbytes=prg.read)


@dataclass
class PsiSession:
    """One party's agreed state for a single protocol run.

    inventories holds one inventory per entry of sections(params), in that
    order (the layout produced by the offline generators). The hash seeds
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
        q = self.params.modulus.q
        for inv in self.inventories:
            if inv.modulus.q != q:
                raise ValueError(
                    f"inventory modulus {inv.modulus.q} does not match params ({q})"
                )
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
        layout = sections(self.params)
        names = [name for name, _, _ in layout]
        if len(self.inventories) != len(names):
            raise TupleExhausted(
                f"{len(self.inventories)} tuple sections, the run needs "
                f"{len(names)} ({', '.join(names)})"
            )
        invs = dict(zip(names, self.inventories))
        for name, rows, cols in layout:
            label = name.removesuffix("s") + " batches"  # bin / stash batches
            inv = invs[name]
            if len(inv) != rows:
                raise TupleExhausted(f"{label}: need {rows} batches, have {len(inv)}")
            if inv.slot_len != cols:
                raise TupleExhausted(
                    f"{label}: need slot length {cols}, have {inv.slot_len}"
                )
        return invs


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


def _cuts(section, rows, width):
    """Frames of at most _CHUNK elements over a row-major rows x width
    message: whole-row ranges while a row fits in one frame, else each row
    in pieces."""
    if width <= _CHUNK:
        step = _CHUNK // width
        return [
            FrameCut(section, slice(lo, min(rows, lo + step)), slice(0, width))
            for lo in range(0, rows, step)
        ]
    return [
        FrameCut(section, slice(r, r + 1), slice(lo, min(width, lo + _CHUNK)))
        for r in range(rows)
        for lo in range(0, width, _CHUNK)
    ]


def frame_plan(params):
    """Every element frame of one run, in send order: (Alice's c frames,
    Bob's d frames). A pure function of the parameters, so both sides cut
    the messages the same way without telling each other."""
    layout = sections(params)
    up = [cut for name, rows, _ in layout for cut in _cuts(name, rows, 1)]
    down = [cut for name, rows, cols in layout for cut in _cuts(name, rows, cols)]
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
    return (
        bytes([PROTOCOL_VERSION])
        + session.params.digest()
        + session.token
        + session.seeds.to_bytes()
    )


def _verify_setup(session, payload):
    digest = session.params.digest()
    expect = 1 + len(digest) + TOKEN_LEN + (session.params.k + 1) * HASH_SEED_LEN
    if len(payload) != expect:
        raise SeedMismatch(f"setup frame is {len(payload)} bytes, expected {expect}")
    if payload[0] != PROTOCOL_VERSION:
        raise SeedMismatch(
            f"peer speaks protocol version {payload[0]}, ours is {PROTOCOL_VERSION}"
        )
    off = 1
    if payload[off : off + len(digest)] != digest:
        raise SeedMismatch("parameter digest mismatch")
    off += len(digest)
    peer_token = payload[off : off + TOKEN_LEN]
    off += TOKEN_LEN
    if peer_token != session.token:
        raise SeedMismatch(
            "tuple inventory tokens differ; the halves are not from one offline run"
        )
    if payload[off:] != session.seeds.to_bytes():
        raise SeedMismatch("hash seed mismatch")


def _setup_exchange(session, channel):
    """Verify agreement before any comparison traffic. Alice speaks first.

    A peer that agrees sends a payload as long as ours, so a header
    declaring more raises OversizeFrame before any payload is read.
    """
    mine = Frame(SETUP, _setup_payload(session))
    bound = len(mine.payload)
    if session.role == "alice":
        send_frame(channel, mine)
        reply = recv_frame(channel, max_payload=bound)
        if reply.msg_type != SETUP:
            raise UnexpectedType(f"wanted SETUP, got type {reply.msg_type}")
        _verify_setup(session, reply.payload)
    else:
        frame = recv_frame(channel, max_payload=bound)
        if frame.msg_type != SETUP:
            raise UnexpectedType(f"wanted SETUP, got type {frame.msg_type}")
        _verify_setup(session, frame.payload)
        send_frame(channel, mine)


def psi_alice(session, elements, channel):
    """Run the protocol as Alice; returns the intersection as a set of ints.

    Sends alpha + stash_size c-values, receives alpha*beta + stash_size*n
    d-values in fixed row-major order, frame by frame along frame_plan, and
    matches each frame against r_A as it arrives. The element counts are
    asserted against the channel's accounting on every run. Placement
    failure beyond the stash raises CuckooFailure, since the session's seeds
    are pinned and cannot be resampled mid-protocol.
    """
    invs = session._start("alice")
    p = session.params
    q = p.modulus.q

    table = build_cuckoo_table(elements, p, seeds=session.seeds)
    before = (channel.stats.elements_sent, channel.stats.elements_received)
    _setup_exchange(session, channel)
    up, down = frame_plan(p)

    stash_items = table.stash
    c = {"bins": _alice_c(invs["bins"].s_A, table.bins, q)}
    if p.stash_size:
        enc_st = np.full(p.stash_size, p.dummy_alice, dtype=np.int64)
        enc_st[: len(stash_items)] = stash_encode(stash_items, session.seeds, p)
        c["stash"] = _alice_c(invs["stash"].s_A, enc_st, q)
    for cut in up:
        send_elements(channel, ALICE_C, c[cut.section][cut.rows], p.modulus)

    out = set()
    for cut in down:
        d = recv_elements(channel, BOB_D, p.modulus, cut.count).reshape(cut.shape)
        if cut.section == "bins":
            origins = table.origins[cut.rows]
            hits = (d == invs["bins"].r_A[cut.rows]).any(axis=1) & (origins >= 0)
            out.update(origins[hits].tolist())
        else:
            hits = (d == invs["stash"].r_A[cut.rows, cut.cols]).any(axis=1)
            for t in np.flatnonzero(hits) + cut.rows.start:
                if t < len(stash_items):
                    out.add(int(stash_items[t]))

    _check_totals(channel, before, up, down)
    return out


def psi_bob(session, elements, channel):
    """Run the protocol as Bob; sends the d-values and learns nothing.

    Replies to every bin's c-value with beta d-values (row-major: bin-major,
    slot-minor), then to every stash c-value with one d per slot for each of
    n shuffled element encodings. Each frame of frame_plan is computed and
    sent before the next, so the whole reply is never held at once. Padding
    slots reply under Bob's dummy encoding, which can never match.
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

    enc = None
    for cut in down:
        if cut.section == "bins":
            enc_rows = table.bins[cut.rows]
        else:
            if enc is None:
                enc = _stash_encodings(table.elements, session.seeds, p)
            enc_rows = np.broadcast_to(enc[cut.cols], cut.shape)
        inv = invs[cut.section]
        inv = BobInventory(inv.modulus, inv.block[cut.rows, cut.cols])
        d = _bob_reply(c[cut.section][cut.rows], enc_rows, inv, q)
        send_elements(channel, BOB_D, d, p.modulus)

    _check_totals(channel, before, down, up)
    return None


def _alice_c(s_A, enc, q):
    """c = s_A - enc mod q: Alice's message per batch, as int64."""
    return (s_A.astype(np.int64) - enc) % q


def _reply_dtype(q):
    """Unsigned dtype that holds (c + enc + s_B) * r_B_inv unreduced: every
    term is below q, so the product is below 3 (q - 1)^2. uint32 up to
    q = 37838, uint64 (below 3 * 2^62) for every q < MAX_Q."""
    return np.uint32 if 3 * (q - 1) ** 2 < 1 << 32 else np.uint64


def _bob_reply(c, enc_rows, inv, q):
    """d[i, j] = (c[i] + enc[i, j] + s_B[i, j]) * r_B_inv[i, j] mod q, in
    _BLOCK-element passes with one reduction per slot."""
    rows, slot = enc_rows.shape
    out = np.empty((rows, slot), dtype=dtype_for(q))
    step = max(1, _BLOCK // max(slot, 1))
    wide = {"dtype": _reply_dtype(q), "casting": "unsafe"}
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        t = np.add(c[lo:hi, None], enc_rows[lo:hi], **wide)
        np.add(t, inv.s_B[lo:hi], out=t, **wide)
        np.multiply(t, inv.r_B_inv[lo:hi], out=t, **wide)
        np.remainder(t, q, out=t, **wide)
        out[lo:hi] = t
    return out


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
