"""Honest-party state machines for the six-step oblivious transfer run.

Bob encodes his per-slot choice j as decoy state 2j, |0> or |+>. Alice encodes a message pair
(m0, m1) with Pauli gate 2 * m0 + m1 of ``qsim.PAULIS``: 00 -> I, 01 -> Z, 10 -> X, 11 -> Y.
Bob measures each payload slot in the basis he prepared, so a Z-basis slot yields m0 and an
X-basis slot yields m1; the other bit only ever shows up as a global phase on the carrier.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import qsim

TRANSCRIPT_VERSION = 1

#: most qubits one run may use (N + M + 2K + M2), checked before anything is
#: allocated; far above the paper's R + 140 and every configuration it studies
MAX_QUBITS_USED = 100_000

#: decoy preparations as read-only rows, by id d = 2 * [X basis] + bit, qsim's
#: eigenstate order: 0 -> |0>, 1 -> |1>, 2 -> |+>, 3 -> |->. The id is the one
#: key for a state, its basis and its bit; Bob's choice c is id 2c.
DECOY_AMPS = qsim.EIGENSTATES
#: the decoy ids a published id list may name
_DECOY_IDS = frozenset(range(len(DECOY_AMPS)))


def decoy_flipped(decoy_id, bit):
    """1 if ``bit``, read in the basis of decoy state ``decoy_id``, is not that
    state's bit (the slot came back flipped), else 0: an ``int`` for ``int``
    inputs, and a bool mask for a bool ``bit`` array. Works elementwise."""
    return bit ^ (decoy_id & 1 == 1)


def choice_state(choice: int) -> np.ndarray:
    """Bob's preparation of choice c, decoy state 2c. It names the states
    itself, so a run with other decoy states keeps its choice slots."""
    return qsim.ZERO if choice == 0 else qsim.PLUS


class ProtocolError(Exception):
    """Malformed input to a protocol step."""


def read_key_values(path) -> dict[str, str]:
    """Read a ``key = value`` UTF-8 text file, skipping a leading byte-order
    mark; ``#`` at the start of a line or after whitespace starts a comment,
    so a value may hold ``#``, and blank lines are skipped. Later keys
    override earlier ones."""
    values: dict[str, str] = {}
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                raw = data.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"{path}:{lineno}: {exc}") from None
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ProtocolError(f"{path}:{lineno}: malformed line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


@dataclass(eq=False)  # an array field: == is identity, so hash() works
class SequenceSlot:
    """One qubit of the transmitted sequence; its position is its list index,
    and ``state`` is its register, a read-only amplitude row.

    A slot is payload iff ``payload_index`` (the intended choice it carries)
    is set. ``choice`` is the owner's private preparation record: Bob's choice
    bit c (decoy id 2c) on payload and loyalty slots, which he publishes if
    the slot is loyalty-tested, and None on decoys, whose record is the
    published position and id lists. A cheating Bob's Bell slot has no
    preparation; its ``choice`` is the bit he will declare. The
    counterparty's code must only rely on ``state`` (and, for adversary
    slots, the transmitted qubit is always tensor factor 0 of ``state``).
    """

    state: np.ndarray
    choice: int | None = None
    payload_index: int | None = None


#: Python and numpy numbers (a bool is not one), named concretely: isinstance
#: against the ``numbers`` ABCs costs more than the rest of the config's checks
_INTEGER_TYPES = (int, np.integer)
_REAL_TYPES = (*_INTEGER_TYPES, float, np.floating)


def as_integer(name: str, value) -> int:
    """``value``, a Python or numpy integer, as an int (json cannot write a
    numpy integer); anything else, a bool included, is a ProtocolError naming
    the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, _INTEGER_TYPES):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProtocolConfig:
    N: int
    M: int = 0
    M2: int = 0
    K: int = 0
    tau: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("N", "M", "M2", "K", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if isinstance(self.tau, bool) or not isinstance(self.tau, _REAL_TYPES) or not 0 <= self.tau < 1:
            raise ProtocolError(f"tau must be a real number in [0, 1), got {self.tau!r}")
        if isinstance(self.tau, np.generic):  # not float(tau): a record's "tau":0 replays as 0
            object.__setattr__(self, "tau", self.tau.item())  # json cannot write a numpy scalar
        if self.N < 1:
            raise ProtocolError("N must be >= 1")
        if min(self.M, self.M2, self.K) < 0:
            raise ProtocolError("M, M2 and K must be nonnegative")
        if self.seed < 0:
            raise ProtocolError("seed must be >= 0")
        if self.sequence_length + self.M2 > MAX_QUBITS_USED:
            raise ProtocolError(f"a run may use at most {MAX_QUBITS_USED} qubits "
                                f"(N + M + 2K + M2), got {self.sequence_length + self.M2}")

    @property
    def sequence_length(self) -> int:
        return self.N + self.M + 2 * self.K


def _sample_positions(total: int, m: int, rng: np.random.Generator) -> list[int]:
    """m distinct positions of ``range(total)``, ascending, as
    ``rng.choice(total, size=m, replace=False)`` draws them. A sample of one is
    one scalar ``rng.integers(total)``, the same draw: ``choice`` draws one
    bounded integer for it and its shuffle of one element draws nothing."""
    if m == 1:
        return [int(rng.integers(total))]
    return sorted(rng.choice(total, size=m, replace=False).tolist())


def insert_decoys(slots: list[SequenceSlot], m: int, rng: np.random.Generator,
                  ) -> tuple[list[SequenceSlot], list[int], list[int]]:
    """Insert m uniformly random decoys at uniformly random positions.

    Returns the new sequence plus the decoy positions and state ids (the
    owner's private record, later published for channel checking). The
    decoys of one id are one shared slot: a slot is never written, only
    copied (Step 4) or dropped.
    """
    positions = _sample_positions(len(slots) + m, m, rng)
    # one id is one scalar draw, the same uint32 as a one-element vector
    ids = [int(rng.integers(4))] if m == 1 else rng.integers(0, 4, size=m).tolist()
    decoys = {did: SequenceSlot(DECOY_AMPS[did]) for did in set(ids)}
    out = list(slots)
    # ascending insertion leaves each decoy at its drawn position
    for pos, did in zip(positions, ids):
        out.insert(pos, decoys[did])
    return out, positions, ids


def bob_prepare_sequence(choices, M: int, rng: np.random.Generator, n_loyalty: int = 0,
                         ) -> tuple[list[SequenceSlot], list[int], list[int]]:
    """Step 1: build the sequence of payload + loyalty slots with M decoys mixed in.

    The last ``n_loyalty`` entries of ``choices`` are loyalty slots; the rest
    are payload, whose ``payload_index`` records which intended choice they
    carry. Each payload slot is its own object; the loyalty slots of one
    choice are one shared slot, as the decoys of one id are.
    Returns (slots, decoy positions, decoy ids).
    """
    choices = [int(c) for c in choices]
    if any(c not in (0, 1) for c in choices):
        raise ProtocolError("choices must be bits")
    if not 0 <= n_loyalty <= len(choices):
        raise ProtocolError("loyalty count exceeds choice count")
    n_payload = len(choices) - n_loyalty
    loyalty = [SequenceSlot(choice_state(c), choice=c) for c in (0, 1)]
    slots = [SequenceSlot(choice_state(c), choice=c, payload_index=i)
             for i, c in enumerate(choices[:n_payload])]
    slots += [loyalty[c] for c in choices[n_payload:]]
    return insert_decoys(slots, M, rng)


@dataclass
class CheckResult:
    """``outcomes[i]`` is 1 where the slot at ``positions[i]`` gave the wrong
    bit for its published preparation; ``remaining`` is the unpublished slots."""

    error_rate: float
    ok: bool
    positions: list[int]
    outcomes: list[int]
    remaining: list[SequenceSlot] = field(repr=False)


def check_published_decoys(slots: list[SequenceSlot], positions, ids, rng: np.random.Generator,
                           tau: float = 0.0) -> CheckResult:
    """Measure each published slot in the basis of its published preparation
    and strip the published slots out.

    Slot ``positions[i]`` of the sequence as sent was published as decoy id
    ``ids[i]``: parallel lists of ints, as a transcript records them. This is
    the protocol's one measurement: both directions of channel checking
    (Steps 2 and 6), the loyalty test and Bob's decode. A valid check draws
    one uniform per published slot, in order, and an invalid one draws none.
    """
    if len(positions) != len(ids):
        raise ProtocolError(f"{len(positions)} published decoy positions for {len(ids)} ids")
    if positions and (min(positions) < 0 or max(positions) >= len(slots)):
        raise ProtocolError("published decoy position out of range")
    tested = set(positions)
    if len(tested) != len(positions):
        raise ProtocolError("duplicate published decoy position")
    if not _DECOY_IDS.issuperset(ids):
        raise ProtocolError("published decoy id out of range")
    u = rng.random(len(positions)).tolist()
    outcomes = [decoy_flipped(did, qsim.measure(slots[pos].state, did >= 2, u_pos))
                for pos, did, u_pos in zip(positions, ids, u)]
    error_rate = sum(outcomes) / len(outcomes) if outcomes else 0.0
    remaining = [s for i, s in enumerate(slots) if i not in tested]
    return CheckResult(error_rate, error_rate <= tau, list(positions), outcomes, remaining)


def alice_check_channel(slots, positions, ids, rng, tau: float = 0.0) -> CheckResult:
    """Step 2a: Alice verifies Bob's published decoys, his Step-1 position and
    id lists; abort if error rate > tau."""
    return check_published_decoys(slots, positions, ids, rng, tau)


def alice_test_loyalty(slots: list[SequenceSlot], K: int, rng: np.random.Generator,
                       tau: float = 0.0) -> CheckResult:
    """Step 2b: Alice measures K randomly chosen slots in Bob's published bases.

    Bob publishes each tested slot's recorded choice bit c, and the slot is
    checked against decoy id 2c (|0> or |+>): an honest slot always passes,
    and a flip is a loyalty failure. A tested decoy has no choice to publish.
    """
    if K > len(slots):
        raise ProtocolError("K exceeds available slots")
    positions = _sample_positions(len(slots), K, rng)
    ids = []
    for p in positions:
        choice = slots[p].choice
        if choice is None:
            raise ProtocolError(f"slot {p} has no preparation basis to publish")
        ids.append(2 * choice)
    return check_published_decoys(slots, positions, ids, rng, tau)


def plan_reorder(slots: list[SequenceSlot], intended) -> list[int]:
    """Bob's side of Step 3: pick a permutation putting his intended choice
    string on the first N slots.

    A surviving payload slot returns to its own intended position when it
    carries the choice wanted there. Any other position takes the next unused
    slot from the one queue of its choice: the slots carrying that choice,
    loyalty slots first and then payload slots, each group in index order. A
    used slot never becomes unused again, so each queue is read once and the
    plan takes linear time. The result is a permutation whose first N slots
    carry ``intended``.
    """
    intended = [int(c) for c in intended]
    used = [False] * len(slots)
    by_payload_index = {s.payload_index: k for k, s in enumerate(slots) if s.payload_index is not None}

    def queue(want):
        yield from (j for j, s in enumerate(slots) if s.payload_index is None and s.choice == want)
        yield from (j for j, s in enumerate(slots) if s.payload_index is not None and s.choice == want)

    queues = {want: queue(want) for want in set(intended)}
    perm: list[int] = []
    for i, want in enumerate(intended):
        k = by_payload_index.get(i)
        if k is None or used[k] or slots[k].choice != want:
            k = next((j for j in queues[want] if not used[j]), None)
        if k is None:
            raise ProtocolError(f"no surviving slot can realize choice {want} at position {i}")
        used[k] = True
        perm.append(k)
    perm.extend(j for j in range(len(slots)) if not used[j])
    return perm


def bob_reorder(slots: list[SequenceSlot], permutation, n_keep: int) -> list[SequenceSlot]:
    """Step 3: Alice applies Bob's permutation; slots beyond the first n_keep
    are discarded."""
    permutation = [int(p) for p in permutation]
    if sorted(permutation) != list(range(len(slots))):
        raise ProtocolError("reorder request is not a permutation of the sequence")
    return [slots[p] for p in permutation[:n_keep]]


def alice_encode(slots: list[SequenceSlot], pairs) -> list[SequenceSlot]:
    """Step 4: apply Pauli gate 2 * m0 + m1 of each message pair (m0, m1) to
    qubit 0 of its slot, a register of any width, through :func:`qsim.apply_gate`."""
    pairs = [(int(m0), int(m1)) for m0, m1 in pairs]
    if len(pairs) != len(slots):
        raise ProtocolError(f"{len(pairs)} message pairs for {len(slots)} slots")
    if not all(m0 in (0, 1) and m1 in (0, 1) for m0, m1 in pairs):
        raise ProtocolError("message pairs must be pairs of bits")
    return [replace(slot, state=qsim.apply_gate(slot.state, 2 * m0 + m1))
            for slot, (m0, m1) in zip(slots, pairs)]


def alice_insert_decoys(slots, M2: int, rng) -> tuple[list[SequenceSlot], list[int], list[int]]:
    """Step 5: Alice mixes her own channel-checking decoys into the return trip."""
    return insert_decoys(slots, M2, rng)


@dataclass
class DecodeResult:
    ok: bool
    error_rate: float
    bits: list[int]


def bob_check_and_decode(slots: list[SequenceSlot], positions, ids, choices,
                         rng: np.random.Generator, tau: float = 0.0) -> DecodeResult:
    """Step 6: Bob verifies Alice's decoys, her Step-5 position and id lists,
    then reads each payload slot in the basis he prepared."""
    check = check_published_decoys(slots, positions, ids, rng, tau)
    choices = [int(c) for c in choices]
    if len(check.remaining) != len(choices):
        raise ProtocolError("payload length does not match Bob's choice record")
    if not check.ok:
        return DecodeResult(False, check.error_rate, [])
    # a message bit is 1 iff Bob's own |0> or |+> (decoy id 2c) came back
    # flipped: X/Y flip |0> exactly when m0 = 1, and Z/Y flip |+> exactly when m1 = 1
    bits = check_published_decoys(check.remaining, range(len(choices)), [2 * c for c in choices],
                                  rng).outcomes
    return DecodeResult(True, check.error_rate, bits)


@dataclass
class Transcript:
    """Seeded, replayable record of one protocol run.

    Each step writes its own fields; a field left at its default is what a
    run that aborts before that step records. ``verdict`` is set where the
    run ends.
    """

    version: int
    seed: int
    config: ProtocolConfig
    choices: list[int]
    loyalty_choices: list[int]
    pairs: list[tuple[int, int]]
    qubits_used: int
    bob_decoy_positions: list[int] = field(default_factory=list)
    bob_decoy_ids: list[int] = field(default_factory=list)
    channel_error_rate: float = 0.0
    loyalty_positions: list[int] = field(default_factory=list)
    loyalty_outcomes: list[int] = field(default_factory=list)
    permutation: list[int] = field(default_factory=list)
    alice_decoy_positions: list[int] = field(default_factory=list)
    alice_decoy_ids: list[int] = field(default_factory=list)
    return_error_rate: float = 0.0
    decoded_bits: list[int] = field(default_factory=list)
    verdict: str = ""

    def to_json_line(self) -> str:
        d = {name: getattr(self, name) for name in TRANSCRIPT_FIELDS}
        d["config"] = {name: getattr(self.config, name) for name in CONFIG_FIELDS}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def parse_json_line(line: str) -> dict:
        """Decode one record and check it has exactly the transcript's keys."""
        # ValueError: bad JSON or an int past Python's digit limit; RecursionError: deep nesting
        try:
            d = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"transcript record is not JSON: {exc}") from None
        if not isinstance(d, dict):
            raise ProtocolError("transcript record is not a JSON object")
        if type(d.get("version")) is not int or d["version"] != TRANSCRIPT_VERSION:
            raise ProtocolError(f"unsupported transcript version {d.get('version')!r}")
        _check_keys("transcript record", d, TRANSCRIPT_FIELDS)
        if not isinstance(d["config"], dict):
            raise ProtocolError("transcript config is not a JSON object")
        _check_keys("transcript config", d["config"], CONFIG_FIELDS)
        return d


#: transcript record keys; the nested config omits ``seed``, which the record
#: holds at top level
TRANSCRIPT_FIELDS = tuple(f.name for f in fields(Transcript))
CONFIG_FIELDS = tuple(f.name for f in fields(ProtocolConfig) if f.name != "seed")


def _check_keys(what: str, record: dict, expected) -> None:
    missing = sorted(set(expected) - set(record))
    extra = sorted(set(record) - set(expected))
    if missing or extra:
        raise ProtocolError(f"{what} has missing keys {missing} and unexpected keys {extra}")


def default_loyalty_choices(K: int) -> list[int]:
    """K slots of each choice; at most K slots are ever consumed by testing,
    so a matching backfill always exists for every vacated payload position."""
    return [0] * K + [1] * K


def run_honest(config: ProtocolConfig, choices=None, pairs=None) -> Transcript:
    """Execute one full honest run (Steps 1-6) and record the transcript.

    ``choices`` (length N) and ``pairs`` (N message pairs) are drawn from a
    dedicated input stream when omitted, choices first, so a replay with
    recorded inputs consumes the protocol stream identically. A run given
    both builds no input stream.
    """
    rng = np.random.default_rng([config.seed, 1])
    if choices is None or pairs is None:
        rng_inputs = np.random.default_rng([config.seed, 0])
    if choices is None:
        choices = rng_inputs.integers(0, 2, size=config.N).tolist()
    else:
        choices = [int(c) for c in choices]
    if pairs is None:
        pairs = [tuple(p) for p in rng_inputs.integers(0, 2, size=(config.N, 2)).tolist()]
    else:
        pairs = [(int(a), int(b)) for a, b in pairs]
    if len(choices) != config.N or len(pairs) != config.N:
        raise ProtocolError("need exactly N choices and N message pairs")

    t = Transcript(TRANSCRIPT_VERSION, config.seed, config, choices,
                   default_loyalty_choices(config.K), pairs, config.sequence_length + config.M2)
    # Step 1
    slots, t.bob_decoy_positions, t.bob_decoy_ids = bob_prepare_sequence(
        choices + t.loyalty_choices, config.M, rng, n_loyalty=2 * config.K)
    # Step 2
    check = alice_check_channel(slots, t.bob_decoy_positions, t.bob_decoy_ids, rng, config.tau)
    t.channel_error_rate = check.error_rate
    if not check.ok:
        t.verdict = "abort:channel"
        return t
    loyalty = alice_test_loyalty(check.remaining, config.K, rng, config.tau)
    t.loyalty_positions, t.loyalty_outcomes = loyalty.positions, loyalty.outcomes
    if not loyalty.ok:
        t.verdict = "abort:loyalty"
        return t
    # Step 3
    t.permutation = plan_reorder(loyalty.remaining, choices)
    payload = bob_reorder(loyalty.remaining, t.permutation, config.N)
    # Step 4
    payload = alice_encode(payload, pairs)
    # Step 5
    outbound, t.alice_decoy_positions, t.alice_decoy_ids = alice_insert_decoys(
        payload, config.M2, rng)
    # Step 6
    decode = bob_check_and_decode(outbound, t.alice_decoy_positions, t.alice_decoy_ids,
                                  choices, rng, config.tau)
    t.return_error_rate, t.decoded_bits = decode.error_rate, decode.bits
    t.verdict = "ok" if decode.ok else "abort:return-channel"
    return t


def _is_bit_array(value) -> bool:
    """Whether a decoded JSON value is an array of the integers 0 and 1 (a
    bool or a float is not a bit)."""
    return isinstance(value, list) and all(type(v) is int and v in (0, 1) for v in value)


def replay_transcript(line: str) -> tuple[bool, str]:
    """Re-execute a recorded run from its seed and inputs.

    Returns (verified, detail); on divergence the detail names the first
    differing field.
    """
    d = Transcript.parse_json_line(line)
    if not _is_bit_array(d["choices"]):
        raise ProtocolError("malformed transcript record: choices is not a JSON array of bits")
    if not (isinstance(d["pairs"], list)
            and all(_is_bit_array(p) and len(p) == 2 for p in d["pairs"])):
        raise ProtocolError("malformed transcript record: pairs is not a JSON array of bit pairs")
    cfg = ProtocolConfig(seed=d["seed"], **d["config"])
    fresh = run_honest(cfg, choices=d["choices"], pairs=[tuple(p) for p in d["pairs"]])
    fresh_line = fresh.to_json_line()
    if fresh_line == line.strip():
        return True, "verified"
    new = json.loads(fresh_line)
    for key in sorted(new):
        if d.get(key) != new.get(key):
            return False, f"divergence at field {key!r}: stored {d.get(key)!r}, replayed {new.get(key)!r}"
    return False, "divergence in formatting"
