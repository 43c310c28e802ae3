"""Monte Carlo harness comparing empirical rates against their closed forms.

Trials are drawn in blocks of BLOCK_TRIALS, the stream unit: block b of an
estimate at point p (its M or K; 0 for the scenarios without one) draws from
its own PCG64 stream (seed, p, b), so no two points or seeds share a stream.
A block's trials are simulated together (a row per trial) through the Born
rule, one 64-bit raw word per drawn value. Every register a measurement reads
is one of a few, so each reads its Born probability from a table the
simulator fills once per register at import (per estimate for Eve's
entangling attack). Every scenario's round is a :class:`Program` of such
tables, all drawn by one round function; Eve's intercept and Alice's round
read the tables of one measure-and-resend,
:func:`adversary.alice_measure_resend`."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import adversary, protocol, qsim
from .adversary import AttackScenario
from .protocol import DECOY_AMPS, ProtocolError

DEFAULT_TRIALS = 100_000
#: trials per stream: block b of an estimate draws from its own stream; bounds
#: the kernels' working set (a few MB) for any trial count while spreading
#: numpy's per-call cost over many rows
BLOCK_TRIALS = 16_384


def detection_rate(q: float, n: int) -> float:
    """Closed-form rate at which n independent checks, each flipping with
    probability q, find at least one flip."""
    return 1.0 - (1.0 - q) ** n


#: closed-form rates of a dishonest Alice's measure-and-resend, by resend
#: policy: conclusive choice guesses, carrier bit errors, and dummy-message
#: errors. A bit error is the resent state, measured in Bob's basis, giving the
#: wrong eigenstate; a dummy error is half of that.
ALICE_CLOSED_FORMS = {
    "guess": {"conclusive": 0.25, "bit_error": 0.1875, "dummy_error": 0.09375},
    "collapsed": {"conclusive": 0.25, "bit_error": 0.25, "dummy_error": 0.125},
    "random": {"conclusive": 0.25, "bit_error": 0.5, "dummy_error": 0.25},
}


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: AttackScenario
    parameter: int
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self):
        for name in ("parameter", "trials", "seed"):
            object.__setattr__(self, name, protocol.as_integer(name, getattr(self, name)))
        if self.parameter < 0:
            raise ProtocolError("parameter must be >= 0")
        if self.trials < 1:
            raise ProtocolError("trials must be >= 1")


@dataclass(frozen=True)
class EstimateRow:
    """One empirical rate against its closed form; ``parameter`` is the swept
    value (M or K) or the name of the estimated metric."""

    parameter: int | str
    empirical: float
    closed_form: float
    stderr: float
    trials: int


CSV_HEADER = "parameter,empirical,closed_form,stderr,trials"
#: header of the dishonest-Alice scenarios, whose rows are named metrics
ALICE_CSV_HEADER = "metric,empirical,closed_form,stderr,trials"


def _estimate_row(parameter: int | str, rate: float, closed_form: float, trials: int) -> EstimateRow:
    """A rate with its Wald standard error over ``trials`` Bernoulli trials."""
    return EstimateRow(parameter, rate, closed_form, float(np.sqrt(rate * (1.0 - rate) / trials)), trials)


def _bound_bits(high) -> int:
    """k of an integer bound ``high`` = 2^k, k in 1..32; any other bound is a
    ValueError, and one that is not an integer a TypeError."""
    high = operator.index(high)
    k = high.bit_length() - 1
    if not 1 <= k <= 32 or high != 1 << k:
        raise ValueError(f"bound must be a power of two from 2 to 2**32, got {high}")
    return k


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _thresholds(stage: np.ndarray) -> np.ndarray:
    """A Born table as uint64 thresholds ceil(p * 2^53), so that a word w reads
    1 iff (w >> 11) < threshold, exactly when its uniform (w >> 11) * 2^-53 is
    below p. A NaN entry, which no uniform reaches, is 0, which no word is below."""
    return _read_only(np.ceil(np.ldexp(np.nan_to_num(stage, nan=0.0), 53)).astype(np.uint64))


def _tally(kernel, trials: int, seed: int, point: int = 0) -> list[int]:
    """Run ``kernel(bits, n)`` on each block of n <= BLOCK_TRIALS trials and
    sum the counts it returns.

    Block b draws from its own stream, ``default_rng([seed, point, b])``'s
    PCG64, passed as ``bits``. A detection estimate's point is its
    parameter, so the rows of a sweep share no stream with each other or with
    another seed.
    """
    trials, seed = protocol.as_integer("trials", trials), protocol.as_integer("seed", seed)
    if trials < 1:
        raise ProtocolError("trials must be >= 1")
    if seed < 0:
        raise ProtocolError("seed must be >= 0")
    counts = 0
    for b, first in enumerate(range(0, trials, BLOCK_TRIALS)):
        bits = np.random.default_rng([seed, point, b]).bit_generator
        counts += np.asarray(kernel(bits, min(BLOCK_TRIALS, trials - first)), dtype=np.int64)
    return counts.tolist()


@dataclass(frozen=True)
class Program:
    """A Monte Carlo round as data, drawn by :func:`_round`. Each of ``reads``
    is one ``(bounds, stages)`` read: each integer row of bound b sets key =
    b * key + row, then each Born table in ``stages`` reads one uniform and
    sets key = 2 * key + (uniform < stage[key]). ``events[e, key]`` at the
    last key says whether event e happened. Every table is made read-only.

    Each bound must be a power of two from 2 to 2^32 (a ValueError
    otherwise). ``draws`` holds, per read, the shift 64 - k of each bound
    2^k and each stage's :func:`_thresholds`, built once here."""

    reads: tuple[tuple[tuple[int, ...], tuple[np.ndarray, ...]], ...]
    events: np.ndarray
    draws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for table in (*(stage for _, stages in self.reads for stage in stages), self.events):
            table.flags.writeable = False
        object.__setattr__(self, "draws", tuple(
            (tuple(64 - _bound_bits(b) for b in bounds), tuple(map(_thresholds, stages)))
            for bounds, stages in self.reads))


def _round(program: Program, bits, n: int) -> np.ndarray:
    """The last key of each of n trials. Each read of ``program`` is one
    ``bits.random_raw`` call, a row of n words per value: an integer of bound
    2^k is a word's top k bits, and a stage reads 1 iff the word's uniform,
    its top 53 bits times 2^-53, is below its p1, as ``measure_batch`` reads."""
    key = 0
    for (bounds, _), (shifts, thresholds) in zip(program.reads, program.draws):
        words = bits.random_raw((len(shifts) + len(thresholds)) * n).reshape(-1, n)
        for bound, shift, word in zip(bounds, shifts, words):
            key = bound * key + (word >> shift).view(np.int64)
        for threshold, top in zip(thresholds, words[len(shifts):] >> 11):
            key = 2 * key + (top < threshold.take(key))
    return key


def _first_flip_block(program: Program, rounds: int, bits, trials: int) -> list[int]:
    """Sequential decoy checks: [unflipped, flipped] counts. Each of up to
    ``rounds`` rounds of ``program`` checks the trials not yet flipped, and a
    trial stops at its first flip, the program's event 0."""
    active = trials
    for _ in range(rounds):
        if not active:
            break
        active -= int(np.count_nonzero(program.events[0].take(_round(program, bits, active))))
    return [active, trials - active]


def _event_block(program: Program, bits, trials: int) -> list[int]:
    """One round of ``program`` on every trial: the count of each event."""
    return np.count_nonzero(program.events[:, _round(program, bits, trials)], axis=1).tolist()


#: the Born probability of reading 1 on decoy id d measured in basis b (X
#: where b is set), at 2 * d + b: exactly 0, 1/2 or 1, as
#: :func:`qsim.probability_of_one` normalises by both outcomes
_MEASURE_P1 = _read_only(qsim.probability_of_one(DECOY_AMPS.repeat(2, axis=0), np.arange(8) % 2))


def _resend_tables(policy: str) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a measure-and-resend round for one resend policy: the
    choice guess, and the check's Born probability, by key = (2 * (2 * d +
    b) + bit) * draws + r for decoy id d measured in basis b, the outcome
    bit and the resend draw r of :data:`adversary.RESEND_DRAWS` (r = 0 of
    one for ``collapsed``). The check's probability is that of reading 1 on
    the resent state, encoded with Pauli code 2 * m0 + m1, in the basis of
    id d, at 4 * key + code.

    The simulator measures and resends each row once per key and code,
    through :func:`adversary.alice_measure_resend` with a uniform that forces
    the outcome. An outcome of probability 0 is not collapsed; its entries
    are NaN, which no round reads, as no uniform reaches it.
    """
    rows = np.indices((len(_MEASURE_P1), 2, adversary.RESEND_DRAWS.get(policy, 1), 4)).reshape(4, -1)
    p1 = _MEASURE_P1.take(rows[0])
    # a uniform in [0, 1) reads 1 below a p1 above 0, and 0 from a p1 below 1
    reachable = np.where(rows[1], p1 > 0.0, p1 < 1.0)
    db, bit, r, code = rows[:, reachable]
    guesses, resent = adversary.alice_measure_resend(DECOY_AMPS.take(db // 2, axis=0), db % 2,
                                                     np.where(bit, 0.0, 1.0), r, policy)
    encoded = qsim.apply_batch(resent, qsim.PAULIS.take(code, axis=0))
    guess, check_p1 = np.full((2, len(reachable)), np.nan)
    guess[reachable] = guesses
    check_p1[reachable] = qsim.probability_of_one(encoded, db >= 4)
    return _read_only(guess[::4].copy()), _read_only(check_p1)


#: a measure-and-resend round's tables by resend policy: see :func:`_resend_tables`
_RESEND_TABLES = {policy: _resend_tables(policy) for policy in adversary.RESEND_POLICIES}


def _detection_program(bounds: tuple[int, ...], ids: np.ndarray, stages: tuple) -> Program:
    """A detection round of one read: ``ids[key]`` is the decoy id checked at
    the first key, and the last Born table of ``stages`` is the check's. Its
    one event is the flip: the check's bit is not the bit of that id."""
    key = np.arange(2 * len(stages[-1]))
    return Program(((bounds, stages),), protocol.decoy_flipped(ids[key >> len(stages)], key % 2 == 1)[None])


#: random decoys, each measured and resent by Eve in a random basis: the key
#: 2 * d + b of decoy id d and her basis b, her outcome from its Born p1, and the
#: check on the eigenstate she resends, the ``collapsed`` policy's code-0 column
_INTERCEPT = _detection_program((len(DECOY_AMPS), 2), np.arange(len(_MEASURE_P1)) // 2,
                                (_MEASURE_P1, _RESEND_TABLES["collapsed"][1][::4].copy()))
#: loyalty tests of a cheating Bob's Bell slots, each checked against the id
#: 2c of the uniformly random choice c he declares; the transmitted half is
#: maximally mixed, so each test fails with probability 1/2
_BELL = _detection_program((2,), 2 * np.arange(2), (qsim.probability_of_one(
    np.broadcast_to(adversary.BELL_SLOT, (2, 4)), np.arange(2) == 1),))


def _entangling_program(params) -> Program:
    """Random decoys through Eve's entangling attack: each id's check on what
    one call of her isometry makes of the four decoys."""
    ids = np.arange(len(DECOY_AMPS))
    return _detection_program((len(ids),), ids, (qsim.probability_of_one(
        adversary.eve_entangling_attack(DECOY_AMPS, params), ids >= 2),))


#: the scenarios with a detection closed form: each maps to the CLI flag that
#: gives its number of checks, the probability q that one check flips, and the
#: :class:`Program` of one check
DETECTION = {
    AttackScenario.INTERCEPT_RESEND: ("M", 0.25, _INTERCEPT),
    AttackScenario.BOB_BELL_CHEAT: ("K", 0.5, _BELL),
}


def estimate_detection_rate(spec: ExperimentSpec) -> EstimateRow:
    """Monte Carlo detection estimate with its matching closed form."""
    if spec.scenario not in DETECTION:
        raise ProtocolError(f"no closed-form detection rate for scenario {spec.scenario.value}")
    _, q, program = DETECTION[spec.scenario]
    n = spec.parameter
    hits = _tally(partial(_first_flip_block, program, n), spec.trials, spec.seed, n)[1]
    return _estimate_row(n, hits / spec.trials, detection_rate(q, n), spec.trials)


def sweep_curve(scenario: AttackScenario, values, trials: int = DEFAULT_TRIALS,
                seed: int = 0) -> list[EstimateRow]:
    """One EstimateRow per parameter value, in order; each is
    :func:`estimate_detection_rate` of that value with the same seed, so a
    repeated value repeats its row."""
    values = list(values)
    if not values:
        raise ProtocolError("sweep range must be nonempty")
    return [estimate_detection_rate(ExperimentSpec(scenario, v, trials, seed)) for v in values]


def obliviousness_report(choice: int, chosen_bit: int) -> float:
    """Trace distance between the two encoded payload states that differ only
    in the bit Bob did not choose.

    The unchosen bit toggles I <-> Z (Z-basis slot) or X <-> Y, a global phase
    on a basis eigenstate, so the distance is exactly zero.
    """
    carrier = protocol.choice_state(choice)
    # Pauli code 2 * m0 + m1 with m_choice the chosen bit and the other one u
    codes = [2 * chosen_bit + u if choice == 0 else 2 * u + chosen_bit for u in (0, 1)]
    encoded = [qsim.apply_gate(carrier, code) for code in codes]
    return qsim.trace_distance(*(np.outer(v, v.conj()) for v in encoded))


@dataclass(frozen=True)
class AliceAttackReport:
    conclusive_rate: float
    false_conclusive: int
    bit_error_rate: float
    dummy_error_rate: float
    trials: int
    policy: str = "guess"

    def rows(self) -> list[EstimateRow]:
        """The conclusive, bit-error and dummy-error rates against the
        policy's :data:`ALICE_CLOSED_FORMS`, in that order."""
        rates = {"conclusive": self.conclusive_rate, "bit_error": self.bit_error_rate,
                 "dummy_error": self.dummy_error_rate}
        return [_estimate_row(name, rates[name], closed, self.trials)
                for name, closed in ALICE_CLOSED_FORMS[self.policy].items()]


def _alice_program(policy: str) -> Program:
    """Slots through Alice's measure-and-resend, read from its tables at Bob's
    decoy ids 2j. One read draws Bob's choice j, Alice's basis and her outcome; a
    second her resend draw (if her policy makes one), m0 and m1, the check on
    what she resent, encoded with code 2 * m0 + m1, and the dummy coin. Its
    events: a conclusive guess, a wrong one, a bit error, a dummy error."""
    draws = adversary.RESEND_DRAWS.get(policy)
    measure_p1, guess, check_p1 = (t.reshape(2, 2, -1)[:, 0].ravel()
                                   for t in (_MEASURE_P1, *_RESEND_TABLES[policy]))
    j, *_, m0, m1, check, coin = np.indices((2, 2, 2, draws or 1, 2, 2, 2, 2)).reshape(8, -1)
    guesses = guess.repeat(16)  # a key's guess for each m0, m1, check bit and coin
    # Bob decodes bit 1 where his own preparation, decoy id 2j, came back flipped
    bit_error = protocol.decoy_flipped(2 * j, check) != np.choose(j, (m0, m1))
    conclusive = guesses >= 0
    return Program((((2, 2), (measure_p1,)),
                    ((draws, 2, 2) if draws else (2, 2), (check_p1, np.full(2 * len(check_p1), 0.5)))),
                   np.array([conclusive, conclusive & (guesses != j), bit_error, bit_error & coin], bool))


#: a dishonest Alice's round by resend policy: see :func:`_alice_program`
_ALICE = {policy: _alice_program(policy) for policy in adversary.RESEND_POLICIES}


def alice_attack_report(trials: int, seed: int = 0, policy: str = "guess") -> AliceAttackReport:
    """Monte Carlo rates for a dishonest Alice's measure-and-resend strategy.

    Per trial: Bob prepares one slot for a uniform choice, Alice measures and
    resends per ``policy``, encodes a random pair on whatever she resent, and
    Bob decodes in his preparation basis. A dummy-message error occurs when the
    carrier decoded wrong and the flipped carrier lands on the wrong dummy bit
    (probability one half).
    """
    trials = protocol.as_integer("trials", trials)  # the report holds an int
    conclusive, wrong, bit_errors, dummies = _tally(partial(_event_block, _ALICE[policy]), trials, seed)
    return AliceAttackReport(conclusive / trials, wrong, bit_errors / trials,
                             dummies / trials, trials, policy)


def entangling_detection_estimate(params, trials: int = DEFAULT_TRIALS, seed: int = 0) -> EstimateRow:
    """Monte Carlo decoy-flip rate under the entangling attack, against the
    analytic value from the isometry amplitudes."""
    trials = protocol.as_integer("trials", trials)  # the row holds an int
    flips = _tally(partial(_first_flip_block, _entangling_program(params), 1), trials, seed)[1]
    return _estimate_row(0, flips / trials, adversary.ue_detection_probability(params), trials)


def entangling_rows(params, trials: int = DEFAULT_TRIALS, seed: int = 0) -> list[EstimateRow]:
    """The ``detection`` estimate and the ``leakage`` row: Eve's trace distance
    between choices, computed exactly (its stderr is 0)."""
    detection = entangling_detection_estimate(params, trials, seed)
    leak = adversary.ue_leakage(params)
    return [replace(detection, parameter="detection"), EstimateRow("leakage", leak, leak, 0.0, trials)]
