"""Monte Carlo harness comparing empirical rates against their closed forms.

Trials are drawn in blocks of BLOCK_TRIALS, the stream unit: block b of an
estimate at point p (its M or K; 0 for the scenarios without one) draws from
its own PCG64 stream (seed, p, b), so no two points or seeds share a stream.
A block's trials are simulated together (a row per trial) through the Born
rule. Every scenario's round is a :class:`Program`, a read-only mapping of
named steps in draw order: integer draws, and Born tables the simulator
fills once per register at import (per estimate for Eve's entangling
attack). A round of n trials is one ``random_raw`` call, a (steps, n) matrix
of 64-bit words that :func:`_round` shifts and keys in place; few live
trials of a detection estimate read a wave of rounds per call (:data:`WAVE`).
Each table and event is written over the round's named draws and laid out
by :func:`_table`; Eve's intercept and Alice's round measure and resend
through one function, :func:`adversary.alice_measure_resend`."""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import adversary, protocol, qsim
from .adversary import AttackScenario
from .protocol import DECOY_AMPS, ProtocolError

DEFAULT_TRIALS = 100_000
#: trials per stream: block b of an estimate draws from its own stream; bounds
#: the kernels' working set (a few MB) for any trial count while spreading
#: numpy's per-call cost over many rows
BLOCK_TRIALS = 16_384
#: columns of a detection wave: with n live trials a wave reads WAVE // n
#: rounds (at least one) in one call, so few live trials do not pay numpy's
#: per-call cost once a round
WAVE = 1024


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
    return _read_only(np.ceil(np.ldexp(np.fmax(stage, 0.0), 53)).astype(np.uint64))


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


class Program(NamedTuple):
    """A Monte Carlo round as data, built by :func:`_program` and drawn by
    :func:`_round`. ``steps`` maps each name, in draw order, to an int bound
    b, which draws a row (key = b * key + row), or a Born table, which reads
    one uniform (key = 2 * key + (uniform < table[key])), a function of the
    draws before it. ``events[e, key]`` at the last key says whether event e
    happened. Per step, in order: ``shifts``, the (steps, 1) column a round
    shifts its words by (a bound 2^k's 64 - k keeps its top k bits, a table's
    11 its 53-bit uniform), and ``draws``, each bound or its thresholds."""

    steps: MappingProxyType
    events: np.ndarray
    shifts: np.ndarray
    draws: tuple


def _table(steps: dict, fn) -> np.ndarray:
    """``fn`` of the named draws of ``steps`` (a bound's row, a Born table's
    bit), elementwise over every key of a round of those steps, in key order."""
    draws = np.indices([s if isinstance(s, int) else 2 for s in steps.values()]).reshape(len(steps), -1)
    return fn(**dict(zip(steps, draws)))


def _program(steps: dict, events) -> Program:
    """The :class:`Program` of ``steps``, by name and in order, each an integer
    bound (a power of two from 2 to 2^32: a ValueError otherwise, a TypeError
    if not an integer) or a function of the named draws before it, whose
    :func:`_table` is its Born table, and of the table of ``events`` (one
    event, or a list) over them all. Its steps and tables are read-only."""
    built = {}
    for name, step in steps.items():
        built[name] = _read_only(_table(built, step)) if callable(step) else 1 << _bound_bits(step)
    draws = tuple(s if isinstance(s, int) else _thresholds(s) for s in built.values())
    shifts = np.array([[64 - _bound_bits(d) if isinstance(d, int) else 11] for d in draws], np.uint64)
    return Program(MappingProxyType(built), _read_only(np.array(_table(built, events), bool, ndmin=2)),
                   _read_only(shifts), draws)


def _round(program: Program, words: np.ndarray) -> np.ndarray:
    """The last key of each of n trials from their ``(steps, n)`` words, a row
    per step: an integer of bound 2^k is a word's top k bits, and a table
    reads 1 iff the word's uniform, its top 53 bits times 2^-53, is below its
    p1, as ``measure_batch`` reads. ``words`` is shifted in place by the
    program's ``shifts``, and its first row, the first bound's draws, is
    updated in place into the keys and returned (uint64)."""
    words >>= program.shifts
    key = words[0]
    for draw, row in zip(program.draws[1:], words[1:]):
        if isinstance(draw, int):
            key *= draw
            key += row
        else:
            bit = row < draw.take(key)
            key += key
            key += bit
    return key


def _first_flip_block(program: Program, rounds: int, bits, trials: int) -> list[int]:
    """Sequential decoy checks: [unflipped, flipped] counts. Each of up to
    ``rounds`` rounds of ``program`` checks the trials not yet flipped, and a
    trial stops at its first flip, the program's event 0.

    The live trials are read in waves of rounds: with n live, a wave reads
    the next ``ahead`` = min(max(WAVE // n, 1), rounds left) rounds of all n
    in one ``bits.random_raw(steps * ahead * n)`` call, step-major, whose
    column j is round j // n of trial j % n. A trial that flips in any of
    them is dropped; its words in the wave's later rounds are read unused.
    A wave reads at most ``steps * max(WAVE, n)`` words."""
    steps, flips = len(program.steps), program.events[0]
    active, done = trials, 0
    while active and done < rounds:
        ahead = min(max(WAVE // active, 1), rounds - done)
        flipped = flips.take(_round(program, bits.random_raw(steps * ahead * active).reshape(steps, -1)))
        if ahead > 1:
            flipped = flipped.reshape(ahead, active).any(axis=0)
        active -= int(np.count_nonzero(flipped))
        done += ahead
    return [active, trials - active]


def _event_block(program: Program, bits, trials: int) -> list[int]:
    """One round of ``program`` on every trial: the count of each event."""
    key = _round(program, bits.random_raw(len(program.steps) * trials).reshape(-1, trials))
    return [int(np.count_nonzero(event.take(key))) for event in program.events]


def _measure(d, b) -> np.ndarray:
    """The Born probability of reading 1 on decoy id d in basis b (X where b is
    set), elementwise: exactly 0, 1/2 or 1, as ``probability_of_one`` reads."""
    return qsim.probability_of_one(DECOY_AMPS.take(d, axis=0), b)


def _resend(policy: str, d, b, bit, r, code) -> tuple[np.ndarray, np.ndarray]:
    """A measure-and-resend per ``policy``, elementwise: the choice guess and
    the check's Born probability of reading 1, in the basis of decoy id d, on
    what is resent after measuring id d in basis b reads ``bit``, with resend
    draw r of :data:`adversary.RESEND_DRAWS` (``collapsed`` reads none),
    encoded with Pauli code ``code``. Each row goes through
    :func:`adversary.alice_measure_resend` with a uniform forcing ``bit``; a
    bit of probability 0, which no uniform reaches, is NaN in both."""
    p1 = _measure(d, b)
    # a uniform in [0, 1) reads 1 below a p1 above 0, and 0 from a p1 below 1
    reachable = np.where(bit, p1 > 0.0, p1 < 1.0)
    d, b, bit, r, code = (np.broadcast_to(x, reachable.shape)[reachable] for x in (d, b, bit, r, code))
    guesses, resent = adversary.alice_measure_resend(DECOY_AMPS.take(d, axis=0), b, 1.0 - bit, r, policy)
    guess, check_p1 = np.full((2, len(reachable)), np.nan)
    guess[reachable] = guesses
    encoded = qsim.apply_batch(resent, qsim.PAULIS.take(code, axis=0))
    check_p1[reachable] = qsim.probability_of_one(encoded, d >= 2)
    return guess, check_p1


def _flip(d, check, **_) -> np.ndarray:
    """A detection round's one event: the check's bit is not the bit of decoy id d."""
    return protocol.decoy_flipped(d, check)


#: random decoys d, each measured by Eve in a random basis b and resent as
#: the eigenstate she read, the ``collapsed`` policy
_INTERCEPT = _program({"d": len(DECOY_AMPS), "b": 2, "bit": _measure,
                       "check": lambda d, b, bit: _resend("collapsed", d, b, bit, 0, 0)[1]}, _flip)
#: loyalty tests of a cheating Bob's Bell slots, each checked against the id 2c
#: of the random choice c he declares: each fails with probability 1/2
_BELL = _program({"c": 2, "check": lambda c: qsim.probability_of_one(
    np.broadcast_to(adversary.BELL_SLOT, (len(c), 4)), c == 1)}, lambda c, check: _flip(2 * c, check))


def _entangling_program(params) -> Program:
    """Random decoys through Eve's entangling attack: each id's check on what
    one call of her isometry makes of the four decoys."""
    return _program({"d": len(DECOY_AMPS), "check": lambda d: qsim.probability_of_one(
        adversary.eve_entangling_attack(DECOY_AMPS.take(d, axis=0), params), d >= 2)}, _flip)


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


def _check_policy(policy: str) -> None:
    """A resend policy without closed forms, or not a string, is a ProtocolError."""
    if not isinstance(policy, str) or policy not in ALICE_CLOSED_FORMS:
        raise ProtocolError(f"unknown resend policy {policy!r}")


@dataclass(frozen=True)
class AliceAttackReport:
    conclusive_rate: float
    false_conclusive: int
    bit_error_rate: float
    dummy_error_rate: float
    trials: int
    policy: str = "guess"

    def __post_init__(self):
        _check_policy(self.policy)

    def rows(self) -> list[EstimateRow]:
        """The conclusive, bit-error and dummy-error rates against the
        policy's :data:`ALICE_CLOSED_FORMS`, in that order."""
        rates = {"conclusive": self.conclusive_rate, "bit_error": self.bit_error_rate,
                 "dummy_error": self.dummy_error_rate}
        return [_estimate_row(name, rates[name], closed, self.trials)
                for name, closed in ALICE_CLOSED_FORMS[self.policy].items()]


def _alice_program(policy: str) -> Program:
    """Slots through Alice's measure-and-resend at Bob's decoy ids 2j: Bob's
    choice j, Alice's basis a and her outcome bit, her resend draw r (if her
    policy makes one), m0 and m1, the check on what she resent, encoded with
    code 2 * m0 + m1, and the dummy coin, a bound 2. Its events: a conclusive
    guess, a wrong one, a bit error, and a bit error where the coin reads 0."""

    def resend(j, a, bit, m0, m1, r=0, **_):
        return _resend(policy, 2 * j, a, bit, r, 2 * m0 + m1)

    def events(j, m0, m1, check, coin, **drawn):
        guess = resend(j=j, m0=m0, m1=m1, **drawn)[0]
        # Bob decodes bit 1 where his own preparation, decoy id 2j, came back flipped
        bit_error = protocol.decoy_flipped(2 * j, check) != np.choose(j, (m0, m1))
        conclusive = guess >= 0
        return [conclusive, conclusive & (guess != j), bit_error, bit_error & (coin == 0)]

    draws = adversary.RESEND_DRAWS.get(policy)
    measured = {"j": 2, "a": 2, "bit": lambda j, a: _measure(2 * j, a), **({"r": draws} if draws else {})}
    return _program({**measured, "m0": 2, "m1": 2, "check": lambda **drawn: resend(**drawn)[1],
                     "coin": 2}, events)


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
    _check_policy(policy)
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
