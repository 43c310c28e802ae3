"""Monte Carlo harness comparing empirical rates against their closed forms.

Trials run in chunks of CHUNK_TRIALS, each simulated as one amplitude block
(a row per trial) through the Born rule. Chunk c of an estimate at point p
(its M or K; 0 for the scenarios without one) draws from its own stream
(seed, p, c), so results are identical regardless of execution order, and no
two points or seeds share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import adversary, protocol, qsim
from .adversary import AttackScenario
from .protocol import DECOY_AMPS, DECOY_STATES, ProtocolError
from .qsim import BellKind

DEFAULT_TRIALS = 100_000
#: trials simulated together as one amplitude block; bounds the kernels'
#: working set (a few hundred kB) while keeping numpy's per-call cost small
CHUNK_TRIALS = 256


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


def _wald_stderr(rate: float, trials: int) -> float:
    """Standard error of a rate estimated from ``trials`` Bernoulli trials."""
    return float(np.sqrt(rate * (1.0 - rate) / trials))


def _estimate_row(parameter: int | str, rate: float, closed_form: float, trials: int) -> EstimateRow:
    return EstimateRow(parameter, rate, closed_form, _wald_stderr(rate, trials), trials)


def _tally(kernel, trials: int, seed: int, point: int = 0) -> list[int]:
    """Run ``kernel(rng, T)`` on chunks of at most CHUNK_TRIALS trials and
    sum the counts it returns for each chunk.

    Chunk c draws from its own stream ``default_rng([seed, point, c])``, so
    results do not depend on the order chunks run in. A detection estimate's
    point is its parameter, so the rows of a sweep share no stream with each
    other or with another seed.
    """
    if trials < 1:
        raise ProtocolError("trials must be >= 1")
    counts = sum(np.asarray(kernel(np.random.default_rng([seed, point, c]),
                                   min(CHUNK_TRIALS, trials - start)), dtype=np.int64)
                 for c, start in enumerate(range(0, trials, CHUNK_TRIALS)))
    return counts.tolist()


def _first_flip_chunk(draw, rounds: int, rng: np.random.Generator, trials: int) -> list[int]:
    """Sequential decoy checks: [unflipped, flipped] counts.

    Each of up to ``rounds`` rounds draws the checked states of the trials not
    yet flipped, ``draw(rng, n) -> (block, ids)``, and checks each row against
    its decoy id; a trial stops at its first flip.
    """
    active = trials
    for _ in range(rounds):
        if not active:
            break
        block, ids = draw(rng, active)
        active -= int(np.count_nonzero(protocol.decoy_flips(block, ids, rng.random(active))))
    return [active, trials - active]


def _intercept_round(rng: np.random.Generator, n: int):
    """Random decoys, each measured and resent by Eve in a random basis."""
    ids = rng.integers(len(DECOY_STATES), size=n)
    return adversary.eve_intercept_resend(DECOY_AMPS[ids], rng), ids


#: a cheating Bob's tested slot: the Bell pair whose half he transmitted
_PHI_PLUS = qsim.make_bell(BellKind.PHI_PLUS).amps


def _bell_round(rng: np.random.Generator, n: int):
    """Loyalty tests of Bell slots, each declared as a uniformly random choice
    c (decoy id 2c); the transmitted half is maximally mixed, so each test
    fails with probability 1/2."""
    return np.broadcast_to(_PHI_PLUS, (n, 4)), 2 * rng.integers(2, size=n)


def _entangling_round(params, rng: np.random.Generator, n: int):
    """Random decoys through Eve's entangling attack."""
    ids = rng.integers(len(DECOY_STATES), size=n)
    return adversary.eve_entangling_attack(DECOY_AMPS[ids], params), ids


#: the scenarios with a detection closed form: each maps to the CLI flag that
#: gives its number of checks, the probability q that one check flips, and the
#: round drawer of :func:`_first_flip_chunk`
DETECTION = {
    AttackScenario.INTERCEPT_RESEND: ("M", 0.25, _intercept_round),
    AttackScenario.BOB_BELL_CHEAT: ("K", 0.5, _bell_round),
}


def estimate_detection_rate(spec: ExperimentSpec) -> EstimateRow:
    """Monte Carlo detection estimate with its matching closed form."""
    if spec.scenario not in DETECTION:
        raise ProtocolError(f"no closed-form detection rate for scenario {spec.scenario.value}")
    _, q, draw = DETECTION[spec.scenario]
    n = spec.parameter
    hits = _tally(partial(_first_flip_chunk, draw, n), spec.trials, spec.seed, n)[1]
    return _estimate_row(n, hits / spec.trials, detection_rate(q, n), spec.trials)


def sweep_curve(scenario: AttackScenario, values, trials: int = DEFAULT_TRIALS,
                seed: int = 0) -> list[EstimateRow]:
    """One EstimateRow per parameter value, in order; each is
    :func:`estimate_detection_rate` of that value with the same seed, so a
    repeated value repeats its row."""
    values = [int(v) for v in values]
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
    if choice == 0:
        variants = [(chosen_bit, 0), (chosen_bit, 1)]
    else:
        variants = [(0, chosen_bit), (1, chosen_bit)]
    densities = [
        qsim.density_of([qsim.apply_gate(carrier, protocol.PAULI_CODE[pair], 0)])
        for pair in variants
    ]
    return qsim.trace_distance(densities[0], densities[1])


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


def _alice_chunk(policy: str, rng: np.random.Generator, trials: int) -> list[int]:
    """Slots through Alice's measure-and-resend: the counts of conclusive
    guesses, wrong conclusive guesses, bit errors and dummy errors."""
    j = rng.integers(2, size=trials)
    guesses, resent = adversary.alice_measure_resend(DECOY_AMPS[2 * j], rng, policy)
    m0, m1 = rng.integers(2, size=(2, trials))
    encoded = qsim.apply_batch(resent, protocol.PAULI_MATRICES[2 * m0 + m1])
    # Bob decodes bit 1 where his own preparation, decoy id 2j, came back flipped
    bit_error = protocol.decoy_flips(encoded, 2 * j, rng.random(trials)) != np.choose(j, (m0, m1))
    dummy_error = bit_error & (rng.random(trials) < 0.5)
    conclusive = guesses >= 0
    return [int(np.count_nonzero(event)) for event in
            (conclusive, conclusive & (guesses != j), bit_error, dummy_error)]


def alice_attack_report(trials: int, seed: int = 0, policy: str = "guess") -> AliceAttackReport:
    """Monte Carlo rates for a dishonest Alice's measure-and-resend strategy.

    Per trial: Bob prepares one slot for a uniform choice, Alice measures and
    resends per ``policy``, encodes a random pair on whatever she resent, and
    Bob decodes in his preparation basis. A dummy-message error occurs when the
    carrier decoded wrong and the flipped carrier lands on the wrong dummy bit
    (probability one half).
    """
    conclusive, wrong, bit_errors, dummy_errors = _tally(partial(_alice_chunk, policy), trials, seed)
    return AliceAttackReport(conclusive / trials, wrong, bit_errors / trials,
                             dummy_errors / trials, trials, policy)


def entangling_detection_estimate(params, trials: int = DEFAULT_TRIALS, seed: int = 0) -> EstimateRow:
    """Monte Carlo decoy-flip rate under the entangling attack, against the
    analytic value from the isometry amplitudes."""
    kernel = partial(_first_flip_chunk, partial(_entangling_round, params), 1)
    flips = _tally(kernel, trials, seed)[1]
    return _estimate_row(0, flips / trials, adversary.ue_detection_probability(params), trials)


def entangling_rows(params, trials: int = DEFAULT_TRIALS, seed: int = 0) -> list[EstimateRow]:
    """The ``detection`` estimate and the ``leakage`` row: Eve's trace distance
    between choices, computed exactly (its stderr is 0)."""
    detection = entangling_detection_estimate(params, trials, seed)
    leak = adversary.ue_leakage(params)
    return [replace(detection, parameter="detection"), EstimateRow("leakage", leak, leak, 0.0, trials)]
