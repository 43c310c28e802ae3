"""Monte Carlo harness comparing empirical rates against their closed forms.

Every probabilistic trial derives its random stream from (experiment seed,
trial index), so results are identical regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import adversary, protocol, qsim
from .adversary import AttackScenario
from .protocol import DECOY_STATES, ProtocolError, choice_basis, choice_state, decoy_basis, decoy_bit
from .qsim import BellKind

DEFAULT_TRIALS = 100_000


def bell_cheat_detection_rate(K: int) -> float:
    """Closed-form loyalty-test detection rate against a Bell-pair cheat."""
    return 1.0 - 0.5 ** K


def intercept_detection_rate(M: int) -> float:
    """Closed-form channel-check detection rate against intercept-and-resend."""
    return 1.0 - 0.75 ** M


#: closed-form rates of a dishonest Alice's guess-policy measure-and-resend:
#: conclusive choice guesses, carrier bit errors, and dummy-message errors
ALICE_CLOSED_FORMS = {"conclusive": 0.25, "bit_error": 0.1875, "dummy_error": 0.09375}


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

    def as_csv(self) -> str:
        return (f"{self.parameter},{self.empirical:.10g},{self.closed_form:.10g},"
                f"{self.stderr:.10g},{self.trials}")


CSV_HEADER = "parameter,empirical,closed_form,stderr,trials"
#: header of the dishonest-Alice scenarios, whose rows are named metrics
ALICE_CSV_HEADER = "metric,empirical,closed_form,stderr,trials"


def _wald_stderr(rate: float, trials: int) -> float:
    """Standard error of a rate estimated from ``trials`` Bernoulli trials."""
    return float(np.sqrt(rate * (1.0 - rate) / trials))


def _estimate_row(parameter: int | str, rate: float, closed_form: float, trials: int) -> EstimateRow:
    return EstimateRow(parameter, rate, closed_form, _wald_stderr(rate, trials), trials)


def _tally(kernel, arg, trials: int, seed: int, n_outcomes: int = 2) -> list[int]:
    """Run ``kernel(arg, rng)`` once per trial and count the trials returning
    each outcome code in ``range(n_outcomes)`` (a bool counts as 0 or 1).

    Trial t draws from its own stream ``default_rng([seed, t])``, so results
    do not depend on the order trials run in.
    """
    if trials < 1:
        raise ProtocolError("trials must be >= 1")
    counts = [0] * n_outcomes
    for t in range(trials):
        counts[kernel(arg, np.random.default_rng([seed, t]))] += 1
    return counts


def _intercept_trial(M: int, rng: np.random.Generator) -> bool:
    """One channel check with Eve intercepting: True iff any decoy mismatches."""
    for _ in range(M):
        did = int(rng.integers(4))
        resent = adversary.eve_intercept_resend(DECOY_STATES[did], rng)
        bit, _ = qsim.measure(resent, decoy_basis(did), 0, rng)
        if bit != decoy_bit(did):
            return True
    return False


def _bell_cheat_trial(K: int, rng: np.random.Generator) -> bool:
    """One loyalty test against a Bell-pair cheat: True iff any slot fails.

    The cheating Bob declares a uniformly random basis per tested slot; his
    transmitted half is maximally mixed, so each test fails with probability 1/2.
    """
    for _ in range(K):
        pair = qsim.make_bell(BellKind.PHI_PLUS)
        declared = choice_basis(rng.integers(2))
        bit, _ = qsim.measure(pair, declared, 0, rng)
        if bit == 1:
            return True
    return False


def estimate_detection_rate(spec: ExperimentSpec) -> EstimateRow:
    """Monte Carlo detection estimate with its matching closed form."""
    if spec.scenario is AttackScenario.BOB_BELL_CHEAT:
        trial, closed = _bell_cheat_trial, bell_cheat_detection_rate
    elif spec.scenario is AttackScenario.INTERCEPT_RESEND:
        trial, closed = _intercept_trial, intercept_detection_rate
    else:
        raise ProtocolError(f"no closed-form detection rate for scenario {spec.scenario.value}")
    hits = _tally(trial, spec.parameter, spec.trials, spec.seed)[1]
    return _estimate_row(spec.parameter, hits / spec.trials, closed(spec.parameter), spec.trials)


def sweep_curve(scenario: AttackScenario, values, trials: int = DEFAULT_TRIALS,
                seed: int = 0) -> list[EstimateRow]:
    """One EstimateRow per parameter value, in order."""
    values = [int(v) for v in values]
    if not values:
        raise ProtocolError("sweep range must be nonempty")
    return [estimate_detection_rate(ExperimentSpec(scenario, v, trials, seed + i))
            for i, v in enumerate(values)]


def obliviousness_report(choice: int, chosen_bit: int) -> float:
    """Trace distance between the two encoded payload states that differ only
    in the bit Bob did not choose.

    The unchosen bit toggles I <-> Z (Z-basis slot) or X <-> Y, a global phase
    on a basis eigenstate, so the distance is exactly zero.
    """
    carrier = choice_state(choice)
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

    def rows(self) -> list[EstimateRow]:
        """The conclusive, bit-error and dummy-error rates against
        :data:`ALICE_CLOSED_FORMS`, in that order."""
        rates = {"conclusive": self.conclusive_rate, "bit_error": self.bit_error_rate,
                 "dummy_error": self.dummy_error_rate}
        return [_estimate_row(name, rates[name], closed, self.trials)
                for name, closed in ALICE_CLOSED_FORMS.items()]


def _alice_trial(policy: str, rng: np.random.Generator) -> int:
    """One slot through Alice's measure-and-resend; returns the outcome code
    conclusive + 2 * wrong guess + 4 * bit error + 8 * dummy error."""
    j = int(rng.integers(2))
    guess, resent = adversary.alice_measure_resend(choice_state(j), rng, policy)
    pair = (int(rng.integers(2)), int(rng.integers(2)))
    encoded = qsim.apply_gate(resent, protocol.PAULI_CODE[pair], 0)
    bit, _ = qsim.measure(encoded, choice_basis(j), 0, rng)
    bit_error = bit != pair[j]
    dummy_error = bit_error and rng.random() < 0.5
    return ((guess is not None) + 2 * (guess is not None and guess != j)
            + 4 * bit_error + 8 * dummy_error)


def alice_attack_report(trials: int, seed: int = 0, policy: str = "guess") -> AliceAttackReport:
    """Monte Carlo rates for a dishonest Alice's measure-and-resend strategy.

    Per trial: Bob prepares one slot for a uniform choice, Alice measures and
    resends per ``policy``, encodes a random pair on whatever she resent, and
    Bob decodes in his preparation basis. A dummy-message error occurs when the
    carrier decoded wrong and the flipped carrier lands on the wrong dummy bit
    (probability one half).
    """
    counts = _tally(_alice_trial, policy, trials, seed, n_outcomes=16)
    conclusive, wrong, bit_errors, dummy_errors = (
        sum(n for code, n in enumerate(counts) if code >> k & 1) for k in range(4))
    return AliceAttackReport(conclusive / trials, wrong, bit_errors / trials,
                             dummy_errors / trials, trials)


def _entangling_trial(params, rng: np.random.Generator) -> bool:
    """One decoy through Eve's entangling attack: True iff it reads flipped."""
    did = int(rng.integers(4))
    attacked = adversary.eve_entangling_attack(DECOY_STATES[did], params)
    bit, _ = qsim.measure(attacked, decoy_basis(did), 0, rng)
    return bit != decoy_bit(did)


def entangling_detection_estimate(params, trials: int = DEFAULT_TRIALS, seed: int = 0) -> EstimateRow:
    """Monte Carlo decoy-flip rate under the entangling attack, against the
    analytic value from the isometry amplitudes."""
    flips = _tally(_entangling_trial, params, trials, seed)[1]
    return _estimate_row(0, flips / trials, adversary.ue_detection_probability(params), trials)


def entangling_rows(params, trials: int = DEFAULT_TRIALS, seed: int = 0) -> list[EstimateRow]:
    """The ``detection`` estimate and the ``leakage`` row: Eve's trace distance
    between choices, computed exactly (its stderr is 0)."""
    detection = entangling_detection_estimate(params, trials, seed)
    leak = adversary.ue_leakage(params)
    return [replace(detection, parameter="detection"), EstimateRow("leakage", leak, leak, 0.0, trials)]
