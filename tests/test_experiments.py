import itertools
import math
import os
import re
import subprocess
import sys
from collections import namedtuple
from dataclasses import astuple
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qotsim import adversary, cli, experiments, protocol, qsim
from qotsim.adversary import AttackScenario
from qotsim.experiments import EstimateRow, ExperimentSpec
from qotsim.protocol import DECOY_AMPS, ProtocolConfig, ProtocolError
from test_adversary import drawing_alice_measure_resend
from test_protocol import decoy_flips

UE_PARAMS = adversary.sample_ue_params(np.random.default_rng(4))
NO_DETECTION = adversary.UeParams.no_detection_point()
#: the intercept's measurement: the Born probability of reading 1 on decoy id
#: d in basis b, at key 2d + b
MEASURE_P1 = experiments._INTERCEPT.steps["bit"]


class TestClosedForms:
    def test_bell_cheat_values(self):
        assert experiments.detection_rate(0.5, 1) == 0.5
        assert abs(experiments.detection_rate(0.5, 20) - (1 - 0.5 ** 20)) == 0.0
        assert experiments.detection_rate(0.5, 20) > 0.999999
        assert experiments.DETECTION[AttackScenario.BOB_BELL_CHEAT][:2] == ("K", 0.5)

    def test_intercept_values(self):
        assert experiments.detection_rate(0.25, 0) == 0.0
        assert abs(experiments.detection_rate(0.25, 10) - (1 - 0.75 ** 10)) == 0.0
        assert experiments.detection_rate(0.25, 50) >= 0.999999
        assert experiments.DETECTION[AttackScenario.INTERCEPT_RESEND][:2] == ("M", 0.25)


class TestEstimateDetectionRate:
    def test_single_trial_rate_is_zero_or_one(self):
        row = experiments.estimate_detection_rate(
            ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, 2, trials=1, seed=0))
        assert row.empirical in (0.0, 1.0)

    def test_bell_cheat_small_k(self):
        row = experiments.estimate_detection_rate(
            ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, 1, trials=20_000, seed=4))
        assert row.closed_form == 0.5
        assert abs(row.empirical - 0.5) <= 4 * row.stderr

    def test_intercept_small_m(self):
        row = experiments.estimate_detection_rate(
            ExperimentSpec(AttackScenario.INTERCEPT_RESEND, 5, trials=20_000, seed=4))
        assert row.closed_form == 1 - 0.75 ** 5
        assert abs(row.empirical - row.closed_form) <= 4 * row.stderr

    def test_stderr_formula(self):
        row = experiments.estimate_detection_rate(
            ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, 1, trials=5_000, seed=1))
        p = row.empirical
        assert row.stderr == pytest.approx(np.sqrt(p * (1 - p) / 5_000))

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(AttackScenario.INTERCEPT_RESEND, 3, trials=2_000, seed=9)
        assert experiments.estimate_detection_rate(spec) == experiments.estimate_detection_rate(spec)

    def test_rejects_unsupported_scenario(self):
        with pytest.raises(ProtocolError):
            experiments.estimate_detection_rate(
                ExperimentSpec(AttackScenario.ALICE_MEASURE_RESEND, 1, trials=10))

    def test_rejects_zero_trials(self):
        with pytest.raises(ProtocolError):
            ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, 1, trials=0)

    def test_rejects_negative_seed(self):
        """Every estimator names the seed, not numpy's stream construction."""
        spec = ExperimentSpec(AttackScenario.INTERCEPT_RESEND, 3, trials=10, seed=-1)
        for estimate in (lambda: experiments.estimate_detection_rate(spec),
                         lambda: experiments.alice_attack_report(10, seed=-1)):
            with pytest.raises(ProtocolError, match="^seed must be >= 0$"):
                estimate()

    def test_rejects_negative_parameter(self):
        for scenario in (AttackScenario.INTERCEPT_RESEND, AttackScenario.BOB_BELL_CHEAT):
            with pytest.raises(ProtocolError):
                ExperimentSpec(scenario, -3, trials=10)

    @pytest.mark.parametrize("field", ["parameter", "trials", "seed"])
    @pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "2"])
    def test_spec_rejects_a_non_integer(self, field, value):
        fields = {"parameter": 2, "trials": 10, "seed": 0, field: value}
        with pytest.raises(ProtocolError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            ExperimentSpec(AttackScenario.INTERCEPT_RESEND, **fields)

    def test_spec_takes_numpy_integers_as_ints(self):
        spec = ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, np.int64(2), np.int32(300), np.uint64(3))
        assert [type(v) for v in (spec.parameter, spec.trials, spec.seed)] == [int, int, int]
        assert spec == ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, 2, 300, 3)
        row = experiments.estimate_detection_rate(spec)
        assert type(row.trials) is int
        assert row == experiments.estimate_detection_rate(ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, 2, 300, 3))
        # the estimators that take trials and a seed without a spec convert them too
        report = experiments.alice_attack_report(np.int64(300), seed=np.uint64(3))
        assert report == experiments.alice_attack_report(300, seed=3)
        assert type(report.trials) is int and type(report.conclusive_rate) is float
        row = experiments.entangling_detection_estimate(UE_PARAMS, np.int64(300), np.uint64(3))
        assert row == experiments.entangling_detection_estimate(UE_PARAMS, 300, 3)
        assert type(row.trials) is int and type(row.empirical) is float

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("value", [True, 300.0, "300"])
    def test_estimators_reject_a_non_integer_trials_or_seed(self, field, value):
        """Each estimator that takes trials and a seed without a spec names
        the field, not numpy's stream construction."""
        args = {"trials": 300, "seed": 1, field: value}
        for estimate in (experiments.alice_attack_report,
                         partial(experiments.entangling_detection_estimate, UE_PARAMS)):
            with pytest.raises(ProtocolError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
                estimate(**args)

    def test_sweep_rejects_a_non_integer_value(self):
        with pytest.raises(ProtocolError, match=r"^parameter must be an integer, got 2\.5$"):
            experiments.sweep_curve(AttackScenario.BOB_BELL_CHEAT, [1, 2.5], trials=10)


class TestSweep:
    def test_bell_sweep_monotone(self):
        rows = experiments.sweep_curve(AttackScenario.BOB_BELL_CHEAT,
                                       range(1, 21), trials=200, seed=0)
        assert len(rows) == 20
        closed = [r.closed_form for r in rows]
        assert closed == sorted(closed)
        assert closed[-1] > 0.999999

    def test_intercept_sweep_monotone(self):
        rows = experiments.sweep_curve(AttackScenario.INTERCEPT_RESEND,
                                       [1, 5, 10, 20, 50], trials=100, seed=0)
        closed = [r.closed_form for r in rows]
        assert closed == sorted(closed)

    def test_single_point(self):
        rows = experiments.sweep_curve(AttackScenario.BOB_BELL_CHEAT, [3], trials=50)
        assert len(rows) == 1 and rows[0].parameter == 3

    def test_empty_range_rejected(self):
        with pytest.raises(ProtocolError):
            experiments.sweep_curve(AttackScenario.BOB_BELL_CHEAT, [], trials=50)

    def test_points_draw_independent_streams(self):
        # on one shared stream, M=2 would detect every trial that M=1 detects
        def m2_detects_fewer(seed):
            m1, m2 = experiments.sweep_curve(AttackScenario.INTERCEPT_RESEND, [1, 2],
                                             trials=10, seed=seed)
            return m2.empirical < m1.empirical

        assert any(m2_detects_fewer(seed) for seed in range(60))


def block_intercept_round(rng, n):
    """Eve's intercept-and-resend on amplitude blocks, each value drawn by a
    ``Generator`` call of its own: the ids, Eve's bases, her uniforms, then
    the check's. Eve measures and resends through the ``collapsed`` policy
    of the one measure-and-resend."""
    ids, basis = rng.integers(len(DECOY_AMPS), size=n), rng.integers(2, size=n)
    eve_u, u = rng.random(n), rng.random(n)
    resent = adversary.alice_measure_resend(DECOY_AMPS.take(ids, axis=0), basis, eve_u, None, "collapsed")[1]
    return resent, ids, u


def block_bell_round(rng, n):
    """The Bell round as it was when it returned Bob's Bell slots, verbatim
    but for the name and ``adversary.bell_slots``, inlined."""
    block, declared = np.broadcast_to(adversary.BELL_SLOT, (n, 4)), rng.integers(2, size=n)
    return block, 2 * declared, rng.random(n)


def block_entangling_round(params, rng, n):
    """The entangling round as it was when it ran Eve's isometry on every
    round's block, verbatim but for the name."""
    ids = rng.integers(len(DECOY_AMPS), size=n)
    return adversary.eve_entangling_attack(DECOY_AMPS.take(ids, axis=0), params), ids, rng.random(n)


#: a Monte Carlo program under test: its step names in draw order and its
#: bounds by name, literals that pin its layout; the block kernel
#: ``kernel(bits, n)`` that TestBlocks runs; and, for a detection program only,
#: the decoy id its check reads as a function of its named draws, and the
#: amplitude-block round it replaces
Case = namedtuple("Case", "program names bounds kernel checked_id block_round", defaults=(None, None))


def detection_case(program, names, bounds, rounds, checked_id, block_round):
    """A detection program's row, its kernel ``rounds`` sequential checks."""
    return Case(program, names, bounds, partial(experiments._first_flip_block, program, rounds),
                checked_id, block_round)


def alice_case(policy):
    """Alice's row under ``policy``, her kernel one round of her events."""
    program = experiments._ALICE[policy]
    resend = {"r": adversary.RESEND_DRAWS[policy]} if policy in adversary.RESEND_DRAWS else {}
    return Case(program, ["j", "a", "bit", *resend, "m0", "m1", "check", "coin"],
                {"j": 2, "a": 2, **resend, "m0": 2, "m1": 2, "coin": 2},
                partial(experiments._event_block, program))


#: one row per program: every per-program test reads it
CASES = {
    "intercept": detection_case(experiments._INTERCEPT, ["d", "b", "bit", "check"], {"d": 4, "b": 2}, 3,
                                lambda d, **_: d, block_intercept_round),
    "bell": detection_case(experiments._BELL, ["c", "check"], {"c": 2}, 2, lambda c, **_: 2 * c, block_bell_round),
    "entangling": detection_case(experiments._entangling_program(UE_PARAMS), ["d", "check"], {"d": 4}, 1,
                                 lambda d, **_: d, partial(block_entangling_round, UE_PARAMS)),
    "entangling-undetected": detection_case(experiments._entangling_program(NO_DETECTION), ["d", "check"],
                                            {"d": 4}, 1, lambda d, **_: d,
                                            partial(block_entangling_round, NO_DETECTION)),
    **{f"alice-{policy}": alice_case(policy) for policy in adversary.RESEND_POLICIES},
}
#: the rows of the detection programs
DETECTION_CASES = [name for name, case in CASES.items() if case.checked_id]


def checked_ids(case):
    """The decoy id a detection row's check reads at each first key: its
    ``checked_id`` over its bound steps."""
    return experiments._table(case.bounds, case.checked_id)


def block_bits(key):
    """The PCG64 of block stream ``key``, as ``_tally`` makes it."""
    return np.random.default_rng(key).bit_generator


def assert_counts_each_trial(name, counts, trials):
    """A block's counts are consistent: for Alice's conclusive, wrong,
    bit-error and dummy-error counts, a wrong guess is conclusive and a dummy
    error is a bit error; for [unflipped, flipped], every trial is counted once."""
    if name.startswith("alice-"):
        assert trials >= counts[0] >= counts[1] and trials >= counts[2] >= counts[3]
    else:
        assert sum(counts) == trials


class TestBlocks:
    @pytest.mark.parametrize("name", CASES)
    def test_tallies_add_over_blocks(self, monkeypatch, name):
        # blocks of 50 trials: one, then three, the last partial
        monkeypatch.setattr(experiments, "BLOCK_TRIALS", 50)
        kernel = CASES[name].kernel
        alone = [kernel(block_bits([5, 0, b]), n) for b, n in enumerate((50, 50, 7))]
        assert experiments._tally(kernel, 50, seed=5) == alone[0]
        assert experiments._tally(kernel, 107, seed=5) == [sum(col) for col in zip(*alone)]
        for counts, n in zip(alone, (50, 50, 7)):
            assert_counts_each_trial(name, counts, n)

    @pytest.mark.parametrize("name", CASES)
    def test_a_tally_sums_its_blocks_run_alone(self, name):
        # one full block and a block of 100
        kernel = CASES[name].kernel
        block = experiments.BLOCK_TRIALS
        alone = [kernel(block_bits([5, 0, 0]), block), kernel(block_bits([5, 0, 1]), 100)]
        assert experiments._tally(kernel, block + 100, seed=5) == [sum(col) for col in zip(*alone)]
        assert_counts_each_trial(name, alone[0], block)

    @pytest.mark.parametrize("name", CASES)
    def test_one_stream_per_block(self, monkeypatch, name):
        keys = []
        real = np.random.default_rng

        def counted(key):
            keys.append(key)
            return real(key)

        monkeypatch.setattr(experiments.np.random, "default_rng", counted)
        experiments._tally(CASES[name].kernel, 2 * experiments.BLOCK_TRIALS + 1, seed=5, point=3)
        assert keys == [[5, 3, b] for b in range(3)]

    def test_one_past_a_block_runs(self):
        trials = experiments.BLOCK_TRIALS + 1
        rows = [experiments.estimate_detection_rate(ExperimentSpec(scenario, 2, trials, seed=1))
                for scenario in experiments.DETECTION]
        rows.append(experiments.entangling_detection_estimate(UE_PARAMS, trials, seed=1))
        for policy in adversary.RESEND_POLICIES:
            rows += experiments.alice_attack_report(trials, seed=1, policy=policy).rows()
        for row in rows:
            assert row.trials == trials
            assert 0.0 <= row.empirical <= 1.0
            assert row.empirical * trials == pytest.approx(round(row.empirical * trials))


class NoDraws(np.random.Generator):
    """A block stream whose own draw methods must never be called: only its
    bit generator's raw words may be read."""

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called on a block stream")

    def random(self, *args, **kwargs):
        raise AssertionError("Generator.random called on a block stream")

    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice called on a block stream")


class TestRawWordsOnly:
    """The Monte Carlo estimates follow ``SeedSequence`` and PCG64's raw
    words, which NumPy's RNG policy (NEP 19) keeps fixed, and no ``Generator``
    method."""

    def test_every_estimate_reads_raw_words_alone(self, monkeypatch):
        # three blocks, the last of odd size
        trials = 2 * experiments.BLOCK_TRIALS + 7

        def estimates():
            rows = [experiments.estimate_detection_rate(ExperimentSpec(scenario, 3, trials, seed=1))
                    for scenario in experiments.DETECTION]
            rows.append(experiments.entangling_detection_estimate(UE_PARAMS, trials, seed=1))
            return rows, [experiments.alice_attack_report(trials, seed=1, policy=policy)
                          for policy in adversary.RESEND_POLICIES]

        want = estimates()
        monkeypatch.setattr(experiments.np.random, "default_rng", lambda key: NoDraws(np.random.PCG64(key)))
        for method in ("integers", "random", "choice"):
            with pytest.raises(AssertionError, match=f"Generator.{method} called"):
                getattr(experiments.np.random.default_rng([1, 0, 0]), method)(2)
        assert estimates() == want


class WordDraws:
    """A pure-Python reference on ``PCG64.random_raw`` alone, with the
    ``integers`` and ``random`` calls the reference rounds make: each value,
    in call order, is one raw word; an integer below 2^k is the word's top k
    bits, and a uniform is its top 53 bits times 2^-53."""

    def __init__(self, bits):
        self.bits = bits

    def _words(self, size) -> list[int]:
        return [int(w) for w in self.bits.random_raw(int(np.prod(size)))]

    def integers(self, high, size):
        k = high.bit_length() - 1
        assert high == 1 << k
        return np.array([w >> (64 - k) for w in self._words(size)], np.int64).reshape(size)

    def random(self, size):
        return np.array([(w >> 11) * 2.0 ** -53 for w in self._words(size)]).reshape(size)


def wave_rounds(live, done, rounds):
    """The rounds a wave of ``live`` trials reads after ``done`` of
    ``rounds``: WAVE // live, at least one and at most those left."""
    return min(max(experiments.WAVE // live, 1), rounds - done)


def block_first_flip(draw, rounds, rng, trials):
    """``experiments._first_flip_block`` as it was when its rounds returned
    blocks, but for ``decoy_flips``, now a test reference, its live trials,
    now a count, and its waves: a wave is one block round of ``ahead`` times
    the live trials, round-major (column j is round j // live of trial
    j % live), and a trial that flips in any of its rounds is dropped."""
    active, done = trials, 0
    while active and done < rounds:
        ahead = wave_rounds(active, done, rounds)
        block, ids, u = draw(rng, ahead * active)
        flipped = decoy_flips(block, ids, u).reshape(ahead, active)
        active -= int(np.count_nonzero(flipped.any(axis=0)))
        done += ahead
    return [active, trials - active]


def block_alice_events(policy, rng, trials):
    """Alice's round as it was when it measured and encoded amplitude blocks,
    verbatim but for the name, ``alice_measure_resend`` as it drew its own
    values and ``decoy_flips``, both now test references."""
    j = rng.integers(2, size=trials)
    guesses, resent = drawing_alice_measure_resend(DECOY_AMPS.take(2 * j, axis=0), rng, policy)
    m0, m1 = rng.integers(2, size=(2, trials))
    encoded = qsim.apply_batch(resent, qsim.PAULIS.take(2 * m0 + m1, axis=0))
    check_u, dummy_u = rng.random(size=(2, trials))
    # Bob decodes bit 1 where his own preparation, decoy id 2j, came back flipped
    bit_error = decoy_flips(encoded, 2 * j, check_u) != np.choose(j, (m0, m1))
    dummy_error = bit_error & (dummy_u < 0.5)
    conclusive = guesses >= 0
    return [int(np.count_nonzero(event)) for event in
            (conclusive, conclusive & (guesses != j), bit_error, dummy_error)]


def assert_same(a, b):
    """Equal arrays of one dtype and shape; a NaN equals nothing."""
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_round_matches_block(program, ids, key, ref):
    """A detection round's last keys against a block round's ``(block, ids,
    u)``: the check's p1 (its stage at the key before its bit) is the block's
    Born probability, bit for bit, and the checked ``ids`` (by first key),
    the check's bit and the program's flip are the block's."""
    block, ref_ids, ref_u = ref
    tables = [step for step in program.steps.values() if not isinstance(step, int)]
    p1 = qsim.probability_of_one(block, ref_ids >= 2)
    assert_same(program.steps["check"].take(key >> 1), p1)
    assert_same(ids.take(key >> len(tables)), ref_ids)
    assert_same(key % 2 == 1, ref_u < p1)
    assert_same(program.events[0].take(key), decoy_flips(block, ref_ids, ref_u))


class RawLog:
    """A bit generator stand-in that records the size of each ``random_raw``
    call; it has no other method, so a kernel can only read forward."""

    def __init__(self, bits):
        self.bits, self.sizes = bits, []

    def random_raw(self, size):
        self.sizes.append(size)
        return self.bits.random_raw(size)


def logged(draw, log):
    """``draw``, appending each round's return to ``log``."""

    def step(*args):
        out = draw(*args)
        log.append(out)
        return out

    return step


def assert_kernels_agree(case, trials, rounds, seed):
    """``experiments._first_flip_block`` over a detection row's program, and
    the block kernel over its block round on :class:`WordDraws`, each on its
    own twin of stream ``seed``: each wave matches its block round
    (:func:`assert_round_matches_block`, the row's checked ids), the counts
    and the number of waves are equal, and the two streams end in the same
    state."""
    got_bits, ref_bits = np.random.PCG64(seed), np.random.PCG64(seed)
    got_log, ref_log = [], []
    with mock.patch.object(experiments, "_round", logged(experiments._round, got_log)):
        got = experiments._first_flip_block(case.program, rounds, got_bits, trials)
    ref = block_first_flip(logged(case.block_round, ref_log), rounds, WordDraws(ref_bits), trials)
    assert got == ref
    assert len(got_log) == len(ref_log) >= 1
    for key, ref_out in zip(got_log, ref_log):
        assert_round_matches_block(case.program, checked_ids(case), key, ref_out)
    assert got_bits.state == ref_bits.state


def logged_reads(program, rounds, trials, seed):
    """A block of ``program`` on stream ``seed`` through :class:`RawLog`:
    :func:`experiments._first_flip_block` of ``rounds`` rounds, or
    :func:`experiments._event_block` where ``rounds`` is None. Its counts,
    the log, and each ``_round`` call's words shape and last keys."""
    bits, calls, real = RawLog(np.random.PCG64(seed)), [], experiments._round

    def logged_round(program, words):
        shape = words.shape
        key = real(program, words)
        calls.append((shape, key))
        return key

    with mock.patch.object(experiments, "_round", logged_round):
        counts = (experiments._event_block(program, bits, trials) if rounds is None
                  else experiments._first_flip_block(program, rounds, bits, trials))
    return counts, bits, calls


def walk_waves(program, rounds, trials, calls):
    """The counts of a first-flip block's ``_round`` calls, each asserted to
    be a wave of :func:`wave_rounds` rounds of every live trial, no more than
    ``max(WAVE, live)`` columns."""
    live, done = trials, 0
    for (_, n), key in calls:
        ahead = wave_rounds(live, done, rounds)
        assert live and n == ahead * live <= max(experiments.WAVE, live)
        live -= int(np.count_nonzero(program.events[0].take(key).reshape(ahead, live).any(axis=0)))
        done += ahead
    assert live == 0 or done == rounds
    return [live, trials - live]


#: a block kernel's run: trials and rounds, either many trials and a few
#: rounds, a few trials and many rounds, which read many rounds a wave, or
#: up to three waves of trials and up to 60 rounds
BLOCK_RUNS = st.one_of(st.tuples(st.integers(1, 160), st.integers(1, 8)),
                       st.tuples(st.integers(1, 3), st.integers(1, 60)),
                       st.tuples(st.integers(1, 3 * experiments.WAVE), st.integers(1, 60)))

class TestTableRounds:
    """Each program round reads the Born probabilities the block round
    computed, from its tables, and reads as many words as the block round."""

    @pytest.mark.parametrize("name", DETECTION_CASES)
    @given(BLOCK_RUNS, st.integers(0, 2 ** 32 - 1))
    @example((1, 10 ** 4), 0).via("a lone trial's waves up to M = 10^4")
    @example((experiments.WAVE // 2, 60), 0).via("the last live count read two rounds a wave")
    @example((experiments.WAVE // 2 + 1, 60), 0).via("the first live count read one round a wave")
    @example((experiments.WAVE + 1, 60), 0).via("one live trial past a wave")
    @settings(max_examples=100, deadline=None)
    def test_matches_the_block_round(self, name, run, seed):
        assert_kernels_agree(CASES[name], *run, seed)

    @pytest.mark.parametrize("name", CASES)
    @given(BLOCK_RUNS, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_a_round_makes_one_read(self, name, run, seed):
        # each _round call is one random_raw call, a word per step and
        # column, and gives one last key per column: a wave of ahead rounds
        # of n live trials is ahead * n columns
        program, (trials, rounds) = CASES[name].program, run
        alice = name.startswith("alice-")
        counts, bits, calls = logged_reads(program, None if alice else rounds, trials, seed)
        assert bits.sizes == [len(program.steps) * n for (_, n), _ in calls]
        for (steps, n), key in calls:
            assert steps == len(program.steps)
            assert key.dtype == np.uint64 and key.shape == (n,)
            assert 0 <= key.min() and key.max() < program.events.shape[1]
        if alice:
            assert [n for (_, n), _ in calls] == [trials]
        else:
            assert counts == walk_waves(program, rounds, trials, calls)

    @pytest.mark.parametrize("name", DETECTION_CASES)
    @given(st.one_of(st.integers(1, 3), st.integers(1, 3 * experiments.WAVE)),
           st.one_of(st.integers(1, 60), st.just(10 ** 4)), st.integers(0, 2 ** 32 - 1))
    @example(1000, 10 ** 4, 0).via("the intercept estimate at M = 10^4")
    @settings(max_examples=50, deadline=None)
    def test_a_wave_reads_its_rounds_forward(self, name, trials, rounds, seed):
        # each random_raw call is steps * ahead * live words (walk_waves
        # asserts ahead and live), and RawLog cannot step the stream back, so
        # it ends as many words on as were read
        program = CASES[name].program
        counts, bits, calls = logged_reads(program, rounds, trials, seed)
        assert counts == walk_waves(program, rounds, trials, calls)
        assert bits.sizes == [len(program.steps) * n for (_, n), _ in calls]
        ref_bits = np.random.PCG64(seed)
        ref_bits.advance(sum(bits.sizes))
        assert bits.bits.state == ref_bits.state

    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    @given(st.integers(1, 160), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_alice_matches_the_block_round(self, policy, trials, seed):
        got_bits, ref_bits = np.random.PCG64(seed), np.random.PCG64(seed)
        assert (experiments._event_block(experiments._ALICE[policy], got_bits, trials)
                == block_alice_events(policy, WordDraws(ref_bits), trials))
        assert got_bits.state == ref_bits.state


class Scripted:
    """A stream stand-in that returns the given draws, in order, whatever the
    call asks for: one per ``integers``, ``random`` or ``random_raw`` call,
    the last a read's words, one row per value."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def integers(self, high, size):
        return self._draws.pop(0)

    def random(self, size):
        return self._draws.pop(0)

    def random_raw(self, size):
        words = self._draws.pop(0)
        assert words.dtype == np.uint64 and words.size == size
        return words.ravel()


#: the top 53 bits of the largest word: its uniform is the largest below 1
TOP = 2 ** 53 - 1
#: the largest uniform below 1
TOP_UNIFORM = TOP * 2.0 ** -53


def int_words(values, bound, low):
    """Words whose top k bits are ``values`` (below ``bound`` = 2^k) and
    whose other bits are those of ``low``."""
    shift = 65 - bound.bit_length()
    return (np.array(values, np.uint64) << np.uint64(shift)) | np.uint64(low % (1 << shift))


def uniform_words(tops, low):
    """Words whose top 53 bits are ``tops`` and whose other 11 bits are those
    of ``low``; each word's uniform is its top times 2^-53."""
    return (np.array(tops, np.uint64) << np.uint64(11)) | np.uint64(low % (1 << 11))


def uniforms(tops):
    """The uniforms of words with these top 53 bits."""
    return np.array(tops, float) * 2.0 ** -53


def tops_near(p1):
    """The top 53 bits of a word: 0, the largest, either side of where its
    uniform reaches ``p1``, or any."""
    edge = math.ceil(p1 * 2 ** 53)
    return st.one_of(st.sampled_from([0, TOP, *(t for t in (edge - 1, edge) if 0 <= t <= TOP)]),
                     st.integers(0, TOP))


def any_tops(data, n):
    """``n`` words' top 53 bits, drawn from ``data``."""
    return data.draw(st.lists(st.integers(0, TOP), min_size=n, max_size=n))


#: a word's bits that no value reads, where the scripted rounds set junk
LOW_BITS = st.integers(0, 2 ** 64 - 1)


@st.composite
def intercept_rows(draw):
    """An intercept row (id, Eve's basis, Eve's word top), her word's uniform
    near her Born probability of reading 1 or anywhere."""
    did, basis = draw(st.integers(0, len(DECOY_AMPS) - 1)), draw(st.integers(0, 1))
    return did, basis, draw(tops_near(MEASURE_P1[2 * did + basis]))


@st.composite
def alice_rows(draw, policy):
    """An Alice row (j, a, her word top, her resend draw, m0, m1, the check's
    and the dummy coin's word tops): her uniform near her Born probability of
    reading 1 or anywhere, the check's near 1/2, where each check reads 1
    that does not read a certain bit, and the coin's near 1/2, where its top
    bit turns."""
    j, a = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    alice_top = draw(tops_near(MEASURE_P1[4 * j + a]))
    resend = draw(st.integers(0, adversary.RESEND_DRAWS.get(policy, 1) - 1))
    m0, m1 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return j, a, alice_top, resend, m0, m1, draw(tops_near(0.5)), draw(tops_near(0.5))


def exact_events(program):
    """The probability of each event of one round of ``program``, summed over
    its keys with no sampling: each value of an integer row of bound b weighs
    1 / b, and each stage's bit p or 1 - p of its table entry (a branch of
    weight 0, which no uniform reaches, is skipped)."""
    branches = [(0, 1.0)]
    for step in program.steps.values():
        if isinstance(step, int):
            branches = [(step * key + row, weight / step) for key, weight in branches for row in range(step)]
        else:
            branches = [(2 * key + bit, weight * p) for key, weight in branches
                        for bit, p in ((0, 1.0 - step[key]), (1, step[key])) if p > 0]
    return sum(weight * program.events[:, key] for key, weight in branches)


#: every stage of every program, by ``<program>.<step>``, with its thresholds
#: (``draws`` is laid out in the order of ``steps``)
STAGES = {f"{name}.{step}": (stage, draw) for name, case in CASES.items()
          for (step, stage), draw in zip(case.program.steps.items(), case.program.draws)
          if not isinstance(stage, int)}

#: every program's tables, its events and its stages' thresholds, by
#: ``<program>.<step>``, ``<program>.events`` and ``<program>.<step>.threshold``
TABLES = {**{name: stage for name, (stage, _) in STAGES.items()},
          **{f"{name}.events": case.program.events for name, case in CASES.items()},
          **{f"{name}.threshold": thresholds for name, (_, thresholds) in STAGES.items()}}


def reads_one(top, p):
    """The bit a word of top 53 bits ``top`` reads against Born probability
    ``p``: its uniform is below p (never, where p is NaN)."""
    return top * 2.0 ** -53 < p


class TestThresholds:
    """A stage compares a word's top 53 bits with its uint64 threshold, which
    reads what comparing the word's uniform with the stage's p reads."""

    @pytest.mark.parametrize("name", STAGES)
    @given(st.data(), LOW_BITS)
    @settings(max_examples=100, deadline=None)
    def test_integer_compare_is_the_uniform_compare(self, name, data, low):
        stage, thresholds = STAGES[name]
        i = data.draw(st.integers(0, len(stage) - 1))
        p = float(stage[i])
        top = data.draw(st.integers(0, TOP) if math.isnan(p) else tops_near(p))
        (word,) = uniform_words([top], low)
        assert bool((word >> np.uint64(11)) < thresholds[i]) == reads_one(top, p)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_thresholds_are_the_nan_to_num_formula(self, seed):
        # fmax(p, 0) is p for every p >= 0 and 0 for NaN, as nan_to_num is
        programs = [*(case.program for case in CASES.values()),
                    experiments._entangling_program(adversary.sample_ue_params(np.random.default_rng(seed)))]
        for program in programs:
            for step, draw in zip(program.steps.values(), program.draws):
                if not isinstance(step, int):
                    assert_same(draw, parent_thresholds(step))

    def test_every_entry_at_its_edge_words(self):
        for name, (stage, thresholds) in STAGES.items():
            assert thresholds.dtype == np.uint64 and thresholds.shape == stage.shape, name
            for i, p in enumerate(stage.tolist()):
                edges = [] if math.isnan(p) else [math.ceil(p * 2 ** 53) + d for d in (-1, 0, 1)]
                for top in {0, TOP, *(t for t in edges if 0 <= t <= TOP)}:
                    assert (top < int(thresholds[i])) == reads_one(top, p), (name, i, top)


def parent_thresholds(stage):
    """:func:`experiments._thresholds` as 0.3.0 wrote it, with ``nan_to_num``."""
    return np.ceil(np.ldexp(np.nan_to_num(stage, nan=0.0), 53)).astype(np.uint64)


def named(steps):
    """``steps`` by the names v0, v1, ..., as :func:`experiments._program`
    and :func:`experiments._table` take them."""
    return {f"v{i}": step for i, step in enumerate(steps)}


def key_of(steps, drawn):
    """The key at which :func:`experiments._table` lays out one trial's draws
    ``drawn`` of ``steps``, each by its step's name."""
    (key,) = np.flatnonzero(experiments._table(steps, lambda **values: np.all(
        [values[name] == v for name, v in drawn.items()], axis=0)))
    return key


class TestProgramBounds:
    @pytest.mark.parametrize("bounds, bad", [
        ((0,), 0), ((1,), 1), ((3,), 3), ((6,), 6), ((2 ** 32 + 2,), 2 ** 32 + 2), ((2 ** 33,), 2 ** 33),
        ((4, 3), 3), ((2, 4, 2 ** 33), 2 ** 33), ((np.int64(3),), 3), ((np.uint8(1),), 1)])
    def test_a_bound_not_a_power_of_two_raises_when_built(self, bounds, bad):
        with pytest.raises(ValueError, match=f"power of two.*got {bad}$"):
            experiments._program(named(bounds), lambda **_: False)

    @pytest.mark.parametrize("bounds", [(4.0,), ("4",), ([4],), (np.array([4, 2]),)])
    def test_a_bound_not_an_integer_raises_when_built(self, bounds):
        with pytest.raises(TypeError):
            experiments._program(named(bounds), lambda **_: False)

    @pytest.mark.parametrize("bounds", [(2,), (2 ** 32,), (4, 2), (np.int64(4), np.uint32(2)),
                                        (np.uint64(2 ** 32),), tuple(np.array([8, 2]))])
    @given(st.data(), LOW_BITS)
    @settings(max_examples=20, deadline=None)
    def test_a_round_reads_each_bound_from_top_bits(self, bounds, data, low):
        highs = [int(b) for b in bounds]
        values = [data.draw(st.integers(0, high - 1)) for high in highs]
        # a bound 2^k reads a word's top k bits: its shift is 64 - k. A program
        # tabulates its events at every key, so a bound of 2^32 is read by a
        # round built here, and the smaller ones by _program's too
        shifts = np.array([[64 - int(math.log2(high))] for high in highs], np.uint64)
        program = experiments.Program(named(highs), None, shifts, tuple(highs))
        if math.prod(highs) <= 2 ** 8:
            built = experiments._program(named(bounds), lambda **_: False)
            assert (built.steps, built.draws) == (program.steps, program.draws)
            assert_same(built.shifts, shifts)
            assert all(type(step) is int for step in built.steps.values())
        words = np.array([int_words([v], high, low) for v, high in zip(values, highs)])
        want = 0
        for high, v in zip(highs, values):
            want = high * want + v
        # the round shifts its words in place and keys them in their first row
        shifted = words >> shifts
        key = experiments._round(program, words)
        assert key.tolist() == [want]
        assert np.shares_memory(key, words) and (words[1:] == shifted[1:]).all()

    @pytest.mark.parametrize("name", CASES)
    @given(st.data(), LOW_BITS)
    @settings(max_examples=50, deadline=None)
    def test_a_round_keys_its_draws_where_table_lays_them_out(self, name, data, low):
        # scripted words for each trial's draws: a bound's row, or a word
        # near the Born probability its table reads, found where _table lays
        # out the draws before it; the round's key is where _table lays out
        # all of them
        program = CASES[name].program
        trials = [{} for _ in range(data.draw(st.integers(1, 6)))]
        words, before = [], {}
        for step_name, step in program.steps.items():
            if isinstance(step, int):
                values = data.draw(st.lists(st.integers(0, step - 1), min_size=len(trials), max_size=len(trials)))
                words.append(int_words(values, step, low))
            else:
                p1 = [float(step[key_of(before, drawn)]) for drawn in trials]
                tops = [data.draw(tops_near(p)) for p in p1]
                values = [int(reads_one(top, p)) for top, p in zip(tops, p1)]
                words.append(uniform_words(tops, low))
            before[step_name] = step
            for drawn, value in zip(trials, values):
                drawn[step_name] = value
        key = experiments._round(program, np.array(words))
        assert key.tolist() == [key_of(program.steps, drawn) for drawn in trials]


class TestProgramLayout:
    @pytest.mark.parametrize("name", CASES)
    def test_steps_keep_their_names_in_draw_order(self, name):
        program, names, bounds, _, checked_id, _ = CASES[name]
        assert list(program.steps) == names
        assert {step: b for step, b in program.steps.items() if isinstance(b, int)} == bounds
        assert all(type(program.steps[step]) is int for step in bounds)
        # a detection program ends in its check, and its one event is the flip
        if checked_id:
            assert names[-1] == "check"
            flip = experiments._table(program.steps, lambda check, **drawn: protocol.decoy_flipped(
                checked_id(**drawn), check))
            assert program.events.shape == (1, flip.size) and np.array_equal(program.events[0], flip)
        for step in names:
            with pytest.raises(TypeError):
                program.steps[step] = 2

    def test_every_program_built_at_import_has_a_row(self):
        # a program that experiments builds at import without a CASES row fails here
        built = {**{name: value for name, value in vars(experiments).items()
                    if isinstance(value, experiments.Program)},
                 **{scenario.value: entry[2] for scenario, entry in experiments.DETECTION.items()},
                 **{f"_ALICE[{policy!r}]": program for policy, program in experiments._ALICE.items()}}
        rows = {id(case.program) for case in CASES.values()}
        assert built and [name for name, program in built.items() if id(program) not in rows] == []


class TestBornTables:
    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    def test_resend_tables_rebuild_one_register_at_a_time(self, policy):
        draws = adversary.RESEND_DRAWS.get(policy, 1)
        measure_p1, intercept_p1, guess, check_p1 = [], [], [], []
        for did, basis in itertools.product(range(len(DECOY_AMPS)), range(2)):
            state, x_basis = DECOY_AMPS[did:did + 1], np.array([basis])
            p1 = qsim.probability_of_one(state, x_basis)
            measure_p1.append(p1[0])
            # the uniforms in [0, 1) likeliest to read 0 and 1
            for bit, u in ((0, TOP_UNIFORM), (1, 0.0)):
                if (u < p1[0]) != bit:  # no uniform reads this bit
                    intercept_p1.append(np.nan)
                    guess += [np.nan] * draws
                    check_p1 += [np.nan] * 4 * draws
                    continue
                eve = adversary.alice_measure_resend(state, x_basis, np.array([u]), None, "collapsed")[1]
                intercept_p1.append(qsim.probability_of_one(eve, np.array([did >= 2]))[0])
                for resend in range(draws):
                    guesses, resent = adversary.alice_measure_resend(state, x_basis, np.array([u]),
                                                                     np.array([resend]), policy)
                    guess.append(guesses[0])
                    for code in range(4):
                        encoded = qsim.apply_batch(resent, qsim.PAULIS[code])
                        check_p1.append(qsim.probability_of_one(encoded, np.array([did >= 2]))[0])
        # the intercept program's measurement, and its check on the eigenstate
        # Eve resends (the collapsed policy); CASES pins every step's name
        measure, check = experiments._INTERCEPT.steps["bit"], experiments._INTERCEPT.steps["check"]
        assert_same(measure, np.array(measure_p1))
        assert np.array_equal(check, np.array(intercept_p1), equal_nan=True)
        # Alice's measurement of Bob's id 2j, and her check on what she resent
        # encoded with code 2 * m0 + m1
        program = experiments._ALICE[policy]
        assert_same(program.steps["bit"], measure[[0, 1, 4, 5]])
        # the rows of Bob's ids 0 and 2, each key a (basis, bit, resend, code)
        rows = np.array(check_p1).reshape(4, -1)[[0, 2]].ravel()
        alice_check = program.steps["check"]
        assert np.array_equal(alice_check, rows, equal_nan=True)
        # Alice's guess at each key, for each m0, m1, check bit and coin: her
        # first two events are a conclusive guess and a wrong one
        guesses = np.array(guess).reshape(4, -1)[[0, 2]].ravel().repeat(16)
        j = np.arange(len(guesses)) // (len(guesses) // 2)
        assert_same(program.events[0], guesses >= 0)
        assert_same(program.events[1], (guesses >= 0) & (guesses != j))
        # the NaN entries are the outcomes of probability 0: each decoy
        # measured in its own basis reads its own bit, so id 0 reads no 1 in
        # Z, id 1 no 0 in Z, id 2 no 1 in X and id 3 no 0 in X
        assert np.flatnonzero(np.isnan(check)).tolist() == [1, 4, 11, 14]
        assert np.flatnonzero(np.isnan(guess)).tolist() == [
            (2 * (2 * did + basis) + bit) * draws + r
            for did, basis, bit in ((0, 0, 1), (1, 0, 0), (2, 1, 1), (3, 1, 0)) for r in range(draws)]
        # in Alice's check, id 0 (j = 0) reads no 1 in Z and id 2 (j = 1) no 1 in X
        assert np.flatnonzero(np.isnan(alice_check)).tolist() == [
            ((2 * (2 * j + a) + 1) * draws + r) * 4 + code
            for j, a in ((0, 0), (1, 1)) for r in range(draws) for code in range(4)]

    def test_measure_table_is_exact(self):
        # decoy id d in basis b at 2 * d + b: |0>, |1>, |+>, |-> in Z, then X
        assert MEASURE_P1.tolist() == [0.0, 0.5, 1.0, 0.5, 0.5, 0.0, 0.5, 1.0]
        # so every honest check, a decoy in its own basis, reads its own bit
        # for every uniform in [0, 1)
        own = MEASURE_P1[[0, 2, 5, 7]]
        assert own.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert ((0.0 < own) == (TOP_UNIFORM < own)).all()

    def test_bell_table_rebuilds(self):
        want = [qsim.probability_of_one(adversary.BELL_SLOT[None], np.array([c == 1]))[0] for c in (0, 1)]
        assert_same(experiments._BELL.steps["check"], np.array(want))

    @pytest.mark.parametrize("params", [NO_DETECTION, UE_PARAMS,
                                        *(adversary.sample_ue_params(np.random.default_rng(s))
                                          for s in range(5))])
    def test_entangling_table_rebuilds_one_register_at_a_time(self, params):
        want = [qsim.probability_of_one(adversary.eve_entangling_attack(DECOY_AMPS[i:i + 1], params),
                                        np.array([i >= 2]))[0] for i in range(len(DECOY_AMPS))]
        assert_same(experiments._entangling_program(params).steps["check"], np.array(want))

    # the honest control reads each decoy in its own basis with no attack
    @pytest.mark.parametrize("program, q", [
        (experiments._INTERCEPT, 0.25), (experiments._BELL, 0.5),
        (experiments._program({"d": 4, "check": lambda d: experiments._measure(d, d >= 2)}, experiments._flip),
         0.0)],
        ids=["intercept", "bell", "honest"])
    def test_detection_programs_flip_at_their_closed_form(self, program, q):
        # the measure-and-resend and Bell tables hold exactly 0, 1/2 and 1,
        # so the exact sum is the closed form, bit for bit
        (flip,) = exact_events(program)
        assert flip == q

    @given(st.one_of(st.just(None), st.integers(0, 2 ** 32 - 1)))
    @example(None).via("the no-detection point")
    @example(4).via("UE_PARAMS")
    @settings(max_examples=100, deadline=None)
    def test_entangling_programs_flip_at_the_analytic_rate(self, params_seed):
        params = (NO_DETECTION if params_seed is None
                  else adversary.sample_ue_params(np.random.default_rng(params_seed)))
        assert (exact_events(experiments._entangling_program(params))[0]
                == pytest.approx(adversary.ue_detection_probability(params), abs=1e-12))

    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    def test_alice_tables_give_the_closed_forms(self, policy):
        conclusive, wrong, bit_error, dummy_error = exact_events(experiments._ALICE[policy])
        closed = experiments.ALICE_CLOSED_FORMS[policy]
        assert [conclusive, wrong, bit_error, dummy_error] == [
            closed["conclusive"], 0.0, closed["bit_error"], closed["dummy_error"]]

    @pytest.mark.parametrize("name", TABLES)
    def test_tables_are_read_only(self, name):
        table = TABLES[name]
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5

    @given(st.lists(intercept_rows(), min_size=1, max_size=20), st.data(), LOW_BITS)
    @settings(max_examples=300, deadline=None)
    def test_intercept_round_reads_the_block_path(self, rows, data, low):
        ids, basis, eve_top = (np.array(col) for col in zip(*rows))
        top = any_tops(data, len(rows))
        words = np.array([int_words(ids, 4, low), int_words(basis, 2, low),
                          uniform_words(eve_top, low), uniform_words(top, low)])
        key = experiments._round(experiments._INTERCEPT, words)
        assert_round_matches_block(experiments._INTERCEPT, checked_ids(CASES["intercept"]), key,
                                   block_intercept_round(Scripted(ids, basis, uniforms(eve_top), uniforms(top)),
                                                         len(rows)))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20), st.data(), LOW_BITS)
    @settings(max_examples=50, deadline=None)
    def test_bell_round_reads_the_block_path(self, declared, data, low):
        top = any_tops(data, len(declared))
        words = np.array([int_words(declared, 2, low), uniform_words(top, low)])
        key = experiments._round(experiments._BELL, words)
        assert_round_matches_block(experiments._BELL, checked_ids(CASES["bell"]), key,
                                   block_bell_round(Scripted(np.array(declared), uniforms(top)), len(declared)))

    @given(st.one_of(st.just(None), st.integers(0, 2 ** 32 - 1)),
           st.lists(st.integers(0, len(DECOY_AMPS) - 1), min_size=1, max_size=20), st.data(), LOW_BITS)
    @settings(max_examples=100, deadline=None)
    def test_entangling_round_reads_the_block_path(self, params_seed, ids, data, low):
        params = (NO_DETECTION if params_seed is None
                  else adversary.sample_ue_params(np.random.default_rng(params_seed)))
        top = any_tops(data, len(ids))
        program = experiments._entangling_program(params)
        key = experiments._round(program, np.array([int_words(ids, 4, low), uniform_words(top, low)]))
        assert_round_matches_block(program, checked_ids(CASES["entangling"]), key, block_entangling_round(
            params, Scripted(np.array(ids), uniforms(top)), len(ids)))

    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    @given(st.data(), LOW_BITS)
    @settings(max_examples=100, deadline=None)
    def test_alice_round_reads_the_block_path(self, policy, data, low):
        rows = data.draw(st.lists(alice_rows(policy), min_size=1, max_size=20))
        j, a, alice_top, resend, m0, m1, check_top, dummy_top = (np.array(col) for col in zip(*rows))
        draws = adversary.RESEND_DRAWS.get(policy)
        resend = [(resend, draws)] if draws else []
        # all rows together, then each alone, so each row's events match
        for t in [slice(None), *(slice(i, i + 1) for i in range(len(rows)))]:
            words = np.array([int_words(j[t], 2, low), int_words(a[t], 2, low), uniform_words(alice_top[t], low),
                              *(int_words(r[t], bound, low) for r, bound in resend), int_words(m0[t], 2, low),
                              int_words(m1[t], 2, low), uniform_words(check_top[t], low),
                              uniform_words(dummy_top[t], low)])
            got = experiments._event_block(experiments._ALICE[policy], Scripted(words), len(j[t]))
            ref = block_alice_events(policy, Scripted(
                j[t], a[t], uniforms(alice_top[t]), *(r[t] for r, _ in resend), np.array([m0[t], m1[t]]),
                uniforms([check_top[t], dummy_top[t]])), len(j[t]))
            assert got == ref

    def test_a_fresh_import_warns_nothing(self):
        # the measure-and-resend and Bell tables are filled at import
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", "import qotsim.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


class TestObliviousness:
    def test_z_slot_chosen_one(self):
        # X|0> vs Y|0> = |1> vs -|1>: same density matrix
        assert experiments.obliviousness_report(0, 1) <= 1e-12

    def test_x_slot_chosen_zero(self):
        # I|+> vs X|+> = |+> vs |+> exactly
        assert experiments.obliviousness_report(1, 0) <= 1e-12

    def test_all_four_cases(self):
        for choice, bit in itertools.product((0, 1), (0, 1)):
            assert experiments.obliviousness_report(choice, bit) <= 1e-12

    @pytest.mark.parametrize("choice", [0, 1])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_compares_encodings_differing_only_in_the_unchosen_bit(self, monkeypatch, choice, bit):
        codes, original = [], qsim.apply_gate

        def apply_gate(state, code):
            codes.append(code)
            return original(state, code)

        monkeypatch.setattr(qsim, "apply_gate", apply_gate)
        assert experiments.obliviousness_report(choice, bit) <= 1e-12
        first, second = (divmod(code, 2) for code in codes)
        assert first[choice] == second[choice] == bit and first[1 - choice] != second[1 - choice]

    def test_chosen_bit_is_visible(self):
        # positive control: flipping the chosen bit moves the state to an
        # orthogonal one, so the distance that reads 0 above can read 1
        for choice, unchosen in itertools.product((0, 1), (0, 1)):
            carrier = protocol.choice_state(choice)
            densities = []
            for bit in (0, 1):
                pair = (bit, unchosen) if choice == 0 else (unchosen, bit)
                v = qsim.apply_gate(carrier, 2 * pair[0] + pair[1])
                densities.append(np.outer(v, v.conj()))
            assert qsim.trace_distance(*densities) == pytest.approx(1.0)


#: resend policies that are not strings, two of them unhashable
NOT_STRINGS = [["guess"], {"guess": 1}, b"guess"]


class TestAliceAttackReport:
    def test_exact_rates_by_enumeration(self):
        # independent oracle: enumerate each resend policy's strategy exactly
        def born(state, x_basis):
            out = {}
            for bit in (0, 1):
                eig = protocol.DECOY_AMPS[2 * x_basis + bit]
                out[bit] = abs(np.vdot(eig, state)) ** 2
            return out

        def resends(policy, x_basis, bit):
            if policy == "collapsed":
                return [(protocol.DECOY_AMPS[2 * x_basis + bit], 1.0)]
            if policy == "random":
                return [(state, 0.25) for state in protocol.DECOY_AMPS]
            if bit == 1:
                return [(protocol.choice_state(1 - x_basis), 1.0)]
            return [(qsim.ZERO, 0.5), (qsim.PLUS, 0.5)]

        expected = {"guess": (0.25, 0.1875), "collapsed": (0.25, 0.25), "random": (0.25, 0.5)}
        for policy, (conclusive, bit_error) in expected.items():
            err = conc = 0.0
            for j in (0, 1):
                prep = protocol.choice_state(j)
                for x_basis in (0, 1):
                    for bit, p in born(prep, x_basis).items():
                        if p == 0:
                            continue
                        p_event = 0.25 * p
                        if bit == 1:
                            conc += p_event
                        for resent, pr in resends(policy, x_basis, bit):
                            for pair in itertools.product((0, 1), (0, 1)):
                                enc = qsim.apply_gate(resent, 2 * pair[0] + pair[1])
                                pb = born(enc, j)
                                err += p_event * pr * 0.25 * sum(
                                    q for b, q in pb.items() if b != pair[j])
            assert conc == pytest.approx(conclusive), policy
            assert err == pytest.approx(bit_error), policy
            assert experiments.ALICE_CLOSED_FORMS[policy] == pytest.approx(
                {"conclusive": conc, "bit_error": err, "dummy_error": err / 2}), policy

    def test_monte_carlo_matches_oracle(self):
        rep = experiments.alice_attack_report(30_000, seed=2)
        conclusive, bit_error, dummy_error = rep.rows()
        assert abs(rep.conclusive_rate - 0.25) <= 4 * conclusive.stderr
        assert abs(rep.bit_error_rate - 0.1875) <= 5 * bit_error.stderr
        assert abs(rep.dummy_error_rate - 0.09375) <= 5 * dummy_error.stderr
        assert rep.false_conclusive == 0

    @pytest.mark.parametrize("policy, closed", [("collapsed", (0.25, 0.25, 0.125)),
                                                ("random", (0.25, 0.5, 0.25))],
                             ids=["collapsed", "random"])
    def test_monte_carlo_matches_other_policies(self, policy, closed):
        rep = experiments.alice_attack_report(30_000, seed=2, policy=policy)
        rows = rep.rows()
        assert rep.policy == policy and [r.closed_form for r in rows] == list(closed)
        conclusive, bit_error, dummy_error = rows
        assert abs(rep.conclusive_rate - closed[0]) <= 4 * conclusive.stderr
        assert abs(rep.bit_error_rate - closed[1]) <= 5 * bit_error.stderr
        assert abs(rep.dummy_error_rate - closed[2]) <= 5 * dummy_error.stderr
        assert rep.false_conclusive == 0

    def test_rows_carry_rates_and_closed_forms(self):
        rep = experiments.alice_attack_report(400, seed=3, policy="collapsed")
        rows = rep.rows()
        assert [r.parameter for r in rows] == ["conclusive", "bit_error", "dummy_error"]
        assert [r.empirical for r in rows] == [rep.conclusive_rate, rep.bit_error_rate,
                                               rep.dummy_error_rate]
        assert [r.closed_form for r in rows] == [0.25, 0.25, 0.125]
        for r in rows:
            assert r.trials == 400
            assert r.stderr == pytest.approx(np.sqrt(r.empirical * (1 - r.empirical) / 400))
        assert cli.csv_line(astuple(rows[0])).startswith("conclusive,")

    def test_zero_trials_rejected(self):
        with pytest.raises(ProtocolError):
            experiments.alice_attack_report(0)

    @pytest.mark.parametrize("trials, seed", [(10, 0), (0, -1), (2.5, "x")])
    def test_an_unknown_policy_is_rejected_first(self, trials, seed):
        # as alice_measure_resend rejects it, before the trials and seed
        with pytest.raises(ProtocolError, match="^unknown resend policy 'bogus'$"):
            experiments.alice_attack_report(trials, seed, "bogus")

    @pytest.mark.parametrize("policy", ["bogus", "", "Guess", None])
    def test_a_report_of_an_unknown_policy_is_not_built(self, policy):
        # with alice_attack_report's message, not a KeyError from rows()
        with pytest.raises(ProtocolError, match=f"^unknown resend policy {re.escape(repr(policy))}$"):
            experiments.AliceAttackReport(0.25, 0, 0.1, 0.05, 10, policy=policy)

    @pytest.mark.parametrize("policy", NOT_STRINGS)
    def test_a_policy_not_a_string_is_rejected(self, policy):
        # an unhashable policy is not a TypeError from the dict lookup
        with pytest.raises(ProtocolError, match=f"^unknown resend policy {re.escape(repr(policy))}$"):
            experiments.alice_attack_report(10, 0, policy)

    @pytest.mark.parametrize("policy", NOT_STRINGS)
    def test_a_report_of_a_policy_not_a_string_is_not_built(self, policy):
        with pytest.raises(ProtocolError, match=f"^unknown resend policy {re.escape(repr(policy))}$"):
            experiments.AliceAttackReport(0.25, 0, 0.1, 0.05, 10, policy=policy)


class TestEntanglingEstimate:
    def test_constrained_point_never_flips(self):
        row = experiments.entangling_detection_estimate(
            adversary.UeParams.no_detection_point(), trials=500, seed=0)
        assert row.empirical == 0.0 and row.closed_form == 0.0

    def test_calls_the_isometry_once_per_estimate(self, monkeypatch):
        # two blocks
        trials = experiments.BLOCK_TRIALS + 1
        calls = []
        real = adversary.eve_entangling_attack

        def spy(states, params):
            calls.append(states)
            return real(states, params)

        monkeypatch.setattr(adversary, "eve_entangling_attack", spy)
        row = experiments.entangling_detection_estimate(UE_PARAMS, trials, seed=1)
        assert row.trials == trials == 16_385
        assert len(calls) == 1 and np.array_equal(calls[0], DECOY_AMPS)

    def test_rows_name_detection_and_leakage(self):
        params = adversary.sample_ue_params(np.random.default_rng(4))
        detection, leakage = experiments.entangling_rows(params, trials=300, seed=6)
        estimate = experiments.entangling_detection_estimate(params, trials=300, seed=6)
        assert detection == EstimateRow("detection", estimate.empirical, estimate.closed_form,
                                        estimate.stderr, 300)
        leak = adversary.ue_leakage(params)
        assert leakage == EstimateRow("leakage", leak, leak, 0.0, 300)
        assert cli.csv_line(astuple(leakage)) == f"leakage,{leak:.10g},{leak:.10g},0,300"
