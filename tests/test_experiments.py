import itertools
import os
import re
import subprocess
import sys
from dataclasses import astuple
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qotsim import adversary, cli, experiments, protocol, qsim
from qotsim.adversary import AttackScenario
from qotsim.experiments import EstimateRow, ExperimentSpec
from qotsim.protocol import DECOY_AMPS, ProtocolConfig, ProtocolError
from test_adversary import drawing_alice_measure_resend
from test_protocol import decoy_flips

UE_PARAMS = adversary.sample_ue_params(np.random.default_rng(4))
NO_DETECTION = adversary.UeParams.no_detection_point()


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


#: each chunk kernel, bound to its argument
CHUNK_KERNELS = {
    "intercept": partial(experiments._first_flip_chunk, experiments._INTERCEPT, 3),
    "bell": partial(experiments._first_flip_chunk, experiments._BELL, 2),
    "alice": partial(experiments._event_chunk, experiments._ALICE["guess"]),
    "entangling": partial(experiments._first_flip_chunk, experiments._entangling_program(UE_PARAMS), 1),
}


def one_stream(key, trials):
    """A chunk run alone: the kernels' stream stand-in over one stream."""
    return experiments._ChunkStreams([np.random.default_rng(key)], [trials])


class TestChunks:
    @pytest.mark.parametrize("name", sorted(CHUNK_KERNELS))
    def test_tallies_add_over_chunks(self, name):
        kernel = CHUNK_KERNELS[name]
        chunk = experiments.CHUNK_TRIALS
        first = experiments._tally(kernel, chunk, seed=5)
        second = kernel(one_stream([5, 0, 1], chunk), chunk)
        both = experiments._tally(kernel, 2 * chunk, seed=5)
        assert both == [a + b for a, b in zip(first, second)]
        if name == "alice":
            # conclusive, wrong, bit-error and dummy-error counts: a wrong
            # guess is conclusive and a dummy error is a bit error
            assert chunk >= first[0] >= first[1] and chunk >= first[2] >= first[3]
        else:
            # [unflipped, flipped]: every trial is counted once
            assert sum(first) == sum(second) == chunk

    @pytest.mark.parametrize("name", sorted(CHUNK_KERNELS))
    def test_a_group_sums_its_chunks_run_alone(self, name):
        # 65 chunks, the last partial: one full group and a group of one
        kernel = CHUNK_KERNELS[name]
        chunk = experiments.CHUNK_TRIALS
        trials = experiments.GROUP_CHUNKS * chunk + 100
        rows = [min(chunk, trials - c * chunk) for c in range(experiments.GROUP_CHUNKS + 1)]
        alone = [kernel(one_stream([5, 0, c], n), n) for c, n in enumerate(rows)]
        assert experiments._tally(kernel, trials, seed=5) == [sum(col) for col in zip(*alone)]

    @pytest.mark.parametrize("name", sorted(CHUNK_KERNELS))
    def test_one_stream_per_chunk(self, monkeypatch, name):
        keys = []
        real = np.random.default_rng

        def counted(key):
            keys.append(key)
            return real(key)

        monkeypatch.setattr(experiments.np.random, "default_rng", counted)
        chunks = experiments.GROUP_CHUNKS + 1
        experiments._tally(CHUNK_KERNELS[name], chunks * experiments.CHUNK_TRIALS, seed=5, point=3)
        assert keys == [[5, 3, c] for c in range(chunks)]

    def test_one_past_a_chunk_runs(self):
        trials = experiments.CHUNK_TRIALS + 1
        rows = [experiments.estimate_detection_rate(ExperimentSpec(scenario, 2, trials, seed=1))
                for scenario in (AttackScenario.INTERCEPT_RESEND, AttackScenario.BOB_BELL_CHEAT)]
        rows.append(experiments.entangling_detection_estimate(UE_PARAMS, trials, seed=1))
        rows += experiments.alice_attack_report(trials, seed=1).rows()
        for row in rows:
            assert row.trials == trials
            assert 0.0 <= row.empirical <= 1.0
            assert row.empirical * trials == pytest.approx(round(row.empirical * trials))


class NoDraws(np.random.Generator):
    """A chunk stream whose own draw methods must never be called: only its
    bit generator's raw words may be read."""

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called on a chunk stream")

    def random(self, *args, **kwargs):
        raise AssertionError("Generator.random called on a chunk stream")

    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice called on a chunk stream")


class RawWords:
    """A pure-Python reference on ``PCG64.random_raw`` alone: the 32-bit
    values are each raw word's low half, then its high half; a bound 2^k
    keeps a value's top k bits, and a uniform is a whole word's top 53 bits
    times 2^-53."""

    def __init__(self, key):
        self.bits = np.random.PCG64(key)
        self.half = None

    def u32(self) -> int:
        if self.half is not None:
            value, self.half = self.half, None
            return value
        word = int(self.bits.random_raw())
        self.half = word >> 32
        return word & 0xFFFF_FFFF

    def integers(self, high: int, count: int) -> list[int]:
        return [self.u32() >> (33 - high.bit_length()) for _ in range(count)]

    def random(self, count: int) -> list[float]:
        return [(int(self.bits.random_raw()) >> 11) * 2.0 ** -53 for _ in range(count)]


def each_live(draw, streams, rows, lead=()):
    """``draw(stream, n)`` for each stream with n > 0 live rows, shaped
    ``(*lead, n)`` and concatenated along the trial axis."""
    return np.concatenate([np.asarray(draw(g, n)).reshape(*lead, n)
                           for g, n in zip(streams, rows) if n], axis=-1)


def twin_read(g, bounds, units, n):
    """What ``_ChunkStreams.read(bounds, units)`` gives a chunk of ``n`` live
    rows: its ``Generator.integers`` rows, one per bound, then its
    ``Generator.random`` rows."""
    ints = g.integers([[b] for b in bounds], size=(len(bounds), n)) if bounds else np.empty((0, n), np.int64)
    return ints, g.random(size=(units, n))


def assert_reads_equal(got, want):
    """Two reads' integer and uniform rows: equal, of one dtype and shape."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TwinStreams:
    """The stream stand-in on ``Generator`` methods, with the interface it had
    before ``read``: ``integers`` and ``random`` draw each chunk's live rows
    from its own Generator, as that chunk alone would, and concatenate them
    along the trial axis. The reference rounds draw from it."""

    def __init__(self, streams, rows):
        self._streams, self._rows = streams, list(rows)
        self._chunk = np.repeat(np.arange(len(rows)), rows)

    def integers(self, high, size):
        lead = size[:-1] if isinstance(size, tuple) else ()
        return each_live(lambda g, n: g.integers(high, size=(*lead, n)), self._streams, self._rows, lead)

    def random(self, size):
        lead = size[:-1] if isinstance(size, tuple) else ()
        return each_live(lambda g, n: g.random(size=(*lead, n)), self._streams, self._rows, lead)

    def read(self, bounds, units):
        """``_ChunkStreams.read`` as its chunks' twin Generator calls."""
        reads = [twin_read(g, bounds, units, n) for g, n in zip(self._streams, self._rows) if n]
        return tuple(np.concatenate(part, axis=-1) for part in zip(*reads))

    def keep(self, rows):
        self._chunk = self._chunk[rows]
        self._rows = np.bincount(self._chunk, minlength=len(self._rows)).tolist()


#: what a kernel does with its stream stand-in: a read of integer rows, one
#: per bound (mixed bounds included), then of uniform rows, or dropping rows
STREAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), st.lists(st.sampled_from([2, 4, 2 ** 32]), max_size=3).map(tuple),
              st.integers(0, 3)),
    st.just(("keep",))), max_size=10)


class TestChunkStreamDraws:
    """``_ChunkStreams.read`` reads PCG64's raw words and gives the draws
    ``Generator.integers`` and then ``Generator.random`` give, buffered halves
    included."""

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4), STREAM_OPS,
           st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reads_match_generator_and_raw_words(self, rows, ops, seed, data):
        assume(sum(rows))
        keys = [[seed, c] for c in range(len(rows))]
        streams = experiments._ChunkStreams([NoDraws(np.random.PCG64(k)) for k in keys], list(rows))
        gens = [np.random.default_rng(k) for k in keys]
        twins = TwinStreams(gens, rows)
        raws = [RawWords(k) for k in keys]
        live = list(rows)
        for op, *args in ops:
            total = sum(live)
            if not total:  # a kernel stops once no row is live
                break
            if op == "keep":
                mask = np.array(data.draw(st.lists(st.booleans(), min_size=total, max_size=total)))
                streams.keep(mask)
                twins.keep(mask)
                chunk = np.repeat(np.arange(len(live)), live)
                live = [int(np.count_nonzero(mask[chunk == c])) for c in range(len(live))]
            else:
                bounds, units = args
                got = streams.read(bounds, units)
                assert got[0].dtype == np.int64 and got[0].shape == (len(bounds), total)
                assert_reads_equal(got, twins.read(bounds, units))
                # each chunk's integer rows, each after the one before, then its uniforms
                raw_ints = each_live(lambda r, n: [r.integers(b, n) for b in bounds], raws, live,
                                     (len(bounds),))
                raw_uniforms = each_live(lambda r, n: r.random(units * n), raws, live, (units,))
                assert np.array_equal(got[0], raw_ints) and np.array_equal(got[1], raw_uniforms)
        # every stream live again: its next draws still follow its twin's, so
        # a half left buffered by an odd count was carried exactly
        streams._rows = [1] * len(rows)
        streams._chunk = np.arange(len(rows))
        ints, uniforms = streams.read((4,), 1)
        assert ints[0].tolist() == [int(g.integers(4)) for g in gens]
        assert uniforms[0].tolist() == [g.random() for g in gens]

    @pytest.mark.parametrize("high", [0, 1, 3, 6, 2 ** 32 + 2, 2 ** 33])
    def test_rejects_a_bound_not_a_power_of_two_before_any_draw(self, high):
        streams, twin = one_stream([5, 0, 0], 3), np.random.default_rng([5, 0, 0])
        # an odd count leaves a half buffered
        assert_reads_equal(streams.read((4,), 0), twin_read(twin, (4,), 0, 3))
        state = streams._bits[0].state
        with pytest.raises(ValueError, match=f"power of two.*got {high}$"):
            streams.read((high,), 1)
        assert streams._bits[0].state == state
        assert_reads_equal(streams.read((2, 2), 1), twin_read(twin, (2, 2), 1, 3))

    @pytest.mark.parametrize("bounds, bad", [((4, 3), 3), ((0, 2), 0), ((2, 4, 2 ** 33), 2 ** 33)])
    def test_rejects_bounds_with_one_bad_bound_before_any_draw(self, bounds, bad):
        streams, twin = one_stream([5, 0, 0], 3), np.random.default_rng([5, 0, 0])
        assert_reads_equal(streams.read((4,), 0), twin_read(twin, (4,), 0, 3))
        state = streams._bits[0].state
        with pytest.raises(ValueError, match=f"power of two.*got {bad}$"):
            streams.read(bounds, 2)
        assert streams._bits[0].state == state
        # the buffered half is still next
        assert_reads_equal(streams.read((4, 2), 1), twin_read(twin, (4, 2), 1, 3))

    @pytest.mark.parametrize("bounds", [([4], [2]), (np.array([4, 2]),), (4.0,), ("4",)])
    def test_rejects_a_bound_not_an_integer_before_any_draw(self, bounds):
        # a bound column given for one bound, a float or a string
        streams = one_stream([5, 0, 0], 3)
        state = streams._bits[0].state
        with pytest.raises(TypeError):
            streams.read(bounds, 1)
        assert streams._bits[0].state == state

    @pytest.mark.parametrize("bounds", [
        (np.int64(4),), (np.uint32(2), np.uint32(2)), (np.array(8),), (np.uint64(2 ** 32),),
        tuple(np.array([4, 2])), (np.int8(2), np.int64(4))])
    def test_numpy_integer_bounds_draw_as_generator(self, bounds):
        streams, twin = one_stream([5, 0, 0], 3), np.random.default_rng([5, 0, 0])
        # an odd count leaves a half buffered
        assert_reads_equal(streams.read((4,), 0), twin_read(twin, (4,), 0, 3))
        assert_reads_equal(streams.read(bounds, 1), twin_read(twin, bounds, 1, 3))
        assert_reads_equal(streams.read((4,), 1), twin_read(twin, (4,), 1, 3))

    @pytest.mark.parametrize("bounds, bad", [((np.int64(3),), 3), ((np.array(6),), 6), ((np.uint8(1),), 1),
                                             (tuple(np.array([4, 3])), 3)])
    def test_rejects_a_bad_numpy_integer_bound_before_any_draw(self, bounds, bad):
        streams, twin = one_stream([5, 0, 0], 3), np.random.default_rng([5, 0, 0])
        assert_reads_equal(streams.read((4,), 0), twin_read(twin, (4,), 0, 3))
        state = streams._bits[0].state
        with pytest.raises(ValueError, match=f"power of two.*got {bad}$"):
            streams.read(bounds, 1)
        assert streams._bits[0].state == state
        assert_reads_equal(streams.read((2, 2), 1), twin_read(twin, (2, 2), 1, 3))


class TestRawWordsOnly:
    """The Monte Carlo estimates follow ``SeedSequence`` and PCG64's raw
    words, which NumPy's RNG policy (NEP 19) keeps fixed, and no ``Generator``
    method."""

    def test_every_estimate_reads_raw_words_alone(self, monkeypatch):
        # three chunk groups, the last chunk of odd size
        trials = 2 * experiments.GROUP_CHUNKS * experiments.CHUNK_TRIALS + 7

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


def block_first_flip_chunk(draw, rounds, rng, trials):
    """``experiments._first_flip_chunk`` as it was when its rounds returned
    blocks, verbatim but for ``decoy_flips``, now a test reference."""
    active = trials
    for _ in range(rounds):
        if not active:
            break
        block, ids, u = draw(rng, active)
        flips = decoy_flips(block, ids, u)
        rng.keep(~flips)
        active -= int(np.count_nonzero(flips))
    return [active, trials - active]


def block_alice_chunk(policy, rng, trials):
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
    ((_, stages),) = program.reads
    p1 = qsim.probability_of_one(block, ref_ids >= 2)
    assert_same(stages[-1].take(key >> 1), p1)
    assert_same(ids.take(key >> len(stages)), ref_ids)
    assert_same(key % 2 == 1, ref_u < p1)
    assert_same(program.events[0].take(key), decoy_flips(block, ref_ids, ref_u))


class Kept:
    """A stream stand-in that records each round's ``keep`` mask."""

    def __init__(self, streams, rows):
        super().__init__(streams, rows)
        self.kept = []

    def keep(self, rows):
        self.kept.append(rows.copy())
        super().keep(rows)


class ReadLog(experiments._ChunkStreams):
    """Chunk streams that record the bounds and unit count of each read."""

    def __init__(self, streams, rows):
        super().__init__(streams, rows)
        self.reads = []

    def read(self, bounds, units):
        self.reads.append((bounds, units))
        return super().read(bounds, units)


class KeptStreams(Kept, experiments._ChunkStreams):
    pass


class KeptTwins(Kept, TwinStreams):
    pass


def twin_stand_ins(rows, buffered, seed, kinds=(experiments._ChunkStreams, TwinStreams)):
    """A stand-in of each kind over twin streams ``(seed, c)``, chunk c with
    ``rows[c]`` live rows; where ``buffered``, an odd pre-draw leaves each
    chunk with an odd row count a half buffered."""
    stand_ins = [kind([np.random.default_rng([seed, c]) for c in range(len(rows))], list(rows))
                 for kind in kinds]
    if buffered:
        for streams in stand_ins:
            streams.read((2,), 0)
    return stand_ins


def assert_next_reads_agree(got_rng, ref_rng, chunks):
    """Every twin stream live again: each stand-in's next draws agree."""
    for streams in (got_rng, ref_rng):
        streams._rows, streams._chunk = [1] * chunks, np.arange(chunks)
    assert_reads_equal(got_rng.read((4,), 1), ref_rng.read((4,), 1))


def logged(draw, log):
    """``draw``, appending each round's return to ``log``."""

    def step(*args):
        out = draw(*args)
        log.append(out)
        return out

    return step


def assert_kernels_agree(program, ids, ref_draw, rows, rounds, buffered, seed):
    """``experiments._first_flip_chunk`` over ``program``, and the block kernel
    over the block round ``ref_draw`` on the twin streams' ``Generator``
    methods, each on a stand-in over twin streams: each round matches its
    block round (:func:`assert_round_matches_block`, ``ids`` by first key),
    each round's ``keep`` mask and the counts are equal, and each twin
    stream's next draws agree afterwards."""
    trials = sum(rows)
    got_rng, ref_rng = twin_stand_ins(rows, buffered, seed, (KeptStreams, KeptTwins))
    got_log, ref_log = [], []
    with mock.patch.object(experiments, "_round", logged(experiments._round, got_log)):
        got = experiments._first_flip_chunk(program, rounds, got_rng, trials)
    ref = block_first_flip_chunk(logged(ref_draw, ref_log), rounds, ref_rng, trials)
    assert got == ref
    assert len(got_log) == len(ref_log) == len(got_rng.kept) == len(ref_rng.kept) >= 1
    for key, ref_out in zip(got_log, ref_log):
        assert_round_matches_block(program, ids, key, ref_out)
    for kept, ref_kept in zip(got_rng.kept, ref_rng.kept):
        assert np.array_equal(kept, ref_kept)
    assert_next_reads_agree(got_rng, ref_rng, len(rows))


#: chunk stand-ins: live rows per chunk stream (zero and odd counts
#: included), rounds, whether an odd pre-draw leaves halves buffered, a seed
TWIN_RUNS = (st.lists(st.integers(0, 40), min_size=1, max_size=4), st.integers(1, 8),
             st.booleans(), st.integers(0, 2 ** 32 - 1))

#: the decoy id each detection program checks at each first key
INTERCEPT_IDS, BELL_IDS, ENTANGLING_IDS = np.arange(8) // 2, 2 * np.arange(2), np.arange(4)

#: each detection program, its checked ids, and the block round it replaces
BLOCK_ROUNDS = {
    "intercept": (experiments._INTERCEPT, INTERCEPT_IDS, block_intercept_round),
    "bell": (experiments._BELL, BELL_IDS, block_bell_round),
    "entangling": (experiments._entangling_program(UE_PARAMS), ENTANGLING_IDS,
                   partial(block_entangling_round, UE_PARAMS)),
    "entangling-undetected": (experiments._entangling_program(NO_DETECTION), ENTANGLING_IDS,
                              partial(block_entangling_round, NO_DETECTION)),
}
#: every program: the detection programs and Alice's, one per resend policy
PROGRAMS = {**{name: entry[0] for name, entry in BLOCK_ROUNDS.items()},
            **{f"alice-{policy}": program for policy, program in experiments._ALICE.items()}}


class TestTableRounds:
    """Each program round reads the Born probabilities the block round
    computed, from its tables, and leaves every stream as the block round
    did."""

    @pytest.mark.parametrize("name", sorted(BLOCK_ROUNDS))
    @given(*TWIN_RUNS)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_block_round(self, name, rows, rounds, buffered, seed):
        assume(sum(rows))
        assert_kernels_agree(*BLOCK_ROUNDS[name], rows, rounds, buffered, seed)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_a_round_makes_one_read(self, name, rows, seed):
        # one read per entry of reads, and one last key per live trial
        assume(sum(rows))
        program = PROGRAMS[name]
        rng = ReadLog([np.random.default_rng([seed, c]) for c in range(len(rows))], list(rows))
        key = experiments._round(program, rng)
        assert rng.reads == [(bounds, len(stages)) for bounds, stages in program.reads]
        assert key.shape == (sum(rows),)

    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=4), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_alice_matches_the_block_chunk(self, policy, rows, buffered, seed):
        assume(sum(rows))
        got_rng, ref_rng = twin_stand_ins(rows, buffered, seed)
        assert (experiments._event_chunk(experiments._ALICE[policy], got_rng, sum(rows))
                == block_alice_chunk(policy, ref_rng, sum(rows)))
        assert_next_reads_agree(got_rng, ref_rng, len(rows))


class Scripted:
    """A stream stand-in that returns the given draws, in order, whatever the
    call asks for: one per ``integers`` or ``random`` call, and two per
    ``read``, its integer rows and its uniform rows."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def integers(self, high, size):
        return self._draws.pop(0)

    def random(self, size):
        return self._draws.pop(0)

    def read(self, bounds, units):
        ints, uniforms = self._draws.pop(0), self._draws.pop(0)
        return ints.reshape(len(bounds), -1), uniforms.reshape(units, -1)


#: the largest uniform below 1
TOP_UNIFORM = 1.0 - 2.0 ** -53


def uniforms_near(p1):
    """A uniform in [0, 1): 0, ``p1`` or a float next to it, the top uniform
    or any uniform, each clipped to [0, 1)."""
    return st.one_of(
        st.sampled_from([0.0, p1, np.nextafter(p1, 0.0), np.nextafter(p1, 1.0), TOP_UNIFORM]),
        st.floats(0.0, 1.0, exclude_max=True)).map(lambda u: min(max(float(u), 0.0), TOP_UNIFORM))


def any_uniforms(data, n):
    """``n`` uniforms in [0, 1), drawn from ``data``."""
    return np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)))


@st.composite
def intercept_rows(draw):
    """An intercept row (id, Eve's basis, Eve's uniform), her uniform near
    her Born probability of reading 1 or anywhere."""
    did, basis = draw(st.integers(0, len(DECOY_AMPS) - 1)), draw(st.integers(0, 1))
    return did, basis, draw(uniforms_near(experiments._MEASURE_P1[2 * did + basis]))


@st.composite
def alice_rows(draw, policy):
    """An Alice row (j, a, her uniform, her resend draw, m0, m1, the check's
    and the dummy's uniforms): her uniform near her Born probability of
    reading 1 or anywhere, the check's near 1/2, where each check reads 1
    that does not read a certain bit."""
    j, a = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    alice_u = draw(uniforms_near(experiments._MEASURE_P1[4 * j + a]))
    resend = draw(st.integers(0, adversary.RESEND_DRAWS.get(policy, 1) - 1))
    m0, m1 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return j, a, alice_u, resend, m0, m1, draw(uniforms_near(0.5)), draw(uniforms_near(0.5))


def exact_events(program):
    """The probability of each event of one round of ``program``, summed over
    its keys with no sampling: each value of an integer row of bound b weighs
    1 / b, and each stage's bit p or 1 - p of its table entry (a branch of
    weight 0, which no uniform reaches, is skipped)."""
    branches = [(0, 1.0)]
    for bounds, stages in program.reads:
        for b in bounds:
            branches = [(b * key + row, weight / b) for key, weight in branches for row in range(b)]
        for stage in stages:
            branches = [(2 * key + bit, weight * p) for key, weight in branches
                        for bit, p in ((0, 1.0 - stage[key]), (1, stage[key])) if p > 0]
    return sum(weight * program.events[:, key] for key, weight in branches)


#: every Born table by name, and each program's stages and then its events
TABLES = {"measure": experiments._MEASURE_P1,
          **{f"{policy}.{kind}": table for policy, tables in experiments._RESEND_TABLES.items()
             for kind, table in zip(("guess", "check"), tables)},
          **{f"{name}.{i}": table for name, program in PROGRAMS.items()
             for i, table in enumerate([*(s for _, stages in program.reads for s in stages), program.events])}}


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
        guess_table, check_table = experiments._RESEND_TABLES[policy]
        # the key space the Alice round addresses, draws * key + r
        assert guess_table.shape == (16 * draws,) and check_table.shape == (64 * draws,)
        assert_same(experiments._MEASURE_P1, np.array(measure_p1))
        assert np.array_equal(guess_table, np.array(guess), equal_nan=True)
        assert np.array_equal(check_table, np.array(check_p1), equal_nan=True)
        # the intercept program's stages: the measurement, then the check, the
        # collapsed policy's code-0 column
        ((bounds, (measure, check)),) = experiments._INTERCEPT.reads
        assert bounds == (4, 2) and measure is experiments._MEASURE_P1
        assert np.array_equal(check, np.array(intercept_p1), equal_nan=True)
        assert check.tobytes() == experiments._RESEND_TABLES["collapsed"][1][::4].tobytes()
        # Alice's program reads the rows of Bob's ids 0 and 2, then a dummy coin of 1/2
        (_, (alice_p1,)), (_, (alice_check, coin)) = experiments._ALICE[policy].reads
        assert_same(alice_p1, experiments._MEASURE_P1[[0, 1, 4, 5]])
        assert np.array_equal(alice_check, check_table[np.r_[:16 * draws, 32 * draws:48 * draws]], equal_nan=True)
        assert coin.shape == (2 * len(alice_check),) and np.all(coin == 0.5)
        # the NaN entries are the outcomes of probability 0: id 0 reads no 1
        # in Z, id 1 no 0 in Z and id 2 no 1 in X. |-> in X reads 0 with
        # probability 2^-51, not 0 (its p1 is 1 - 2^-51), so its entries are finite
        assert np.flatnonzero(np.isnan(check)).tolist() == [1, 4, 11]
        nan_keys = [(2 * (2 * did + basis) + bit) * draws + r
                    for did, basis, bit in ((0, 0, 1), (1, 0, 0), (2, 1, 1)) for r in range(draws)]
        assert np.flatnonzero(np.isnan(guess_table)).tolist() == nan_keys
        nan_rows = [4 * k + code for k in nan_keys for code in range(4)]
        assert np.flatnonzero(np.isnan(check_table)).tolist() == nan_rows

    def test_bell_table_rebuilds(self):
        want = [qsim.probability_of_one(adversary.BELL_SLOT[None], np.array([c == 1]))[0] for c in (0, 1)]
        assert_same(experiments._BELL.reads[0][1][-1], np.array(want))

    @pytest.mark.parametrize("params", [NO_DETECTION, UE_PARAMS,
                                        *(adversary.sample_ue_params(np.random.default_rng(s))
                                          for s in range(5))])
    def test_entangling_table_rebuilds_one_register_at_a_time(self, params):
        want = [qsim.probability_of_one(adversary.eve_entangling_attack(DECOY_AMPS[i:i + 1], params),
                                        np.array([i >= 2]))[0] for i in range(len(DECOY_AMPS))]
        assert_same(experiments._entangling_program(params).reads[0][1][-1], np.array(want))

    # the honest control reads each decoy in its own basis with no attack
    @pytest.mark.parametrize("program, q", [
        (experiments._INTERCEPT, 0.25), (experiments._BELL, 0.5),
        (experiments._detection_program((4,), np.arange(4), (experiments._MEASURE_P1[[0, 2, 5, 7]],)), 0.0)],
        ids=["intercept", "bell", "honest"])
    def test_detection_programs_flip_at_their_closed_form(self, program, q):
        (flip,) = exact_events(program)
        assert flip == pytest.approx(q, abs=1e-12)

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
        assert conclusive == pytest.approx(closed["conclusive"], abs=1e-12)
        assert wrong == 0.0
        assert bit_error == pytest.approx(closed["bit_error"], abs=1e-12)
        assert dummy_error == pytest.approx(closed["dummy_error"], abs=1e-12)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_tables_are_read_only(self, name):
        table = TABLES[name]
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5

    @given(st.lists(intercept_rows(), min_size=1, max_size=20), st.data())
    @settings(max_examples=300, deadline=None)
    def test_intercept_round_reads_the_block_path(self, rows, data):
        ids, basis, eve_u = (np.array(col) for col in zip(*rows))
        u = any_uniforms(data, len(rows))
        key = experiments._round(experiments._INTERCEPT, Scripted(np.array([ids, basis]), np.array([eve_u, u])))
        assert_round_matches_block(experiments._INTERCEPT, INTERCEPT_IDS, key,
                                   block_intercept_round(Scripted(ids, basis, eve_u, u), len(rows)))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20), st.data())
    @settings(max_examples=50, deadline=None)
    def test_bell_round_reads_the_block_path(self, declared, data):
        declared, u = np.array(declared), any_uniforms(data, len(declared))
        key = experiments._round(experiments._BELL, Scripted(declared, u))
        assert_round_matches_block(experiments._BELL, BELL_IDS, key,
                                   block_bell_round(Scripted(declared, u), len(declared)))

    @given(st.one_of(st.just(None), st.integers(0, 2 ** 32 - 1)),
           st.lists(st.integers(0, len(DECOY_AMPS) - 1), min_size=1, max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_entangling_round_reads_the_block_path(self, params_seed, ids, data):
        params = (NO_DETECTION if params_seed is None
                  else adversary.sample_ue_params(np.random.default_rng(params_seed)))
        ids, u = np.array(ids), any_uniforms(data, len(ids))
        program = experiments._entangling_program(params)
        assert_round_matches_block(program, ENTANGLING_IDS, experiments._round(program, Scripted(ids, u)),
                                   block_entangling_round(params, Scripted(ids, u), len(ids)))

    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_alice_round_reads_the_block_path(self, policy, data):
        rows = data.draw(st.lists(alice_rows(policy), min_size=1, max_size=20))
        j, a, alice_u, resend, m0, m1, check_u, dummy_u = (np.array(col) for col in zip(*rows))
        resend = [resend] if policy in adversary.RESEND_DRAWS else []
        # all rows together, then each alone, so each row's events match
        for t in [slice(None), *(slice(i, i + 1) for i in range(len(rows)))]:
            got = experiments._event_chunk(experiments._ALICE[policy], Scripted(
                np.array([j[t], a[t]]), alice_u[t], np.array([*(r[t] for r in resend), m0[t], m1[t]]),
                np.array([check_u[t], dummy_u[t]])), len(j[t]))
            ref = block_alice_chunk(policy, Scripted(
                j[t], a[t], alice_u[t], *(r[t] for r in resend), np.array([m0[t], m1[t]]),
                np.array([check_u[t], dummy_u[t]])), len(j[t]))
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


class TestEntanglingEstimate:
    def test_constrained_point_never_flips(self):
        row = experiments.entangling_detection_estimate(
            adversary.UeParams.no_detection_point(), trials=500, seed=0)
        assert row.empirical == 0.0 and row.closed_form == 0.0

    def test_calls_the_isometry_once_per_estimate(self, monkeypatch):
        # 65 chunks: two chunk groups
        trials = experiments.GROUP_CHUNKS * experiments.CHUNK_TRIALS + 1
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
