import itertools
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from qotsim import adversary, cli, experiments, protocol, qsim
from qotsim.adversary import AttackScenario
from qotsim.experiments import EstimateRow, ExperimentSpec
from qotsim.protocol import ProtocolConfig, ProtocolError
from qotsim.qsim import Basis

UE_PARAMS = adversary.sample_ue_params(np.random.default_rng(4))


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

    def test_rejects_negative_parameter(self):
        for scenario in (AttackScenario.INTERCEPT_RESEND, AttackScenario.BOB_BELL_CHEAT):
            with pytest.raises(ProtocolError):
                ExperimentSpec(scenario, -3, trials=10)


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
    "intercept": partial(experiments._first_flip_chunk, experiments._intercept_round, 3),
    "bell": partial(experiments._first_flip_chunk, experiments._bell_round, 2),
    "alice": partial(experiments._alice_chunk, "guess"),
    "entangling": partial(experiments._first_flip_chunk,
                          partial(experiments._entangling_round, UE_PARAMS), 1),
}


class TestChunks:
    @pytest.mark.parametrize("name", sorted(CHUNK_KERNELS))
    def test_tallies_add_over_chunks(self, name):
        kernel = CHUNK_KERNELS[name]
        chunk = experiments.CHUNK_TRIALS
        first = experiments._tally(kernel, chunk, seed=5)
        second = kernel(np.random.default_rng([5, 0, 1]), chunk)
        both = experiments._tally(kernel, 2 * chunk, seed=5)
        assert both == [a + b for a, b in zip(first, second)]
        if name == "alice":
            # conclusive, wrong, bit-error and dummy-error counts: a wrong
            # guess is conclusive and a dummy error is a bit error
            assert chunk >= first[0] >= first[1] and chunk >= first[2] >= first[3]
        else:
            # [unflipped, flipped]: every trial is counted once
            assert sum(first) == sum(second) == chunk

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

    def test_chosen_bit_is_visible(self):
        # sanity: flipping the chosen bit moves the state to an orthogonal one
        carrier = protocol.choice_state(0)
        d0 = qsim.density_of([qsim.apply_gate(carrier, protocol.PAULI_CODE[(0, 0)], 0)])
        d1 = qsim.density_of([qsim.apply_gate(carrier, protocol.PAULI_CODE[(1, 0)], 0)])
        assert qsim.trace_distance(d0, d1) == pytest.approx(1.0)


class TestAliceAttackReport:
    def test_exact_rates_by_enumeration(self):
        # independent oracle: enumerate each resend policy's strategy exactly
        def born(state, basis):
            out = {}
            for bit in (0, 1):
                eig = protocol.DECOY_STATES[bit if basis is Basis.Z else 2 + bit]
                out[bit] = abs(np.vdot(eig.amps, state.amps)) ** 2
            return out

        def resends(policy, basis, bit):
            if policy == "collapsed":
                return [(protocol.DECOY_STATES[bit if basis is Basis.Z else 2 + bit], 1.0)]
            if policy == "random":
                return [(state, 0.25) for state in protocol.DECOY_STATES]
            if bit == 1:
                return [(protocol.choice_state(1 if basis is Basis.Z else 0), 1.0)]
            return [(qsim.ZERO, 0.5), (qsim.PLUS, 0.5)]

        expected = {"guess": (0.25, 0.1875), "collapsed": (0.25, 0.25), "random": (0.25, 0.5)}
        for policy, (conclusive, bit_error) in expected.items():
            err = conc = 0.0
            for j in (0, 1):
                prep = protocol.choice_state(j)
                for basis in (Basis.Z, Basis.X):
                    for bit, p in born(prep, basis).items():
                        if p == 0:
                            continue
                        p_event = 0.25 * p
                        if bit == 1:
                            conc += p_event
                        for resent, pr in resends(policy, basis, bit):
                            for pair in itertools.product((0, 1), (0, 1)):
                                enc = qsim.apply_gate(resent, protocol.PAULI_CODE[pair], 0)
                                pb = born(enc, Basis.Z if j == 0 else Basis.X)
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


    def test_rows_name_detection_and_leakage(self):
        params = adversary.sample_ue_params(np.random.default_rng(4))
        detection, leakage = experiments.entangling_rows(params, trials=300, seed=6)
        estimate = experiments.entangling_detection_estimate(params, trials=300, seed=6)
        assert detection == EstimateRow("detection", estimate.empirical, estimate.closed_form,
                                        estimate.stderr, 300)
        leak = adversary.ue_leakage(params)
        assert leakage == EstimateRow("leakage", leak, leak, 0.0, 300)
        assert cli.csv_line(astuple(leakage)) == f"leakage,{leak:.10g},{leak:.10g},0,300"
