import itertools

import numpy as np
import pytest

from qotsim import adversary, experiments, protocol, qsim
from qotsim.adversary import AttackScenario
from qotsim.experiments import EstimateRow, ExperimentSpec
from qotsim.protocol import ProtocolConfig, ProtocolError
from qotsim.qsim import Basis


class TestClosedForms:
    def test_bell_cheat_values(self):
        assert experiments.bell_cheat_detection_rate(1) == 0.5
        assert abs(experiments.bell_cheat_detection_rate(20) - (1 - 0.5 ** 20)) == 0.0
        assert experiments.bell_cheat_detection_rate(20) > 0.999999

    def test_intercept_values(self):
        assert experiments.intercept_detection_rate(0) == 0.0
        assert abs(experiments.intercept_detection_rate(10) - (1 - 0.75 ** 10)) == 0.0
        assert experiments.intercept_detection_rate(50) >= 0.999999


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
        # independent oracle: enumerate the guess-policy strategy exactly
        def born(state, basis):
            out = {}
            for bit in (0, 1):
                eig = protocol.DECOY_STATES[bit if basis is Basis.Z else 2 + bit]
                out[bit] = abs(np.vdot(eig.amps, state.amps)) ** 2
            return out

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
                        resends = [(protocol.choice_state(1 if basis is Basis.Z else 0), 1.0)]
                    else:
                        resends = [(qsim.ZERO, 0.5), (qsim.PLUS, 0.5)]
                    for resent, pr in resends:
                        for pair in itertools.product((0, 1), (0, 1)):
                            enc = qsim.apply_gate(resent, protocol.PAULI_CODE[pair], 0)
                            pb = born(enc, Basis.Z if j == 0 else Basis.X)
                            err += p_event * pr * 0.25 * sum(
                                q for b, q in pb.items() if b != pair[j])
        assert conc == pytest.approx(0.25)
        assert err == pytest.approx(0.1875)

    def test_monte_carlo_matches_oracle(self):
        rep = experiments.alice_attack_report(30_000, seed=2)
        conclusive, bit_error, dummy_error = rep.rows()
        assert abs(rep.conclusive_rate - 0.25) <= 4 * conclusive.stderr
        assert abs(rep.bit_error_rate - 0.1875) <= 5 * bit_error.stderr
        assert abs(rep.dummy_error_rate - 0.09375) <= 5 * dummy_error.stderr
        assert rep.false_conclusive == 0

    def test_rows_carry_rates_and_closed_forms(self):
        rep = experiments.alice_attack_report(400, seed=3, policy="collapsed")
        rows = rep.rows()
        assert [r.parameter for r in rows] == ["conclusive", "bit_error", "dummy_error"]
        assert [r.empirical for r in rows] == [rep.conclusive_rate, rep.bit_error_rate,
                                               rep.dummy_error_rate]
        assert [r.closed_form for r in rows] == [0.25, 0.1875, 0.09375]
        for r in rows:
            assert r.trials == 400
            assert r.stderr == pytest.approx(np.sqrt(r.empirical * (1 - r.empirical) / 400))
        assert rows[0].as_csv().startswith("conclusive,")

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
        assert leakage.as_csv() == f"leakage,{leak:.10g},{leak:.10g},0,300"
