import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import adversary, protocol, qsim
from qotsim.adversary import UeParams
from qotsim.protocol import ProtocolConfig, ProtocolError, SequenceSlot


def rng(seed=0):
    return np.random.default_rng(seed)


def block(state, rows=1):
    """``rows`` copies of a register as a ``(rows, 2^n)`` block."""
    return np.tile(state, (rows, 1))


class TestInterceptResend:
    def test_per_decoy_detection_is_one_quarter(self):
        g = rng(1)
        n = 40_000
        dids = g.integers(4, size=n)
        attacked = adversary.eve_intercept_resend(protocol.DECOY_AMPS[dids], g)
        hits = int(np.count_nonzero(protocol.decoy_flips(attacked, dids, g.random(n))))
        se = np.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) <= 4 * se

    def test_no_decoys_no_detection(self):
        g = rng(2)
        attacked = adversary.eve_intercept_resend(block(qsim.ZERO), g)
        # payload disturbance is invisible to a check that publishes no decoys
        slots = [SequenceSlot(attacked[0], choice=0, payload_index=0)]
        check = protocol.check_published_decoys(slots, [], [], g)
        assert check.ok and check.error_rate == 0.0 and len(check.remaining) == 1

    def test_resent_states_are_basis_eigenstates(self):
        g = rng(3)
        attacked = adversary.eve_intercept_resend(block(protocol.DECOY_AMPS[2], 50), g)
        for row in attacked:
            assert any(abs(abs(np.vdot(e, row)) - 1) < 1e-10 for e in protocol.DECOY_AMPS)


def orthogonal_ancilla_params():
    """a=d=1, b=c=0 but e00 orthogonal to e11: leaks and disturbs X decoys."""
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    e11 = np.array([0, 1, 0, 0], dtype=complex)
    return UeParams(1, 0, 0, 1, e00, e00.copy(), e00.copy(), e11)


class TestUeParams:
    def test_no_detection_point_is_valid(self):
        p = UeParams.no_detection_point()
        assert p.a == 1 and p.d == 1

    def test_equality_is_identity_and_hashable(self):
        # an array field makes a generated __eq__ raise and __hash__ fail
        p, same = UeParams.no_detection_point(), UeParams.no_detection_point()
        assert (p == p) is True and (p == same) is False
        assert {p: 1}[p] == 1 and hash(p) != hash(same)
        # a protocol slot holds its register as an array too
        slot, twin = SequenceSlot(qsim.PLUS), SequenceSlot(qsim.PLUS.copy())
        assert (slot == slot) is True and (slot == twin) is False
        assert {slot: 1}[slot] == 1 and hash(slot) != hash(twin)

    def test_rejects_unnormalized_amplitudes(self):
        e = np.array([1, 0, 0, 0], dtype=complex)
        with pytest.raises(ProtocolError):
            UeParams(1, 1, 0, 1, e, e, e, e)

    def test_rejects_non_unit_ancilla(self):
        e = np.array([1, 0, 0, 0], dtype=complex)
        with pytest.raises(ProtocolError):
            UeParams(1, 0, 0, 1, 2 * e, e, e, e)
        with pytest.raises(ProtocolError, match="e00 must be a 4-dimensional vector"):
            UeParams(1, 0, 0, 1, e[:3], e, e, e)

    def test_rejects_isometry_violation(self):
        e = np.array([1, 0, 0, 0], dtype=complex)
        inv_sqrt2 = 1 / np.sqrt(2)
        # both images overlap on |0>e with equal weight: cross term 1/2
        with pytest.raises(ProtocolError):
            UeParams(inv_sqrt2, inv_sqrt2, inv_sqrt2, inv_sqrt2, e, e, e, e)

    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [complex("nan"), complex("inf"), complex(0, float("nan"))])
    def test_rejects_non_finite_amplitude(self, name, value):
        e, e_perp = np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex)
        amps = {"a": 1, "b": 0, "c": 0, "d": 1, name: value}
        with pytest.raises(ProtocolError, match=f"amplitude {name} must be finite"):
            UeParams(**amps, e00=e, e01=e, e10=e_perp, e11=e)

    def test_rejects_non_finite_ancilla_component(self):
        e = np.array([1, 0, 0, 0], dtype=complex)
        with pytest.raises(ProtocolError, match="e01 must have finite components"):
            UeParams(1, 0, 0, 1, e, np.array([np.nan, 0, 0, 0]), e, e)

    def test_sampler_yields_valid_params(self):
        g = rng(5)
        for _ in range(50):
            p = adversary.sample_ue_params(g)
            assert 0.0 <= adversary.ue_detection_probability(p) <= 1.0
            assert 0.0 <= adversary.ue_leakage(p) <= 1.0 + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sampled_params_give_probabilities(self, seed):
        params = adversary.sample_ue_params(np.random.default_rng(seed))
        assert -1e-12 <= adversary.ue_detection_probability(params) <= 1 + 1e-12
        assert -1e-12 <= adversary.ue_leakage(params) <= 1 + 1e-12

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ue.txt"
        path.write_text(
            "a = 1+0j\nb = 0j\nc = 0j\nd = 1+0j\n"
            "e00 = 1,0,0,0\ne01 = 1,0,0,0\ne10 = 0,1,0,0\ne11 = 1,0,0,0\n")
        p = adversary.load_ue_params(path)
        assert adversary.ue_detection_probability(p) == 0.0

    def test_file_missing_key(self, tmp_path):
        path = tmp_path / "ue.txt"
        path.write_text("a = 1+0j\n")
        with pytest.raises(ProtocolError):
            adversary.load_ue_params(path)


class TestEntanglingAttack:
    def test_constrained_params_leave_qubits_unchanged(self):
        p = UeParams.no_detection_point()
        attacked = adversary.eve_entangling_attack(protocol.DECOY_AMPS, p)
        assert attacked.shape == (4, 8)
        for did in range(4):
            # qubit factor unchanged, ancilla in the fixed state e00
            expected = np.kron(protocol.DECOY_AMPS[did], p.e00)
            assert np.allclose(attacked[did], expected, atol=1e-12)

    def test_constrained_params_zero_detection_and_leakage(self):
        p = UeParams.no_detection_point()
        assert adversary.ue_detection_probability(p) == 0.0
        assert adversary.ue_leakage(p) <= 1e-12

    def test_full_flip_detected_on_zero_decoy(self):
        e = np.array([1, 0, 0, 0], dtype=complex)
        p = UeParams(0, 1, 1, 0, e, e, e, e)
        attacked = adversary.eve_entangling_attack(block(protocol.DECOY_AMPS[0], 10), p)
        for seed in range(10):
            bits, _ = qsim.measure_batch(attacked, np.zeros(10, dtype=bool), rng(seed).random(10))
            assert bits.all()

    def test_full_flip_average_detection_is_half(self):
        # with e01 = e10 the X decoys are returned intact; only Z decoys flip
        e = np.array([1, 0, 0, 0], dtype=complex)
        p = UeParams(0, 1, 1, 0, e, e.copy(), e.copy(), e.copy())
        assert abs(adversary.ue_detection_probability(p) - 0.5) <= 1e-12

    def test_orthogonal_ancilla_leaks_and_disturbs(self):
        p = orthogonal_ancilla_params()
        assert adversary.ue_detection_probability(p) > 0.0
        assert adversary.ue_leakage(p) > 0.0

    def test_monte_carlo_matches_analytic(self):
        from qotsim import experiments
        for seed in (1, 2):
            p = adversary.sample_ue_params(rng(seed))
            row = experiments.entangling_detection_estimate(p, trials=20_000, seed=seed)
            assert abs(row.empirical - row.closed_form) <= 4 * max(row.stderr, 1e-4)

    def test_violating_params_always_detectable(self):
        # any sampled point violating the no-detection constraint by more than
        # a hair has strictly positive detection probability
        g = rng(11)
        for _ in range(200):
            p = adversary.sample_ue_params(g)
            deviation = (abs(p.b) + abs(p.c)
                         + np.linalg.norm(p.a * p.e00 - p.d * p.e11))
            if deviation > 1e-6:
                assert adversary.ue_detection_probability(p) > 0.0

    def test_rejects_multi_qubit_slot(self):
        with pytest.raises(ProtocolError):
            adversary.eve_entangling_attack(block(qsim.make_bell(0)),
                                            UeParams.no_detection_point())


class TestBobBellCheat:
    def test_sequence_layout(self):
        cfg = ProtocolConfig(N=3, M=4, K=2, seed=0)
        slots, pos, ids = adversary.bob_bell_cheat(cfg, rng(1))
        assert len(slots) == 3 + 4 + 4
        assert [slots[p].state.shape for p in pos] == [(2,)] * 4
        bell = [s for k, s in enumerate(slots) if k not in pos]
        assert [s.payload_index for s in bell] == [0, 1, 2, None, None, None, None]
        for s in bell:
            assert s.state is adversary.BELL_SLOT and s.choice in (0, 1)

    def test_per_test_detection_is_half(self):
        g = rng(2)
        n = 40_000
        hits = 0
        for _ in range(n):
            bit = qsim.measure(qsim.make_bell(0), int(g.integers(2)), g.random())
            hits += bit == 1
        se = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 4 * se

    @pytest.mark.parametrize("K", [1, 4])
    def test_loyalty_test_with_random_declared_bases(self, K):
        g = rng(3)
        cfg = ProtocolConfig(N=2, M=0, K=K, seed=0)
        detections = 0
        n = 2_000
        for _ in range(n):
            slots, _, _ = adversary.bob_bell_cheat(cfg, g)
            res = protocol.alice_test_loyalty(slots, cfg.K, g)
            detections += not res.ok
        expected = 1 - 0.5 ** cfg.K
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(detections / n - expected) <= 4 * se

    def test_readout_recovers_every_pair(self):
        for pair, gate in protocol.PAULI_CODE.items():
            encoded = qsim.apply_gate(qsim.make_bell(0), gate)
            assert adversary.bob_bell_cheat_readout(encoded) == pair

    def test_readout_is_bijection(self):
        seen = {adversary.bob_bell_cheat_readout(
            qsim.apply_gate(qsim.make_bell(0), g))
            for g in ("I", "X", "Y", "Z")}
        assert seen == set(itertools.product((0, 1), (0, 1)))

    def test_untested_cheat_reads_all_messages(self):
        g = rng(4)
        for _ in range(200):
            pair = (int(g.integers(2)), int(g.integers(2)))
            encoded = qsim.apply_gate(qsim.make_bell(0),
                                      protocol.PAULI_CODE[pair])
            assert adversary.bob_bell_cheat_readout(encoded) == pair


class TestAliceMeasureResend:
    def test_conclusive_rate_and_no_false_guesses(self):
        g = rng(5)
        n = 40_000
        choices = g.integers(2, size=n)
        guesses, _ = adversary.alice_measure_resend(protocol.DECOY_AMPS[2 * choices], g)
        conclusive = guesses >= 0
        assert np.array_equal(guesses[conclusive], choices[conclusive])
        assert set(np.unique(guesses)) <= {-1, 0, 1}
        se = np.sqrt(0.25 * 0.75 / n)
        assert abs(np.count_nonzero(conclusive) / n - 0.25) <= 4 * se

    def test_guess_policy_resends_legal_preparations(self):
        g = rng(6)
        legal = [qsim.ZERO, qsim.PLUS]
        states = protocol.DECOY_AMPS[2 * (np.arange(50) % 2)]
        guesses, resent = adversary.alice_measure_resend(states, g)
        assert resent.shape == (50, 2)
        for guess, row in zip(guesses, resent):
            assert any(np.allclose(row, e) for e in legal)
            if guess >= 0:
                assert np.allclose(row, protocol.choice_state(guess))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ProtocolError):
            adversary.alice_measure_resend(block(qsim.ZERO), rng(), policy="bogus")
