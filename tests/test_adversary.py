import dataclasses
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import adversary, protocol, qsim
from qotsim.adversary import UeParams
from qotsim.protocol import ProtocolConfig, ProtocolError, SequenceSlot
from test_golden import UE_FILES
from test_protocol import decoy_flips


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
        attacked = adversary.alice_measure_resend(protocol.DECOY_AMPS[dids], g.integers(2, size=n),
                                                  g.random(n), None, "collapsed")[1]
        hits = int(np.count_nonzero(decoy_flips(attacked, dids, g.random(n))))
        se = np.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) <= 4 * se

    def test_no_decoys_no_detection(self):
        g = rng(2)
        attacked = adversary.alice_measure_resend(block(qsim.ZERO), g.integers(2, size=1), g.random(1),
                                                  None, "collapsed")[1]
        # payload disturbance is invisible to a check that publishes no decoys
        slots = [SequenceSlot(attacked[0], choice=0, payload_index=0)]
        check = protocol.check_published_decoys(slots, [], [], g)
        assert check.ok and check.error_rate == 0.0 and len(check.remaining) == 1

    def test_resent_states_are_basis_eigenstates(self):
        g = rng(3)
        attacked = adversary.alice_measure_resend(block(protocol.DECOY_AMPS[2], 50), g.integers(2, size=50),
                                                  g.random(50), None, "collapsed")[1]
        for row in attacked:
            assert any(abs(abs(np.vdot(e, row)) - 1) < 1e-10 for e in protocol.DECOY_AMPS)

    def test_measures_in_the_given_bases_against_the_given_uniforms(self):
        # |+> in X reads 0 whatever u is; in Z it reads 1 iff u < 1/2
        states = block(protocol.DECOY_AMPS[2], 4)
        attacked = adversary.alice_measure_resend(states, np.array([1, 1, 0, 0]),
                                                  np.array([0.1, 0.9, 0.4, 0.6]), None, "collapsed")[1]
        assert np.allclose(attacked, [qsim.PLUS, qsim.PLUS, qsim.ONE, qsim.ZERO], atol=1e-12)


class TestEmptyBlocks:
    """A block of no rows passes through each attack as a block of no rows."""

    @pytest.mark.parametrize("policy", adversary.RESEND_POLICIES)
    def test_alice_measure_resend(self, policy):
        none = np.empty(0, int)
        guesses, resent = adversary.alice_measure_resend(np.empty((0, 2), complex), none, rng().random(0),
                                                         none, policy)
        assert guesses.shape == (0,) and resent.shape == (0, 2) and resent.dtype == complex

    def test_entangling_attack(self):
        attacked = adversary.eve_entangling_attack(np.empty((0, 2), complex), UeParams.no_detection_point())
        assert attacked.shape == (0, 8) and attacked.dtype == complex


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


# The formulas the entangling map replaced, kept verbatim as references: the
# attack's per-call concatenation, the isometry check's cross product, the
# detection probability's eight products and the leakage's weighted branches.
def reference_attack(states, params):
    image_of_zero = np.concatenate([params.a * params.e00, params.b * params.e01])
    image_of_one = np.concatenate([params.c * params.e10, params.d * params.e11])
    return states[:, :1] * image_of_zero + states[:, 1:] * image_of_one


def reference_cross(params):
    return (np.conj(params.a) * params.c * np.vdot(params.e00, params.e10)
            + np.conj(params.b) * params.d * np.vdot(params.e01, params.e11))


def reference_detection_probability(params):
    p_zero = abs(params.b) ** 2
    p_one = abs(params.c) ** 2
    # |-> component given |+> sent, and |+> component given |-> sent
    v_minus = (params.a * params.e00 - params.b * params.e01
               + params.c * params.e10 - params.d * params.e11) / 2.0
    v_plus = (params.a * params.e00 + params.b * params.e01
              - params.c * params.e10 - params.d * params.e11) / 2.0
    p_plus = float(np.vdot(v_minus, v_minus).real)
    p_minus = float(np.vdot(v_plus, v_plus).real)
    return (p_zero + p_one + p_plus + p_minus) / 4.0


def reference_leakage(params):
    def ancilla_density(weighted_branches):
        rho = np.zeros((4, 4), dtype=complex)
        for weight, branch in weighted_branches:
            rho += weight * np.outer(branch, branch.conj())
        return rho

    rho_zero = ancilla_density([(1.0, params.a * params.e00),
                                (1.0, params.b * params.e01)])
    # the 1/sqrt(2) superposition weights are kept exact as 1/2 factors
    rho_plus = ancilla_density([(0.5, params.a * params.e00 + params.c * params.e10),
                                (0.5, params.b * params.e01 + params.d * params.e11)])
    return qsim.trace_distance(rho_zero, rho_plus)


def reference_points(tmp_path):
    """40 sampled isometries, both golden ue-files and two fixed points."""
    points = [adversary.sample_ue_params(rng(seed)) for seed in range(40)]
    for name, text in sorted(UE_FILES.items()):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        points.append(adversary.load_ue_params(path))
    return points + [UeParams.no_detection_point(), orthogonal_ancilla_params()]


def haar_block(g, rows):
    """``rows`` random single-qubit registers, each of norm 1."""
    amps = g.normal(size=(rows, 2)) + 1j * g.normal(size=(rows, 2))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


class TestImages:
    def test_every_value_equals_the_reference_formulas(self, tmp_path):
        g = rng(17)
        for p in reference_points(tmp_path):
            assert adversary.ue_detection_probability(p) == reference_detection_probability(p)
            assert adversary.ue_leakage(p) == reference_leakage(p)
            for states in (protocol.DECOY_AMPS[g.integers(4, size=64)], haar_block(g, 64)):
                assert np.array_equal(adversary.eve_entangling_attack(states, p),
                                      reference_attack(states, p))
            # the check's inner product sums the same eight products in another
            # order, so it matches to rounding, far below ISOMETRY_ATOL
            assert abs(np.vdot(p.images[0], p.images[1]) - reference_cross(p)) <= 1e-15

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sampled_values_equal_the_reference_formulas(self, seed):
        p = adversary.sample_ue_params(np.random.default_rng(seed))
        assert adversary.ue_detection_probability(p) == reference_detection_probability(p)
        assert adversary.ue_leakage(p) == reference_leakage(p)
        states = haar_block(rng(seed), 8)
        assert np.array_equal(adversary.eve_entangling_attack(states, p),
                              reference_attack(states, p))

    def test_images_is_read_only_and_matches_its_definition(self, tmp_path):
        for p in reference_points(tmp_path):
            assert p.images.shape == (2, 8) and p.images.dtype == complex
            assert np.array_equal(p.images, reference_attack(np.eye(2), p))
            assert not p.images.flags.writeable
            with pytest.raises(ValueError):
                p.images[0, 0] = 0
            assert not any(np.shares_memory(p.images, v) for v in (p.e00, p.e01, p.e10, p.e11))

    def test_replace_rebuilds_images(self):
        p = UeParams.no_detection_point()
        flipped = dataclasses.replace(p, a=-1)
        assert flipped.images is not p.images
        assert np.array_equal(flipped.images[0], np.concatenate([-p.e00, 0 * p.e01]))
        assert np.array_equal(flipped.images[1], p.images[1])
        e_perp = np.array([0, 0, 1, 0], dtype=complex)
        moved = dataclasses.replace(p, e11=e_perp)
        assert np.array_equal(moved.images[1, 4:], e_perp)
        assert adversary.ue_leakage(moved) == reference_leakage(moved) > 0.0

    @pytest.mark.parametrize("s", [1e-8, 3e-6, 0.25])
    def test_cross_term_above_atol_raises_the_same_message(self, s):
        # a=1, b=0 and e10 = e00 leave cross term s, here at a complex phase
        e = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        e_perp = np.array([0.5, -0.5j, 0.5, 0.5], dtype=complex)
        c = s * np.exp(0.3j)
        fields = dict(a=1, b=0, c=c, d=np.sqrt(1 - s * s), e00=e, e01=e_perp, e10=e, e11=e_perp)
        expected = (f"parameters do not define an isometry "
                    f"(cross term {abs(reference_cross(SimpleNamespace(**fields))):.2e})")
        with pytest.raises(ProtocolError, match=f"^{re.escape(expected)}$"):
            UeParams(**fields)

    def test_cross_term_below_atol_is_accepted(self):
        e = np.array([1, 0, 0, 0], dtype=complex)
        p = UeParams(1, 0, 5e-10, np.sqrt(1 - 25e-20), e, e, e, e)
        assert abs(np.vdot(p.images[0], p.images[1])) == pytest.approx(5e-10)


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
        for code in range(4):
            encoded = qsim.apply_gate(qsim.make_bell(0), code)
            assert adversary.bob_bell_cheat_readout(encoded) == divmod(code, 2)

    def test_readout_is_bijection(self):
        seen = {adversary.bob_bell_cheat_readout(qsim.apply_gate(qsim.make_bell(0), code))
                for code in range(4)}
        assert seen == set(itertools.product((0, 1), (0, 1)))

    def test_untested_cheat_reads_all_messages(self):
        g = rng(4)
        for _ in range(200):
            pair = (int(g.integers(2)), int(g.integers(2)))
            encoded = qsim.apply_gate(qsim.make_bell(0), 2 * pair[0] + pair[1])
            assert adversary.bob_bell_cheat_readout(encoded) == pair



def drawing_alice_measure_resend(states, rng, policy="guess"):
    """``adversary.alice_measure_resend`` as it was when it drew its own
    bases, uniforms and resend draws, verbatim but for the module prefixes
    and the policy check."""
    n = len(states)
    # each row is measured in the basis of a random choice a, whose outcome 0
    # is choice a's preparation (decoy id 2a); outcome 1 rules a out, so the
    # preparation was 1 - a
    a = rng.integers(2, size=n)
    bits, collapsed = qsim.measure_batch(states, a, rng.random(n))
    guesses = np.where(bits, 1 - a, -1)
    if policy == "collapsed":
        return guesses, collapsed
    if policy == "random":
        resent = rng.integers(len(protocol.DECOY_AMPS), size=n)
    else:
        resent = 2 * np.where(bits, guesses, rng.integers(2, size=n))
    return guesses, protocol.DECOY_AMPS.take(resent, axis=0)


def alice_draws(g, n, policy):
    """Alice's draws from ``g`` for ``n`` rows, in the order the drawing
    reference made them: her bases, her uniforms, then her resend draws of
    ``adversary.RESEND_DRAWS`` values (None where her policy makes none)."""
    basis, u = g.integers(2, size=n), g.random(n)
    bound = adversary.RESEND_DRAWS.get(policy)
    return basis, u, None if bound is None else g.integers(bound, size=n)


class TestAliceMeasureResend:
    def test_conclusive_rate_and_no_false_guesses(self):
        g = rng(5)
        n = 40_000
        choices = g.integers(2, size=n)
        guesses, _ = adversary.alice_measure_resend(protocol.DECOY_AMPS[2 * choices],
                                                    *alice_draws(g, n, "guess"))
        conclusive = guesses >= 0
        assert np.array_equal(guesses[conclusive], choices[conclusive])
        assert set(np.unique(guesses)) <= {-1, 0, 1}
        se = np.sqrt(0.25 * 0.75 / n)
        assert abs(np.count_nonzero(conclusive) / n - 0.25) <= 4 * se

    def test_guess_policy_resends_legal_preparations(self):
        g = rng(6)
        legal = [qsim.ZERO, qsim.PLUS]
        states = protocol.DECOY_AMPS[2 * (np.arange(50) % 2)]
        guesses, resent = adversary.alice_measure_resend(states, *alice_draws(g, 50, "guess"))
        assert resent.shape == (50, 2)
        for guess, row in zip(guesses, resent):
            assert any(np.allclose(row, e) for e in legal)
            if guess >= 0:
                assert np.allclose(row, protocol.choice_state(guess))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from(adversary.RESEND_POLICIES))
    @settings(max_examples=100, deadline=None)
    def test_resend_matches_the_drawing_body(self, seed, n, policy):
        # fed the draws the drawing body makes, in its order, the function
        # gives its bytes, and leaves the stream where the body left it
        g, twin = rng(seed), rng(seed)
        states = protocol.DECOY_AMPS[g.integers(4, size=n)]
        twin.integers(4, size=n)
        got = adversary.alice_measure_resend(states, *alice_draws(g, n, policy), policy)
        ref = drawing_alice_measure_resend(states, twin, policy)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert g.random() == twin.random()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ProtocolError):
            adversary.alice_measure_resend(block(qsim.ZERO), np.zeros(1, int), np.zeros(1), np.zeros(1, int),
                                           policy="bogus")
