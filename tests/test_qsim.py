import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import qsim
from qotsim.qsim import Basis, BellKind, PureState


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGates:
    def test_matrices_are_unitary(self):
        for name, g in qsim.GATES.items():
            assert np.max(np.abs(g.conj().T @ g - np.eye(2))) <= 1e-12, name

    def test_y_is_real_zx(self):
        assert np.array_equal(qsim.GATES["Y"], np.array([[0, 1], [-1, 0]]))
        assert np.allclose(qsim.GATES["Y"], qsim.GATES["Z"] @ qsim.GATES["X"])

    def test_h_is_self_inverse_and_real(self):
        h = qsim.GATES["H"]
        assert np.max(np.abs(h @ h - np.eye(2))) <= 1e-12
        assert np.array_equal(h, h.conj())

    def test_y_on_zero_gives_minus_one(self):
        out = qsim.apply_gate(qsim.ZERO, "Y", 0)
        assert np.allclose(out.amps, [0, -1])

    def test_h_on_zero_gives_plus(self):
        out = qsim.apply_gate(qsim.ZERO, "H", 0)
        assert np.allclose(out.amps, qsim.PLUS.amps)

    def test_identity_preserves_minus(self):
        out = qsim.apply_gate(qsim.MINUS, "I", 0)
        assert np.allclose(out.amps, qsim.MINUS.amps)

    def test_h_swaps_z_and_x_eigenstates(self):
        for a, b in [(qsim.ZERO, qsim.PLUS), (qsim.ONE, qsim.MINUS)]:
            assert np.allclose(qsim.apply_gate(a, "H", 0).amps, b.amps)
            assert np.allclose(qsim.apply_gate(b, "H", 0).amps, a.amps)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            qsim.apply_gate(qsim.ZERO, "X", 1)

    def test_gate_on_middle_qubit_of_three(self):
        state = qsim.tensor(qsim.tensor(qsim.ZERO, qsim.ZERO), qsim.ZERO)
        out = qsim.apply_gate(state, "X", 1)
        expected = np.zeros(8)
        expected[0b010] = 1
        assert np.allclose(out.amps, expected)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState([1, 1])

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            PureState([1, 0, 0])
        # a scalar and an empty vector fail the register check, not numpy indexing
        for amps in (1.0, []):
            with pytest.raises(ValueError, match="not a 1..3 qubit register"):
                PureState(amps)

    def test_rejects_more_than_three_qubits(self):
        amps = np.zeros(16)
        amps[0] = 1
        with pytest.raises(ValueError):
            PureState(amps)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            qsim.ZERO.amps = None


class TestMeasure:
    def test_zero_in_z_is_deterministic(self):
        for seed in range(20):
            bit, post = qsim.measure(qsim.ZERO, Basis.Z, 0, rng(seed))
            assert bit == 0
            assert np.allclose(post.amps, qsim.ZERO.amps)

    def test_x_eigenstates_in_x_are_deterministic(self):
        for seed in range(10):
            assert qsim.measure(qsim.PLUS, Basis.X, 0, rng(seed))[0] == 0
            assert qsim.measure(qsim.MINUS, Basis.X, 0, rng(seed))[0] == 1

    def test_minus_in_z_is_unbiased(self):
        g = rng(7)
        n = 20_000
        ones = sum(qsim.measure(qsim.MINUS, Basis.Z, 0, g)[0] for _ in range(n))
        se = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 4 * se

    def test_born_rule_large_sample(self):
        # amplitude 0.6|0> + 0.8|1>, >= 1e5 trials within 4 standard errors
        state = PureState([0.6, 0.8])
        g = rng(11)
        n = 100_000
        ones = sum(qsim.measure(state, Basis.Z, 0, g)[0] for _ in range(n))
        p = 0.64
        se = np.sqrt(p * (1 - p) / n)
        assert abs(ones / n - p) <= 4 * se

    def test_bell_halves_agree_in_z(self):
        g = rng(3)
        for _ in range(200):
            b0, post = qsim.measure(qsim.make_bell(BellKind.PHI_PLUS), Basis.Z, 0, g)
            b1, _ = qsim.measure(post, Basis.Z, 1, g)
            assert b0 == b1

    def test_collapse_renormalizes(self):
        state = PureState([0.6, 0.8])
        _, post = qsim.measure(state, Basis.Z, 0, rng(0))
        assert abs(np.vdot(post.amps, post.amps).real - 1.0) <= 1e-10

    def test_immunity_of_encodings(self):
        # I and Z leave Z eigenstates fixed; I and X leave X eigenstates fixed
        for gate in ("I", "Z"):
            for state, bit in [(qsim.ZERO, 0), (qsim.ONE, 1)]:
                for seed in range(5):
                    out = qsim.apply_gate(state, gate, 0)
                    assert qsim.measure(out, Basis.Z, 0, rng(seed))[0] == bit
        for gate in ("I", "X"):
            for state, bit in [(qsim.PLUS, 0), (qsim.MINUS, 1)]:
                for seed in range(5):
                    out = qsim.apply_gate(state, gate, 0)
                    assert qsim.measure(out, Basis.X, 0, rng(seed))[0] == bit


class FixedUniform:
    """Stands in for a Generator whose ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def random_state(n_qubits, seed):
    g = rng(seed)
    amps = g.normal(size=1 << n_qubits) + 1j * g.normal(size=1 << n_qubits)
    return PureState(amps / np.linalg.norm(amps))


#: states whose Born probabilities are 0, 1/2 or 1, over one to three qubits
EXACT_STATES = [qsim.ZERO, qsim.ONE, qsim.PLUS, qsim.MINUS, qsim.make_bell(BellKind.PSI_MINUS),
                qsim.tensor(qsim.MINUS, qsim.make_bell(BellKind.PHI_PLUS))]


class TestMeasureBatch:
    @given(st.one_of(st.sampled_from(EXACT_STATES),
                     st.builds(random_state, st.integers(1, 3), st.integers(0, 2**32 - 1))),
           st.lists(st.booleans(), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_scalar_measure(self, state, x_basis, seed):
        u = rng(seed).random(len(x_basis))
        bits, collapsed = qsim.measure_batch(np.tile(state.amps, (len(u), 1)), np.array(x_basis), u)
        assert bits.shape == u.shape and collapsed.shape == (len(u), 1 << state.n_qubits)
        for t, x in enumerate(x_basis):
            bit, post = qsim.measure(state, Basis.X if x else Basis.Z, 0, FixedUniform(u[t]))
            assert bits[t] == bit
            assert np.max(np.abs(collapsed[t] - post.amps)) <= 1e-12

    def test_reads_u_against_born_probability(self):
        # 0.6|0> + 0.8|1>: P(1) = 0.64 in Z, P(-) = 0.02 in X
        state = np.array([[0.6, 0.8]] * 4, dtype=complex)
        bits, _ = qsim.measure_batch(state, np.array([False, False, True, True]),
                                     np.array([0.63, 0.65, 0.01, 0.03]))
        assert bits.tolist() == [True, False, True, False]


class TestBell:
    def test_phi_plus_amplitudes(self):
        b = qsim.make_bell(BellKind.PHI_PLUS)
        assert np.allclose(b.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_bell_states_orthonormal(self):
        kinds = list(BellKind)
        for i, ki in enumerate(kinds):
            for j, kj in enumerate(kinds):
                ip = np.vdot(qsim.make_bell(ki).amps, qsim.make_bell(kj).amps)
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-12

    def test_phi_plus_in_x_basis(self):
        # H (x) H maps Z eigenbasis to X eigenbasis; Phi+ keeps the same form
        b = qsim.make_bell(BellKind.PHI_PLUS)
        rotated = qsim.apply_gate(qsim.apply_gate(b, "H", 0), "H", 1)
        assert np.allclose(rotated.amps, b.amps, atol=1e-12)

    def test_dense_coding_states_pairwise_orthogonal(self):
        states = [qsim.apply_gate(qsim.make_bell(BellKind.PHI_PLUS), g, 0).amps
                  for g in ("I", "X", "Y", "Z")]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(states[i], states[j])) <= 1e-12

    def test_bell_measure_identifies_encodings(self):
        b = qsim.make_bell(BellKind.PHI_PLUS)
        assert qsim.bell_measure(b) == BellKind.PHI_PLUS
        assert qsim.bell_measure(qsim.apply_gate(b, "X", 0)) == BellKind.PSI_PLUS
        assert qsim.bell_measure(qsim.apply_gate(b, "Y", 0)) == BellKind.PSI_MINUS
        assert qsim.bell_measure(qsim.apply_gate(b, "Z", 0)) == BellKind.PHI_MINUS

    @pytest.mark.parametrize("kind", list(BellKind), ids=lambda kind: kind.value)
    def test_bell_measure_ignores_qubit_order(self, kind):
        """A qubit swap maps each Bell state to itself up to a sign, which is
        why bell_measure takes no qubit order."""
        swapped = qsim.make_bell(kind).amps.reshape(2, 2).T.reshape(-1)
        assert qsim.bell_measure(PureState(swapped)) == kind

    def test_bell_measure_rejects_product_state(self):
        with pytest.raises(ValueError):
            qsim.bell_measure(qsim.tensor(qsim.ZERO, qsim.ZERO))


class TestTensor:
    def test_zero_plus_preparation(self):
        state = qsim.tensor(qsim.ZERO, qsim.PLUS)
        assert np.allclose(state.amps, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_zero_zero(self):
        assert np.allclose(qsim.tensor(qsim.ZERO, qsim.ZERO).amps, [1, 0, 0, 0])

    def test_overflow_rejected(self):
        two = qsim.tensor(qsim.ZERO, qsim.ZERO)
        with pytest.raises(ValueError):
            qsim.tensor(two, two)


class TestDensity:
    def test_pure_state_projector(self):
        rho = qsim.density_of([qsim.ZERO])
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_bell_half_is_maximally_mixed(self):
        # oracle: direct 2x2 partial trace of the 4x4 projector
        b = qsim.make_bell(BellKind.PHI_PLUS)
        proj = np.outer(b.amps, b.amps.conj())
        oracle = np.array([[proj[0, 0] + proj[1, 1], proj[0, 2] + proj[1, 3]],
                           [proj[2, 0] + proj[3, 1], proj[2, 2] + proj[3, 3]]])
        assert np.allclose(oracle, np.eye(2) / 2)
        rho = qsim.density_of([b], keep=[0])
        assert np.allclose(rho.entries, oracle, atol=1e-12)

    def test_plus_minus_mixture_is_maximally_mixed(self):
        # oracle: direct matrix sum of the two projectors
        oracle = 0.5 * (np.outer(qsim.PLUS.amps, qsim.PLUS.amps.conj())
                        + np.outer(qsim.MINUS.amps, qsim.MINUS.amps.conj()))
        assert np.allclose(oracle, np.eye(2) / 2)
        rho = qsim.density_of([qsim.PLUS, qsim.MINUS])
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            qsim.density_of([qsim.ZERO, qsim.ONE], weights=[0.7, 0.7])
        with pytest.raises(ValueError):
            qsim.density_of([qsim.ZERO, qsim.ONE], weights=[-0.5, 1.5])


def random_density(seed, dim=2):
    g = np.random.default_rng(seed)
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    m = a @ a.conj().T
    return qsim.DensityMatrix(m / np.trace(m).real)


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(0)
        assert qsim.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        d = qsim.trace_distance(qsim.density_of([qsim.ZERO]), qsim.density_of([qsim.ONE]))
        assert abs(d - 1.0) <= 1e-12

    def test_global_phase_invisible_in_density(self):
        # X|0> = |1>, Y|0> = -|1>: identical density matrices
        dx = qsim.density_of([qsim.apply_gate(qsim.ZERO, "X", 0)])
        dy = qsim.density_of([qsim.apply_gate(qsim.ZERO, "Y", 0)])
        assert qsim.trace_distance(dx, dy) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qsim.trace_distance(random_density(0, 2), random_density(0, 4))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties_on_random_triples(self, seed):
        a, b, c = (random_density(3 * seed + k) for k in range(3))
        dab = qsim.trace_distance(a, b)
        assert dab >= 0.0
        assert abs(dab - qsim.trace_distance(b, a)) <= 1e-12
        assert dab <= qsim.trace_distance(a, c) + qsim.trace_distance(c, b) + 1e-12
        assert dab <= 1.0 + 1e-12


class TestGlobalPhase:
    def test_sign_flip_is_equal(self):
        minus_one = PureState([0, -1])
        assert qsim.equal_up_to_global_phase(qsim.ONE, minus_one)

    def test_identical_states_equal(self):
        assert qsim.equal_up_to_global_phase(qsim.ZERO, qsim.ZERO)

    def test_orthogonal_states_differ(self):
        assert not qsim.equal_up_to_global_phase(qsim.ZERO, qsim.ONE)

    @given(st.floats(0, 2 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_any_phase_factor_is_equal(self, theta):
        rotated = PureState(np.exp(1j * theta) * qsim.PLUS.amps)
        assert qsim.equal_up_to_global_phase(qsim.PLUS, rotated)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qsim.equal_up_to_global_phase(qsim.ZERO, qsim.make_bell(BellKind.PHI_PLUS))
