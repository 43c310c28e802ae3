import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import adversary, protocol, qsim

#: the Bell states by index b = 2 * [the qubits differ] + [minus sign]
BELL_NAMES = ("phi+", "phi-", "psi+", "psi-")


def rng(seed=0):
    return np.random.default_rng(seed)


def kron(*states):
    """The register whose qubits are those of ``states``, in order."""
    return functools.reduce(np.kron, states)


def projector(state):
    return np.outer(state, state.conj())


def collapse(state, x_basis, u):
    """One-row ``measure_batch``, the one collapse in ``qsim``: the bit, which
    must be the bit ``measure`` reads, and the collapsed register."""
    bits, block = qsim.measure_batch(state[None], np.array([x_basis]), np.array([u]))
    assert bits[0] == qsim.measure(state, x_basis, u)
    return int(bits[0]), block[0]


#: the Hadamard (Z + X) / sqrt(2), a test oracle only: qsim has no H gate
HADAMARD = (qsim.PAULIS[1] + qsim.PAULIS[2]) / math.sqrt(2)


def gate_on(state, code, qubit):
    """Pauli gate ``code`` on one qubit of a two-qubit register:
    ``qsim.apply_gate`` on qubit 0, and the oracle kron(I, P) on qubit 1,
    where qsim has no gate."""
    if qubit == 0:
        return qsim.apply_gate(state, code)
    return np.kron(np.eye(2), qsim.PAULIS[code]) @ state


class TestGates:
    def test_matrices_are_unitary(self):
        for code, g in enumerate(qsim.PAULIS):
            assert np.max(np.abs(g.conj().T @ g - np.eye(2))) <= 1e-12, code

    def test_y_is_real_zx(self):
        assert np.array_equal(qsim.PAULIS[3], np.array([[0, 1], [-1, 0]]))
        assert np.allclose(qsim.PAULIS[3], qsim.PAULIS[1] @ qsim.PAULIS[2])

    def test_code_is_z_power_m1_times_x_power_m0(self):
        z = np.array([[1, 0], [0, -1]])
        x = np.array([[0, 1], [1, 0]])
        for m0, m1 in itertools.product((0, 1), (0, 1)):
            expected = np.linalg.matrix_power(z, m1) @ np.linalg.matrix_power(x, m0)
            assert np.array_equal(qsim.PAULIS[2 * m0 + m1], expected), (m0, m1)

    def test_codes_compose_by_xor_up_to_sign(self):
        # with the real Y, every product of two gates is +-1 times the gate
        # whose code is the XOR of theirs: YY = -I, XZ = -Y
        for a, b in itertools.product(range(4), range(4)):
            product = qsim.PAULIS[a] @ qsim.PAULIS[b]
            assert (np.array_equal(product, qsim.PAULIS[a ^ b])
                    or np.array_equal(product, -qsim.PAULIS[a ^ b])), (a, b)

    def test_x_eigenstates_are_the_hadamard_of_z_eigenstates(self):
        assert np.max(np.abs(HADAMARD @ HADAMARD - np.eye(2))) <= 1e-12
        for z_state, x_state in [(qsim.ZERO, qsim.PLUS), (qsim.ONE, qsim.MINUS)]:
            assert np.allclose(HADAMARD @ z_state, x_state, atol=1e-12)
            assert np.allclose(HADAMARD @ x_state, z_state, atol=1e-12)

    def test_y_on_zero_gives_minus_one(self):
        out = qsim.apply_gate(qsim.ZERO, 3)
        assert np.allclose(out, [0, -1])

    def test_identity_preserves_minus(self):
        out = qsim.apply_gate(qsim.MINUS, 0)
        assert np.allclose(out, qsim.MINUS)


class TestPureState:
    """A pure-state register is a read-only row, as is every shared table."""

    def test_immutable(self):
        # the amplitude arrays are shared (by the protocol's preparation
        # tables), so none of them may be written
        for amps in (qsim.ZERO, qsim.EIGENSTATES):
            with pytest.raises(ValueError):
                amps[0] = 0.6
        mine = np.array([0.6, 0.8], dtype=complex)
        out = qsim.apply_gate(mine, 0)
        mine[0] = 0.8  # the caller's own array stays writable
        assert out[0] == 0.6
        # an entangling isometry copies the arrays it validates too
        e, f = np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex)
        params = adversary.UeParams(1, 0, 0, 1, e, e, f, e)
        e[:] = [3, 0, 0, 0]
        assert params.e00[0] == 1 and params.e11[0] == 1
        assert adversary.ue_detection_probability(params) == 0.0

    @pytest.mark.parametrize("array", [
        *qsim.PAULIS,
        *(qsim.make_bell(b) for b in range(4)),
        qsim.PAULIS,
        *(getattr(adversary.UeParams.no_detection_point(), name) for name in ("e00", "e01", "e10", "e11")),
        qsim.ZERO, qsim.ONE, qsim.PLUS, qsim.MINUS,
        qsim.apply_gate(qsim.ZERO, 2),
        qsim.make_bell(3),
        qsim.apply_gate(qsim.make_bell(0), 3),
    ], ids=[*(f"pauli-{code}" for code in range(4)), *BELL_NAMES,
            "paulis", "e00", "e01", "e10", "e11",
            "zero", "one", "plus", "minus", "apply-gate", "make-bell", "encoded"])
    def test_shared_arrays_are_read_only(self, array):
        """Module tables are shared by every call that reads them, and a
        validated object's arrays by everyone holding it. The write stores
        the value already there, so a writable array is left intact."""
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


class TestMeasure:
    def test_zero_in_z_is_deterministic(self):
        for seed in range(20):
            bit, post = collapse(qsim.ZERO, False, rng(seed).random())
            assert bit == 0
            assert np.allclose(post, qsim.ZERO)

    def test_x_eigenstates_in_x_are_deterministic(self):
        for seed in range(10):
            assert qsim.measure(qsim.PLUS, True, rng(seed).random()) == 0
            assert qsim.measure(qsim.MINUS, True, rng(seed).random()) == 1

    def test_minus_in_z_is_unbiased(self):
        g = rng(7)
        n = 20_000
        ones = sum(qsim.measure(qsim.MINUS, False, g.random()) for _ in range(n))
        se = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 4 * se

    def test_born_rule_large_sample(self):
        # amplitude 0.6|0> + 0.8|1>, >= 1e5 trials within 4 standard errors
        state = np.array([0.6, 0.8], dtype=complex)
        g = rng(11)
        n = 100_000
        ones = sum(qsim.measure(state, False, g.random()) for _ in range(n))
        p = 0.64
        se = np.sqrt(p * (1 - p) / n)
        assert abs(ones / n - p) <= 4 * se

    def test_bell_halves_agree_in_z(self):
        g = rng(3)
        for _ in range(200):
            b0, post = collapse(qsim.make_bell(0), False, g.random())
            # qubit 1 alone, given that qubit 0 read b0
            b1 = qsim.measure(post.reshape(2, 2)[b0], False, g.random())
            assert b0 == b1

    def test_rejects_a_register_that_is_not_complex(self):
        # the memo keys a register by its bytes and reads them back as
        # complex: a float row of four amplitudes would read as one qubit
        with pytest.raises(TypeError, match="float64"):
            qsim.measure(np.array([0., 0., 1., 0.]), False, 0.5)

    def test_collapse_renormalizes(self):
        state = np.array([0.6, 0.8], dtype=complex)
        _, post = collapse(state, False, rng(0).random())
        assert abs(np.vdot(post, post).real - 1.0) <= 1e-10

    def test_immunity_of_encodings(self):
        # I and Z (codes 0 and 1) leave Z eigenstates fixed;
        # I and X (codes 0 and 2) leave X eigenstates fixed
        for code in (0, 1):
            for state, bit in [(qsim.ZERO, 0), (qsim.ONE, 1)]:
                for seed in range(5):
                    out = qsim.apply_gate(state, code)
                    assert qsim.measure(out, False, rng(seed).random()) == bit
        for code in (0, 2):
            for state, bit in [(qsim.PLUS, 0), (qsim.MINUS, 1)]:
                for seed in range(5):
                    out = qsim.apply_gate(state, code)
                    assert qsim.measure(out, True, rng(seed).random()) == bit


def random_state(n_qubits, seed):
    g = rng(seed)
    amps = g.normal(size=1 << n_qubits) + 1j * g.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def reference_measure(state, x_basis, u):
    """``qsim.measure`` as it was before its outcomes were memoized, verbatim
    but for its register type, its target, fixed at qubit 0, its draw, the
    uniform ``u`` in place of ``rng.random()``, and its p1, over both
    outcomes' squared norms."""
    pair = qsim.EIGENSTATES[2 * x_basis:2 * x_basis + 2]
    proj = qsim._project(state.reshape(1, 1, -1), pair)
    p0, p1 = (float(np.square(np.abs(proj[:, bit])).sum()) for bit in (0, 1))
    p1 /= p0 + p1
    bit = 1 if u < p1 else 0
    rest = proj[:, bit] / math.sqrt(p1 if bit else 1.0 - p1)
    return bit, (rest[:, None, :] * pair[bit][:, None]).reshape(-1)


def boundary_uniforms(state, x_basis):
    """Uniforms at, just below and just above the p1 that
    :func:`reference_measure` reads its draw against, those a Generator's
    ``random()`` can return (in [0, 1))."""
    pair = qsim.EIGENSTATES[2 * x_basis:2 * x_basis + 2]
    proj = qsim._project(state.reshape(1, 1, -1), pair)
    p0, p1 = (float(np.square(np.abs(proj[:, bit])).sum()) for bit in (0, 1))
    p1 /= p0 + p1
    return [u for u in (p1, np.nextafter(p1, 0.0), np.nextafter(p1, 1.0)) if 0.0 <= u < 1.0]


def assert_measures_as_reference(state, x_basis, u):
    """``measure`` reads the reference's bit, as an ``int``, and one-row
    ``measure_batch`` reads it too and collapses to the reference's register."""
    ref_bit, ref_post = reference_measure(state, x_basis, u)
    bit = qsim.measure(state, x_basis, u)
    assert type(bit) is int and bit == ref_bit
    assert np.array_equal(collapse(state, x_basis, u)[1], ref_post)


#: states whose Born probabilities are 0, 1/2 or 1, over one to three qubits
EXACT_STATES = [qsim.ZERO, qsim.ONE, qsim.PLUS, qsim.MINUS, qsim.make_bell(3),
                kron(qsim.MINUS, qsim.make_bell(0))]


class TestMeasureMemo:
    """``measure`` computes each register's Born probability once, keyed by
    its amplitude bytes; every call must still read as the unmemoized reference."""

    @given(st.one_of(st.sampled_from(EXACT_STATES),
                     st.builds(random_state, st.integers(1, 3), st.integers(0, 2**32 - 1))),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, state, x_basis, seed):
        other = random_state(len(state).bit_length() - 1, seed)
        for u in boundary_uniforms(state, x_basis):
            # first call, then a byte-equal copy, which finds the cached probability
            assert_measures_as_reference(state, x_basis, u)
            assert_measures_as_reference(state.copy(), x_basis, u)
            # a different register of the same width gets its own outcomes
            assert_measures_as_reference(other, x_basis, u)
            assert_measures_as_reference(state, x_basis, u)

    def test_outcomes_survive_eviction(self):
        state = random_state(3, 1)
        cases = [(x, u) for x in (False, True) for u in boundary_uniforms(state, x)]
        for x, u in cases:
            assert_measures_as_reference(state, x, u)
        for seed in range(qsim.OUTCOME_CACHE + 1):
            qsim.measure(random_state(1 + seed % 3, 1000 + seed), seed % 2, rng(seed).random())
        assert qsim._born.cache_info().currsize <= qsim.OUTCOME_CACHE
        for x, u in cases:
            assert_measures_as_reference(state, x, u)

    def test_repeated_register_is_computed_once(self):
        state = random_state(2, 5)
        qsim.measure(state, True, rng(0).random())
        info = qsim._born.cache_info()
        g = rng(1)
        bits = {qsim.measure(state.copy(), True, g.random()) for _ in range(50)}
        after = qsim._born.cache_info()
        # one lookup per call, every one a hit, and both outcomes read
        assert after.misses == info.misses and after.hits == info.hits + 50 and bits == {0, 1}

    @given(st.one_of(st.sampled_from(EXACT_STATES),
                     st.builds(random_state, st.integers(1, 3), st.integers(0, 2**32 - 1))),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_reads_the_block_born_probability(self, state, x_basis):
        # measure reads the Born probability every block check reads: at p1
        # and at the floats on either side of it
        p1 = qsim.probability_of_one(state[None], x_basis)[0]
        for u in (p1, np.nextafter(p1, 0.0), np.nextafter(p1, 1.0)):
            bit = qsim.measure(state, x_basis, float(u))
            assert type(bit) is int and bit == int(u < p1)


def assert_gates_as_batch(states, codes):
    """Each ``apply_gate`` result is the pre-memo arithmetic, one row of
    ``apply_batch``, and read-only."""
    for state, code in zip(states, codes, strict=True):
        out = qsim.apply_gate(state, code)
        assert np.array_equal(out, qsim.apply_batch(state[None], qsim.PAULIS[code])[0])
        assert not out.flags.writeable


class TestGateMemo:
    """``apply_gate`` computes each gated register once, keyed by its
    amplitude bytes and Pauli code; every call must still read as unmemoized."""

    @given(st.one_of(st.sampled_from([*EXACT_STATES, qsim.make_bell(0)]),
                     st.builds(random_state, st.integers(1, 3), st.integers(0, 2**32 - 1))),
           st.integers(0, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_batch_arithmetic(self, state, code, seed):
        # first call, then a byte-equal copy, which finds the cached register
        assert_gates_as_batch([state], [code])
        assert_gates_as_batch([state.copy()], [code])
        # more distinct registers than the cache holds, every code among them
        others = [random_state(1 + t % 3, seed + t) for t in range(qsim.OUTCOME_CACHE + 1)]
        assert_gates_as_batch(others, [t % 4 for t in range(len(others))])
        assert qsim._gated.cache_info().currsize <= qsim.OUTCOME_CACHE
        assert_gates_as_batch([state], [code])

    def test_honest_runs_fill_eight_gated_registers_and_five_born_keys(self):
        """Step 4 encodes |0> or |+> with one of four codes, and every check
        measures an eigenstate or an encoded payload: at the criterion-1 and
        the paper shape, the memos hold 8 gated registers and 5 Born keys,
        far under ``OUTCOME_CACHE``."""
        qsim._gated.cache_clear()
        qsim._born.cache_clear()
        for seed in range(100):
            protocol.run_honest(protocol.ProtocolConfig(N=1 + seed % 16, M=1, M2=1, K=1, seed=seed))
        for seed in range(10):
            protocol.run_honest(protocol.ProtocolConfig(N=50, M=50, M2=50, K=20, seed=seed))
        assert qsim._gated.cache_info().currsize == 8
        assert qsim._born.cache_info().currsize == 5

    @pytest.mark.parametrize("code", [-1, 4, True, 1.0], ids=["-1", "4", "True", "1.0"])
    def test_rejects_a_code_not_an_int_from_0_to_3(self, code):
        # before and after the register's code-1 result is cached: a bool or
        # a float equal to 1 must not find it, and nothing else is cached
        qsim._gated.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^a Pauli code must be an int from 0 to 3, got {code!r}$"):
                qsim.apply_gate(qsim.ZERO, code)
            assert np.array_equal(qsim.apply_gate(qsim.ZERO, 1), qsim.ZERO)
        assert qsim._gated.cache_info().currsize == 1


class TestMeasureBatch:
    @given(st.one_of(st.sampled_from(EXACT_STATES),
                     st.builds(random_state, st.integers(1, 3), st.integers(0, 2**32 - 1))),
           st.lists(st.booleans(), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_scalar_measure(self, state, x_basis, seed):
        u = rng(seed).random(len(x_basis))
        bits, collapsed = qsim.measure_batch(np.tile(state, (len(u), 1)), np.array(x_basis), u)
        assert bits.shape == u.shape and collapsed.shape == (len(u), len(state))
        for t, x in enumerate(x_basis):
            ref_bit, ref_post = reference_measure(state, x, u[t])
            assert bits[t] == ref_bit == qsim.measure(state, x, u[t])
            assert np.array_equal(collapsed[t], ref_post)

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_a_block_of_no_rows(self, width):
        empty = np.empty((0, width), complex)
        for x_basis in (np.empty(0, int), np.empty(0, bool)):
            bits, collapsed = qsim.measure_batch(empty, x_basis, np.empty(0))
            assert bits.shape == (0,) and bits.dtype == bool
            assert collapsed.shape == (0, width) and collapsed.dtype == complex

    def test_reads_u_against_born_probability(self):
        # 0.6|0> + 0.8|1>: P(1) = 0.64 in Z, P(-) = 0.02 in X
        state = np.array([[0.6, 0.8]] * 4, dtype=complex)
        bits, _ = qsim.measure_batch(state, np.array([False, False, True, True]),
                                     np.array([0.63, 0.65, 0.01, 0.03]))
        assert bits.tolist() == [True, False, True, False]


def take_probability_of_one(amps, x_basis):
    """``qsim.probability_of_one`` as it was when it gathered its bras from
    the whole eigenstate table at ``2 * x_basis + 1``, verbatim but for the
    outcome-0 bras at ``2 * x_basis`` and the division by both outcomes."""
    p0, p1 = (np.square(np.abs(qsim._project(amps, qsim.EIGENSTATES.take(2 * x_basis + bit, axis=0))))
              .sum(axis=1) for bit in (0, 1))
    return p1 / (p0 + p1)


class TestOneBras:
    """The outcome-0 and outcome-1 bras gathered from their own tables are
    the rows the eigenstate table gives at ``2 * x_basis`` and ``2 * x_basis + 1``."""

    @given(st.integers(1, 3), st.integers(0, 12), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_whole_table_gather(self, n_qubits, rows, seed, as_bool):
        g = rng(seed)
        amps = np.array([random_state(n_qubits, s) for s in g.integers(2**32, size=rows)],
                        dtype=complex).reshape(rows, 1 << n_qubits)
        x_basis = g.integers(2, size=rows)
        if as_bool:
            x_basis = x_basis.astype(bool)
        got, ref = qsim.probability_of_one(amps, x_basis), take_probability_of_one(amps, x_basis)
        assert got.dtype == ref.dtype and got.shape == ref.shape == (rows,) and np.array_equal(got, ref)
        # the block measurement of distinct rows reads each as the reference
        u = g.random(rows)
        bits, collapsed = qsim.measure_batch(amps, x_basis, u)
        assert bits.dtype == bool and bits.shape == (rows,)
        assert collapsed.dtype == complex and collapsed.shape == amps.shape
        for t in range(rows):
            ref_bit, ref_post = reference_measure(amps[t], x_basis[t], u[t])
            assert bits[t] == ref_bit and np.array_equal(collapsed[t], ref_post)

    @pytest.mark.parametrize("x_basis", [False, True])
    def test_scalar_basis_matches_the_whole_table_gather(self, x_basis):
        # qsim._born passes one bool for its one-row block
        for state in (*EXACT_STATES, *(random_state(n, seed) for n in (1, 2, 3) for seed in (5, 7))):
            got = qsim.probability_of_one(state[None], x_basis)
            assert np.array_equal(got, take_probability_of_one(state[None], x_basis))
            assert qsim._born(state.tobytes(), x_basis) == got[0]

    def test_tables_are_read_only_views_of_the_outcome_rows(self):
        assert np.array_equal(qsim._ZERO_BRAS, [qsim.ZERO, qsim.PLUS])
        assert np.array_equal(qsim._ONE_BRAS, [qsim.ONE, qsim.MINUS])
        assert not qsim._ZERO_BRAS.flags.writeable and not qsim._ONE_BRAS.flags.writeable


class TestBell:
    def test_phi_plus_amplitudes(self):
        b = qsim.make_bell(0)
        assert np.allclose(b, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_bell_states_orthonormal(self):
        for i in range(4):
            for j in range(4):
                ip = np.vdot(qsim.make_bell(i), qsim.make_bell(j))
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-12

    def test_phi_plus_in_x_basis(self):
        # H (x) H maps Z eigenbasis to X eigenbasis; Phi+ keeps the same form
        b = qsim.make_bell(0)
        rotated = np.kron(HADAMARD, HADAMARD) @ b
        assert np.allclose(rotated, b, atol=1e-12)

    def test_dense_coding_states_pairwise_orthogonal(self):
        states = [qsim.apply_gate(qsim.make_bell(0), code) for code in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(states[i], states[j])) <= 1e-12

    def test_bell_measure_identifies_encodings(self):
        """X^x then Z^z on either qubit of Phi+ gives Bell state 2x + z, the
        index the dense-coding readout divides back into (x, z)."""
        b = qsim.make_bell(0)
        for qubit in (0, 1):
            for x, z in itertools.product((0, 1), (0, 1)):
                state = b
                if x:
                    state = gate_on(state, 2, qubit)
                if z:
                    state = gate_on(state, 1, qubit)
                assert qsim.bell_measure(state) == 2 * x + z, (qubit, x, z)
            # Y = ZX, code 3, is the one gate Alice applies for the pair (1, 1)
            assert qsim.bell_measure(gate_on(b, 3, qubit)) == 3, qubit

    @pytest.mark.parametrize("b", range(4), ids=BELL_NAMES)
    def test_bell_measure_ignores_qubit_order(self, b):
        """A qubit swap maps each Bell state to itself up to a sign, which is
        why bell_measure takes no qubit order."""
        swapped = qsim.make_bell(b).reshape(2, 2).T.reshape(-1)
        assert qsim.bell_measure(swapped) == b

    def test_bell_measure_rejects_product_state(self):
        with pytest.raises(ValueError):
            qsim.bell_measure(kron(qsim.ZERO, qsim.ZERO))
        with pytest.raises(ValueError, match="requires a two-qubit state"):
            qsim.bell_measure(qsim.ZERO)


class TestDensity:
    def test_pure_state_projector(self):
        rho = projector(qsim.ZERO)
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_bell_half_is_maximally_mixed(self):
        # oracle: direct 2x2 partial trace of the 4x4 projector
        b = qsim.make_bell(0)
        proj = np.outer(b, b.conj())
        oracle = np.array([[proj[0, 0] + proj[1, 1], proj[0, 2] + proj[1, 3]],
                           [proj[2, 0] + proj[3, 1], proj[2, 2] + proj[3, 3]]])
        assert np.allclose(oracle, np.eye(2) / 2)

    def test_plus_minus_mixture_is_maximally_mixed(self):
        # oracle: direct matrix sum of the two projectors
        oracle = 0.5 * (np.outer(qsim.PLUS, qsim.PLUS.conj())
                        + np.outer(qsim.MINUS, qsim.MINUS.conj()))
        assert np.allclose(oracle, np.eye(2) / 2, atol=1e-12)


def random_density(seed, dim=2):
    g = np.random.default_rng(seed)
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(0)
        assert qsim.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        d = qsim.trace_distance(projector(qsim.ZERO), projector(qsim.ONE))
        assert abs(d - 1.0) <= 1e-12

    def test_global_phase_invisible_in_density(self):
        # X|0> = |1>, Y|0> = -|1>: identical density matrices
        dx = projector(qsim.apply_gate(qsim.ZERO, 2))
        dy = projector(qsim.apply_gate(qsim.ZERO, 3))
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
