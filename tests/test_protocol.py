import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import protocol, qsim
from qotsim.protocol import ProtocolConfig, ProtocolError, SequenceSlot, choice_state
from qotsim.qsim import Basis


def rng(seed=0):
    return np.random.default_rng(seed)


def make_worked_example_slots():
    """The four-qubit sequence |0+0+>: payload choices (0, 1), loyalty (0, 1)."""
    return [SequenceSlot(choice_state(c), choice=c, payload_index=i if i < 2 else None)
            for i, c in enumerate([0, 1, 0, 1])]


def reference_plan_reorder(slots, intended):
    """The three-tier scan that ``plan_reorder`` replaced, kept verbatim as
    the reference its queue must reproduce."""
    intended = [int(c) for c in intended]
    n = len(intended)
    used = [False] * len(slots)
    by_payload_index = {s.payload_index: k for k, s in enumerate(slots) if s.payload_index is not None}
    perm: list[int] = []
    for i, want in enumerate(intended):
        k = by_payload_index.get(i)
        if k is None or used[k] or slots[k].choice != want:
            k = next((j for j, s in enumerate(slots)
                      if not used[j] and s.payload_index is None and s.choice == want), None)
        if k is None:
            k = next((j for j, s in enumerate(slots) if not used[j] and s.choice == want), None)
        if k is None:
            raise ProtocolError(f"no surviving slot can realize choice {want} at position {i}")
        used[k] = True
        perm.append(k)
    perm.extend(j for j in range(len(slots)) if not used[j])
    return perm


def plan_or_error(plan, slots, intended):
    try:
        return plan(slots, intended)
    except ProtocolError as exc:
        return str(exc)


class TestPrepare:
    def test_worked_example_states_in_order(self):
        slots, pos, ids = protocol.bob_prepare_sequence([0, 1, 0, 1], 0, rng(), n_loyalty=2)
        assert pos == [] and ids == []
        expected = [qsim.ZERO, qsim.PLUS, qsim.ZERO, qsim.PLUS]
        for slot, want in zip(slots, expected):
            assert np.allclose(slot.state.amps, want.amps)
        assert [s.payload_index for s in slots] == [0, 1, None, None]

    def test_sequence_length_with_decoys(self):
        choices = [0] * 7  # N=3 plus 2K=4
        slots, pos, ids = protocol.bob_prepare_sequence(choices, 5, rng(1), n_loyalty=4)
        assert len(slots) == 12
        assert len(pos) == 5 and len(ids) == 5

    def test_non_decoy_states_are_zero_or_plus(self):
        g = rng(2)
        for _ in range(20):
            choices = [int(b) for b in g.integers(0, 2, size=6)]
            slots, _, _ = protocol.bob_prepare_sequence(choices, 4, g, n_loyalty=2)
            for s in slots:
                if s.choice is None:  # a decoy
                    continue
                assert any(np.allclose(s.state.amps, t.amps) for t in (qsim.ZERO, qsim.PLUS))

    def test_rejects_non_bit_choices(self):
        with pytest.raises(ProtocolError):
            protocol.bob_prepare_sequence([0, 2], 0, rng())


class TestChannelCheck:
    def test_untampered_channel_passes(self):
        g = rng(5)
        for m in (1, 5, 20):
            slots, pos, ids = protocol.bob_prepare_sequence([0, 1], m, g)
            res = protocol.alice_check_channel(slots, list(zip(pos, ids)), g)
            assert res.ok and res.error_rate == 0.0
            assert len(res.remaining) == 2

    def test_no_decoys_always_proceeds(self):
        slots, pos, ids = protocol.bob_prepare_sequence([0, 1], 0, rng())
        res = protocol.alice_check_channel(slots, [], rng())
        assert res.ok and res.error_rate == 0.0

    def test_position_out_of_range(self):
        slots, _, _ = protocol.bob_prepare_sequence([0, 1], 0, rng())
        with pytest.raises(ProtocolError):
            protocol.alice_check_channel(slots, [(9, 0)], rng())

    @pytest.mark.parametrize("decoy_id", [9, 4, -1])
    def test_decoy_id_out_of_range(self, decoy_id):
        slot = SequenceSlot(qsim.MINUS)
        with pytest.raises(ProtocolError):
            protocol.check_published_decoys([slot], [(0, decoy_id)], rng())

    def test_flipped_decoy_detected(self):
        slot = SequenceSlot(qsim.ONE)  # claims |0>, holds |1>
        res = protocol.alice_check_channel([slot], [(0, 0)], rng())
        assert not res.ok and res.error_rate == 1.0


class TestLoyalty:
    def test_honest_bob_always_passes(self):
        g = rng(9)
        for _ in range(30):
            slots, _, _ = protocol.bob_prepare_sequence([0, 1, 0, 1, 1, 0], 0, g, n_loyalty=4)
            res = protocol.alice_test_loyalty(slots, 3, g)
            assert res.ok and res.outcomes == [0, 0, 0]
            assert len(res.remaining) == 3

    def test_k_zero_is_vacuous(self):
        slots, _, _ = protocol.bob_prepare_sequence([0, 1], 0, rng())
        res = protocol.alice_test_loyalty(slots, 0, rng())
        assert res.ok and res.positions == []

    def test_k_exceeding_slots_rejected(self):
        slots, _, _ = protocol.bob_prepare_sequence([0, 1], 0, rng())
        with pytest.raises(ProtocolError):
            protocol.alice_test_loyalty(slots, 3, rng())

    def test_forced_positions(self):
        slots = make_worked_example_slots()
        res = protocol.alice_test_loyalty(slots, 1, rng(), positions=[3])
        assert res.positions == [3] and res.outcomes == [0]
        assert [s.choice for s in res.remaining] == [0, 1, 0]


class TestReorder:
    def test_worked_example_permutation(self):
        slots = make_worked_example_slots()
        remaining = protocol.alice_test_loyalty(slots, 1, rng(), positions=[3]).remaining
        payload = protocol.bob_reorder(remaining, [1, 0, 2], n_keep=2)
        assert [s.choice for s in payload] == [1, 0]
        assert np.allclose(payload[0].state.amps, qsim.PLUS.amps)
        assert np.allclose(payload[1].state.amps, qsim.ZERO.amps)

    def test_rejects_non_permutation(self):
        slots = make_worked_example_slots()
        with pytest.raises(ProtocolError):
            protocol.bob_reorder(slots, [0, 0, 1, 2], n_keep=2)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_preserves_state_multiset(self, seed):
        g = rng(seed)
        slots, _, _ = protocol.bob_prepare_sequence(
            [int(b) for b in g.integers(0, 2, size=5)], 0, g)
        perm = [int(p) for p in g.permutation(5)]
        reordered = protocol.bob_reorder(slots, perm, n_keep=5)
        before = sorted(tuple(np.round(s.state.amps, 12)) for s in slots)
        after = sorted(tuple(np.round(s.state.amps, 12)) for s in reordered)
        assert before == after

    def test_plan_reorder_backfills_consumed_payload(self):
        g = rng(4)
        choices = [0, 1, 1, 0]
        loyalty = protocol.default_loyalty_choices(2)
        slots, _, _ = protocol.bob_prepare_sequence(choices + loyalty, 0, g, n_loyalty=4)
        # consume two payload slots
        res = protocol.alice_test_loyalty(slots, 2, g, positions=[0, 2])
        perm = protocol.plan_reorder(res.remaining, choices)
        payload = protocol.bob_reorder(res.remaining, perm, n_keep=4)
        assert [s.choice for s in payload] == choices

    def test_plan_reorder_identity_when_untouched(self):
        slots, _, _ = protocol.bob_prepare_sequence([0, 1, 1], 0, rng())
        perm = protocol.plan_reorder(slots, [0, 1, 1])
        assert perm == [0, 1, 2]

    def test_plan_reorder_does_not_reuse_a_backfilled_payload_slot(self):
        slots = [SequenceSlot(qsim.PLUS, choice=1, payload_index=1)]
        with pytest.raises(ProtocolError):
            protocol.plan_reorder(slots, [1, 1])
        slots.append(SequenceSlot(qsim.ZERO, choice=0, payload_index=2))
        with pytest.raises(ProtocolError):
            protocol.plan_reorder(slots, [1, 1, 0])

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from([0, 1, None]), st.integers(0, 4)),
                    max_size=8),
           st.lists(st.integers(0, 1), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_plan_reorder_is_a_permutation_or_raises(self, specs, intended):
        slots = [SequenceSlot(qsim.ZERO, choice=choice, payload_index=index if payload else None)
                 for payload, choice, index in specs]
        feasible = all(intended.count(c) <= [s.choice for s in slots].count(c) for c in (0, 1))
        try:
            perm = protocol.plan_reorder(slots, intended)
        except ProtocolError:
            assert not feasible
            return
        assert sorted(perm) == list(range(len(slots)))
        assert [slots[k].choice for k in perm[:len(intended)]] == intended

    # a slot is (choice, payload_index): payload and loyalty slots carry a bit,
    # decoys and a cheating Bob's Bell slots carry None, and payload indices
    # repeat; the intended string may hold a non-bit entry
    @given(st.lists(st.tuples(st.sampled_from([0, 1, None]), st.none() | st.integers(0, 5)),
                    max_size=12),
           st.lists(st.integers(0, 1) | st.just(2), max_size=10))
    @settings(max_examples=500, deadline=None)
    def test_plan_reorder_matches_the_three_tier_scan(self, specs, intended):
        slots = [SequenceSlot(qsim.ZERO, choice=choice, payload_index=index)
                 for choice, index in specs]
        assert (plan_or_error(protocol.plan_reorder, slots, intended)
                == plan_or_error(reference_plan_reorder, slots, intended))

    def test_plan_reorder_is_linear_at_paper_scale(self):
        """N = 20,000 and K = 10,000 after the loyalty test has taken K
        slots; a scan from index 0 for every vacated position takes seconds."""
        N, K = 20_000, 10_000
        g = rng(5)
        choices = [int(c) for c in g.integers(0, 2, size=N)]
        slots = [SequenceSlot(choice_state(c), choice=c, payload_index=i if i < N else None)
                 for i, c in enumerate(choices + protocol.default_loyalty_choices(K))]
        tested = set(g.choice(len(slots), size=K, replace=False).tolist())
        remaining = [s for k, s in enumerate(slots) if k not in tested]
        start = time.perf_counter()
        perm = protocol.plan_reorder(remaining, choices)
        assert time.perf_counter() - start < 2.0
        assert [remaining[k].choice for k in perm[:N]] == choices


class TestEncodingArrays:
    def test_arrays_follow_the_scalar_encoding(self):
        for did, state in enumerate(protocol.DECOY_STATES):
            assert np.array_equal(protocol.DECOY_AMPS[did], state.amps)
        ids, bits = np.meshgrid(np.arange(4), np.arange(2))
        assert protocol.decoy_flipped(ids, bits).tolist() == [
            [bool(protocol.decoy_flipped(int(d), int(b))) for d in range(4)] for b in range(2)]


class TestDecoyIds:
    def test_id_is_basis_then_bit_in_qsim_order(self):
        for did, state in enumerate(protocol.DECOY_STATES):
            basis = protocol.decoy_basis(did)
            assert did == 2 * (basis is Basis.X) + did % 2
            # each decoy state reads its own bit in its own basis
            bit, _ = qsim.measure(state, basis, 0, rng())
            assert bit == did % 2 and not protocol.decoy_flipped(did, bit)
        for choice in (0, 1):
            assert choice_state(choice) is protocol.DECOY_STATES[2 * choice]

    @given(st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_scalar_check_matches_block_flips(self, seed, bell, specs, data):
        # a published set of same-width slots: decoy states, or Bell pairs
        if bell:
            kinds = list(qsim.BellKind)
            slots = [SequenceSlot(qsim.make_bell(kinds[k])) for k, _ in specs]
        else:
            slots = [SequenceSlot(protocol.DECOY_STATES[k]) for k, _ in specs]
        positions = data.draw(st.permutations(range(len(slots))))[:data.draw(
            st.integers(1, len(slots)))]
        published = [(p, specs[p][1]) for p in positions]
        check = protocol.check_published_decoys(slots, published, rng(seed))
        amps = np.array([slots[p].state.amps for p in positions])
        ids = np.array([did for _, did in published])
        flips = protocol.decoy_flips(amps, ids, rng(seed).random(len(published)))
        assert check.outcomes == flips.astype(int).tolist()


#: rows whose Born probabilities for qubit 0 are 0, 1/2 or 1, over one to three qubits
EXACT_ROWS = [s.amps for s in (
    *protocol.DECOY_STATES, *(qsim.make_bell(k) for k in qsim.BellKind),
    qsim.tensor(qsim.PLUS, qsim.ONE), qsim.tensor(qsim.MINUS, qsim.make_bell(qsim.BellKind.PHI_PLUS)),
    qsim.tensor(qsim.make_bell(qsim.BellKind.PSI_MINUS), qsim.ZERO))]


def random_row(n_qubits, seed):
    g = rng(seed)
    amps = g.normal(size=1 << n_qubits) + 1j * g.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


@st.composite
def decoy_check_blocks(draw):
    """A block of same-width rows, exact or random, with a decoy id per row."""
    n = draw(st.integers(1, 3))
    row = st.one_of(st.sampled_from([r for r in EXACT_ROWS if len(r) == 1 << n]),
                    st.integers(0, 2 ** 32 - 1).map(lambda seed: random_row(n, seed)))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    ids = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    return np.array(rows), np.array(ids)


class TestFlipCheck:
    @given(decoy_check_blocks(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_flips_match_full_measurement(self, block, seed):
        # decoy_flips reads only the Born probability; the full block and
        # scalar measurements, reading the same uniforms, must agree with it
        amps, ids = block
        u = rng(seed).random(len(ids))
        flips = protocol.decoy_flips(amps, ids, u)
        bits, _ = qsim.measure_batch(amps, ids >= 2, u)
        assert np.array_equal(flips, protocol.decoy_flipped(ids, bits))
        g = rng(seed)
        scalar = [protocol.decoy_flipped(int(did), qsim.measure(
            qsim.PureState(row), protocol.decoy_basis(int(did)), 0, g)[0])
            for row, did in zip(amps, ids)]
        assert flips.tolist() == scalar


class TestEncodeDecode:
    @pytest.mark.parametrize("pair", sorted(protocol.PAULI_CODE))
    @pytest.mark.parametrize("state", [*protocol.DECOY_STATES, qsim.make_bell(qsim.BellKind.PHI_PLUS)],
                             ids=["0", "1", "+", "-", "phi+"])
    def test_encoding_equals_the_gate(self, pair, state):
        encoded = protocol.alice_encode([SequenceSlot(state)], [pair])[0].state.amps
        assert np.array_equal(encoded, qsim.apply_gate(state, protocol.PAULI_CODE[pair], 0).amps)

    def test_block_encoding_equals_the_gate_per_slot(self):
        # one block of every pair over every decoy state, so rows cannot mix
        cases = [(did, pair) for did in range(4) for pair in sorted(protocol.PAULI_CODE)]
        slots = [SequenceSlot(protocol.DECOY_STATES[did]) for did, _ in cases]
        encoded = protocol.alice_encode(slots, [pair for _, pair in cases])
        for slot, (did, pair) in zip(encoded, cases):
            expected = qsim.apply_gate(protocol.DECOY_STATES[did], protocol.PAULI_CODE[pair], 0)
            assert np.array_equal(slot.state.amps, expected.amps)

    def test_pair_01_turns_plus_into_minus(self):
        slot = SequenceSlot(qsim.PLUS, choice=1)
        out = protocol.alice_encode([slot], [(0, 1)])
        assert np.allclose(out[0].state.amps, qsim.MINUS.amps)

    def test_pair_10_turns_zero_into_one(self):
        slot = SequenceSlot(qsim.ZERO, choice=0)
        out = protocol.alice_encode([slot], [(1, 0)])
        assert np.allclose(out[0].state.amps, qsim.ONE.amps)

    def test_pair_00_leaves_state_unchanged(self):
        for state in (qsim.ZERO, qsim.PLUS):
            slot = SequenceSlot(state, choice=0)
            out = protocol.alice_encode([slot], [(0, 0)])
            assert np.allclose(out[0].state.amps, state.amps)

    def test_pair_count_mismatch(self):
        slot = SequenceSlot(qsim.ZERO, choice=0)
        with pytest.raises(ProtocolError):
            protocol.alice_encode([slot], [(0, 0), (1, 1)])

    @pytest.mark.parametrize("pair", [(0, 2), (-1, 0), (1, 3)])
    def test_rejects_non_bit_pair(self, pair):
        slot = SequenceSlot(qsim.ZERO, choice=0)
        with pytest.raises(ProtocolError, match="bits"):
            protocol.alice_encode([slot], [pair])

    @given(st.integers(0, 1), st.tuples(st.integers(0, 1), st.integers(0, 1)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_encode_then_decode_returns_chosen_bit(self, choice, pair, seed):
        g = rng(seed)
        slots, _, _ = protocol.bob_prepare_sequence([choice], 0, g)
        encoded = protocol.alice_encode(slots, [pair])
        res = protocol.bob_check_and_decode(encoded, [], [choice], g)
        assert res.ok and res.bits == [pair[choice]]

    def test_decode_minus_in_x_gives_one(self):
        slot = SequenceSlot(qsim.MINUS)
        res = protocol.bob_check_and_decode([slot], [], [1], rng())
        assert res.ok and res.bits == [1]

    def test_decode_one_in_z_gives_one(self):
        slot = SequenceSlot(qsim.ONE)
        res = protocol.bob_check_and_decode([slot], [], [0], rng())
        assert res.ok and res.bits == [1]

    def test_decode_identity_encoded_zero(self):
        slot = SequenceSlot(qsim.ZERO)
        encoded = protocol.alice_encode([slot], [(0, 0)])
        res = protocol.bob_check_and_decode(encoded, [], [0], rng())
        assert res.bits == [0]

    def test_alice_decoy_insertion_lengths(self):
        slots = [SequenceSlot(qsim.ZERO, choice=0) for _ in range(3)]
        grown, pos, ids = protocol.alice_insert_decoys(slots, 5, rng(1))
        assert len(grown) == 8 and len(pos) == 5
        same, pos0, _ = protocol.alice_insert_decoys(slots, 0, rng(1))
        assert len(same) == 3 and pos0 == []

    def test_decoy_ids_roughly_uniform(self):
        # chi-square against uniform over the four decoy states, alpha = 1e-3
        g = rng(12)
        counts = np.zeros(4)
        for _ in range(200):
            _, _, ids = protocol.alice_insert_decoys(
                [SequenceSlot(qsim.ZERO, choice=0)], 10, g)
            for i in ids:
                counts[i] += 1
        n = counts.sum()
        chi2 = float(np.sum((counts - n / 4) ** 2 / (n / 4)))
        assert chi2 < 16.27  # chi-square 3 dof, upper 1e-3 quantile


class TestHonestRuns:
    def test_worked_example_run(self):
        cfg = ProtocolConfig(N=2, M=0, M2=0, K=1, seed=5)
        t = protocol.run_honest(cfg, choices=[1, 0], pairs=[(0, 1), (1, 0)])
        assert t.verdict == "ok"
        assert t.decoded_bits == [1, 1]

    def test_all_zero_pairs_decode_to_zero(self):
        cfg = ProtocolConfig(N=5, M=2, M2=2, K=2, seed=9)
        t = protocol.run_honest(cfg, pairs=[(0, 0)] * 5)
        assert t.verdict == "ok" and t.decoded_bits == [0] * 5

    def test_rejects_non_bit_pair(self):
        with pytest.raises(ProtocolError, match="bits"):
            protocol.run_honest(ProtocolConfig(N=1, seed=0), pairs=[(0, 2)])

    def test_monte_carlo_honest_correctness(self):
        errors = 0
        for seed in range(300):
            cfg = ProtocolConfig(N=1 + seed % 8, M=2, M2=2, K=1, seed=seed)
            t = protocol.run_honest(cfg)
            assert t.verdict == "ok"
            expected = [t.pairs[i][t.choices[i]] for i in range(cfg.N)]
            errors += sum(1 for i in range(cfg.N) if t.decoded_bits[i] != expected[i])
        assert errors == 0

    def test_sequence_length_conservation(self):
        cfg = ProtocolConfig(N=3, M=4, M2=5, K=2, seed=1)
        g = np.random.default_rng([cfg.seed, 1])
        choices = [0, 1, 0]
        slots, pos, ids = protocol.bob_prepare_sequence(
            choices + protocol.default_loyalty_choices(cfg.K), cfg.M, g, n_loyalty=2 * cfg.K)
        assert len(slots) == cfg.N + cfg.M + 2 * cfg.K
        check = protocol.alice_check_channel(slots, list(zip(pos, ids)), g)
        assert len(check.remaining) == cfg.N + 2 * cfg.K
        loyalty = protocol.alice_test_loyalty(check.remaining, cfg.K, g)
        perm = protocol.plan_reorder(loyalty.remaining, choices)
        payload = protocol.bob_reorder(loyalty.remaining, perm, cfg.N)
        assert len(payload) == cfg.N
        outbound, _, _ = protocol.alice_insert_decoys(payload, cfg.M2, g)
        assert len(outbound) == cfg.N + cfg.M2

    def test_small_batch_clean(self):
        for i in range(50):
            cfg = ProtocolConfig(N=2 + i % 4, M=1, M2=1, K=1, seed=i)
            t = protocol.run_honest(cfg)
            assert t.verdict == "ok"
            assert t.decoded_bits == [t.pairs[k][t.choices[k]] for k in range(cfg.N)]
            assert t.qubits_used == cfg.sequence_length + cfg.M2

    @pytest.mark.parametrize("sizes", [{"N": 10**9}, {"N": 1, "K": 10**9},
                                       {"N": 1, "M2": protocol.MAX_QUBITS_USED}])
    def test_register_size_is_capped(self, sizes):
        with pytest.raises(ProtocolError, match="at most"):
            ProtocolConfig(**sizes)

    def test_register_size_cap_is_inclusive(self):
        cfg = ProtocolConfig(N=1, M2=protocol.MAX_QUBITS_USED - 1)
        assert cfg.sequence_length + cfg.M2 == protocol.MAX_QUBITS_USED

    def test_qubit_accounting(self):
        cfg = ProtocolConfig(N=6, M=50, M2=50, K=20, seed=3)
        t = protocol.run_honest(cfg)
        assert t.qubits_used == cfg.N + 140


class TestChoiceHiding:
    def test_preparations_have_half_overlap(self):
        assert abs(abs(np.vdot(qsim.ZERO.amps, qsim.PLUS.amps)) ** 2 - 0.5) <= 1e-12

    def test_single_copy_guess_bounded_by_three_quarters(self):
        # every fixed (basis, guess-rule) strategy on one copy succeeds with
        # probability <= 3/4 over a uniform choice
        g = rng(21)
        n = 20_000
        se = np.sqrt(0.25 / n)
        strategies = [
            (Basis.Z, {0: 0, 1: 1}), (Basis.Z, {0: 1, 1: 1}), (Basis.Z, {0: 0, 1: 0}),
            (Basis.X, {0: 1, 1: 0}), (Basis.X, {0: 0, 1: 0}), (Basis.X, {0: 1, 1: 1}),
        ]
        for basis, rule in strategies:
            wins = 0
            for _ in range(n):
                j = int(g.integers(2))
                bit, _ = qsim.measure(choice_state(j), basis, 0, g)
                wins += rule[bit] == j
            assert wins / n <= 0.75 + 4 * se


class TestTranscripts:
    def test_same_seed_reproduces_transcript(self):
        cfg = ProtocolConfig(N=4, M=3, M2=3, K=2, seed=77)
        a = protocol.run_honest(cfg).to_json_line()
        b = protocol.run_honest(cfg).to_json_line()
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(N=4, M=3, M2=3, K=2)
        a = protocol.run_honest(ProtocolConfig(seed=1, **base)).to_json_line()
        b = protocol.run_honest(ProtocolConfig(seed=2, **base)).to_json_line()
        assert a != b

    def test_replay_verifies(self):
        cfg = ProtocolConfig(N=3, M=2, M2=2, K=1, seed=13)
        line = protocol.run_honest(cfg).to_json_line()
        ok, detail = protocol.replay_transcript(line)
        assert ok, detail

    def test_replay_detects_tampered_bit(self):
        cfg = ProtocolConfig(N=3, M=2, M2=2, K=1, seed=13)
        t = protocol.run_honest(cfg)
        t.decoded_bits[0] ^= 1
        ok, detail = protocol.replay_transcript(t.to_json_line())
        assert not ok and "decoded_bits" in detail

    def test_replay_rejects_version_mismatch(self):
        cfg = ProtocolConfig(N=2, seed=0)
        line = protocol.run_honest(cfg).to_json_line().replace('"version":1', '"version":99')
        with pytest.raises(ProtocolError):
            protocol.replay_transcript(line)


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(N=0)
        with pytest.raises(ProtocolError):
            ProtocolConfig(N=1, M=-1)
        with pytest.raises(ProtocolError):
            ProtocolConfig(N=1, tau=1.5)
