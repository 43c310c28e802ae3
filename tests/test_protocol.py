import functools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import protocol, qsim
from qotsim.protocol import (_DECOY_IDS, CheckResult, ProtocolConfig, ProtocolError, SequenceSlot,
                             choice_state, decoy_flipped)


def rng(seed=0):
    return np.random.default_rng(seed)


def kron(*states):
    """The register whose qubits are those of ``states``, in order."""
    return functools.reduce(np.kron, states)


def make_worked_example_slots():
    """The four-qubit sequence |0+0+>: payload choices (0, 1), loyalty (0, 1)."""
    return [SequenceSlot(choice_state(c), choice=c, payload_index=i if i < 2 else None)
            for i, c in enumerate([0, 1, 0, 1])]


#: rows whose Born probabilities for qubit 0 are 0, 1/2 or 1, over one to three qubits
EXACT_ROWS = [
    *protocol.DECOY_AMPS, *(qsim.make_bell(b) for b in range(4)),
    kron(qsim.PLUS, qsim.ONE), kron(qsim.MINUS, qsim.make_bell(0)),
    kron(qsim.make_bell(3), qsim.ZERO)]

#: the message pairs (m0, m1), in the order of their Pauli codes 2 * m0 + m1
PAIRS = [divmod(code, 2) for code in range(4)]


def random_row(n_qubits, seed):
    g = rng(seed)
    amps = g.normal(size=1 << n_qubits) + 1j * g.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


@st.composite
def published_checks(draw):
    """Slots of one to three qubits, exact or random, some of them one shared
    object, and published position and id lists of equal length: a valid
    record, or positions and ids drawn past their ranges and repeated."""
    rows = st.one_of(st.sampled_from(EXACT_ROWS),
                     st.tuples(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
                     .map(lambda spec: random_row(*spec)))
    distinct = draw(st.lists(rows.map(SequenceSlot), min_size=1, max_size=4))
    slots = draw(st.lists(st.sampled_from(distinct), max_size=10))
    n = len(slots)
    if draw(st.booleans()):
        positions = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        ids = st.integers(0, 3)
    else:
        positions = draw(st.lists(st.integers(-2, n + 1), max_size=n + 2))
        ids = st.integers(-1, 4)
    return slots, positions, draw(st.lists(ids, min_size=len(positions), max_size=len(positions)))


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


def reference_check(slots, published, rng, tau):
    """The pair-based body that ``check_published_decoys`` replaced, kept
    verbatim as the reference its position and id lists must reproduce;
    ``published`` is a list of (position, decoy_id) pairs."""
    positions = [pos for pos, _ in published]
    if positions and (min(positions) < 0 or max(positions) >= len(slots)):
        raise ProtocolError("published decoy position out of range")
    tested = set(positions)
    if len(tested) != len(published):
        raise ProtocolError("duplicate published decoy position")
    if not _DECOY_IDS.issuperset([did for _, did in published]):
        raise ProtocolError("published decoy id out of range")
    u = rng.random(len(published)).tolist()
    outcomes = [int(decoy_flipped(did, qsim.measure(slots[pos].state, did >= 2, u_pos)))
                for (pos, did), u_pos in zip(published, u)]
    error_rate = sum(outcomes) / len(published) if published else 0.0
    remaining = [s for i, s in enumerate(slots) if i not in tested]
    return CheckResult(error_rate, error_rate <= tau, positions, outcomes, remaining)


def check_or_error(check, *args):
    """A check's fields, its remaining slots by identity, or the type and
    message of what it raised; any exception type, so that a change of type
    shows as a difference."""
    try:
        res = check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return res.error_rate, res.ok, res.positions, res.outcomes, [id(s) for s in res.remaining]


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
            assert np.allclose(slot.state, want)
        assert [s.payload_index for s in slots] == [0, 1, None, None]

    def test_sequence_length_with_decoys(self):
        choices = [0] * 7  # N=3 plus 2K=4
        for M in (1, 5):
            slots, pos, ids = protocol.bob_prepare_sequence(choices, M, rng(1), n_loyalty=4)
            assert len(slots) == 7 + M
            assert len(pos) == M and len(ids) == M
            assert all(np.array_equal(slots[p].state, protocol.DECOY_AMPS[did])
                       for p, did in zip(pos, ids))

    def test_non_decoy_states_are_zero_or_plus(self):
        g = rng(2)
        for _ in range(20):
            choices = [int(b) for b in g.integers(0, 2, size=6)]
            slots, _, _ = protocol.bob_prepare_sequence(choices, 4, g, n_loyalty=2)
            for s in slots:
                if s.choice is None:  # a decoy
                    continue
                assert any(np.allclose(s.state, t) for t in (qsim.ZERO, qsim.PLUS))

    def test_rejects_non_bit_choices(self):
        with pytest.raises(ProtocolError):
            protocol.bob_prepare_sequence([0, 2], 0, rng())
        with pytest.raises(ProtocolError, match="loyalty count exceeds choice count"):
            protocol.bob_prepare_sequence([0, 1], 0, rng(), n_loyalty=3)


class TestChannelCheck:
    def test_untampered_channel_passes(self):
        g = rng(5)
        for m in (1, 5, 20):
            slots, pos, ids = protocol.bob_prepare_sequence([0, 1], m, g)
            res = protocol.alice_check_channel(slots, pos, ids, g)
            assert res.ok and res.error_rate == 0.0
            assert len(res.remaining) == 2

    def test_no_decoys_always_proceeds(self):
        slots, pos, ids = protocol.bob_prepare_sequence([0, 1], 0, rng())
        res = protocol.alice_check_channel(slots, [], [], rng())
        assert res.ok and res.error_rate == 0.0

    def test_position_out_of_range(self):
        slots, _, _ = protocol.bob_prepare_sequence([0, 1], 0, rng())
        with pytest.raises(ProtocolError):
            protocol.alice_check_channel(slots, [9], [0], rng())
        with pytest.raises(ProtocolError, match="duplicate published decoy position"):
            protocol.check_published_decoys(slots, [1, 1], [0, 2], rng())

    @pytest.mark.parametrize("decoy_id", [9, 4, -1])
    def test_decoy_id_out_of_range(self, decoy_id):
        slot = SequenceSlot(qsim.MINUS)
        with pytest.raises(ProtocolError):
            protocol.check_published_decoys([slot], [0], [decoy_id], rng())

    def test_flipped_decoy_detected(self):
        slot = SequenceSlot(qsim.ONE)  # claims |0>, holds |1>
        res = protocol.alice_check_channel([slot], [0], [0], rng())
        assert not res.ok and res.error_rate == 1.0

    def test_rejects_a_register_that_is_not_complex(self):
        # the memo reads a register's bytes back as complex; a float slot
        # is reported by its dtype at the check, not misread as one qubit
        slot = SequenceSlot(np.array([0., 0., 1., 0.]))
        with pytest.raises(TypeError, match="float64"):
            protocol.check_published_decoys([slot], [0], [0], rng())


class TestCheckDraws:
    """A check draws its uniforms from the caller's stream: one per published
    slot, in published order, and none when it has nothing to measure."""

    @given(st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_uniform_per_pair_in_order(self, seed, data):
        # |+> and |-> read in Z, and |0> and |1> in X, flip with probability
        # about 1/2, so each outcome shows which uniform it read
        n = data.draw(st.integers(1, 12))
        states = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        slots = [SequenceSlot(protocol.DECOY_AMPS[d]) for d in states]
        positions = data.draw(st.permutations(range(n)))
        ids = [(2 + states[p]) % 4 for p in positions]
        g, twin = rng(seed), rng(seed)
        check = protocol.check_published_decoys(slots, positions, ids, g)
        u = twin.random(n)
        assert check.outcomes == [
            int(protocol.decoy_flipped(did, qsim.measure(slots[p].state, did >= 2, u[i])))
            for i, (p, did) in enumerate(zip(positions, ids))]
        assert g.random() == twin.random()

    def test_an_empty_check_draws_nothing(self):
        g = rng(4)
        check = protocol.check_published_decoys([SequenceSlot(qsim.PLUS)], [], [], g)
        assert check.ok and check.outcomes == []
        assert g.random() == rng(4).random()

    @pytest.mark.parametrize("positions, ids, message", [
        ([0, 1, 5, 1], [0, 0, 9, 9], "position out of range"),
        ([0, -1], [0, 0], "position out of range"),
        ([0, 1, 1], [0, 9, 0], "duplicate published decoy position"),
        ([0, 1], [0, 9], "decoy id out of range"),
        ([0, 5], [9], "^2 published decoy positions for 1 ids$"),
    ], ids=["range-before-duplicate-and-id", "negative", "duplicate-before-id", "id",
            "length-before-range"])
    def test_a_rejected_check_draws_nothing(self, positions, ids, message):
        g = rng(4)
        slots = [SequenceSlot(qsim.PLUS), SequenceSlot(qsim.ZERO)]
        with pytest.raises(ProtocolError, match=message):
            protocol.check_published_decoys(slots, positions, ids, g)
        assert g.random() == rng(4).random()

    @given(published_checks(), st.sampled_from([0.0, 0.3]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pair_based_reference(self, case, tau, seed):
        slots, positions, ids = case
        g, twin = rng(seed), rng(seed)
        got = check_or_error(protocol.check_published_decoys, slots, positions, ids, g, tau)
        want = check_or_error(reference_check, slots, list(zip(positions, ids)), twin, tau)
        assert got == want
        if isinstance(got[0], float):
            assert all(type(o) is int for o in got[3]) and type(got[2]) is list
        assert g.random() == twin.random()


class TestDecoyInsertion:
    def test_decoys_of_one_id_share_one_slot(self):
        payload = [SequenceSlot(qsim.ZERO, choice=0, payload_index=0)]
        out, positions, ids = protocol.insert_decoys(payload, 40, rng(6))
        decoys = [out[p] for p in positions]
        by_id = {did: slot for did, slot in zip(ids, decoys)}
        assert set(by_id) == {0, 1, 2, 3}
        assert all(slot is by_id[did] for did, slot in zip(ids, decoys))
        for did, slot in by_id.items():
            assert slot.choice is None and slot.payload_index is None
            assert np.array_equal(slot.state, protocol.DECOY_AMPS[did])
        assert out[[k for k in range(len(out)) if k not in positions][0]] is payload[0]
        # a later insertion builds its own slots
        again, more, more_ids = protocol.insert_decoys(payload, 40, rng(6))
        assert more == positions and more_ids == ids
        assert all(again[p] is not out[p] for p in positions)


class RecordingRng:
    """A Generator wrapper that records each method call's name and arguments."""

    def __init__(self, seed):
        self.generator, self.calls = rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)
        return recorded


class TestOneElementSample:
    """A sample of one (M = M2 = K = 1, the honest-correctness shape) is one
    scalar draw, the same draw as ``choice``, so every transcript byte stays."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, protocol.MAX_QUBITS_USED),
           st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_scalar_draws_match_the_vector_draws(self, seed, total, k):
        # a prefix of k two-bit draws sometimes leaves a uint32 half buffered
        g, twin = rng(seed), rng(seed)
        g.integers(0, 4, size=k), twin.integers(0, 4, size=k)
        got = protocol._sample_positions(total, 1, g)
        assert got == sorted(twin.choice(total, size=1, replace=False).tolist())
        did = [int(g.integers(4))]
        assert did == twin.integers(0, 4, size=1).tolist()
        assert all(type(v) is int for v in got + did)
        assert g.integers(total) == twin.integers(total) and g.random() == twin.random()

    def test_one_decoy_is_two_scalar_draws(self):
        spy = RecordingRng(4)
        slots = [SequenceSlot(qsim.ZERO, choice=0, payload_index=i) for i in range(5)]
        protocol.insert_decoys(slots, 1, spy)
        assert spy.calls == [("integers", (6,), {}), ("integers", (4,), {})]

    def test_one_loyalty_test_is_one_scalar_draw(self):
        spy = RecordingRng(4)
        slots, _, _ = protocol.bob_prepare_sequence([0, 1, 0, 1], 0, rng(), n_loyalty=2)
        res = protocol.alice_test_loyalty(slots, 1, spy)
        assert res.ok and len(res.positions) == 1
        assert [name for name, *_ in spy.calls] == ["integers", "random"]
        assert spy.calls[0] == ("integers", (4,), {})


def slot_fields(slots):
    """Each slot with its register object, a copy of its amplitudes, its choice
    and its payload index, to check later that nothing wrote the slot."""
    return [(s, s.state, s.state.copy(), s.choice, s.payload_index) for s in slots]


def assert_unwritten(recorded):
    for slot, state, amps, choice, payload_index in recorded:
        assert slot.state is state and np.array_equal(state, amps)
        assert (slot.choice, slot.payload_index) == (choice, payload_index)
        assert not state.flags.writeable


class TestSharedSlots:
    """Loyalty slots of one choice, like decoys of one id, are one shared
    object; so no step may write a slot."""

    def test_loyalty_slots_of_one_choice_are_one_object(self):
        choices = [0, 1, 1, 0, 1]
        slots, positions, _ = protocol.bob_prepare_sequence(
            choices + protocol.default_loyalty_choices(3), 4, rng(3), n_loyalty=6)
        decoys = set(positions)
        kept = [s for k, s in enumerate(slots) if k not in decoys]
        payload, loyalty = kept[:5], kept[5:]
        assert len({id(s) for s in payload}) == 5
        assert [(s.choice, s.payload_index) for s in payload] == [(c, i) for i, c in enumerate(choices)]
        by_choice = {s.choice: s for s in loyalty}
        assert sorted(by_choice) == [0, 1] and all(s is by_choice[s.choice] for s in loyalty)
        for c, slot in by_choice.items():
            assert slot.payload_index is None and slot.state is choice_state(c)
            assert all(slot is not s for s in payload)
        # a later preparation builds its own slots
        again, _, _ = protocol.bob_prepare_sequence([0, 1, 0, 1], 0, rng(3), n_loyalty=2)
        assert again[2] is not by_choice[0] and again[3] is not by_choice[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_paper_shape_run_writes_no_slot(self, monkeypatch, seed):
        recorded = []

        def recording(step):
            def wrapper(*args, **kwargs):
                out = step(*args, **kwargs)
                recorded.extend(slot_fields(out[0]))
                return out
            return wrapper

        for name in ("bob_prepare_sequence", "alice_insert_decoys"):
            monkeypatch.setattr(protocol, name, recording(getattr(protocol, name)))
        t = protocol.run_honest(ProtocolConfig(N=8, M=50, M2=50, K=20, seed=seed))
        assert t.verdict == "ok"
        shared = [s for s, *_ in recorded if s.payload_index is None]
        assert len({id(s) for s in shared}) < len(shared)
        assert len(recorded) == (8 + 50 + 40) + (8 + 50)
        assert_unwritten(recorded)

    def test_encode_returns_new_slots_and_leaves_its_inputs(self):
        shared = SequenceSlot(qsim.PLUS, choice=1)
        slots = [shared, SequenceSlot(qsim.ZERO, choice=0, payload_index=0), shared,
                 SequenceSlot(protocol.DECOY_AMPS[3])]
        recorded = slot_fields(slots)
        out = protocol.alice_encode(slots, [(1, 1), (1, 0), (0, 1), (0, 0)])
        assert not any(o is s for o in out for s in slots)
        assert [(o.choice, o.payload_index) for o in out] == [(s.choice, s.payload_index) for s in slots]
        assert_unwritten(recorded)


class TestLoyalty:
    def test_honest_bob_always_passes(self):
        g = rng(9)
        for K in (1, 3):
            for _ in range(30):
                slots, _, _ = protocol.bob_prepare_sequence([0, 1, 0, 1, 1, 0], 0, g, n_loyalty=4)
                res = protocol.alice_test_loyalty(slots, K, g)
                assert res.ok and res.outcomes == [0] * K
                assert len(res.remaining) == 6 - K

    def test_k_zero_is_vacuous(self):
        slots, _, _ = protocol.bob_prepare_sequence([0, 1], 0, rng())
        res = protocol.alice_test_loyalty(slots, 0, rng())
        assert res.ok and res.positions == []

    def test_k_exceeding_slots_rejected(self):
        # an empty sequence rejects K = 1 before a position is drawn
        for choices, K in (([0, 1], 3), ([], 1)):
            slots, _, _ = protocol.bob_prepare_sequence(choices, 0, rng())
            with pytest.raises(ProtocolError, match="K exceeds available slots"):
                protocol.alice_test_loyalty(slots, K, rng())

    def test_forced_positions(self):
        slots = make_worked_example_slots()
        res = protocol.check_published_decoys(slots, [3], [2 * slots[3].choice], rng())
        assert res.positions == [3] and res.outcomes == [0]
        assert [s.choice for s in res.remaining] == [0, 1, 0]

    def test_decoy_position_names_the_slot(self):
        """A decoy has no choice for Bob to publish, so a loyalty test that
        draws one is rejected, naming its position: testing every slot
        reaches the first decoy first."""
        slots, positions, _ = protocol.bob_prepare_sequence([0, 1, 0, 1], 3, rng(2), n_loyalty=2)
        p = positions[0]
        with pytest.raises(ProtocolError, match=rf"^slot {p} has no preparation basis"):
            protocol.alice_test_loyalty(slots, len(slots), rng())


class TestReorder:
    def test_worked_example_permutation(self):
        slots = make_worked_example_slots()
        remaining = protocol.check_published_decoys(
            slots, [3], [2 * slots[3].choice], rng()).remaining
        payload = protocol.bob_reorder(remaining, [1, 0, 2], n_keep=2)
        assert [s.choice for s in payload] == [1, 0]
        assert np.allclose(payload[0].state, qsim.PLUS)
        assert np.allclose(payload[1].state, qsim.ZERO)

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
        before = sorted(tuple(np.round(s.state, 12)) for s in slots)
        after = sorted(tuple(np.round(s.state, 12)) for s in reordered)
        assert before == after

    def test_plan_reorder_backfills_consumed_payload(self):
        g = rng(4)
        choices = [0, 1, 1, 0]
        loyalty = protocol.default_loyalty_choices(2)
        slots, _, _ = protocol.bob_prepare_sequence(choices + loyalty, 0, g, n_loyalty=4)
        # consume two payload slots
        res = protocol.check_published_decoys(slots, [0, 2], [2 * slots[p].choice for p in [0, 2]], g)
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
        for did, state in enumerate((qsim.ZERO, qsim.ONE, qsim.PLUS, qsim.MINUS)):
            assert np.array_equal(protocol.DECOY_AMPS[did], state)
        ids, bits = np.meshgrid(np.arange(4), np.arange(2))
        assert protocol.decoy_flipped(ids, bits).tolist() == [
            [bool(protocol.decoy_flipped(int(d), int(b))) for d in range(4)] for b in range(2)]


def decoy_flips(amps, ids, u):
    """``protocol.decoy_flips`` as it was when the Monte Carlo kernels checked
    amplitude blocks, verbatim but for the module prefix: the scalar check on
    a block, as a bool mask. Qubit 0 of row t of a ``(T, 2^n)`` amplitude
    block reads 1, in the basis of decoy id ``ids[t]``, iff ``u[t]`` is below
    its ``qsim.probability_of_one``, as in ``qsim.measure_batch``; nothing
    collapses. The block references of the other test files use it."""
    return protocol.decoy_flipped(ids, u < qsim.probability_of_one(amps, ids >= 2))


class TestDecoyIds:
    def test_id_is_basis_then_bit_in_qsim_order(self):
        for did, state in enumerate(protocol.DECOY_AMPS):
            # each decoy state reads its own bit in its own basis
            bit = qsim.measure(state, did >= 2, rng().random())
            assert bit == did % 2 and not protocol.decoy_flipped(did, bit)
        for choice in (0, 1):
            # the same row, shared with the decoy table rather than copied
            state = choice_state(choice)
            assert np.array_equal(state, protocol.DECOY_AMPS[2 * choice])
            assert np.shares_memory(state, protocol.DECOY_AMPS)

    @given(st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_scalar_check_matches_block_flips(self, seed, bell, specs, data):
        # a published set of same-width slots: decoy states, or Bell pairs
        if bell:
            slots = [SequenceSlot(qsim.make_bell(k)) for k, _ in specs]
        else:
            slots = [SequenceSlot(protocol.DECOY_AMPS[k]) for k, _ in specs]
        positions = data.draw(st.permutations(range(len(slots))))[:data.draw(
            st.integers(1, len(slots)))]
        ids = [specs[p][1] for p in positions]
        check = protocol.check_published_decoys(slots, positions, ids, rng(seed))
        amps = np.array([slots[p].state for p in positions])
        flips = decoy_flips(amps, np.array(ids), rng(seed).random(len(ids)))
        assert check.outcomes == flips.astype(int).tolist()


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
        flips = decoy_flips(amps, ids, u)
        bits, _ = qsim.measure_batch(amps, ids >= 2, u)
        assert np.array_equal(flips, protocol.decoy_flipped(ids, bits))
        g = rng(seed)
        scalar = [protocol.decoy_flipped(int(did), qsim.measure(row, did >= 2, g.random()))
                  for row, did in zip(amps, ids)]
        assert flips.tolist() == scalar


class TestEncodeDecode:
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("state", [*protocol.DECOY_AMPS, qsim.make_bell(0)],
                             ids=["0", "1", "+", "-", "phi+"])
    def test_encoding_equals_the_gate(self, pair, state):
        encoded = protocol.alice_encode([SequenceSlot(state)], [pair])[0].state
        assert np.array_equal(encoded, qsim.apply_gate(state, 2 * pair[0] + pair[1]))

    def test_rejects_a_register_that_is_not_complex(self):
        # apply_gate's memo keys a register by its bytes and reads them back as complex
        with pytest.raises(TypeError, match="float64"):
            protocol.alice_encode([SequenceSlot(np.array([1., 0.]))], [(1, 0)])
        with pytest.raises(TypeError, match="float64"):
            qsim.apply_gate(np.array([1., 0.]), 2)

    def test_block_encoding_equals_the_gate_per_slot(self):
        # one call over every pair and every decoy state, so slots cannot mix
        cases = [(did, pair) for did in range(4) for pair in PAIRS]
        slots = [SequenceSlot(protocol.DECOY_AMPS[did]) for did, _ in cases]
        encoded = protocol.alice_encode(slots, [pair for _, pair in cases])
        for slot, (did, pair) in zip(encoded, cases):
            expected = qsim.apply_gate(protocol.DECOY_AMPS[did], 2 * pair[0] + pair[1])
            assert np.array_equal(slot.state, expected)

    def test_pair_01_turns_plus_into_minus(self):
        slot = SequenceSlot(qsim.PLUS, choice=1)
        out = protocol.alice_encode([slot], [(0, 1)])
        assert np.allclose(out[0].state, qsim.MINUS)

    def test_pair_10_turns_zero_into_one(self):
        slot = SequenceSlot(qsim.ZERO, choice=0)
        out = protocol.alice_encode([slot], [(1, 0)])
        assert np.allclose(out[0].state, qsim.ONE)

    def test_pair_00_leaves_state_unchanged(self):
        for state in (qsim.ZERO, qsim.PLUS):
            slot = SequenceSlot(state, choice=0)
            out = protocol.alice_encode([slot], [(0, 0)])
            assert np.allclose(out[0].state, state)

    def test_pair_count_mismatch(self):
        slot = SequenceSlot(qsim.ZERO, choice=0)
        with pytest.raises(ProtocolError):
            protocol.alice_encode([slot], [(0, 0), (1, 1)])
        with pytest.raises(ProtocolError, match="payload length does not match"):
            protocol.bob_check_and_decode([slot], [], [], [0, 1], rng())

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
        res = protocol.bob_check_and_decode(encoded, [], [], [choice], g)
        assert res.ok and res.bits == [pair[choice]]

    def test_decode_minus_in_x_gives_one(self):
        slot = SequenceSlot(qsim.MINUS)
        res = protocol.bob_check_and_decode([slot], [], [], [1], rng())
        assert res.ok and res.bits == [1]

    def test_decode_one_in_z_gives_one(self):
        slot = SequenceSlot(qsim.ONE)
        res = protocol.bob_check_and_decode([slot], [], [], [0], rng())
        assert res.ok and res.bits == [1]

    def test_decode_identity_encoded_zero(self):
        slot = SequenceSlot(qsim.ZERO)
        encoded = protocol.alice_encode([slot], [(0, 0)])
        res = protocol.bob_check_and_decode(encoded, [], [], [0], rng())
        assert res.bits == [0]

    def test_alice_decoy_insertion_lengths(self):
        slots = [SequenceSlot(qsim.ZERO, choice=0) for _ in range(3)]
        for M2 in (1, 5):
            grown, pos, ids = protocol.alice_insert_decoys(slots, M2, rng(1))
            assert len(grown) == 3 + M2 and len(pos) == len(ids) == M2
        same, pos0, _ = protocol.alice_insert_decoys(slots, 0, rng(1))
        assert len(same) == 3 and pos0 == []

    def test_decoy_ids_roughly_uniform(self):
        # chi-square against uniform over the four decoy states, alpha = 1e-3,
        # for 2,000 ids drawn one or ten per insertion
        g = rng(12)
        for M2 in (1, 10):
            counts = np.zeros(4)
            for _ in range(2000 // M2):
                _, _, ids = protocol.alice_insert_decoys(
                    [SequenceSlot(qsim.ZERO, choice=0)], M2, g)
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

    @pytest.mark.parametrize("given, streams", [
        ({"choices": [1, 0, 1], "pairs": [(0, 1), (1, 1), (1, 0)]}, [[8, 1]]),
        ({"choices": [1, 0, 1]}, [[8, 1], [8, 0]]),
        ({"pairs": [(0, 1), (1, 1), (1, 0)]}, [[8, 1], [8, 0]]),
        ({}, [[8, 1], [8, 0]]),
    ], ids=["both", "choices", "pairs", "neither"])
    def test_input_stream_only_when_an_input_is_drawn(self, monkeypatch, given, streams):
        built = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        t = protocol.run_honest(ProtocolConfig(N=3, M=2, M2=2, K=1, seed=8), **given)
        assert built == streams and t.verdict == "ok"

    def test_rejects_non_bit_pair(self):
        with pytest.raises(ProtocolError, match="bits"):
            protocol.run_honest(ProtocolConfig(N=1, seed=0), pairs=[(0, 2)])
        with pytest.raises(ProtocolError, match="need exactly N choices"):
            protocol.run_honest(ProtocolConfig(N=2), choices=[0])

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
        check = protocol.alice_check_channel(slots, pos, ids, g)
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
        assert abs(abs(np.vdot(qsim.ZERO, qsim.PLUS)) ** 2 - 0.5) <= 1e-12

    def test_single_copy_guess_bounded_by_three_quarters(self):
        # every fixed (basis, guess-rule) strategy on one copy succeeds with
        # probability <= 3/4 over a uniform choice
        g = rng(21)
        n = 20_000
        se = np.sqrt(0.25 / n)
        strategies = [
            (False, {0: 0, 1: 1}), (False, {0: 1, 1: 1}), (False, {0: 0, 1: 0}),
            (True, {0: 1, 1: 0}), (True, {0: 0, 1: 0}), (True, {0: 1, 1: 1}),
        ]
        for x_basis, rule in strategies:
            wins = 0
            for _ in range(n):
                j = int(g.integers(2))
                bit = qsim.measure(choice_state(j), x_basis, g.random())
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
        # the same record with every field intact, written with spaces
        spaced = json.dumps(json.loads(protocol.run_honest(cfg).to_json_line()))
        assert protocol.replay_transcript(spaced) == (False, "divergence in formatting")

    def test_replay_rejects_negative_seed(self):
        line = protocol.run_honest(ProtocolConfig(N=2, seed=3)).to_json_line()
        line = line.replace('"seed":3', '"seed":-3')
        with pytest.raises(ProtocolError, match="seed must be >= 0"):
            protocol.replay_transcript(line)

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
        with pytest.raises(ProtocolError, match="^seed must be >= 0$"):
            ProtocolConfig(N=1, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("N", True), ("N", 2.0), ("N", "2"), ("M", False), ("M2", 1.0), ("K", True),
        ("seed", True), ("seed", 3.0), ("seed", None), ("tau", False), ("tau", "0.1"),
        ("tau", None), ("tau", 0.1j),
    ])
    def test_rejects_non_numbers_and_bools(self, field, value):
        with pytest.raises(ProtocolError, match=f"^{field} must be"):
            ProtocolConfig(**{"N": 1, field: value})

    def test_accepts_numpy_integers_and_integer_tau(self):
        """Numpy integers are stored as ints and a numpy tau as its Python
        number, so a run's transcript can be written and replayed; a Python
        tau keeps its type, which the record's JSON keeps too."""
        cfg = ProtocolConfig(N=np.int64(2), M=np.uint8(1), K=np.int32(1), seed=np.int64(5), tau=0)
        assert cfg.sequence_length == 5 and type(cfg.N) is int and type(cfg.seed) is int
        assert type(cfg.tau) is int
        line = protocol.run_honest(cfg).to_json_line()
        assert protocol.replay_transcript(line) == (True, "verified")
        for tau in (np.float32(0.3), np.float16(0.5), np.float64(0.25), np.int64(0)):
            cfg = ProtocolConfig(N=2, M=1, M2=1, K=1, tau=tau, seed=5)
            assert type(cfg.tau) is type(tau.item()) and cfg.tau == tau
            line = protocol.run_honest(cfg).to_json_line()
            assert json.loads(line)["config"]["tau"] == tau
            assert protocol.replay_transcript(line) == (True, "verified")


class TestKeyValueFiles:
    def test_comments_blank_lines_and_later_keys(self, tmp_path):
        # the one parser behind --config and --ue-file: a value may hold "="
        path = tmp_path / "run.conf"
        path.write_text("# a comment-only line\n\nN = 2\nN = 5  # later wins\nue_file = a=b.txt\n")
        assert protocol.read_key_values(path) == {"N": "5", "ue_file": "a=b.txt"}

    def test_a_value_may_hold_a_hash(self, tmp_path):
        # "#" starts a comment only at the start of a line or after whitespace
        path = tmp_path / "run.conf"
        path.write_text("ue_file = d#2/ue.txt\nN = 5#x\n\t# an indented comment\nM = 3\t# tab\n")
        assert protocol.read_key_values(path) == {"ue_file": "d#2/ue.txt", "N": "5#x", "M": "3"}
