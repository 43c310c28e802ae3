"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import time

import numpy as np
import pytest

from qotsim import adversary, cli, costmodel, experiments, protocol, qsim
from qotsim.adversary import AttackScenario, UeParams
from qotsim.costmodel import ProtocolId
from qotsim.experiments import ExperimentSpec
from qotsim.protocol import ProtocolConfig, SequenceSlot


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_honest_correctness():
    runs = 10_000
    g = np.random.default_rng(2024)
    start = time.monotonic()
    errors = 0
    for i in range(runs):
        n = int(g.integers(1, 17))
        t = protocol.run_honest(ProtocolConfig(N=n, M=1, M2=1, K=1, seed=i))
        assert t.verdict == "ok"
        expected = [t.pairs[k][t.choices[k]] for k in range(n)]
        errors += sum(1 for k in range(n) if t.decoded_bits[k] != expected[k])
    elapsed = time.monotonic() - start
    report(1, errors == 0 and elapsed < 10.0,
           f"honest runs: {errors} decode errors over {runs} runs in {elapsed:.1f}s")


def test_criterion_2_worked_example():
    # sequence |0+0+>: payload choices (0,1), loyalty copies (0,1); Alice tests
    # slot 4, Bob reorders the survivors as "21", Alice applies Z then X for the
    # pairs (0,1) and (1,0)
    slots = [SequenceSlot(protocol.choice_state(c), choice=c, payload_index=i if i < 2 else None)
             for i, c in enumerate([0, 1, 0, 1])]
    g = np.random.default_rng(0)
    loyal = protocol.check_published_decoys(slots, [3], [2 * slots[3].choice], g)
    payload = protocol.bob_reorder(loyal.remaining, [1, 0, 2], n_keep=2)
    encoded = protocol.alice_encode(payload, [(0, 1), (1, 0)])
    decoded = protocol.bob_check_and_decode(encoded, [], [], [1, 0], g)
    ok = loyal.ok and decoded.ok and decoded.bits == [1, 1]
    # the same run through the composed state machine
    t = protocol.run_honest(ProtocolConfig(N=2, M=0, M2=0, K=1, seed=1),
                            choices=[1, 0], pairs=[(0, 1), (1, 0)])
    ok = ok and t.verdict == "ok" and t.decoded_bits == [1, 1]
    report(2, ok, f"four-qubit example decoded {decoded.bits}")


def test_criterion_3_bell_cheat_detection():
    start = time.monotonic()
    failures = []
    for i, k in enumerate((1, 5, 10, 20)):
        row = experiments.estimate_detection_rate(
            ExperimentSpec(AttackScenario.BOB_BELL_CHEAT, k, trials=100_000, seed=300 + i))
        p = row.closed_form
        band = 4 * np.sqrt(p * (1 - p) / row.trials)
        if abs(row.empirical - p) > band:
            failures.append((k, row.empirical, p))
    elapsed = time.monotonic() - start
    report(3, not failures and elapsed < 60.0,
           f"detection vs 1-(1/2)^K for K in (1,5,10,20), {elapsed:.1f}s; failures: {failures}")


def test_criterion_4_intercept_detection():
    start = time.monotonic()
    failures = []
    for i, m in enumerate((1, 5, 10, 20, 50)):
        row = experiments.estimate_detection_rate(
            ExperimentSpec(AttackScenario.INTERCEPT_RESEND, m, trials=100_000, seed=400 + i))
        p = row.closed_form
        band = 4 * np.sqrt(p * (1 - p) / row.trials)
        if abs(row.empirical - p) > band:
            failures.append((m, row.empirical, p))
    closed_50 = experiments.detection_rate(0.25, 50)
    elapsed = time.monotonic() - start
    report(4, not failures and closed_50 >= 0.999999 and elapsed < 30.0,
           f"abort rate vs 1-(3/4)^M, {elapsed:.1f}s; closed form at M=50 is {closed_50:.8f}; "
           f"failures: {failures}")


def test_criterion_5_internal_attack_rates():
    rep = experiments.alice_attack_report(100_000, seed=505)
    ok = (abs(rep.conclusive_rate - 0.25) <= 0.01
          and abs(rep.bit_error_rate - 0.1875) <= 0.01
          and abs(rep.dummy_error_rate - 0.09375) <= 0.01
          and rep.false_conclusive == 0)
    report(5, ok, f"conclusive {rep.conclusive_rate:.4f}, bit error {rep.bit_error_rate:.4f}, "
                  f"dummy error {rep.dummy_error_rate:.4f}")


def test_criterion_6_obliviousness():
    distances = {(c, b): experiments.obliviousness_report(c, b)
                 for c, b in itertools.product((0, 1), (0, 1))}
    ok = all(d < 1e-12 for d in distances.values())
    report(6, ok, f"max unchosen-bit trace distance {max(distances.values()):.2e}")


def test_criterion_7_entangling_constraint():
    g = np.random.default_rng(707)
    violations = 0
    for _ in range(1_000):
        p = adversary.sample_ue_params(g)
        if adversary.ue_detection_probability(p) < 1e-9 and adversary.ue_leakage(p) >= 1e-6:
            violations += 1
    constrained = UeParams.no_detection_point()
    det = adversary.ue_detection_probability(constrained)
    leak = adversary.ue_leakage(constrained)
    ok = violations == 0 and det == 0.0 and leak == 0.0
    report(7, ok, f"{violations} implication violations; constrained point ({det}, {leak})")


def test_criterion_8_dense_coding():
    g = np.random.default_rng(808)
    errors = 0
    for _ in range(1_000):
        for pair, gate in protocol.PAULI_CODE.items():
            encoded = qsim.apply_gate(qsim.make_bell(0), gate)
            if adversary.bob_bell_cheat_readout(encoded) != pair:
                errors += 1
        g.integers(2)  # keep the stream moving; readout itself is deterministic
    report(8, errors == 0, f"{errors} readout errors over 4 gates x 1000 trials")


def test_criterion_9_cost_model():
    formulas = {
        ProtocolId.YANG2013: lambda r: 4 * r + 50,
        ProtocolId.YSW2015: lambda r: 4 * r + 50,
        ProtocolId.YYLSZ2015: lambda r: 4 * r + 2 * 50,
        ProtocolId.PROPOSED: lambda r: r + 2 * (50 + 20),
    }
    table_ok = all(costmodel.total_cost(pid, r) == f(r)
                   for pid, f in formulas.items() for r in (0, 29, 30, 31, 100))
    cross_ok = costmodel.crossover() == 30
    sim_ok = all(
        protocol.run_honest(ProtocolConfig(N=n, M=50, M2=50, K=20, seed=n)).qubits_used == n + 140
        for n in (1, 8, 30))
    report(9, table_ok and cross_ok and sim_ok,
           f"table match {table_ok}, crossover {costmodel.crossover()}, accounting R+140 {sim_ok}")


def test_criterion_10_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        assert cli.main(["honest", "--N", "4", "--M", "3", "--M2", "3", "--K", "2",
                         "--seed", "99", "--runs", "5", "--transcript", str(p)]) == 0
    transcripts_identical = paths[0].read_bytes() == paths[1].read_bytes()
    csvs = []
    for p in (tmp_path / "c1.csv", tmp_path / "c2.csv"):
        assert cli.main(["attack", "--scenario", "bell", "--K", "3", "--trials", "2000",
                         "--seed", "5", "--out", str(p)]) == 0
        csvs.append(p.read_bytes())
    replay_code = cli.main(["replay", "--transcript", str(paths[0])])
    capsys.readouterr()
    ok = transcripts_identical and csvs[0] == csvs[1] and replay_code == 0
    report(10, ok, f"byte-identical outputs {transcripts_identical and csvs[0] == csvs[1]}, "
                   f"replay exit {replay_code}")
