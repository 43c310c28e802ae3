"""Output bytes pinned for a fixed seed: within one package version a
refactor may not change a single byte of a transcript or a CSV row.

The transcript line is unchanged since 0.1.0; the Monte Carlo CSVs were
regenerated at 0.2.0, whose trial-batched kernels draw different streams (the
intercept row happens to read as it did at 0.1.0)."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from qotsim import adversary, cli, protocol, qsim
from qotsim.protocol import ProtocolConfig

GOLDEN_TRANSCRIPT = (
    '{"alice_decoy_ids":[3,3,3,2,1],"alice_decoy_positions":[0,1,4,5,7],'
    '"bob_decoy_ids":[0,3,3,1],"bob_decoy_positions":[2,3,4,6],"channel_error_rate":0.0,'
    '"choices":[0,1,1],"config":{"K":2,"M":4,"M2":5,"N":3,"tau":0.0},"decoded_bits":[1,1,0],'
    '"loyalty_choices":[0,0,1,1],"loyalty_outcomes":[0,0],"loyalty_positions":[0,5],'
    '"pairs":[[1,0],[0,1],[1,0]],"permutation":[2,0,1,3,4],"qubits_used":16,'
    '"return_error_rate":0.0,"seed":1,"verdict":"ok","version":1}'
)

#: abort-path transcripts by verdict: (config, the ``protocol`` preparation
#: swapped, its replacement, record). An honest run never aborts, so each one
#: prepares every decoy, or every choice slot, as its orthogonal partner.
#: ``choice_state`` names its own states, so flipped decoys leave choice slots be.
FLIPPED_DECOYS = (qsim.ONE, qsim.ZERO, qsim.MINUS, qsim.PLUS)
GOLDEN_ABORTS = {
    "channel": (
        ProtocolConfig(N=3, M=4, M2=2, K=1, seed=1), "DECOY_AMPS", np.array(FLIPPED_DECOYS),
        '{"alice_decoy_ids":[],"alice_decoy_positions":[],"bob_decoy_ids":[0,3,3,1],'
        '"bob_decoy_positions":[2,3,5,7],"channel_error_rate":1.0,"choices":[0,1,1],'
        '"config":{"K":1,"M":4,"M2":2,"N":3,"tau":0.0},"decoded_bits":[],"loyalty_choices":[0,1],'
        '"loyalty_outcomes":[],"loyalty_positions":[],"pairs":[[1,0],[0,1],[1,0]],"permutation":[],'
        '"qubits_used":11,"return_error_rate":0.0,"seed":1,"verdict":"abort:channel","version":1}'),
    "return-channel": (
        ProtocolConfig(N=3, M=0, M2=3, K=1, seed=2), "DECOY_AMPS", np.array(FLIPPED_DECOYS),
        '{"alice_decoy_ids":[3,0,0],"alice_decoy_positions":[0,1,3],"bob_decoy_ids":[],'
        '"bob_decoy_positions":[],"channel_error_rate":0.0,"choices":[1,0,0],'
        '"config":{"K":1,"M":0,"M2":3,"N":3,"tau":0.0},"decoded_bits":[],"loyalty_choices":[0,1],'
        '"loyalty_outcomes":[0],"loyalty_positions":[1],"pairs":[[0,0],[1,0],[0,0]],'
        '"permutation":[0,2,1,3],"qubits_used":8,"return_error_rate":1.0,"seed":2,'
        '"verdict":"abort:return-channel","version":1}'),
    "loyalty": (
        ProtocolConfig(N=3, M=2, M2=2, K=2, seed=3), "choice_state",
        lambda choice: qsim.ONE if choice == 0 else qsim.MINUS,
        '{"alice_decoy_ids":[],"alice_decoy_positions":[],"bob_decoy_ids":[1,3],'
        '"bob_decoy_positions":[2,7],"channel_error_rate":0.0,"choices":[1,0,0],'
        '"config":{"K":2,"M":2,"M2":2,"N":3,"tau":0.0},"decoded_bits":[],"loyalty_choices":[0,0,1,1],'
        '"loyalty_outcomes":[1,1],"loyalty_positions":[2,3],"pairs":[[0,0],[1,1],[1,0]],'
        '"permutation":[],"qubits_used":11,"return_error_rate":0.0,"seed":3,'
        '"verdict":"abort:loyalty","version":1}'),
}

GOLDEN_INTERCEPT_CSV = (
    "parameter,empirical,closed_form,stderr,trials\n"
    "5,0.735,0.7626953125,0.03120697038,200\n"
)

#: the constrained no-detection point and a leaking isometry with complex amplitudes
UE_FILES = {
    "constrained": "a = 1+0j\nb = 0j\nc = 0j\nd = 1+0j\n"
                   "e00 = 1,0,0,0\ne01 = 1,0,0,0\ne10 = 0,1,0,0\ne11 = 1,0,0,0\n",
    "mixed": "a = 0.6\nb = 0.8j\nc = 0.8\nd = 0.6\n"
             "e00 = 1,0,0,0\ne01 = 0,1,0,0\ne10 = 0,0,1,0\ne11 = 0,0,0,1\n",
}

ALICE_HEADER = "metric,empirical,closed_form,stderr,trials\n"
ALICE_CONCLUSIVE = "conclusive,0.255,0.25,0.03082004218,200\n"

#: ``attack ... --trials 200 --seed 7`` output by extra arguments
GOLDEN_ATTACK_CSVS = {
    "bell": (["--scenario", "bell", "--K", "3"],
             "parameter,empirical,closed_form,stderr,trials\n"
             "3,0.88,0.875,0.02297825059,200\n"),
    "alice-guess": (["--scenario", "alice", "--policy", "guess"],
                    ALICE_HEADER + ALICE_CONCLUSIVE
                    + "bit_error,0.2,0.1875,0.02828427125,200\n"),
    "alice-collapsed": (["--scenario", "alice", "--policy", "collapsed"],
                        ALICE_HEADER + ALICE_CONCLUSIVE
                        + "bit_error,0.235,0.25,0.02998124414,200\n"),
    "alice-random": (["--scenario", "alice", "--policy", "random"],
                     ALICE_HEADER + ALICE_CONCLUSIVE
                     + "bit_error,0.515,0.5,0.03533942558,200\n"),
    "alice-dummy": (["--scenario", "alice-dummy"],
                    ALICE_HEADER + ALICE_CONCLUSIVE
                    + "bit_error,0.2,0.1875,0.02828427125,200\n"
                    "dummy_error,0.085,0.09375,0.01971991379,200\n"),
    "entangling-constrained": (["--scenario", "entangling", "--ue-file", "constrained"],
                               "parameter,empirical,closed_form,stderr,trials\n"
                               "detection,0,0,0,200\n"
                               "leakage,0,0,0,200\n"),
    "entangling-mixed": (["--scenario", "entangling", "--ue-file", "mixed"],
                         "parameter,empirical,closed_form,stderr,trials\n"
                         "detection,0.52,0.57,0.03532704347,200\n"
                         "leakage,0.693108938,0.693108938,0,200\n"),
}


def test_transcript_line_is_pinned(capsys):
    cfg = ProtocolConfig(N=3, M=4, M2=5, K=2, seed=1)
    assert protocol.run_honest(cfg).to_json_line() == GOLDEN_TRANSCRIPT
    code = cli.main(["honest", "--N", "3", "--M", "4", "--M2", "5", "--K", "2", "--seed", "1"])
    assert code == 0 and capsys.readouterr().out == GOLDEN_TRANSCRIPT + "\n"


def test_pinned_transcript_replays():
    assert protocol.replay_transcript(GOLDEN_TRANSCRIPT) == (True, "verified")


@pytest.mark.parametrize("verdict", sorted(GOLDEN_ABORTS))
def test_abort_transcript_is_pinned(monkeypatch, verdict):
    cfg, attr, flipped, expected = GOLDEN_ABORTS[verdict]
    monkeypatch.setattr(protocol, attr, flipped)
    transcript = protocol.run_honest(cfg)
    assert transcript.verdict == "abort:" + verdict
    assert transcript.to_json_line() == expected
    assert protocol.replay_transcript(expected) == (True, "verified")


def test_intercept_csv_is_pinned(capsys):
    code = cli.main(["attack", "--scenario", "intercept", "--M", "5", "--trials", "200",
                     "--seed", "7"])
    assert code == 0 and capsys.readouterr().out == GOLDEN_INTERCEPT_CSV


@pytest.mark.parametrize("name", sorted(GOLDEN_ATTACK_CSVS))
def test_attack_csv_is_pinned(capsys, tmp_path, name):
    args, expected = GOLDEN_ATTACK_CSVS[name]
    if "--ue-file" in args:
        path = tmp_path / "ue.txt"
        path.write_text(UE_FILES[args[-1]])
        args = args[:-1] + [str(path)]
    code = cli.main(["attack", *args, "--trials", "200", "--seed", "7"])
    assert code == 0 and capsys.readouterr().out == expected


#: every trace distance is exactly 0, one row per (choice, chosen bit)
GOLDEN_OBLIVIOUS_CSV = "choice,chosen_bit,trace_distance\n0,0,0\n0,1,0\n1,0,0\n1,1,0\n"


def test_oblivious_csv_is_pinned(capsys):
    code = cli.main(["oblivious"])
    assert code == 0 and capsys.readouterr().out == GOLDEN_OBLIVIOUS_CSV


#: full argv -> output, for the sequential-check paths: zero rounds, a round
#: count that every trial exits early from, and more than one trial chunk
GOLDEN_CLI_CSVS = {
    "sweep-intercept": (["sweep", "--scenario", "intercept", "--values", "0,1,50"],
                        "parameter,empirical,closed_form,stderr,trials\n"
                        "0,0,0,0,600\n"
                        "1,0.235,0.25,0.01730967937,600\n"
                        "50,1,0.9999994337,0,600\n"),
    "sweep-bell": (["sweep", "--scenario", "bell", "--values", "0,20"],
                   "parameter,empirical,closed_form,stderr,trials\n"
                   "0,0,0,0,600\n"
                   "20,1,0.9999990463,0,600\n"),
    "attack-entangling-mixed": (["attack", "--scenario", "entangling", "--ue-file", "mixed"],
                                "parameter,empirical,closed_form,stderr,trials\n"
                                "detection,0.595,0.57,0.02004058382,600\n"
                                "leakage,0.693108938,0.693108938,0,600\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_CSVS))
def test_cli_csv_at_600_trials_is_pinned(capsys, tmp_path, name):
    args, expected = GOLDEN_CLI_CSVS[name]
    if "--ue-file" in args:
        path = tmp_path / "ue.txt"
        path.write_text(UE_FILES[args[-1]])
        args = args[:-1] + [str(path)]
    code = cli.main([*args, "--trials", "600", "--seed", "7"])
    assert code == 0 and capsys.readouterr().out == expected


#: sha256 of 256 seeded ``run_honest`` records, one per (N, M = M2, K) with N
#: in 1..16, M in {0, 1, 5, 50} and K in {0, 1, 3, 20}, seeded by grid index,
#: with tau = 0.3 where N + K is odd; pins paper-scale and tau > 0 bytes
HONEST_GRID_SHA256 = "86e7bb7ebe503741d9b67b0ebecce0131ccc2fe374d74c734524c0ec3aad3666"


def test_honest_grid_digest_is_pinned():
    digest = hashlib.sha256()
    grid = itertools.product(range(1, 17), (0, 1, 5, 50), (0, 1, 3, 20))
    for seed, (n, m, k) in enumerate(grid):
        cfg = ProtocolConfig(N=n, M=m, M2=m, K=k, tau=0.3 * ((n + k) % 2), seed=seed)
        digest.update(protocol.run_honest(cfg).to_json_line().encode() + b"\n")
    assert digest.hexdigest() == HONEST_GRID_SHA256


#: sha256 of 1,000 ``run_honest`` records, one per config drawn from a seeded
#: stream (N in 1..11, M and M2 in 0..7, K in 0..3, tau in {0, 0.3}) and
#: seeded by run index. Recorded on a clean checkout of b0cdeba, before
#: qsim's scalar functions lost their target and Step 4 its own memo
RANDOM_CONFIG_SHA256 = "f4292e60f4d51830485d5da03225160838be65ae3bebaa2cc039424fb275cffe"


def test_random_config_transcripts_are_pinned():
    digest = hashlib.sha256()
    g = np.random.default_rng(14)
    for seed in range(1000):
        n, m, m2, k, t = g.integers((1, 0, 0, 0, 0), (12, 8, 8, 4, 2))
        cfg = ProtocolConfig(N=n, M=m, M2=m2, K=k, tau=(0.0, 0.3)[t], seed=seed)
        digest.update(protocol.run_honest(cfg).to_json_line().encode() + b"\n")
    assert digest.hexdigest() == RANDOM_CONFIG_SHA256


#: sha256 of 900 ``run_honest`` records: 300 configs drawn from a seeded
#: stream as above (N in 1..11, M and M2 in 0..7, K in 0..3, tau in {0, 0.3}),
#: each with its choices and pairs drawn from the same stream, run with both
#: inputs supplied, with only the choices and with only the pairs. Recorded on
#: a clean checkout of 03db56a, which built the input stream on every run
SUPPLIED_INPUTS_SHA256 = "04efe5b393909e03e6f0c3e90c3f217fa370f7525f4f904e347dee105cfa1e43"


def test_supplied_input_transcripts_are_pinned():
    digest = hashlib.sha256()
    g = np.random.default_rng(21)
    for seed in range(300):
        n, m, m2, k, t = g.integers((1, 0, 0, 0, 0), (12, 8, 8, 4, 2))
        cfg = ProtocolConfig(N=n, M=m, M2=m2, K=k, tau=(0.0, 0.3)[t], seed=seed)
        choices = g.integers(0, 2, size=n).tolist()
        pairs = [tuple(p) for p in g.integers(0, 2, size=(n, 2)).tolist()]
        for given in ({"choices": choices, "pairs": pairs}, {"choices": choices}, {"pairs": pairs}):
            digest.update(protocol.run_honest(cfg, **given).to_json_line().encode() + b"\n")
    assert digest.hexdigest() == SUPPLIED_INPUTS_SHA256


#: sha256 of the concatenated stdout of these commands, each run with
#: ``--trials 16641 --seed 7``: 65 chunks, past one group of simulated chunks
GROUPED_CHUNK_COMMANDS = (
    ["sweep", "--scenario", "intercept", "--values", "1,5,50"],
    ["sweep", "--scenario", "bell", "--values", "1,20"],
    ["attack", "--scenario", "alice-dummy"],
    ["attack", "--scenario", "alice", "--policy", "collapsed"],
    ["attack", "--scenario", "alice", "--policy", "random"],
)
GROUPED_CHUNK_SHA256 = "a9bc80538d45b2232c9eee1aef241102120539097039b1b56360a5c4a04755e0"


def test_csvs_past_a_chunk_group_are_pinned(capsys):
    digest = hashlib.sha256()
    for args in GROUPED_CHUNK_COMMANDS:
        assert cli.main([*args, "--trials", "16641", "--seed", "7"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GROUPED_CHUNK_SHA256


#: sha256 over chained seeded bits and collapsed amplitude bytes on random
#: one- to three-qubit registers, 2n qubit-0 measurements of each n-qubit
#: register (one-row ``qsim.measure_batch``), then over the Bell cheat's
#: protocol path: channel check, loyalty positions and outcomes. Computed at
#: b0cdeba with ``qsim.measure``, which then took a target and returned the
#: collapsed register, with the target set to 0
MULTI_QUBIT_SHA256 = "314a910f8f6a4470eb37bdd25c465e29680a0a46d6ed3b651ee918f3f7581c86"


def test_multi_qubit_measurements_are_pinned():
    digest = hashlib.sha256()
    g = np.random.default_rng(20)
    for n in (1, 2, 3):
        for _ in range(40):
            amps = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
            state = amps / np.linalg.norm(amps)
            for _ in range(2 * n):
                bits, block = qsim.measure_batch(state[None], np.array([bool(g.integers(2))]),
                                                 np.array([g.random()]))
                bit, state = int(bits[0]), block[0]
                digest.update(bytes([bit]) + state.tobytes())
    for seed in range(6):
        g = np.random.default_rng(seed)
        cfg = ProtocolConfig(N=4, M=3, K=3, seed=seed)
        slots, positions, ids = adversary.bob_bell_cheat(cfg, g)
        check = protocol.check_published_decoys(slots, positions, ids, g)
        loyalty = protocol.alice_test_loyalty(check.remaining, cfg.K, g)
        digest.update(json.dumps([check.outcomes, loyalty.positions, loyalty.outcomes]).encode())
    assert digest.hexdigest() == MULTI_QUBIT_SHA256
