"""Output bytes pinned for a fixed seed: within one transcript version a
refactor may not change a single byte of a transcript or a CSV row."""

import pytest

from qotsim import cli, protocol
from qotsim.protocol import ProtocolConfig

GOLDEN_TRANSCRIPT = (
    '{"alice_decoy_ids":[3,3,3,2,1],"alice_decoy_positions":[0,1,4,5,7],'
    '"bob_decoy_ids":[0,3,3,1],"bob_decoy_positions":[2,3,4,6],"channel_error_rate":0.0,'
    '"choices":[0,1,1],"config":{"K":2,"M":4,"M2":5,"N":3,"tau":0.0},"decoded_bits":[1,1,0],'
    '"loyalty_choices":[0,0,1,1],"loyalty_outcomes":[0,0],"loyalty_positions":[0,5],'
    '"pairs":[[1,0],[0,1],[1,0]],"permutation":[2,0,1,3,4],"qubits_used":16,'
    '"return_error_rate":0.0,"seed":1,"verdict":"ok","version":1}'
)

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
ALICE_CONCLUSIVE = "conclusive,0.26,0.25,0.03101612484,200\n"

#: ``attack ... --trials 200 --seed 7`` output by extra arguments
GOLDEN_ATTACK_CSVS = {
    "bell": (["--scenario", "bell", "--K", "3"],
             "parameter,empirical,closed_form,stderr,trials\n"
             "3,0.895,0.875,0.02167660029,200\n"),
    "alice-guess": (["--scenario", "alice", "--policy", "guess"],
                    ALICE_HEADER + ALICE_CONCLUSIVE
                    + "bit_error,0.22,0.1875,0.02929163703,200\n"),
    "alice-collapsed": (["--scenario", "alice", "--policy", "collapsed"],
                        ALICE_HEADER + ALICE_CONCLUSIVE
                        + "bit_error,0.25,0.1875,0.03061862178,200\n"),
    "alice-random": (["--scenario", "alice", "--policy", "random"],
                     ALICE_HEADER + ALICE_CONCLUSIVE
                     + "bit_error,0.515,0.1875,0.03533942558,200\n"),
    "alice-dummy": (["--scenario", "alice-dummy"],
                    ALICE_HEADER + ALICE_CONCLUSIVE
                    + "bit_error,0.22,0.1875,0.02929163703,200\n"
                    "dummy_error,0.12,0.09375,0.02297825059,200\n"),
    "entangling-constrained": (["--scenario", "entangling", "--ue-file", "constrained"],
                               "parameter,empirical,closed_form,stderr,trials\n"
                               "detection,0,0,0,200\n"
                               "leakage,0,0,0,200\n"),
    "entangling-mixed": (["--scenario", "entangling", "--ue-file", "mixed"],
                         "parameter,empirical,closed_form,stderr,trials\n"
                         "detection,0.605,0.57,0.034566964,200\n"
                         "leakage,0.693108938,0.693108938,0,200\n"),
}


def test_transcript_line_is_pinned(capsys):
    cfg = ProtocolConfig(N=3, M=4, M2=5, K=2, seed=1)
    assert protocol.run_honest(cfg).to_json_line() == GOLDEN_TRANSCRIPT
    code = cli.main(["honest", "--N", "3", "--M", "4", "--M2", "5", "--K", "2", "--seed", "1"])
    assert code == 0 and capsys.readouterr().out == GOLDEN_TRANSCRIPT + "\n"


def test_pinned_transcript_replays():
    assert protocol.replay_transcript(GOLDEN_TRANSCRIPT) == (True, "verified")


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
