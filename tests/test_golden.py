"""Output bytes pinned for a fixed seed: within one transcript version a
refactor may not change a single byte of a transcript or a CSV row."""

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
