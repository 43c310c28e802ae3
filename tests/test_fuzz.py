"""Boundary fuzzing: valid inputs at each boundary (argv of every subcommand,
``--config`` text, ``--ue-file`` text, JSONL transcript records), mutated and
run through ``cli.main`` in-process.

Every example must exit 0, or exit 1 or 2 with an ``error:`` line on stderr,
and never raise out of ``main``. Counts, trials and ``--rmax`` are drawn small
(and the default trial count is lowered), so no example allocates much or runs
long; huge values are drawn only where the CLI rejects them before allocating.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from qotsim import cli, experiments, protocol
from qotsim.protocol import ProtocolConfig

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

UE_TEXT = ("a = 0.6\nb = 0.8j\nc = 0.8\nd = 0.6\n"
           "e00 = 1,0,0,0\ne01 = 0,1,0,0\ne10 = 0,0,1,0\ne11 = 0,0,0,1\n")
TRANSCRIPTS = [protocol.run_honest(ProtocolConfig(N=n, M=m, M2=m2, K=k, tau=tau, seed=seed))
               .to_json_line() for seed, (n, m, m2, k, tau)
               in enumerate([(2, 2, 1, 1, 0.0), (3, 4, 2, 2, 0.3), (1, 0, 0, 0, 0.0)])]

#: argv that each exit 0; "UE" and "JSONL" name a valid file in the working directory
VALID_ARGV = [
    ["honest", "--N", "2", "--M", "2", "--M2", "1", "--K", "1", "--tau", "0.1", "--runs", "2",
     "--seed", "3"],
    ["attack", "--scenario", "intercept", "--M", "3", "--trials", "20", "--seed", "1"],
    ["attack", "--scenario", "bell", "--K", "2", "--trials", "20"],
    ["attack", "--scenario", "alice", "--policy", "random", "--trials", "20"],
    ["attack", "--scenario", "alice-dummy", "--trials", "20"],
    ["attack", "--scenario", "entangling", "--ue-file", "UE", "--trials", "20"],
    ["sweep", "--scenario", "intercept", "--values", "0,1,3", "--trials", "20"],
    ["sweep", "--scenario", "bell", "--values", "2", "--trials", "20", "--seed", "5"],
    ["oblivious", "--seed", "2"],
    ["cost", "--rmax", "5"],
    ["replay", "--transcript", "JSONL"],
]

SMALL = st.integers(-3, 12).map(str)
TEXT = st.sampled_from(["", " ", "x", "-1", "-0", "0", "1.5", "nan", "inf", "-inf", "1e3", "0x1",
                        "1,", ",", "1,x", ",,", "-", "--", "1+", "1j", "é", "#", "=", "a=b"])
FLAGS = st.sampled_from(["--N", "--M", "--M2", "--K", "--tau", "--runs", "--trials", "--seed",
                         "--scenario", "--policy", "--values", "--rmax", "--config", "--ue-file",
                         "--transcript", "--out", "--bogus", "-h"])
NAMES = st.sampled_from(["honest", "attack", "sweep", "oblivious", "cost", "replay", "intercept",
                         "bell", "alice", "alice-dummy", "entangling", "guess", "collapsed", "UE",
                         "JSONL", "-"])
TOKENS = st.one_of(SMALL, TEXT, FLAGS, NAMES)
#: values that the CLI must reject before it allocates for them
HUGE = st.sampled_from(["100001", "1000000000", "99999999999999999999"])


def mutate(draw, items, values):
    """Apply up to three replace, delete and insert edits to ``items``."""
    items = list(items)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        i = draw(st.integers(0, len(items)))
        if op == "insert":
            items.insert(i, draw(values))
        elif items and i < len(items):
            if op == "delete":
                del items[i]
            else:
                items[i] = draw(values)
    return items


def run_cli(argv, files=None):
    """Run ``cli.main`` in a temporary working directory that holds the valid
    files "UE" and "JSONL" and ``files`` (name -> text), with QOTSIM_SEED
    unset. Returns (exit code, stderr)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            mock.patch.dict(os.environ, {}, clear=False), \
            mock.patch.object(experiments, "DEFAULT_TRIALS", 20), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        os.environ.pop("QOTSIM_SEED", None)
        files = {"UE": UE_TEXT, "JSONL": "\n".join(TRANSCRIPTS) + "\n", **(files or {})}
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, stderr, verdict_ok=False):
    """Exit 0, or exit 1/2 with an ``error:`` line; ``verdict_ok`` also
    accepts replay's exit-1 verdict on a record that does not verify."""
    assert "Traceback" not in stderr
    if code == 0:
        return
    assert code in (1, 2), (code, stderr)
    lines = stderr.splitlines()
    verdict = verdict_ok and code == 1 and any(ln.startswith("replay failed at record")
                                               for ln in lines)
    assert verdict or any("error:" in ln for ln in lines), stderr


@st.composite
def mutated_argv(draw):
    argv = draw(st.sampled_from(VALID_ARGV))
    if argv[0] == "honest" and draw(st.booleans()):
        i = draw(st.sampled_from([2, 4, 6, 8]))  # the value of --N, --M, --M2 or --K
        argv = argv[:i] + [draw(HUGE)] + argv[i + 1:]
    return mutate(draw, argv, TOKENS)


@FUZZ
@given(mutated_argv())
def test_mutated_argv_exits_cleanly(argv):
    assert_clean_exit(*run_cli(argv), verdict_ok=argv[:1] == ["replay"])


CONFIG_KEYS = st.sampled_from(["N", "M", "M2", "K", "tau", "runs", "trials", "seed", "rmax",
                               "scenario", "policy", "values", "ue_file", "out", "config", "bogus",
                               " N", "N N", ""])
CONFIG_LINES = st.one_of(st.builds("{} = {}".format, CONFIG_KEYS, st.one_of(SMALL, TEXT, NAMES)),
                         TEXT, st.text(max_size=8))
VALID_CONFIG = ["N = 2", "M = 1", "M2 = 1", "K = 1", "tau = 0.0", "runs = 2", "seed = 4",
                "trials = 20", "rmax = 5", "values = 0,2", "policy = collapsed", "# comment"]


@FUZZ
@given(st.sampled_from([["honest"], ["attack", "--scenario", "intercept", "--M", "2"],
                        ["attack", "--scenario", "alice"], ["sweep", "--scenario", "bell"],
                        ["cost"], ["oblivious"]]), st.data())
def test_mutated_config_exits_cleanly(argv, data):
    lines = mutate(data.draw, VALID_CONFIG, CONFIG_LINES)
    if argv[0] == "honest" and data.draw(st.booleans()):
        lines.append(f"{data.draw(st.sampled_from(['N', 'M', 'M2', 'K']))} = {data.draw(HUGE)}")
    files = {"cfg.txt": "\n".join(lines) + "\n"}
    assert_clean_exit(*run_cli([*argv, "--config", "cfg.txt"], files))


UE_KEYS = st.sampled_from(["a", "b", "c", "d", "e00", "e01", "e10", "e11", "f", ""])
UE_VALUES = st.one_of(TEXT, SMALL, st.sampled_from(
    ["0.6", "0.8j", "1+0j", "(1+2j)", "1e400", "1,0,0", "1,0,0,0,0", "1,0,0,0", "0,0,0,0",
     "nan,0,0,0", "1, 0, 0, 0", "1j,0,0,0", "0.6,0.8,0,0", "1,0,0,0,"]))
UE_LINES = st.one_of(st.builds("{} = {}".format, UE_KEYS, UE_VALUES), TEXT, st.text(max_size=8))


@FUZZ
@given(st.data())
def test_mutated_ue_file_exits_cleanly(data):
    lines = mutate(data.draw, UE_TEXT.splitlines(), UE_LINES)
    argv = ["attack", "--scenario", "entangling", "--ue-file", "ue.txt", "--trials", "20"]
    assert_clean_exit(*run_cli(argv, {"ue.txt": "\n".join(lines) + "\n"}))


#: JSON values to put in a record; the huge ones only reach ProtocolConfig's
#: size check, since the config fields are the only sizes a record sets
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, -1, 0, 1, 2, 3, 1.5, float("nan"), "x", "", [], [0], [2],
                     [0, 1], [[0, 1]], [[0, 1], [1, 0]], [[2, 0]], [[0]], {}, {"N": 1}]),
    st.sampled_from([100001, 10 ** 9, 10 ** 20]))
RECORD_KEYS = sorted(json.loads(TRANSCRIPTS[0])) + ["bogus"]
CONFIG_FIELDS = sorted(json.loads(TRANSCRIPTS[0])["config"]) + ["bogus"]


@st.composite
def mutated_record(draw):
    record = json.loads(draw(st.sampled_from(TRANSCRIPTS)))
    for _ in range(draw(st.integers(1, 3))):
        op, in_config = draw(st.sampled_from(["set", "delete"])), draw(st.booleans())
        key = draw(st.sampled_from(CONFIG_FIELDS if in_config else RECORD_KEYS))
        nested = in_config and isinstance(record.get("config"), dict)
        target = record["config"] if nested else record
        if op == "set":
            target[key] = draw(JSON_VALUES)
        else:
            target.pop(key, None)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if draw(st.booleans()):
        line = line[:draw(st.integers(0, len(line)))]
    return line


@FUZZ
@given(st.lists(st.one_of(mutated_record(), st.sampled_from(TRANSCRIPTS), TEXT),
                min_size=1, max_size=3))
def test_mutated_records_exit_cleanly(lines):
    code, stderr = run_cli(["replay", "--transcript", "t.jsonl"],
                           {"t.jsonl": "\n".join(lines) + "\n"})
    assert_clean_exit(code, stderr, verdict_ok=True)
