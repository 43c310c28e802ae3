import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qotsim import cli, protocol


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one command; argparse usage errors
    exit through SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCost:
    def test_curve_output(self, capsys):
        code, out, err = run_cli(capsys, "cost", "--rmax", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "R,yang,ysw,yylsz,proposed"
        assert len(lines) == 101
        r30 = lines[30].split(",")
        assert r30 == ["30", "170", "170", "220", "170"]
        assert "footnote" in err

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "cost", "--rmax", "5", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("R,yang")

    def test_rmax_one_writes_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--rmax", "1")
        assert code == 0 and out.splitlines()[1:] == ["1,54,54,104,141"]

    @pytest.mark.parametrize("argv, dest, default", [
        (["cost"], "rmax", 100),
        (["attack", "--scenario", "bell"], "trials", 100_000),
        (["sweep", "--scenario", "intercept"], "trials", 100_000),
    ], ids=["cost", "attack", "sweep"])
    def test_bare_command_defaults(self, argv, dest, default):
        parser, _ = cli.build_parser()
        assert getattr(parser.parse_args(argv), dest) == default

    @pytest.mark.parametrize("rmax", ["-5", "0"])
    def test_rmax_below_one_names_flag(self, capsys, rmax):
        code, out, err = run_cli(capsys, "cost", "--rmax", rmax)
        assert code == 2 and out == ""
        assert "error:" in err and "--rmax" in err


class TestOblivious:
    def test_all_distances_zero(self, capsys):
        code, out, _ = run_cli(capsys, "oblivious")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "choice,chosen_bit,trace_distance"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[2]) <= 1e-12


class TestHonest:
    def test_transcript_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--N", "3", "--M", "2", "--M2", "2",
                             "--K", "1", "--seed", "7", "--runs", "4",
                             "--transcript", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        code, out, _ = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 0 and "verified 4" in out

    def test_runs_one_writes_one_record(self, capsys):
        code, out, _ = run_cli(capsys, "honest", "--runs", "1", "--seed", "3")
        assert code == 0 and len(out.splitlines()) == 1
        assert json.loads(out)["seed"] == 3

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "honest", "--N", "2", "--K", "1",
                                 "--M", "0", "--M2", "0", "--seed", "1",
                                 "--transcript", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_detects_tampering(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--N", "2", "--seed", "3", "--transcript", str(path))
        record = json.loads(path.read_text())
        record["decoded_bits"] = [b ^ 1 for b in record["decoded_bits"]]
        path.write_text(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        code, _, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 1 and "divergence" in err
        # untampered, but written with spaces: the bytes are what is verified
        run_cli(capsys, "honest", "--N", "2", "--seed", "3", "--transcript", str(path))
        path.write_text(json.dumps(json.loads(path.read_text())) + "\n")
        code, _, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 1 and "divergence in formatting" in err

    @pytest.mark.parametrize("malform", [
        lambda r: {k: v for k, v in r.items() if k != "seed"},
        lambda r: {**r, "config": {**r["config"], "extra": 1}},
        lambda r: {**r, "config": {**r["config"], "seed": 1}},
        lambda r: {**r, "choices": 5},
        lambda r: {**r, "choices": None},
        lambda r: {**r, "pairs": None},
        lambda r: [r],
        lambda r: {**r, "pairs": [[0, 2]] + r["pairs"][1:]},
        lambda r: {**r, "config": {**r["config"], "K": 10**9}},
        lambda r: json.dumps(r)[:-1],
        lambda r: {**r, "pairs": ["".join(map(str, p)) for p in r["pairs"]]},
        lambda r: {**r, "choices": [bool(c) for c in r["choices"]]},
        lambda r: {**r, "choices": [float(c) for c in r["choices"]]},
        lambda r: {**r, "config": {**r["config"], "N": True}, "choices": r["choices"][:1],
                   "pairs": r["pairs"][:1]},
        lambda r: {**r, "config": {**r["config"], "tau": False}},
        lambda r: {**r, "version": True},
        lambda r: {**r, "seed": True},
        lambda r: {**r, "seed": -3},
        lambda r: json.dumps({**r, "choices": 0}).replace(
            '"choices": 0', '"choices": ' + "[" * 100_000 + "]" * 100_000),
        lambda r: json.dumps({**r, "seed": 0}).replace('"seed": 0', '"seed": ' + "9" * 5000),
    ], ids=["no-seed", "extra-config-key", "seed-in-config", "choices-not-a-list", "null-choices",
            "null-pairs", "not-an-object", "non-bit-pair", "huge-register", "not-json",
            "string-pairs", "bool-choices", "float-choices", "bool-N", "bool-tau", "bool-version",
            "bool-seed", "negative-seed", "deeply-nested", "5000-digit-seed"])
    def test_replay_rejects_malformed_record(self, capsys, tmp_path, malform):
        """The malformed record follows a valid one, and the error names it."""
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--N", "2", "--seed", "3", "--transcript", str(path))
        valid = path.read_text()
        bad = malform(json.loads(valid))
        path.write_text(valid + (bad if isinstance(bad, str) else json.dumps(bad)) + "\n")
        code, _, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 2 and err.startswith("error: record 2:")

    def test_replay_names_a_record_that_is_not_utf8(self, capsys, tmp_path):
        """A Latin-1 byte in record 2 fails record 2, after record 1 has been
        verified, like any other malformed record."""
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--N", "2", "--seed", "3", "--transcript", str(path))
        valid = path.read_bytes()
        path.write_bytes(valid + valid.replace(b'"verdict":"ok"', b'"verdict":"\xe9"'))
        code, out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 2 and out == "" and err.startswith("error: record 2:") and "utf-8" in err

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\xef\xbb\xbf\n"], ids=["first-record", "own-line"])
    def test_replay_skips_a_byte_order_mark(self, capsys, tmp_path, prefix):
        # editors that save "UTF-8 with BOM" write U+FEFF at the start of the file
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--runs", "2", "--seed", "3", "--transcript", str(path))
        path.write_bytes(prefix + path.read_bytes())
        code, out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert (code, out, err) == (0, "verified 2 transcript(s)\n", "")

    def test_replay_rejects_a_byte_order_mark_after_the_start(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--runs", "2", "--seed", "3", "--transcript", str(path))
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + b"\xef\xbb\xbf" + second)
        code, out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 2 and out == "" and err.startswith("error: record 2:") and "BOM" in err

    def test_replay_stops_reading_at_the_first_failed_record(self, capsys, tmp_path):
        """Records are read one at a time: bytes well past a failed record,
        beyond any read-ahead buffer, are never read, even ones that are not
        UTF-8."""
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--N", "2", "--seed", "3", "--transcript", str(path))
        record = json.loads(path.read_text())
        record["decoded_bits"] = [b ^ 1 for b in record["decoded_bits"]]
        tampered = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        path.write_bytes(tampered.encode() + b"\n" * 2**20 + b"\xff\xfe\n")
        code, out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 1 and out == "" and err.startswith("replay failed at record 1:")

    def test_huge_register_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "honest", "--K", "1000000000")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QOTSIM_SEED", "42")
        path = tmp_path / "runs.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--N", "2", "--transcript", str(path))
        assert code == 0
        assert json.loads(path.read_text())["seed"] == 42


class TestSeedEnvironment:
    HONEST = ("honest", "--N", "2", "--K", "1")

    def test_flag_seed_ignores_malformed_env(self, capsys, monkeypatch):
        monkeypatch.delenv("QOTSIM_SEED", raising=False)
        code, expected, _ = run_cli(capsys, *self.HONEST, "--seed", "5")
        assert code == 0
        monkeypatch.setenv("QOTSIM_SEED", "x")
        code, out, _ = run_cli(capsys, *self.HONEST, "--seed", "5")
        assert code == 0 and out == expected

    def test_file_seed_ignores_malformed_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("QOTSIM_SEED", raising=False)
        code, expected, _ = run_cli(capsys, *self.HONEST, "--seed", "5")
        assert code == 0
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 5\n")
        monkeypatch.setenv("QOTSIM_SEED", "x")
        code, out, _ = run_cli(capsys, *self.HONEST, "--config", str(cfg))
        assert code == 0 and out == expected

    def test_malformed_env_seed_names_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("QOTSIM_SEED", "x")
        cfg = tmp_path / "run.conf"
        cfg.write_text("N = 2\n")
        for config in ([], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, *self.HONEST, *config)
            assert code == 2 and out == ""
            assert "error:" in err and "--seed" in err

    @pytest.mark.parametrize("command", [HONEST, ("attack", "--scenario", "bell", "--K", "1")],
                             ids=["honest", "attack"])
    @pytest.mark.parametrize("form", ["flag", "env", "config"])
    def test_negative_seed_names_flag(self, capsys, monkeypatch, tmp_path, command, form):
        monkeypatch.delenv("QOTSIM_SEED", raising=False)
        argv = list(command)
        if form == "flag":
            argv += ["--seed", "-1"]
        elif form == "env":
            monkeypatch.setenv("QOTSIM_SEED", "-3")
        else:
            cfg = tmp_path / "run.conf"
            cfg.write_text("seed = -2\n")
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error:" in err and "--seed" in err and ">= 0" in err

    def test_file_values_do_not_outlive_their_call(self, capsys, monkeypatch, tmp_path):
        # the parser is shared between calls, so a call's defaults must not outlive it
        monkeypatch.delenv("QOTSIM_SEED", raising=False)
        code, expected, _ = run_cli(capsys, *self.HONEST)
        assert code == 0
        good, bad = tmp_path / "good.conf", tmp_path / "bad.conf"
        good.write_text("M = 3\nseed = 5\n")
        bad.write_text("M = 4\nseed = x\n")
        assert run_cli(capsys, *self.HONEST, "--config", str(good))[0] == 0
        assert run_cli(capsys, *self.HONEST, "--config", str(bad))[0] == 2
        code, out, _ = run_cli(capsys, *self.HONEST)
        assert code == 0 and out == expected

    def test_file_seed_beats_env(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 9\n")
        monkeypatch.setenv("QOTSIM_SEED", "42")
        code, out, _ = run_cli(capsys, *self.HONEST, "--config", str(cfg))
        assert code == 0 and json.loads(out)["seed"] == 9


class TestAttack:
    def test_intercept_row(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "intercept",
                               "--M", "5", "--trials", "2000", "--seed", "7")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "parameter,empirical,closed_form,stderr,trials"
        fields = row.split(",")
        assert fields[0] == "5"
        assert float(fields[2]) == pytest.approx(1 - 0.75 ** 5)

    def test_bell_row(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "bell",
                               "--K", "2", "--trials", "1000", "--seed", "1")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(0.75)

    def test_alice_rows(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "alice-dummy",
                               "--trials", "2000", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        metrics = [ln.split(",")[0] for ln in lines[1:]]
        assert metrics == ["conclusive", "bit_error", "dummy_error"]

    def test_entangling_with_param_file(self, capsys, tmp_path):
        path = tmp_path / "ue.txt"
        path.write_text(
            "a = 1+0j\nb = 0j\nc = 0j\nd = 1+0j\n"
            "e00 = 1,0,0,0\ne01 = 1,0,0,0\ne10 = 0,1,0,0\ne11 = 1,0,0,0\n")
        code, out, _ = run_cli(capsys, "attack", "--scenario", "entangling",
                               "--ue-file", str(path), "--trials", "200")
        assert code == 0
        lines = out.strip().splitlines()
        detection = lines[1].split(",")
        leakage = lines[2].split(",")
        assert detection[0] == "detection" and float(detection[1]) == 0.0
        assert leakage[0] == "leakage" and float(leakage[1]) <= 1e-12

    def test_missing_parameter_is_error(self, capsys):
        code, _, err = run_cli(capsys, "attack", "--scenario", "intercept",
                               "--trials", "10")
        assert code == 2 and "requires --M" in err
        code, out, err = run_cli(capsys, "attack", "--scenario", "entangling", "--trials", "10")
        assert (code, out, err) == (2, "", "error: entangling scenario requires --ue-file\n")

    @pytest.mark.parametrize("argv", [["--scenario", "intercept", "--M", "-3"],
                                      ["--scenario", "bell", "--K", "-2"]])
    def test_negative_parameter_is_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "attack", *argv, "--trials", "10")
        assert code == 2 and out == ""
        assert "error:" in err and argv[2] in err

    def test_ue_file_wrong_scenario(self, capsys, tmp_path):
        path = tmp_path / "ue.txt"
        path.write_text("a=1\n")
        code, _, err = run_cli(capsys, "attack", "--scenario", "bell", "--K", "1",
                               "--trials", "10", "--ue-file", str(path))
        assert code == 2 and "entangling" in err

    @pytest.mark.parametrize("argv, flag", [
        (["intercept", "--M", "3", "--K", "7"], "--K"),
        (["bell", "--K", "2", "--M", "1"], "--M"),
        (["alice", "--M", "3"], "--M"),
        (["alice-dummy", "--K", "3"], "--K"),
        (["intercept", "--M", "3", "--policy", "random"], "--policy"),
        (["bell", "--K", "2", "--policy", "guess"], "--policy"),
        (["entangling", "--M", "3"], "--M"),
        (["entangling", "--policy", "collapsed"], "--policy"),
    ])
    def test_flag_outside_its_scenario_is_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "attack", "--scenario", *argv, "--trials", "10")
        assert code == 2 and out == ""
        assert err == f"error: {flag} does not apply to the {argv[0]} scenario\n"

    @pytest.mark.parametrize("line, argv, flag", [
        ("K = 7", ["intercept", "--M", "3"], "--K"),
        ("policy = random", ["bell", "--K", "2"], "--policy"),
        ("M = 3", ["alice"], "--M"),
    ])
    def test_file_value_outside_its_scenario_is_error(self, capsys, tmp_path, line, argv, flag):
        cfg = tmp_path / "run.conf"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "attack", "--scenario", *argv, "--trials", "10",
                                 "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {flag} does not apply to the {argv[0]} scenario\n"

    def test_policy_defaults_to_guess(self, capsys):
        argv = ["attack", "--scenario", "alice-dummy", "--trials", "50", "--seed", "3"]
        _, default, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--policy", "guess") == (0, default, "")

    @pytest.mark.parametrize("line", ["a = nan", "d = inf", "e11 = 1,0,0,nan"])
    def test_non_finite_ue_file_is_error(self, capsys, tmp_path, line):
        values = dict(ln.split(" = ") for ln in (
            "a = 1+0j", "b = 0j", "c = 0j", "d = 1+0j",
            "e00 = 1,0,0,0", "e01 = 1,0,0,0", "e10 = 0,1,0,0", "e11 = 1,0,0,0", line))
        path = tmp_path / "ue.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, out, err = run_cli(capsys, "attack", "--scenario", "entangling",
                                 "--trials", "10", "--ue-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and line.split(" = ")[0] in err and "finite" in err

    @pytest.mark.parametrize("line", ["a = 1+", "c = 0.8k", "e00 = 1,0,0,0,", "e10 = 0,,1,0"])
    def test_malformed_complex_in_ue_file_names_file_and_key(self, capsys, tmp_path, line):
        values = dict(ln.split(" = ") for ln in (
            "a = 1+0j", "b = 0j", "c = 0j", "d = 1+0j",
            "e00 = 1,0,0,0", "e01 = 1,0,0,0", "e10 = 0,1,0,0", "e11 = 1,0,0,0", line))
        path = tmp_path / "ue.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, out, err = run_cli(capsys, "attack", "--scenario", "entangling",
                                 "--trials", "10", "--ue-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {line.split(' = ')[0]}: malformed complex literal")

    def test_ue_file_with_leading_byte_order_mark(self, capsys, tmp_path):
        text = ("a = 1+0j\nb = 0j\nc = 0j\nd = 1+0j\n"
                "e00 = 1,0,0,0\ne01 = 1,0,0,0\ne10 = 0,1,0,0\ne11 = 1,0,0,0\n")
        outputs = []
        for name, prefix in (("plain.txt", ""), ("bom.txt", "\ufeff")):
            path = tmp_path / name
            path.write_text(prefix + text, encoding="utf-8")
            outputs.append(run_cli(capsys, "attack", "--scenario", "entangling", "--seed", "3",
                                   "--ue-file", str(path), "--trials", "200"))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_ue_file_that_is_not_utf8_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "ue.txt"
        path.write_bytes(b"a = 1+0j\nM = \xe9\n")
        code, out, err = run_cli(capsys, "attack", "--scenario", "entangling",
                                 "--trials", "10", "--ue-file", str(path))
        assert code == 2 and out == "" and err.startswith(f"error: {path}:2:")

    def test_unreadable_ue_file(self, capsys):
        code, _, err = run_cli(capsys, "attack", "--scenario", "entangling",
                               "--trials", "10", "--ue-file", "/nonexistent/ue.txt")
        assert code == 1 and "error" in err


class TestSweep:
    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "bell",
                               "--values", "1,2,3", "--trials", "500", "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]

    def test_sweep_requires_values(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--scenario", "bell", "--trials", "10")
        assert code == 2 and "--values" in err

    def test_malformed_values_names_flag(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--scenario", "bell", "--values", "1,x",
                                 "--trials", "10")
        assert code == 2 and out == ""
        assert "error:" in err and "--values" in err

    def test_sweep_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "sweep", "--scenario", "intercept",
                                "--values", "1,2", "--trials", "300", "--seed", "8")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_points_do_not_share_streams_across_seeds(self, capsys):
        # with a stream per (seed + point index), seed 0's second point was
        # seed 1's first
        _, seed0, _ = run_cli(capsys, "sweep", "--scenario", "intercept", "--values", "5,5",
                              "--trials", "2000", "--seed", "0")
        _, seed1, _ = run_cli(capsys, "sweep", "--scenario", "intercept", "--values", "5",
                              "--trials", "2000", "--seed", "1")
        assert seed0.splitlines()[2] != seed1.splitlines()[1]
        assert seed0.splitlines()[1] == seed0.splitlines()[2]

    @pytest.mark.parametrize("scenario, flag", [("intercept", "--M"), ("bell", "--K")])
    def test_every_row_equals_attack(self, capsys, scenario, flag):
        _, sweep, _ = run_cli(capsys, "sweep", "--scenario", scenario, "--values", "3,4,3",
                              "--trials", "600", "--seed", "6")
        rows = sweep.splitlines()
        for value, row in zip((3, 4, 3), rows[1:]):
            _, attack, _ = run_cli(capsys, "attack", "--scenario", scenario, flag, str(value),
                                   "--trials", "600", "--seed", "6")
            assert attack.splitlines() == [rows[0], row]


def as_flags(values):
    return [arg for key, value in values.items() for arg in (f"--{key.replace('_', '-')}", value)]


#: argv, every file-settable key of the command that it uses, and other values
#: for the same keys
EQUIVALENCE_CASES = {
    "honest": (["honest"],
               {"N": "3", "M": "2", "M2": "3", "K": "1", "tau": "0.0", "runs": "3", "seed": "4"},
               {"N": "2", "M": "1", "M2": "2", "K": "2", "tau": "0.25", "runs": "2", "seed": "5"}),
    "attack-intercept": (["attack", "--scenario", "intercept"],
                         {"M": "3", "trials": "200", "seed": "4"},
                         {"M": "2", "trials": "100", "seed": "5"}),
    "attack-bell": (["attack", "--scenario", "bell"],
                    {"K": "2", "trials": "200", "seed": "4"},
                    {"K": "3", "trials": "100", "seed": "5"}),
    "attack-alice": (["attack", "--scenario", "alice-dummy"],
                     {"policy": "collapsed", "trials": "200", "seed": "4"},
                     {"policy": "random", "trials": "100", "seed": "5"}),
    "sweep": (["sweep", "--scenario", "intercept"],
              {"values": "1,3", "trials": "200", "seed": "4"},
              {"values": "2", "trials": "100", "seed": "5"}),
    "cost": (["cost"], {"rmax": "20", "seed": "4"}, {"rmax": "10", "seed": "5"}),
}


class TestConfigFile:
    def test_file_values_used(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("N = 3\nK = 1\nM = 2\nM2 = 2\nseed = 11\n")
        path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--config", str(cfg),
                             "--transcript", str(path))
        assert code == 0
        record = json.loads(path.read_text())
        assert record["config"]["N"] == 3 and record["seed"] == 11

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("N = 3\nseed = 11\n")
        path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--config", str(cfg), "--N", "5",
                             "--transcript", str(path))
        assert code == 0
        assert json.loads(path.read_text())["config"]["N"] == 5

    def test_a_later_key_overrides_an_earlier_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 3\nN = 2\n# seed = 7\nseed = 11  # later wins\n")
        path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--config", str(cfg), "--transcript", str(path))
        assert code == 0
        assert json.loads(path.read_text())["seed"] == 11

    def test_malformed_value_names_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("N = x\n")
        code, out, err = run_cli(capsys, "honest", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "error:" in err and "--N" in err

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_file_matches_flags(self, capsys, tmp_path, name):
        argv, values, _ = EQUIVALENCE_CASES[name]
        cfg = tmp_path / "run.conf"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        code, from_flags, _ = run_cli(capsys, *argv, *as_flags(values))
        assert code == 0
        code, from_file, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0 and from_file == from_flags

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_flags_beat_every_file_key(self, capsys, tmp_path, name):
        argv, values, others = EQUIVALENCE_CASES[name]
        cfg = tmp_path / "run.conf"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in others.items()))
        code, from_flags, _ = run_cli(capsys, *argv, *as_flags(values))
        assert code == 0
        code, overridden, _ = run_cli(capsys, *argv, "--config", str(cfg), *as_flags(values))
        assert code == 0 and overridden == from_flags
        code, from_file, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0 and from_file != from_flags

    @pytest.mark.parametrize("scenario", [["intercept", "--M", "2"], ["alice"]],
                             ids=["intercept", "alice"])
    def test_policy_outside_choices_names_flag(self, capsys, tmp_path, scenario):
        cfg = tmp_path / "run.conf"
        cfg.write_text("policy = bogus\n")
        code, out, err = run_cli(capsys, "attack", "--scenario", *scenario, "--trials", "10",
                                 "--config", str(cfg))
        assert code == 2 and out == ""
        assert "error:" in err and "--policy" in err and "bogus" in err

    def test_a_value_holding_a_hash_is_read_whole(self, capsys, tmp_path):
        # "#" inside a value starts no comment, so "5#x" is checked as --N, not read as 5
        cfg = tmp_path / "run.conf"
        cfg.write_text("N = 5#x\n")
        code, out, err = run_cli(capsys, "honest", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "error:" in err and "--N" in err

    def test_a_ue_file_path_may_hold_a_hash(self, capsys, tmp_path):
        path = tmp_path / "d#2" / "ue.txt"
        path.parent.mkdir()
        path.write_text("a = 1+0j\nb = 0j\nc = 0j\nd = 1+0j\n"
                        "e00 = 1,0,0,0\ne01 = 1,0,0,0\ne10 = 0,1,0,0\ne11 = 1,0,0,0\n")
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"ue_file = {path}\n")
        argv = ["attack", "--scenario", "entangling", "--trials", "10", "--seed", "3"]
        from_flag = run_cli(capsys, *argv, "--ue-file", str(path))
        assert from_flag[0] == 0 and run_cli(capsys, *argv, "--config", str(cfg)) == from_flag

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("not a config\n")
        code, _, err = run_cli(capsys, "honest", "--config", str(cfg))
        assert code == 2 and "malformed" in err

    def test_config_that_is_not_utf8_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(b"N = 2\nM = \xe9\n")
        code, out, err = run_cli(capsys, "honest", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith(f"error: {cfg}:2:")

    def test_leading_byte_order_mark_keeps_the_first_key(self, capsys, tmp_path):
        # editors that save "UTF-8 with BOM" write U+FEFF before the first key
        cfg = tmp_path / "run.conf"
        cfg.write_text("\ufeffN = 5\nseed = 11\n", encoding="utf-8")
        path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--config", str(cfg), "--transcript", str(path))
        assert code == 0
        record = json.loads(path.read_text())
        assert record["config"]["N"] == 5 and record["seed"] == 11


#: a command run with its --scenario given as a flag
SCENARIO_CASES = {
    "attack": ["attack", "--scenario", "bell", "--K", "3", "--trials", "100", "--seed", "4"],
    "sweep": ["sweep", "--scenario", "intercept", "--values", "1,3", "--trials", "100",
              "--seed", "4"],
}


class TestScenarioFromFile:
    """``--scenario`` is checked by its type, as ``--policy`` is, so a config
    file may set it and a bad file value exits 2 naming the flag."""

    @pytest.mark.parametrize("command", sorted(SCENARIO_CASES))
    def test_file_scenario_gives_the_flag_output(self, capsys, tmp_path, command):
        argv = SCENARIO_CASES[command]
        code, from_flag, _ = run_cli(capsys, *argv)
        assert code == 0
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"scenario = {argv[2]}\n")
        code, from_file, err = run_cli(capsys, command, *argv[3:], "--config", str(cfg))
        assert (code, from_file, err) == (0, from_flag, "")

    @pytest.mark.parametrize("command", sorted(SCENARIO_CASES))
    def test_file_scenario_outside_choices_names_flag(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.conf"
        cfg.write_text("scenario = nope\n")
        code, out, err = run_cli(capsys, command, *SCENARIO_CASES[command][3:],
                                 "--config", str(cfg))
        assert code == 2 and out == ""
        assert "error:" in err and "--scenario" in err and "nope" in err

    @pytest.mark.parametrize("command", sorted(SCENARIO_CASES))
    def test_flag_scenario_beats_a_bad_file_value(self, capsys, tmp_path, command):
        argv = SCENARIO_CASES[command]
        code, from_flag, _ = run_cli(capsys, *argv)
        assert code == 0
        cfg = tmp_path / "run.conf"
        cfg.write_text("scenario = nope\n")
        code, overridden, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, overridden, err) == (0, from_flag, "")

    @pytest.mark.parametrize("command", sorted(SCENARIO_CASES))
    def test_missing_scenario_is_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.conf"
        cfg.write_text("trials = 10\n")
        for config in ([], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, command, *SCENARIO_CASES[command][3:], *config)
            assert (code, out, err) == (2, "", f"error: {command} requires --scenario\n")

    @pytest.mark.parametrize("command", sorted(SCENARIO_CASES))
    def test_help_lists_the_choices(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        choices = "intercept,entangling,bell,alice,alice-dummy" if command == "attack" else "intercept,bell"
        assert code == 0 and f"--scenario {{{choices}}}" in out


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["cost", "--bogus"])

    def test_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["attack", "--scenario", "nope"])

    @pytest.mark.parametrize("argv, flag", [
        (["honest", "--N", "0"], "--N"), (["honest", "--M", "-1"], "--M"), (["honest", "--M2", "-1"], "--M2"),
        (["honest", "--K", "-1"], "--K"), (["attack", "--scenario", "intercept", "--M", "-3"], "--M"),
        (["attack", "--scenario", "bell", "--trials", "0"], "--trials"),
        (["sweep", "--scenario", "bell", "--values", "1,-2"], "--values"),
        (["sweep", "--scenario", "bell", "--values", "1", "--trials", "0"], "--trials")],
        ids=["honest-N", "honest-M", "honest-M2", "honest-K", "attack-M", "attack-trials", "sweep-values",
             "sweep-trials"])
    def test_out_of_range_integer_names_flag(self, capsys, tmp_path, argv, flag):
        # as a flag, then as the same value from a --config file
        at = argv.index(flag)
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{flag[2:]} = {argv[at + 1]}\n")
        for form in (argv, [*argv[:at], *argv[at + 2:], "--config", str(cfg)]):
            code, out, err = run_cli(capsys, *form)
            assert code == 2 and out == ""
            assert f"error: argument {flag}: must be >= " in err, form


class TestModuleEntryPoint:
    """``python -m qotsim.cli`` in a fresh interpreter, with the package's
    ``src`` directory on ``PYTHONPATH``: the exit code reaches the shell."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "qotsim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_cost_prints_header_and_rows(self):
        done = self.run_module("cost", "--rmax", "2")
        assert done.returncode == 0
        assert done.stdout.splitlines() == ["R,yang,ysw,yylsz,proposed", "1,54,54,104,141",
                                            "2,58,58,108,142"]

    def test_usage_error_exits_two(self):
        done = self.run_module("cost", "--rmax", "0")
        assert done.returncode == 2 and done.stdout == "" and "--rmax" in done.stderr

    def test_missing_transcript_exits_one(self, tmp_path):
        done = self.run_module("replay", "--transcript", str(tmp_path / "missing.jsonl"))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ")


class TestReadme:
    def test_cli_examples_parse(self):
        """Every ``qotsim`` line of README.md's ``sh`` blocks parses."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
                    for line in block.splitlines() if line.startswith("qotsim ")]
        assert commands
        for line in commands:
            args = cli.build_parser()[0].parse_args(shlex.split(line)[1:])
            assert callable(args.handler), line
