import json

import pytest

from qotsim import cli, protocol


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
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

    @pytest.mark.parametrize("malform", [
        lambda r: {k: v for k, v in r.items() if k != "seed"},
        lambda r: {**r, "config": {**r["config"], "extra": 1}},
        lambda r: {**r, "config": {**r["config"], "seed": 1}},
        lambda r: {**r, "choices": 5},
        lambda r: [r],
    ], ids=["no-seed", "extra-config-key", "seed-in-config", "choices-not-a-list", "not-an-object"])
    def test_replay_rejects_malformed_record(self, capsys, tmp_path, malform):
        path = tmp_path / "runs.jsonl"
        run_cli(capsys, "honest", "--N", "2", "--seed", "3", "--transcript", str(path))
        path.write_text(json.dumps(malform(json.loads(path.read_text()))) + "\n")
        code, _, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 2 and err.startswith("error:")

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QOTSIM_SEED", "42")
        path = tmp_path / "runs.jsonl"
        code, _, _ = run_cli(capsys, "honest", "--N", "2", "--transcript", str(path))
        assert code == 0
        assert json.loads(path.read_text())["seed"] == 42


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

    @pytest.mark.parametrize("argv", [["--scenario", "intercept", "--M", "-3"],
                                      ["--scenario", "bell", "--K", "-2"]])
    def test_negative_parameter_is_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "attack", *argv, "--trials", "10")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_ue_file_wrong_scenario(self, capsys, tmp_path):
        path = tmp_path / "ue.txt"
        path.write_text("a=1\n")
        code, _, err = run_cli(capsys, "attack", "--scenario", "bell", "--K", "1",
                               "--trials", "10", "--ue-file", str(path))
        assert code == 2 and "entangling" in err

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

    def test_sweep_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "sweep", "--scenario", "intercept",
                                "--values", "1,2", "--trials", "300", "--seed", "8")
            outs.append(out)
        assert outs[0] == outs[1]


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

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("not a config\n")
        code, _, err = run_cli(capsys, "honest", "--config", str(cfg))
        assert code == 2 and "malformed" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["cost", "--bogus"])

    def test_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["attack", "--scenario", "nope"])
