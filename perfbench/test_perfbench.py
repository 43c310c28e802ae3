"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

qotsim = run.import_program()

import bench_trace  # noqa: E402  (needs the program on sys.path)
import bench_workloads  # noqa: E402
from qotsim import experiments, qsim  # noqa: E402

SMALL = {
    "mc-attack": {"trials": 30},
    "honest-protocol": {"small_rounds": 1, "paper_rounds": 1},
    "cli-roundtrip": {"records": 3, "trials": 30},
}


def small(name, seed, workdir):
    return bench_workloads.WORKLOADS[name](seed, str(workdir), **SMALL[name])


def test_self_time_subtracts_union_of_children():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping) and c [9,12]
    # (running past root); a has child g [2,3]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert bench_trace.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans():
    rec = bench_trace.SpanRecorder()
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.finish(inner)
    rec.finish(outer)
    sibling = rec.begin("outer")
    rec.finish(sibling)
    assert list(rec.parent) == [-1, 0, -1]
    assert [rec.names[i] for i in rec.name_id] == ["outer", "inner", "outer"]
    assert all(e >= s for s, e in zip(rec.start, rec.end))


def traced_counts(name, seed, workdir):
    workload = small(name, seed, workdir)
    rec = bench_trace.SpanRecorder()
    with bench_trace.traced(rec, qotsim):
        results = bench_workloads.run_passes(workload, passes=2)
    assert sum(r.failed for r in results) == 0
    for r in results:
        rec.counts.update(r.counts)
    metrics = bench_trace.layer_metrics(rec)
    return {k: metrics[k] for k, unit in bench_trace.LAYER_METRICS if unit == "count"}


@pytest.mark.parametrize("name", list(bench_workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    first = traced_counts(name, 7, tmp_path)
    second = traced_counts(name, 7, tmp_path)
    assert first == second
    assert first["qsim.measure.calls"] > 0
    assert first["rng.default_rng.calls"] > 0
    if name != "mc-attack":
        assert first["protocol.slot_copies"] > 0


def test_tracing_restores_the_program(tmp_path):
    originals = (qsim.measure, experiments.np, qotsim.protocol.Transcript.to_json_line)
    rec = bench_trace.SpanRecorder()
    with pytest.raises(RuntimeError):
        with bench_trace.traced(rec, qotsim):
            assert qsim.measure is not originals[0]
            raise RuntimeError("stop")
    assert (qsim.measure, experiments.np, qotsim.protocol.Transcript.to_json_line) == originals


def test_unreachable_bindings_name_from_imports():
    found = bench_trace.unreachable_bindings([qotsim.protocol, qotsim.experiments])
    assert "qotsim.protocol.choice_basis (bound as qotsim.experiments.choice_basis)" in found


def _fingerprint(name, inputs):
    if name == "mc-attack":
        return inputs["seeds"], inputs["ue"].a
    if name == "honest-protocol":
        return [(cfg.seed, cfg.N, choices, pairs) for cfg, choices, pairs in inputs]
    with open(inputs["config"], encoding="utf-8") as fh:
        return inputs["attack_seed"], inputs["sweep_seed"], fh.read()


@pytest.mark.parametrize("name", list(bench_workloads.WORKLOADS))
def test_inputs_follow_the_workload_seed(name, tmp_path):
    def inputs(seed, pass_idx=0):
        return _fingerprint(name, small(name, seed, tmp_path).inputs(pass_idx))

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)
    assert inputs(1, 0) != inputs(1, 1)


def test_band_accepts_sampling_error_and_rejects_bias():
    within = bench_workloads.within_band
    assert within(0.25 + 0.05, 0.25, 1000)
    assert not within(0.25 + 0.1, 0.25, 1000)
    p50 = 1 - 0.75 ** 50
    assert within(1.0, p50, 1000) and within(0.999, p50, 1000)
    assert not within(0.998, p50, 1000)


def test_gate_counts_a_wrong_estimate_as_failed(monkeypatch, tmp_path):
    real = experiments.estimate_detection_rate

    def biased(spec):
        row = real(spec)
        return experiments.EstimateRow(row.parameter, abs(row.empirical - 0.3), row.closed_form,
                                       row.stderr, row.trials)

    monkeypatch.setattr(experiments, "estimate_detection_rate", biased)
    workload = bench_workloads.McAttack(3, str(tmp_path), trials=200)
    res = bench_workloads.PassResult()
    workload.run(workload.inputs(0), res)
    assert (res.attempted, res.failed) == (6, 4)


def test_gate_counts_a_failing_cli_command(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_workloads.CliRoundtrip, "RMAX", 0)
    workload = small("cli-roundtrip", 3, tmp_path)
    res = bench_workloads.PassResult()
    workload.run(workload.inputs(0), res)
    assert (res.attempted, res.failed) == (6, 1)
    assert "cost" in res.failures[0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_trace.LAYER_METRICS


def _bench(cwd, *extra):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-roundtrip",
                           "--seed", "5", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_per_layer_metric():
    done = _bench(run.ROOT, "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in bench_trace.LAYER_METRICS]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
