"""The benchmark's three workloads: seeded inputs, timed passes and the
correctness gate.

A workload runs fixed-size *passes*. Each pass's inputs are derived from
(workload seed, workload, pass index) through ``numpy.random.SeedSequence``
spawn keys, so two workload seeds never share a stream and the same seed
always gives the same inputs. Input generation is not timed. Every call into
the program is an *operation*; an operation whose output fails its check is
counted as failed. Each pass splits its items into a light and a heavy class
(see README.md) and times each class separately.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from qotsim import adversary, cli, experiments, protocol
from qotsim.adversary import AttackScenario

#: width of the Monte Carlo acceptance band in standard deviations. A 30-s
#: run checks up to about 500 rates and an acceptance makes about 100 runs;
#: at 4 sigma (false alarm ~7e-5 per check) some run would fail by chance, at
#: 6 sigma (~5e-9) none does.
BAND_SIGMAS = 6.0

ESTIMATE_HEADER = "parameter,empirical,closed_form,stderr,trials"

_WORKLOAD_TAGS = {"mc-attack": 1, "honest-protocol": 2, "cli-roundtrip": 3}


@dataclass(frozen=True)
class _RefSlot:
    index: int
    tag: tuple


_REF_AMPS = np.array([0.6, 0.8j])
_REF_SLOTS = [_RefSlot(i, (i,)) for i in range(20_000)]


def reference_work() -> float:
    """Fixed work of the kinds the program does: numpy calls on 2-element
    complex arrays and dataclass copies over a heap of a few MB.

    Its time just before plus just after a pass is the unit that pass is
    measured in. The host's speed drifts by 10-40% between runs; this ratio
    drifts by about 4% (see README.md)."""
    acc = 0.0
    for i in range(300):
        cube = _REF_AMPS.reshape(1, 2, -1)
        acc += float(np.sum(np.abs(cube[:, 1, :]) ** 2))
        for j in range(4):
            slot = _REF_SLOTS[(i * 7919 + j * 104_729) % len(_REF_SLOTS)]
            acc += len({"index": replace(slot, index=slot.index + 1).index, "tag": slot.tag})
    return acc


def stream(seed: int, workload: str, *key: int) -> np.random.SeedSequence:
    """The seed sequence of one input stream of a workload."""
    return np.random.SeedSequence(seed, spawn_key=(_WORKLOAD_TAGS[workload], *key))


def seeds(seq: np.random.SeedSequence, n: int) -> list[int]:
    """``n`` 64-bit program seeds from one seed sequence."""
    return [int(s) for s in seq.generate_state(n, np.uint64)]


def within_band(rate: float, p: float, trials: int) -> bool:
    """True iff a Monte Carlo rate agrees with its closed form ``p``.

    The band is BAND_SIGMAS binomial standard deviations of ``p`` plus one
    trial, the binomial's granularity: at p = 1 - 5.7e-7 (intercept, M=50)
    the band would otherwise be narrower than a single miss.
    """
    return abs(rate - p) <= BAND_SIGMAS * math.sqrt(p * (1.0 - p) / trials) + 1.0 / trials


def estimate_ok(row, parameter: int, p: float, trials: int) -> bool:
    """Check an ``EstimateRow`` against the closed form the benchmark expects."""
    return (row.parameter == parameter and row.trials == trials
            and abs(row.closed_form - p) <= 1e-12 and within_band(row.empirical, p, trials))


@dataclass
class PassResult:
    """Timings and checks of one pass."""

    light_s: float = 0.0
    light_items: int = 0
    heavy_s: float = 0.0
    heavy_items: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)

    def op(self, seconds: float, ok: bool, what: str) -> None:
        self.attempted += 1
        self.op_s.append(seconds)
        if not ok:
            self.failed += 1
            self.failures.append(what)


class McAttack:
    """Fixed-budget Monte Carlo estimates, one point per attack shape.

    Items are trials. Heavy: intercept at M=50, deep trials of about four
    decoys each. Light: every other point, shallow trials whose cost is mostly
    per-trial RNG construction.
    """

    name = "mc-attack"
    POINTS = (("intercept", 1), ("intercept", 50), ("bell", 1), ("bell", 20),
              ("alice", 0), ("entangling", 0))
    HEAVY = ("intercept", 50)
    CLOSED = {"intercept": lambda m: 1.0 - 0.75 ** m, "bell": lambda k: 1.0 - 0.5 ** k}
    SCENARIOS = {"intercept": AttackScenario.INTERCEPT_RESEND, "bell": AttackScenario.BOB_BELL_CHEAT}
    ALICE_RATES = (("conclusive_rate", 0.25), ("bit_error_rate", 0.1875),
                   ("dummy_error_rate", 0.09375))

    def __init__(self, seed: int, workdir: str, trials: int = 1000):
        self.seed = seed
        self.trials = trials

    def inputs(self, pass_idx: int) -> dict:
        seq = stream(self.seed, self.name, pass_idx)
        point_seeds, ue_seq = seq.spawn(2)
        return {"seeds": seeds(point_seeds, len(self.POINTS)),
                "ue": adversary.sample_ue_params(np.random.default_rng(ue_seq))}

    def warm_up(self) -> None:
        small = McAttack(self.seed, "", trials=20)
        small.run(small.inputs(0), PassResult())

    def run(self, inputs: dict, res: PassResult) -> None:
        t = self.trials
        for (kind, param), seed in zip(self.POINTS, inputs["seeds"]):
            t0 = time.perf_counter()
            if kind == "alice":
                rep = experiments.alice_attack_report(t, seed=seed, policy="guess")
                dt = time.perf_counter() - t0
                ok = (rep.trials == t and rep.false_conclusive == 0
                      and all(within_band(getattr(rep, attr), p, t) for attr, p in self.ALICE_RATES))
            elif kind == "entangling":
                row = experiments.entangling_detection_estimate(inputs["ue"], t, seed)
                dt = time.perf_counter() - t0
                ok = estimate_ok(row, 0, adversary.ue_detection_probability(inputs["ue"]), t)
            else:
                spec = experiments.ExperimentSpec(self.SCENARIOS[kind], param, t, seed)
                row = experiments.estimate_detection_rate(spec)
                dt = time.perf_counter() - t0
                ok = estimate_ok(row, param, self.CLOSED[kind](param), t)
            res.op(dt, ok, f"{kind} {param} seed={seed}")
            if (kind, param) == self.HEAVY:
                res.heavy_s += dt
                res.heavy_items += t
            else:
                res.light_s += dt
                res.light_items += t


class HonestProtocol:
    """``protocol.run_honest`` over a mix of configs; items are runs.

    Light: criterion-1 configs (N uniform on 1..16, M=M2=K=1). Heavy: one in
    ten, criterion-9 configs (N in {1, 8, 30}, M=M2=50, K=20). Each pass holds
    every N value equally often, so its cost does not depend on the seed.
    """

    name = "honest-protocol"

    def __init__(self, seed: int, workdir: str, small_rounds: int = 5, paper_rounds: int = 3):
        self.seed = seed
        self.shapes = ([(n, 1, 1) for n in range(1, 17)] * small_rounds
                       + [(n, 50, 20) for n in (1, 8, 30)] * paper_rounds)

    def inputs(self, pass_idx: int) -> list[tuple[protocol.ProtocolConfig, list, list]]:
        rng = np.random.default_rng(stream(self.seed, self.name, pass_idx))
        order = rng.permutation(len(self.shapes))
        run_seeds = seeds(stream(self.seed, self.name, pass_idx, 1), len(self.shapes))
        runs = []
        for i, run_seed in zip(order, run_seeds):
            n, m, k = self.shapes[i]
            choices = rng.integers(0, 2, size=n).tolist()
            pairs = [tuple(p) for p in rng.integers(0, 2, size=(n, 2)).tolist()]
            runs.append((protocol.ProtocolConfig(N=n, M=m, M2=m, K=k, seed=run_seed), choices, pairs))
        return runs

    def warm_up(self) -> None:
        runs = self.inputs(0)
        heavy = next(r for r in runs if r[0].M > 1)
        self.run([runs[0], heavy], PassResult())

    def run(self, inputs, res: PassResult) -> None:
        for cfg, choices, pairs in inputs:
            t0 = time.perf_counter()
            t = protocol.run_honest(cfg, choices=choices, pairs=pairs)
            dt = time.perf_counter() - t0
            ok = (t.verdict == "ok" and t.seed == cfg.seed
                  and t.decoded_bits == [pair[c] for c, pair in zip(choices, pairs)])
            res.op(dt, ok, f"run_honest {cfg}")
            if cfg.M > 1:
                res.heavy_s += dt
                res.heavy_items += 1
            else:
                res.light_s += dt
                res.light_items += 1


class CliRoundtrip:
    """``cli.main`` in-process: write transcripts, replay them, then the small
    commands. Items are transcript records; light: records written by
    ``honest``, heavy: records re-executed and compared by ``replay``."""

    name = "cli-roundtrip"
    SWEEP_VALUES = (1, 5, 10)
    RMAX = 100

    def __init__(self, seed: int, workdir: str, records: int = 40, trials: int = 200):
        self.seed = seed
        self.workdir = workdir
        self.records = records
        self.trials = trials

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def inputs(self, pass_idx: int) -> dict:
        honest_seed, attack_seed, sweep_seed = seeds(stream(self.seed, self.name, pass_idx), 3)
        config = self._path("honest.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"N = 8\nM = 50\nM2 = 50\nK = 20\nruns = {self.records}\nseed = {honest_seed}\n")
        return {"config": config, "attack_seed": attack_seed, "sweep_seed": sweep_seed}

    def warm_up(self) -> None:
        small = CliRoundtrip(self.seed, self.workdir, records=2, trials=20)
        small.run(small.inputs(0), PassResult())

    def _cli(self, res: PassResult, argv: list[str], check, out_path: str | None = None) -> float:
        """Run one command; ``check`` gets what it wrote to ``out_path``, or
        its stdout."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        dt = time.perf_counter() - t0
        text = out.getvalue()
        if out_path is not None and code == 0:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
        res.counts["cli.bytes_out"] += len(text.encode())
        try:
            ok = code == 0 and check(text)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        res.op(dt, ok, f"qotsim {' '.join(argv)}: exit {code} {err.getvalue().strip()}")
        return dt

    def _estimates_ok(self, text: str, params, p_of) -> bool:
        lines = text.splitlines()
        if lines[:1] != [ESTIMATE_HEADER] or len(lines) != 1 + len(params):
            return False
        for line, param in zip(lines[1:], params):
            fields = line.split(",")
            if int(fields[0]) != param or int(fields[4]) != self.trials:
                return False
            if not within_band(float(fields[1]), p_of(param), self.trials):
                return False
        return True

    def _transcripts_ok(self, text: str) -> bool:
        records = [json.loads(line) for line in text.splitlines()]
        return len(records) == self.records and all(
            r["verdict"] == "ok"
            and r["decoded_bits"] == [pair[c] for c, pair in zip(r["choices"], r["pairs"])]
            for r in records)

    def run(self, inputs: dict, res: PassResult) -> None:
        transcript = self._path("runs.jsonl")
        out = self._path("out.csv")
        res.light_s += self._cli(res, ["honest", "--config", inputs["config"], "--transcript", transcript],
                                 self._transcripts_ok, transcript)
        res.light_items += self.records
        res.heavy_s += self._cli(res, ["replay", "--transcript", transcript],
                                 lambda s: s == f"verified {self.records} transcript(s)\n")
        res.heavy_items += self.records
        k = 20
        self._cli(res, ["attack", "--scenario", "bell", "--K", str(k), "--trials", str(self.trials),
                        "--seed", str(inputs["attack_seed"]), "--out", out],
                  lambda s: self._estimates_ok(s, [k], lambda k: 1.0 - 0.5 ** k), out)
        self._cli(res, ["sweep", "--scenario", "intercept",
                        "--values", ",".join(map(str, self.SWEEP_VALUES)),
                        "--trials", str(self.trials), "--seed", str(inputs["sweep_seed"]), "--out", out],
                  lambda s: self._estimates_ok(s, self.SWEEP_VALUES, lambda m: 1.0 - 0.75 ** m), out)
        self._cli(res, ["cost", "--rmax", str(self.RMAX), "--out", out],
                  lambda s: s.splitlines()[0] == "R,yang,ysw,yylsz,proposed"
                  and [int(line.split(",")[0]) for line in s.splitlines()[1:]]
                  == list(range(1, self.RMAX + 1)), out)
        self._cli(res, ["oblivious", "--out", out],
                  lambda s: s.splitlines()[0] == "choice,chosen_bit,trace_distance"
                  and len(s.splitlines()) == 5
                  and all(abs(float(line.split(",")[2])) < 1e-9 for line in s.splitlines()[1:]), out)


WORKLOADS = {w.name: w for w in (McAttack, HonestProtocol, CliRoundtrip)}


def run_passes(workload, seconds: float | None = None, passes: int | None = None,
               min_passes: int = 3) -> list[PassResult]:
    """Run passes 0, 1, ... for ``seconds`` (at least ``min_passes``), or
    exactly ``passes`` of them."""
    results = []
    start = time.perf_counter()
    while True:
        inputs = workload.inputs(len(results))
        res = PassResult()
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        workload.run(inputs, res)
        t2 = time.perf_counter()
        reference_work()
        res.ref_s = time.perf_counter() - t2 + t1 - t0
        res.wall_s = t2 - t1
        results.append(res)
        if passes is not None:
            if len(results) >= passes:
                return results
        elif len(results) >= min_passes and time.perf_counter() - start >= seconds:
            return results
