"""Span tracing of qotsim's layers from outside the program.

The tracer replaces public functions through their module attributes (for
example ``qotsim.qsim.measure``) with wrappers that record one span per call,
and restores them on exit. Callers inside the package that look the name up on
the module at call time (``qsim.measure(...)``) are reached; a name bound with
``from ... import`` is not, and :func:`unreachable_bindings` lists those.

Spans are kept in flat in-memory arrays and written to a side file at the end.
A span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

#: per-layer metrics of a traced run, with their units; every workload
#: reports all of them (0 where a layer is idle)
LAYER_METRICS: list[tuple[str, str]] = [
    ("qsim.measure.calls", "count"),
    ("qsim.measure.self_s", "s"),
    ("qsim.measure.us_per_call", "us"),
    ("qsim.apply_gate.calls", "count"),
    ("qsim.apply_gate.self_s", "s"),
    ("qsim.make_bell.calls", "count"),
    ("rng.default_rng.calls", "count"),
    ("rng.default_rng.self_s", "s"),
    *((f"protocol.step{k}.self_s", "s") for k in range(1, 7)),
    ("protocol.run_honest.calls", "count"),
    ("protocol.run_honest.self_s", "s"),
    ("protocol.slot_copies", "count"),
    ("protocol.transcript.serialize_s", "s"),
    ("protocol.transcript.replay_s", "s"),
    ("protocol.aborts.channel", "count"),
    ("protocol.aborts.loyalty", "count"),
    ("protocol.aborts.return-channel", "count"),
    ("adversary.alice_measure_resend.calls", "count"),
    ("adversary.alice_measure_resend.self_s", "s"),
    ("adversary.eve_entangling_attack.calls", "count"),
    ("adversary.eve_entangling_attack.self_s", "s"),
    ("experiments.intercept.self_s", "s"),
    ("experiments.bell.self_s", "s"),
    ("experiments.alice.self_s", "s"),
    ("experiments.entangling.self_s", "s"),
    ("experiments.trials", "count"),
    ("experiments.intercept.measures_per_trial", "ratio"),
    ("experiments.bell.measures_per_trial", "ratio"),
    *((f"cli.{cmd}.wall_s", "s") for cmd in ("honest", "replay", "attack", "sweep", "cost", "oblivious")),
    ("cli.bytes_out", "bytes"),
    ("costmodel.emit_curve.self_s", "s"),
    ("trace.overhead_ref", "ref"),
    ("trace.spans", "count"),
    ("trace.unreachable_bindings", "count"),
]

#: protocol functions by the protocol step they implement
PROTOCOL_STEPS = {
    "bob_prepare_sequence": "protocol.step1",
    "alice_check_channel": "protocol.step2",
    "alice_test_loyalty": "protocol.step2",
    "plan_reorder": "protocol.step3",
    "bob_reorder": "protocol.step3",
    "alice_encode": "protocol.step4",
    "alice_insert_decoys": "protocol.step5",
    "bob_check_and_decode": "protocol.step6",
}

_SCENARIO_SPANS = ("experiments.intercept", "experiments.bell")


class SpanRecorder:
    """Spans (name, start, end, parent) in flat arrays, plus event counters.

    The program is single-threaded, so the innermost open span is the parent
    of the next one.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.end)

    def write(self, path: str, meta: dict) -> None:
        """Write every span and counter as one gzipped JSON document."""
        doc = {"meta": meta, "names": self.names, "counts": dict(self.counts),
               "span_name": self.name_id.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "parent": self.parent.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    return [end[i] - start[i] - _covered(start[i], end[i], children.get(i, ()))
            for i in range(len(start))]


def _spanned(rec: SpanRecorder, fn, name, after=None):
    """``fn`` wrapped in a span; ``name`` is a string or a function of the
    call's arguments; ``after(name, result)`` runs once the span is closed."""
    begin, finish = rec.begin, rec.finish

    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(*args, **kwargs)
        idx = begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        if after is not None:
            after(label, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class _Proxy:
    """Stands in for a module: ``overrides`` first, the module otherwise."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


@contextmanager
def traced(rec: SpanRecorder, qotsim):
    """Wrap the layers' public functions of the ``qotsim`` package for the
    duration of the block."""
    qsim, protocol, adversary = qotsim.qsim, qotsim.protocol, qotsim.adversary
    experiments, costmodel, cli = qotsim.experiments, qotsim.costmodel, qotsim.cli
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(owner, attr, name, after=None):
        patch(owner, attr, _spanned(rec, getattr(owner, attr), name, after))

    def count_trials(name, result):
        rec.counts["experiments.trials"] += result.trials
        rec.counts[name + ".trials"] += result.trials

    def count_abort(name, transcript):
        if transcript.verdict != "ok":
            rec.counts["protocol.aborts." + transcript.verdict.split(":", 1)[1]] += 1

    def count_replace(*args, **kwargs):
        rec.counts["protocol.slot_copies"] += 1
        return replace(*args, **kwargs)

    replace = protocol.replace
    try:
        for attr in ("measure", "apply_gate", "make_bell"):
            wrap(qsim, attr, "qsim." + attr)
        for attr, step in PROTOCOL_STEPS.items():
            wrap(protocol, attr, step)
        wrap(protocol, "run_honest", "protocol.run_honest", count_abort)
        wrap(protocol, "replay_transcript", "protocol.replay_transcript")
        wrap(protocol.Transcript, "to_json_line", "protocol.transcript.serialize")
        patch(protocol, "replace", count_replace)
        for attr in ("alice_measure_resend", "eve_entangling_attack"):
            wrap(adversary, attr, "adversary." + attr)
        wrap(experiments, "estimate_detection_rate",
             lambda spec: "experiments." + spec.scenario.value, count_trials)
        wrap(experiments, "alice_attack_report", "experiments.alice", count_trials)
        wrap(experiments, "entangling_detection_estimate", "experiments.entangling", count_trials)
        wrap(costmodel, "emit_curve", "costmodel.emit_curve")
        wrap(cli, "main", lambda argv: "cli." + argv[0])
        np = experiments.np
        rng_np = _Proxy(np, random=_Proxy(
            np.random, default_rng=_spanned(rec, np.random.default_rng, "rng.default_rng")))
        for owner in (experiments, protocol):
            patch(owner, "np", rng_np)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unreachable_bindings(modules) -> list[str]:
    """Public functions of one layer that another layer binds by name
    (``from ... import``), so that a wrapper set on the owning module does
    not see those calls."""
    found = []
    for owner in modules:
        for attr, fn in vars(owner).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != owner.__name__:
                continue
            for user in modules:
                if user is owner:
                    continue
                found += [f"{owner.__name__}.{attr} (bound as {user.__name__}.{name})"
                          for name, val in vars(user).items() if val is fn]
    return sorted(found)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """The per-layer metrics of :data:`LAYER_METRICS` from recorded spans and
    counters (``trace.overhead_ref`` and ``trace.unreachable_bindings`` are
    left at 0 for the caller)."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    scenario_ids = {rec._ids[n] for n in _SCENARIO_SPANS if n in rec._ids}
    measure_id = rec._ids.get("qsim.measure")
    measures_under: Counter = Counter()
    for i, nid in enumerate(rec.name_id):
        name = rec.names[nid]
        calls[name] += 1
        total[name] += rec.end[i] - rec.start[i]
        own[name] += selfs[i]
        if nid == measure_id:
            p = rec.parent[i]
            while p >= 0 and rec.name_id[p] not in scenario_ids:
                p = rec.parent[p]
            if p >= 0:
                measures_under[rec.names[rec.name_id[p]]] += 1

    m = {name: 0.0 for name, _ in LAYER_METRICS}
    for attr in ("measure", "apply_gate", "make_bell"):
        m[f"qsim.{attr}.calls"] = calls[f"qsim.{attr}"]
    for attr in ("measure", "apply_gate"):
        m[f"qsim.{attr}.self_s"] = own[f"qsim.{attr}"]
    if calls["qsim.measure"]:
        m["qsim.measure.us_per_call"] = 1e6 * total["qsim.measure"] / calls["qsim.measure"]
    m["rng.default_rng.calls"] = calls["rng.default_rng"]
    m["rng.default_rng.self_s"] = own["rng.default_rng"]
    for k in range(1, 7):
        m[f"protocol.step{k}.self_s"] = own[f"protocol.step{k}"]
    m["protocol.run_honest.calls"] = calls["protocol.run_honest"]
    m["protocol.run_honest.self_s"] = own["protocol.run_honest"]
    m["protocol.transcript.serialize_s"] = total["protocol.transcript.serialize"]
    m["protocol.transcript.replay_s"] = total["protocol.replay_transcript"]
    for attr in ("alice_measure_resend", "eve_entangling_attack"):
        m[f"adversary.{attr}.calls"] = calls[f"adversary.{attr}"]
        m[f"adversary.{attr}.self_s"] = own[f"adversary.{attr}"]
    for scenario in ("intercept", "bell", "alice", "entangling"):
        m[f"experiments.{scenario}.self_s"] = own[f"experiments.{scenario}"]
    for name in _SCENARIO_SPANS:
        trials = rec.counts[name + ".trials"]
        if trials:
            m[name + ".measures_per_trial"] = measures_under[name] / trials
    for cmd in ("honest", "replay", "attack", "sweep", "cost", "oblivious"):
        m[f"cli.{cmd}.wall_s"] = total[f"cli.{cmd}"]
    m["costmodel.emit_curve.self_s"] = own["costmodel.emit_curve"]
    for key in ("protocol.slot_copies", "experiments.trials", "cli.bytes_out",
                "protocol.aborts.channel", "protocol.aborts.loyalty",
                "protocol.aborts.return-channel"):
        m[key] = rec.counts[key]
    m["trace.spans"] = len(rec)
    return m
