"""qotsim benchmark.

    python3 perfbench/run.py --workload mc-attack --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. With ``--trace 0`` the run measures the end-to-end metrics
with no tracing in place. With ``--trace 1`` it measures an untraced phase for
half the time, then a fixed number of traced passes, and reports the
per-layer metrics, the tracing overhead, and writes every span to
``.perfbench/trace-<workload>-<seed>.json.gz``. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics, with their units; every workload reports all of them.
#: "ref" is the time of reference_work() run just before plus just after the same pass.
END_TO_END = [
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("light_item_ref", "ref"),
    ("heavy_item_ref", "ref"),
    ("peak_rss_mb", "MB"),
]
#: set-ups per run; setup_s is the median import time plus the median set-up
SETUP_REPEATS = 5
#: seconds one reference_work() call took on the 2-core sandbox that defined
#: this benchmark; setup_s is converted to seconds at that speed
REFERENCE_WORK_S = 0.007
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import qotsim, qotsim.cli; print(time.perf_counter() - t)")
#: passes of the traced phase; fixed, so that its counts repeat exactly
TRACE_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> int:
    """Cap numpy's thread pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import qotsim from this checkout's ``src/``."""
    init = os.path.join(SRC, "qotsim", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no qotsim source at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import qotsim
    import qotsim.cli  # noqa: F401  (not imported by the package itself)
    if os.path.dirname(os.path.abspath(qotsim.__file__)) != os.path.dirname(init):
        raise SystemExit(f"error: qotsim was imported from {qotsim.__file__}, not {SRC}")
    return qotsim


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Time to import qotsim in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def set_up(cls, seed: int, workdir: str, reference_work):
    """Set the workload up SETUP_REPEATS times; return the last one and
    setup_s: median import time plus median set-up time, scaled from this
    host's current speed (reference_work() timed between the set-ups) to
    REFERENCE_WORK_S."""
    imports, preps, refs = [], [], []
    reference_work()
    for _ in range(SETUP_REPEATS):
        refs.append(timed(reference_work))
        imports.append(import_seconds())
        t0 = time.perf_counter()
        workload = cls(seed, workdir)
        workload.warm_up()
        preps.append(time.perf_counter() - t0)
    refs.append(timed(reference_work))
    scale = REFERENCE_WORK_S / statistics.median(refs)
    return workload, scale * (statistics.median(imports) + statistics.median(preps))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(op_s: list[float]) -> str:
    """Median and the highest of p99.9/p99/p90 with at least ten samples
    beyond it, in ms, with the sample count."""
    ops = sorted(op_s)
    n = len(ops)
    parts = [f"n={n}", f"p50={1e3 * statistics.median(ops):.4g}ms"]
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            parts.append(f"p{q:g}={1e3 * ops[min(n - 1, int(n * q / 100.0))]:.4g}ms")
            break
    return " ".join(parts)


def end_to_end(results, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "pass_ref": statistics.median(r.wall_s / r.ref_s for r in results),
        "light_item_ref": statistics.median(r.light_s / r.light_items / r.ref_s for r in results),
        "heavy_item_ref": statistics.median(r.heavy_s / r.heavy_items / r.ref_s for r in results),
        "peak_rss_mb": peak_rss_mb(),
    }


def seconds_summary(results) -> str:
    """The medians of end_to_end() in seconds, for a reader of the log."""
    med = statistics.median
    return (f"pass {med(r.wall_s for r in results):.4g}s, "
            f"light item {1e6 * med(r.light_s / r.light_items for r in results):.4g}us, "
            f"heavy item {1e6 * med(r.heavy_s / r.heavy_items for r in results):.4g}us, "
            f"reference work {1e3 * med(r.ref_s for r in results):.4g}ms")


def parse_args(argv):
    p = argparse.ArgumentParser(description="qotsim benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    qotsim = import_program()
    import numpy as np

    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(bench_workloads.WORKLOADS)}")
    cls = bench_workloads.WORKLOADS[args.workload]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "qotsim": qotsim.__version__, "nproc": nproc,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    scratch_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as workdir:
        workload, setup_s = set_up(cls, args.seed, workdir, bench_workloads.reference_work)

        seconds = args.seconds / 2 if args.trace else args.seconds
        results = bench_workloads.run_passes(workload, seconds, min_passes=TRACE_PASSES)
        traced = []
        if args.trace:
            modules = [qotsim.qsim, qotsim.protocol, qotsim.adversary,
                       qotsim.experiments, qotsim.costmodel, qotsim.cli]
            unreachable = bench_trace.unreachable_bindings(modules)
            rec = bench_trace.SpanRecorder()
            with bench_trace.traced(rec, qotsim):
                traced = bench_workloads.run_passes(workload, passes=TRACE_PASSES)
            for r in traced:
                rec.counts.update(r.counts)
            metrics = bench_trace.layer_metrics(rec)
            # the untraced phase also ran passes 0.. TRACE_PASSES-1: compare pass by pass
            overhead = statistics.median(t.wall_s / t.ref_s - u.wall_s / u.ref_s
                                         for t, u in zip(traced, results))
            metrics["trace.overhead_ref"] = overhead
            metrics["trace.unreachable_bindings"] = len(unreachable)
            units = dict(bench_trace.LAYER_METRICS)
            side_file = os.path.join(scratch_root, f"trace-{args.workload}-{args.seed}.json.gz")
            rec.write(side_file, {**provenance, "unreachable": unreachable, "metrics": metrics})
            print(f"# spans: {len(rec)} written to {os.path.relpath(side_file, ROOT)}")
            print(f"# tracing overhead: {overhead:+.6f} ref per pass "
                  f"({TRACE_PASSES} traced passes against {len(results)} untraced)")
            for item in unreachable:
                print(f"# not reachable by the wrappers: {item}")
        else:
            metrics = end_to_end(results, setup_s)
            units = dict(END_TO_END)

    every = results + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    for r in every:
        for what in r.failures:
            print(f"# FAILED: {what}")
    print(f"# {args.workload}: {len(every)} passes, {attempted} operations, "
          f"failed_ratio={failed / attempted:.6g}, "
          f"op latency {tail_latency([t for r in every for t in r.op_s])}")
    print(f"# untraced medians: {seconds_summary(results)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
