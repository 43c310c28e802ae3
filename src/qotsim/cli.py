"""Command-line entry point.

Subcommands:
  honest     run honest protocol executions and emit JSONL transcripts
  attack     run one attack scenario and emit a CSV rate estimate
  sweep      detection-rate curve over a range of M or K values
  oblivious  trace distances hiding the unchosen message bit
  cost       quantum-cost comparison curve for the four protocols
  replay     verify stored transcripts byte-for-byte

Flags may be preloaded from a key=value config file via --config; explicit
flags override file values. QOTSIM_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import adversary, costmodel, experiments, protocol
from .adversary import AttackScenario
from .protocol import ProtocolError

SCENARIO_NAMES = [s.value for s in AttackScenario]


def _resolve(flag_value, file_values: dict, key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return cast(file_values[key])
    return default


def _default_seed() -> int:
    return int(os.environ.get("QOTSIM_SEED", "0"))


@contextmanager
def _output(path):
    """Stdout for no path or "-", else the file, closed when the block ends."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qotsim",
                                     description="Oblivious-transfer protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("honest", help="honest protocol runs, JSONL transcripts")
    common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--M2", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--transcript", default=None, help="alias for --out")

    p = sub.add_parser("attack", help="single attack-scenario rate estimate")
    common(p)
    p.add_argument("--scenario", choices=SCENARIO_NAMES, required=True)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--policy", choices=["guess", "collapsed", "random"], default=None)
    p.add_argument("--ue-file", default=None, help="entangling-attack parameter file")

    p = sub.add_parser("sweep", help="detection-rate curve over M or K")
    common(p)
    p.add_argument("--scenario", choices=[AttackScenario.INTERCEPT_RESEND.value,
                                          AttackScenario.BOB_BELL_CHEAT.value], required=True)
    p.add_argument("--values", default=None, help="comma-separated parameter values")
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("oblivious", help="unchosen-bit trace distances")
    common(p)

    p = sub.add_parser("cost", help="quantum-cost comparison curve")
    common(p)
    p.add_argument("--rmax", type=int, default=None)

    p = sub.add_parser("replay", help="verify stored transcripts")
    p.add_argument("--transcript", required=True, help="JSONL transcript file")
    return parser


def _cmd_honest(args, cfg_file) -> int:
    n = _resolve(args.N, cfg_file, "N", 2, int)
    config = protocol.ProtocolConfig(
        N=n,
        M=_resolve(args.M, cfg_file, "M", 0, int),
        M2=_resolve(args.M2, cfg_file, "M2", 0, int),
        K=_resolve(args.K, cfg_file, "K", 0, int),
        tau=_resolve(args.tau, cfg_file, "tau", 0.0, float),
        seed=_resolve(args.seed, cfg_file, "seed", _default_seed(), int),
    )
    runs = _resolve(args.runs, cfg_file, "runs", 1, int)
    if runs < 1:
        raise ProtocolError("runs must be >= 1")
    with _output(args.transcript or args.out) as out:
        for r in range(runs):
            run_cfg = protocol.ProtocolConfig(config.N, config.M, config.M2, config.K,
                                              config.tau, config.seed + r)
            out.write(protocol.run_honest(run_cfg).to_json_line() + "\n")
    return 0


def _estimate_rows_csv(out, rows):
    out.write(experiments.CSV_HEADER + "\n")
    for row in rows:
        out.write(row.as_csv() + "\n")


def _cmd_attack(args, cfg_file) -> int:
    scenario = AttackScenario(_resolve(args.scenario, cfg_file, "scenario", None, str))
    seed = _resolve(args.seed, cfg_file, "seed", _default_seed(), int)
    trials = _resolve(args.trials, cfg_file, "trials", experiments.DEFAULT_TRIALS, int)
    ue_file = _resolve(args.ue_file, cfg_file, "ue_file", None, str)
    if ue_file is not None and scenario is not AttackScenario.ENTANGLING:
        raise ProtocolError("--ue-file only applies to the entangling scenario")
    with _output(args.out) as out:
        if scenario in (AttackScenario.INTERCEPT_RESEND, AttackScenario.BOB_BELL_CHEAT):
            flag = "M" if scenario is AttackScenario.INTERCEPT_RESEND else "K"
            value = _resolve(getattr(args, flag), cfg_file, flag, None, int)
            if value is None:
                raise ProtocolError(f"{scenario.value} scenario requires --{flag}")
            row = experiments.estimate_detection_rate(
                experiments.ExperimentSpec(scenario, value, trials, seed))
            _estimate_rows_csv(out, [row])
        elif scenario is AttackScenario.ENTANGLING:
            if ue_file is None:
                raise ProtocolError("entangling scenario requires --ue-file")
            params = adversary.load_ue_params(ue_file)
            row = experiments.entangling_detection_estimate(params, trials, seed)
            out.write(experiments.CSV_HEADER + "\n")
            out.write("detection," + row.as_csv().split(",", 1)[1] + "\n")
            leak = adversary.ue_leakage(params)
            out.write(f"leakage,{leak:.10g},{leak:.10g},0,{trials}\n")
        else:
            policy = _resolve(args.policy, cfg_file, "policy", "guess", str)
            report = experiments.alice_attack_report(trials, seed=seed, policy=policy)
            rows = [("conclusive", report.conclusive_rate, 0.25),
                    ("bit_error", report.bit_error_rate, 0.1875)]
            if scenario is AttackScenario.ALICE_MEASURE_RESEND_DUMMY:
                rows.append(("dummy_error", report.dummy_error_rate, 0.09375))
            out.write("metric,empirical,closed_form,stderr,trials\n")
            for name, rate, closed_form in rows:
                out.write(f"{name},{rate:.10g},{closed_form:.10g},"
                          f"{report.stderr(rate):.10g},{trials}\n")
    return 0


def _cmd_sweep(args, cfg_file) -> int:
    scenario = AttackScenario(_resolve(args.scenario, cfg_file, "scenario", None, str))
    raw = _resolve(args.values, cfg_file, "values", None, str)
    if raw is None:
        raise ProtocolError("sweep requires --values")
    values = [int(v) for v in raw.split(",") if v.strip()]
    trials = _resolve(args.trials, cfg_file, "trials", experiments.DEFAULT_TRIALS, int)
    seed = _resolve(args.seed, cfg_file, "seed", _default_seed(), int)
    rows = experiments.sweep_curve(scenario, values, trials, seed)
    with _output(args.out) as out:
        _estimate_rows_csv(out, rows)
    return 0


def _cmd_oblivious(args, cfg_file) -> int:
    with _output(args.out) as out:
        out.write("choice,chosen_bit,trace_distance\n")
        for choice in (0, 1):
            for bit in (0, 1):
                out.write(f"{choice},{bit},{experiments.obliviousness_report(choice, bit):.10g}\n")
    return 0


def _cmd_cost(args, cfg_file) -> int:
    r_max = _resolve(args.rmax, cfg_file, "rmax", 100, int)
    rows = costmodel.emit_curve(r_max)
    with _output(args.out) as out:
        out.write(costmodel.CURVE_HEADER + "\n")
        for row in rows:
            out.write(",".join(str(v) for v in row) + "\n")
    print(f"# footnote: {costmodel.YSW_FOOTNOTE}", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    with open(args.transcript, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ProtocolError(f"no transcripts found in {args.transcript}")
    for i, line in enumerate(lines, start=1):
        ok, detail = protocol.replay_transcript(line)
        if not ok:
            print(f"replay failed at record {i}: {detail}", file=sys.stderr)
            return 1
    print(f"verified {len(lines)} transcript(s)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_file = protocol.read_key_values(args.config) if getattr(args, "config", None) else {}
        if args.command == "honest":
            return _cmd_honest(args, cfg_file)
        if args.command == "attack":
            return _cmd_attack(args, cfg_file)
        if args.command == "sweep":
            return _cmd_sweep(args, cfg_file)
        if args.command == "oblivious":
            return _cmd_oblivious(args, cfg_file)
        if args.command == "cost":
            return _cmd_cost(args, cfg_file)
        if args.command == "replay":
            return _cmd_replay(args)
        raise ProtocolError(f"unknown command {args.command!r}")
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
