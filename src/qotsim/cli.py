"""Command-line entry point.

Subcommands:
  honest     run honest protocol executions and emit JSONL transcripts
  attack     run one attack scenario and emit a CSV rate estimate
  sweep      detection-rate curve over a range of M or K values
  oblivious  trace distances hiding the unchosen message bit
  cost       quantum-cost comparison curve for the four protocols
  replay     verify stored transcripts byte-for-byte

Each flag's type and default are declared once, in :func:`build_parser`.
``--config FILE`` reads ``key = value`` lines; a key naming a flag of the
subcommand by its dest (``N``, ``trials``, ``ue_file``, ...; every flag but
``--config``, ``--out`` and ``--transcript``) becomes that flag's default and
the arguments are parsed again, so a file value is checked like the flag (a
bad one exits 2 naming the flag). Other keys are ignored. Precedence: explicit
flag > config file > QOTSIM_SEED (the ``--seed`` default) > built-in default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, replace

from . import adversary, costmodel, experiments, protocol
from .adversary import AttackScenario
from .protocol import ProtocolError

#: dests that a --config file cannot set
_NOT_FROM_FILE = {"command", "handler", "config", "out", "transcript"}
#: the attack scenarios that take --policy (None unless given, so others reject it)
_ALICE = {AttackScenario.ALICE_MEASURE_RESEND, AttackScenario.ALICE_MEASURE_RESEND_DUMMY}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def int_list(text: str) -> list[int]:
    """Comma-separated integers; empty items are skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def choice_flag(parser, flag: str, names) -> None:
    """Add ``flag``, taking one of ``names``. Its ``type`` checks it, not
    ``choices=``: argparse applies a type to a string default too, so a
    --config value is checked like the flag."""

    def one_of(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
        return text

    parser.add_argument(flag, type=one_of, default=None, metavar="{" + ",".join(names) + "}")


@contextmanager
def _output(path):
    """Stdout for no path or "-", else the file, closed when the block ends."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def csv_line(fields) -> str:
    """One CSV line of every command that writes CSV: a float field is
    written ``.10g``, any other field ``str``."""
    return ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in fields)


def _write_csv(path, header: str, rows) -> None:
    """``header``, then one :func:`csv_line` per row, to :func:`_output`."""
    with _output(path) as out:
        out.write(header + "\n")
        for row in rows:
            out.write(csv_line(row) + "\n")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The qotsim parser and its subcommand parsers by name, built once per
    process. ``--seed`` has no default here: for one call, :func:`main` sets
    it and the file values on the subcommand it runs, then restores them."""
    parser = argparse.ArgumentParser(prog="qotsim",
                                     description="Oblivious-transfer protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if name != "replay":
            p.add_argument("--config", help="key=value config file; flags override it")
            p.add_argument("--seed", type=nonnegative_int, default=None)
            p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = command("honest", _cmd_honest, "honest protocol runs, JSONL transcripts")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--M2", type=int, default=0)
    p.add_argument("--K", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--runs", type=positive_int, default=1)
    p.add_argument("--transcript", default=None, help="alias for --out")

    p = command("attack", _cmd_attack, "single attack-scenario rate estimate")
    choice_flag(p, "--scenario", [s.value for s in AttackScenario])
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--trials", type=int, default=experiments.DEFAULT_TRIALS)
    choice_flag(p, "--policy", adversary.RESEND_POLICIES)
    p.add_argument("--ue-file", default=None, help="entangling-attack parameter file")

    p = command("sweep", _cmd_sweep, "detection-rate curve over M or K")
    choice_flag(p, "--scenario", [s.value for s in experiments.DETECTION])
    p.add_argument("--values", type=int_list, default=None,
                   help="comma-separated parameter values")
    p.add_argument("--trials", type=int, default=experiments.DEFAULT_TRIALS)

    command("oblivious", _cmd_oblivious, "unchosen-bit trace distances")

    p = command("cost", _cmd_cost, "quantum-cost comparison curve")
    p.add_argument("--rmax", type=positive_int, default=100)

    p = command("replay", _cmd_replay, "verify stored transcripts")
    p.add_argument("--transcript", required=True, help="JSONL transcript file")

    return parser, sub.choices


def _cmd_honest(args) -> int:
    config = protocol.ProtocolConfig(args.N, args.M, args.M2, args.K, args.tau, args.seed)
    with _output(args.transcript or args.out) as out:
        for r in range(args.runs):
            out.write(protocol.run_honest(replace(config, seed=config.seed + r)).to_json_line() + "\n")
    return 0


def _cmd_attack(args) -> int:
    if args.scenario is None:
        raise ProtocolError("attack requires --scenario")
    scenario = AttackScenario(args.scenario)
    if args.ue_file is not None and scenario is not AttackScenario.ENTANGLING:
        raise ProtocolError("--ue-file only applies to the entangling scenario")
    flag = experiments.DETECTION[scenario][0] if scenario in experiments.DETECTION else None
    for dest, applies in (("M", flag == "M"), ("K", flag == "K"), ("policy", scenario in _ALICE)):
        if getattr(args, dest) is not None and not applies:
            raise ProtocolError(f"--{dest} does not apply to the {scenario.value} scenario")
    header = experiments.CSV_HEADER
    if flag is not None:
        value = getattr(args, flag)
        if value is None:
            raise ProtocolError(f"{scenario.value} scenario requires --{flag}")
        rows = [experiments.estimate_detection_rate(
            experiments.ExperimentSpec(scenario, value, args.trials, args.seed))]
    elif scenario is AttackScenario.ENTANGLING:
        if args.ue_file is None:
            raise ProtocolError("entangling scenario requires --ue-file")
        rows = experiments.entangling_rows(adversary.load_ue_params(args.ue_file), args.trials,
                                           args.seed)
    else:
        rows = experiments.alice_attack_report(args.trials, seed=args.seed,
                                               policy=args.policy or "guess").rows()
        if scenario is AttackScenario.ALICE_MEASURE_RESEND:
            rows = [row for row in rows if row.parameter != "dummy_error"]
        header = experiments.ALICE_CSV_HEADER
    _write_csv(args.out, header, map(astuple, rows))
    return 0


def _cmd_sweep(args) -> int:
    for dest in ("scenario", "values"):
        if getattr(args, dest) is None:
            raise ProtocolError(f"sweep requires --{dest}")
    rows = experiments.sweep_curve(AttackScenario(args.scenario), args.values, args.trials,
                                   args.seed)
    _write_csv(args.out, experiments.CSV_HEADER, map(astuple, rows))
    return 0


def _cmd_oblivious(args) -> int:
    rows = [(choice, bit, experiments.obliviousness_report(choice, bit))
            for choice in (0, 1) for bit in (0, 1)]
    _write_csv(args.out, "choice,chosen_bit,trace_distance", rows)
    return 0


def _cmd_cost(args) -> int:
    _write_csv(args.out, costmodel.CURVE_HEADER, costmodel.emit_curve(args.rmax))
    print(f"# footnote: {costmodel.YSW_FOOTNOTE}", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    # one record at a time, so that a file of any length fits in memory; each
    # is decoded on its own, so bytes that are not UTF-8 fail their own record
    count = 0
    with open(args.transcript, "rb") as fh:
        # a UTF-8 byte-order mark at the start of the file, which some editors write, is skipped
        lines = (ln.removeprefix(b"\xef\xbb\xbf") if i == 0 else ln for i, ln in enumerate(fh))
        for count, line in enumerate((ln for ln in lines if ln.strip()), start=1):
            try:
                ok, detail = protocol.replay_transcript(line.decode("utf-8"))
            except (ProtocolError, UnicodeDecodeError) as exc:
                raise ProtocolError(f"record {count}: {exc}") from exc
            if not ok:
                print(f"replay failed at record {count}: {detail}", file=sys.stderr)
                return 1
    if not count:
        raise ProtocolError(f"no transcripts found in {args.transcript}")
    print(f"verified {count} transcript(s)")
    return 0


def main(argv=None) -> int:
    # The first pass only finds the subcommand and its --config file. It reads
    # no QOTSIM_SEED, since a file seed may override a malformed one. The
    # second pass parses again with the seed and file values as defaults;
    # argparse converts a string default with the flag's ``type``.
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        defaults = {"seed": os.environ.get("QOTSIM_SEED", "0")} if "seed" in vars(args) else {}
        if getattr(args, "config", None):
            settable = vars(args).keys() - _NOT_FROM_FILE
            defaults.update((key, value) for key, value in protocol.read_key_values(args.config).items()
                            if key in settable)
        command = commands[args.command]
        declared = {key: command.get_default(key) for key in defaults}
        command.set_defaults(**defaults)
        try:
            args = parser.parse_args(argv)
        finally:
            command.set_defaults(**declared)
        return args.handler(args)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
