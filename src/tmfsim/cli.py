"""Command-line driver.

Subcommands: run (simulate), validate (check a definition), compile (print
the flattened global rule listing), oracle (run the plain single-tape
machine). Exit codes: 0 success/shutdown, 1 definition or usage error,
2 step limit, 3 jammed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager, suppress

from .daemon import RandomPolicy, ScriptPolicy
from .executor import (
    DEFAULT_MAX_STEPS,
    OracleStepLimit,
    RunResult,
    init_configuration,
    run,
    run_basic_oracle,
)
from .model import ACTIVE, AGGRESSIVE, JamError, ValidationError, read_count
from .parser import DefinitionError, load_machine, load_script
from .stages import compile_machine, emit_pi
from .trace import collector_paused, render_trace, summarize

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STEP_LIMIT = 2
EXIT_JAMMED = 3

_OUTCOME_EXIT = {"shutdown": EXIT_OK, "step-limit": EXIT_STEP_LIMIT, "jammed": EXIT_JAMMED}


def _color_enabled(stream) -> bool:
    mode = os.environ.get("TMF_COLOR", "auto")
    if mode == "never":
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


def _paint(text: str, good: bool, stream) -> str:
    if not _color_enabled(stream):
        return text
    code = "32" if good else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _count(text: str) -> int:
    """The argparse type of `--seed`, `--max-steps` and `--row`: `text` as
    `model.read_count` reads it, or a usage error saying why not."""
    try:
        return read_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"must not be negative: {text}" if text[:1] == "-" else str(exc)) from None


def _add_common(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("-m", "--metafile", required=True, help="machine metafile")
    cmd.add_argument("--row", type=_count, default=0, help="metafile row to use (default 0)")


def _add_run_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--daemon", choices=("passive", "random", "script"), default="passive")
    cmd.add_argument("--p-fault", type=float, default=0.0)
    cmd.add_argument("--p-failure", type=float, default=0.0)
    cmd.add_argument("--seed", type=_count, default=0)
    cmd.add_argument("--daemon-script", help="schedule file for --daemon script")
    cmd.add_argument("--allow-failure-in-critical", action="store_true",
                     help="let failures strike during backup/recovery stages")
    cmd.add_argument("--max-steps", type=_count, default=DEFAULT_MAX_STEPS)
    cmd.add_argument("--trace", choices=("off", "summary", "full"), default="off")
    cmd.add_argument("--trace-out", help="write the trace here instead of stdout")
    cmd.add_argument("--digests", action="store_true",
                     help="include tape digests in trace records")
    cmd.add_argument("--sweep-fault-step", action="store_true",
                     help="re-run once per step index with a single fault injected there")
    cmd.add_argument("--sweep-failure-step", action="store_true",
                     help="re-run once per step index with a single failure injected there")


class _ArgumentParser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error: argparse's own code, 2, is
    EXIT_STEP_LIMIT here. Reads any `-<digit>...` token as a value, where
    argparse reads only `-<digits>` and decimals, so that a count flag given
    one as its own argument (`--seed -1_0`) reaches `_count` and is refused
    as negative rather than as a missing value. No flag starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="tmfsim",
                          description="Turing machine simulator with faults, "
                                      "failures and checkpoint recovery")
    sub = top.add_subparsers(dest="subcommand", required=True)

    cmd = sub.add_parser("run", help="simulate the five-tape machine")
    _add_common(cmd)
    _add_run_flags(cmd)

    cmd = sub.add_parser("validate", help="load and validate a machine definition")
    _add_common(cmd)

    cmd = sub.add_parser("compile", help="print the flattened global rule listing")
    _add_common(cmd)
    cmd.add_argument("-o", "--output", help="write the listing here instead of stdout")

    cmd = sub.add_parser("oracle", help="run the plain single-tape machine")
    _add_common(cmd)
    cmd.add_argument("--max-steps", type=_count, default=DEFAULT_MAX_STEPS)
    return top


# Built once per process, at import, like `stages.STAGE_PROGRAMS`: each
# `parse_args` reads it and returns a new namespace.
ARG_PARSER = build_arg_parser()


def _flag_conflict(args: argparse.Namespace) -> str | None:
    """Why the flags of a `run` do not go together, or None if they do. A
    sweep runs its own single-event schedules untraced, `--trace off`
    writes nothing, each daemon reads only its own flags, and
    `--allow-failure-in-critical` acts only where a failure can be drawn,
    so flags they would ignore are refused; the script daemon needs its
    schedule file."""
    if args.sweep_fault_step and args.sweep_failure_step:
        return "--sweep-fault-step and --sweep-failure-step cannot be combined"
    if args.sweep_fault_step or args.sweep_failure_step:
        ignored = [flag for flag, given in (
            ("--daemon", args.daemon != "passive"),
            ("--p-fault", args.p_fault != 0),
            ("--p-failure", args.p_failure != 0),
            ("--seed", args.seed != 0),
            ("--daemon-script", args.daemon_script is not None),
            ("--trace", args.trace != "off"),
            ("--trace-out", args.trace_out is not None),
            ("--digests", args.digests),
            ("--allow-failure-in-critical",
             args.allow_failure_in_critical and args.sweep_fault_step)) if given]
        if ignored:
            sweep_flag = "--sweep-fault-step" if args.sweep_fault_step else "--sweep-failure-step"
            return f"{sweep_flag} does not take {', '.join(ignored)}"
    elif args.trace == "off" and (args.trace_out is not None or args.digests):
        return "--trace-out and --digests need --trace summary or full"
    ignored = [flag for flag, given, reader in (
        ("--p-fault", args.p_fault != 0, "random"),
        ("--p-failure", args.p_failure != 0, "random"),
        ("--seed", args.seed != 0, "random"),
        ("--daemon-script", args.daemon_script is not None, "script"))
        if given and args.daemon != reader]
    if ignored:
        return f"--daemon {args.daemon} does not take {', '.join(ignored)}"
    if args.allow_failure_in_critical and not args.sweep_failure_step:
        if args.daemon == "passive":
            return "--daemon passive does not take --allow-failure-in-critical"
        if args.daemon == "random" and args.p_failure == 0:
            return "--daemon random with --p-failure 0 does not take --allow-failure-in-critical"
    if args.daemon == "script" and not args.daemon_script:
        return "--daemon script requires --daemon-script <path>"
    return None


def _make_policy(args: argparse.Namespace):
    if args.daemon == "passive":
        return ScriptPolicy({})
    if args.daemon == "script":
        return load_script(args.daemon_script)
    try:
        return RandomPolicy(args.p_fault, args.p_failure, args.seed)
    except ValueError as exc:
        raise DefinitionError(str(exc)) from None


def _print_result(result: RunResult, out) -> None:
    good = result.outcome == "shutdown"
    print(f"outcome: {_paint(result.outcome, good, out)}", file=out)
    print(f"word: {' '.join(result.final_master_word)}", file=out)
    print(f"steps: {result.steps_used}", file=out)
    print(f"faults: {result.faults_injected}  failures: {result.failures_injected}  "
          f"recoveries: {result.recoveries}  checkpoints: {result.checkpoints_committed}",
          file=out)
    if result.jam_reason:
        print(f"jam: {result.jam_reason}", file=out)


def _stdout_error(exc: OSError) -> DefinitionError:
    """`cannot write standard output: <reason>`. What standard output still
    holds is sent to the null device, so that the interpreter's own flush at
    exit does not fail on it again."""
    with suppress(OSError, ValueError):
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
    return DefinitionError(f"cannot write standard output: {exc.strerror or exc}")


@contextmanager
def _output(path: str | None, default):
    """Yield the file at `path`, opened for writing before any work that would
    go into it, or `default` when no path is given; an empty path is a file
    name that fails to open. An OSError from opening, writing or closing the
    file becomes `cannot write <path>: <reason>`."""
    if path is None:
        yield default
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise DefinitionError(f"cannot write {path}: {exc.strerror or exc}") from None


def _single_shot(compiled, word, args, out) -> int:
    cfg = init_configuration(compiled, word, _make_policy(args),
                             args.allow_failure_in_critical)
    with _output(args.trace_out, out) as trace_out:
        result, records = run(cfg, max_steps=args.max_steps, with_digests=args.digests)
        try:
            _print_result(result, out)
        except OSError as exc:
            # Not the trace file's, which is all `_output` may name.
            raise _stdout_error(exc) from None
        if args.trace != "off":
            render_trace(summarize(records) if args.trace == "summary" else records, trace_out)
    return _OUTCOME_EXIT[result.outcome]


def sweep(compiled, word, choice: str, max_steps: int = DEFAULT_MAX_STEPS,
          allow_failure_in_critical: bool = False, monitor=None):
    """The single-event sweep: the fault-free baseline's `RunResult`, and a
    lazy iterator that runs `ScriptPolicy({k: choice})` from step 0 for each
    baseline step k in order and yields `(k, RunResult, records, final
    Configuration)`. `monitor` watches every run, the baseline's too."""
    # Reads `run` and `init_configuration` from this module: bench/run.py patches `tmfsim.cli.run`.
    baseline_cfg = init_configuration(compiled, word, ScriptPolicy({}), allow_failure_in_critical)
    baseline, _ = run(baseline_cfg, max_steps=max_steps, monitor=monitor)

    def runs():
        for k in range(baseline.steps_used):
            cfg = init_configuration(compiled, word, ScriptPolicy({k: choice}),
                                     allow_failure_in_critical)
            result, records = run(cfg, max_steps=max_steps, monitor=monitor)
            yield k, result, records, cfg

    return baseline, runs()


def _sweep(compiled, word, args, choice: str, out) -> int:
    baseline, runs = sweep(compiled, word, choice, args.max_steps,
                           args.allow_failure_in_critical)
    if baseline.outcome != "shutdown":
        print(f"baseline run did not shut down: {baseline.outcome}", file=sys.stderr)
        return _OUTCOME_EXIT[baseline.outcome]
    ok = 0
    code = EXIT_OK
    for k, result, _, _ in runs:
        if result.outcome == "shutdown" and result.final_master_word == baseline.final_master_word:
            ok += 1
            continue
        # The gravest miss sets the exit code: a jam (3), the step limit (2),
        # a shutdown with another word (1).
        code = max(code, _OUTCOME_EXIT[result.outcome] or EXIT_ERROR)
        print(f"k={k} outcome={result.outcome} word={' '.join(result.final_master_word)} "
              f"recoveries={result.recoveries}", file=out)
    print(f"sweep({choice}): {ok}/{baseline.steps_used} runs shut down with the baseline word",
          file=out)
    return code


def main(argv: list[str] | None = None) -> int:
    args = ARG_PARSER.parse_args(argv)
    # A run holds one trace record per step, which the collector would
    # rescan again and again and free nothing.
    with collector_paused():
        try:
            code = _command(args, sys.stdout)
            # What is still buffered is written here, where a failure can be
            # reported, rather than by the interpreter at exit.
            sys.stdout.flush()
        except OSError as exc:
            # `_output` names its own file's errors, so this one is stdout's.
            error = _stdout_error(exc)
        except DefinitionError as exc:
            error = exc
        else:
            return code
    print(f"error: {error}", file=sys.stderr)
    return EXIT_ERROR


def _command(args: argparse.Namespace, out) -> int:
    conflict = _flag_conflict(args) if args.subcommand == "run" else None
    if conflict:
        print(f"error: {conflict}", file=sys.stderr)
        return EXIT_ERROR
    try:
        machine, word = load_machine(args.metafile, row=args.row)
    except (DefinitionError, ValidationError) as exc:
        if args.subcommand == "validate":
            issues = exc.issues if isinstance(exc, ValidationError) else [exc]
            for issue in issues:
                print(str(issue), file=sys.stderr)
            print(f"{len(issues)} error(s)", file=out)
            return EXIT_ERROR
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.subcommand == "validate":
        print("0 errors", file=out)
        return EXIT_OK

    if args.subcommand == "oracle":
        try:
            final = run_basic_oracle(machine, word, max_steps=args.max_steps)
        except OracleStepLimit as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STEP_LIMIT
        except JamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_JAMMED
        print(" ".join(final), file=out)
        return EXIT_OK

    if args.subcommand == "compile":
        with _output(args.output, out) as listing:
            listing.write(emit_pi(compile_machine(machine)))
        return EXIT_OK

    assert args.subcommand == "run"
    compiled = compile_machine(machine)
    if args.sweep_fault_step:
        return _sweep(compiled, word, args, ACTIVE, out)
    if args.sweep_failure_step:
        return _sweep(compiled, word, args, AGGRESSIVE, out)
    return _single_shot(compiled, word, args, out)


if __name__ == "__main__":
    sys.exit(main())
