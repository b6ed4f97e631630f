"""Simulator for Turing machines with faults, failures and recovery.

An ordinary single-tape machine, annotated with checkpoint marks and fault
rules, is compiled into a five-tape machine whose embedded stages verify,
back up and restore the computation while a daemon injects faults and
failures. `run_basic_oracle` runs the plain machine and serves as the
correctness reference for the full simulator.
"""

from .daemon import (
    DaemonPolicy,
    RandomPolicy,
    ScriptPolicy,
    decide,
)
from .executor import (
    Configuration,
    OracleStepLimit,
    RunResult,
    Snapshot,
    UndefinedRule,
    init_configuration,
    run,
    run_basic_oracle,
    step,
)
from .model import (
    Alphabet,
    BasicMachine,
    BoundaryViolation,
    JamError,
    Rule,
    Tape,
    ValidatedMachine,
    ValidationError,
    validate_machine,
)
from .parser import DefinitionError, load_machine, load_script, parse_script_file
from .stages import CompiledMachine, PlusNotFound, compile_machine, emit_pi
from .trace import TraceRecord, parse_trace, render_trace

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BasicMachine",
    "BoundaryViolation",
    "CompiledMachine",
    "Configuration",
    "DaemonPolicy",
    "DefinitionError",
    "JamError",
    "OracleStepLimit",
    "PlusNotFound",
    "RandomPolicy",
    "Rule",
    "RunResult",
    "ScriptPolicy",
    "Snapshot",
    "Tape",
    "TraceRecord",
    "UndefinedRule",
    "ValidatedMachine",
    "ValidationError",
    "compile_machine",
    "decide",
    "emit_pi",
    "init_configuration",
    "load_machine",
    "load_script",
    "parse_script_file",
    "parse_trace",
    "render_trace",
    "run",
    "run_basic_oracle",
    "step",
    "validate_machine",
]
