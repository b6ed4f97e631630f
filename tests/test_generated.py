"""Small-scope conformance: seeded random machines, run fault-free and
swept with single failures.

Each machine has three states plus `qf` and a rule for every (state, symbol)
over `! b 0 1`, with a random target, write and move; a `!` rule writes `!`
and moves R or N. Rules carry a checkpoint mark with probability 0.3, words
have 1 to 4 bits, and a machine is kept only if the plain oracle halts on
its word within 40 steps. They are built through `validate_machine`, with
no corpus file, and find what the hand-written corpus never reaches: a
checkpoint or a user step at cell 0 of the master tape (ROADMAP item 16).

Every fault-free run is checked against the marker invariant after every
step (`conftest.marker_monitor`). The SWEPT machines are also swept
with a single failure at each step of their fault-free run, 1,314 runs, and
the final master tape of each is compared with the oracle's (ROADMAP item 20).
"""

import random

import pytest

from tmfsim.cli import sweep
from tmfsim.executor import (
    OracleStepLimit,
    init_configuration,
    oracle_tape,
    run,
    run_basic_oracle,
)
from tmfsim.model import MARKER, Alphabet, BasicMachine, Rule, validate_machine
from tmfsim.stages import compile_machine

from conftest import InvariantMonitor, marker_monitor, master_tape

MACHINES = 100
STATES = ("q0", "q1", "q2")
SYMBOLS = ("b", "0", "1")
ORACLE_STEPS = 40
MAX_STEPS = 20_000
# Machines whose failure sweep runs here: the first 20, and two whose
# sweeps end on a wrong tape with the oracle word (ROADMAP item 20).
SWEPT = (*range(20), 21, 68)
SWEEP_MAX_STEPS = 5_000


def generated_machines():
    """MACHINES (machine, word, oracle word) triples drawn from seed 1."""
    rng = random.Random(1)
    kept = []
    while len(kept) < MACHINES:
        delta = []
        for state in STATES:
            for read in (MARKER, *SYMBOLS):
                to_state = rng.choice((*STATES, "qf"))
                if read == MARKER:
                    write, move = MARKER, rng.choice("RN")
                else:
                    write, move = rng.choice(SYMBOLS), rng.choice("LRN")
                delta.append(Rule(state, read, to_state, write, move,
                                  checkpoint=rng.random() < 0.3))
        machine = validate_machine(BasicMachine(
            states=(*STATES, "qf"), initial="q0", halting="qf",
            alphabet=Alphabet("b", input=("0", "1")), delta=tuple(delta)))
        word = tuple(rng.choice("01") for _ in range(rng.randint(1, 4)))
        try:
            oracle = run_basic_oracle(machine, word, max_steps=ORACLE_STEPS)
        except OracleStepLimit:
            continue
        kept.append((machine, word, oracle))
    return kept


@pytest.fixture(scope="module")
def machines():
    return generated_machines()


@pytest.fixture(scope="module")
def fault_free_runs(machines):
    """(result, oracle word, the first broken marker or None) for each
    generated machine's fault-free run."""
    runs = []
    for machine, word, oracle in machines:
        broken = []
        cfg = init_configuration(compile_machine(machine), word)
        result, _ = run(cfg, max_steps=MAX_STEPS, monitor=marker_monitor(broken))
        runs.append((result, oracle, broken[0] if broken else None))
    return runs


def failed(result, oracle):
    return result.outcome != "shutdown" or result.final_master_word != oracle


def test_every_fault_free_run_shuts_down_with_the_oracle_word(fault_free_runs):
    assert not any(failed(result, oracle) for result, oracle, _ in fault_free_runs)


def test_no_fault_free_run_breaks_a_marker(fault_free_runs):
    """The marker invariant holds after every step of every run, also of
    runs that put a checkpoint or a user step at cell 0 of the master."""
    assert [broken for *_, broken in fault_free_runs if broken] == []


def test_checkpoint_protocol_holds_on_every_fault_free_run(machines):
    """`conftest.InvariantMonitor` at every checkpoint event, also of the
    checkpoints that mark cell 0 with `!+`."""
    for machine, word, _ in machines:
        compiled = compile_machine(machine)
        run(init_configuration(compiled, word), max_steps=MAX_STEPS,
            monitor=InvariantMonitor(compiled))


@pytest.fixture(scope="module")
def failure_sweeps(machines):
    """(machine number, k, result, oracle word, whether the final master
    tape is the oracle's) for a single failure at each step k of the
    fault-free run of each SWEPT machine."""
    runs = []
    for number in SWEPT:
        machine, word, oracle = machines[number]
        expected = oracle_tape(machine, word)
        _, swept = sweep(compile_machine(machine), word, "aggressive", SWEEP_MAX_STEPS)
        runs.extend((number, k, result, oracle, master_tape(cfg) == expected)
                    for k, result, _, cfg in swept)
    return runs


def test_no_failure_sweep_run_jams(failure_sweeps):
    assert [(number, k, result.jam_reason) for number, k, result, *_ in failure_sweeps
            if result.outcome == "jammed"] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: machine 14 commits a master with an interior "
                          "blank, the restore rebuilds it only up to that blank, and 9 of "
                          "its runs live-lock to the step limit")
def test_every_failure_sweep_run_shuts_down_with_the_oracle_word(failure_sweeps):
    assert [(number, k, result.outcome) for number, k, result, oracle, _ in failure_sweeps
            if failed(result, oracle)] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: machines 21 and 68 commit a master whose cell 1 "
                          "is blank, and 8 and 7 of their runs shut down with the oracle word "
                          "(the empty word) on another tape")
def test_every_failure_sweep_run_with_the_oracle_word_ends_on_the_oracle_tape(failure_sweeps):
    """ROADMAP item 20: the oracle's word is the tape up to its first blank,
    so a word check passes a run whose tape differs past that blank."""
    assert [(number, k) for number, k, result, oracle, on_tape in failure_sweeps
            if not failed(result, oracle) and not on_tape] == []
