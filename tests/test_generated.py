"""Small-scope conformance: seeded random machines, run fault-free.

Each machine has three states plus `qf` and a rule for every (state, symbol)
over `! b 0 1`, with a random target, write and move; a `!` rule writes `!`
and moves R or N. Rules carry a checkpoint mark with probability 0.3, words
have 1 to 4 bits, and a machine is kept only if the plain oracle halts on
its word within 40 steps. They are built through `validate_machine`, with
no corpus file, and find what the hand-written corpus never reaches: a
checkpoint or a user step at cell 0 of the master tape (ROADMAP item 16).
"""

import random

import pytest

from tmfsim.executor import OracleStepLimit, init_configuration, run, run_basic_oracle
from tmfsim.model import MARKER, Alphabet, BasicMachine, Rule, validate_machine
from tmfsim.stages import SYNCHRO, compile_machine

MACHINES = 100
STATES = ("q0", "q1", "q2")
SYMBOLS = ("b", "0", "1")
ORACLE_STEPS = 40
MAX_STEPS = 20_000


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
def fault_free_runs():
    """(result, oracle word, whether cell 0 of the synchro tape ever held
    anything but `!`) for each generated machine's fault-free run."""
    runs = []
    for machine, word, oracle in generated_machines():
        lost = []

        def monitor(records, cfg):
            if not lost and cfg.tapes[SYNCHRO].cells[0] != MARKER:
                lost.append(cfg.step_index)

        cfg = init_configuration(compile_machine(machine), word)
        result, _ = run(cfg, max_steps=MAX_STEPS, monitor=monitor)
        runs.append((result, oracle, bool(lost)))
    return runs


def failed(result, oracle):
    return result.outcome != "shutdown" or result.final_master_word != oracle


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: a user step or a checkpoint at cell 0 of the "
                          "master tape overwrites the synchro tape's marker, and a later "
                          "rewind runs off the tape")
def test_every_fault_free_run_shuts_down_with_the_oracle_word(fault_free_runs):
    assert not any(failed(result, oracle) for result, oracle, _ in fault_free_runs)


def test_every_failing_run_lost_the_synchro_marker_first(fault_free_runs):
    """Item 5's defect is the only way a fault-free run fails: each failing
    run overwrote cell 0 of the synchro tape before it ended."""
    assert all(lost for result, oracle, lost in fault_free_runs if failed(result, oracle))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: the synchro tape's marker is overwritten also in "
                          "runs that still shut down with the oracle word")
def test_no_fault_free_run_overwrites_the_synchro_marker(fault_free_runs):
    assert not any(lost for _, _, lost in fault_free_runs)
