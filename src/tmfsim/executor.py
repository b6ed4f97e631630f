"""Execution of the five-tape machine: two-tact steps, faults, failures,
checkpoint commits and recovery.

Each step first lets the daemon choose passive/active/aggressive, then
performs one transition: a normal computation step, a fault (an illegal rule
applied to the master tape while the reference computation proceeds
correctly), or a failure followed immediately by repair and recovery.

The user tape carries the reference computation: a fault-immune interpreter
advances it one rule per computation step, in lockstep with the master tape.
It never runs backwards. When recovery rewinds the master tape to the last
committed checkpoint, the configuration instead remembers how many steps the
master must replay (`replay_debt`); while that debt is open, master steps do
not advance the reference and checkpoint marks do not re-fire, so the two
computations fall back into lockstep exactly when the master catches up.

A run starts with valid backups: the backup tapes are pre-seeded with the
initial content and a "+" at cell 1, and the first activity is a backup
(#3 -> #4) pass that verifies and commits them. Recovery is therefore well
defined from step 0, whatever the daemon does.
"""

from __future__ import annotations

from typing import NamedTuple

from .daemon import DaemonPolicy, ScriptPolicy, decide
from .model import (
    ACTIVE,
    AGGRESSIVE,
    BoundaryViolation,
    JamError,
    MARKER,
    PLUS,
    Tape,
    ValidatedMachine,
    digest_tapes,
)
from .stages import (
    CompiledMachine,
    MASTER,
    SYNCHRO,
    ShutdownControl,
    StageControl,
    USER,
    stage_step,
)
from .trace import TraceRecord

DEFAULT_MAX_STEPS = 1_000_000


class UndefinedRule(JamError):
    """No program rule applies to the current (state, symbol) pair."""


class OracleStepLimit(Exception):
    """The reference interpreter exceeded its step budget."""


class AlreadyShutDown(Exception):
    """`step` was called on a configuration whose machine has shut down."""


class Snapshot(NamedTuple):
    """Recovery target established by the last verified checkpoint.

    Tape contents are not stored here: the backup tapes are the snapshot.
    `ideal_steps` is the reference step count at commit time, used to size
    the replay debt on recovery.
    """

    resume: str
    ideal_steps: int


class RunResult(NamedTuple):
    outcome: str   # shutdown | step-limit | jammed
    final_master_word: tuple[str, ...]
    steps_used: int
    faults_injected: int
    failures_injected: int
    recoveries: int
    checkpoints_committed: int
    jam_reason: str | None = None


class Configuration:
    """Full instantaneous description of a run. Owned by exactly one run.

    `init_configuration` builds one and fills every slot."""

    __slots__ = (
        "compiled", "policy", "allow_failure_in_critical", "tapes", "control",
        "ideal_state", "ideal_head", "ideal_halted", "ideal_steps", "replay_debt",
        "committed", "step_index",
        "faults_injected", "failures_injected", "recoveries", "checkpoints_committed",
    )

    def heads(self) -> tuple[int, int, int, int, int]:
        master, synchro, backup, backup_synchro, user = self.tapes
        return (master.head, synchro.head, backup.head, backup_synchro.head, user.head)

    def master_word(self) -> tuple[str, ...]:
        return self.tapes[MASTER].word()


def init_configuration(compiled: CompiledMachine, word: tuple[str, ...],
                       policy: DaemonPolicy | None = None,
                       allow_failure_in_critical: bool = False) -> Configuration:
    """Build the starting configuration for one run.

    Master and user tapes hold the input word with heads at cell 1. The
    backup pair already mirrors them (content plus a "+" at cell 1 on the
    position tapes) and the committed snapshot points at the initial state,
    so a failure at any step, including during the opening backup pass, can
    recover. The first queued activity verifies that state through #3 -> #4.
    """
    machine = compiled.base
    for sym in word:
        if sym not in machine.alphabet.input:
            raise ValueError(f"input word symbol {sym!r} not in the input alphabet")
    empty = machine.alphabet.empty
    cfg = Configuration()
    cfg.compiled = compiled
    cfg.policy = policy if policy is not None else ScriptPolicy({})
    cfg.allow_failure_in_critical = allow_failure_in_critical
    cfg.tapes = (
        Tape(empty, word, head=1),       # MASTER
        Tape(empty, (PLUS,), head=1),    # SYNCHRO
        Tape(empty, word, head=0),       # BACKUP
        Tape(empty, (PLUS,), head=0),    # BACKUP_SYNCHRO
        Tape(empty, word, head=1),       # USER
    )
    cfg.control = compiled.controls[3, 0, machine.initial]
    cfg.ideal_state = machine.initial
    cfg.ideal_head = 1
    cfg.ideal_halted = machine.initial == machine.halting
    cfg.ideal_steps = 0
    cfg.replay_debt = 0
    cfg.committed = Snapshot(resume=machine.initial, ideal_steps=0)
    cfg.step_index = 0
    cfg.faults_injected = 0
    cfg.failures_injected = 0
    cfg.recoveries = 0
    cfg.checkpoints_committed = 0
    return cfg


def _advance_ideal(cfg: Configuration) -> None:
    """One fault-immune rule application on the user tape."""
    if cfg.ideal_halted:
        return
    machine = cfg.compiled.base
    user = cfg.tapes[USER]
    user.head = cfg.ideal_head
    sym = user.read()
    rule = machine.delta_map.get((cfg.ideal_state, sym))
    if rule is None:
        raise UndefinedRule(f"reference computation: no rule for ({cfg.ideal_state}, {sym})")
    user.apply(rule.write, rule.move)
    cfg.ideal_head = user.head
    cfg.ideal_state = rule.to_state
    cfg.ideal_steps += 1
    if rule.to_state == machine.halting:
        cfg.ideal_halted = True


def _enter_recovery(cfg: Configuration) -> StageControl:
    """Route control to the recovery stage at the committed state and open the
    replay debt. Every entry into stage 5 goes through here."""
    cfg.recoveries += 1
    cfg.replay_debt = cfg.ideal_steps - cfg.committed.ideal_steps
    return cfg.compiled.controls[5, 0, cfg.committed.resume]


def step(cfg: Configuration, with_digests: bool = False) -> list[TraceRecord]:
    """Execute one two-tact step and return its trace records.

    A failure step emits three records (failure, stabilize, restore) under
    one step index; every other step emits one record. The records are the
    only account of what the step did: checkpoint entries, marks, commits
    and verifications are named by their `action`. Raises AlreadyShutDown,
    before the daemon draws, on a configuration that has shut down.
    """
    control = cfg.control
    if control.__class__ is ShutdownControl:
        raise AlreadyShutDown(f"machine already shut down (step {cfg.step_index})")
    staged = control.__class__ is StageControl
    choice, masked = decide(cfg.policy, cfg.step_index, control.critical,
                            cfg.allow_failure_in_critical)
    before = control.text

    if staged and choice != AGGRESSIVE:
        # A stage micro-step, nearly every step of a run.
        stage = control.stage
        after, action = stage_step(control, cfg.tapes)
        after_text = before
        if after is not control:
            # The op ended; while a scan or rewind goes on, none of this can.
            if action == "commit":
                cfg.committed = Snapshot(resume=control.resume, ideal_steps=cfg.ideal_steps)
                cfg.checkpoints_committed += 1
            if after.__class__ is StageControl and after.stage == 5 and stage != 5:
                after = _enter_recovery(cfg)
            elif after.__class__ is ShutdownControl and not cfg.ideal_halted:
                # The summary check passed before the reference halted: the
                # master reached the halting state early, so its word is not
                # the reference's yet.
                after = _enter_recovery(cfg)
                action = "summary-recover"
            cfg.control = after
            after_text = after.text
    elif choice == AGGRESSIVE:
        # Failure and repair collapse into one step: three records under one
        # step index, then control restarts in recovery. Entering recovery
        # touches no tape, so all three records show the failed step's tapes.
        stage = control.stage if staged else 1
        cfg.failures_injected += 1
        cfg.control = _enter_recovery(cfg)
        records = []
        for phase, after_text, action in (("failure", before, "failure"),
                                          ("repair", before, "stabilize"),
                                          ("repair", cfg.control.text, "restore")):
            records.append(TraceRecord((cfg.step_index, choice, phase, stage, before,
                                        after_text, action, cfg.heads(), masked,
                                        digest_tapes(cfg.tapes) if with_digests else None)))
        cfg.step_index += 1
        return records
    else:
        stage = 1
        machine = cfg.compiled.base
        state = control.state
        action = "normal"
        if state == machine.halting:
            # Computation proper is over; run the summary check.
            cfg.control = cfg.compiled.controls[7, 0, cfg.committed.resume]
        else:
            master, synchro = cfg.tapes[MASTER], cfg.tapes[SYNCHRO]
            read = master.read()
            rule = None
            if choice == ACTIVE:
                rule = machine.gamma_map.get((state, read))
                if rule is not None:
                    cfg.faults_injected += 1
                    action = f"fault:{rule.render()}"
            if rule is None:
                rule = machine.delta_map.get((state, read))
                if rule is None:
                    raise UndefinedRule(f"no rule for ({state}, {read})")
            debt_open = cfg.replay_debt > 0
            # The position tape is kept in lockstep: erase the cell (clearing
            # any old "+", and keeping the marker at cell 0) and mirror the move.
            master.write(rule.write)
            synchro.write(MARKER if synchro.head == 0 else machine.alphabet.empty)
            master.move(rule.move)
            synchro.move(rule.move)
            if debt_open:
                cfg.replay_debt -= 1
            else:
                _advance_ideal(cfg)
            if rule.checkpoint and not debt_open:
                cfg.control = cfg.compiled.controls[2, 0, rule.to_state]
                if action == "normal":
                    action = "checkpoint-enter"
            else:
                cfg.control = cfg.compiled.controls[rule.to_state]
        after_text = cfg.control.text

    records = [TraceRecord((cfg.step_index, choice, "program", stage, before, after_text,
                            action, cfg.heads(), masked,
                            digest_tapes(cfg.tapes) if with_digests else None))]
    cfg.step_index += 1
    return records


def run(cfg: Configuration, max_steps: int = DEFAULT_MAX_STEPS, monitor=None,
        with_digests: bool = False) -> tuple[RunResult, list[TraceRecord]]:
    """Iterate steps until shutdown, a jam, or the step budget runs out.

    `monitor`, when given, is called as monitor(records, cfg) once after
    each completed step, with that step's trace records; the run's notable
    events are the record actions README "Trace format" lists.
    """
    records: list[TraceRecord] = []
    jam_reason: str | None = None
    while True:
        if cfg.control.__class__ is ShutdownControl:
            outcome = "shutdown"
            break
        if cfg.step_index >= max_steps:
            outcome = "step-limit"
            break
        try:
            recs = step(cfg, with_digests)
        except JamError as exc:
            outcome = "jammed"
            jam_reason = f"{type(exc).__name__}: {exc}"
            break
        records.extend(recs)
        if monitor is not None:
            monitor(recs, cfg)
    result = RunResult(
        outcome=outcome,
        final_master_word=cfg.master_word(),
        steps_used=cfg.step_index,
        faults_injected=cfg.faults_injected,
        failures_injected=cfg.failures_injected,
        recoveries=cfg.recoveries,
        checkpoints_committed=cfg.checkpoints_committed,
        jam_reason=jam_reason,
    )
    return result, records


def oracle_tape(machine: ValidatedMachine, word: tuple[str, ...],
                max_steps: int = DEFAULT_MAX_STEPS) -> tuple[str, ...]:
    """Reference run of the plain single-tape machine, no stages, no daemon:
    the halting tape from cell 0, trimmed of trailing empty cells.

    Deliberately independent of the five-tape executor: a bare list, a head
    index and the rule map. Used as the oracle the full simulator is checked
    against.
    """
    empty = machine.alphabet.empty
    cells: list[str] = [MARKER, *word]
    head = 1
    state = machine.initial
    steps = 0
    while state != machine.halting:
        if steps >= max_steps:
            raise OracleStepLimit(f"no halt within {max_steps} steps")
        sym = cells[head] if head < len(cells) else empty
        rule = machine.delta_map.get((state, sym))
        if rule is None:
            raise UndefinedRule(f"no rule for ({state}, {sym})")
        while len(cells) <= head:
            cells.append(empty)
        cells[head] = rule.write
        if rule.move == "R":
            head += 1
        elif rule.move == "L":
            if head == 0:
                raise BoundaryViolation("oracle: head moved left from cell 0")
            head -= 1
        state = rule.to_state
        steps += 1
    while cells[-1] == empty:
        cells.pop()
    return tuple(cells)


def run_basic_oracle(machine: ValidatedMachine, word: tuple[str, ...],
                     max_steps: int = DEFAULT_MAX_STEPS) -> tuple[str, ...]:
    """The word on `oracle_tape`: its cells from 1 up to the first empty one."""
    return Tape(machine.alphabet.empty, oracle_tape(machine, word, max_steps)[1:]).word()
