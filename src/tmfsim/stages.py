"""Compilation of the embedded stage machinery and its micro-step interpreter.

Stages #2..#7 (computation check, back up, backup check, recovery, recovery
check, summary check) are short micro-programs over the five tapes. The
programs are machine independent: the one user-specific datum, the program
state to resume after a checkpoint, travels in the stage control's `resume`
slot, and scan terminators are the symbolic markers "empty"/"plus" resolved
against the machine alphabet only at execution time. So they are built once
per process, at import, into `STAGE_PROGRAMS`, and `compile_machine` hands
every machine the same frozen program objects instead of building its own.

Position-tracking ("synchro") tapes hold the empty symbol everywhere except a
single "+" recording the master head position as of the last checkpoint.
Scans over a master/backup/user pair therefore terminate on the first shared
empty cell, while scans over the synchro pair terminate on the "+" itself so
that backing up and restoring preserve the mark. A copy writes its terminator
before stopping; cells beyond it are stale and invisible to every comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from .model import (
    JamError,
    MARKER,
    PLUS,
    ReadOnly,
    ShutdownControl,
    StageControl,
    Tape,
    UserControl,
    ValidatedMachine,
)

MASTER, SYNCHRO, BACKUP, BACKUP_SYNCHRO, USER = (
    "master", "synchro", "backup", "backup_synchro", "user")
TAPE_ORDER = (MASTER, SYNCHRO, BACKUP, BACKUP_SYNCHRO, USER)

# Branch targets inside stage programs: an int names a stage, NEXT falls
# through to the following micro-op.
NEXT = "next"

STOP_EMPTY = "empty"
STOP_PLUS = "plus"


class PlusNotFound(JamError):
    """A position-restoring seek ran out of written tape without finding "+"."""


class Rewind(ReadOnly):
    __slots__ = ("tapes",)

    def __init__(self, tapes: tuple[str, ...]):
        object.__setattr__(self, "tapes", tapes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rewind):
            return NotImplemented
        return self.tapes == other.tapes

    def render(self) -> str:
        return f"rewind({','.join(self.tapes)})"


class ScanCompare(ReadOnly):
    __slots__ = ("tape_a", "tape_b", "stop", "on_equal", "on_diff")

    def __init__(self, tape_a: str, tape_b: str, stop: str, on_equal: int | str,
                 on_diff: int | str):
        object.__setattr__(self, "tape_a", tape_a)
        object.__setattr__(self, "tape_b", tape_b)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "on_equal", on_equal)
        object.__setattr__(self, "on_diff", on_diff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanCompare):
            return NotImplemented
        return ((self.tape_a, self.tape_b, self.stop, self.on_equal, self.on_diff)
                == (other.tape_a, other.tape_b, other.stop, other.on_equal, other.on_diff))

    def render(self) -> str:
        return (f"compare({self.tape_a},{self.tape_b},stop={self.stop},"
                f"eq={self.on_equal},diff={self.on_diff})")


class ScanCopy(ReadOnly):
    __slots__ = ("src", "dst", "stop")

    def __init__(self, src: str, dst: str, stop: str):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "stop", stop)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanCopy):
            return NotImplemented
        return (self.src, self.dst, self.stop) == (other.src, other.dst, other.stop)

    def render(self) -> str:
        return f"copy({self.src}->{self.dst},stop={self.stop})"


class SeekPlus:
    __slots__ = ()

    def render(self) -> str:
        return "seek_plus"


class MarkPlus:
    __slots__ = ()

    def render(self) -> str:
        return "mark_plus"


class EnterUser:
    __slots__ = ()

    # The state to resume is read from the stage control.
    def render(self) -> str:
        return "enter_user"


class EnterShutdown:
    __slots__ = ()

    def render(self) -> str:
        return "enter_shutdown"


MicroOp = Rewind | ScanCompare | ScanCopy | SeekPlus | MarkPlus | EnterUser | EnterShutdown


class StageProgram(ReadOnly):
    """Ordered micro-ops plus the stage entered when the program runs out.

    `actions` holds each op's trace action, `micro:<op>`, rendered once and
    interned, so that the records of every step of an op share one string.
    """

    __slots__ = ("ops", "done", "actions")

    def __init__(self, ops: tuple[MicroOp, ...], done: int | None = None):
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "done", done)
        object.__setattr__(self, "actions", tuple(sys.intern(f"micro:{op.render()}")
                                                  for op in ops))


class CompiledMachine(ReadOnly):
    __slots__ = ("base", "stage_programs")

    def __init__(self, base: ValidatedMachine, stage_programs: dict[int, StageProgram]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "stage_programs", stage_programs)


# Branch wiring: #2 equal->#3 / differ->#5; #3 -> #4; #4 backup differ->#3,
# position differ->#3, both equal -> resume user computation; #5 -> #6; #6
# backup differ->#3, position equal->user / differ->#5; #7 equal->shutdown /
# differ->#5. Stages #4 and #6 end by seeking the "+" so the master head is
# restored before computation continues. Redundant rewinds are kept: every op
# starts from a known head position. Built once, at import; the programs are
# frozen and every compiled machine shares them.
STAGE_PROGRAMS: dict[int, StageProgram] = {
    2: StageProgram(ops=(
        MarkPlus(),
        Rewind((MASTER, USER)),
        ScanCompare(MASTER, USER, STOP_EMPTY, on_equal=3, on_diff=5),
    )),
    3: StageProgram(ops=(
        Rewind((MASTER, BACKUP)),
        ScanCopy(MASTER, BACKUP, STOP_EMPTY),
        Rewind((SYNCHRO, BACKUP_SYNCHRO)),
        ScanCopy(SYNCHRO, BACKUP_SYNCHRO, STOP_PLUS),
    ), done=4),
    4: StageProgram(ops=(
        Rewind((MASTER, BACKUP)),
        ScanCompare(MASTER, BACKUP, STOP_EMPTY, on_equal=NEXT, on_diff=3),
        Rewind((MASTER, SYNCHRO, BACKUP_SYNCHRO)),
        ScanCompare(SYNCHRO, BACKUP_SYNCHRO, STOP_PLUS, on_equal=NEXT, on_diff=3),
        Rewind((MASTER, SYNCHRO)),
        SeekPlus(),
        EnterUser(),
    )),
    5: StageProgram(ops=(
        Rewind((MASTER, BACKUP)),
        ScanCopy(BACKUP, MASTER, STOP_EMPTY),
        Rewind((SYNCHRO, BACKUP_SYNCHRO)),
        ScanCopy(BACKUP_SYNCHRO, SYNCHRO, STOP_PLUS),
    ), done=6),
    6: StageProgram(ops=(
        Rewind((MASTER, BACKUP)),
        ScanCompare(MASTER, BACKUP, STOP_EMPTY, on_equal=NEXT, on_diff=3),
        Rewind((MASTER, SYNCHRO, BACKUP_SYNCHRO)),
        ScanCompare(SYNCHRO, BACKUP_SYNCHRO, STOP_PLUS, on_equal=NEXT, on_diff=5),
        Rewind((MASTER, SYNCHRO)),
        SeekPlus(),
        EnterUser(),
    )),
    7: StageProgram(ops=(
        Rewind((MASTER, USER)),
        ScanCompare(MASTER, USER, STOP_EMPTY, on_equal=NEXT, on_diff=5),
        EnterShutdown(),
    )),
}


def compile_machine(machine: ValidatedMachine) -> CompiledMachine:
    """Pair a machine with the stage programs.

    The programs are machine independent, so this builds none: the result
    holds a fresh dict of its own over the shared, frozen `STAGE_PROGRAMS`
    objects. Assigning into one machine's dict leaves every other machine's
    as it is.
    """
    return CompiledMachine(base=machine, stage_programs=dict(STAGE_PROGRAMS))


@dataclass(frozen=True)
class StageStep:
    """Outcome of one stage micro-step.

    control: the follow-up program control. action: the step's trace action,
    "commit" when the stage-4 position compare reaches its "+", otherwise
    "micro:<op>" for the micro-op that ran.
    """

    control: StageControl | UserControl | ShutdownControl
    action: str


def _goto(target: int | str, control: StageControl) -> StageControl:
    if target == NEXT:
        return replace(control, micro_pc=control.micro_pc + 1)
    assert isinstance(target, int)
    return StageControl(stage=target, micro_pc=0, resume=control.resume)


def _stop_symbol(stop: str, empty: str) -> str:
    return PLUS if stop == STOP_PLUS else empty


def stage_step(compiled: CompiledMachine, control: StageControl,
               tapes: dict[str, Tape]) -> StageStep:
    """Execute one cell-granular micro-step of the current stage program.

    Each call moves every head it touches by at most one cell, so one call
    corresponds to one machine step. Branches and completions consume the
    step on which they are observed. A branch into recovery (stage 5) keeps
    the current resume state; the executor replaces it with the committed one.
    """
    program = compiled.stage_programs[control.stage]
    if control.micro_pc >= len(program.ops):
        assert program.done is not None
        return StageStep(_goto(program.done, control), program.actions[-1])

    op = program.ops[control.micro_pc]
    action = program.actions[control.micro_pc]
    empty = compiled.base.alphabet.empty

    if isinstance(op, MarkPlus):
        tapes[SYNCHRO].write(PLUS)
        return StageStep(_goto(NEXT, control), action)

    if isinstance(op, Rewind):
        for name in op.tapes:
            tape = tapes[name]
            if tape.read() != MARKER:
                tape.move("L")
        if all(tapes[n].read() == MARKER for n in op.tapes):
            return StageStep(_goto(NEXT, control), action)
        return StageStep(control, action)

    if isinstance(op, ScanCompare):
        a, b = tapes[op.tape_a], tapes[op.tape_b]
        stop = _stop_symbol(op.stop, empty)
        sym_a, sym_b = a.read(), b.read()
        if sym_a != sym_b:
            return StageStep(_goto(op.on_diff, control), action)
        if sym_a == stop:
            if control.stage == 4 and op.stop == STOP_PLUS:
                action = "commit"
            return StageStep(_goto(op.on_equal, control), action)
        if a.head >= a.allocated and b.head >= b.allocated:
            # Uniform filler from here on: the scan can never distinguish the
            # tapes again, but no terminator was seen either, so no commit.
            return StageStep(_goto(op.on_equal, control), action)
        a.move("R")
        b.move("R")
        return StageStep(control, action)

    if isinstance(op, ScanCopy):
        src, dst = tapes[op.src], tapes[op.dst]
        stop = _stop_symbol(op.stop, empty)
        sym = src.read()
        dst.write(sym)
        if sym == stop or src.head >= src.allocated:
            return StageStep(_goto(NEXT, control), action)
        src.move("R")
        dst.move("R")
        return StageStep(control, action)

    if isinstance(op, SeekPlus):
        synchro, master = tapes[SYNCHRO], tapes[MASTER]
        if synchro.read() == PLUS:
            return StageStep(_goto(NEXT, control), action)
        if synchro.head >= synchro.allocated:
            raise PlusNotFound(f"no '+' on the position tape (stage {control.stage})")
        master.move("R")
        synchro.move("R")
        return StageStep(control, action)

    if isinstance(op, EnterUser):
        return StageStep(UserControl(control.resume), action)

    assert isinstance(op, EnterShutdown)
    return StageStep(ShutdownControl(), action)


def _rule_rows(machine: ValidatedMachine) -> list[str]:
    rows = []
    for daemon, rules in (("passive", machine.delta), ("active", machine.gamma)):
        for rule in sorted(rules, key=lambda r: (r.from_state, r.read)):
            # Validation keeps checkpoint marks off fault rules.
            kind = "fault" if daemon == "active" else "checkpoint" if rule.checkpoint else "normal"
            nxt = f"stage:2/0/{rule.to_state}" if rule.checkpoint else f"user:{rule.to_state}"
            rows.append("\t".join((
                "1", kind, daemon, "normal", "tracking", f"user:{rule.from_state}",
                f"m={rule.read}", nxt, f"m={rule.write},s=<empty>", f"m={rule.move},s={rule.move}",
            )))
    return rows


def emit_pi(compiled: CompiledMachine) -> str:
    """Render the flattened global rule listing.

    One row per user-computation rule (normal / checkpoint / fault variants)
    followed by one row per stage micro-op. Fields are tab separated; the
    output is byte-stable for a given machine.
    """
    header = "\t".join(("stage", "kind", "daemon", "apparatus", "user",
                        "control", "read", "next", "write", "move"))
    rows = [header]
    rows.extend(_rule_rows(compiled.base))
    for stage in sorted(compiled.stage_programs):
        program = compiled.stage_programs[stage]
        for pc, op in enumerate(program.ops):
            rows.append("\t".join((
                str(stage), "micro", "passive", "normal", "tracking",
                f"stage:{stage}/{pc}", "-", op.render(), "-", "-",
            )))
        if program.done is not None:
            rows.append("\t".join((
                str(stage), "micro", "passive", "normal", "tracking",
                f"stage:{stage}/{len(program.ops)}", "-", f"goto(stage {program.done})",
                "-", "-",
            )))
    return "\n".join(rows) + "\n"
