"""Compilation of the embedded stage machinery and its micro-step interpreter.

Stages #2..#7 (computation check, back up, backup check, recovery, recovery
check, summary check) are short micro-programs over the five tapes. The
programs are machine independent: the one user-specific datum, the program
state to resume after a checkpoint, travels in the stage control's `resume`
slot, and scan terminators are the symbolic markers "empty"/"plus" resolved
against the machine alphabet only at execution time. So they are built once
per process, at import, into `STAGE_PROGRAMS`, the one program table every
machine runs; a compiled machine holds its machine and its resolved controls.

This module is also the one place that builds controls and resolves where
control goes next: a stage control knows its op and whether its stage is
critical once built, and `Controls` adds its exits, which form a cycle. No
op builds a control.

Position-tracking ("synchro") tapes hold the empty symbol everywhere except a
single "+" recording the master head position as of the last checkpoint;
when that position is cell 0, the cell holds "!+", the marker and the mark
in one symbol. Rewinds stop on either marker symbol. Scans over a
master/backup/user pair terminate on the first shared empty cell, while
scans over the synchro pair terminate on the "+" or "!+" itself so that
backing up and restoring preserve the mark. A copy writes its terminator
before stopping; cells beyond it are stale and invisible to every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    BoundaryViolation,
    JamError,
    MARKER,
    MARKER_PLUS,
    PLUS,
    ReadOnly,
    Tape,
    ValidatedMachine,
)

# A configuration's five tapes are a tuple in this order; the names are used
# only to render ops.
MASTER, SYNCHRO, BACKUP, BACKUP_SYNCHRO, USER = range(5)
TAPE_NAMES = ("master", "synchro", "backup", "backup_synchro", "user")

# Branch targets inside stage programs: an int names a stage, NEXT falls
# through to the following micro-op, RESUME enters the user computation and
# SHUTDOWN ends the run.
NEXT = "next"
RESUME = "resume"
SHUTDOWN = "shutdown"

CRITICAL_STAGES = (3, 4, 5, 6)   # where failures are masked by default

STOP_EMPTY = "empty"
STOP_PLUS = "plus"

# What a rewind stops on, and what a position scan or seek stops on.
MARKERS = (MARKER, MARKER_PLUS)
POSITION_MARKS = (PLUS, MARKER_PLUS)


class PlusNotFound(JamError):
    """A position-restoring seek ran out of written tape without finding "+"."""


# Program-control variants. Stage #1 is represented by UserControl; the stage
# controls cover only the embedded machinery (#2..#7). A control's `text`, its
# trace form, is rendered once, when it is built; a compiled machine builds
# each control once (`Controls`), so its runs' records share the text.

@dataclass(frozen=True)
class UserControl:
    state: str
    text: str = field(init=False, repr=False, compare=False)
    critical = False   # not a field: no user state is a critical stage

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", f"user:{self.state}")


@dataclass(frozen=True)
class StageControl:
    stage: int
    micro_pc: int
    resume: str
    text: str = field(init=False, repr=False, compare=False)
    op: MicroOp = field(init=False, repr=False, compare=False)
    critical: bool = field(init=False, repr=False, compare=False)
    exits: tuple[Control, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", f"stage:{self.stage}/{self.micro_pc}/{self.resume}")
        object.__setattr__(self, "op", STAGE_PROGRAMS[self.stage][self.micro_pc])
        object.__setattr__(self, "critical", self.stage in CRITICAL_STAGES)


class ShutdownControl:
    __slots__ = ()

    text = "shutdown"


Control = StageControl | UserControl | ShutdownControl
Tapes = tuple[Tape, ...]

_SHUTDOWN_CONTROL = ShutdownControl()


class Controls(dict):
    """A compiled machine's controls, built once: a UserControl under its
    state and, when a resume state is first used, each of its StageControls
    under (stage, micro_pc, resume), with the exits its op's `targets` (if
    none, NEXT) name."""

    def __missing__(self, key: tuple[int, int, str] | str) -> StageControl | UserControl:
        if key.__class__ is not tuple:
            control = self[key] = UserControl(key)
            return control
        resume = key[2]
        built = {(stage, pc): StageControl(stage, pc, resume)
                 for stage, ops in STAGE_PROGRAMS.items() for pc in range(len(ops))}
        control = built[key[:2]]   # a key that names no op changes nothing
        named = {RESUME: self[resume], SHUTDOWN: _SHUTDOWN_CONTROL}
        for (stage, pc), each in built.items():
            object.__setattr__(each, "exits", tuple(
                built[stage, pc + 1] if target == NEXT else named[target] if target in named
                else built[target, 0]
                for target in getattr(each.op, "targets", (NEXT,))))
            self[stage, pc, resume] = each
        return control


# Each op's `step(control, tapes)` runs one cell-granular micro-step and
# returns (control, action): `control` itself while the op goes on, else the
# exit of `control.exits` that its `targets` (if none, NEXT) name, and the
# trace action, `micro:<op>` rendered once when the op is built or "commit".
# Heads move by assignment; cells change only through `Tape.write`.

class Rewind(ReadOnly):
    __slots__ = ("tapes", "action")

    def __init__(self, tapes: tuple[int, ...]):
        object.__setattr__(self, "tapes", tapes)
        object.__setattr__(self, "action", _action(self))

    def render(self) -> str:
        return f"rewind({','.join(TAPE_NAMES[index] for index in self.tapes)})"

    def step(self, control: StageControl, tapes: Tapes) -> tuple[Control, str]:
        at_markers = True
        for index in self.tapes:
            tape = tapes[index]
            cells, head = tape.cells, tape.head
            if head < len(cells) and cells[head] in MARKERS:
                continue
            if head == 0:
                raise BoundaryViolation("head moved left from cell 0")
            head = tape.head = head - 1
            if head >= len(cells) or cells[head] not in MARKERS:
                at_markers = False
        if at_markers:
            return control.exits[0], self.action
        return control, self.action


class ScanCompare(ReadOnly):
    """Compare two tapes cell by cell up to their first shared terminator.
    With `commits`, reaching the terminator is the checkpoint's commit."""

    __slots__ = ("tape_a", "tape_b", "stop", "targets", "action", "stop_action")

    def __init__(self, tape_a: int, tape_b: int, stop: str, on_equal: int | str,
                 on_diff: int | str, commits: bool = False):
        object.__setattr__(self, "tape_a", tape_a)
        object.__setattr__(self, "tape_b", tape_b)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "targets", (on_equal, on_diff))
        object.__setattr__(self, "action", _action(self))
        object.__setattr__(self, "stop_action", "commit" if commits else self.action)

    def render(self) -> str:
        on_equal, on_diff = self.targets
        return (f"compare({TAPE_NAMES[self.tape_a]},{TAPE_NAMES[self.tape_b]},"
                f"stop={self.stop},eq={on_equal},diff={on_diff})")

    def step(self, control: StageControl, tapes: Tapes) -> tuple[Control, str]:
        a, b = tapes[self.tape_a], tapes[self.tape_b]
        cells_a, head_a, cells_b, head_b = a.cells, a.head, b.cells, b.head
        sym = cells_a[head_a] if head_a < len(cells_a) else a.empty
        if sym != (cells_b[head_b] if head_b < len(cells_b) else b.empty):
            return control.exits[1], self.action
        if sym in POSITION_MARKS if self.stop == STOP_PLUS else sym == a.empty:
            return control.exits[0], self.stop_action
        if head_a >= len(cells_a) and head_b >= len(cells_b):
            # Uniform filler from here on: the scan can never distinguish the
            # tapes again, but no terminator was seen either, so no commit.
            return control.exits[0], self.action
        a.head = head_a + 1
        b.head = head_b + 1
        return control, self.action


class ScanCopy(ReadOnly):
    __slots__ = ("src", "dst", "stop", "action")

    def __init__(self, src: int, dst: int, stop: str):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "action", _action(self))

    def render(self) -> str:
        return f"copy({TAPE_NAMES[self.src]}->{TAPE_NAMES[self.dst]},stop={self.stop})"

    def step(self, control: StageControl, tapes: Tapes) -> tuple[Control, str]:
        src, dst = tapes[self.src], tapes[self.dst]
        cells, head = src.cells, src.head
        sym = cells[head] if head < len(cells) else src.empty
        dst.write(sym)
        if (sym in POSITION_MARKS if self.stop == STOP_PLUS else sym == src.empty) \
                or head >= len(cells):
            return control.exits[0], self.action
        src.head = head + 1
        dst.head += 1
        return control, self.action


class SeekPlus:
    __slots__ = ()

    action = "micro:seek_plus"

    def render(self) -> str:
        return "seek_plus"

    def step(self, control: StageControl, tapes: Tapes) -> tuple[Control, str]:
        synchro = tapes[SYNCHRO]
        cells, head = synchro.cells, synchro.head
        if head >= len(cells):
            raise PlusNotFound(f"no '+' on the position tape (stage {control.stage})")
        if cells[head] in POSITION_MARKS:
            return control.exits[0], self.action
        tapes[MASTER].head += 1
        synchro.head = head + 1
        return control, self.action


class MarkPlus:
    __slots__ = ()

    action = "micro:mark_plus"

    def render(self) -> str:
        return "mark_plus"

    def step(self, control: StageControl, tapes: Tapes) -> tuple[Control, str]:
        synchro = tapes[SYNCHRO]
        synchro.write(MARKER_PLUS if synchro.head == 0 else PLUS)
        return control.exits[0], self.action


class Goto(ReadOnly):
    """The step that jumps to `target`: a stage's entry, the user control
    (`RESUME`) or shutdown (`SHUTDOWN`). It moves nothing; `name` is how it
    renders, and its trace action is `micro:<name>` unless `action` is
    given, as the closing goto of a program repeats the op before it."""

    __slots__ = ("targets", "name", "action")

    def __init__(self, target: int | str, name: str, action: str | None = None):
        object.__setattr__(self, "targets", (target,))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "action", _action(self) if action is None else action)

    def render(self) -> str:
        return self.name

    def step(self, control: StageControl, tapes: Tapes) -> tuple[Control, str]:
        return control.exits[0], self.action


MicroOp = Rewind | ScanCompare | ScanCopy | SeekPlus | MarkPlus | Goto


def _action(op: MicroOp) -> str:
    return f"micro:{op.render()}"


def _program(*ops: MicroOp, done: int | None = None) -> tuple[MicroOp, ...]:
    """A stage program's ops; a program with a `done` stage ends with a Goto
    into it, so that every micro_pc a control can hold names an op."""
    return ops if done is None else ops + (Goto(done, f"goto(stage {done})", ops[-1].action),)


class CompiledMachine(ReadOnly):
    """A machine and its controls; the stage programs are `STAGE_PROGRAMS`."""

    __slots__ = ("base", "controls")

    def __init__(self, base: ValidatedMachine):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "controls", Controls())


# Branch wiring: #2 equal->#3 / differ->#5; #3 -> #4; #4 backup differ->#3,
# position differ->#3, both equal -> resume user computation; #5 -> #6; #6
# backup differ->#3, position equal->user / differ->#5; #7 equal->shutdown /
# differ->#5. Stages #4 and #6 end by seeking the "+" so the master head is
# restored before computation continues. Redundant rewinds are kept: every op
# starts from a known head position.
STAGE_PROGRAMS: dict[int, tuple[MicroOp, ...]] = {
    2: _program(
        MarkPlus(),
        Rewind((MASTER, USER)),
        ScanCompare(MASTER, USER, STOP_EMPTY, on_equal=3, on_diff=5),
    ),
    3: _program(
        Rewind((MASTER, BACKUP)),
        ScanCopy(MASTER, BACKUP, STOP_EMPTY),
        Rewind((SYNCHRO, BACKUP_SYNCHRO)),
        ScanCopy(SYNCHRO, BACKUP_SYNCHRO, STOP_PLUS),
        done=4,
    ),
    4: _program(
        Rewind((MASTER, BACKUP)),
        ScanCompare(MASTER, BACKUP, STOP_EMPTY, on_equal=NEXT, on_diff=3),
        Rewind((MASTER, SYNCHRO, BACKUP_SYNCHRO)),
        ScanCompare(SYNCHRO, BACKUP_SYNCHRO, STOP_PLUS, on_equal=NEXT, on_diff=3,
                    commits=True),
        Rewind((MASTER, SYNCHRO)),
        SeekPlus(),
        Goto(RESUME, "enter_user"),
    ),
    5: _program(
        Rewind((MASTER, BACKUP)),
        ScanCopy(BACKUP, MASTER, STOP_EMPTY),
        Rewind((SYNCHRO, BACKUP_SYNCHRO)),
        ScanCopy(BACKUP_SYNCHRO, SYNCHRO, STOP_PLUS),
        done=6,
    ),
    6: _program(
        Rewind((MASTER, BACKUP)),
        ScanCompare(MASTER, BACKUP, STOP_EMPTY, on_equal=NEXT, on_diff=3),
        Rewind((MASTER, SYNCHRO, BACKUP_SYNCHRO)),
        ScanCompare(SYNCHRO, BACKUP_SYNCHRO, STOP_PLUS, on_equal=NEXT, on_diff=5),
        Rewind((MASTER, SYNCHRO)),
        SeekPlus(),
        Goto(RESUME, "enter_user"),
    ),
    7: _program(
        Rewind((MASTER, USER)),
        ScanCompare(MASTER, USER, STOP_EMPTY, on_equal=NEXT, on_diff=5),
        Goto(SHUTDOWN, "enter_shutdown"),
    ),
}


def compile_machine(machine: ValidatedMachine) -> CompiledMachine:
    """Pair a machine with an empty control table, which its runs fill; the
    stage programs are machine independent, so this builds none."""
    return CompiledMachine(machine)


def stage_step(control: StageControl, tapes: Tapes) -> tuple[Control, str]:
    """Execute one cell-granular micro-step: `control.op`, resolved once.

    Each call moves every head it touches by at most one cell, so one call
    corresponds to one machine step. Branches and completions consume the
    step on which they are observed. A branch into recovery (stage 5) keeps
    the current resume state; the executor replaces it with the committed one.
    """
    return control.op.step(control, tapes)


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
    for stage in sorted(STAGE_PROGRAMS):
        for pc, op in enumerate(STAGE_PROGRAMS[stage]):
            rows.append("\t".join((
                str(stage), "micro", "passive", "normal", "tracking",
                f"stage:{stage}/{pc}", "-", op.render(), "-", "-",
            )))
    return "\n".join(rows) + "\n"
