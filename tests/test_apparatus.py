"""The restore, rewind and compare contracts of the stage programs,
checked by enumeration.

The stage programs are machine independent, so whether backup and restore
are correct is a property of the programs alone (ROADMAP item 18). Each
case runs the real `stage_step`:

- a committed master of up to L cells over `b 0 1`, its head at any cell
  from 0 to L + 1 and the synchro mark under it (`!+` at cell 0, `+`
  elsewhere), is backed up by stages 3 and 4 over a stale backup;
- the master is then replaced by any content of up to L cells, as a failure
  may leave it, and the synchro mark is either kept or erased, as a user
  step erases it (to `!` at cell 0);
- stages 5 and 6 restore.

The contract: stages 3 and 4 commit, and after stages 5 and 6 the master
cells, trimmed of trailing blanks, and the master head equal the committed
ones.

The marker contract: after every micro-step, cell 0 of every tape holds `!`
or `!+`. It is checked on every step of those runs, and of runs from the
entries of stages 2 and 7 over the same cases, with the committed content
on the user tape: the checks that compare the master with the reference.

The rewind contract: every `Rewind` ends with each head it lists at cell 0
after max(1, the highest of those heads) steps, and moves no other head and
changes no cell, so cell 0 keeps its `!` or `!+`.

The compare contract: a `ScanCompare` started at cell 0 takes its equal
branch exactly when the tapes agree up to their first shared terminator, and
it leaves on the step that reads the first difference or that terminator.
It commits only on the terminator, and only if it is the commit compare. A
stop-plus scan over position tapes that hold no `+` is the one exception:
it ends equal at the written extent, as `test_stages.TestAllocationExits`
pins.

The copy contract: a `ScanCopy` started at cell 0 writes the source's cells
up to and including its first terminator onto the destination, in
(terminator index) + 1 steps, and changes no other cell and no other head;
both of its heads end on the terminator. A stop-plus copy from a position
tape that holds no `+` ends at the written extent instead, as
`TestAllocationExits` pins too.

Two data symbols stand for any alphabet. The ops compare cells only with
each other and with `!`, the empty symbol and `+`, so a run depends on
which cells hold equal symbols, not on which symbols they are, and two data
symbols already give every equal and unequal pair. The stale backup is one
of two: none, or one past every committed content and position. Stage 3
writes the backup through its terminator, and at L = 2 every other stale
backup gives the same outcome in every case.
"""

import itertools

import pytest

from tmfsim.model import (
    BoundaryViolation,
    MARKER,
    MARKER_PLUS,
    PLUS,
    Alphabet,
    BasicMachine,
    Rule,
    Tape,
    validate_machine,
)
from tmfsim.stages import (
    BACKUP_SYNCHRO,
    MARKERS,
    MASTER,
    NEXT,
    POSITION_MARKS,
    Rewind,
    ScanCompare,
    ScanCopy,
    STAGE_PROGRAMS,
    STOP_PLUS,
    SYNCHRO,
    USER,
    ShutdownControl,
    StageControl,
    UserControl,
    compile_machine,
    stage_step,
)

from conftest import trimmed

L = 2
EMPTY = "b"
CONTENTS = [cells for n in range(L + 1)
            for cells in itertools.product((EMPTY, "0", "1"), repeat=n)]
HEADS = range(L + 2)
STALE = (((), 1), (("1",) * (L + 1), L + 2))   # (backup content, backup "+" cell)
STAGE_STEPS = 200

COMPILED = compile_machine(validate_machine(BasicMachine(
    states=("q0", "qf"), initial="q0", halting="qf",
    alphabet=Alphabet(EMPTY, input=("0", "1")),
    delta=(Rule("q0", EMPTY, "qf", EMPTY, "N"),))))


def position_tape(plus: int, head: int) -> Tape:
    """A position tape marked at cell `plus`: with `!+` when that is cell 0."""
    if plus == 0:
        return build_tape(MARKER_PLUS, (), head)
    return Tape(EMPTY, (EMPTY,) * (plus - 1) + (PLUS,), head)


def drive(stage: int, tapes) -> tuple[object, int]:
    """Run stage micro-steps from `stage` until control leaves the stages or
    `STAGE_STEPS` run out, checking the marker contract after each step;
    the control it ends at and the commits on the way."""
    control = COMPILED.controls[stage, 0, "q0"]
    commits = 0
    for _ in range(STAGE_STEPS):
        control, action = stage_step(control, tapes)
        assert all(tape.cells[0] in MARKERS for tape in tapes), (stage, control, tapes)
        commits += action == "commit"
        if not isinstance(control, StageControl):
            break
    return control, commits


def failed_case(committed, head, stale, failed, erased) -> tuple[int | None, list[Tape]]:
    """(commits on the way to the user computation, the tapes) once stages 3
    and 4 have backed up the committed master and the failure has replaced
    it, for one case."""
    stale_cells, stale_plus = stale
    tapes = [Tape(EMPTY, committed, head),           # MASTER
             position_tape(head, head),              # SYNCHRO
             Tape(EMPTY, stale_cells, 0),            # BACKUP
             position_tape(stale_plus, 0),           # BACKUP_SYNCHRO
             Tape(EMPTY)]                            # USER
    control, commits = drive(3, tapes)
    tapes[MASTER] = Tape(EMPTY, failed, head)
    if erased:
        # As a user step erases it: cell 0 keeps its marker.
        tapes[SYNCHRO].head = head
        tapes[SYNCHRO].write(MARKER if head == 0 else EMPTY)
    return (commits if isinstance(control, UserControl) else None), tapes


def restore_case(committed, head, stale, failed, erased) -> tuple[int | None, bool]:
    """(commits on the way to the user computation, whether the restore
    rebuilt the committed master) for one case."""
    commits, tapes = failed_case(committed, head, stale, failed, erased)
    restored = (isinstance(drive(5, tapes)[0], UserControl)
                and trimmed(tapes[MASTER].cells[1:], EMPTY) == trimmed(committed, EMPTY)
                and tapes[MASTER].head == head)
    return commits, restored


@pytest.fixture(scope="module")
def cases():
    """(committed, head, failed, commits, restored) for every case."""
    return [(committed, head, failed, *restore_case(committed, head, stale, failed, erased))
            for committed, head, stale, failed, erased
            in itertools.product(CONTENTS, HEADS, STALE, CONTENTS, (False, True))]


def item_15_class(committed, failed) -> bool:
    """The committed content has an interior blank, or the master at failure
    holds a non-blank cell two or more cells past the committed content."""
    content = trimmed(committed, EMPTY)
    return EMPTY in content or any(symbol != EMPTY for symbol in failed[len(content) + 1:])


def test_backup_commits_every_master_once(cases):
    assert {commits for *_, commits, _ in cases} == {1}


def test_every_restore_violation_is_an_item_15_class(cases):
    assert all(item_15_class(committed, failed)
               for committed, _, failed, _, restored in cases if not restored)


@pytest.mark.parametrize("stage", [2, 7])
def test_the_master_checks_keep_every_marker(stage):
    """Stage 2 and stage 7 from their entries over every case, with the
    committed content on the user tape: `drive` checks the marker contract
    on every step. The synchro head is at the master head, so at cell 0
    stage 2's `MarkPlus` writes `!+`. Where each run ends, and with how
    many commits, shows both branches of the stage's compare taken."""
    ends = set()
    for committed, head, stale, failed, erased in itertools.product(
            CONTENTS, HEADS, STALE, CONTENTS, (False, True)):
        _, tapes = failed_case(committed, head, stale, failed, erased)
        tapes[USER] = Tape(EMPTY, committed, head)
        assert tapes[SYNCHRO].head == head
        control, commits = drive(stage, tapes)
        ends.add((control.__class__, commits))
        if stage == 2 and head == 0:
            # `MarkPlus` marked cell 0 with the one symbol `!+`, over the
            # `!` an erasing user step leaves there, and nothing cleared it.
            assert tapes[SYNCHRO].cells[0] == MARKER_PLUS
    # Stage 2 commits through stages 3 and 4 on its equal branch; stage 7
    # shuts down on its own, and enters recovery on its diff branch.
    assert ends == ({(UserControl, 1), (UserControl, 0)} if stage == 2
                    else {(ShutdownControl, 0), (UserControl, 0)})


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: the backup ends at the first blank, and the "
                          "restore leaves the master cells past the backup's terminator")
def test_restore_rebuilds_the_committed_master(cases):
    assert all(restored for *_, restored in cases)


POSITION_TAPES = (SYNCHRO, BACKUP_SYNCHRO)
POSITION_CONTENTS = [cells for n in range(L + 1)
                     for cells in itertools.product((EMPTY, PLUS), repeat=n)]


def op_sites(kind) -> list:
    """(stage, micro_pc, op) of every op of `kind` in the stage programs."""
    return [pytest.param(stage, pc, op, id=f"{stage}/{pc}")
            for stage, ops in STAGE_PROGRAMS.items()
            for pc, op in enumerate(ops) if isinstance(op, kind)]


def tape_choices(index: int) -> list[tuple[str, tuple[str, ...]]]:
    """(cell 0, cells from 1) a tape may hold: every content of up to L cells
    over its symbols, and on a position tape both marker symbols."""
    if index in POSITION_TAPES:
        return [(zero, cells) for zero in (MARKER, MARKER_PLUS) for cells in POSITION_CONTENTS]
    return [(MARKER, cells) for cells in CONTENTS]


def build_tape(zero: str, cells: tuple[str, ...], head: int) -> Tape:
    tape = Tape(EMPTY, cells, head)
    tape.cells[0] = zero
    return tape


def branch(control: StageControl, target) -> StageControl:
    if target == NEXT:
        return COMPILED.controls[control.stage, control.micro_pc + 1, control.resume]
    return COMPILED.controls[target, 0, control.resume]


def run_op(control: StageControl, tapes) -> tuple[object, list[str]]:
    """Step the op under `control` until control leaves it: the control it
    left to and the actions of its steps. While the op goes on, each step
    returns the control it was given, the object itself."""
    actions = []
    for _ in range(STAGE_STEPS):
        after, action = stage_step(control, tapes)
        actions.append(action)
        if after is not control:
            assert after != control
            return after, actions
    raise AssertionError("op did not finish")


@pytest.mark.parametrize("stage, pc, op", op_sites(Rewind))
def test_every_rewind_ends_at_cell_0_and_changes_no_cell(stage, pc, op):
    """A rewind reads a cell only to ask whether it holds `!` or `!+`, so a
    listed tape's content matters only through its extent and its cell 0.
    Each listed tape holds 0 to L cells, blank but for a last "1" (on a
    position tape, a last "+"), under either marker symbol on a position
    tape, with its head anywhere from 0 to L + 1."""
    control = COMPILED.controls[stage, pc, "q0"]
    per_tape = []
    for index in op.tapes:
        fill = PLUS if index in POSITION_TAPES else "1"
        zeros = (MARKER, MARKER_PLUS) if index in POSITION_TAPES else (MARKER,)
        per_tape.append([(zero, (EMPTY,) * (n - 1) + (fill,) if n else (), head)
                         for zero in zeros for n in range(L + 1) for head in range(L + 2)])
    for choice in itertools.product(*per_tape):
        tapes = [Tape(EMPTY, ("0",), 1) for _ in range(5)]
        for index, (zero, cells, head) in zip(op.tapes, choice):
            tapes[index] = build_tape(zero, cells, head)
        before = [list(tape.cells) for tape in tapes]
        after, actions = run_op(control, tapes)
        assert after == branch(control, NEXT)
        assert len(actions) == max(1, *(head for _, _, head in choice))
        assert set(actions) == {op.action}
        assert [tape.cells for tape in tapes] == before
        assert [tape.head for tape in tapes] == [0 if index in op.tapes else 1
                                                 for index in range(5)]


@pytest.mark.parametrize("stage, pc, op", op_sites(Rewind))
def test_a_rewind_over_a_lost_marker_leaves_cell_0(stage, pc, op):
    """A rewind stops only on `!` or `!+`: a listed tape whose cell 0 lost
    its marker takes the head to cell 0 and then raises BoundaryViolation
    rather than move it further left."""
    control = COMPILED.controls[stage, pc, "q0"]
    tapes = [Tape(EMPTY, ("0",), 1) for _ in range(5)]
    lost = tapes[op.tapes[0]]
    lost.cells[0] = EMPTY
    after, _ = stage_step(control, tapes)
    assert after is control
    assert [tape.head for tape in tapes] == [0 if index in op.tapes else 1
                                             for index in range(5)]
    with pytest.raises(BoundaryViolation):
        stage_step(control, tapes)
    assert lost.head == 0 and lost.cells == [EMPTY, "0"]


def expected_compare(a: Tape, b: Tape, stops) -> tuple[bool | None, int]:
    """(whether the tapes agree up to their first shared terminator, the
    cells read to see it); None for a scan that meets no terminator."""
    i = 0
    while True:
        sa = a.cells[i] if i < len(a.cells) else EMPTY
        sb = b.cells[i] if i < len(b.cells) else EMPTY
        if sa != sb:
            return False, i + 1
        if sa in stops:
            return True, i + 1
        if i >= len(a.cells) and i >= len(b.cells):
            return None, i + 1
        i += 1


@pytest.mark.parametrize("stage, pc, op", op_sites(ScanCompare))
def test_every_compare_reports_equal_exactly_up_to_the_terminator(stage, pc, op):
    control = COMPILED.controls[stage, pc, "q0"]
    stops = POSITION_MARKS if op.stop == STOP_PLUS else (EMPTY,)
    outcomes = set()
    for (zero_a, cells_a), (zero_b, cells_b) in itertools.product(tape_choices(op.tape_a),
                                                                  tape_choices(op.tape_b)):
        tapes = [Tape(EMPTY, (), 0) for _ in range(5)]
        tapes[op.tape_a] = build_tape(zero_a, cells_a, 0)
        tapes[op.tape_b] = build_tape(zero_b, cells_b, 0)
        equal, reads = expected_compare(tapes[op.tape_a], tapes[op.tape_b], stops)
        after, actions = run_op(control, tapes)
        outcomes.add(equal)
        if equal is None:
            # The allocation-extent exit: position tapes without a mark.
            assert op.stop == STOP_PLUS
            assert not any(cell in POSITION_MARKS for cell in (*tapes[op.tape_a].cells,
                                                                *tapes[op.tape_b].cells))
            continue
        on_equal, on_diff = op.targets
        assert after == branch(control, on_equal if equal else on_diff)
        assert len(actions) == reads
        assert actions[:-1] == [op.action] * (reads - 1)
        assert actions[-1] == (op.stop_action if equal else op.action)
    assert outcomes >= {True, False}


def expected_copy(src: Tape, stops) -> list[str] | None:
    """The symbols a copy from `src` writes, from cell 0 through its first
    terminator; None for a source that holds none, which ends the copy at
    its written extent instead."""
    written = []
    for i in range(len(src.cells) + 1):
        written.append(src.cells[i] if i < len(src.cells) else EMPTY)
        if written[-1] in stops:
            return written
    return None


@pytest.mark.parametrize("stage, pc, op", op_sites(ScanCopy))
def test_every_copy_writes_the_source_through_its_terminator(stage, pc, op):
    control = COMPILED.controls[stage, pc, "q0"]
    stops = POSITION_MARKS if op.stop == STOP_PLUS else (EMPTY,)
    lengths = set()
    for (zero_src, cells_src), (zero_dst, cells_dst) in itertools.product(
            tape_choices(op.src), tape_choices(op.dst)):
        tapes = [Tape(EMPTY, ("0",), 1) for _ in range(5)]
        tapes[op.src] = build_tape(zero_src, cells_src, 0)
        tapes[op.dst] = build_tape(zero_dst, cells_dst, 0)
        written = expected_copy(tapes[op.src], stops)
        if written is None:
            assert op.stop == STOP_PLUS
            continue
        lengths.add(len(written))
        expected = [list(tape.cells) for tape in tapes]
        expected[op.dst][:len(written)] = written
        after, actions = run_op(control, tapes)
        assert after == branch(control, NEXT)
        assert actions == [op.action] * len(written)
        assert [tape.cells for tape in tapes] == expected
        assert [tape.head for tape in tapes] == [len(written) - 1 if index in (op.src, op.dst)
                                                 else 1 for index in range(5)]
    assert len(lengths) == L + 1
