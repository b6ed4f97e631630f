import dataclasses
import sys

import pytest
from hypothesis import given, strategies as st

import tmfsim.cli  # noqa: F401  (loads every module of the package)

from tmfsim.model import (
    Alphabet,
    BasicMachine,
    Rule,
    Tape,
    validate_machine,
)
from tmfsim.stages import (
    BACKUP,
    BACKUP_SYNCHRO,
    Goto,
    MASTER,
    MarkPlus,
    NEXT,
    PlusNotFound,
    RESUME,
    Rewind,
    SHUTDOWN,
    ScanCompare,
    ScanCopy,
    STAGE_PROGRAMS,
    SeekPlus,
    ShutdownControl,
    StageControl,
    SYNCHRO,
    TAPE_NAMES,
    USER,
    UserControl,
    compile_machine,
    emit_pi,
    stage_step,
)

from conftest import control_graph, renamed_machine, stage_patterns, stage_walk


def small_machine(checkpoints=(), gamma=()):
    delta = [
        Rule("q0", "1", "q0", "1", "R", checkpoint=("q0", "1") in checkpoints),
        Rule("q0", "b", "qf", "1", "N", checkpoint=("q0", "b") in checkpoints),
    ]
    return validate_machine(BasicMachine(
        states=("q0", "qf"), initial="q0", halting="qf",
        alphabet=Alphabet("b", input=("1",), internal=("0",)),
        delta=tuple(delta), gamma=tuple(gamma)))


def tape_set(empty="b", master=(), synchro=(), backup=(), backup_synchro=(), user=()):
    """A configuration's five tapes, in the order MASTER to USER."""
    return tuple(Tape(empty, content) for content in (master, synchro, backup,
                                                      backup_synchro, user))


def drive(compiled, stage, tapes, resume="q0", limit=10_000):
    """Run stage micro-steps until control leaves the stage family; the
    control it left to and the (control, action) pair of every step."""
    control = compiled.controls[stage, 0, resume]
    path = []
    for _ in range(limit):
        control, action = stage_step(control, tapes)
        path.append((control, action))
        if not isinstance(control, StageControl):
            return control, path
        if control.stage != stage:
            return control, path
    raise AssertionError("stage did not terminate")


class TestCompile:
    def test_exactly_six_stage_programs(self):
        assert sorted(STAGE_PROGRAMS) == [2, 3, 4, 5, 6, 7]

    def test_no_checkpoints_still_compiles_summary_stage(self):
        compiled = compile_machine(small_machine())
        assert not any(r.checkpoint for r in compiled.base.delta)
        assert any(isinstance(op, Goto) and op.targets == (SHUTDOWN,)
                   for op in STAGE_PROGRAMS[7])

    def test_branch_wiring(self):
        programs = STAGE_PROGRAMS
        s2 = programs[2]
        assert isinstance(s2[0], MarkPlus)
        compare = [op for op in s2 if isinstance(op, ScanCompare)][0]
        assert compare.targets == (3, 5)
        for stage, done in ((3, 4), (5, 6)):
            assert isinstance(programs[stage][-1], Goto) and programs[stage][-1].targets == (done,)
        s4 = [op for op in programs[4] if isinstance(op, ScanCompare)]
        assert [op.targets[1] for op in s4] == [3, 3]
        s6 = [op for op in programs[6] if isinstance(op, ScanCompare)]
        assert [op.targets[1] for op in s6] == [3, 5]
        s7 = [op for op in programs[7] if isinstance(op, ScanCompare)][0]
        assert s7.targets[1] == 5
        for stage in (4, 6):
            ops = programs[stage]
            assert isinstance(ops[-2], SeekPlus) and isinstance(ops[-1], Goto)
            assert ops[-1].targets == (RESUME,)

    def test_branch_targets_all_resolve(self):
        """A compare or a goto branches to the next op or a stage entry;
        only a program's last op may leave the stages, to the user control
        (stages 4 and 6) or to shutdown (stage 7)."""
        leaving = {}
        for stage, ops in STAGE_PROGRAMS.items():
            for op in ops:
                if isinstance(op, (ScanCompare, Goto)):
                    for target in op.targets:
                        if target in (RESUME, SHUTDOWN):
                            assert op is ops[-1]
                            leaving[stage] = target
                        else:
                            assert target == NEXT or target in STAGE_PROGRAMS
            # a stage must not run off its end without a continuation
            assert not any(isinstance(op, Goto) for op in ops[:-1])
            assert isinstance(ops[-1], (Goto, ScanCompare))
        assert leaving == {4: RESUME, 6: RESUME, 7: SHUTDOWN}


class TestStageStep:
    def test_compare_identical_tapes_takes_equal_branch(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "0"), user=("1", "0"))
        control, _ = drive(compiled, 2, tapes)
        assert control == StageControl(3, 0, "q0")

    def test_compare_first_mismatch_takes_diff_branch(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "0"), user=("1", "1"))
        control, _ = drive(compiled, 2, tapes)
        assert control.stage == 5
        # mismatch observed at cell index 2
        assert tapes[MASTER].head == 2 and tapes[USER].head == 2

    def test_copy_then_compare_reports_equal_despite_stale_tail(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "0", "1"), backup=("0", "0", "0", "0", "0"))
        control = compiled.controls[3, 0, "q0"]
        # run just the master->backup rewind+copy (first two ops)
        for _ in range(40):
            control, _ = stage_step(control, tapes)
            if control.micro_pc >= 2:
                break
        assert tapes[BACKUP].cells == ["!", "1", "0", "1", "b", "0"]
        # the stale trailing 0 is invisible to the comparison
        tapes[MASTER].head = tapes[BACKUP].head = 3
        control = compiled.controls[4, 0, "q0"]
        for _ in range(40):
            control, _ = stage_step(control, tapes)
            assert isinstance(control, StageControl)
            if control.micro_pc == 2:  # past the master/backup compare
                break
        assert control.stage == 4

    def test_seek_plus_restores_master_head(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "1", "1"), synchro=("b", "b", "+"))
        tapes[MASTER].head = 0
        tapes[SYNCHRO].head = 0
        control = compiled.controls[4, 5, "q0"]  # SeekPlus op
        for _ in range(10):
            control, _ = stage_step(control, tapes)
            if not isinstance(control, StageControl) or control.micro_pc != 5:
                break
        assert tapes[MASTER].head == 3
        assert tapes[SYNCHRO].read() == "+"

    def test_a_checkpoint_at_cell_zero_marks_and_finds_the_marker_cell(self):
        """With the master head at cell 0, stage 2 marks the position as
        `!+`, which rewinds stop on, backup copies, compares and seek end
        on, so the checkpoint commits and resumes at cell 0."""
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1",), user=("1",), backup=("1",), backup_synchro=("+",))
        tapes[MASTER].head = tapes[SYNCHRO].head = tapes[USER].head = 0
        control = compiled.controls[2, 0, "q0"]
        actions = []
        for _ in range(100):
            control, action = stage_step(control, tapes)
            actions.append(action)
            if not isinstance(control, StageControl):
                break
        assert control == UserControl("q0")
        assert "commit" in actions
        assert tapes[SYNCHRO].cells == ["!+"]
        # The copy stops at `!+`; the old "+" past it is a stale tail.
        assert tapes[BACKUP_SYNCHRO].cells == ["!+", "+"]
        assert tapes[MASTER].head == tapes[SYNCHRO].head == 0

    def test_seek_plus_jams_without_mark(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "1"), synchro=("b", "b"))
        tapes[MASTER].head = 0
        tapes[SYNCHRO].head = 0
        control = compiled.controls[4, 5, "q0"]
        with pytest.raises(PlusNotFound):
            for _ in range(10):
                control, _ = stage_step(control, tapes)

    def test_mark_plus_writes_at_current_cell(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(synchro=("b", "b"))
        tapes[SYNCHRO].head = 2
        _, action = stage_step(compiled.controls[2, 0, "q0"], tapes)
        assert action == "micro:mark_plus"
        assert tapes[SYNCHRO].cells == ["!", "b", "+"]

    def test_backup_copy_carries_the_position_mark(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "1"), synchro=("b", "b", "+"),
                         backup=("1", "1"), backup_synchro=("+",))
        control, _ = drive(compiled, 3, tapes)
        assert control == StageControl(4, 0, "q0")
        cells = tapes[BACKUP_SYNCHRO].cells
        assert cells[:4] == ["!", "b", "b", "+"]
        assert cells.count("+") == 1


class TestAllocationExits:
    """A position tape without "+" ends a stop-plus scan only at the written
    extent of the tapes (`len(Tape.cells)`), a state no tape symbol shows."""

    @staticmethod
    def run_op(compiled, control, tapes, limit=100):
        """Step one micro-op until control leaves it; its actions and the
        control it left to."""
        actions = []
        for _ in range(limit):
            after, action = stage_step(control, tapes)
            actions.append(action)
            if after != control:
                return after, actions
        raise AssertionError("op did not finish")

    @pytest.mark.parametrize("stage, longer", [
        pytest.param(4, BACKUP_SYNCHRO, id="4"), pytest.param(6, BACKUP_SYNCHRO, id="6"),
        pytest.param(4, SYNCHRO, id="4-synchro-longer"),
        pytest.param(6, SYNCHRO, id="6-synchro-longer")])
    def test_plus_compare_without_plus_ends_equal_without_commit(self, stage, longer):
        """The scan ends on the step that finds both heads at or past their
        tape's written extent, whichever of the two tapes is longer."""
        compiled = compile_machine(small_machine())
        op = STAGE_PROGRAMS[stage][3]
        assert isinstance(op, ScanCompare) and op.stop == "plus"
        contents = {SYNCHRO: ("b", "b"), BACKUP_SYNCHRO: ("b", "b")}
        contents[longer] = ("b", "b", "b", "b")
        tapes = tape_set(synchro=contents[SYNCHRO], backup_synchro=contents[BACKUP_SYNCHRO])
        tapes[SYNCHRO].head = tapes[BACKUP_SYNCHRO].head = 0
        control, actions = self.run_op(compiled, compiled.controls[stage, 3, "q0"], tapes)
        assert control == StageControl(stage, 4, "q0")   # on_equal: the next op
        assert actions == [f"micro:{op.render()}"] * 6
        assert tapes[SYNCHRO].head == tapes[BACKUP_SYNCHRO].head == 5
        assert tapes[longer].head == len(tapes[longer].cells)

    @pytest.mark.parametrize("stage, src, dst", [
        pytest.param(3, SYNCHRO, BACKUP_SYNCHRO, id="3-synchro-backup_synchro"),
        pytest.param(5, BACKUP_SYNCHRO, SYNCHRO, id="5-backup_synchro-synchro")])
    def test_plus_copy_without_plus_stops_at_the_source_extent(self, stage, src, dst):
        compiled = compile_machine(small_machine())
        op = STAGE_PROGRAMS[stage][3]
        assert op.render() == ScanCopy(src, dst, "plus").render()
        tapes = tape_set(**{TAPE_NAMES[src]: ("b", "b"), TAPE_NAMES[dst]: ("1", "1", "1", "+")})
        tapes[src].head = tapes[dst].head = 0
        control, actions = self.run_op(compiled, compiled.controls[stage, 3, "q0"], tapes)
        assert control == StageControl(stage, 4, "q0")   # NEXT: the stage's end
        assert actions == [f"micro:{op.render()}"] * 4
        assert tapes[src].head == len(tapes[src].cells) == 3
        assert tapes[dst].cells == ["!", "b", "b", "b", "+"]


class TestEmitPi:
    def test_row_counts_mirror_rule_sets(self):
        machine = small_machine(checkpoints={("q0", "1")})
        listing = emit_pi(compile_machine(machine))
        rows = [line.split("\t") for line in listing.strip().splitlines()[1:]]
        stage1 = [r for r in rows if r[0] == "1"]
        assert len([r for r in stage1 if r[1] in ("normal", "checkpoint")]) == 2
        assert len([r for r in stage1 if r[1] == "fault"]) == 0

    def test_fault_rule_adds_one_row(self):
        machine = small_machine(checkpoints={("q0", "1")},
                                gamma=(Rule("q0", "1", "q0", "0", "R"),))
        listing = emit_pi(compile_machine(machine))
        rows = [line.split("\t") for line in listing.strip().splitlines()[1:]]
        faults = [r for r in rows if r[0] == "1" and r[1] == "fault"]
        assert len(faults) == 1
        assert faults[0][2] == "active"

    def test_byte_identical_across_invocations(self):
        machine = small_machine(checkpoints={("q0", "b")},
                                gamma=(Rule("q0", "1", "q0", "0", "R"),))
        first = emit_pi(compile_machine(machine))
        second = emit_pi(compile_machine(machine))
        assert first == second

    def test_checkpoint_rows_route_to_stage_two(self):
        machine = small_machine(checkpoints={("q0", "1")})
        listing = emit_pi(compile_machine(machine))
        row = next(line for line in listing.splitlines()
                   if line.split("\t")[1] == "checkpoint")
        assert "stage:2/0/q0" in row


def test_stage_programs_are_machine_independent():
    """Two machines that share no state and no symbol but `!` resolve each
    stage control to the same op, with exits to the same places, and drive
    each stage alike over the same tape patterns."""
    one = compile_machine(small_machine())
    other = compile_machine(renamed_machine(one.base))
    assert other.base.alphabet.empty != one.base.alphabet.empty
    graph = control_graph(one, "q0")
    assert len(graph) == sum(len(ops) for ops in STAGE_PROGRAMS.values())
    for key, (op, exits) in control_graph(other, "q0_").items():
        assert op is graph[key][0]
        assert exits == graph[key][1]
    for stage in STAGE_PROGRAMS:
        for pattern in stage_patterns(100, seed=stage):
            assert stage_walk(other, "q0_", stage, pattern) == stage_walk(one, "q0", stage, pattern)


@pytest.mark.parametrize("cls, text", [
    (SeekPlus, "seek_plus"), (MarkPlus, "mark_plus"), (ShutdownControl, "shutdown")])
def test_fieldless_classes_hold_nothing(cls, text):
    """Ops render their text; a control holds it as `text`."""
    instance = cls()
    assert cls.__slots__ == ()
    with pytest.raises(AttributeError):
        instance.anything = 1
    assert (instance.text if cls is ShutdownControl else instance.render()) == text


@pytest.mark.parametrize("stage, text, target", [
    pytest.param(4, "enter_user", RESUME, id="enter_user"),
    pytest.param(7, "enter_shutdown", SHUTDOWN, id="enter_shutdown")])
def test_jump_ops_hold_only_their_target_and_text(stage, text, target):
    """The ops that leave the stages are gotos: each holds its one target,
    renders its name and traces `micro:<name>`, and takes no assignment."""
    op = STAGE_PROGRAMS[stage][-1]
    assert isinstance(op, Goto) and op.targets == (target,)
    assert op.render() == text and op.action == f"micro:{text}"
    assert not hasattr(op, "__dict__")
    with pytest.raises(AttributeError):
        op.anything = 1
    with pytest.raises(AttributeError):
        op.targets = (NEXT,)


def test_a_control_is_resolved_once_and_compares_by_its_key():
    """A stage control knows its op and its critical flag when it is built,
    and a compiled machine builds a resume state's stage controls together
    and gives each its exits; those take no part in comparing, hashing or
    printing. Every machine's shutdown exit is the one shared control. A key
    that names no op raises KeyError and builds nothing."""
    compiled = compile_machine(small_machine())
    controls = compiled.controls
    check = controls[2, 2, "q0"]
    plain = StageControl(2, 2, "q0")
    assert (check == plain, hash(check), repr(check)) == (True, hash(plain), repr(plain))
    assert plain.op is check.op and plain.critical == check.critical
    assert check.op is STAGE_PROGRAMS[2][2] and not check.critical
    assert check.exits == (controls[3, 0, "q0"], controls[5, 0, "q0"])
    assert check.exits[0] is controls[3, 0, "q0"]
    enter = controls[4, 6, "q0"]
    assert enter.critical and enter.exits == (UserControl("q0"),)
    assert enter.exits[0] is controls["q0"] and not controls["q0"].critical
    assert controls[3, 4, "q0"].exits[0] is controls[4, 0, "q0"]   # the closing Goto
    shutdown = controls[7, 2, "q0"].exits
    assert len(shutdown) == 1 and shutdown[0].__class__ is ShutdownControl
    assert compile_machine(small_machine()).controls[7, 2, "qf"].exits[0] is shutdown[0]
    assert len(controls) == sum(len(ops) for ops in STAGE_PROGRAMS.values()) + 1
    before = dict(controls)
    for key in ((2, 3, "q0"), (8, 0, "q0"), (2, 3, "qf")):
        with pytest.raises(KeyError):
            controls[key]
    assert len(controls) == len(before)
    assert all(controls[key] is control for key, control in before.items())


def test_only_the_controls_are_dataclasses():
    """Generating dataclass methods is paid at every import, so only the two
    controls, which compare and hash by their fields, are dataclasses. A
    compiled machine builds each control once; the trace record, built on
    every step, is a tuple."""
    modules = [module for name, module in sys.modules.items()
               if name == "tmfsim" or name.startswith("tmfsim.")]
    dataclass_names = {obj.__qualname__ for module in modules for obj in vars(module).values()
                       if isinstance(obj, type) and obj.__module__.startswith("tmfsim")
                       and dataclasses.is_dataclass(obj)}
    assert dataclass_names == {"StageControl", "UserControl"}


def shared_objects():
    """One instance of each slotted class a compiled machine is made of."""
    compiled = compile_machine(small_machine())
    machine = compiled.base
    program = STAGE_PROGRAMS[3]
    return [machine.alphabet, machine.delta[0], machine,
            BasicMachine(machine.states, machine.initial, machine.halting, machine.alphabet,
                         machine.delta),
            program[0], program[1], STAGE_PROGRAMS[2][2], program[-1], compiled]


@pytest.mark.parametrize("obj", shared_objects(), ids=lambda obj: type(obj).__name__)
def test_shared_objects_are_read_only_slots(obj):
    """Ops and machines are shared between runs, so none of them takes an
    assignment, to a field or to a new name."""
    assert not hasattr(obj, "__dict__")
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    for name in (field, "anything"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert getattr(obj, field) is before


def test_ops_render_the_same_text_as_ops_with_the_same_fields():
    """Ops compare by identity; their rendered text, which traces and
    `compile` show, is what names them."""
    ops = STAGE_PROGRAMS[4]
    assert [op.render() for op in ops[:2]] == [
        Rewind((MASTER, BACKUP)).render(),
        ScanCompare(MASTER, BACKUP, "empty", on_equal=NEXT, on_diff=3).render()]
    assert ops[0].render() != Rewind((MASTER, SYNCHRO)).render()
    assert ops[1].render() != ScanCompare(MASTER, BACKUP, "empty", on_equal=NEXT,
                                          on_diff=5).render()
    assert STAGE_PROGRAMS[3][1].render() == ScanCopy(MASTER, BACKUP, "empty").render()
    assert STAGE_PROGRAMS[3][1].render() != ScanCopy(BACKUP, MASTER, "empty").render()


content = st.lists(st.sampled_from(["0", "1", "x"]), max_size=64)


@given(src=content, dst=content)
def test_copy_then_compare_always_equal(src, dst):
    compiled = compile_machine(validate_machine(BasicMachine(
        states=("q0", "qf"), initial="q0", halting="qf",
        alphabet=Alphabet("b", input=("0", "1"), internal=("x",)),
        delta=(Rule("q0", "b", "qf", "b", "N"),))))
    tapes = tape_set(master=tuple(src), backup=tuple(dst))
    control = compiled.controls[3, 0, "q0"]
    for _ in range(4 * (len(src) + len(dst)) + 40):
        control, _ = stage_step(control, tapes)
        if control.micro_pc >= 2:
            break
    tapes[MASTER].head = tapes[BACKUP].head = 0
    control = compiled.controls[4, 1, "q0"]  # the master/backup compare
    for _ in range(4 * (len(src) + len(dst)) + 40):
        control, _ = stage_step(control, tapes)
        assert isinstance(control, StageControl)
        if (control.stage, control.micro_pc) != (4, 1):
            break
    assert (control.stage, control.micro_pc) == (4, 2)  # equal branch


@given(heads=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_rewind_is_idempotent(heads):
    compiled = compile_machine(small_machine())
    tapes = tape_set(master=("1",) * 40, user=("1",) * 40)
    tapes[MASTER].head, tapes[USER].head = heads

    def rewind_to_completion():
        control = compiled.controls[2, 1, "q0"]  # the rewind op of the check stage
        for _ in range(100):
            control, _ = stage_step(control, tapes)
            if control.micro_pc != 1:
                return
        raise AssertionError("rewind did not finish")

    rewind_to_completion()
    first = (tapes[MASTER].head, tapes[USER].head)
    tapes[MASTER].head, tapes[USER].head = first
    rewind_to_completion()
    assert (tapes[MASTER].head, tapes[USER].head) == first == (0, 0)
