import dataclasses
import sys

import pytest
from hypothesis import given, strategies as st

import tmfsim.cli  # noqa: F401  (loads every module of the package)

from tmfsim.model import (
    Alphabet,
    BasicMachine,
    Rule,
    ShutdownControl,
    StageControl,
    Tape,
    validate_machine,
)
from tmfsim.stages import (
    BACKUP,
    BACKUP_SYNCHRO,
    EnterShutdown,
    EnterUser,
    MASTER,
    MarkPlus,
    NEXT,
    PlusNotFound,
    Rewind,
    ScanCompare,
    ScanCopy,
    STAGE_PROGRAMS,
    SeekPlus,
    SYNCHRO,
    USER,
    compile_machine,
    emit_pi,
    stage_step,
)


def small_machine(checkpoints=(), gamma=()):
    delta = [
        Rule("q0", "1", "q0", "1", "R", checkpoint=("q0", "1") in checkpoints),
        Rule("q0", "b", "qf", "1", "N", checkpoint=("q0", "b") in checkpoints),
    ]
    return validate_machine(BasicMachine(
        states=("q0", "qf"), initial="q0", halting="qf",
        alphabet=Alphabet("b", input=("1",), internal=("0",)),
        delta=tuple(delta), gamma=tuple(gamma)))


def tape_set(empty="b", master=(), user=(), synchro=(), backup=(), backup_synchro=()):
    return {
        MASTER: Tape(empty, master),
        USER: Tape(empty, user),
        SYNCHRO: Tape(empty, synchro),
        BACKUP: Tape(empty, backup),
        BACKUP_SYNCHRO: Tape(empty, backup_synchro),
    }


def drive(compiled, stage, tapes, resume="q0", limit=10_000):
    """Run stage micro-steps until control leaves the stage family."""
    control = StageControl(stage, 0, resume)
    path = []
    for _ in range(limit):
        result = stage_step(compiled, control, tapes)
        path.append(result)
        if not isinstance(result.control, StageControl):
            return result, path
        control = result.control
        if control.stage != stage:
            return result, path
    raise AssertionError("stage did not terminate")


class TestCompile:
    def test_exactly_six_stage_programs(self):
        compiled = compile_machine(small_machine())
        assert sorted(compiled.stage_programs) == [2, 3, 4, 5, 6, 7]

    def test_no_checkpoints_still_compiles_summary_stage(self):
        compiled = compile_machine(small_machine())
        assert not any(r.checkpoint for r in compiled.base.delta)
        assert any(isinstance(op, EnterShutdown) for op in compiled.stage_programs[7].ops)

    def test_branch_wiring(self):
        programs = compile_machine(small_machine()).stage_programs
        s2 = programs[2].ops
        assert isinstance(s2[0], MarkPlus)
        compare = [op for op in s2 if isinstance(op, ScanCompare)][0]
        assert (compare.on_equal, compare.on_diff) == (3, 5)
        assert programs[3].done == 4 and programs[5].done == 6
        s4 = [op for op in programs[4].ops if isinstance(op, ScanCompare)]
        assert [op.on_diff for op in s4] == [3, 3]
        s6 = [op for op in programs[6].ops if isinstance(op, ScanCompare)]
        assert [op.on_diff for op in s6] == [3, 5]
        s7 = [op for op in programs[7].ops if isinstance(op, ScanCompare)][0]
        assert s7.on_diff == 5
        for stage in (4, 6):
            ops = programs[stage].ops
            assert isinstance(ops[-2], SeekPlus) and isinstance(ops[-1], EnterUser)

    def test_branch_targets_all_resolve(self):
        programs = compile_machine(small_machine()).stage_programs
        for stage, program in programs.items():
            targets = []
            if program.done is not None:
                targets.append(program.done)
            for op in program.ops:
                if isinstance(op, ScanCompare):
                    targets += [op.on_equal, op.on_diff]
            for target in targets:
                assert target == NEXT or target in programs
            # a stage must not run off its end without a continuation
            if program.done is None:
                assert isinstance(program.ops[-1], (EnterUser, EnterShutdown, ScanCompare))


class TestStageStep:
    def test_compare_identical_tapes_takes_equal_branch(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "0"), user=("1", "0"))
        result, _ = drive(compiled, 2, tapes)
        assert result.control == StageControl(3, 0, "q0")

    def test_compare_first_mismatch_takes_diff_branch(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "0"), user=("1", "1"))
        result, path = drive(compiled, 2, tapes)
        assert result.control.stage == 5
        # mismatch observed at cell index 2
        assert tapes[MASTER].head == 2 and tapes[USER].head == 2

    def test_copy_then_compare_reports_equal_despite_stale_tail(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "0", "1"), backup=("0", "0", "0", "0", "0"))
        control = StageControl(3, 0, "q0")
        # run just the master->backup rewind+copy (first two ops)
        for _ in range(40):
            result = stage_step(compiled, control, tapes)
            control = result.control
            if control.micro_pc >= 2:
                break
        assert tapes[BACKUP].cells == ["!", "1", "0", "1", "b", "0"]
        # the stale trailing 0 is invisible to the comparison
        tapes[MASTER].head = tapes[BACKUP].head = 3
        control = StageControl(4, 0, "q0")
        for _ in range(40):
            result = stage_step(compiled, control, tapes)
            assert isinstance(result.control, StageControl)
            control = result.control
            if control.micro_pc == 2:  # past the master/backup compare
                break
        assert control.stage == 4

    def test_seek_plus_restores_master_head(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "1", "1"), synchro=("b", "b", "+"))
        tapes[MASTER].head = 0
        tapes[SYNCHRO].head = 0
        control = StageControl(4, 5, "q0")  # SeekPlus op
        for _ in range(10):
            result = stage_step(compiled, control, tapes)
            if not isinstance(result.control, StageControl) or result.control.micro_pc != 5:
                break
            control = result.control
        assert tapes[MASTER].head == 3
        assert tapes[SYNCHRO].read() == "+"

    def test_seek_plus_jams_without_mark(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "1"), synchro=("b", "b"))
        tapes[MASTER].head = 0
        tapes[SYNCHRO].head = 0
        control = StageControl(4, 5, "q0")
        with pytest.raises(PlusNotFound):
            for _ in range(10):
                result = stage_step(compiled, control, tapes)
                control = result.control

    def test_mark_plus_writes_at_current_cell(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(synchro=("b", "b"))
        tapes[SYNCHRO].head = 2
        result = stage_step(compiled, StageControl(2, 0, "q0"), tapes)
        assert result.action == "micro:mark_plus"
        assert tapes[SYNCHRO].cells == ["!", "b", "+"]

    def test_backup_copy_carries_the_position_mark(self):
        compiled = compile_machine(small_machine())
        tapes = tape_set(master=("1", "1"), synchro=("b", "b", "+"),
                         backup=("1", "1"), backup_synchro=("+",))
        result, _ = drive(compiled, 3, tapes)
        assert result.control == StageControl(4, 0, "q0")
        cells = tapes["backup_synchro"].cells
        assert cells[:4] == ["!", "b", "b", "+"]
        assert cells.count("+") == 1


class TestAllocationExits:
    """A position tape without "+" ends a stop-plus scan only at the written
    extent of the tapes (`Tape.allocated`), a state no tape symbol shows."""

    @staticmethod
    def run_op(compiled, control, tapes, limit=100):
        """Step one micro-op until control leaves it; its actions and the
        control it left to."""
        actions = []
        for _ in range(limit):
            result = stage_step(compiled, control, tapes)
            actions.append(result.action)
            if result.control != control:
                return result.control, actions
        raise AssertionError("op did not finish")

    @pytest.mark.parametrize("stage", [4, 6])
    def test_plus_compare_without_plus_ends_equal_without_commit(self, stage):
        compiled = compile_machine(small_machine())
        op = compiled.stage_programs[stage].ops[3]
        assert isinstance(op, ScanCompare) and op.stop == "plus"
        tapes = tape_set(synchro=("b", "b"), backup_synchro=("b", "b", "b", "b"))
        tapes[SYNCHRO].head = tapes[BACKUP_SYNCHRO].head = 0
        control, actions = self.run_op(compiled, StageControl(stage, 3, "q0"), tapes)
        assert control == StageControl(stage, 4, "q0")   # on_equal: the next op
        assert actions == [f"micro:{op.render()}"] * 6
        assert tapes[SYNCHRO].head == tapes[BACKUP_SYNCHRO].head == 5
        assert tapes[BACKUP_SYNCHRO].head == tapes[BACKUP_SYNCHRO].allocated

    @pytest.mark.parametrize("stage, src, dst", [(3, SYNCHRO, BACKUP_SYNCHRO),
                                                 (5, BACKUP_SYNCHRO, SYNCHRO)])
    def test_plus_copy_without_plus_stops_at_the_source_extent(self, stage, src, dst):
        compiled = compile_machine(small_machine())
        op = compiled.stage_programs[stage].ops[3]
        assert op.render() == ScanCopy(src, dst, "plus").render()
        tapes = tape_set(**{src: ("b", "b"), dst: ("1", "1", "1", "+")})
        tapes[src].head = tapes[dst].head = 0
        control, actions = self.run_op(compiled, StageControl(stage, 3, "q0"), tapes)
        assert control == StageControl(stage, 4, "q0")   # NEXT: the stage's end
        assert actions == [f"micro:{op.render()}"] * 4
        assert tapes[src].head == tapes[src].allocated == 3
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


def test_stage_programs_are_machine_independent(compiled_corpus):
    programs = [compiled.stage_programs for compiled, _ in compiled_corpus.values()]
    for other in programs[1:]:
        assert other == programs[0]


class TestSharedStagePrograms:
    def test_every_machine_gets_its_own_dict_of_the_shared_programs(self, corpus):
        machines = [machine for machine, _ in corpus.values()] + [small_machine()] * 2
        dicts = [compile_machine(machine).stage_programs for machine in machines]
        for programs in dicts:
            assert programs == STAGE_PROGRAMS and programs is not STAGE_PROGRAMS
            assert all(programs[stage] is program for stage, program in STAGE_PROGRAMS.items())
        assert len({id(programs) for programs in dicts}) == len(dicts)

    def test_assigning_into_one_dict_leaves_the_others(self, corpus):
        before = dict(STAGE_PROGRAMS)
        mine = compile_machine(small_machine()).stage_programs
        theirs = compile_machine(corpus["unary"][0]).stage_programs
        mine[2] = mine[3]
        del mine[7]
        assert mine != before
        for programs in (theirs, compile_machine(small_machine()).stage_programs,
                         STAGE_PROGRAMS):
            assert programs == before and programs[2] is before[2]


@pytest.mark.parametrize("cls, text", [
    (SeekPlus, "seek_plus"), (MarkPlus, "mark_plus"), (EnterUser, "enter_user"),
    (EnterShutdown, "enter_shutdown"), (ShutdownControl, "shutdown")])
def test_fieldless_classes_hold_nothing(cls, text):
    instance = cls()
    assert cls.__slots__ == ()
    with pytest.raises(AttributeError):
        instance.anything = 1
    assert instance.render() == text


def test_only_the_classes_a_step_builds_are_dataclasses():
    """Generating dataclass methods is paid at every import, so only the
    classes built on every step are dataclasses."""
    modules = [module for name, module in sys.modules.items()
               if name == "tmfsim" or name.startswith("tmfsim.")]
    dataclass_names = {obj.__qualname__ for module in modules for obj in vars(module).values()
                       if isinstance(obj, type) and obj.__module__.startswith("tmfsim")
                       and dataclasses.is_dataclass(obj)}
    assert dataclass_names == {"StageControl", "UserControl", "StageStep", "TraceRecord"}


def shared_objects():
    """One instance of each slotted class a compiled machine is made of."""
    compiled = compile_machine(small_machine())
    machine = compiled.base
    program = compiled.stage_programs[3]
    return [machine.alphabet, machine.delta[0], machine,
            BasicMachine(machine.states, machine.initial, machine.halting, machine.alphabet,
                         machine.delta),
            program.ops[0], program.ops[1], compiled.stage_programs[2].ops[2],
            program, compiled]


@pytest.mark.parametrize("obj", shared_objects(), ids=lambda obj: type(obj).__name__)
def test_shared_objects_are_read_only_slots(obj):
    """Programs, ops and machines are shared between runs, so none of them
    takes an assignment, to a field or to a new name."""
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
    ops = STAGE_PROGRAMS[4].ops
    assert [op.render() for op in ops[:2]] == [
        Rewind((MASTER, BACKUP)).render(),
        ScanCompare(MASTER, BACKUP, "empty", on_equal=NEXT, on_diff=3).render()]
    assert ops[0].render() != Rewind((MASTER, SYNCHRO)).render()
    assert ops[1].render() != ScanCompare(MASTER, BACKUP, "empty", on_equal=NEXT,
                                          on_diff=5).render()
    assert STAGE_PROGRAMS[3].ops[1].render() == ScanCopy(MASTER, BACKUP, "empty").render()
    assert STAGE_PROGRAMS[3].ops[1].render() != ScanCopy(BACKUP, MASTER, "empty").render()


content = st.lists(st.sampled_from(["0", "1", "x"]), max_size=64)


@given(src=content, dst=content)
def test_copy_then_compare_always_equal(src, dst):
    compiled = compile_machine(validate_machine(BasicMachine(
        states=("q0", "qf"), initial="q0", halting="qf",
        alphabet=Alphabet("b", input=("0", "1"), internal=("x",)),
        delta=(Rule("q0", "b", "qf", "b", "N"),))))
    tapes = tape_set(master=tuple(src), backup=tuple(dst))
    control = StageControl(3, 0, "q0")
    for _ in range(4 * (len(src) + len(dst)) + 40):
        result = stage_step(compiled, control, tapes)
        control = result.control
        if control.micro_pc >= 2:
            break
    tapes[MASTER].head = tapes[BACKUP].head = 0
    control = StageControl(4, 1, "q0")  # the master/backup compare
    for _ in range(4 * (len(src) + len(dst)) + 40):
        result = stage_step(compiled, control, tapes)
        assert isinstance(result.control, StageControl)
        control = result.control
        if (control.stage, control.micro_pc) != (4, 1):
            break
    assert (control.stage, control.micro_pc) == (4, 2)  # equal branch


@given(heads=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_rewind_is_idempotent(heads):
    compiled = compile_machine(small_machine())
    tapes = tape_set(master=("1",) * 40, user=("1",) * 40)
    tapes[MASTER].head, tapes[USER].head = heads

    def rewind_to_completion():
        control = StageControl(2, 1, "q0")  # the rewind op of the check stage
        for _ in range(100):
            result = stage_step(compiled, control, tapes)
            control = result.control
            if control.micro_pc != 1:
                return
        raise AssertionError("rewind did not finish")

    rewind_to_completion()
    first = (tapes[MASTER].head, tapes[USER].head)
    tapes[MASTER].head, tapes[USER].head = first
    rewind_to_completion()
    assert (tapes[MASTER].head, tapes[USER].head) == first == (0, 0)
