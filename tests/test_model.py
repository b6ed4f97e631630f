from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tmfsim.model import (
    Alphabet,
    BasicMachine,
    BoundaryViolation,
    MARKER,
    Rule,
    Tape,
    ValidatedMachine,
    ValidationError,
    ValidationIssue,
    validate_machine,
)
from tmfsim.stages import TAPE_ORDER
from tmfsim.trace import digest_tapes, tape_digest

from conftest import tapes_equal_to_terminator


def make_machine(delta, gamma=(), states=("q0", "qf"), initial="q0", halting="qf",
                 alphabet=Alphabet("b", input=("1",), internal=("0",))):
    return BasicMachine(states=states, initial=initial, halting=halting,
                        alphabet=alphabet, delta=tuple(delta), gamma=tuple(gamma))


APPEND_RULES = (
    Rule("q0", "1", "q0", "1", "R"),
    Rule("q0", "b", "qf", "1", "N"),
)


class TestValidation:
    def test_minimal_appender_is_valid(self):
        machine = validate_machine(make_machine(APPEND_RULES))
        assert machine.delta_map[("q0", "1")].to_state == "q0"
        assert not any(r.checkpoint for r in machine.delta)

    def test_duplicate_delta_rule(self):
        dup = APPEND_RULES + (Rule("q0", "1", "qf", "1", "N"),)
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(dup))
        assert any(i.code == "duplicate-rule" for i in err.value.issues)

    def test_fault_identical_to_normal_rule(self):
        gamma = (Rule("q0", "1", "q0", "1", "R"),)
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(APPEND_RULES, gamma))
        assert any(i.code == "fault-equals-normal" for i in err.value.issues)

    def test_fault_differing_in_write_is_fine(self):
        gamma = (Rule("q0", "1", "q0", "0", "R"),)
        machine = validate_machine(make_machine(APPEND_RULES, gamma))
        assert machine.gamma_map[("q0", "1")].write == "0"

    def test_all_violations_reported_together(self):
        bad = make_machine(
            delta=APPEND_RULES + (Rule("q0", "1", "q0", "1", "R"),
                                  Rule("qf", "1", "q0", "1", "R"),
                                  Rule("q0", "x", "q0", "1", "R")),
        )
        with pytest.raises(ValidationError) as err:
            validate_machine(bad)
        codes = {i.code for i in err.value.issues}
        assert {"duplicate-rule", "halting-has-rules", "unknown-symbol"} <= codes

    def test_unknown_state_in_rule(self):
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(APPEND_RULES + (Rule("q9", "1", "q0", "1", "R"),)))
        assert any(i.code == "unknown-state" for i in err.value.issues)

    def test_marker_rules(self):
        ok = make_machine(APPEND_RULES + (Rule("q0", "!", "q0", "!", "R"),))
        validate_machine(ok)
        for bad_rule in (Rule("q0", "!", "q0", "1", "R"),    # overwrites the marker
                         Rule("q0", "!", "q0", "!", "L"),    # walks off the tape
                         Rule("q0", "1", "q0", "!", "R")):   # plants a second marker
            with pytest.raises(ValidationError) as err:
                validate_machine(make_machine(APPEND_RULES + (bad_rule,)))
            assert any(i.code == "marker-violation" for i in err.value.issues)

    def test_checkpoint_mark_on_fault_rule(self):
        gamma = (Rule("q0", "1", "q0", "0", "R", checkpoint=True),)
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(APPEND_RULES, gamma))
        assert any(i.code == "checkpoint-on-fault" for i in err.value.issues)

    def test_reserved_symbol_in_alphabet(self):
        alpha = Alphabet("b", input=("!",))
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(APPEND_RULES, alphabet=alpha))
        assert any(i.code == "bad-symbol" for i in err.value.issues)


    def test_symbol_in_two_classes(self):
        alpha = Alphabet("b", input=("1",), internal=("1",))
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(APPEND_RULES, alphabet=alpha))
        assert [str(i) for i in err.value.issues] == [
            "overlapping-classes: symbol '1' in both input and internal"]

    def test_symbol_repeated_in_one_class(self):
        alpha = Alphabet("b", input=("1", "1"))
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine(APPEND_RULES, alphabet=alpha))
        assert [str(i) for i in err.value.issues] == [
            "duplicate-symbol: symbol '1' declared twice in input"]

    def test_initial_state_may_also_halt(self):
        """One state in the initial and halting roles is listed once per role."""
        for states in (("q0", "q0"), ("q0",)):
            validate_machine(make_machine((), states=states, initial="q0", halting="q0"))
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine((), states=("q0", "q0", "q0"), initial="q0",
                                          halting="q0"))
        assert [i.code for i in err.value.issues] == ["duplicate-state"]

    def test_bad_move(self):
        with pytest.raises(ValidationError) as err:
            validate_machine(make_machine((Rule("q0", "1", "q0", "1", "X"),)))
        assert [i.code for i in err.value.issues] == ["bad-move"]

    def test_issue_is_a_read_only_record(self):
        issue = ValidationIssue("bad-move", "rule 'q0 1' moves 'X'")
        assert ValidationIssue._fields == ("code", "message")
        assert repr(issue) == "ValidationIssue(code='bad-move', message=\"rule 'q0 1' moves 'X'\")"
        assert str(issue) == "bad-move: rule 'q0 1' moves 'X'"
        with pytest.raises(AttributeError):
            issue.code = "other"
        assert issue == ValidationIssue("bad-move", "rule 'q0 1' moves 'X'")

    def test_revalidating_a_replaced_machine_rebuilds_its_maps(self):
        machine = validate_machine(make_machine(APPEND_RULES))
        rules = (Rule("q0", "1", "qf", "0", "N"),)
        faults = (Rule("q0", "1", "qf", "1", "N"),)
        again = validate_machine(replace(machine, delta=rules, gamma=faults))
        assert isinstance(again, ValidatedMachine)
        assert (again.delta, again.gamma) == (rules, faults)
        assert again.delta_map == {("q0", "1"): rules[0]}
        assert again.gamma_map == {("q0", "1"): faults[0]}


class TestTape:
    def test_apply_action_write_and_move_right(self):
        tape = Tape("b", ("1", "0"), head=1)
        tape.apply("0", "R")
        assert tape.cells == ["!", "0", "0"]
        assert tape.head == 2

    def test_identity_action_on_marker_cell(self):
        tape = Tape("b", ("1",), head=0)
        tape.apply("!", "N")
        assert tape == Tape("b", ("1",), head=0)

    def test_move_left_from_cell_zero(self):
        tape = Tape("b", ("1",), head=0)
        with pytest.raises(BoundaryViolation):
            tape.apply("!", "L")

    def test_grows_with_empty_symbols_on_demand(self):
        tape = Tape("b", (), head=3)
        assert tape.read() == "b"
        tape.write("1")
        assert tape.cells == ["!", "b", "b", "1"]

    def test_write_clears_the_cached_digest(self):
        tape = Tape("b", ("1", "0"), head=1)
        tapes = dict.fromkeys(TAPE_ORDER, tape)
        tape.write("0")
        first = digest_tapes(tapes)[0]
        assert first == tape_digest(tape.cells)
        tape.move("R")
        tape.write("1")
        second = digest_tapes(tapes)[0]
        assert second != first
        assert second == tape_digest(tape.cells)

    def test_word_stops_at_first_empty(self):
        tape = Tape("b", ("1", "0", "b", "1"), head=1)
        assert tape.word() == ("1", "0")

    def test_equality_up_to_terminator_ignores_stale_tail(self):
        a = Tape("b", ("1", "0", "b", "1"))
        b = Tape("b", ("1", "0", "b", "0", "0"))
        assert tapes_equal_to_terminator(a, b, "b")
        c = Tape("b", ("1", "1"))
        assert not tapes_equal_to_terminator(a, c, "b")


symbols = st.sampled_from(["b", "0", "1", "x"])
moves = st.sampled_from(["L", "R", "N"])


@given(content=st.lists(symbols, max_size=8), write=symbols, move=moves,
       head=st.integers(min_value=0, max_value=9))
def test_apply_action_frame_property(content, write, move, head):
    """Only the cell under the head may change."""
    start = min(head, len(content) + 1)
    tape = Tape("b", content, head=start)
    reference = Tape("b", content, head=start)
    try:
        tape.apply(write, move)
    except BoundaryViolation:
        assert start == 0 and move == "L"
        return
    for index in range(max(len(reference.cells), len(tape.cells))):
        before = reference.cells[index] if index < len(reference.cells) else "b"
        after = tape.cells[index] if index < len(tape.cells) else "b"
        if index != start:
            assert before == after


@given(actions=st.lists(st.tuples(symbols, moves), max_size=30))
def test_marker_survives_any_action_sequence(actions):
    """Cell 0 keeps "!" under any sequence of in-bounds head-1+ actions."""
    tape = Tape("b", ("1", "1"), head=1)
    for write, move in actions:
        if tape.head == 0:
            tape.apply(MARKER, "R")
        else:
            tape.apply(write, move)
        assert tape.cells[0] == MARKER


rule_strategy = st.builds(
    Rule,
    from_state=st.sampled_from(["q0", "q1"]),
    read=st.sampled_from(["b", "1"]),
    to_state=st.sampled_from(["q0", "q1", "qf"]),
    write=st.sampled_from(["b", "1"]),
    move=moves,
)


@given(delta=st.lists(rule_strategy, max_size=6))
def test_validated_machines_are_deterministic(delta):
    """Validation accepts a rule set iff it has one rule per (state, read)."""
    raw = make_machine(delta, states=("q0", "q1", "qf"),
                       alphabet=Alphabet("b", input=("1",)))
    keys = [r.key() for r in delta]
    has_duplicate = len(set(keys)) != len(keys)
    try:
        machine = validate_machine(raw)
    except ValidationError as err:
        # The strategy only produces legal symbols and states, so duplicates
        # are the one reachable violation.
        assert has_duplicate
        assert any(i.code == "duplicate-rule" for i in err.issues)
        return
    assert not has_duplicate
    for rule in delta:
        assert machine.delta_map[rule.key()] == rule
