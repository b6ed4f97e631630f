import sys

import pytest
from hypothesis import given, settings, strategies as st

from tmfsim.cli import sweep
from tmfsim.daemon import RandomPolicy, ScriptPolicy
from tmfsim.executor import (
    AlreadyShutDown,
    OracleStepLimit,
    RunResult,
    Snapshot,
    UndefinedRule,
    init_configuration,
    run,
    run_basic_oracle,
    step,
)
from tmfsim.model import (
    Alphabet,
    BasicMachine,
    JamError,
    PLUS,
    Rule,
    ShutdownControl,
    StageControl,
    UserControl,
    validate_machine,
)
from tmfsim.stages import BACKUP, BACKUP_SYNCHRO, MASTER, SYNCHRO, USER, compile_machine
from tmfsim.trace import render_trace, summarize

from conftest import MACHINE_NAMES, step_events, tapes_equal_to_terminator


def step_until(cfg, predicate, limit=50_000):
    records = []
    while not predicate(cfg):
        records.extend(step(cfg))
        assert cfg.step_index < limit, "predicate never satisfied"
    return records


def in_user_control(cfg):
    return isinstance(cfg.control, UserControl)


def first_user_step(compiled, word):
    """Step index of the first computation step in a fault-free run."""
    cfg = init_configuration(compiled, word, ScriptPolicy({}))
    step_until(cfg, in_user_control)
    return cfg.step_index


def first_user_step_after_commit(compiled, word):
    """Step index of the first computation step after the first commit, read
    from the trace of a fault-free run."""
    _, records = run(init_configuration(compiled, word))
    commit = next(r.step for r in records if r.action == "commit")
    return next(r.step for r in records if r.step > commit and r.before.startswith("user:"))


def early_halting_unary():
    """`unary` with a fault that halts at once, writing the symbol it read:
    the tapes still agree, but the reference has not halted yet."""
    return compile_machine(validate_machine(BasicMachine(
        states=("q0", "qf"), initial="q0", halting="qf",
        alphabet=Alphabet("b", input=("1",)),
        delta=(Rule("q0", "1", "q0", "1", "R", checkpoint=True),
               Rule("q0", "b", "qf", "1", "N", checkpoint=True)),
        gamma=(Rule("q0", "1", "qf", "1", "N"),))))


class TestInit:
    def test_word_laid_out_on_master_and_user(self, unary):
        compiled, _ = unary
        cfg = init_configuration(compiled, ("1", "1"))
        assert cfg.tapes[MASTER].cells == ["!", "1", "1"]
        assert cfg.tapes[MASTER].head == 1
        assert cfg.tapes[USER].cells == ["!", "1", "1"]
        assert cfg.tapes[USER].head == 1

    def test_empty_word(self, unary):
        compiled, _ = unary
        cfg = init_configuration(compiled, ())
        assert cfg.tapes[MASTER].cells == ["!"]
        assert cfg.tapes[MASTER].read() == "b"

    def test_recovery_target_valid_from_step_zero(self, unary):
        compiled, _ = unary
        cfg = init_configuration(compiled, ("1", "1"))
        assert cfg.committed.resume == "q0"
        assert cfg.tapes[BACKUP].word() == ("1", "1")
        assert cfg.tapes[SYNCHRO].cells.count(PLUS) == 1
        assert cfg.tapes[BACKUP_SYNCHRO].cells.count(PLUS) == 1
        assert isinstance(cfg.control, StageControl) and cfg.control.stage == 3

    def test_word_must_use_input_alphabet(self, unary):
        compiled, _ = unary
        with pytest.raises(ValueError, match="not in the input alphabet"):
            init_configuration(compiled, ("1", "0"))  # 0 is internal for unary

    def test_initial_backup_pass_verifies_and_commits(self, unary):
        compiled, _ = unary
        cfg = init_configuration(compiled, ("1", "1"))
        step_until(cfg, in_user_control)
        assert cfg.control == UserControl("q0")
        assert cfg.checkpoints_committed == 1
        assert cfg.tapes[BACKUP].word() == cfg.tapes[MASTER].word() == ("1", "1")
        assert cfg.tapes[MASTER].head == 1
        assert cfg.tapes[SYNCHRO].read() == PLUS


class TestStep:
    def test_passive_computation_step_stays_in_lockstep(self, unary):
        compiled, _ = unary
        cfg = init_configuration(compiled, ("1", "1"))
        step_until(cfg, in_user_control)
        recs = step(cfg)
        assert cfg.tapes[MASTER].head == 2
        assert cfg.ideal_head == 2 and cfg.ideal_state == "q0"
        assert cfg.tapes[MASTER].word() == cfg.tapes[USER].word()
        # (q0, 1) is checkpoint-marked, so the step also opens the check
        assert recs[0].action == "checkpoint-enter"
        assert cfg.control == StageControl(2, 0, "q0")

    def test_fault_diverges_master_but_not_user(self, unary):
        compiled, word = unary
        k = first_user_step(compiled, word)
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "active"}))
        step_until(cfg, lambda c: c.step_index == k + 1)
        assert cfg.faults_injected == 1
        assert cfg.tapes[MASTER].cells[1] == "0"  # corrupted
        assert cfg.tapes[USER].cells[1] == "1"    # reference untouched
        assert cfg.ideal_head == 2                # reference advanced normally

    def test_active_without_matching_fault_rule_acts_normally(self, succ):
        compiled, _ = succ
        # (q0, 0) has no fault rule; the walk starts on a 0
        word = ("0", "1")
        k = first_user_step(compiled, word)
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "active"}))
        records = step_until(cfg, lambda c: c.step_index == k + 1)
        last = records[-1]
        assert last.daemon == "active" and last.action == "normal"
        assert cfg.faults_injected == 0
        assert cfg.tapes[MASTER].cells[1] == "0"

    def test_failure_collapses_failure_and_repair_into_one_step(self, unary):
        compiled, word = unary
        k = first_user_step(compiled, word)
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "aggressive"}))
        step_until(cfg, lambda c: c.step_index == k)
        recs = step(cfg)
        assert [r.phase for r in recs] == ["failure", "repair", "repair"]
        assert [r.action for r in recs] == ["failure", "stabilize", "restore"]
        assert len({r.step for r in recs}) == 1
        assert cfg.control == StageControl(5, 0, "q0")
        assert cfg.failures_injected == 1 and cfg.recoveries == 1

    def test_detected_fault_enters_recovery_at_the_committed_state(self, unary):
        compiled, word = unary
        # Zero the last 1: the next rule, q0 b -> qf *, opens a check that
        # would resume qf, while the last commit resumes q0. The check fails.
        _, records = run(init_configuration(compiled, word, ScriptPolicy({})))
        k = [r.step for r in records if r.before == "user:q0"][-2]
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "active"}))
        records = step_until(cfg, lambda c: isinstance(c.control, StageControl)
                             and c.control.stage == 5)
        entry = records[-1]
        assert entry.before.startswith("stage:2/") and entry.before.endswith("/qf")
        assert cfg.committed.resume == "q0"
        assert cfg.control == StageControl(5, 0, cfg.committed.resume)
        assert entry.after == f"stage:5/0/{cfg.committed.resume}"
        assert cfg.faults_injected == 1 and cfg.recoveries == 1

    def test_masked_failure_is_recorded_and_neutralized(self, unary):
        compiled, word = unary
        # step 0 sits inside the opening backup pass: critical section
        cfg = init_configuration(compiled, word, ScriptPolicy({0: "aggressive"}))
        recs = step(cfg)
        assert recs[0].masked
        assert recs[0].daemon == "passive"
        assert cfg.failures_injected == 0

    def test_halting_state_opens_summary_check(self, unary):
        compiled, word = unary
        cfg = init_configuration(compiled, word, ScriptPolicy({}))
        step_until(cfg, lambda c: in_user_control(c) and c.control.state == "qf")
        recs = step(cfg)
        assert cfg.control.stage == 7
        assert recs[0].action == "normal"


class TestRun:
    def test_unary_passive_run_matches_oracle(self, unary):
        compiled, word = unary
        oracle = run_basic_oracle(compiled.base, word)
        result, records = run(init_configuration(compiled, word, ScriptPolicy({})))
        assert result.outcome == "shutdown"
        assert result.final_master_word == oracle == ("1", "1", "1")
        assert result.faults_injected == result.failures_injected == result.recoveries == 0
        assert result.checkpoints_committed == 4  # opening pass + 2 walk cells + append
        assert records[-1].after == "shutdown"

    def test_passive_unary_takes_the_closed_form_step_count(self, unary):
        """Passive `unary` on n ones takes `9n² + 43n + 52` steps, the
        closed form of ROADMAP item 2's cost model."""
        compiled, _ = unary
        for n in range(41):
            result, _ = run(init_configuration(compiled, ("1",) * n, ScriptPolicy({})))
            assert result.outcome == "shutdown"
            assert (n, result.steps_used) == (n, 9 * n * n + 43 * n + 52)

    def test_failure_after_a_cell_zero_read_recovers(self, succ):
        """A user rule that reads cell 0 (`succ`'s carry) keeps the synchro
        tape's marker, so a later recovery rewind stops there."""
        compiled, _ = succ
        cfg = init_configuration(compiled, ("1", "1", "1"), ScriptPolicy({190: "aggressive"}))
        result, _ = run(cfg)
        assert result.outcome == "shutdown", result.jam_reason
        assert result.final_master_word == ("1", "0", "0", "0")

    def test_step_limit(self, unary):
        compiled, word = unary
        result, _ = run(init_configuration(compiled, word), max_steps=1)
        assert result.outcome == "step-limit"
        assert result.steps_used == 1

    def test_undefined_rule_jams(self):
        machine = validate_machine(BasicMachine(
            states=("q0", "q1", "qf"), initial="q0", halting="qf",
            alphabet=Alphabet("b", input=("1",)),
            delta=(Rule("q0", "1", "q1", "1", "R"),)))
        cfg = init_configuration(compile_machine(machine), ("1", "1"))
        result, _ = run(cfg)
        assert result.outcome == "jammed"
        assert "UndefinedRule" in result.jam_reason

    def test_corrupted_position_tapes_jam_with_plus_not_found(self, unary):
        compiled, word = unary
        cfg = init_configuration(compiled, word, ScriptPolicy({}))
        step_until(cfg, lambda c: isinstance(c.control, StageControl)
                   and (c.control.stage, c.control.micro_pc) == (4, 5))
        for name in (SYNCHRO, BACKUP_SYNCHRO):
            tape = cfg.tapes[name]
            tape.cells = [sym if sym != PLUS else "b" for sym in tape.cells]
        result, _ = run(cfg)
        assert result.outcome == "jammed"
        assert "PlusNotFound" in result.jam_reason

    def test_single_fault_recovers_to_oracle_word(self, unary):
        compiled, word = unary
        oracle = run_basic_oracle(compiled.base, word)
        k = first_user_step(compiled, word)
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "active"}))
        result, _ = run(cfg)
        assert result.outcome == "shutdown"
        assert result.final_master_word == oracle
        assert result.recoveries >= 1

    def test_summary_check_waits_for_the_reference(self):
        compiled = early_halting_unary()
        word = ("1", "1")
        k = first_user_step_after_commit(compiled, word)
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "active"}))
        result, records = run(cfg)
        assert result.faults_injected == 1
        assert result.outcome == "shutdown"
        assert result.final_master_word == run_basic_oracle(compiled.base, word) == ("1", "1", "1")
        recovered = [r for r in records if r.action == "summary-recover"]
        assert len(recovered) == 1
        assert recovered[0].stage == 7
        assert recovered[0].after == "stage:5/0/q0"
        assert recovered[0] in summarize(records)

    def test_no_single_fault_shuts_down_with_a_wrong_word(self):
        compiled = early_halting_unary()
        word = ("1", "1")
        oracle = run_basic_oracle(compiled.base, word)
        _, runs = sweep(compiled, word, "active", max_steps=5_000)
        assert [(k, result.final_master_word) for k, result, *_ in runs
                if result.outcome == "shutdown" and result.final_master_word != oracle] == []

    def test_a_poisoned_halting_checkpoint_live_locks_through_the_summary_check(self):
        """README "Undetectable faults": "If a checkpoint in the halting state
        was already committed, recovery restores it, and the run live-locks
        through the summary check instead." The fault erases cell 1 and keeps
        the state; `q0 b -> qf 1 N *` then rewrites the cell, so the
        computation check passes and commits `qf` while the reference is at
        `q0`."""
        compiled = compile_machine(validate_machine(BasicMachine(
            states=("q0", "qf"), initial="q0", halting="qf",
            alphabet=Alphabet("b", input=("1",)),
            delta=(Rule("q0", "1", "q0", "1", "R", checkpoint=True),
                   Rule("q0", "b", "qf", "1", "N", checkpoint=True)),
            gamma=(Rule("q0", "1", "q0", "b", "N"),))))
        k = first_user_step_after_commit(compiled, ("1", "1"))
        cfg = init_configuration(compiled, ("1", "1"), ScriptPolicy({k: "active"}))
        result, records = run(cfg, max_steps=3_480)
        assert result.faults_injected == 1
        assert result.outcome == "step-limit"
        assert result.final_master_word == ("1", "1")
        assert all(r.after != "shutdown" for r in records)
        assert result.recoveries == 95
        assert sum(r.action == "summary-recover" for r in records) == 95

    def test_recovery_restores_consistency(self, unary):
        compiled, word = unary
        k = first_user_step(compiled, word) + 1
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "aggressive"}))
        empty = compiled.base.alphabet.empty
        seen = []

        def monitor(records, c):
            if "verified-6" in step_events(records):
                master, backup = c.tapes[MASTER], c.tapes[BACKUP]
                synchro, backup_synchro = c.tapes[SYNCHRO], c.tapes[BACKUP_SYNCHRO]
                assert tapes_equal_to_terminator(master, backup, empty)
                assert tapes_equal_to_terminator(synchro, backup_synchro, PLUS)
                assert synchro.read() == PLUS
                assert master.head == synchro.head
                seen.append(records)

        result, _ = run(cfg, monitor=monitor)
        assert result.outcome == "shutdown"
        assert seen, "the failure never exercised a verified recovery"

    def test_mark_discipline_every_checkpoint(self, succ):
        compiled, word = succ
        counts = {"stage2-entry": 0, "stage2-marked": 0}

        def monitor(records, c):
            for event in step_events(records):
                if event == "stage2-entry":
                    assert c.tapes[SYNCHRO].cells.count(PLUS) == 0
                    counts[event] += 1
                elif event == "stage2-marked":
                    assert c.tapes[SYNCHRO].cells.count(PLUS) == 1
                    counts[event] += 1

        result, _ = run(init_configuration(compiled, word, ScriptPolicy({})), monitor=monitor)
        assert result.outcome == "shutdown"
        assert counts["stage2-entry"] == counts["stage2-marked"] == 3

    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_monitor_sees_each_step_once_with_its_records(self, compiled_corpus, name):
        """run(monitor=f) calls f(records, cfg) once per completed step; the
        record lists it passes, concatenated, are the records run returns."""
        compiled, word = compiled_corpus[name]
        runs = [(ScriptPolicy({}), 200_000)]
        runs += [(RandomPolicy(0.05, 0.01, seed), 2_000) for seed in range(5)]
        for policy, max_steps in runs:
            calls = []
            cfg = init_configuration(compiled, word, policy)
            result, records = run(cfg, max_steps=max_steps,
                                  monitor=lambda recs, c: calls.append(recs))
            assert [r for recs in calls for r in recs] == records
            assert len(calls) == result.steps_used

    def test_master_and_position_heads_stay_synchronized(self, succ):
        compiled, word = succ
        cfg = init_configuration(compiled, word,
                                 ScriptPolicy({30: "aggressive", 60: "active"}))
        while not isinstance(cfg.control, ShutdownControl):
            step(cfg)
            if isinstance(cfg.control, UserControl):
                assert cfg.tapes[MASTER].head == cfg.tapes[SYNCHRO].head
            assert cfg.step_index < 50_000

    def test_replay_determinism_smoke(self, succ):
        compiled, word = succ
        texts = []
        for _ in range(2):
            cfg = init_configuration(compiled, word, RandomPolicy(0.1, 0.02, seed=7))
            _, records = run(cfg, max_steps=50_000, with_digests=True)
            texts.append(render_trace(records))
        assert texts[0] == texts[1]


class TestOracle:
    def test_unary_appender(self, unary):
        compiled, _ = unary
        assert run_basic_oracle(compiled.base, ("1", "1")) == ("1", "1", "1")

    def test_binary_successor(self, succ):
        compiled, _ = succ
        # 1011 + 1 = 1100
        assert run_basic_oracle(compiled.base, ("1", "0", "1", "1")) == ("1", "1", "0", "0")
        # overflow: 111 + 1 = 1000
        assert run_basic_oracle(compiled.base, ("1", "1", "1")) == ("1", "0", "0", "0")

    def test_degenerate_machine_halts_immediately(self):
        machine = validate_machine(BasicMachine(
            states=("q0",), initial="q0", halting="q0",
            alphabet=Alphabet("b", input=("1",)), delta=()))
        assert run_basic_oracle(machine, ("1", "1")) == ("1", "1")
        # the full machine verifies the untouched word and shuts down
        result, _ = run(init_configuration(compile_machine(machine), ("1", "1")))
        assert result.outcome == "shutdown"
        assert result.final_master_word == ("1", "1")
        assert result.checkpoints_committed == 1

    def test_oracle_step_limit(self):
        machine = validate_machine(BasicMachine(
            states=("q0", "qf"), initial="q0", halting="qf",
            alphabet=Alphabet("b", input=("1",)),
            delta=(Rule("q0", "1", "q0", "1", "N"),)))
        with pytest.raises(OracleStepLimit):
            run_basic_oracle(machine, ("1",), max_steps=10)

    def test_oracle_jams_on_undefined_rule(self):
        machine = validate_machine(BasicMachine(
            states=("q0", "qf"), initial="q0", halting="qf",
            alphabet=Alphabet("b", input=("1",)), delta=()))
        with pytest.raises(UndefinedRule):
            run_basic_oracle(machine, ("1",))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_random_words_match_the_oracle(compiled_corpus, data):
    """Fault-free equivalence holds on arbitrary words, not just fixtures."""
    specs = {"unary": (("1",), 0), "succ": (("0", "1"), 1), "palin": (("0", "1"), 0)}
    for name, (alphabet, min_size) in specs.items():
        compiled, _ = compiled_corpus[name]
        word = tuple(data.draw(
            st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=5),
            label=name))
        expected = run_basic_oracle(compiled.base, word)
        result, _ = run(init_configuration(compiled, word), max_steps=100_000)
        assert result.outcome == "shutdown", (name, word)
        assert result.final_master_word == expected, (name, word)


def test_run_result_is_a_read_only_record():
    """The golden digest hashes `repr(RunResult)`: its text is the
    `Name(field=value, ...)` form with the fields in this order."""
    result = RunResult("jammed", ("1", "1"), 52, 0, 1, 1, 3, "UndefinedRule: no rule")
    assert RunResult._fields == (
        "outcome", "final_master_word", "steps_used", "faults_injected", "failures_injected",
        "recoveries", "checkpoints_committed", "jam_reason")
    assert repr(result) == (
        "RunResult(outcome='jammed', final_master_word=('1', '1'), steps_used=52, "
        "faults_injected=0, failures_injected=1, recoveries=1, checkpoints_committed=3, "
        "jam_reason='UndefinedRule: no rule')")
    assert RunResult("shutdown", (), 1, 0, 0, 0, 0).jam_reason is None
    with pytest.raises(AttributeError):
        result.steps_used = 0


def test_snapshot_is_a_read_only_record():
    snapshot = Snapshot(resume="q0", ideal_steps=0)
    assert Snapshot._fields == ("resume", "ideal_steps")
    with pytest.raises(AttributeError):
        snapshot.ideal_steps = 1


class TestStepPath:
    def test_stepping_a_shut_down_run_raises_before_the_daemon_draws(self, unary):
        """The check is not an `assert`, so it holds under `python -O` too."""
        compiled, word = unary
        cfg = init_configuration(compiled, word, RandomPolicy(0.0, 0.0, seed=1))
        result, _ = run(cfg)
        assert result.outcome == "shutdown"
        state, index = cfg.policy._rng.getstate(), cfg.step_index
        with pytest.raises(AlreadyShutDown):
            step(cfg)
        assert not issubclass(AlreadyShutDown, JamError)
        assert cfg.policy._rng.getstate() == state and cfg.step_index == index
        assert run(cfg)[0] == result

    def test_python_calls_per_step(self, corpus):
        """Python-level calls per simulated step of a passive `unary` run on
        six ones, first filling a fresh machine's controls on the way, then
        again on the same machine with its controls built: 10.85 fresh when
        each op returned a named tuple and each control change built a
        control; 7.62 fresh and 7.46 built when each micro-step looked its op
        and its successor up; 7.50 fresh and 7.30 built once each control
        was resolved to its op, its exits and its critical flag; 6.50 fresh
        and 6.30 built since tuple's own constructor builds each record,
        with no Python `__new__` frame. The count does not depend on
        timing."""
        machine, _ = corpus["unary"]
        compiled = compile_machine(machine)
        for bound in (6.60, 6.40):
            cfg = init_configuration(compiled, ("1",) * 6)
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            sys.setprofile(profile)
            try:
                result, _ = run(cfg)
            finally:
                sys.setprofile(None)
            assert result.steps_used == 634
            assert calls / result.steps_used <= bound

    @staticmethod
    def controls_entered(compiled, word):
        """Every control a fault-free run and a run with a fault and a
        failure enter, in order."""
        seen = []
        for schedule in ({}, {40: "active", 90: "aggressive"}):
            cfg = init_configuration(compiled, word, ScriptPolicy(schedule))
            seen.append(cfg.control)
            result, _ = run(cfg, monitor=lambda records, c: seen.append(c.control))
            assert result.outcome == "shutdown"
        return [control for control in seen if not isinstance(control, ShutdownControl)]

    def test_controls_are_built_once_per_compiled_machine(self, corpus):
        machine, word = corpus["succ"]
        compiled = compile_machine(machine)
        mine = self.controls_entered(compiled, word)
        assert {control.stage for control in mine if isinstance(control, StageControl)} \
            == {2, 3, 4, 5, 6, 7}
        for control in mine:
            key = ((control.stage, control.micro_pc, control.resume)
                   if isinstance(control, StageControl) else control.state)
            assert compiled.controls[key] is control
        assert len({id(control) for control in mine}) == len({control.text for control in mine})
        other = compile_machine(machine)
        theirs = self.controls_entered(other, word)
        assert theirs == mine
        assert not {id(control) for control in mine} & {id(control) for control in theirs}
