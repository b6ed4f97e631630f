"""End-to-end acceptance suite.

One test per exit criterion, each enforced at its stated tolerance (exact
equality everywhere; wall-clock budgets asserted where stated). Every test
prints a one-line PASS summary; run with `pytest tests/test_acceptance.py -v`
(add -rA or -s to see the lines).

The fault-injection sweeps run over the corpus machines that carry both
fault rules and checkpoint marks (unary, succ). The palindrome acceptor
deliberately carries no fault rules: it erases cells mid-word, so a single
corrupted cell can hide beyond the comparison terminator; it still takes
part in the fault-free equivalence and invariant checks.
"""

import time
from collections import Counter

from tmfsim.cli import sweep
from tmfsim.stages import STAGE_PROGRAMS, compile_machine
from tmfsim.daemon import RandomPolicy, ScriptPolicy
from tmfsim.executor import init_configuration, oracle_tape, run, run_basic_oracle
from tmfsim.trace import render_trace

from conftest import (
    InvariantMonitor,
    control_graph,
    master_tape,
    renamed_machine,
    stage_patterns,
    stage_walk,
)

ORACLE_MACHINES = ("unary", "succ", "palin")
SWEEP_MACHINES = ("unary", "succ")

WORDS = {
    "unary": [(), ("1",), ("1", "1"), ("1", "1", "1"), ("1",) * 4, ("1",) * 5],
    "succ": [("0",), ("1",), ("1", "0", "1", "1"), ("1", "1", "1"),
             ("1", "0", "0", "1"), ("0", "1", "1")],
    "palin": [(), ("0",), ("0", "1", "0"), ("0", "1"),
              ("1", "0", "0", "1"), ("1", "0", "1", "1")],
}


def checked_run(compiled, word, policy, max_steps=200_000):
    monitor = InvariantMonitor(compiled)
    cfg = init_configuration(compiled, word, policy)
    result, records = run(cfg, max_steps=max_steps, monitor=monitor)
    return result, records, monitor


def fault_free_trace(compiled, word):
    result, records, _ = checked_run(compiled, word, ScriptPolicy({}))
    assert result.outcome == "shutdown"
    return result, records


def test_criterion_1_fault_free_oracle_equivalence(compiled_corpus):
    started = time.monotonic()
    checked = 0
    for name in ORACLE_MACHINES:
        compiled, _ = compiled_corpus[name]
        for word in WORDS[name]:
            expected = run_basic_oracle(compiled.base, word)
            result, _, _ = checked_run(compiled, word, ScriptPolicy({}))
            assert result.outcome == "shutdown", (name, word)
            assert result.final_master_word == expected, (name, word)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"[PASS] criterion 1: {checked} fault-free runs over {len(ORACLE_MACHINES)} "
          f"machines match the reference interpreter exactly ({elapsed:.2f}s)")


def checked_sweep(compiled, word, choice):
    """Sweep `choice` over the fault-free run of `word` and return the
    baseline. `InvariantMonitor` watches every run, the baseline's too; each
    run must shut down on the oracle's tape, and recover if its event struck.
    (Both sweep machines write a visibly different symbol on a fault, and
    never rewrite that cell before the next comparison, so every injected
    fault must trigger recovery.)"""
    expected = oracle_tape(compiled.base, word)
    baseline, runs = sweep(compiled, word, choice, max_steps=200_000,
                           monitor=InvariantMonitor(compiled))
    assert baseline.outcome == "shutdown"
    for k, result, _, cfg in runs:
        assert result.outcome == "shutdown", k
        assert master_tape(cfg) == expected, k
        if result.faults_injected or result.failures_injected:
            assert result.recoveries >= 1, k
    return baseline


def test_criterion_2_single_fault_sweep(compiled_corpus):
    started = time.monotonic()
    total = 0
    for name in SWEEP_MACHINES:
        compiled, word = compiled_corpus[name]
        assert compiled.base.gamma and any(r.checkpoint for r in compiled.base.delta)
        baseline = checked_sweep(compiled, word, "active")
        assert baseline.steps_used <= 500
        total += baseline.steps_used
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"[PASS] criterion 2: {total} single-fault runs all shut down with the "
          f"oracle tape ({elapsed:.2f}s)")


def test_criterion_3_single_failure_sweep(compiled_corpus):
    started = time.monotonic()
    total = 0
    for name in SWEEP_MACHINES:
        compiled, word = compiled_corpus[name]
        total += checked_sweep(compiled, word, "aggressive").steps_used
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"[PASS] criterion 3: {total} single-failure runs under default masking all "
          f"shut down with the oracle tape ({elapsed:.2f}s)")


def test_criterion_4_replay_determinism(compiled_corpus):
    started = time.monotonic()
    compiled, word = compiled_corpus["succ"]
    texts = []
    for _ in range(2):
        cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, seed=42))
        _, records = run(cfg, max_steps=200_000, with_digests=True)
        texts.append(render_trace(records))
    assert texts[0] == texts[1]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"[PASS] criterion 4: two seeded random runs produced byte-identical "
          f"{len(texts[0].splitlines())}-record traces ({elapsed:.2f}s)")


def test_criterion_5_checkpoint_invariants(compiled_corpus):
    # The invariants are asserted inside InvariantMonitor on every run of
    # criteria 1-3; this test establishes that the monitored events actually
    # fire, over a representative slice: passive runs for every machine plus
    # one fault and one failure run.
    observed = Counter()
    for name in ORACLE_MACHINES:
        compiled, word = compiled_corpus[name]
        result, _, monitor = checked_run(compiled, word, ScriptPolicy({}))
        assert result.outcome == "shutdown"
        assert monitor.counts["stage2-entry"] == monitor.counts["stage2-marked"]
        assert monitor.counts["commit"] == result.checkpoints_committed > 0
        assert monitor.counts["verified-4"] == monitor.counts["commit"]
        observed += monitor.counts
    compiled, word = compiled_corpus["unary"]
    _, base_records = fault_free_trace(compiled, word)
    first_user = next(r.step for r in base_records if r.stage == 1)
    for choice in ("active", "aggressive"):
        result, _, monitor = checked_run(compiled, word, ScriptPolicy({first_user: choice}))
        assert result.outcome == "shutdown"
        assert monitor.counts["verified-6"] >= 1, "recovery path never verified"
        observed += monitor.counts
    assert set(observed) == {"stage2-entry", "stage2-marked", "commit",
                             "verified-4", "verified-6"}
    print(f"[PASS] criterion 5: checkpoint invariants held at every event "
          f"({dict(observed)})")


def test_criterion_6_stage_machinery_is_machine_independent(compiled_corpus):
    """Every corpus machine and a copy of it with every state and symbol
    renamed, its empty symbol too, resolve each stage control to the op and
    the exits `unary` does, and walk each stage from its entry over the same
    tape patterns as `unary` does."""
    reference, _ = compiled_corpus["unary"]
    graph = control_graph(reference, reference.base.initial)
    cases = [(stage, pattern) for stage in STAGE_PROGRAMS
             for pattern in stage_patterns(30, seed=stage)]
    walks = [stage_walk(reference, reference.base.initial, *case) for case in cases]
    machines = [compiled for compiled, _ in compiled_corpus.values()]
    machines += [compile_machine(renamed_machine(compiled.base)) for compiled in machines]
    assert len({compiled.base.alphabet.empty for compiled in machines}) == 2
    for compiled in machines:
        resume = compiled.base.initial
        assert control_graph(compiled, resume) == graph   # ops compare by identity
        assert [stage_walk(compiled, resume, *case) for case in cases] == walks
    print(f"[PASS] criterion 6: stage controls and walks identical across "
          f"{len(machines)} machines")


def test_criterion_7a_undetectable_fault_slips_past_the_check(compiled_corpus):
    compiled, word = compiled_corpus["diverge"]
    expected = run_basic_oracle(compiled.base, word)
    baseline, base_records = fault_free_trace(compiled, word)
    assert baseline.final_master_word == expected
    fault_at = next(r.step for r in base_records if r.stage == 1)

    cfg = init_configuration(compiled, word, ScriptPolicy({fault_at: "active"}))
    result, records = run(cfg, max_steps=3_000)

    fault_steps = [r.step for r in records if r.action.startswith("fault:")]
    assert fault_steps == [fault_at]
    # The corrupted branch reaches its checkpoint and the computation check
    # passes: the tape is intact, only the control state diverged.
    check = next(r for r in records
                 if r.step > fault_at and "compare(master,user" in r.action
                 and r.after != r.before)
    assert check.after.startswith("stage:3"), "the check failed to pass the corrupt state"
    poisoned = [r.step for r in records if r.action == "commit" and r.step > fault_at]
    assert poisoned, "no checkpoint committed after the fault"
    # From the poisoned checkpoint on, recovery can only restore the poisoned
    # state: the run live-locks instead of shutting down.
    assert result.outcome == "step-limit"
    assert result.recoveries >= 5
    print(f"[PASS] criterion 7a: state-diverging fault at step {fault_at} passed the "
          f"computation check, committed a poisoned checkpoint at step {poisoned[0]}, "
          f"and the run live-locked ({result.recoveries} recovery attempts)")


def test_criterion_7b_unmasked_failure_during_backup_livelocks(compiled_corpus):
    compiled, word = compiled_corpus["unary"]
    expected = run_basic_oracle(compiled.base, word)
    _, base_records = fault_free_trace(compiled, word)
    copy_steps = [r.step for r in base_records if "copy(master->backup" in r.action]
    runs = [[copy_steps[0]]]
    for s in copy_steps[1:]:
        if s == runs[-1][-1] + 1:
            runs[-1].append(s)
        else:
            runs.append([s])
    # Interrupt the terminator write of the last backup copy: the new cell is
    # already in the backup, so the torn backup looks complete but belongs to
    # no committed state.
    tear_at = runs[-1][-1]
    script = ScriptPolicy({tear_at: "aggressive"})

    cfg = init_configuration(compiled, word, script, allow_failure_in_critical=True)
    torn, _ = run(cfg, max_steps=20_000)
    assert torn.outcome == "step-limit"
    assert torn.recoveries >= 5

    # The same schedule under default masking is harmless.
    cfg = init_configuration(compiled, word, ScriptPolicy({tear_at: "aggressive"}))
    masked, _ = run(cfg, max_steps=20_000)
    assert masked.outcome == "shutdown"
    assert masked.final_master_word == expected
    print(f"[PASS] criterion 7b: failure at backup-copy step {tear_at} with masking "
          f"disabled live-locked ({torn.recoveries} recovery attempts); the default "
          f"masking neutralizes the same schedule")
