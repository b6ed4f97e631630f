"""Benchmark runner for tmfsim.

    python3 bench/run.py --workload passive-long --seed 1 --seconds 20 --trace 0

Runs one workload in this process, through the simulator's public entry
points only: `tmfsim.cli.main` for single runs and sweeps, and
`tmfsim.trace.parse_trace` for reading traces back. Every simulated run is
checked against `run_basic_oracle`.

stdout gets two JSON lines. The first is the full report: every metric by
name and unit, the simulated-statistics fingerprint, the consistency checks
and the environment. The last is the result:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` its metrics
are the end-to-end ones, measured with no wrapper on any step; with
`--trace 1` they are the per-layer ones, from a separate traced run.

Exit status: 0 when every output check passed, 1 when one failed (the result
is still printed), and 2 without a result when the simulator cannot be
imported from `src/`. README.md in this directory lists the metrics and says
why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from calibrate import Speed, combined_slowness
from spans import Patches, Spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")

WORKLOADS = ("passive-long", "sweep", "random-traced")
SETUP_REPS = 15
MIN_CYCLES = 3
WARM_JOBS = 2                        # jobs run once, checked but not timed, before the cycles
CAL_SHARE = 0.25                     # calibration time per unit of measured time
CAL_FIRST_S = 0.05                   # calibration before the first job of a cycle
P_FAULT = 0.05
P_FAILURE = 0.01
EXIT_BY_OUTCOME = {"shutdown": 0, "step-limit": 2, "jammed": 3}


class BenchError(Exception):
    """The benchmark cannot run here: no simulator or corpus to drive."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads. The smoke test passes smaller ones."""

    unary_long: int = 90             # passive-long: ones on the unary tape
    succ_long: int = 48              # passive-long: digits of each seeded succ word
    long_runs: int = 4               # passive-long: runs per machine
    unary_sweep: int = 4             # sweep: ones on the unary tape
    # sweep: 16 of this word's 206 failure-sweep runs jam (see README.md).
    succ_sweep: tuple[str, ...] = ("1", "1", "1")
    unary_random: int = 24           # random-traced: ones on the unary tape
    succ_random: int = 16            # random-traced: digits of each seeded succ word
    random_runs: int = 16            # random-traced: seeded runs per machine


@dataclass(frozen=True)
class Job:
    """One `tmfsim run` invocation."""

    machine: str                     # corpus machine name
    word: tuple[str, ...]
    mode: str                        # passive | fault-sweep | failure-sweep | random
    daemon_seed: int = 0

    def label(self) -> str:
        return f"{self.machine}/{len(self.word)}/{self.mode}/{self.daemon_seed}"


@dataclass
class Prepared:
    """A job with its input files written and its oracle answer computed."""

    job: Job
    meta: str
    argv: list[str]
    trace_path: str | None
    oracle_word: tuple[str, ...] = ()
    oracle_steps: int = 0


@dataclass
class Logged:
    result: object                   # tmfsim RunResult
    k: int | None                    # the scheduled step of a sweep run
    records: int                     # TraceRecords the run built
    micro: int                       # of those, stage micro-steps (traced run only)


@dataclass
class Cycle:
    """One pass over every job of a workload."""

    wall_s: float = 0.0              # host seconds
    parse_s: float = 0.0
    job_wall_s: list[float] = field(default_factory=list)    # per job, rescaled
    job_parse_s: list[float] = field(default_factory=list)   # per job, rescaled
    speeds: list[Speed] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    records_held_max: int = 0
    fingerprint: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def random_bits(rng: random.Random, digits: int) -> tuple[str, ...]:
    return ("1",) + tuple(rng.choice("01") for _ in range(digits - 1))


def make_jobs(workload: str, seed: int, sizes: Sizes) -> list[Job]:
    rng = random.Random(seed)
    if workload == "passive-long":
        jobs = []
        for _ in range(sizes.long_runs):
            jobs.append(Job("unary", ("1",) * sizes.unary_long, "passive"))
            jobs.append(Job("succ", random_bits(rng, sizes.succ_long), "passive"))
        return jobs
    if workload == "sweep":
        # Fixed inputs: a sweep's cost is set by the baseline length, and the
        # succ word keeps the known failure-sweep jams in view.
        unary = ("1",) * sizes.unary_sweep
        return [Job("unary", unary, "fault-sweep"), Job("unary", unary, "failure-sweep"),
                Job("succ", sizes.succ_sweep, "fault-sweep"),
                Job("succ", sizes.succ_sweep, "failure-sweep")]
    assert workload == "random-traced"
    jobs = []
    for _ in range(sizes.random_runs):
        jobs.append(Job("unary", ("1",) * sizes.unary_random, "random", rng.randrange(2**31)))
        jobs.append(Job("succ", random_bits(rng, sizes.succ_random), "random",
                        rng.randrange(2**31)))
    return jobs


def write_inputs(jobs: list[Job], workdir: str) -> list[Prepared]:
    """One metafile and word file per job, pointing at the corpus rules."""
    corpus = os.path.relpath(CORPUS, workdir)
    prepared = []
    for i, job in enumerate(jobs):
        with open(os.path.join(workdir, f"{i}.word"), "w", encoding="utf-8") as handle:
            handle.write(" ".join(job.word) + "\n")
        base = f"{corpus}/{job.machine}"
        meta = os.path.join(workdir, f"{i}.meta")
        with open(meta, "w", encoding="utf-8") as handle:
            handle.write(f"{base}.desc 1 {base}.states {base}.alpha {base}.rules {i}.word\n")
        argv = ["run", "-m", meta]
        trace_path = None
        if job.mode == "fault-sweep":
            argv.append("--sweep-fault-step")
        elif job.mode == "failure-sweep":
            argv.append("--sweep-failure-step")
        elif job.mode == "random":
            trace_path = os.path.join(workdir, f"{i}.trace")
            argv += ["--daemon", "random", "--p-fault", str(P_FAULT),
                     "--p-failure", str(P_FAILURE), "--seed", str(job.daemon_seed),
                     "--trace", "full", "--digests", "--trace-out", trace_path]
        prepared.append(Prepared(job, meta, argv, trace_path))
    return prepared


def import_tmfsim():
    """Import the simulator from this checkout's `src/` and nowhere else."""
    try:
        cli = importlib.import_module("tmfsim.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import tmfsim from {SRC}: {exc}") from None
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"tmfsim was imported from {cli.__file__}, not from {SRC}")
    return cli


def purge_tmfsim() -> None:
    for name in [n for n in sys.modules if n == "tmfsim" or n.startswith("tmfsim.")]:
        del sys.modules[name]


def time_setup(prepared: list[Prepared], reps: int) -> tuple[list[float], list[float]]:
    """Import, `load_machine` and `compile_machine` for every job, from a
    fresh import each time. Returns the raw and the rescaled time of each
    repetition. The modules of the last repetition stay loaded."""
    raw, rescaled = [], []
    for _ in range(reps):
        purge_tmfsim()
        start = time.perf_counter()
        cli = import_tmfsim()
        try:
            for p in prepared:
                machine, _ = cli.load_machine(p.meta)
                cli.compile_machine(machine)
        except cli.DefinitionError as exc:
            raise BenchError(f"cannot load the corpus: {exc}") from None
        raw.append(time.perf_counter() - start)
        speed = Speed()
        speed.sample(2)
        rescaled.append(raw[-1] / speed.slowness())
    return raw, rescaled


def oracle_step_count(executor, machine, word) -> int:
    """Steps `run_basic_oracle` needs, found from its step budget alone."""
    def halts_within(budget: int) -> bool:
        try:
            executor.run_basic_oracle(machine, word, max_steps=budget)
        except executor.OracleStepLimit:
            return False
        return True

    if halts_within(0):
        return 0
    low, high = 0, 1         # the oracle halts within `high` steps, not within `low`
    while not halts_within(high):
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if halts_within(mid):
            high = mid
        else:
            low = mid
    return high


def attach_oracles(prepared: list[Prepared]) -> None:
    parser = sys.modules["tmfsim.parser"]
    executor = sys.modules["tmfsim.executor"]
    for p in prepared:
        machine, word = parser.load_machine(p.meta)
        if word != p.job.word:
            raise BenchError(f"{p.meta}: loaded word differs from the generated one")
        p.oracle_word = executor.run_basic_oracle(machine, word)
        p.oracle_steps = oracle_step_count(executor, machine, word)


class RunLog:
    """Wraps `tmfsim.cli.run` to keep each run's result, the step its sweep
    schedule targets and how many records it built. Records are not kept."""

    def __init__(self, count_micro: bool):
        self.count_micro = count_micro
        self.runs: list[Logged] = []

    def wrap(self, run):
        def logged_run(cfg, *args, **kwargs):
            result, records = run(cfg, *args, **kwargs)
            schedule = getattr(cfg.policy, "schedule", None)
            micro = (sum(1 for r in records if r.phase == "program" and r.stage != 1)
                     if self.count_micro else 0)
            self.runs.append(Logged(result, next(iter(schedule)) if schedule else None,
                                    len(records), micro))
            return result, records
        return logged_run


def run_cycle(prepared: list[Prepared], log: RunLog) -> Cycle:
    """Run every job once. Only the CLI call and the trace read-back are
    timed. Calibration slices come before the first job and after each one;
    a job's times are rescaled by the mean slowness of the slices on its
    two sides."""
    cli = sys.modules["tmfsim.cli"]
    trace = sys.modules["tmfsim.trace"]
    cycle = Cycle()
    before = Speed()
    before.sample_for(CAL_FIRST_S)
    cycle.speeds.append(before)
    for p in prepared:
        log.runs.clear()
        out = io.StringIO()
        parsed = text = None
        parse_s = 0.0
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(p.argv)
        if p.trace_path:
            with open(p.trace_path, encoding="utf-8") as handle:
                text = handle.read()
            parse_start = time.perf_counter()
            parsed = trace.parse_trace(text)
            parse_s = time.perf_counter() - parse_start
        elapsed = time.perf_counter() - start
        check_job(p, code, out.getvalue(), log.runs, text, parsed, cycle)
        after = Speed()
        after.sample_for(CAL_SHARE * elapsed)
        cycle.speeds.append(after)
        slowness = (before.slowness() + after.slowness()) / 2
        cycle.wall_s += elapsed
        cycle.parse_s += parse_s
        cycle.job_wall_s.append(elapsed / slowness)
        cycle.job_parse_s.append(parse_s / slowness)
        before = after
    return cycle


def check_job(p: Prepared, code: int, stdout: str, runs: list[Logged],
              text: str | None, parsed, cycle: Cycle) -> None:
    """Check one job's outputs and add its counts and fingerprint to the cycle."""
    job = p.job

    def expect(ok: bool, what: str) -> None:
        if not ok:
            cycle.problems.append(f"{job.label()}: {what}")

    def matches_oracle(logged: Logged) -> bool:
        return (logged.result.outcome == "shutdown"
                and logged.result.final_master_word == p.oracle_word)

    if not runs:
        expect(False, f"no run was made (exit {code}): {stdout.strip()[:200]}")
        return
    ok = [matches_oracle(r) for r in runs]
    results = [r.result for r in runs]
    lines = stdout.splitlines()
    if job.mode.endswith("sweep"):
        base, sweep = runs[0], runs[1:]
        expect(ok[0], "baseline run does not shut down with the oracle word")
        expect([r.k for r in sweep] == list(range(base.result.steps_used)),
               "not one sweep run per baseline step")
        sweep_ok = sum(ok[1:])
        choice = "active" if job.mode == "fault-sweep" else "aggressive"
        expect(f"sweep({choice}): {sweep_ok}/{len(sweep)} runs shut down with the baseline word"
               in lines, "sweep summary disagrees with the oracle")
        expect(sum(line.startswith("k=") for line in lines) == len(sweep) - sweep_ok,
               "sweep does not list every run that missed the oracle word")
        outcomes = {r.outcome for r in results[1:]}
        expected_code = (3 if "jammed" in outcomes else 2 if "step-limit" in outcomes
                         else 1 if sweep_ok < len(sweep) else 0)
        expect(code == expected_code, f"exit {code}, expected {expected_code}")
    else:
        expect(len(runs) == 1, f"{len(runs)} runs for a single run")
        result = results[0]
        expect(code == EXIT_BY_OUTCOME[result.outcome], f"exit {code} for {result.outcome}")
        expect(f"outcome: {result.outcome}" in lines, "printed outcome")
        expect(f"word: {' '.join(result.final_master_word)}" in lines, "printed word")
        expect(f"steps: {result.steps_used}" in lines, "printed step count")
        if result.faults_injected == 0 and result.failures_injected == 0:
            expect(ok[0], "fault-free run does not shut down with the oracle word")
        if text is not None:
            check_trace(result, runs[0].records, text, parsed, expect)
            cycle.counts["records_written"] += len(parsed)
            cycle.counts["trace_bytes"] += len(text.encode("utf-8"))
            cycle.counts["traced_jobs"] += 1

    counts = cycle.counts
    counts["jobs"] += 1
    counts["runs"] += len(runs)
    counts["failed"] += len(runs) - sum(ok)
    counts["jammed"] += sum(r.outcome == "jammed" for r in results)
    counts["steps"] += sum(r.steps_used for r in results)
    counts["oracle_steps"] += p.oracle_steps * len(runs)
    counts["records_built"] += sum(r.records for r in runs)
    counts["micro"] += sum(r.micro for r in runs)
    if job.mode == "random":
        counts["digest_records"] += runs[0].records
    for r in runs:
        if r.k is not None:
            counts["sweep_k_sum"] += r.k
            counts["sweep_steps"] += r.result.steps_used
    cycle.records_held_max = max([cycle.records_held_max] + [r.records for r in runs])
    cycle.fingerprint.append({
        "job": job.label(),
        "exit": code,
        "runs": len(runs),
        "ok": sum(ok),
        "steps": sum(r.steps_used for r in results),
        "faults": sum(r.faults_injected for r in results),
        "failures": sum(r.failures_injected for r in results),
        "recoveries": sum(r.recoveries for r in results),
        "checkpoints": sum(r.checkpoints_committed for r in results),
        "trace_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest() if text else None,
    })


def check_trace(result, built: int, text: str, parsed, expect) -> None:
    render = sys.modules["tmfsim.trace"].render_trace
    expect(render(parsed) == text, "trace does not round-trip through parse_trace")
    expect(len(parsed) == built, "trace does not hold every record the run built")
    if not parsed:
        return
    expect(parsed[-1].step == result.steps_used - 1, "last trace step")
    expect(result.outcome != "shutdown" or parsed[-1].after == "shutdown",
           "trace does not end in shutdown")
    expect(sum(r.phase == "failure" for r in parsed) == result.failures_injected,
           "failure records differ from the failure count")
    expect(sum(r.action.startswith("fault:") for r in parsed) == result.faults_injected,
           "fault records differ from the fault count")
    expect(sum(r.action == "commit" for r in parsed) == result.checkpoints_committed,
           "commit records differ from the checkpoint count")
    expect(all(r.digests is not None for r in parsed), "records without digests")


def fingerprint_of(cycle: Cycle) -> dict:
    totals = Counter()
    for entry in cycle.fingerprint:
        for key in ("runs", "ok", "steps", "faults", "failures", "recoveries", "checkpoints"):
            totals[key] += entry[key]
    return {
        "sha256": hashlib.sha256(json.dumps(cycle.fingerprint).encode()).hexdigest(),
        "totals": dict(totals),
        "jobs": cycle.fingerprint,
    }


def check_cycles_agree(cycles: list[Cycle], reference: Cycle) -> list[str]:
    return [f"cycle {i}: simulated statistics differ from the reference cycle"
            for i, c in enumerate(cycles) if c.fingerprint != reference.fingerprint]


@dataclass
class Measured:
    metrics: dict                    # the metrics BENCHMARK.json declares for this mode
    extra_metrics: dict              # reported, but not on every workload or not never-0
    details: dict
    cycles: list[Cycle]              # the warm-up, then full cycles
    problems: list[str]


def run_cycles(prepared, log, seconds: float, min_cycles: int, after_cycle=None) -> list[Cycle]:
    """Run cycles for about `seconds`: stop before one that would end past
    that, once `min_cycles` have run."""
    cycles = []
    start = last = time.perf_counter()
    while True:
        cycles.append(run_cycle(prepared, log))
        if after_cycle is not None:
            after_cycle()
        now = time.perf_counter()
        if len(cycles) >= min_cycles and now + (now - last) > start + seconds:
            return cycles
        last = now


def median_per_job(cycles: list[Cycle], attr: str) -> float:
    """Sum over the jobs of each job's median time across the cycles."""
    columns = zip(*(getattr(c, attr) for c in cycles))
    return sum(statistics.median(column) for column in columns)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(workload: str, prepared: list[Prepared], seconds: float,
                       setup: tuple[list[float], list[float]]) -> Measured:
    cli = sys.modules["tmfsim.cli"]
    log = RunLog(count_micro=False)
    patches = Patches()
    patches.patch(cli, "run", log.wrap)
    try:
        warm = run_cycle(prepared[:WARM_JOBS], log)
        cycles = run_cycles(prepared, log, seconds, MIN_CYCLES)
    finally:
        patches.restore()
    first = cycles[0].counts
    wall = median_per_job(cycles, "job_wall_s")
    setup_raw, setup_rescaled = setup
    headline = {
        "steps_per_s": metric(first["steps"] / wall, "1/s"),
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setup_rescaled), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "overhead_ratio": metric(first["steps"] / first["oracle_steps"], "ratio"),
    }
    every = [warm] + cycles
    extra = {"failed_share": metric(sum(c.counts["failed"] for c in every)
                                    / sum(c.counts["runs"] for c in every), "share")}
    if workload == "random-traced":
        extra["parse_records_per_s"] = metric(
            first["records_written"] / median_per_job(cycles, "job_parse_s"), "1/s")
    samples = {
        "cycles": len(cycles),
        "wall_s": [sum(c.job_wall_s) for c in cycles],
        "raw_wall_s": [c.wall_s for c in cycles],
        "slowness": [combined_slowness(c.speeds) for c in cycles],
        "setup_reps": len(setup_raw),
        "setup_s": setup_rescaled,
        "raw_setup_s": setup_raw,
    }
    return Measured(headline, extra, {"samples": samples}, [warm] + cycles,
                    check_cycles_agree(cycles, cycles[0]))


LAYER_TARGETS = (
    # (module, attribute, span name)
    ("tmfsim.executor", "step", "executor.step"),
    ("tmfsim.executor", "decide", "daemon.decide"),
    ("tmfsim.executor", "stage_step", "stages.stage_step"),
    ("tmfsim.executor", "TraceRecord", "executor.TraceRecord"),
    ("tmfsim.executor", "digest_tapes", "trace.digest_tapes"),
    ("tmfsim.cli", "init_configuration", "executor.init_configuration"),
    ("tmfsim.cli", "load_machine", "parser.load_machine"),
    ("tmfsim.cli", "compile_machine", "stages.compile_machine"),
    ("tmfsim.cli", "render_trace", "trace.render_trace"),
    ("tmfsim.trace", "parse_trace", "trace.parse_trace"),
)
TAPE_METHODS = ("read", "write", "move")   # `apply` calls `write` and `move`


def install_spans(spans: Spans, patches: Patches, log: RunLog) -> None:
    for module, attr, name in LAYER_TARGETS:
        patches.patch(sys.modules[module], attr, lambda fn, name=name: spans.timed(name, fn))
    executor = sys.modules["tmfsim.executor"]
    patches.patch(executor.Configuration, "heads",
                  lambda fn: spans.timed("executor.heads", fn))
    for method in TAPE_METHODS:
        patches.patch(sys.modules["tmfsim.model"].Tape, method,
                      lambda fn, method=method: spans.counted(f"model.tape.{method}", fn))
    # The run span is timed around the plain run; the log sits outside it.
    patches.patch(sys.modules["tmfsim.cli"], "run",
                  lambda fn: log.wrap(spans.timed("executor.run", fn, keep_durations=True)))


def span_counts(spans: Spans) -> dict[str, tuple[int, int]]:
    return {name: (s.calls, s.raised) for name, s in spans.stats.items()}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def measure_layers(prepared: list[Prepared], seconds: float) -> Measured:
    cli = sys.modules["tmfsim.cli"]
    log = RunLog(count_micro=True)
    patches = Patches()
    patches.patch(cli, "run", log.wrap)
    try:
        warm = run_cycle(prepared[:WARM_JOBS], log)
        reference = run_cycle(prepared, log)
    finally:
        patches.restore()

    spans = Spans()
    per_cycle: list[dict[str, tuple[int, int]]] = []
    last: dict[str, tuple[int, int]] = {}

    def snapshot() -> None:
        nonlocal last
        now = span_counts(spans)
        per_cycle.append({name: (calls - last.get(name, (0, 0))[0],
                                 raised - last.get(name, (0, 0))[1])
                          for name, (calls, raised) in now.items()})
        last = now

    install_spans(spans, patches, log)
    try:
        cycles = run_cycles(prepared, log, seconds, 1, after_cycle=snapshot)
    finally:
        patches.restore()
    spans.check_closed()

    n = len(cycles)
    c = cycles[0].counts
    calls = {name: per_cycle[0].get(name, (0, 0))[0] for name in spans.stats}
    raised = {name: per_cycle[0].get(name, (0, 0))[1] for name in spans.stats}
    stat = spans.stat
    steps = c["steps"]
    # Span times are rescaled like the end-to-end ones, by the calibration
    # slices taken across the traced cycles.
    slowness = combined_slowness([speed for cy in cycles for speed in cy.speeds])

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    def self_us(name: str) -> float:
        return share(stat(name).self_s, stat(name).calls) * 1e6 / slowness

    def mean_s(name: str) -> float:
        return share(stat(name).total_s, stat(name).calls) / slowness

    record_self = stat("executor.TraceRecord").self_s + stat("executor.heads").self_s
    run_durations = [d / slowness for d in stat("executor.run").durations or []]
    layers = {
        "daemon.decide.calls": metric(calls["daemon.decide"], "count"),
        "daemon.decide.self_us": metric(self_us("daemon.decide"), "us"),
        "stages.stage_step.calls": metric(calls["stages.stage_step"], "count"),
        "stages.stage_step.self_us": metric(self_us("stages.stage_step"), "us"),
        "stages.micro_share": metric(share(c["micro"], steps), "ratio"),
        "executor.step.calls": metric(calls["executor.step"], "count"),
        "executor.step.self_us": metric(self_us("executor.step"), "us"),
        "executor.step.raised": metric(raised["executor.step"], "count"),
        "executor.record.calls": metric(calls["executor.TraceRecord"], "count"),
        "executor.record.self_us": metric(
            share(record_self, stat("executor.TraceRecord").calls) * 1e6 / slowness, "us"),
        "executor.record.useful_ratio": metric(share(c["records_written"], c["records_built"]),
                                               "ratio"),
        "executor.records_held_max": metric(cycles[0].records_held_max, "count"),
        "executor.run.calls": metric(calls["executor.run"], "count"),
        "executor.run.s_p50": metric(nearest_rank(run_durations, 0.5), "s"),
        "executor.run.s_p99": metric(nearest_rank(run_durations, 0.99), "s"),
        "cli.sweep.prefix_share": metric(share(c["sweep_k_sum"], c["sweep_steps"]), "ratio"),
        "model.tape.reads": metric(share(calls["model.tape.read"], steps), "1/step"),
        "model.tape.writes": metric(share(calls["model.tape.write"], steps), "1/step"),
        "model.tape.moves": metric(share(calls["model.tape.move"], steps), "1/step"),
        "trace.digest_tapes.calls": metric(calls["trace.digest_tapes"], "count"),
        "trace.digest_tapes.self_us": metric(self_us("trace.digest_tapes"), "us"),
        "trace.render.records_per_s": metric(
            share(c["records_written"] * n * slowness, stat("trace.render_trace").self_s), "1/s"),
        "trace.bytes_written": metric(c["trace_bytes"], "B"),
        "trace.parse_trace.self_s": metric(stat("trace.parse_trace").self_s / n / slowness, "s"),
        "parser.load_machine.s": metric(mean_s("parser.load_machine"), "s"),
        "stages.compile_machine.s": metric(mean_s("stages.compile_machine"), "s"),
        "bench.tracing_overhead": metric(
            median_per_job(cycles, "job_wall_s") / sum(reference.job_wall_s), "ratio"),
    }

    consistency = {
        "executor.step.calls == steps + jammed runs":
            calls["executor.step"] == steps + c["jammed"],
        "executor.step raised == jammed runs": raised["executor.step"] == c["jammed"],
        "daemon.decide.calls == executor.step.calls":
            calls["daemon.decide"] == calls["executor.step"],
        "stages.stage_step.calls - raised == stage micro-step records":
            calls["stages.stage_step"] - raised["stages.stage_step"] == c["micro"],
        "executor.record.calls == records built":
            calls["executor.TraceRecord"] == c["records_built"],
        "executor.heads.calls == records built": calls["executor.heads"] == c["records_built"],
        "trace.digest_tapes.calls == records built with --digests":
            calls["trace.digest_tapes"] == c["digest_records"],
        "executor.run.calls == simulated runs": calls["executor.run"] == c["runs"],
        "parser.load_machine.calls == stages.compile_machine.calls == jobs":
            calls["parser.load_machine"] == calls["stages.compile_machine"] == c["jobs"],
        "trace.render_trace.calls == trace.parse_trace.calls == traced jobs":
            calls["trace.render_trace"] == calls["trace.parse_trace"] == c["traced_jobs"],
        "every traced cycle makes the same calls": all(pc == per_cycle[0] for pc in per_cycle),
    }
    problems = [f"consistency: {name}" for name, ok in consistency.items() if not ok]
    problems += check_cycles_agree(cycles, reference)
    details = {
        "consistency": consistency,
        "traced_cycles": n,
        "untraced_cycle_s": sum(reference.job_wall_s),
        "slowness": slowness,
        "span_edges": {f"{parent or '-'} > {child}": count // n
                       for (parent, child), count in sorted(spans.edges.items())},
    }
    return Measured(layers, {}, details, [warm, reference] + cycles, problems)


def cpu_model() -> str:
    """The CPU model from the kernel's cpuinfo (the one read outside the checkout)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """The checkout's HEAD commit, read from `.git` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run one workload; return (report, result) as printed by `main`."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    jobs = make_jobs(workload, seed, sizes)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        prepared = write_inputs(jobs, workdir)
        setup = time_setup(prepared, 1 if traced else SETUP_REPS)
        attach_oracles(prepared)
        if traced:
            measured = measure_layers(prepared, seconds)
        else:
            measured = measure_end_to_end(workload, prepared, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = measured.problems + [p for c in measured.cycles for p in c.problems]
    result = {
        "correct": not problems,
        "attempted": sum(c.counts["runs"] for c in measured.cycles),
        "failed": sum(c.counts["failed"] for c in measured.cycles),
        "metrics": measured.metrics,
    }
    report = {
        "workload": workload,
        "mode": "per-layer" if traced else "end-to-end",
        "environment": environment(seed),
        "metrics": {**measured.metrics, **measured.extra_metrics},
        **measured.details,
        "fingerprint": fingerprint_of(measured.cycles[1]),   # [0] is the warm-up
        "problems": problems[:50],
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
