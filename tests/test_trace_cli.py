import copy
import errno
import gc
import io
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from tmfsim import cli
from tmfsim.cli import main
from tmfsim.daemon import RandomPolicy, ScriptPolicy
from tmfsim.executor import init_configuration, run, step
from tmfsim.model import COUNT_PATTERN, JamError
from tmfsim.stages import STAGE_PROGRAMS, Goto, ShutdownControl
from tmfsim.trace import (
    _BATCH,
    _KEYS,
    TraceRecord,
    _layout_error,
    digest_tapes,
    parse_trace,
    render_trace,
    summarize,
    tape_digest,
)

from conftest import CORPUS, MACHINE_NAMES, corpus_meta, write_definition

GOOD_LINE = ("step=1\tdaemon=passive\tphase=program\tstage=1\tbefore=user:q0"
             "\tafter=user:q0\taction=normal\theads=1,1,0,0,1")

# ROADMAP item 15's tail machine on the word `0`: it writes two cells past
# its only commit, then walks back to cell 1 and right to the first blank.
TAIL_RULES = ("q0 0 -> q1 0 R *\nq1 b -> q2 1 R\nq2 b -> q3 1 R\nq3 b -> q4 b L\n"
              "q4 1 -> q4 1 L\nq4 0 -> q5 0 R\nq5 1 -> q5 1 R\nq5 b -> qf b N\n")
TAIL_STATES = "initial q0\nhalting qf\ninternal q1 q2 q3 q4 q5\n"

# Everything `str.splitlines` breaks a line at.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def field_text(forbidden: str = "") -> st.SearchStrategy[str]:
    """Text without tabs or line breaks, rich in the `=`, `,`, `:` and spaces
    that real actions such as `micro:compare(...,stop=empty,...)` carry."""
    separators = [c for c in "=,: " if c not in forbidden]
    return st.text(st.sampled_from(separators)
                   | st.characters(exclude_characters="\t" + LINE_BREAKS + forbidden))


# The strict record pattern, which checks the heads and the digests on every
# line: the reference for which lines are records.
REFERENCE_TEXT = "[^\t]*"
REFERENCE_COUNT = COUNT_PATTERN.pattern
REFERENCE_MIDDLE = "\t".join(f"{key}=(?:{REFERENCE_COUNT if key == 'stage' else REFERENCE_TEXT})"
                             for key in _KEYS[1:7])
REFERENCE_HEADS = ",".join([f"(?:{REFERENCE_COUNT})"] * 5)
REFERENCE_RECORD = re.compile(f"step=({REFERENCE_COUNT})\t({REFERENCE_MIDDLE})"
                              f"\theads=({REFERENCE_HEADS})(\tmasked=1)?"
                              "(?:\tdigests=([^\t,]*(?:,[^\t,]*){4}))?")

# Ways to spoil one comma-separated part of a heads or digests text.
MUTATIONS = ("drop-comma", "add-comma", "leading-zero", "plus-sign", "minus-sign",
             "non-ascii-digit", "empty-part", "stray-equals")


def spoil(text: str, mutation: str, index: int) -> str:
    """`text`, a list of comma-separated parts, with its part at `index`
    spoiled by `mutation`."""
    parts = text.split(",")
    i = index % len(parts)
    if mutation == "drop-comma":
        i = min(i, len(parts) - 2)
        parts[i:i + 2] = [parts[i] + parts[i + 1]]
    elif mutation == "add-comma":
        parts.insert(i, parts[i])
    elif mutation == "non-ascii-digit":
        parts[i] = "\u0661"
    elif mutation == "empty-part":
        parts[i] = ""
    elif mutation == "stray-equals":
        parts[i] += "="
    else:
        parts[i] = {"leading-zero": "0", "plus-sign": "+", "minus-sign": "-"}[mutation] + parts[i]
    return ",".join(parts)


counts = st.integers(min_value=0)
trace_records = st.builds(TraceRecord, st.tuples(
    counts, field_text(), field_text(), counts, field_text(), field_text(),
    field_text(), st.tuples(*[counts] * 5), st.booleans(),
    st.none() | st.tuples(*[field_text(forbidden=",")] * 5)))


class TestTraceFormat:
    def test_round_trip_single_record(self):
        record = TraceRecord((
            12, "active", "program", 1, "user:q0", "stage:2/0/q1", "fault:q0 1 -> q0 0 R",
            (3, 3, 0, 0, 3), True, ("aa", "bb", "cc", "dd", "ee")))
        assert parse_trace(render_trace([record]))[0] == record

    def test_round_trip_full_run(self, succ):
        compiled, word = succ
        k = 60
        cfg = init_configuration(compiled, word, ScriptPolicy({k: "aggressive"}))
        _, records = run(cfg, with_digests=True)
        text = render_trace(records)
        assert parse_trace(text) == records
        assert render_trace(parse_trace(text)) == text
        assert parse_trace(text.replace("\n", "\r\n")) == records

    @given(records=st.lists(trace_records, max_size=4))
    def test_round_trip_generated_records(self, records):
        text = render_trace(records)
        assert text == "".join(map(reference_line, records))
        assert parse_trace(text) == records

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_trace("step=1\tnonsense\n")
        with pytest.raises(ValueError, match="missing field"):
            parse_trace("step=1\tdaemon=passive\n")
        assert len(parse_trace(GOOD_LINE)) == 1
        for bad, complaint in (
                (GOOD_LINE.replace("step=1", "step=x"), "invalid literal"),
                (GOOD_LINE.replace("heads=1,1,0,0,1", "heads=1,a,0,0,1"), "invalid literal"),
                (GOOD_LINE.replace("heads=1,1,0,0,1", "heads=1,2"), "expected 5 heads"),
                (GOOD_LINE.replace("heads=1,1,0,0,1", "heads=1,1,0,0,1,1"), "expected 5 heads"),
                (GOOD_LINE.replace("stage=1", "stage=x"), "invalid literal"),
                (GOOD_LINE + "\tdigests=aa,bb", "expected 5 digests"),
                (GOOD_LINE.replace("daemon=passive\tphase=program",
                                   "phase=program\tdaemon=passive"), "fields out of order"),
                (GOOD_LINE + "\tcolor=red", "unknown field 'color=red'"),
                (GOOD_LINE + "\tmasked=0", "unknown field 'masked=0'"),
                (GOOD_LINE + "\tdigests=aa,bb,cc,dd,ee\tmasked=1", "fields out of order"),
                (GOOD_LINE.replace("step=1", "step=+1_0"), "non-canonical integer '\\+1_0' in step"),
                (GOOD_LINE.replace("heads=1,1,0,0,1", "heads=01,1,0,0,1"),
                 "non-canonical integer '01' in heads"),
                (GOOD_LINE.replace("stage=1", "stage= 1"), "non-canonical integer ' 1' in stage"),
                (GOOD_LINE.replace("step=1", "step=\u0661"), "non-canonical integer"),
                # Past `int()`'s digit limit (4,300 digits by default).
                (GOOD_LINE.replace("step=1", "step=1" + "0" * 5000),
                 "Exceeds the limit .* in step"),
                (GOOD_LINE.replace("heads=1,1,0,0,1", "heads=1,1,0,0,1" + "0" * 5000),
                 "Exceeds the limit .* in heads")):
            with pytest.raises(ValueError, match=f"^line 2: {complaint}"):
                parse_trace(GOOD_LINE + "\n" + bad + "\n")

    @given(records=st.lists(trace_records, min_size=1, max_size=4),
           field=st.sampled_from(["heads", "digests"]), mutation=st.sampled_from(MUTATIONS),
           line=st.integers(min_value=0), part=st.integers(min_value=0, max_value=5))
    def test_parse_agrees_with_the_reference_on_spoiled_lines(self, records, field, mutation,
                                                             line, part):
        """A generated trace, with one line spoiled in its heads or digests
        field, gives what the reference pattern gives: the same records, or
        the same `line N:` error."""
        lines = render_trace(records).splitlines()
        assert parse_outcome("\n".join(lines)) == reference_parse("\n".join(lines))
        i = line % len(lines)
        chunks = lines[i].split("\t")
        if not chunks[-1].startswith("digests="):
            chunks.append("digests=a,b,c,d,e")
        at = -1 if field == "digests" else _KEYS.index("heads")
        key, _, value = chunks[at].partition("=")
        chunks[at] = f"{key}={spoil(value, mutation, part)}"
        lines[i] = "\t".join(chunks)
        text = "\n".join(lines)
        assert parse_outcome(text) == reference_parse(text)

    def test_parse_agrees_with_the_reference_on_every_kind_of_line(self, succ):
        """`parse_trace` accepts exactly the lines the reference pattern
        matches, builds the same records from them, and names every other
        line with `_layout_error`'s message: on a run's trace, on each
        spoiling of each of its heads and digests parts, and on lines of
        every other layout."""
        compiled, word = succ
        cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, 7))
        _, records = run(cfg, with_digests=True)
        text = render_trace(records)
        assert parse_trace(text) == reference_parse(text) == records
        lines = {GOOD_LINE, GOOD_LINE + "\tmasked=1", GOOD_LINE + "\tdigests=a,b=,c,d,e",
                 GOOD_LINE + "\tmasked=1\tdigests=,,,,", GOOD_LINE.replace("action=normal", "x"),
                 GOOD_LINE + "\t", "step=1", "", " ", "heads=1,1,0,0,1"}
        for line in text.splitlines()[:400:40]:
            chunks = line.split("\t")
            for at, (key, _, value) in enumerate(chunk.partition("=") for chunk in chunks):
                if key not in ("heads", "digests"):
                    continue
                for mutation in MUTATIONS:
                    for part in range(5):
                        spoiled = [*chunks[:at], f"{key}={spoil(value, mutation, part)}",
                                   *chunks[at + 1:]]
                        lines.add("\t".join(spoiled))
        accepted = 0
        for line in sorted(lines):
            outcome = parse_outcome(line)
            assert outcome == reference_parse(line)
            if REFERENCE_RECORD.fullmatch(line):
                accepted += 1
                assert len(outcome) == 1
            elif line.strip():
                assert outcome == f"line 1: {_layout_error(line)}"
        assert 0 < accepted < len(lines)

    @pytest.mark.parametrize("good, bad", [
        ("heads=1,1,0,0,1", "heads=1,01,0,0,1"),
        ("heads=1,1,0,0,1", "heads=1,1,0,0"),
        ("heads=1,1,0,0,1", "heads=1,1,0,0,\u0661"),
        ("heads=1,1,0,0,1", "heads=1,1,0,0,+1"),
        ("heads=1,1,0,0,1", "heads=1,1,0,0,1_0"),
        ("heads=1,1,0,0,1", "heads=1,1,0,0,"),
        ("heads=1,1,0,0,1", "heads=1,1,0,0,1,1"),
        pytest.param("heads=1,1,0,0,1", "heads=1,1,0,0," + "1" * 4301,
                     id="heads-part-past-the-digit-limit"),
        ("digests=a,b,c,d,e", "digests=a,b,c,d"),
        ("digests=a,b,c,d,e", "digests=a,b,c,d,e,f")], ids=ascii)
    def test_parse_names_a_bad_text_after_good_lines_with_its_middle(self, good, bad):
        """Each distinct heads and digests text is checked once, when first
        seen, and each distinct heads part once: a bad one after many good
        lines with the same middle fields, its other parts already read, is
        named by its own line number, as is a bad one seen once before and
        repeated."""
        line = GOOD_LINE if good.startswith("heads=") else GOOD_LINE + "\tdigests=a,b,c,d,e"
        goods = [line.replace("step=1", f"step={n}") for n in range(1, 51)]
        spoiled = goods[0].replace(good, bad)
        assert spoiled != goods[0]
        complaint = f": {_layout_error(spoiled)}"
        for text, number in (("\n".join([*goods, spoiled, *goods]), 51),
                             ("\n".join([*goods[:3], "", spoiled, spoiled]), 5)):
            assert parse_outcome(text) == reference_parse(text) == f"line {number}{complaint}"

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("third, error", [
        (GOOD_LINE, None),
        (GOOD_LINE.replace("heads=1,1,0,0,1", "heads=1,01,0,0,1"),
         "line 3: non-canonical integer '01' in heads")], ids=["good", "bad"])
    def test_parse_leaves_the_collector_as_it_found_it(self, collecting, third, error):
        """`parse_trace` pauses the cyclic collector, so no collection runs
        while it builds records, and on its return and its `ValueError`
        alike turns the collector back on only if it was on. A collection
        the resumed collector runs on the way out is not inside it."""
        lines = [GOOD_LINE.replace("step=1", f"step={n}") for n in range(1, 3001)]
        lines[2] = third.replace("step=1", "step=3")
        text = "\n".join(lines)
        collections = []

        def inside_parse(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "parse_trace":
                frame = frame.f_back
            if phase == "start" and frame is not None:
                collections.append(info["generation"])

        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        gc.collect()
        gc.callbacks.append(inside_parse)
        try:
            if error is None:
                assert len(parse_trace(text)) == len(lines)
            else:
                with pytest.raises(ValueError, match=f"^{error}$"):
                    parse_trace(text)
            assert gc.isenabled() is collecting
        finally:
            gc.callbacks.remove(inside_parse)
            (gc.enable if was else gc.disable)()
        assert collections == []

    @pytest.mark.parametrize("brk", [*LINE_BREAKS, "\r\n"], ids=ascii)
    def test_parse_splits_lines_as_splitlines_does(self, brk):
        """Every `str.splitlines` break ends a line, as a blank line, as a
        record's terminator and inside a field alike: `parse_trace` gives
        the records, or the `line N:` error, of reading each line alone."""
        other = GOOD_LINE.replace("step=1", "step=2")
        split_field = GOOD_LINE.replace("action=normal", f"action=nor{brk}mal")
        for text in (GOOD_LINE + brk + brk + other + brk,
                     GOOD_LINE + brk + other + brk + other,
                     GOOD_LINE + "\n" + split_field + "\n" + other + "\n"):
            assert parse_outcome(text) == parse_each_line(text)

    def test_records_share_digests_while_no_tape_changes(self, succ):
        """In a `--digests` run, a record holds the tuple of the record before
        it exactly when no tape changed between the two."""
        compiled, word = succ
        cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, 7))
        previous = None
        shared = renewed = 0
        while not isinstance(cfg.control, ShutdownControl):
            cells = [list(tape.cells) for tape in cfg.tapes]
            records = step(cfg, with_digests=True)
            digests = records[0].digests
            assert all(record.digests is digests for record in records)
            if previous is not None:
                unchanged = cells == [tape.cells for tape in cfg.tapes]
                assert (digests is previous) == unchanged
                shared += unchanged
                renewed += not unchanged
            previous = digests
        assert shared and renewed

    @pytest.mark.parametrize("p_fault", [None, 0.05, 0.5],
                             ids=["passive", "random", "fault-heavy"])
    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_records_share_control_and_action_strings(self, compiled_corpus, name, p_fault):
        """Records with equal `before` or `after` text hold the same string
        object, and so do the records of one control with equal `action`
        text: each control renders its text once, and each op its action.
        A fault's action is built at its step, so the fault-heavy runs, which
        repeat faults, check the sharing around them."""
        compiled, word = compiled_corpus[name]
        policy = ScriptPolicy({}) if p_fault is None else RandomPolicy(p_fault, 0.01, 7)
        _, records = run(init_configuration(compiled, word, policy), max_steps=5_000)
        first = {}
        first_action = {}
        for record in records:
            for text in (record.before, record.after):
                assert first.setdefault(text, text) is text
            if not record.action.startswith("fault:"):
                action = first_action.setdefault((record.before, record.action), record.action)
                assert action is record.action

    def test_program_actions_are_the_rendered_ops(self):
        """Each op's action is `micro:<op>`, except the closing `goto(stage
        N)` of stages 3 and 5, which repeats the action of the op before it."""
        gotos = {}
        for stage, ops in STAGE_PROGRAMS.items():
            for pc, op in enumerate(ops):
                if op.render().startswith("goto("):
                    assert isinstance(op, Goto)
                    assert pc == len(ops) - 1
                    assert op.action is ops[pc - 1].action
                    gotos[stage] = op.targets[0]
                else:
                    assert op.action == f"micro:{op.render()}"
        assert gotos == {3: 4, 5: 6}

    def test_parsed_records_share_equal_values(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        code, _, _ = run_cli(["run", "-m", corpus_meta("succ"), "--daemon", "random",
                              "--p-fault", "0.05", "--p-failure", "0.01", "--seed", "7",
                              "--trace", "full", "--digests", "--trace-out", str(path)],
                             capsys)
        assert code == 0
        records = parse_trace(path.read_text())
        first_digests = {}
        first_heads = {}
        first_middle = {}
        for record in records:
            digests = first_digests.setdefault(record.digests, record.digests)
            assert record.digests is digests
            assert record.heads is first_heads.setdefault(record.heads, record.heads)
            middle = (record.daemon, record.phase, record.stage, record.before,
                      record.after, record.action)
            for value, first in zip(middle, first_middle.setdefault(middle, middle)):
                assert value is first
        assert len(first_digests) < len(records) / 2
        assert len(first_heads) < len(records)
        assert len(first_middle) < len(records) / 2

    @pytest.mark.parametrize("mode", ["full", "summary"])
    @pytest.mark.parametrize("allow", [False, True], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_parsed_records_behave_as_built_ones(self, compiled_corpus, name, allow, mode):
        """Records that `parse_trace` builds are of the executor's type,
        equal its records, hash and print alike, and copy and pickle as
        they do."""
        compiled, word = compiled_corpus[name]
        for with_digests in (False, True):
            cfg = init_configuration(compiled, word, RandomPolicy(0.1, 0.05, 3), allow)
            _, records = run(cfg, max_steps=5_000, with_digests=with_digests)
            if mode == "summary":
                records = summarize(records)
            parsed = parse_trace(render_trace(records))
            assert parsed == records
            assert [hash(record) for record in parsed] == [hash(record) for record in records]
            assert [repr(record) for record in parsed] == [repr(record) for record in records]
            assert pickle.loads(pickle.dumps(parsed)) == records
            for record in parsed:
                assert type(record) is TraceRecord
                assert record._replace() == record
                assert record._replace(step=record.step + 1).step == record.step + 1
            with pytest.raises(ValueError, match=r"^Got unexpected field names: \['bogus'\]$"):
                parsed[0]._replace(bogus=1)
            with pytest.raises(AttributeError):
                parsed[0].step = 0

    def test_parse_trace_fills_every_field(self):
        """`parse_trace` fills records by position: the fields must come in
        `_KEYS` order. Every record is built by tuple's own constructor, so
        no check can sit in a `__new__` that one builder skips. Every field
        is set."""
        assert TraceRecord._fields == _KEYS
        assert TraceRecord.__new__ is tuple.__new__
        for line, masked, digests in ((GOOD_LINE, False, None),
                                      (GOOD_LINE + "\tmasked=1\tdigests=a,b=,c,d,e", True,
                                       ("a", "b=", "c", "d", "e"))):
            record = parse_trace(line)[0]
            assert type(record) is TraceRecord
            assert TraceRecord(tuple(record)) == record
            assert {field: getattr(record, field) for field in TraceRecord._fields} == {
                "step": 1, "daemon": "passive", "phase": "program", "stage": 1,
                "before": "user:q0", "after": "user:q0", "action": "normal",
                "heads": (1, 1, 0, 0, 1), "masked": masked, "digests": digests}

    def test_every_record_has_ten_fields(self, compiled_corpus):
        """Tuple's constructor, unlike a named tuple's, checks no arity: every
        record a run returns, and every record `parse_trace` reads back from
        its trace, holds exactly the ten fields. The runs return every kind
        of record there is."""
        kinds = set()
        for name in MACHINE_NAMES:
            compiled, word = compiled_corpus[name]
            for seed in range(5):
                for allow in (False, True):
                    cfg = init_configuration(compiled, word, RandomPolicy(0.1, 0.05, seed),
                                             allow)
                    _, records = run(cfg, max_steps=5_000, with_digests=bool(seed % 2))
                    for record in records + parse_trace(render_trace(records)):
                        assert type(record) is TraceRecord
                        assert len(record) == len(_KEYS)
                    kinds.update(map(record_kind, records))
        assert kinds == {"micro", "normal", "checkpoint-enter", "fault", "summary-recover",
                         "failure", "stabilize", "restore"}

    def test_records_pickle_and_copy_unchanged(self):
        records = (TraceRecord((12, "active", "program", 1, "user:q0", "stage:2/0/q1",
                                "fault:q0 1 -> q0 0 R", (3, 3, 0, 0, 3), True,
                                ("aa", "bb", "cc", "dd", "ee"))),
                   parse_trace(GOOD_LINE)[0])
        for record in records:
            copies = [pickle.loads(pickle.dumps(record, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for copied in [*copies, copy.copy(record), copy.deepcopy(record)]:
                assert type(copied) is TraceRecord
                assert copied == record
                assert repr(copied) == repr(record)

    @pytest.mark.parametrize("allow", [False, True], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_cached_digests_match_fresh_digests(self, compiled_corpus, name, allow):
        """The digest cache is refreshed by every write: after each step, and
        in the step's last record, the digests equal a fresh hash of the cells."""
        compiled, word = compiled_corpus[name]
        for seed in range(10):
            cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, seed), allow)
            while not isinstance(cfg.control, ShutdownControl) and cfg.step_index < 2_000:
                try:
                    records = step(cfg, with_digests=True)
                except JamError:
                    break
                fresh = tuple(tape_digest(tape.cells) for tape in cfg.tapes)
                assert records[-1].digests == fresh
                assert digest_tapes(cfg.tapes) == fresh

    def test_summary_keeps_the_notable_records(self, unary):
        compiled, word = unary
        cfg = init_configuration(compiled, word, ScriptPolicy({}))
        _, records = run(cfg)
        summary = summarize(records)
        assert summary
        assert len(summary) < len(records)
        assert any(r.action == "checkpoint-enter" for r in summary)
        assert any(r.action == "commit" for r in summary)
        assert all(not r.action.startswith("micro:rewind") for r in summary)


def record_kind(record) -> str:
    """A stage micro-step, a user step (`normal`, `checkpoint-enter` or
    `fault`), `summary-recover`, or one of a failure step's three records."""
    if record.phase == "program" and record.stage == 1:
        return "fault" if record.action.startswith("fault:") else record.action
    if record.phase == "program" and record.action != "summary-recover":
        return "micro"
    return record.action


def parse_outcome(text):
    """`parse_trace`'s records, or its error message."""
    try:
        return parse_trace(text)
    except ValueError as exc:
        return str(exc)


def reference_parse(text):
    """What `parse_trace` should give: each line matched in full by
    `REFERENCE_RECORD` and split, with no memo, or the first other
    non-blank line named."""
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        match = REFERENCE_RECORD.fullmatch(line)
        try:
            if match is None:
                if not line.strip():
                    continue
                raise ValueError
            step, middle, heads, masked, digests = match.groups()
            daemon, phase, stage, before, after, action = [
                chunk.partition("=")[2] for chunk in middle.split("\t")]
            records.append(TraceRecord((
                int(step), daemon, phase, int(stage), before, after, action,
                tuple(map(int, heads.split(","))), masked is not None,
                None if digests is None else tuple(digests.split(",")))))
        except ValueError:
            return f"line {number}: {_layout_error(line)}"
    return records


def reference_line(record) -> str:
    """A record's line, newline included, built field by field."""
    *values, heads, masked, digests = record
    fields = [*map("{}={}".format, _KEYS, values), f"heads={','.join(map(str, heads))}"]
    if masked:
        fields.append("masked=1")
    if digests is not None:
        fields.append(f"digests={','.join(digests)}")
    return "\t".join(fields) + "\n"


def parse_each_line(text):
    """What `parse_trace` should give: each `text.splitlines()` line read on
    its own, blank ones skipped, the first error named by its line number."""
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            outcome = parse_outcome(line)
            if isinstance(outcome, str):
                return outcome.replace("line 1:", f"line {number}:", 1)
            records.extend(outcome)
    return records


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Writes(list):
    """A handle that keeps each text written to it."""

    write = list.append


class FullStream(io.TextIOBase):
    """A text stream that is always full and has no descriptor: `fileno`
    raises, so nothing can point the test process's own stdout elsewhere."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


def lowest_free_descriptor() -> int:
    """The descriptor the next `open` gets: it moves up by one for each
    descriptor left open."""
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def first_run_with_a_fault_and_a_failure(compiled, word):
    """(seed, result, records) of the first seeded random run (p_fault 0.05,
    p_failure 0.01, with digests) that injects both a fault and a failure,
    or of seed 99 if none below 100 does."""
    for seed in range(100):
        cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, seed))
        result, records = run(cfg, with_digests=True)
        if result.faults_injected and result.failures_injected:
            break
    return seed, result, records


class TestCliRun:
    def test_run_unary(self, capsys):
        code, out, _ = run_cli(["run", "-m", corpus_meta("unary")], capsys)
        assert code == 0
        assert "outcome: shutdown" in out
        assert "word: 1 1 1" in out

    def test_run_step_limit_exit_code(self, capsys):
        code, out, _ = run_cli(["run", "-m", corpus_meta("unary"), "--max-steps", "1"], capsys)
        assert code == 2
        assert "step-limit" in out

    def test_run_missing_metafile(self, capsys):
        code, _, err = run_cli(["run", "-m", "no/such.meta"], capsys)
        assert code == 1
        assert "error:" in err

    def test_run_jammed_exit_code(self, tmp_path, capsys):
        meta = write_definition(tmp_path, states="initial q0\nhalting qf\ninternal q1\n",
                                rules="q0 1 -> q1 1 R\n", word="1 1\n")
        code, out, _ = run_cli(["run", "-m", meta], capsys)
        assert code == 3
        assert "jammed" in out

    def test_run_with_script_daemon(self, tmp_path, capsys):
        script = tmp_path / "schedule"
        script.write_text("40 active\n")
        code, out, _ = run_cli(["run", "-m", corpus_meta("unary"),
                                "--daemon", "script", "--daemon-script", str(script)], capsys)
        assert code == 0
        assert "word: 1 1 1" in out

    @pytest.mark.parametrize("name", MACHINE_NAMES)
    def test_passive_daemon_is_the_empty_schedule(self, tmp_path, capsys, name):
        """`--daemon passive` runs as a script daemon with an empty schedule:
        the same printed outcome, the same full trace, the same exit code."""
        empty = tmp_path / "empty-schedule"
        empty.write_text("")
        seen = []
        for daemon in (["passive"], ["script", "--daemon-script", str(empty)]):
            trace = tmp_path / f"trace-{daemon[0]}.txt"
            code, out, err = run_cli(["run", "-m", corpus_meta(name), "--daemon", *daemon,
                                      "--trace", "full", "--digests", "--trace-out",
                                      str(trace)], capsys)
            seen.append((code, out, err, trace.read_bytes()))
        assert seen[0] == seen[1]
        assert seen[0][3]

    def test_run_random_daemon_deterministic(self, capsys):
        args = ["run", "-m", corpus_meta("succ"), "--daemon", "random",
                "--p-fault", "0.05", "--p-failure", "0.01", "--seed", "42",
                "--trace", "full", "--digests"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("flag, value", [("--p-fault", "2"), ("--p-failure", "nan")])
    def test_run_random_daemon_rejects_bad_probability(self, capsys, flag, value):
        code, _, err = run_cli(["run", "-m", corpus_meta("unary"), "--daemon", "random",
                                flag, value], capsys)
        assert code == 1
        assert err.startswith("error: ")

    def test_the_shared_parser_keeps_nothing_between_commands(self, tmp_path, capsys):
        """`main` parses every command with the one `cli.ARG_PARSER`: neither a
        run with other flags nor a usage error before it changes a plain run."""
        plain = ["run", "-m", corpus_meta("unary")]
        first = run_cli(plain, capsys)
        trace = tmp_path / "trace.txt"
        code, _, _ = run_cli([*plain, "--daemon", "random", "--seed", "5", "--p-fault", "0.05",
                              "--trace", "full", "--digests", "--trace-out", str(trace)], capsys)
        assert code == 0 and trace.read_text().startswith("step=")
        assert run_cli(plain, capsys) == first
        with pytest.raises(SystemExit) as exc:
            main([*plain, "--seed", "x"])
        assert exc.value.code == 1
        capsys.readouterr()
        assert run_cli(plain, capsys) == first
        assert first[0] == 0 and first[1].startswith("outcome: shutdown\n")
        fresh = cli.build_arg_parser()
        assert vars(cli.ARG_PARSER.parse_args(plain)) == vars(fresh.parse_args(plain))

    def test_usage_error_exits_1_not_the_step_limit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-m", corpus_meta("unary"), "--daemon", "bogus"])
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--sweep-fault-step", "--daemon", "random"],
        ["--sweep-fault-step", "--p-fault", "0.1"],
        ["--sweep-failure-step", "--p-failure", "0.1"],
        ["--sweep-fault-step", "--seed", "3"],
        ["--sweep-failure-step", "--daemon-script", "schedule"],
        ["--sweep-fault-step", "--trace", "full"],
        ["--sweep-failure-step", "--trace-out", "trace.txt"],
        ["--sweep-fault-step", "--digests"],
        ["--sweep-fault-step", "--sweep-failure-step"],
        ["--trace-out", "trace.txt"],
        ["--digests"],
        ["--p-fault", "0.5", "--daemon-script", "nowhere"],
        ["--p-failure", "0.1"],
        ["--seed", "3"],
        ["--daemon-script", "schedule"],
        ["--daemon", "random", "--daemon-script", "schedule"],
        ["--daemon", "script", "--daemon-script", os.devnull, "--p-fault", "0.1"],
        ["--daemon", "script", "--daemon-script", os.devnull, "--p-failure", "0.1"],
        ["--daemon", "script", "--daemon-script", os.devnull, "--seed", "3"],
        ["--allow-failure-in-critical"],
        ["--sweep-fault-step", "--allow-failure-in-critical"],
        ["--daemon", "random", "--allow-failure-in-critical"],
        ["--daemon", "random", "--p-fault", "0.1", "--allow-failure-in-critical"],
    ], ids="+".join)
    def test_run_rejects_flags_it_would_ignore(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["run", "-m", corpus_meta("unary"), *flags], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, refusal", [
        ([], "--daemon passive does not take --allow-failure-in-critical"),
        (["--sweep-fault-step"], "--sweep-fault-step does not take --allow-failure-in-critical"),
        (["--daemon", "random", "--p-fault", "0.1"],
         "--daemon random with --p-failure 0 does not take --allow-failure-in-critical"),
    ], ids=["passive", "fault-sweep", "random-without-failures"])
    def test_unmasking_is_refused_where_no_failure_can_be_drawn(self, capsys, flags, refusal):
        code, out, err = run_cli(["run", "-m", corpus_meta("unary"), *flags,
                                  "--allow-failure-in-critical"], capsys)
        assert (code, out, err) == (1, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("flags", [
        ["--sweep-failure-step"],
        ["--daemon", "random", "--p-failure", "0.1"],
        ["--daemon", "script", "--daemon-script", os.devnull],
    ], ids="+".join)
    def test_unmasking_is_taken_where_a_failure_can_be_drawn(self, capsys, flags):
        """Each of these runs out of steps at once: it got past the flag
        checks, which exit 1."""
        code, _, err = run_cli(["run", "-m", corpus_meta("unary"), *flags,
                                "--allow-failure-in-critical", "--max-steps", "0"], capsys)
        assert code == 2
        assert "error:" not in err

    @pytest.mark.parametrize("value", ["1_0", "+10", " 10", "10 ", "010", "\u0661\u0660"])
    def test_non_canonical_seed_is_a_usage_error(self, capsys, value):
        """A seed is a count: `int()` would read each of these."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "-m", corpus_meta("unary"), "--daemon", "random", f"--seed={value}"])
        assert exc.value.code == 1
        assert "--seed: non-canonical integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed=-10"], ["--seed", "-10"], ["--seed=-01"],
                                       ["--seed", "-01"], ["--seed=-1_0"], ["--seed", "-1_0"],
                                       ["--seed=--10"]], ids=" ".join)
    def test_negative_seed_is_a_usage_error(self, capsys, flags):
        """The generator seeds -10 as 10, so a negative seed would replay the
        stream of its absolute value."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "-m", corpus_meta("unary"), "--daemon", "random", *flags])
        assert exc.value.code == 1
        assert f"argument --seed: must not be negative: {flags[-1].removeprefix('--seed=')}\n" \
            in capsys.readouterr().err

    def test_each_seed_names_its_own_stream(self, capsys):
        traces = []
        for seed in ("5", "6"):
            code, out, _ = run_cli(["run", "-m", corpus_meta("succ"), "--daemon", "random",
                                    "--p-fault", "0.05", "--p-failure", "0.01",
                                    "--seed", seed, "--trace", "full"], capsys)
            assert code == 0
            traces.append(out)
        assert traces[0] != traces[1]

    @pytest.mark.parametrize("value", ["0", "10", "2147483647"])
    def test_canonical_seed_is_taken(self, capsys, value):
        code, out, _ = run_cli(["run", "-m", corpus_meta("unary"), "--daemon", "random",
                                "--p-fault", "0.05", f"--seed={value}"], capsys)
        assert code == 0
        assert "word: 1 1 1" in out

    def test_script_daemon_without_a_schedule_is_refused_before_loading(self, capsys):
        code, out, err = run_cli(["run", "-m", "no/such.meta", "--daemon", "script"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --daemon script requires --daemon-script <path>\n"

    # Each input file, with a syntax error on its second line.
    BAD_SECOND_LINE = {
        "meta": "# one row\nm.desc 1 m.states m.alpha m.rules\n",
        "m.states": "initial q0\nstates q1\nhalting qf\n",
        "m.alpha": "empty b\nempty c\ninput 1\n",
        "m.rules": "q0 b -> qf b N\nq0 1 qf 1 R\n",
        "m.word": "1\n1 1\n",
        "schedule": "3 active\n4 sleepy\n",
    }

    # What follows `error: <path>:` for each kind of problem.
    PROBLEM_MESSAGE = {"syntax": "2: ", "missing": " cannot read file: ",
                       "not-utf8": " not valid UTF-8: "}

    @pytest.mark.parametrize("problem", list(PROBLEM_MESSAGE))
    @pytest.mark.parametrize("name", list(BAD_SECOND_LINE))
    def test_input_file_errors_name_their_file(self, tmp_path, capsys, name, problem):
        """Every input file, the metafile and the daemon script included,
        reports `<path>:<line>: ` or `<path>: ` and exits 1."""
        meta = write_definition(tmp_path, word="1\n")
        schedule = tmp_path / "schedule"
        schedule.write_text("3 active\n")
        bad = tmp_path / name
        if problem == "syntax":
            bad.write_text(self.BAD_SECOND_LINE[name])
        elif problem == "missing":
            bad.unlink()
        else:
            bad.write_bytes(b"\xff\n")
        code, out, err = run_cli(["run", "-m", meta, "--daemon", "script",
                                  "--daemon-script", str(schedule)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}:{self.PROBLEM_MESSAGE[problem]}")

    @pytest.mark.parametrize("args", [
        ["run", "-m", corpus_meta("unary"), "--trace", "full", "--trace-out"],
        ["compile", "-m", corpus_meta("unary"), "-o"],
    ], ids=["run-trace-out", "compile-output"])
    def test_unwritable_output_is_an_error_before_any_work(self, tmp_path, capsys, args):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli([*args, str(path)], capsys)
        assert code == 1
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args, printed", [
        (["run", "-m", corpus_meta("unary"), "--trace", "full", "--trace-out", "/dev/full"],
         "outcome: shutdown\nword: 1 1 1\n"),
        (["compile", "-m", corpus_meta("unary"), "-o", "/dev/full"], ""),
    ], ids=["run-trace-out", "compile-output"])
    def test_failed_write_is_an_error(self, capsys, args, printed):
        """A write or close that fails after the file opened, as on a full
        disk, ends in the same `error: cannot write` as a failed open."""
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert err == "error: cannot write /dev/full: No space left on device\n"
        assert out.startswith(printed) and "step=" not in out and "\t" not in out

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args, to_file", [
        (["run", "-m", corpus_meta("unary"), "--trace", "full"], False),
        (["run", "-m", corpus_meta("unary"), "--trace", "full"], True),
        (["run", "-m", corpus_meta("unary")], False),
        (["validate", "-m", corpus_meta("unary")], False),
        (["oracle", "-m", corpus_meta("unary")], False),
    ], ids=["trace", "trace-out", "outcome", "validate", "oracle"])
    def test_failed_stdout_write_is_an_error(self, tmp_path, args, to_file, buffered):
        """A full standard output is named as such, not as the trace file,
        and ends the process with no traceback or complaint at exit, whether
        the few bytes of a short output fail in `main`'s flush or at once."""
        path = tmp_path / "trace.txt"
        with open("/dev/full", "w") as full:
            proc = tmfsim_process(args + ["--trace-out", str(path)] if to_file else args,
                                  unbuffered=not buffered, stdout=full,
                                  stderr=subprocess.PIPE)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write standard output: No space left on device\n"

    @pytest.mark.parametrize("subcommand", ["run", "oracle"])
    def test_failed_write_to_a_stream_without_a_descriptor(self, monkeypatch, capsys,
                                                           subcommand):
        """A standard output with no descriptor of its own, as under
        `contextlib.redirect_stdout`, that is full: the error is named as
        for a real one, and the null device opened to take what is left is
        closed again. `run` names it where it prints its result, `oracle`
        in `main`."""
        free = lowest_free_descriptor()
        monkeypatch.setattr(sys, "stdout", FullStream())
        code = main([subcommand, "-m", corpus_meta("unary")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: cannot write standard output: No space left on device\n")
        assert lowest_free_descriptor() == free

    @pytest.mark.parametrize("subcommand", ["run", "oracle"])
    def test_negative_max_steps_is_a_usage_error(self, capsys, subcommand):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "-m", corpus_meta("unary"), "--max-steps", "-5"])
        assert exc.value.code == 1
        assert "--max-steps: must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--max-steps", "-1_0"], ["--max-steps=-1_0"]],
                             ids=" ".join)
    @pytest.mark.parametrize("subcommand", ["run", "oracle"])
    def test_negative_max_steps_argparse_reads_as_a_flag_is_named(self, capsys, subcommand,
                                                                 flags):
        """argparse alone takes `-1_0` for a flag and says `expected one
        argument`; in either form the value is refused as negative."""
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "-m", corpus_meta("unary"), *flags])
        assert exc.value.code == 1
        assert "argument --max-steps: must not be negative: -1_0\n" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["run", "oracle"])
    @pytest.mark.parametrize("flag, value", [("--max-steps", "1_000"), ("--row", "+0")])
    def test_non_canonical_count_is_a_usage_error(self, capsys, subcommand, flag, value):
        """Counts take the trace syntax: `int()` would read 1000 and 0."""
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "-m", corpus_meta("unary"), flag, value])
        assert exc.value.code == 1
        assert f"{flag}: non-canonical integer {value!r}" in capsys.readouterr().err

    def test_trace_to_file_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "trace.txt"
        code, _, _ = run_cli(["run", "-m", corpus_meta("palin"),
                              "--trace", "full", "--trace-out", str(out_path)], capsys)
        assert code == 0
        text = out_path.read_text()
        assert render_trace(parse_trace(text)) == text

    @pytest.mark.parametrize("to_file", [True, False], ids=["trace-out", "stdout"])
    @pytest.mark.parametrize("mode", ["full", "summary"])
    def test_streamed_trace_equals_rendered_records(self, succ, tmp_path, capsys, mode,
                                                   to_file):
        compiled, word = succ
        seed, result, records = first_run_with_a_fault_and_a_failure(compiled, word)
        assert result.faults_injected and result.failures_injected
        expected = render_trace(records if mode == "full" else summarize(records))
        args = ["run", "-m", corpus_meta("succ"), "--daemon", "random", "--p-fault", "0.05",
                "--p-failure", "0.01", "--seed", str(seed), "--trace", mode, "--digests"]
        path = tmp_path / "trace.txt"
        code, out, _ = run_cli(args + ["--trace-out", str(path)] if to_file else args, capsys)
        assert code == 0
        if to_file:
            assert path.read_bytes() == expected.encode("utf-8")
            assert "step=" not in out
        else:
            assert out.endswith(expected)
            assert "step=" not in out[:-len(expected)]

    def test_render_trace_to_a_handle_writes_the_text(self, succ):
        compiled, word = succ
        cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, 9))
        _, records = run(cfg, with_digests=True)
        for chosen in (records, summarize(records), []):
            handle = io.StringIO()
            assert render_trace(chosen, handle) is None
            assert handle.getvalue() == render_trace(chosen)

    def test_render_trace_writes_bounded_batches(self, unary):
        """To a handle, `render_trace` writes the text it returns, in writes
        of at most `_BATCH` lines each, on both sides of every boundary."""
        compiled, _ = unary
        cfg = init_configuration(compiled, ("1",) * 12, RandomPolicy(0.05, 0.01, 9))
        _, records = run(cfg, with_digests=True)
        assert len(records) > 5 * _BATCH
        for count in (0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 3 * _BATCH, len(records)):
            chosen = records[:count]
            handle = Writes()
            assert render_trace(chosen, handle) is None
            assert "".join(handle) == render_trace(chosen)
            assert [text.count("\n") for text in handle] == (
                [_BATCH] * (count // _BATCH) + [count % _BATCH] * (count % _BATCH > 0))

    def test_render_trace_follows_digests_that_change_and_stay(self, succ):
        """Each line holds its own record's digests, whether the record
        shares its digest tuple with the record before it, holds an equal
        tuple of its own, holds other digests or holds none; in a run's
        trace and in records made for each case."""
        compiled, word = succ
        cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, 9))
        _, records = run(cfg, with_digests=True)
        pairs = list(zip(records, records[1:]))
        assert any(a.digests is b.digests for a, b in pairs)
        assert any(a.digests != b.digests for a, b in pairs)
        first = tuple(["a"] * 5)
        other = ("a", "b", "c", "d", "e")
        record = parse_trace(GOOD_LINE)[0]
        made = [record._replace(step=step, digests=digests) for step, digests in enumerate(
            (None, first, first, tuple(["a"] * 5), other, other, None, None, first))]
        for chosen in (records, made):
            expected = "".join(map(reference_line, chosen))
            handle = io.StringIO()
            render_trace(chosen, handle)
            assert render_trace(chosen) == handle.getvalue() == expected

    def test_summary_trace_on_stdout(self, capsys):
        code, out, _ = run_cli(["run", "-m", corpus_meta("unary"), "--trace", "summary"],
                               capsys)
        assert code == 0
        trace_lines = [l for l in out.splitlines() if l.startswith("step=")]
        records = parse_trace("\n".join(trace_lines))
        assert records
        assert {r.action for r in records} >= {"checkpoint-enter", "commit"}
        assert all(not r.action.startswith("micro:rewind") for r in records)

    def test_row_selection_from_shared_metafile(self, capsys):
        code, out, _ = run_cli(["run", "-m", str(CORPUS / "all.meta"), "--row", "2"], capsys)
        assert code == 0
        assert "word: Y" in out

    @pytest.mark.parametrize("name, flags, code, summary, missed", [
        ("unary", ["--sweep-fault-step"], 0, "sweep(active): 174/174", 0),
        ("tail", ["--sweep-failure-step"], 3, "sweep(aggressive): 57/75", 18),
        ("palin", ["--sweep-failure-step", "--max-steps", "5000"], 2,
         "sweep(aggressive): 74/79", 5),
        ("diverge", ["--sweep-fault-step", "--max-steps", "5000"], 2, "sweep(active): 37/38", 1),
        ("unary", ["--sweep-fault-step", "--max-steps", "10"], 2, None, 0),
    ], ids=["shutdown", "jammed", "step-limit-failure", "step-limit-fault",
            "baseline-step-limit"])
    def test_sweep_exit_paths(self, tmp_path, capsys, name, flags, code, summary, missed):
        """The tail machine is ROADMAP item 15's: a failure after its commit
        leaves a stale `1` two cells past the restored master, and the
        replay jams on it."""
        if name == "tail":
            meta = write_definition(tmp_path, alphabet="empty b\ninput 0 1\n", rules=TAIL_RULES,
                                    word="0\n", states=TAIL_STATES)
        else:
            meta = corpus_meta(name)
        got, out, err = run_cli(["run", "-m", meta, *flags], capsys)
        assert got == code
        lines = out.splitlines()
        assert sum(line.startswith("k=") for line in lines) == missed
        if summary is None:
            assert (out, err) == ("", "baseline run did not shut down: step-limit\n")
        else:
            assert lines[-1] == f"{summary} runs shut down with the baseline word"
            assert err == ""

    def test_a_sweep_run_that_shuts_down_with_another_word_exits_1(self, capsys, monkeypatch):
        """No input found reaches this exit: the stage-7 check shuts a run
        down only on the reference's word. So `cli.run`, which `cli.sweep`
        calls, hands back another word for the run with its event at step 3."""
        real_run = cli.run

        def run_with_a_wrong_word(cfg, **kwargs):
            result, records = real_run(cfg, **kwargs)
            if cfg.policy.schedule == {3: "active"}:
                result = result._replace(final_master_word=("0",))
            return result, records

        monkeypatch.setattr(cli, "run", run_with_a_wrong_word)
        code, out, _ = run_cli(["run", "-m", corpus_meta("unary"), "--sweep-fault-step"], capsys)
        assert code == 1
        assert out.splitlines() == ["k=3 outcome=shutdown word=0 recoveries=0",
                                    "sweep(active): 173/174 runs shut down with the baseline word"]

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case, code", [
        ("shutdown", 0), ("step-limit", 2), ("jammed", 3), ("missing-metafile", 1),
        ("missing-schedule", 1), ("stdout-error", 1), ("raised", None)])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, case, code,
                                                      collecting):
        """`main` pauses the cyclic collector while its command runs and, on
        every way out, turns it back on only if it was on. A missing
        metafile is reported by `_command`, a missing schedule by `main`,
        and `oracle`'s write to a full standard output by `main` too."""
        argv = ["run", "-m", corpus_meta("unary")]
        if case == "step-limit":
            argv += ["--max-steps", "1"]
        elif case == "jammed":
            argv[2] = write_definition(tmp_path, states="initial q0\nhalting qf\ninternal q1\n",
                                       rules="q0 1 -> q1 1 R\n", word="1 1\n")
        elif case == "missing-metafile":
            argv[2] = str(tmp_path / "no.meta")
        elif case == "missing-schedule":
            argv += ["--daemon", "script", "--daemon-script", str(tmp_path / "no.schedule")]
        elif case == "stdout-error":
            argv[0] = "oracle"
            monkeypatch.setattr(sys, "stdout", FullStream())
        real_command = cli._command
        paused = []

        def command(args, out):
            paused.append(not gc.isenabled())
            if case == "raised":
                raise RuntimeError("the command failed")
            return real_command(args, out)

        monkeypatch.setattr(cli, "_command", command)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if code is None:
                with pytest.raises(RuntimeError, match="the command failed"):
                    main(argv)
            else:
                assert main(argv) == code
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert paused == [True]


class TestCliOther:
    def test_validate_ok(self, capsys):
        code, out, _ = run_cli(["validate", "-m", corpus_meta("succ")], capsys)
        assert code == 0
        assert "0 errors" in out

    def test_validate_reports_each_issue(self, tmp_path, capsys):
        meta = write_definition(tmp_path,
                                rules="q0 1 -> q0 1 R\nq0 1 -> qf 1 N\nqf 1 -> q0 1 R\n")
        code, out, err = run_cli(["validate", "-m", meta], capsys)
        assert code == 1
        assert "2 error(s)" in out
        assert "duplicate-rule" in err and "halting-has-rules" in err

    def test_validate_reports_every_static_issue_at_once(self, tmp_path, capsys):
        meta = write_definition(tmp_path, alphabet="empty b\ninput 1 !\n",
                                rules="q0 1 -> q9 1 R\nq0 b -> qf 1 X\n")
        code, out, err = run_cli(["validate", "-m", meta], capsys)
        assert code == 1
        assert out == "3 error(s)\n"
        assert err.splitlines() == [
            "bad-symbol: input symbol: symbol '!' is reserved",
            "unknown-state: program rule 'q0 1 -> q9 1 R': to-state 'q9' unknown",
            "bad-move: program rule 'q0 b -> qf 1 X': move must be one of L R N",
        ]

    @pytest.mark.parametrize("states, repeated", [
        ("initial q0\nhalting qf\ninternal q0 qf q1 q1\n", ["q0", "qf", "q1"]),
        ("initial q0\nhalting q0\n", []),
    ], ids=["repeated", "initial-is-halting"])
    def test_validate_repeated_states(self, tmp_path, capsys, states, repeated):
        """A state named twice is an error; one state as both initial and
        halting is one state in two roles."""
        meta = write_definition(tmp_path, states=states, rules="")
        code, out, err = run_cli(["validate", "-m", meta], capsys)
        assert (code, out) == ((1, "3 error(s)\n") if repeated else (0, "0 errors\n"))
        assert err.splitlines() == [f"duplicate-state: state {name!r} declared more than once"
                                    for name in repeated]

    def test_compile_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(["compile", "-m", corpus_meta("unary")], capsys)
        code2, out2, _ = run_cli(["compile", "-m", corpus_meta("unary")], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("stage\tkind\t")

    def test_compile_to_file(self, tmp_path, capsys):
        target = tmp_path / "listing.tsv"
        code, out, _ = run_cli(["compile", "-m", corpus_meta("unary"),
                                "-o", str(target)], capsys)
        assert code == 0 and out == ""
        assert target.read_text().startswith("stage\tkind\t")

    def test_oracle_succ(self, capsys):
        code, out, _ = run_cli(["oracle", "-m", corpus_meta("succ")], capsys)
        assert code == 0
        assert out.strip() == "1 1 0 0"

    def test_oracle_step_limit_exit_code(self, capsys):
        code, out, err = run_cli(["oracle", "-m", corpus_meta("succ"), "--max-steps", "3"],
                                 capsys)
        assert code == 2
        assert (out, err) == ("", "error: no halt within 3 steps\n")

    def test_oracle_jam_exit_code(self, tmp_path, capsys):
        meta = write_definition(tmp_path, rules="", word="1\n")
        code, _, err = run_cli(["oracle", "-m", meta], capsys)
        assert code == 3
        assert "no rule" in err


def test_color_disabled_for_pipes_and_by_env(monkeypatch):
    from tmfsim.cli import _paint

    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setenv("TMF_COLOR", "never")
    assert _paint("shutdown", True, FakeTty()) == "shutdown"
    monkeypatch.delenv("TMF_COLOR")
    assert "\x1b[32m" in _paint("shutdown", True, FakeTty())
    assert _paint("shutdown", True, io.StringIO()) == "shutdown"


def tmfsim_process(args, unbuffered=False, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m tmfsim` with `args` on this checkout's sources, with
    standard output buffered as usual unless `unbuffered`."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "tmfsim", *args],
                          text=True, env=env, timeout=60, **kwargs)


def test_cli_entry_point_subprocess():
    proc = tmfsim_process(["run", "-m", corpus_meta("unary")], capture_output=True)
    assert proc.returncode == 0
    assert "word: 1 1 1" in proc.stdout
