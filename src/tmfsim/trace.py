"""Step-by-step audit records and their line-oriented text encoding.

One record per line, tab-separated `key=value` fields. Symbols never contain
whitespace, so tabs delimit fields unambiguously and a full trace round-trips
through text without loss, which is what the replay-determinism checks diff.
"""

from __future__ import annotations

import gc
import hashlib
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from typing import TextIO

from .model import COUNT_PATTERN, read_count

# A record line holds these fields in this order, tab-separated; `masked=1`
# and `digests=` are present only when set.
_KEYS = ("step", "daemon", "phase", "stage", "before", "after", "action", "heads",
         "masked", "digests")
_MASKED = "\tmasked=1"
_DIGESTS = "\tdigests="


class TraceRecord(tuple):
    """One step's audit record: a tuple of the ten fields in `_KEYS` order,
    each also readable by name.

    Built as `TraceRecord((step, daemon, phase, stage, before, after, action,
    heads, masked, digests))`. The class defines no `__new__`, so tuple's own
    constructor builds a record in C with no Python frame: the executor
    builds one per simulated step. That constructor checks no arity; the
    tests check the length of every record a run or `parse_trace` returns.
    """

    __slots__ = ()
    _fields = _KEYS

    step = property(itemgetter(0))      # int
    daemon = property(itemgetter(1))    # passive | active | aggressive
    phase = property(itemgetter(2))     # program | failure | repair
    stage = property(itemgetter(3))     # 1 while computing, 2..7 inside a stage
    before = property(itemgetter(4))    # rendered program control
    after = property(itemgetter(5))
    action = property(itemgetter(6))
    heads = property(itemgetter(7))     # master, synchro, backup, backup_synchro, user
    masked = property(itemgetter(8))    # bool
    digests = property(itemgetter(9))   # five tape digests in tape order, or None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, _KEYS, self))})"

    def _replace(self, /, **changes) -> TraceRecord:
        """A copy with the named fields changed, as a named tuple's."""
        record = TraceRecord(map(changes.pop, _KEYS, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record


@contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector off, then turn it
    back on, on every way out, only if it was on.

    The collector never stops tracking a `TraceRecord`, as it does an exact
    tuple, so each collection would rescan every record held and, since
    runs and `parse_trace` make no reference cycles (tests/test_executor.py),
    free nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# Integers are written in `COUNT_PATTERN`, the only form parsed back; text
# values are anything but a tab, with no comma inside the digest list.
# `_RECORD` captures five texts: the step, the six fields from `daemon` to
# `action` as one run, the heads, `masked` and the digests. The heads and
# the digests it takes as plain tab-free runs, since repeated groups cost the
# regex engine most of its time: `parse_trace` reads each distinct heads
# text as five comma-separated counts, each distinct count part checked by
# `read_count` once, and checks each distinct digests text for five
# comma-separated parts, once per call, the first time it sees it. A line in
# any other layout fails the match or one of these checks, and
# `_layout_error` says why.
_TEXT = "[^\t]*"
_COUNT = COUNT_PATTERN.pattern
_MIDDLE = "\t".join(f"{key}=(?:{_COUNT if key == 'stage' else _TEXT})" for key in _KEYS[1:7])
_RECORD = re.compile(f"step=({_COUNT})\t({_MIDDLE})\theads=({_TEXT})"
                     f"(\tmasked=1)?(?:\tdigests=({_TEXT}))?")

# `render_trace` writes to a handle this many lines at a time: a few tens of
# kilobytes, so a long trace is never held whole as text.
_BATCH = 256


def _lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    """Each record's line, newline included: the one place that writes the
    layout `parse_trace` reads. Each distinct run of `daemon`..`action`
    fields is formatted once per call, and a digest tuple once while
    consecutive records hold it."""
    middles: dict[tuple, str] = {}
    last_digests = None
    digests_text = ""
    for record in records:
        step, daemon, phase, stage, before, after, action, heads, masked, digests = record
        key = record[1:7]
        middle = middles.get(key)
        if middle is None:
            middle = middles[key] = (f"\tdaemon={daemon}\tphase={phase}\tstage={stage}"
                                     f"\tbefore={before}\tafter={after}\taction={action}"
                                     "\theads=")
        if digests is not last_digests:
            last_digests = digests
            digests_text = "" if digests is None else _DIGESTS + ",".join(digests)
        yield (f"step={step}{middle}{heads[0]},{heads[1]},{heads[2]},{heads[3]},{heads[4]}"
               f"{_MASKED if masked else ''}{digests_text}\n")


def render_trace(records: Iterable[TraceRecord], out: TextIO | None = None) -> str | None:
    """The text of `records`, one line each; with `out`, the text is
    written to that handle instead, `_BATCH` lines per write, and nothing
    is returned."""
    lines = _lines(records)
    if out is None:
        return "".join(lines)
    write = out.write
    while batch := "".join(islice(lines, _BATCH)):
        write(batch)
    return None


class _Counts(dict):
    """The count texts one `parse_trace` call has read, each checked and
    converted by `read_count` the first time it is looked up."""

    __slots__ = ()

    def __missing__(self, text: str) -> int:
        count = self[text] = read_count(text)
        return count


@collector_paused()
def parse_trace(text: str) -> list[TraceRecord]:
    """Records from the text of a trace; lines split as `str.splitlines`
    splits them, and blank lines are skipped. A line in any other layout
    than `render_trace` writes, or with an integer longer than `int()`
    reads, raises `ValueError` naming its line number. The cyclic
    collector is paused while it runs (`collector_paused`).

    Records with equal `daemon`..`action` fields, equal heads or equal
    digests share those values: each distinct text is checked and split
    once per call, before the record of the line it first appears on, and
    each distinct heads part is checked and converted once per call.
    """
    records = []
    append = records.append
    middles: dict[str, tuple[str, str, int, str, str, str]] = {}
    head_sets: dict[str, tuple[int, ...]] = {}
    digest_sets: dict[str, tuple[str, ...]] = {}
    count = _Counts().__getitem__
    match_record = _RECORD.fullmatch
    for number, line in enumerate(text.splitlines(), start=1):
        match = match_record(line)
        if match is None:
            if not line.strip():
                continue
            raise ValueError(f"line {number}: {_layout_error(line)}")
        step, middle, heads, masked, digests = match.groups()
        # The match has read the syntax of the step and `stage`; `int` only
        # converts them, and fails only past its digit limit. `count` reads a
        # heads part as `read_count` does. `_layout_error` names each failure,
        # as it does a heads or digests text with other than five parts.
        try:
            step = int(step)
            fields = middles.get(middle)
            if fields is None:
                # The match guarantees six tab-free `key=value` chunks whose
                # keys hold no `=`; values may.
                daemon, phase, stage, before, after, action = [
                    chunk.partition("=")[2] for chunk in middle.split("\t")]
                fields = middles[middle] = (daemon, phase, int(stage), before, after, action)
            shared = head_sets.get(heads)
            if shared is None:
                shared = tuple(map(count, heads.split(",")))
                if len(shared) != 5:
                    raise ValueError
                head_sets[heads] = shared
            heads = shared
            if digests is not None:
                shared = digest_sets.get(digests)
                if shared is None:
                    shared = tuple(digests.split(","))
                    if len(shared) != 5:
                        raise ValueError
                    digest_sets[digests] = shared
                digests = shared
        except ValueError:
            raise ValueError(f"line {number}: {_layout_error(line)}") from None
        append(TraceRecord((step, *fields, heads, masked is not None, digests)))
    return records


def _layout_error(line: str) -> str:
    """Why a non-blank line that `_RECORD` does not match is not a record."""
    keys = []
    for chunk in line.split("\t"):
        key, sep, value = chunk.partition("=")
        if not sep:
            return f"field {chunk!r} is not key=value"
        if key in ("heads", "digests") and value.count(",") != 4:
            return f"expected 5 {key}, got {value.count(',') + 1}"
        if key not in _KEYS or (key == "masked" and value != "1"):
            return f"unknown field {chunk!r}"
        if key in ("step", "stage", "heads"):
            for text in value.split(",") if key == "heads" else (value,):
                try:
                    read_count(text)
                except ValueError as exc:
                    return f"{exc} in {key}"
        keys.append(key)
    for key in _KEYS[:8]:
        if key not in keys:
            return f"missing field {key}"
    return f"fields out of order or repeated: {', '.join(keys)}"


def tape_digest(cells: list[str]) -> str:
    return hashlib.sha1("\x1f".join(cells).encode("utf-8")).hexdigest()[:10]


def _rehash(tape) -> str:
    digest = tape.digest = tape_digest(tape.cells)
    return digest


def digest_tapes(tapes) -> tuple[str, str, str, str, str]:
    """The digests of a configuration's five tapes, in its tape order,
    rehashing only tapes whose cells a `Tape.write` changed since their
    digest was last taken (such a write clears the cache to None; a digest
    is never empty)."""
    a, b, c, d, e = tapes
    return (a.digest or _rehash(a), b.digest or _rehash(b), c.digest or _rehash(c),
            d.digest or _rehash(d), e.digest or _rehash(e))


def summarize(records: list[TraceRecord]) -> list[TraceRecord]:
    """Keep only the notable records: faults, failures and repairs,
    downgrades, checkpoint entries, marks, commits, recoveries from the
    summary check, and control handoffs."""
    return [record for record in records
            if record.phase != "program" or record.masked
            or record.action in ("checkpoint-enter", "commit", "summary-recover")
            or record.action.startswith(("fault:", "micro:enter_", "micro:mark_plus"))]
