"""Step-by-step audit records and their line-oriented text encoding.

One record per line, tab-separated `key=value` fields. Symbols never contain
whitespace, so tabs delimit fields unambiguously and a full trace round-trips
through text without loss, which is what the replay-determinism checks diff.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable
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

    def render(self) -> str:
        step, daemon, phase, stage, before, after, action, heads, masked, digests = self
        return (f"step={step}\tdaemon={daemon}\tphase={phase}"
                f"\tstage={stage}\tbefore={before}\tafter={after}"
                f"\taction={action}"
                f"\theads={heads[0]},{heads[1]},{heads[2]},{heads[3]},{heads[4]}"
                f"{_MASKED if masked else ''}"
                f"{'' if digests is None else _DIGESTS + ','.join(digests)}")


# Integers are written in `COUNT_PATTERN`, the only form parsed back; text
# values are anything but a tab, with no comma inside the digest list.
# `_RECORD` captures five texts: the step, the six fields from `daemon` to
# `action` as one run, the heads, `masked` and the digests, so that
# `parse_trace` splits each distinct run of them only once. A line in any
# other layout fails to match, and `_layout_error` says why.
_TEXT = "[^\t]*"
_MIDDLE = "\t".join(f"{key}=(?:{COUNT_PATTERN if key == 'stage' else _TEXT})"
                    for key in _KEYS[1:7])
_HEADS = ",".join([f"(?:{COUNT_PATTERN})"] * 5)
_RECORD = re.compile(f"step=({COUNT_PATTERN})\t({_MIDDLE})\theads=({_HEADS})"
                     "(\tmasked=1)?(?:\tdigests=([^\t,]*(?:,[^\t,]*){4}))?")


def render_trace(records: Iterable[TraceRecord], out: TextIO | None = None) -> str | None:
    """The text of `records`, one line each; with `out`, each line is
    written to that handle instead and nothing is returned."""
    if out is None:
        return "".join([f"{record.render()}\n" for record in records])
    write = out.write
    for record in records:
        write(f"{record.render()}\n")
    return None


def parse_trace(text: str) -> list[TraceRecord]:
    """Records from the text of a trace; lines split as `str.splitlines`
    splits them, and blank lines are skipped. A line in any other layout
    than `TraceRecord.render` writes, or with an integer longer than
    `int()` reads, raises `ValueError` naming its line number.

    Records with equal `daemon`..`action` fields, equal heads or equal
    digests share those values: each distinct text is split once per call.
    """
    records = []
    append = records.append
    middles: dict[str, tuple[str, str, int, str, str, str]] = {}
    head_sets: dict[str, tuple[int, ...]] = {}
    digest_sets: dict[str, tuple[str, ...]] = {}
    match_record = _RECORD.fullmatch
    for number, line in enumerate(text.splitlines(), start=1):
        match = match_record(line)
        if match is None:
            if not line.strip():
                continue
            raise ValueError(f"line {number}: {_layout_error(line)}")
        step, middle, heads, masked, digests = match.groups()
        # The match has read the syntax of every integer; `int` only converts,
        # and fails only past its digit limit, which `_layout_error` names.
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
                shared = head_sets[heads] = tuple(map(int, heads.split(",")))
        except ValueError:
            raise ValueError(f"line {number}: {_layout_error(line)}") from None
        heads = shared
        if digests is not None:
            shared = digest_sets.get(digests)
            if shared is None:
                shared = digest_sets[digests] = tuple(digests.split(","))
            digests = shared
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


def digest_tapes(tapes) -> tuple[str, str, str, str, str]:
    """The digests of a configuration's five tapes, in its tape order,
    rehashing only tapes whose cells a `Tape.write` changed since their
    digest was last taken (such a write clears the cache)."""
    digests = []
    for tape in tapes:
        digest = tape.digest
        if digest is None:
            digest = tape.digest = tape_digest(tape.cells)
        digests.append(digest)
    return tuple(digests)  # type: ignore[return-value]


def summarize(records: list[TraceRecord]) -> list[TraceRecord]:
    """Keep only the notable records: faults, failures and repairs,
    downgrades, checkpoint entries, marks, commits, recoveries from the
    summary check, and control handoffs."""
    return [record for record in records
            if record.phase != "program" or record.masked
            or record.action in ("checkpoint-enter", "commit", "summary-recover")
            or record.action.startswith(("fault:", "micro:enter_", "micro:mark_plus"))]
