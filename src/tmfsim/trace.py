"""Step-by-step audit records and their line-oriented text encoding.

One record per line, tab-separated `key=value` fields. Symbols never contain
whitespace, so tabs delimit fields unambiguously and a full trace round-trips
through text without loss, which is what the replay-determinism checks diff.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TextIO

from .model import COUNT_PATTERN, read_count
from .stages import TAPE_ORDER

# A record line holds these fields in this order, tab-separated; `masked=1`
# and `digests=` are present only when set.
_KEYS = ("step", "daemon", "phase", "stage", "before", "after", "action", "heads",
         "masked", "digests")
_MASKED = "\tmasked=1"
_DIGESTS = "\tdigests="


@dataclass(frozen=True, slots=True)
class TraceRecord:
    step: int
    daemon: str
    phase: str          # program | failure | repair
    stage: int          # 1 while computing, 2..7 inside a stage
    before: str         # rendered program control
    after: str
    action: str
    heads: tuple[int, int, int, int, int]   # master, synchro, backup, backup_synchro, user
    masked: bool = False
    digests: tuple[str, str, str, str, str] | None = None

    def render(self) -> str:
        heads = self.heads
        digests = self.digests
        return (f"step={self.step}\tdaemon={self.daemon}\tphase={self.phase}"
                f"\tstage={self.stage}\tbefore={self.before}\tafter={self.after}"
                f"\taction={self.action}"
                f"\theads={heads[0]},{heads[1]},{heads[2]},{heads[3]},{heads[4]}"
                f"{_MASKED if self.masked else ''}"
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
    # Records are filled through their slot descriptors rather than built by
    # the frozen dataclass `__init__`, which costs a global lookup and an
    # `object.__setattr__` call per field. A `__post_init__` added to
    # `TraceRecord` would be skipped here.
    new = object.__new__
    (set_step, set_daemon, set_phase, set_stage, set_before, set_after, set_action,
     set_heads, set_masked, set_digests) = [getattr(TraceRecord, key).__set__ for key in _KEYS]
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
        daemon, phase, stage, before, after, action = fields
        record = new(TraceRecord)
        set_step(record, step)
        set_daemon(record, daemon)
        set_phase(record, phase)
        set_stage(record, stage)
        set_before(record, before)
        set_after(record, after)
        set_action(record, action)
        set_heads(record, heads)
        set_masked(record, masked is not None)
        set_digests(record, digests)
        append(record)
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
    """The five tape digests in TAPE_ORDER, rehashing only tapes written
    since their digest was last taken (`Tape.write` clears the cache)."""
    digests = []
    for name in TAPE_ORDER:
        tape = tapes[name]
        digest = tape.digest
        if digest is None:
            digest = tape.digest = tape_digest(tape.cells)
        digests.append(digest)
    return tuple(digests)  # type: ignore[return-value]


def summarize(records: list[TraceRecord]) -> list[TraceRecord]:
    """Keep only the notable records: faults, failures and repairs,
    downgrades, checkpoint entries, marks, commits, recoveries from the
    summary check, and control handoffs."""
    keep = []
    for record in records:
        notable = (
            record.phase != "program"
            or record.masked
            or record.action.startswith("fault:")
            or record.action in ("checkpoint-enter", "commit", "summary-recover")
            or record.action.startswith("micro:enter_")
            or record.action.startswith("micro:mark_plus")
        )
        if notable:
            keep.append(record)
    return keep
