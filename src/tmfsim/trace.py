"""Step-by-step audit records and their line-oriented text encoding.

One record per line, tab-separated `key=value` fields. Symbols never contain
whitespace, so tabs delimit fields unambiguously and a full trace round-trips
through text without loss, which is what the replay-determinism checks diff.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .stages import TAPE_ORDER


@dataclass(frozen=True)
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
        fields = [
            f"step={self.step}",
            f"daemon={self.daemon}",
            f"phase={self.phase}",
            f"stage={self.stage}",
            f"before={self.before}",
            f"after={self.after}",
            f"action={self.action}",
            "heads=" + ",".join(map(str, self.heads)),
        ]
        if self.masked:
            fields.append("masked=1")
        if self.digests is not None:
            fields.append("digests=" + ",".join(self.digests))
        return "\t".join(fields)


def render_trace(records: list[TraceRecord]) -> str:
    return "".join(record.render() + "\n" for record in records)


def parse_trace(text: str) -> list[TraceRecord]:
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields: dict[str, str] = {}
        for chunk in line.split("\t"):
            key, sep, value = chunk.partition("=")
            if not sep:
                raise ValueError(f"line {number}: field {chunk!r} is not key=value")
            fields[key] = value
        try:
            heads = tuple(map(int, fields["heads"].split(",")))
            if len(heads) != 5:
                raise ValueError(f"expected 5 heads, got {len(heads)}")
            digests = None
            if "digests" in fields:
                digests = tuple(fields["digests"].split(","))
                if len(digests) != 5:
                    raise ValueError(f"expected 5 digests, got {len(digests)}")
            records.append(TraceRecord(
                step=int(fields["step"]),
                daemon=fields["daemon"],
                phase=fields["phase"],
                stage=int(fields["stage"]),
                before=fields["before"],
                after=fields["after"],
                action=fields["action"],
                heads=heads,  # type: ignore[arg-type]
                masked=fields.get("masked") == "1",
                digests=digests,  # type: ignore[arg-type]
            ))
        except KeyError as exc:
            raise ValueError(f"line {number}: missing field {exc.args[0]}") from None
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return records


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
    downgrades, checkpoint entries, marks, commits, and control handoffs."""
    keep = []
    for record in records:
        notable = (
            record.phase != "program"
            or record.masked
            or record.action.startswith("fault:")
            or record.action in ("checkpoint-enter", "commit")
            or record.action.startswith("micro:enter_")
            or record.action.startswith("micro:mark_plus")
        )
        if notable:
            keep.append(record)
    return keep
