"""Parsers for the input files: machine definitions and daemon schedules.

A machine is described by a metafile whose rows name the other files:

    <description-file> <n-master-tapes> <states-file> <alphabet-file> \
        <transitions-file> <word-file>...

A schedule file for the script daemon holds `<step> <active|aggressive>`
lines. All formats are line oriented and UTF-8. Tokens are separated by
whitespace, `#` starts a comment, blank lines are ignored, LF and CRLF both
work; counts are read by `model.read_count`. See the README for the full
grammar of each file kind. The parsers read syntax only; what the tokens mean
(reserved or repeated symbols, unknown states and symbols, moves) is checked
once, by `model.validate_machine`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .daemon import ScriptPolicy
from .model import (
    ACTIVE,
    AGGRESSIVE,
    ARROW,
    Alphabet,
    BasicMachine,
    Rule,
    ValidatedMachine,
    read_count,
    validate_machine,
)


class DefinitionError(ValueError):
    """An input file could not be read or parsed.

    Carries the offending path (when known) and 1-based line number so the
    CLI can point at the problem.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Yield (line_number, tokens) for every non-blank, non-comment line."""
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((number, body.split()))
    return out


def _count(token: str, what: str, line: int) -> int:
    """`token` as `model.read_count` reads it. Otherwise a DefinitionError:
    `negative <what> <token>` for a token that starts with a minus sign, else
    `bad <what>: <why>`."""
    try:
        return read_count(token)
    except ValueError as exc:
        message = f"negative {what} {token}" if token[:1] == "-" else f"bad {what}: {exc}"
        raise DefinitionError(message, line=line) from None


def _sections(text: str, single: tuple[str, ...], listed: tuple[str, ...],
              noun: str) -> dict:
    """Parse `<keyword> <name>...` lines into keyword -> value. Each `single`
    keyword must appear exactly once with one `noun`; each `listed` keyword
    may repeat, and its names accumulate in a list."""
    sections: dict = {keyword: [] for keyword in listed}
    for number, tokens in _content_lines(text):
        keyword, names = tokens[0], tokens[1:]
        if keyword in single:
            if keyword in sections:
                raise DefinitionError(f"duplicate section: {keyword}", line=number)
            if len(names) != 1:
                raise DefinitionError(f"{keyword} expects exactly one {noun}", line=number)
            sections[keyword] = names[0]
        elif keyword in listed:
            sections[keyword].extend(names)
        else:
            raise DefinitionError(
                f"bad token {keyword!r}, expected {'/'.join(single + listed)}", line=number)
    for keyword in single:
        if keyword not in sections:
            raise DefinitionError(f"missing section: {keyword}")
    return sections


def parse_states_file(text: str) -> tuple[str, str, list[str]]:
    """Parse a states file into (initial, halting, internal states).

    Exactly one `initial` and one `halting` line are required; `internal`
    lines may repeat and accumulate.
    """
    states = _sections(text, ("initial", "halting"), ("internal",), "state name")
    return states["initial"], states["halting"], states["internal"]


def parse_alphabet_file(text: str) -> Alphabet:
    """Parse an alphabet file into an Alphabet.

    Lines are `empty <sym>`, `input <sym>...`, `internal <sym>...`.
    """
    symbols = _sections(text, ("empty",), ("input", "internal"), "symbol")
    return Alphabet(empty=symbols["empty"], input=tuple(symbols["input"]),
                    internal=tuple(symbols["internal"]))


def parse_transitions_file(text: str) -> tuple[list[Rule], list[Rule]]:
    """Parse transition rows into (program rules, fault rules).

    Row grammar: `[fault] <from> <read> -> <to> <write> <L|R|N> [*]`.
    A trailing `*` marks a checkpoint; `fault` and `*` together are rejected.
    Whether the states, symbols and move exist is left to machine validation.
    """
    delta: list[Rule] = []
    gamma: list[Rule] = []
    for number, tokens in _content_lines(text):
        is_fault = tokens[0] == "fault"
        if is_fault:
            tokens = tokens[1:]
        is_checkpoint = bool(tokens) and tokens[-1] == "*"
        if is_checkpoint:
            tokens = tokens[:-1]
        if is_fault and is_checkpoint:
            raise DefinitionError("a fault rule cannot be a checkpoint", line=number)
        if len(tokens) != 6 or tokens[2] != ARROW:
            raise DefinitionError(
                "expected `[fault] <from> <read> -> <to> <write> <L|R|N> [*]`", line=number)
        from_state, read, _, to_state, write, move = tokens
        rule = Rule(from_state, read, to_state, write, move, checkpoint=is_checkpoint)
        (gamma if is_fault else delta).append(rule)
    return delta, gamma


def parse_word_file(text: str, alphabet: Alphabet) -> tuple[str, ...]:
    """Parse an input word: one content line, symbols whitespace-separated.

    A file with no content lines denotes the empty word; a second content
    line is an error. Every symbol must belong to the input alphabet.
    """
    lines = _content_lines(text)
    if not lines:
        return ()
    if len(lines) > 1:
        raise DefinitionError("the input word must be on one line", line=lines[1][0])
    number, tokens = lines[0]
    for sym in tokens:
        if sym not in alphabet.input:
            raise DefinitionError(f"unknown symbol {sym!r} in input word", line=number)
    return tuple(tokens)


@dataclass(frozen=True)
class MetafileEntry:
    description_file: str
    n_master_tapes: int
    states_file: str
    alphabet_file: str
    transitions_file: str
    input_word_files: tuple[str, ...]


def parse_metafile(text: str) -> list[MetafileEntry]:
    """Parse a metafile into its rows. Paths are kept as written."""
    entries = []
    for number, tokens in _content_lines(text):
        if len(tokens) < 6:
            raise DefinitionError("metafile row needs at least 6 fields", line=number)
        n_master = _count(tokens[1], "master-tape count", number)
        if n_master < 1:
            raise DefinitionError("master-tape count must be positive", line=number)
        word_files = tuple(tokens[5:])
        if len(word_files) != n_master:
            raise DefinitionError(
                f"expected {n_master} input word file(s), found {len(word_files)}", line=number)
        entries.append(MetafileEntry(tokens[0], n_master, *tokens[2:5], word_files))
    if not entries:
        raise DefinitionError("metafile contains no rows")
    return entries


def parse_script_file(text: str) -> ScriptPolicy:
    """Parse a schedule file: one `<step> <active|aggressive>` per line."""
    schedule: dict[int, str] = {}
    for number, tokens in _content_lines(text):
        if len(tokens) != 2:
            raise DefinitionError("expected `<step> <active|aggressive>`", line=number)
        step = _count(tokens[0], "step index", number)
        if tokens[1] not in (ACTIVE, AGGRESSIVE):
            raise DefinitionError(f"bad choice {tokens[1]!r}", line=number)
        if step in schedule:
            raise DefinitionError(f"duplicate step {step}", line=number)
        schedule[step] = tokens[1]
    return ScriptPolicy(schedule)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DefinitionError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    except UnicodeDecodeError as exc:
        raise DefinitionError(f"not valid UTF-8: {exc.reason}", path=path) from None


def _parse_file(path: str, parse, *args):
    """`parse(text, *args)` on the file at `path`; a DefinitionError it
    raises is re-raised naming `path`."""
    text = _read_text(path)
    try:
        return parse(text, *args)
    except DefinitionError as exc:
        raise DefinitionError(exc.message, path=path, line=exc.line) from None


def load_machine(metafile_path: str, row: int = 0) -> tuple[ValidatedMachine, tuple[str, ...]]:
    """Load and validate the machine selected by one metafile row.

    Returns the validated machine and its input word. File paths in the
    metafile are resolved relative to the metafile's directory. A parse
    error names its file; a ValidationError propagates as-is, with every
    issue of the definition.
    """
    entries = _parse_file(metafile_path, parse_metafile)
    if not 0 <= row < len(entries):
        raise DefinitionError(f"metafile has {len(entries)} row(s), row {row} requested",
                              path=metafile_path)
    entry = entries[row]
    base = os.path.dirname(os.path.abspath(metafile_path))
    if entry.n_master_tapes != 1:
        raise DefinitionError("unsupported: multiple master tapes", path=metafile_path)

    def resolve(name: str) -> str:
        return os.path.join(base, name)

    description = _read_text(resolve(entry.description_file))
    initial, halting, internal = _parse_file(resolve(entry.states_file), parse_states_file)
    alphabet = _parse_file(resolve(entry.alphabet_file), parse_alphabet_file)
    delta, gamma = _parse_file(resolve(entry.transitions_file), parse_transitions_file)
    word = _parse_file(resolve(entry.input_word_files[0]), parse_word_file, alphabet)

    raw = BasicMachine(
        states=(initial, halting, *internal),
        initial=initial,
        halting=halting,
        alphabet=alphabet,
        delta=tuple(delta),
        gamma=tuple(gamma),
        description=description,
    )
    return validate_machine(raw), word


def load_script(path: str) -> ScriptPolicy:
    """Load a schedule file for the script daemon. A parse error names the
    file."""
    return _parse_file(path, parse_script_file)
