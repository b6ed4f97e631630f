"""Parsers and renderers for the machine definition files.

A machine is described by a metafile whose rows name the other files:

    <description-file> <n-master-tapes> <states-file> <alphabet-file> \
        <transitions-file> <word-file>...

All formats are line oriented and UTF-8. Tokens are separated by whitespace,
`#` starts a comment, blank lines are ignored, LF and CRLF both work. See the
README for the full grammar of each file kind. The parsers read syntax only;
what the tokens mean (reserved or repeated symbols, unknown states and
symbols, moves) is checked once, by `model.validate_machine`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .model import (
    ARROW,
    Alphabet,
    BasicMachine,
    Rule,
    ValidatedMachine,
    validate_machine,
)


class DefinitionError(Exception):
    """A definition file could not be read or parsed.

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


def parse_states_file(text: str) -> tuple[str, str, list[str]]:
    """Parse a states file into (initial, halting, internal states).

    Exactly one `initial` and one `halting` line are required; `internal`
    lines may repeat and accumulate.
    """
    initial: str | None = None
    halting: str | None = None
    internal: list[str] = []
    for number, tokens in _content_lines(text):
        keyword, names = tokens[0], tokens[1:]
        if keyword == "initial":
            if initial is not None:
                raise DefinitionError("duplicate section: initial", line=number)
            if len(names) != 1:
                raise DefinitionError("initial expects exactly one state name", line=number)
            initial = names[0]
        elif keyword == "halting":
            if halting is not None:
                raise DefinitionError("duplicate section: halting", line=number)
            if len(names) != 1:
                raise DefinitionError("halting expects exactly one state name", line=number)
            halting = names[0]
        elif keyword == "internal":
            internal.extend(names)
        else:
            raise DefinitionError(f"bad token {keyword!r}, expected initial/halting/internal",
                                  line=number)
    if initial is None:
        raise DefinitionError("missing section: initial")
    if halting is None:
        raise DefinitionError("missing section: halting")
    return initial, halting, internal


def parse_alphabet_file(text: str) -> Alphabet:
    """Parse an alphabet file into an Alphabet.

    Lines are `empty <sym>`, `input <sym>...`, `internal <sym>...`.
    """
    empty: str | None = None
    input_symbols: list[str] = []
    internal_symbols: list[str] = []
    for number, tokens in _content_lines(text):
        keyword, symbols = tokens[0], tokens[1:]
        if keyword == "empty":
            if empty is not None:
                raise DefinitionError("duplicate section: empty", line=number)
            if len(symbols) != 1:
                raise DefinitionError("empty expects exactly one symbol", line=number)
            empty = symbols[0]
        elif keyword == "input":
            input_symbols.extend(symbols)
        elif keyword == "internal":
            internal_symbols.extend(symbols)
        else:
            raise DefinitionError(f"bad token {keyword!r}, expected empty/input/internal",
                                  line=number)
    if empty is None:
        raise DefinitionError("missing section: empty")
    return Alphabet(empty=empty, input=tuple(input_symbols), internal=tuple(internal_symbols))


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
    """Parse an input word: the first content line, symbols whitespace-separated.

    A file with no content lines denotes the empty word. Every symbol must
    belong to the input alphabet.
    """
    lines = _content_lines(text)
    if not lines:
        return ()
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
        try:
            n_master = int(tokens[1])
        except ValueError:
            raise DefinitionError(f"bad master-tape count {tokens[1]!r}", line=number) from None
        if n_master < 1:
            raise DefinitionError("master-tape count must be positive", line=number)
        word_files = tuple(tokens[5:])
        if len(word_files) != n_master:
            raise DefinitionError(
                f"expected {n_master} input word file(s), found {len(word_files)}", line=number)
        entries.append(MetafileEntry(
            description_file=tokens[0],
            n_master_tapes=n_master,
            states_file=tokens[2],
            alphabet_file=tokens[3],
            transitions_file=tokens[4],
            input_word_files=word_files,
        ))
    if not entries:
        raise DefinitionError("metafile contains no rows")
    return entries


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DefinitionError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    except UnicodeDecodeError as exc:
        raise DefinitionError(f"not valid UTF-8: {exc.reason}", path=path) from None


def load_machine(metafile_path: str, row: int = 0) -> tuple[ValidatedMachine, tuple[str, ...]]:
    """Load and validate the machine selected by one metafile row.

    Returns the validated machine and its input word. File paths in the
    metafile are resolved relative to the metafile's directory. A parse
    error is re-raised annotated with its source file; a ValidationError
    propagates as-is, with every issue of the definition.
    """
    entries = parse_metafile(_read_text(metafile_path))
    if not 0 <= row < len(entries):
        raise DefinitionError(f"metafile has {len(entries)} row(s), row {row} requested",
                              path=metafile_path)
    entry = entries[row]
    base = os.path.dirname(os.path.abspath(metafile_path))
    if entry.n_master_tapes != 1:
        raise DefinitionError("unsupported: multiple master tapes", path=metafile_path)

    def parse(name: str, parser, *args):
        path = os.path.join(base, name)
        try:
            return parser(_read_text(path), *args)
        except DefinitionError as exc:
            raise DefinitionError(exc.message, path=path, line=exc.line) from None

    description = _read_text(os.path.join(base, entry.description_file))
    initial, halting, internal = parse(entry.states_file, parse_states_file)
    alphabet = parse(entry.alphabet_file, parse_alphabet_file)
    delta, gamma = parse(entry.transitions_file, parse_transitions_file)
    word = parse(entry.input_word_files[0], parse_word_file, alphabet)

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


def render_states_file(machine: BasicMachine) -> str:
    internal = [s for s in machine.states if s not in (machine.initial, machine.halting)]
    lines = [f"initial {machine.initial}", f"halting {machine.halting}"]
    if internal:
        lines.append("internal " + " ".join(internal))
    return "\n".join(lines) + "\n"


def render_alphabet_file(machine: BasicMachine) -> str:
    alpha = machine.alphabet
    lines = [f"empty {alpha.empty}"]
    if alpha.input:
        lines.append("input " + " ".join(alpha.input))
    if alpha.internal:
        lines.append("internal " + " ".join(alpha.internal))
    return "\n".join(lines) + "\n"


def render_transitions_file(machine: BasicMachine) -> str:
    lines = [rule.render() for rule in machine.delta]
    lines += ["fault " + rule.render() for rule in machine.gamma]
    return "\n".join(lines) + "\n"


def render_word_file(word: tuple[str, ...]) -> str:
    return " ".join(word) + "\n"
