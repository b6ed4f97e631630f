"""Core domain types: tapes, alphabets, rules, machines, and static validation.

Symbols are plain whitespace-free string tokens. Two tokens are reserved and
may never be declared in an alphabet: the left marker "!" that occupies cell 0
of every tape, and the arrow "->" used by the rule syntax. The auxiliary
position-tracking tapes use the fixed alphabet {"!", empty, "+"}.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import NamedTuple

MARKER = "!"
PLUS = "+"
ARROW = "->"
RESERVED_TOKENS = (MARKER, ARROW)

MOVES = ("L", "R", "N")

# Daemon choices.
PASSIVE, ACTIVE, AGGRESSIVE = "passive", "active", "aggressive"


class JamError(Exception):
    """The machine can make no further progress (surfaced as a jammed run)."""


class BoundaryViolation(JamError):
    """A head was asked to move left from cell 0 (the marker cell)."""


def check_symbol_token(token: str) -> str | None:
    """Return a complaint for an illegal user-declared symbol token, else None."""
    if not token:
        return "empty symbol token"
    if any(ch.isspace() for ch in token):
        return f"symbol {token!r} contains whitespace"
    if token in RESERVED_TOKENS:
        return f"symbol {token!r} is reserved"
    return None


# The one integer syntax of every input: schedules, metafiles, flags, traces.
COUNT_PATTERN = "0|[1-9][0-9]*"


def read_count(text: str) -> int:
    """The integer `text` in `COUNT_PATTERN`'s syntax: `0`, or ASCII digits
    with no sign, separator, space or leading zero. Other text raises
    ValueError: `int()`'s own message for a non-number, else
    `non-canonical integer '<text>'`."""
    if re.fullmatch(COUNT_PATTERN, text) is None:
        int(text)
        raise ValueError(f"non-canonical integer {text!r}")
    return int(text)


@dataclass(frozen=True)
class Alphabet:
    """Tape alphabet split into the user-facing classes.

    The full tape alphabet is {"!", empty} plus the input and internal
    symbols; the three classes plus the reserved pair are pairwise disjoint.
    """

    empty: str
    input: tuple[str, ...] = ()
    internal: tuple[str, ...] = ()

    def full(self) -> tuple[str, ...]:
        return (MARKER, self.empty) + self.input + self.internal


@dataclass(frozen=True)
class Rule:
    """One transition: (from_state, read) -> (to_state, write, move).

    checkpoint=True marks a normal rule whose application triggers the
    verify-and-backup sequence; the flag is illegal on fault rules.
    """

    from_state: str
    read: str
    to_state: str
    write: str
    move: str
    checkpoint: bool = False

    def key(self) -> tuple[str, str]:
        return (self.from_state, self.read)

    def render(self) -> str:
        text = f"{self.from_state} {self.read} -> {self.to_state} {self.write} {self.move}"
        if self.checkpoint:
            text += " *"
        return text


@dataclass(frozen=True)
class BasicMachine:
    """A single-tape deterministic machine plus checkpoint marks and fault rules."""

    states: tuple[str, ...]
    initial: str
    halting: str
    alphabet: Alphabet
    delta: tuple[Rule, ...]
    gamma: tuple[Rule, ...] = ()
    description: str | None = None


class ValidationIssue(NamedTuple):
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(Exception):
    """Raised with the full list of violations found in a machine definition."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


@dataclass(frozen=True)
class ValidatedMachine(BasicMachine):
    """A BasicMachine certified to satisfy every static invariant.

    Carries lookup maps keyed by (state, read) so the executor and the
    reference interpreter can resolve transitions in O(1).
    """

    delta_map: dict[tuple[str, str], Rule] = field(repr=False, compare=False, default_factory=dict)
    gamma_map: dict[tuple[str, str], Rule] = field(repr=False, compare=False, default_factory=dict)


def validate_machine(raw: BasicMachine) -> ValidatedMachine:
    """Check every static invariant of a machine definition.

    This is the one place that decides what a definition means: the parser
    reads only its syntax. All violations are collected and reported
    together; a clean machine is returned with its transition lookup maps,
    built from `raw`'s BasicMachine fields, so a ValidatedMachine may be
    validated again.
    """
    issues: list[ValidationIssue] = []

    def bad(code: str, message: str) -> None:
        issues.append(ValidationIssue(code, message))

    alpha = raw.alphabet
    complaint = check_symbol_token(alpha.empty)
    if complaint:
        bad("bad-symbol", f"empty symbol: {complaint}")
    for cls_name, tokens in (("input", alpha.input), ("internal", alpha.internal)):
        for tok in tokens:
            complaint = check_symbol_token(tok)
            if complaint:
                bad("bad-symbol", f"{cls_name} symbol: {complaint}")
    seen: dict[str, str] = {alpha.empty: "empty"}
    for cls_name, tokens in (("input", alpha.input), ("internal", alpha.internal)):
        for tok in tokens:
            if seen.get(tok) == cls_name:
                bad("duplicate-symbol", f"symbol {tok!r} declared twice in {cls_name}")
            elif tok in seen:
                bad("overlapping-classes", f"symbol {tok!r} in both {seen[tok]} and {cls_name}")
            else:
                seen[tok] = cls_name

    # An initial state that is also the halting one is one state in two roles.
    for name, count in Counter(raw.states).items():
        if count > (2 if name == raw.initial == raw.halting else 1):
            bad("duplicate-state", f"state {name!r} declared more than once")

    state_set = set(raw.states)
    for role, name in (("initial", raw.initial), ("halting", raw.halting)):
        if name not in state_set:
            bad("unknown-state", f"{role} state {name!r} not in state list")

    full = set(alpha.full())

    def check_rule(rule: Rule, family: str) -> None:
        for role, name in (("from", rule.from_state), ("to", rule.to_state)):
            if name not in state_set:
                bad("unknown-state", f"{family} rule {rule.render()!r}: {role}-state {name!r} unknown")
        for role, tok in (("read", rule.read), ("write", rule.write)):
            if tok not in full:
                bad("unknown-symbol", f"{family} rule {rule.render()!r}: {role} symbol {tok!r} unknown")
        if rule.move not in MOVES:
            bad("bad-move", f"{family} rule {rule.render()!r}: move must be one of L R N")
        if rule.from_state == raw.halting:
            bad("halting-has-rules", f"{family} rule {rule.render()!r} leaves the halting state")
        if rule.read == MARKER and (rule.write != MARKER or rule.move == "L"):
            bad("marker-violation",
                f"{family} rule {rule.render()!r} overwrites or moves left from {MARKER!r}")
        if rule.read != MARKER and rule.write == MARKER:
            bad("marker-violation",
                f"{family} rule {rule.render()!r} plants a second {MARKER!r} on the tape")

    delta_map: dict[tuple[str, str], Rule] = {}
    for rule in raw.delta:
        check_rule(rule, "program")
        if rule.key() in delta_map:
            bad("duplicate-rule", f"two program rules for ({rule.from_state}, {rule.read})")
        else:
            delta_map[rule.key()] = rule

    gamma_map: dict[tuple[str, str], Rule] = {}
    for rule in raw.gamma:
        check_rule(rule, "fault")
        if rule.checkpoint:
            bad("checkpoint-on-fault", f"fault rule {rule.render()!r} carries a checkpoint mark")
        if rule.key() in gamma_map:
            bad("duplicate-rule", f"two fault rules for ({rule.from_state}, {rule.read})")
        else:
            gamma_map[rule.key()] = rule
        normal = delta_map.get(rule.key())
        if normal is not None and (normal.to_state, normal.write, normal.move) == (
                rule.to_state, rule.write, rule.move):
            bad("fault-equals-normal",
                f"fault rule for ({rule.from_state}, {rule.read}) duplicates the program rule")

    if issues:
        raise ValidationError(issues)
    return ValidatedMachine(**{f.name: getattr(raw, f.name) for f in fields(BasicMachine)},
                            delta_map=delta_map, gamma_map=gamma_map)


class Tape:
    """Semi-infinite tape: cell 0 holds "!", cells grow rightward on demand.

    Reading past the allocated region yields the empty symbol without
    allocating; writing allocates. `allocated` exposes the written extent so
    scans over uniformly-filled tapes can detect exhaustion.

    Cells change only through `write()`: `digest` caches the trace digest of
    `cells` (filled by `trace.digest_tapes`), and `write()` clears it. Code
    that edits or replaces `cells` directly must reset `digest` to None.
    """

    __slots__ = ("cells", "head", "empty", "digest")

    def __init__(self, empty: str, content: tuple[str, ...] | list[str] = (), head: int = 1):
        self.empty = empty
        self.cells: list[str] = [MARKER, *content]
        self.head = head
        self.digest: str | None = None

    @property
    def allocated(self) -> int:
        return len(self.cells)

    def read(self) -> str:
        if self.head < len(self.cells):
            return self.cells[self.head]
        return self.empty

    def write(self, symbol: str) -> None:
        if self.head >= len(self.cells):
            self.cells.extend([self.empty] * (self.head + 1 - len(self.cells)))
        self.cells[self.head] = symbol
        self.digest = None

    def move(self, direction: str) -> None:
        if direction == "R":
            self.head += 1
        elif direction == "L":
            if self.head == 0:
                raise BoundaryViolation("head moved left from cell 0")
            self.head -= 1

    def apply(self, write: str, move: str) -> None:
        """Write under the head, then move one cell."""
        self.write(write)
        self.move(move)

    def word(self) -> tuple[str, ...]:
        """Content from cell 1 up to (excluding) the first empty symbol."""
        out = []
        for sym in self.cells[1:]:
            if sym == self.empty:
                break
            out.append(sym)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tape):
            return NotImplemented
        return self.cells == other.cells and self.head == other.head and self.empty == other.empty

    def __repr__(self) -> str:
        return f"Tape({' '.join(self.cells)} @{self.head})"


# Program-control variants. Stage #1 is represented by UserControl; the stage
# records cover only the embedded machinery (#2..#7). A control renders its
# text once, when built, and interns it, so trace records with equal control
# text share one string.

@dataclass(frozen=True)
class UserControl:
    state: str
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text", sys.intern(f"user:{self.state}"))

    def render(self) -> str:
        return self._text


@dataclass(frozen=True)
class StageControl:
    stage: int
    micro_pc: int
    resume: str
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text",
                           sys.intern(f"stage:{self.stage}/{self.micro_pc}/{self.resume}"))

    def render(self) -> str:
        return self._text


class ShutdownControl:
    __slots__ = ()

    def render(self) -> str:
        return "shutdown"
