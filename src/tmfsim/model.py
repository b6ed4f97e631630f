"""Core domain types: tapes, alphabets, rules, machines, and static validation.

The program controls, and the stage programs they run, are in `stages`.

Symbols are plain whitespace-free string tokens. Two tokens are reserved and
may never be declared in an alphabet: the left marker "!" that occupies cell 0
of every tape, and the arrow "->" used by the rule syntax. The auxiliary
position-tracking tapes use the fixed alphabet {"!", empty, "+"}.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple

MARKER = "!"
PLUS = "+"
# Cell 0 of a position-tracking tape when it also carries the position mark.
MARKER_PLUS = "!+"
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
COUNT_PATTERN = re.compile("0|[1-9][0-9]*")


def read_count(text: str) -> int:
    """The integer `text` in `COUNT_PATTERN`'s syntax: `0`, or ASCII digits
    with no sign, separator, space or leading zero. Other text raises
    ValueError: `int()`'s own message for a non-number, else
    `non-canonical integer '<text>'`."""
    if COUNT_PATTERN.fullmatch(text) is None:
        int(text)
        raise ValueError(f"non-canonical integer {text!r}")
    return int(text)


class ReadOnly:
    """Base of the slotted classes whose instances are shared once built:
    alphabets, rules, machines, stage ops and compiled machines. `__init__`
    fills each slot through `object.__setattr__`; any later assignment or
    deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(ReadOnly):
    """Tape alphabet split into the user-facing classes.

    The full tape alphabet is {"!", empty} plus the input and internal
    symbols; the three classes plus the reserved pair are pairwise disjoint.
    Two alphabets are equal when their three classes are.
    """

    __slots__ = ("empty", "input", "internal")

    def __init__(self, empty: str, input: tuple[str, ...] = (),
                 internal: tuple[str, ...] = ()):
        object.__setattr__(self, "empty", empty)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "internal", internal)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return (self.empty, self.input, self.internal) == (other.empty, other.input, other.internal)

    def full(self) -> tuple[str, ...]:
        return (MARKER, self.empty) + self.input + self.internal


class Rule(ReadOnly):
    """One transition: (from_state, read) -> (to_state, write, move).

    checkpoint=True marks a normal rule whose application triggers the
    verify-and-backup sequence; the flag is illegal on fault rules.
    """

    __slots__ = ("from_state", "read", "to_state", "write", "move", "checkpoint")

    def __init__(self, from_state: str, read: str, to_state: str, write: str, move: str,
                 checkpoint: bool = False):
        object.__setattr__(self, "from_state", from_state)
        object.__setattr__(self, "read", read)
        object.__setattr__(self, "to_state", to_state)
        object.__setattr__(self, "write", write)
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "checkpoint", checkpoint)

    def key(self) -> tuple[str, str]:
        return (self.from_state, self.read)

    def render(self) -> str:
        text = f"{self.from_state} {self.read} -> {self.to_state} {self.write} {self.move}"
        if self.checkpoint:
            text += " *"
        return text


class BasicMachine(ReadOnly):
    """A single-tape deterministic machine plus checkpoint marks and fault rules."""

    # Also the field names `validate_machine` copies into a ValidatedMachine.
    __slots__ = ("states", "initial", "halting", "alphabet", "delta", "gamma", "description")

    def __init__(self, states: tuple[str, ...], initial: str, halting: str, alphabet: Alphabet,
                 delta: tuple[Rule, ...], gamma: tuple[Rule, ...] = (),
                 description: str | None = None):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "halting", halting)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "description", description)


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


class ValidatedMachine(BasicMachine):
    """A BasicMachine certified to satisfy every static invariant.

    Carries lookup maps keyed by (state, read) so the executor and the
    reference interpreter can resolve transitions in O(1). Only
    `validate_machine` builds one, and it passes both maps.
    """

    __slots__ = ("delta_map", "gamma_map")

    def __init__(self, states: tuple[str, ...], initial: str, halting: str, alphabet: Alphabet,
                 delta: tuple[Rule, ...], gamma: tuple[Rule, ...] = (),
                 description: str | None = None, *,
                 delta_map: dict[tuple[str, str], Rule],
                 gamma_map: dict[tuple[str, str], Rule]):
        super().__init__(states, initial, halting, alphabet, delta, gamma, description)
        object.__setattr__(self, "delta_map", delta_map)
        object.__setattr__(self, "gamma_map", gamma_map)


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
    return ValidatedMachine(*(getattr(raw, name) for name in BasicMachine.__slots__),
                            delta_map=delta_map, gamma_map=gamma_map)


class Tape:
    """Semi-infinite tape: cell 0 holds "!", cells grow rightward on demand.

    Reading past the allocated region yields the empty symbol without
    allocating; writing allocates. `len(cells)` is the written extent, where
    scans over uniformly-filled tapes detect exhaustion.

    Cells change only through `write()`: `digest` caches the trace digest of
    `cells` (filled by `trace.digest_tapes`), and a `write()` that changes
    the cells, by a new symbol or by growing them, clears it. Code that edits
    or replaces `cells` directly must reset `digest` to None.
    """

    __slots__ = ("cells", "head", "empty", "digest")

    def __init__(self, empty: str, content: tuple[str, ...] | list[str] = (), head: int = 1):
        self.empty = empty
        self.cells: list[str] = [MARKER, *content]
        self.head = head
        self.digest: str | None = None

    def read(self) -> str:
        if self.head < len(self.cells):
            return self.cells[self.head]
        return self.empty

    def write(self, symbol: str) -> None:
        if self.head >= len(self.cells):
            self.cells.extend([self.empty] * (self.head + 1 - len(self.cells)))
        elif self.cells[self.head] == symbol:
            return
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
