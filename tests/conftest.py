import pathlib
import random
from collections import Counter

import pytest

from tmfsim import compile_machine, load_machine
from tmfsim.model import (
    MARKER,
    MARKER_PLUS,
    PLUS,
    Alphabet,
    BasicMachine,
    JamError,
    Rule,
    StageControl,
    Tape,
    UserControl,
    validate_machine,
)
from tmfsim.stages import (
    BACKUP,
    BACKUP_SYNCHRO,
    MASTER,
    POSITION_MARKS,
    STAGE_PROGRAMS,
    SYNCHRO,
    TAPE_NAMES,
    stage_step,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

MACHINE_NAMES = ("unary", "succ", "palin", "diverge")

# Machines equipped with both fault rules and checkpoint marks; these are the
# ones the fault/failure sweeps run over.
SWEEP_NAMES = ("unary", "succ")


def corpus_meta(name: str) -> str:
    return str(CORPUS / f"{name}.meta")


def write_definition(directory, alphabet="empty b\ninput 1\n", rules="q0 b -> qf b N\n",
                     word="", states="initial q0\nhalting qf\n") -> str:
    """Write a one-row machine definition into `directory`; return its metafile."""
    files = {"m.desc": "demo\n", "m.states": states, "m.alpha": alphabet, "m.rules": rules,
             "m.word": word, "meta": "m.desc 1 m.states m.alpha m.rules m.word\n"}
    for name, text in files.items():
        (directory / name).write_text(text)
    return str(directory / "meta")


def renamed_machine(machine):
    """A copy of `machine` with every state and every symbol but `!` renamed,
    its empty symbol too, so that it shares no name with `machine`."""
    def sym(token):
        return token if token == MARKER else f"{token}_"

    def rule(r):
        return Rule(f"{r.from_state}_", sym(r.read), f"{r.to_state}_", sym(r.write), r.move,
                    r.checkpoint)

    alphabet = machine.alphabet
    return validate_machine(BasicMachine(
        tuple(f"{state}_" for state in machine.states), f"{machine.initial}_",
        f"{machine.halting}_",
        Alphabet(sym(alphabet.empty), tuple(map(sym, alphabet.input)),
                 tuple(map(sym, alphabet.internal))),
        tuple(map(rule, machine.delta)), tuple(map(rule, machine.gamma))))


def _where(control, resume: str):
    """A control named without the machine's names: (stage, micro_pc) for a
    stage control, "resume" for the user control of `resume`."""
    if isinstance(control, StageControl):
        assert control.resume == resume
        return (control.stage, control.micro_pc)
    return "resume" if control == UserControl(resume) else control.text


def control_graph(compiled, resume: str) -> dict:
    """(stage, micro_pc) -> (op, exits named as by `_where`) of each stage
    control `compiled` resolves for `resume`."""
    return {(stage, pc): (control.op, [_where(exit, resume) for exit in control.exits])
            for stage, ops in STAGE_PROGRAMS.items() for pc in range(len(ops))
            for control in (compiled.controls[stage, pc, resume],)}


def stage_patterns(count: int, seed: int) -> list:
    """`count` seeded tape patterns, (cell 0, cells from 1, head) for each of
    the five tapes, over E (the empty symbol), X and Y (two other symbols)
    and, on the position tapes, E and `+` under either marker symbol."""
    rng = random.Random(seed)
    patterns = []
    for _ in range(count):
        tapes = []
        for index in range(5):
            position = index in (SYNCHRO, BACKUP_SYNCHRO)
            cells = tuple(rng.choice(("E", PLUS) if position else ("E", "X", "Y"))
                          for _ in range(rng.randint(0, 3)))
            zero = rng.choice((MARKER, MARKER_PLUS)) if position else MARKER
            tapes.append((zero, cells, rng.randint(0, len(cells) + 1)))
        patterns.append(tuple(tapes))
    return patterns


def stage_walk(compiled, resume: str, stage: int, pattern, limit: int = 300) -> list:
    """Drive stage micro-steps from `stage`'s entry over the tapes `pattern`
    gives, with E, X and Y as `compiled`'s empty and first two other
    symbols, until control leaves the stage machinery, a jam or `limit`
    steps. The walk in names every machine shares: each step's action,
    control (as by `_where`) and heads, then the jam, if any, and the
    cells in pattern symbols."""
    alphabet = compiled.base.alphabet
    names = dict(zip("EXY", (alphabet.empty, *(alphabet.input + alphabet.internal)[:2])))
    letters = {symbol: letter for letter, symbol in names.items()}
    tapes = [Tape(alphabet.empty, tuple(names.get(cell, cell) for cell in cells), head)
             for _, cells, head in pattern]
    for tape, (zero, _, _) in zip(tapes, pattern):
        tape.cells[0] = zero
    control = compiled.controls[stage, 0, resume]
    walk = []
    try:
        while isinstance(control, StageControl) and len(walk) < limit:
            control, action = stage_step(control, tapes)
            walk.append((action, _where(control, resume), tuple(tape.head for tape in tapes)))
    except JamError as exc:
        walk.append(type(exc).__name__)
    walk.append([[letters.get(cell, cell) for cell in tape.cells] for tape in tapes])
    return walk


def tapes_equal_to_terminator(a: Tape, b: Tape, stop: str) -> bool:
    """Cell-wise equality from cell 0 up to the first shared `stop` symbol,
    the empty symbol or `+`; a `+` scan also stops on `!+`.

    Mirrors the scan comparison the stage machinery performs: content beyond
    the terminator is invisible.
    """
    stops = POSITION_MARKS if stop == PLUS else (stop,)
    i = 0
    while True:
        sa = a.cells[i] if i < len(a.cells) else a.empty
        sb = b.cells[i] if i < len(b.cells) else b.empty
        if sa != sb:
            return False
        if sa in stops:
            return True
        if i >= len(a.cells) and i >= len(b.cells):
            return True
        i += 1


def trimmed(cells, empty: str) -> tuple[str, ...]:
    """`cells` without their trailing `empty` cells."""
    cells = tuple(cells)
    while cells and cells[-1] == empty:
        cells = cells[:-1]
    return cells


def master_tape(cfg) -> tuple[str, ...]:
    """The master tape from cell 0, trimmed as `executor.oracle_tape` trims
    the oracle's."""
    return trimmed(cfg.tapes[MASTER].cells, cfg.tapes[MASTER].empty)


def broken_marker(tapes) -> str | None:
    """The marker invariant: cell 0 of the two position tapes holds `!` or
    `!+`, and cell 0 of the master, backup and user tapes holds `!`. Names
    the first tape that breaks it, or returns None."""
    for index, tape in enumerate(tapes):
        cell = tape.cells[0]
        if cell != MARKER and not (cell == MARKER_PLUS and index in (SYNCHRO, BACKUP_SYNCHRO)):
            return f"cell 0 of the {TAPE_NAMES[index]} tape holds {cell!r}"
    return None


def marker_monitor(broken: list):
    """A run monitor that appends to `broken` the first step whose tapes
    break the marker invariant, with what `broken_marker` says of it."""
    def monitor(records, cfg):
        if not broken:
            found = broken_marker(cfg.tapes)
            if found:
                broken.append((cfg.step_index, found))
    return monitor


def step_events(records) -> list[str]:
    """The checkpoint-protocol events of one step, named from the actions of
    its trace records: checkpoint entry, position mark, commit, and the
    verification that hands control back to the user at stage 4 or 6."""
    events = []
    for record in records:
        if record.action == "checkpoint-enter":
            events.append("stage2-entry")
        elif record.action == "micro:mark_plus":
            events.append("stage2-marked")
        elif record.action == "commit":
            events.append("commit")
        elif record.action == "micro:enter_user":
            events.append(f"verified-{record.stage}")
    return events


class InvariantMonitor:
    """Checks the checkpoint protocol at every notable event of a run, as
    named by the actions of each step's trace records."""

    def __init__(self, compiled):
        self.empty = compiled.base.alphabet.empty
        self.counts = Counter()

    def __call__(self, records, cfg):
        for event in step_events(records):
            self.check(event, cfg)

    def check(self, event, cfg):
        self.counts[event] += 1
        synchro = cfg.tapes[SYNCHRO]
        marks = sum(cell in POSITION_MARKS for cell in synchro.cells)
        if event == "stage2-entry":
            assert marks == 0, "stale position mark at check entry"
        elif event == "stage2-marked":
            assert marks == 1, "mark count after marking"
        elif event in ("commit", "verified-4", "verified-6"):
            master, backup = cfg.tapes[MASTER], cfg.tapes[BACKUP]
            backup_synchro = cfg.tapes[BACKUP_SYNCHRO]
            assert tapes_equal_to_terminator(master, backup, self.empty)
            assert tapes_equal_to_terminator(synchro, backup_synchro, PLUS)
            if event != "commit":
                assert synchro.read() in POSITION_MARKS, "master head not on the position mark"
                assert master.head == synchro.head


@pytest.fixture(scope="session")
def corpus():
    """name -> (validated machine, input word from the corpus word file)."""
    return {name: load_machine(corpus_meta(name)) for name in MACHINE_NAMES}


@pytest.fixture(scope="session")
def compiled_corpus(corpus):
    return {name: (compile_machine(machine), word) for name, (machine, word) in corpus.items()}


@pytest.fixture
def unary(compiled_corpus):
    return compiled_corpus["unary"]


@pytest.fixture
def succ(compiled_corpus):
    return compiled_corpus["succ"]


@pytest.fixture
def palin(compiled_corpus):
    return compiled_corpus["palin"]


@pytest.fixture
def diverge(compiled_corpus):
    return compiled_corpus["diverge"]
