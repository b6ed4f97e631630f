import pathlib

import pytest

from tmfsim import compile_machine, load_machine
from tmfsim.model import Tape

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


def tapes_equal_to_terminator(a: Tape, b: Tape, stop: str) -> bool:
    """Cell-wise equality from cell 0 up to the first shared `stop` symbol.

    Mirrors the scan comparison the stage machinery performs: content beyond
    the terminator is invisible.
    """
    i = 0
    while True:
        sa = a.cells[i] if i < len(a.cells) else a.empty
        sb = b.cells[i] if i < len(b.cells) else b.empty
        if sa != sb:
            return False
        if sa == stop:
            return True
        if i >= len(a.cells) and i >= len(b.cells):
            return True
        i += 1


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
