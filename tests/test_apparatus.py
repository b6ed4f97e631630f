"""The restore contract of the stage programs, checked by enumeration.

The stage programs are machine independent, so whether backup and restore
are correct is a property of the programs alone (ROADMAP item 18). Each
case runs the real `stage_step`:

- a committed master of up to L cells over `b 0 1`, its head at any cell
  from 1 to L + 1 and the synchro `+` under it, is backed up by stages 3
  and 4 over a stale backup;
- the master is then replaced by any content of up to L cells, as a failure
  may leave it, and the synchro `+` is either kept or erased, as a user
  step erases it;
- stages 5 and 6 restore.

The contract: stages 3 and 4 commit, and after stages 5 and 6 the master
cells, trimmed of trailing blanks, and the master head equal the committed
ones.

Two data symbols stand for any alphabet. The ops compare cells only with
each other and with `!`, the empty symbol and `+`, so a run depends on
which cells hold equal symbols, not on which symbols they are, and two data
symbols already give every equal and unequal pair. The stale backup is one
of two: none, or one past every committed content and position. Stage 3
writes the backup through its terminator, and at L = 2 every other stale
backup gives the same outcome in every case.
"""

import itertools

import pytest

from tmfsim.model import (
    PLUS,
    Alphabet,
    BasicMachine,
    Rule,
    StageControl,
    Tape,
    UserControl,
    validate_machine,
)
from tmfsim.stages import MASTER, SYNCHRO, compile_machine, stage_step

from conftest import trimmed

L = 2
EMPTY = "b"
CONTENTS = [cells for n in range(L + 1)
            for cells in itertools.product((EMPTY, "0", "1"), repeat=n)]
HEADS = range(1, L + 2)
STALE = (((), 1), (("1",) * (L + 1), L + 2))   # (backup content, backup "+" cell)
STAGE_STEPS = 200

COMPILED = compile_machine(validate_machine(BasicMachine(
    states=("q0", "qf"), initial="q0", halting="qf",
    alphabet=Alphabet(EMPTY, input=("0", "1")),
    delta=(Rule("q0", EMPTY, "qf", EMPTY, "N"),))))


def position_tape(plus: int, head: int) -> Tape:
    return Tape(EMPTY, (EMPTY,) * (plus - 1) + (PLUS,), head)


def drive(stage: int, tapes) -> int | None:
    """Run stage micro-steps from `stage` until control enters the user
    computation; the commits on the way, or None if it never does."""
    control = StageControl(stage, 0, "q0")
    commits = 0
    for _ in range(STAGE_STEPS):
        result = stage_step(COMPILED, control, tapes)
        commits += result.action == "commit"
        control = result.control
        if isinstance(control, UserControl):
            return commits
    return None


def restore_case(committed, head, stale, failed, erased) -> tuple[int | None, bool]:
    """(commits on the way to the user computation, whether the restore
    rebuilt the committed master) for one case."""
    stale_cells, stale_plus = stale
    tapes = [Tape(EMPTY, committed, head),           # MASTER
             position_tape(head, head),              # SYNCHRO
             Tape(EMPTY, stale_cells, 0),            # BACKUP
             position_tape(stale_plus, 0),           # BACKUP_SYNCHRO
             Tape(EMPTY)]                            # USER
    commits = drive(3, tapes)
    tapes[MASTER] = Tape(EMPTY, failed, head)
    if erased:
        tapes[SYNCHRO].head = head
        tapes[SYNCHRO].write(EMPTY)
    restored = (drive(5, tapes) is not None
                and trimmed(tapes[MASTER].cells[1:], EMPTY) == trimmed(committed, EMPTY)
                and tapes[MASTER].head == head)
    return commits, restored


@pytest.fixture(scope="module")
def cases():
    """(committed, head, failed, commits, restored) for every case."""
    return [(committed, head, failed, *restore_case(committed, head, stale, failed, erased))
            for committed, head, stale, failed, erased
            in itertools.product(CONTENTS, HEADS, STALE, CONTENTS, (False, True))]


def item_15_class(committed, failed) -> bool:
    """The committed content has an interior blank, or the master at failure
    holds a non-blank cell two or more cells past the committed content."""
    content = trimmed(committed, EMPTY)
    return EMPTY in content or any(symbol != EMPTY for symbol in failed[len(content) + 1:])


def test_backup_commits_every_master_once(cases):
    assert {commits for *_, commits, _ in cases} == {1}


def test_every_restore_violation_is_an_item_15_class(cases):
    assert all(item_15_class(committed, failed)
               for committed, _, failed, _, restored in cases if not restored)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: the backup ends at the first blank, and the "
                          "restore leaves the master cells past the backup's terminator")
def test_restore_rebuilds_the_committed_master(cases):
    assert all(restored for *_, restored in cases)
