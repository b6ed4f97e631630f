"""The marker invariant at every step of the corpus sweeps (ROADMAP item 12,
its marker part).

The stage programs find cell 0 of a tape by its marker: rewinds stop on it,
and a rewind that finds none moves left from cell 0 and jams. So after every
step, cell 0 of the master, backup and user tapes holds `!`, and cell 0 of
the two position tapes holds `!`, or `!+` when the checkpointed master head
is at cell 0 (`conftest.broken_marker`). This runs the single fault and
single failure sweeps of every corpus machine at its corpus word, and of
`succ` at `1 1 1`, whose carry reaches cell 0 (`qc ! -> qov ! R`) in every
run. The step limit cuts the live-locks that `diverge` (criterion 7a) and
`palin` (ROADMAP item 15) run into.
"""

import pytest

from tmfsim.cli import sweep

from conftest import MACHINE_NAMES, marker_monitor

MAX_STEPS = 5_000


@pytest.mark.parametrize("choice", ["active", "aggressive"])
@pytest.mark.parametrize("name, word", [*((name, None) for name in MACHINE_NAMES),
                                        ("succ", ("1", "1", "1"))],
                         ids=[*MACHINE_NAMES, "succ-111"])
def test_every_step_of_a_corpus_sweep_keeps_every_marker(compiled_corpus, name, word, choice):
    compiled, corpus_word = compiled_corpus[name]
    found = []
    baseline, runs = sweep(compiled, word or corpus_word, choice, MAX_STEPS,
                           monitor=marker_monitor(found))
    assert (baseline.outcome, found) == ("shutdown", [])
    assert [(k, found.pop()) for k, *_ in runs if found] == []
