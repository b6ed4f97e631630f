"""The marker invariant at every step of the corpus sweeps (ROADMAP item 12,
its marker part).

The stage programs find cell 0 of a tape by its marker: rewinds stop on it,
and a rewind that finds none moves left from cell 0 and jams. So after every
step, cell 0 of the master, backup and user tapes holds `!`, and cell 0 of
the two position tapes holds `!`, or `!+` when the checkpointed master head
is at cell 0 (`conftest.broken_marker`). This runs the single fault and
single failure sweeps of every corpus machine at its corpus word. The step
limit cuts the live-locks that `diverge` (criterion 7a) and `palin` (ROADMAP
item 15) run into.
"""

import pytest

from tmfsim import ScriptPolicy, init_configuration, run

from conftest import MACHINE_NAMES, marker_monitor

MAX_STEPS = 5_000


@pytest.mark.parametrize("choice", ["active", "aggressive"])
@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_every_step_of_a_corpus_sweep_keeps_every_marker(compiled_corpus, name, choice):
    compiled, word = compiled_corpus[name]
    baseline, _ = run(init_configuration(compiled, word))
    assert baseline.outcome == "shutdown"
    broken = {}
    for k in range(baseline.steps_used):
        found = []
        cfg = init_configuration(compiled, word, ScriptPolicy({k: choice}))
        run(cfg, max_steps=MAX_STEPS, monitor=marker_monitor(found))
        if found:
            broken[k] = found[0]
    assert not broken
