"""Golden digest of everything a run makes observable.

One sha256 covers the `compile` listing, the full trace with tape digests and
the `RunResult` of every corpus row, both single-event sweeps (fault sweep on
`succ`, failure sweep on `unary`, at the corpus words), and seeded random runs
of every machine with and without failure masking. A change that is meant to
leave behaviour alone must leave this digest alone; a change that alters
behaviour on purpose updates GOLDEN_SHA256 and says why.
"""

import hashlib

from tmfsim import (
    RandomPolicy,
    ScriptPolicy,
    compile_machine,
    emit_pi,
    init_configuration,
    load_machine,
    render_trace,
    run,
)

from conftest import CORPUS

GOLDEN_SHA256 = "9265c7dec94f5b96497d3c1dd701bd4ef60d4c2cc8bcad90ad3bf257049a2a66"

ROWS = 4                  # rows of corpus/all.meta: unary, succ, palin, diverge
SWEEPS = ((1, "active"), (0, "aggressive"))   # (row, daemon choice)
SEEDS = range(10)
RANDOM_MAX_STEPS = 2_000  # some unmasked runs live-lock; cap them cheaply


def golden_digest() -> str:
    digest = hashlib.sha256()

    def add(result, records):
        digest.update(repr(result).encode())
        digest.update(render_trace(records).encode())

    rows = [load_machine(str(CORPUS / "all.meta"), row=row) for row in range(ROWS)]
    machines = [(compile_machine(machine), word) for machine, word in rows]

    for compiled, word in machines:
        digest.update(emit_pi(compiled).encode())
        add(*run(init_configuration(compiled, word, ScriptPolicy({})), with_digests=True))

    for row, choice in SWEEPS:
        compiled, word = machines[row]
        baseline, _ = run(init_configuration(compiled, word, ScriptPolicy({})))
        for k in range(baseline.steps_used):
            add(*run(init_configuration(compiled, word, ScriptPolicy({k: choice}))))

    for compiled, word in machines:
        for allow in (False, True):
            for seed in SEEDS:
                cfg = init_configuration(compiled, word, RandomPolicy(0.05, 0.01, seed), allow)
                add(*run(cfg, max_steps=RANDOM_MAX_STEPS, with_digests=True))

    return digest.hexdigest()


def test_observable_output_matches_golden_digest():
    assert golden_digest() == GOLDEN_SHA256
