"""Daemon decision policies: the per-step choice of passive/active/aggressive.

The daemon's choice is the only non-deterministic element of a run, so every
policy here is reproducible: a scripted schedule or a seeded generator. The
fault-free daemon is the empty schedule, `ScriptPolicy({})`. Masking can
downgrade aggressive choices while the run is inside a backup-critical stage;
a masked draw is still consumed so the random stream never shifts.
"""

from __future__ import annotations

import random

from .model import ACTIVE, AGGRESSIVE, PASSIVE


class ScriptPolicy:
    """Explicit schedule: step index -> active|aggressive, passive elsewhere.
    The empty schedule is the fault-free daemon."""

    def __init__(self, schedule: dict[int, str]):
        for step, choice in schedule.items():
            if step < 0:
                raise ValueError(f"negative step index {step}")
            if choice not in (ACTIVE, AGGRESSIVE):
                raise ValueError(f"schedule value must be active or aggressive, got {choice!r}")
        self.schedule = dict(schedule)

    def choose(self, step_index: int) -> str:
        return self.schedule.get(step_index, PASSIVE)


class RandomPolicy:
    """Seeded random choice: active with p_fault, aggressive with p_failure.

    One draw is made per step in a fixed order regardless of masking, so two
    runs with the same seed see the same stream.
    """

    def __init__(self, p_fault: float, p_failure: float, seed: int):
        if not (p_fault >= 0 and p_failure >= 0 and p_fault + p_failure <= 1):
            raise ValueError("need p_fault, p_failure >= 0 and p_fault + p_failure <= 1")
        if seed < 0:
            # `random.Random` seeds an int by its absolute value.
            raise ValueError(f"seed must not be negative: {seed}")
        self.p_fault = p_fault
        self.p_failure = p_failure
        self._rng = random.Random(seed)

    def choose(self, step_index: int) -> str:
        draw = self._rng.random()
        if draw < self.p_fault:
            return ACTIVE
        if draw < self.p_fault + self.p_failure:
            return AGGRESSIVE
        return PASSIVE


DaemonPolicy = ScriptPolicy | RandomPolicy


def decide(policy: DaemonPolicy, step_index: int, in_critical_section: bool,
           allow_failure_in_critical: bool) -> tuple[str, bool]:
    """One daemon decision. Returns (choice, downgraded).

    The raw draw happens first; if it was aggressive inside a critical
    section and `allow_failure_in_critical` is off, the effective choice is
    passive and the downgrade flag is set for the trace. A failure there can
    corrupt the recovery target itself, after which the run may never
    converge.
    """
    choice = policy.choose(step_index)
    if choice == AGGRESSIVE and in_critical_section and not allow_failure_in_critical:
        return PASSIVE, True
    return choice, False

