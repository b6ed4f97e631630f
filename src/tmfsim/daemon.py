"""Daemon decision policies: the per-step choice of passive/active/aggressive.

The daemon's choice is the only non-deterministic element of a run, so every
policy here is reproducible: a scripted schedule, a seeded generator, or the
constant passive policy. Masking can downgrade aggressive choices while the
run is inside a backup-critical stage; a masked draw is still consumed so the
random stream never shifts.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .model import ACTIVE, AGGRESSIVE, PASSIVE


class MaskConfig(NamedTuple):
    """Whether failures may strike while the backup tapes are being written.

    A failure inside the backup/recovery stages can corrupt the recovery
    target itself, after which the run may never converge; by default such
    choices are downgraded to passive.
    """

    allow_failure_in_critical: bool = False


class AlwaysPassive:
    """Fault-free baseline: every choice is passive."""

    def choose(self, step_index: int) -> str:
        return PASSIVE


class ScriptPolicy:
    """Explicit schedule: step index -> active|aggressive, passive elsewhere."""

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


DaemonPolicy = AlwaysPassive | ScriptPolicy | RandomPolicy


def decide(policy: DaemonPolicy, step_index: int, in_critical_section: bool,
           mask: MaskConfig) -> tuple[str, bool]:
    """One daemon decision. Returns (choice, downgraded).

    The raw draw happens first; if it was aggressive inside a critical
    section and the mask forbids that, the effective choice is passive and
    the downgrade flag is set for the trace.
    """
    choice = policy.choose(step_index)
    if (choice == AGGRESSIVE and in_critical_section
            and not mask.allow_failure_in_critical):
        return PASSIVE, True
    return choice, False

