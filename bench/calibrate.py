"""Host-speed calibration for the benchmark's timings.

Shared hosts drift in speed by tens of percent over tens of seconds, which
swamps the differences a benchmark must resolve. A fixed pure-Python kernel
(a small rule-table tape walker that allocates, formats and looks up tuples,
as the simulator does) is run in slices between the measured jobs. Its mean
slice time over `NOMINAL_S` is the host's slowness during that stretch, and
host times are divided by it: a rescaled time is what the work would have
taken on a host where one slice takes exactly `NOMINAL_S`.

The kernel and `NOMINAL_S` never change, so rescaled times of two commits
compare. The raw times are reported beside them.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.01
TAPE = 64
MOVES = 15000

_RULES = {
    ("a", 0): ("b", 1, 1), ("a", 1): ("c", 0, -1),
    ("b", 0): ("a", 1, -1), ("b", 1): ("b", 1, 1),
    ("c", 0): ("a", 1, 1), ("c", 1): ("a", 0, 1),
}


class _Entry:
    __slots__ = ("state", "text")

    def __init__(self, state: str, text: str):
        self.state = state
        self.text = text


def kernel() -> int:
    """One slice of fixed work; returns a checksum so the work is not skipped."""
    tape = [0] * TAPE
    head = TAPE // 2
    state = "a"
    log = []
    for i in range(MOVES):
        state, write, move = _RULES[(state, tape[head])]
        tape[head] = write
        head = (head + move) % TAPE
        log.append(_Entry(state, f"{i}:{head}:{write}"))
    return sum(len(entry.text) for entry in log) + sum(tape) + head


EXPECTED = kernel()


class Speed:
    """Calibration slices taken during one stretch of measurement."""

    def __init__(self):
        self.slices = 0
        self.total_s = 0.0

    def sample(self, slices: int) -> None:
        for _ in range(slices):
            start = time.perf_counter()
            value = kernel()
            self.total_s += time.perf_counter() - start
            if value != EXPECTED:
                raise RuntimeError("calibration kernel gave a different checksum")
            self.slices += 1

    def sample_for(self, seconds: float) -> None:
        """Take slices until they add up to `seconds`, and at least one."""
        self.sample(1)
        while self.total_s < seconds:
            self.sample(1)

    def slowness(self) -> float:
        """Mean slice time over NOMINAL_S: above 1 on a host slower than nominal."""
        return self.total_s / self.slices / NOMINAL_S


def combined_slowness(speeds: list[Speed]) -> float:
    """Slowness over several stretches, weighted by their slices."""
    total = sum(s.total_s for s in speeds)
    return total / sum(s.slices for s in speeds) / NOMINAL_S
