"""Span recording for the benchmark's traced run.

Wrappers are installed from here, around the calls into each layer of the
simulator, and removed again afterwards; the simulator itself is unchanged.
Each timed span has a name, a start, an end and a parent (the span open
when it started). A span's self time is its duration minus the time its
child spans cover; both are accumulated per name as spans close, so memory
stays bounded however many steps a run takes.

Counted wrappers (used for the `Tape` methods, which run several times per
step) only count calls. Their cost stays in the self time of the caller.
"""

from __future__ import annotations

import time


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "raised", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.durations: list[float] | None = [] if keep_durations else None


class Spans:
    """Per-name span statistics plus a parent -> child call count."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats(keep_durations=False))

    def timed(self, name: str, fn, keep_durations: bool = False):
        stats = self.stats.setdefault(name, SpanStats(keep_durations))
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]   # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stats.durations is not None:
                    stats.durations.append(duration)
                if stack:
                    stack[-1][1] += duration
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1

        return span

    def counted(self, name: str, fn):
        stats = self.stat(name)

        def count(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return count

    def check_closed(self) -> None:
        if self._stack:
            raise RuntimeError("spans still open after the traced run")


class Patches:
    """Attribute replacements on modules and classes, undone by `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace `owner.attr` with `wrap(original)`."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        """Put every replaced attribute back and check that it is the original."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
