"""Span recorder for the per-layer (traced) benchmark run.

The recorder wraps public functions of the stancecast modules by replacing
the module attribute. ``engine`` and ``cli`` look these functions up on the
module at call time (``kernels.nadj_pass(...)``, ``io_formats.load_graph(...)``),
so the wrappers see every call the engine and the CLI make without any
change to the package. Each call yields one span (name, start, end, parent)
plus the counts its arguments and return value carry. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``count(args, result)`` returns the call's counts; it runs after the
        span ends, so its cost falls in the parent's self time, not here.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Position to pass to :meth:`select` for spans recorded after now."""
        return len(self.spans)

    def select(self, name: str, since: int, until: int, under: str | None = None):
        """Indices of spans called ``name`` recorded in [since, until).

        With ``under``, keep only spans that have an ancestor of that name.
        """
        found = []
        for i in range(since, until):
            if self.spans[i].name != name:
                continue
            if under is None or self._has_ancestor(i, under):
                found.append(i)
        return found

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def total(self, indices) -> float:
        return sum(self.spans[i].duration for i in indices)

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(s.duration for s in self.spans[index + 1:]
                       if s.parent == index)
        return self.spans[index].duration - children

    def count(self, indices, key: str):
        return sum(self.spans[i].counts[key] for i in indices)

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]
