"""Spans recorded around the benchmark's calls into each taraarch module.

Spans stay in memory while the run measures and are written out when it
ends.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    replicate: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; a child inherits its parent's replicate id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, replicate: str | None = None):
        parent = self._open[-1] if self._open else None
        if replicate is None and parent is not None:
            replicate = self.spans[parent].replicate
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, replicate))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples above it.

    Fewer than eleven samples have no such statistic; the largest is
    reported then.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
