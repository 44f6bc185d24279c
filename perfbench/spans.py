"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer of ``repro``, recorded from the
benchmark's side of the call: ``name``, ``start``, ``end`` (seconds from
the tracer's epoch) and the id of the enclosing span.  Spans stay in
memory until the run ends and are then written out as one JSON file.

An untraced run uses :data:`NULL_TRACER`, whose ``span`` returns a shared
no-op context manager, so end-to-end numbers are measured without the
recording cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One recorded layer call."""

    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, time.perf_counter() - self.epoch)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter() - self.epoch
            self._stack.pop()

    def children(self, span_id: Optional[int]) -> List[Span]:
        return [span for span in self.spans if span.parent == span_id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it covered by the span's children."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span.id), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def descendants(self, span: Span) -> List[Span]:
        found: List[Span] = []
        frontier = [span.id]
        while frontier:
            kids = [s for s in self.spans if s.parent in frontier]
            found.extend(kids)
            frontier = [s.id for s in kids]
        return found

    def durations_by_name(self, root: Span) -> Dict[str, float]:
        """Summed duration per span name below ``root``."""
        totals: Dict[str, float] = {}
        for span in self.descendants(root):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def roots(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.parent is None and span.name == name]

    def write(self, path, meta: Dict[str, object]) -> None:
        payload = {
            "meta": meta,
            "spans": [
                dict(asdict(span), self_time=self.self_time(span)) for span in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


class _NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    enabled = False
    spans: tuple = ()

    def __init__(self) -> None:
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


def span_cost_seconds(samples: int = 2000) -> float:
    """Measured cost of recording one empty span on this host."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / samples
