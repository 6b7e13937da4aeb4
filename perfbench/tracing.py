"""In-memory spans recorded around the benchmark's calls into the package.

A span has a name ``<module>.<operation>``, a start and end from
``time.perf_counter``, the id of the span that encloses it and the id of the
grid point it belongs to.  Spans stay in memory and are written out once, when
the benchmark ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    """Tracing switched off: every span is a no-op."""

    def span(self, name: str, point: int | None = None):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, point: int | None = None):
        parent = self._open[-1] if self._open else None
        if point is None and parent is not None:
            point = self.spans[parent]["point"]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "point": point, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Summed duration of all spans, by span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def means(self) -> dict[str, float]:
        """Mean duration of one span, by span name."""
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            calls[s["name"]] += 1
        return {name: total / calls[name] for name, total in self.totals().items()}

    def self_times(self) -> dict[str, float]:
        """Summed self time by module (the part of the name before the dot)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            module = s["name"].split(".", 1)[0]
            out[module] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)


def span_cost(samples: int = 2000) -> float:
    """Seconds one recorded span adds, measured on a throw-away tracer."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe.empty"):
            pass
    return (time.perf_counter() - start) / samples
