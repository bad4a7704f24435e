"""In-memory spans around the benchmark's calls into setmax.

A span records its name, start, end, parent and a few attributes.  Spans
live in memory until the run ends, when `Tracer.dump` writes them out.
Self time is a span's duration minus the time its child spans cover; the
benchmark is single-threaded, so children never overlap.

The untraced runs use `NULL_TRACER`, whose span is a shared no-op, so the
end-to-end metrics carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per module (the part of a span name before
        the first dot), summed over every span of that module."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            module = s["name"].split(".", 1)[0]
            out[module] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(out)

    def dump(self, path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": rows, "self_s": self.self_times()}, f, indent=1, default=str)


class _NullTracer:
    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


NULL_TRACER = _NullTracer()
