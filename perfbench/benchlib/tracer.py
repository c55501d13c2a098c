"""In-memory spans recorded by the benchmark around its calls into each layer.

One operation gets one root span; its children are the layer calls the
benchmark makes (tree build, kernel flatten, solve, check) or the stage
durations the program itself reports (the sparse pipeline's
``stage_seconds``, the daemon's ``timing.stages``).  Spans of one operation
share its ``op`` id.  Nothing is written until :meth:`Tracer.dump`, which
the run calls once at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

# (op, span id, parent span id or -1, name, start, end) in perf_counter seconds
Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """Append-only span store; ids are dense integers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, op: int, parent: int, name: str, start: float, end: float) -> int:
        """Record a closed span; returns its id (for children to point at)."""
        sid = len(self.spans)
        self.spans.append((op, sid, parent, name, start, end))
        return sid

    def root(self, name: str, start: float, end: float) -> int:
        """Record an operation's root span; its id is also the operation's."""
        sid = len(self.spans)
        self.spans.append((sid, sid, -1, name, start, end))
        return sid

    def close(self, sid: int, end: float) -> None:
        """Move the end of span ``sid`` (a parent opened before its children)."""
        op, _, parent, name, start, _ = self.spans[sid]
        self.spans[sid] = (op, sid, parent, name, start, end)

    def stages(self, op: int, parent: int, start: float, durations: Dict[str, float]) -> None:
        """Children laid end to end from ``start``, one per reported stage."""
        at = start
        for name, seconds in durations.items():
            self.add(op, parent, name, at, at + seconds)
            at += seconds

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += max(0.0, (end - start) - child_time.get(sid, 0.0))
        return dict(out)

    def dump(self, path: str, meta: Optional[dict] = None) -> None:
        origin = self.spans[0][4] if self.spans else perf_counter()
        doc = {
            "meta": meta or {},
            "fields": ["op", "id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [op, sid, parent, name, round(start - origin, 7), round(end - origin, 7)]
                for op, sid, parent, name, start, end in self.spans
            ],
            "self_seconds": self.self_times(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
