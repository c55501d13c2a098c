"""Summary statistics and failure accounting shared by every workload.

A timing is reported as its median and its *tail*: the highest percentile
that still has at least :data:`TAIL_BEYOND` samples beyond it, so the tail
of a short run is never a single outlier.  With ``n`` samples sorted
ascending that is the sample with exactly ten larger ones, at percentile
``100 * (n - 10) / n``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

#: metric and workload names: a letter or digit, then letters, digits, _ . -
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: metric units, e.g. ``ms``, ``s``, ``1/s``, ``count``
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of an empty sample")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With ``TAIL_BEYOND`` samples or fewer no percentile qualifies, and the
    maximum is returned instead; :func:`tail_level` reports 100 then, so a
    reader can tell.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sample")
    if len(xs) <= TAIL_BEYOND:
        return xs[-1]
    return xs[len(xs) - TAIL_BEYOND - 1]


def tail_level(n: int) -> float:
    """Percentile level (0-100) that :func:`tail` reports for ``n`` samples."""
    return 100.0 if n <= TAIL_BEYOND else 100.0 * (n - TAIL_BEYOND) / n


def window_tail(windows: Sequence[Sequence[float]]) -> float:
    """Median over windows of each window's :func:`tail`.

    One run's tail is otherwise a single order statistic, set by whichever
    few requests collided with a pause; the median of several windows'
    tails repeats far better across runs.  Empty windows are skipped.
    """
    return median([tail(w) for w in windows if w])


def kind_median(samples: Dict[object, List[float]]) -> float:
    """Median over operation kinds of each kind's median.

    A pass runs every kind of operation once, so a mixed workload's
    latencies cluster by kind.  When the middle of the pooled sample falls
    in a gap between two kinds (on sparse_plan, 3-D nested dissection at
    ~130 ms and 2-D minimum degree at ~155 ms), its median jumps across the
    gap with a single slow sample; the median of the kinds' medians moves
    only as fast as those kinds do.
    """
    return median([median(v) for v in samples.values()])


@dataclass(frozen=True)
class Summary:
    """Median, tail and sample count of one timing."""

    p50: float
    tail: float
    level: float
    count: int


def summarize(values: Sequence[float]) -> Summary:
    """:class:`Summary` of a non-empty sample."""
    return Summary(median(values), tail(values), tail_level(len(values)), len(values))


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure.

    Every failure kind -- a failed output check, an error response, a
    rejection, a deadline miss, a per-operation time-limit overrun -- counts
    once against the attempt that hit it; nothing is retried.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    examples: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{reason}: {detail}" if detail else reason)

    def check(self, condition: bool, reason: str, detail: str = "") -> bool:
        """Count one attempt, failed unless ``condition``; returns it."""
        if condition:
            self.ok()
        else:
            self.fail(reason, detail)
        return condition

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_names(names: Iterable[str]) -> List[str]:
    """Problems with a list of names: invalid spelling or duplicates."""
    problems = []
    seen: Dict[str, int] = {}
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"invalid name {name!r}")
        seen[name] = seen.get(name, 0) + 1
    problems.extend(f"duplicate name {n!r}" for n, c in seen.items() if c > 1)
    return problems
