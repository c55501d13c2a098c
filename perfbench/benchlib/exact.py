"""Exact peak memory of an in-core traversal, in integer arithmetic.

Every finite float is ``m * 2**e``, so multiplying all weights of a tree by
one power of two makes them exact Python integers; sums and comparisons are
then exact.  The optimality checks compare traversals with this instead of
the solvers' own floating-point peaks, whose last bits depend on the order
each solver happens to add in.
"""

from __future__ import annotations

from typing import List, Sequence


def integer_weights(values: Sequence[float], denominator: int) -> List[int]:
    out = []
    for x in values:
        num, den = float(x).as_integer_ratio()
        out.append(num * (denominator // den))
    return out


def common_denominator(*columns: Sequence[float]) -> int:
    den = 1
    for column in columns:
        for x in column:
            den = max(den, float(x).as_integer_ratio()[1])
    return den


class ExactTree:
    """A parent array with integer-scaled weights (nodes are ``0..p-1``)."""

    def __init__(self, parents: Sequence[int], f: Sequence[float], n: Sequence[float]) -> None:
        self.den = common_denominator(f, n)
        self.f = integer_weights(f, self.den)
        self.n = integer_weights(n, self.den)
        self.child_files = [0] * len(parents)
        for child, parent in enumerate(parents):
            if parent >= 0:
                self.child_files[parent] += self.f[child]

    def peak(self, order: Sequence[int], topdown: bool) -> int:
        """Peak of a complete order, times ``den`` (exact)."""
        f, n, cf = self.f, self.n, self.child_files
        if topdown:
            resident = peak = f[order[0]]
            for node in order:
                peak = max(peak, resident + n[node] + cf[node])
                resident += cf[node] - f[node]
            return peak
        resident = peak = 0
        for node in order:
            peak = max(peak, resident + n[node] + f[node])
            resident += f[node] - cf[node]
        return peak
