"""Forced in-process execution (``pool="serial"``).

The degenerate backend: cells solve inline on the calling thread, in
order, with no worker plumbing at all.  It exists so that "run serially"
is a registry entry like any other pool mode rather than a special case --
the campaign planner, ``solve_many`` and the CLI all validate against one
name list -- and it is the reference every other backend must be
bit-identical to (the solvers are deterministic; only ``wall_time``
differs, and report equality excludes it).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from .base import Cell, ExecutorBackend, _solve_cell, _solve_chunk

__all__ = ["SerialBackend"]


def _completed(call, *args):
    """Run ``call(*args)`` inline; a future already holding its outcome."""
    from concurrent.futures import Future

    future: "Future" = Future()
    try:
        future.set_result(call(*args))
    except Exception as exc:  # solver errors surface on the future
        future.set_exception(exc)
    return future


class SerialBackend(ExecutorBackend):
    """Inline execution on the calling thread."""

    name = "serial"
    summary = "forced in-process execution (the bit-identical reference)"

    def map_cells(self, cells: Sequence[Cell], workers: int) -> List[Any]:
        del workers
        return _solve_chunk(cells)

    # inline, but future-shaped: each future completes before it is returned
    def submit_cell(self, cell: Cell, workers: int):
        del workers
        return _completed(_solve_cell, cell)

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        del workers
        return _completed(_solve_chunk, list(cells))
