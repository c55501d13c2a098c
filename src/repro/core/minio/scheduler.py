"""Out-of-core execution of a traversal under a limited main memory.

Given a task tree, a main-memory size ``M`` at least as large as the largest
single-node requirement, a traversal, and an eviction heuristic, the
:func:`run_out_of_core` simulator replays the traversal and decides, whenever
the next node does not fit, which resident files to write to secondary
memory.  It returns the complete :class:`~repro.core.traversal.OutOfCoreSchedule`
(node order plus eviction steps) together with the resulting I/O volume; the
schedule is always consistent with the paper's Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..kernel import TreeKernel, kernel_out_of_core
from ..traversal import TOPDOWN, OutOfCoreSchedule, Traversal, TraversalError
from ..tree import Tree
from .heuristics import Selector, get_heuristic

__all__ = ["OutOfCoreResult", "run_out_of_core", "io_volume"]

_EPS = 1e-12


@dataclass(frozen=True)
class OutOfCoreResult:
    """Result of an out-of-core simulation.

    Attributes
    ----------
    schedule:
        The node order plus the eviction step of every written file.
    io_volume:
        Total volume written to secondary memory (reads have the same total
        volume since every written file is read back exactly once).
    io_operations:
        Number of files written.
    peak_resident:
        Largest main-memory occupation observed during the execution
        (never exceeds the memory bound).
    """

    schedule: OutOfCoreSchedule
    io_volume: float
    io_operations: int
    peak_resident: float


def io_volume(
    tree: Tree,
    memory: float,
    traversal: Traversal,
    heuristic: Union[str, Selector] = "first_fit",
) -> float:
    """Convenience wrapper returning only the I/O volume."""
    return run_out_of_core(tree, memory, traversal, heuristic).io_volume


def run_out_of_core(
    tree: Tree,
    memory: float,
    traversal: Traversal,
    heuristic: Union[str, Selector] = "first_fit",
) -> OutOfCoreResult:
    """Simulate an out-of-core execution of ``traversal`` with ``memory``.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).
    memory : float
        Main memory size; must satisfy ``memory >= max_i MemReq(i)``,
        otherwise no execution exists and a :class:`ValueError` is raised.
    traversal : Traversal
        Any topological traversal; a bottom-up traversal is reversed into the
        paper's top-down convention first.
    heuristic : str or Selector
        Name of one of the six eviction policies of Section V-B (see
        :data:`repro.core.minio.heuristics.HEURISTICS`) or a custom selector
        ``candidates, io_req -> victims``.

    Returns
    -------
    OutOfCoreResult
        Schedule, I/O volume and bookkeeping counters.

    Notes
    -----
    The simulation runs on the flat arrays of
    :func:`repro.core.kernel.kernel_out_of_core` (incremental resident
    accounting).
    """
    selector = get_heuristic(heuristic) if isinstance(heuristic, str) else heuristic
    traversal = traversal.as_convention(TOPDOWN)

    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    try:
        order = kern.order_to_indices(traversal.order)
    except KeyError:
        raise TraversalError("order is not a permutation of the tree nodes") from None
    if len(order) != kern.size or len(set(order)) != kern.size:
        raise TraversalError("order is not a permutation of the tree nodes")
    seen = [False] * kern.size
    for i in order:  # top-down: every parent before its children
        par = kern.parent[i]
        if par >= 0 and not seen[par]:
            raise TraversalError("traversal violates precedence constraints")
        seen[i] = True
    max_req = kern.max_mem_req()
    if memory < max_req - _EPS:
        raise ValueError(
            f"memory {memory} is below the largest node requirement "
            f"{max_req}; no execution exists"
        )
    evictions_idx, io_total, peak_resident = kernel_out_of_core(
        kern, memory, order, selector, eps=_EPS
    )
    evictions = {kern.ids[i]: step for i, step in evictions_idx.items()}
    schedule = OutOfCoreSchedule(traversal=traversal, evictions=evictions)
    return OutOfCoreResult(
        schedule=schedule,
        io_volume=io_total,
        io_operations=len(evictions),
        peak_resident=peak_resident,
    )

