"""Oracle: MinMem (paper Algorithm 4) driven by the per-node Explore oracle.

Checks :func:`repro.core.minmem.min_mem`, which runs the array-backed
:func:`repro.core.kernel.kernel_min_mem`.
"""

from __future__ import annotations

import math

from repro.core.liu import flatten_nodes
from repro.core.minmem import MinMemResult
from repro.core.traversal import TOPDOWN, Traversal
from repro.core.tree import Tree

from .explore import ExploreSolver


def min_mem(tree: Tree, *, reuse_states: bool = True) -> MinMemResult:
    """Optimal memory and a witness traversal (top-down)."""
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    solver = ExploreSolver(tree, reuse_states=reuse_states)
    root = tree.root

    m_peak = tree.max_mem_req()
    m_avail = 0.0
    iterations = 0
    chunks: tuple = ()

    # Root-level resume (the L_init / Tr_init arguments of Algorithm 4) is
    # always provided by the solver; with reuse_states=True the states of
    # every other node are retained across sweeps as well, which only makes
    # the search faster.
    while m_peak != math.inf:
        m_avail = m_peak
        result = solver.explore(root, m_avail)
        chunks = result.traversal_chunks
        m_peak = result.peak
        iterations += 1
        if m_peak is not math.inf and m_peak <= m_avail:
            # Exploration must always report a strictly larger requirement
            # when it cannot finish; guard against floating-point stalls.
            raise RuntimeError(
                "MinMem made no progress (floating-point stall); "
                f"memory={m_avail}, reported peak={m_peak}"
            )

    order = flatten_nodes(chunks)
    traversal = Traversal(tuple(order), TOPDOWN)
    return MinMemResult(
        memory=m_avail,
        traversal=traversal,
        iterations=iterations,
        explore_calls=solver.explore_calls,
    )
