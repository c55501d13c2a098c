"""The ``MinMem`` exact MinMemory algorithm (paper Algorithm 4).

``MinMem`` solves the MinMemory problem exactly: it computes the minimum
amount of main memory that allows a fully in-core traversal of the task tree,
together with such a traversal.  It repeatedly calls ``Explore`` (paper
Algorithm 3, :class:`~repro.core.kernel.KernelExploreSolver`):

1. start with the trivial lower bound ``max_i MemReq(i)``;
2. explore the tree with that much memory, reusing the state reached by the
   previous exploration;
3. if the whole tree could not be processed, the exploration reports the
   smallest memory ``M_peak`` that would allow one more node to be visited;
   set the available memory to ``M_peak`` and repeat.

The memory of the final iteration is optimal, and the recorded traversal is a
witness.  Worst-case complexity is ``O(p^2)`` like Liu's exact algorithm, but
the systematic reuse of reached states makes it considerably faster on
assembly trees (Section VI-C of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .kernel import TreeKernel, kernel_min_mem
from .traversal import TOPDOWN, Traversal
from .tree import Tree

__all__ = ["MinMemResult", "min_mem", "min_memory"]

NodeId = Hashable


@dataclass(frozen=True)
class MinMemResult:
    """Result of the ``MinMem`` algorithm.

    Attributes
    ----------
    memory:
        The optimal (minimum) main memory over all traversals.
    traversal:
        An optimal traversal, in top-down convention (the paper's default);
        call ``traversal.reversed()`` for the bottom-up reading.
    iterations:
        Number of ``Explore`` sweeps from the root.
    explore_calls:
        Total number of ``Explore`` invocations (all nodes).
    """

    memory: float
    traversal: Traversal
    iterations: int
    explore_calls: int


def min_memory(tree: Tree, *, reuse_states: bool = True) -> float:
    """Minimum memory over all traversals (value only)."""
    return min_mem(tree, reuse_states=reuse_states).memory


def min_mem(tree: Tree, *, reuse_states: bool = True) -> MinMemResult:
    """Run the ``MinMem`` algorithm (Algorithm 4 of the paper).

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).
    reuse_states : bool
        When True (default), every node keeps the exploration state it
        reached so far across sweeps and resumes from it, which is the
        behaviour that makes the algorithm fast in practice.  When False,
        only the root's reached state (the ``L_init`` / ``Tr_init`` arguments
        of Algorithm 4) survives between sweeps, exactly as in the paper's
        pseudocode; the result is identical, only slower.

    Returns
    -------
    MinMemResult
        Optimal memory and a witness traversal.

    Notes
    -----
    The sweeps run on the flat arrays of
    :func:`repro.core.kernel.kernel_min_mem` (incremental cut sums).
    """
    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    memory, order_idx, iterations, explore_calls = kernel_min_mem(
        kern, reuse_states=reuse_states
    )
    return MinMemResult(
        memory=memory,
        traversal=Traversal(kern.order_to_ids(order_idx), TOPDOWN),
        iterations=iterations,
        explore_calls=explore_calls,
    )

