"""Liu's exact MinMemory algorithm via hill--valley segments (Liu, 1987).

This is the reference optimal algorithm the paper compares against.  It works
bottom-up on the in-tree reading of the task tree.  The optimal traversal of a
subtree is summarised by its *hill--valley representation*: the memory profile
of the traversal is cut at well-chosen local minima into segments
``(h_1, v_1), (h_2, v_2), ...`` where ``h_s`` is the peak reached during
segment ``s`` and ``v_s`` the memory resident when the segment ends, with
``h_1 >= h_2 >= ...`` and ``v_1 <= v_2 <= ...``.

To combine the children of a node, their segments are interleaved in
decreasing order of ``h_s - v_s`` (an exchange argument shows this is
optimal), each child's own segments staying in order -- which is automatic
because ``h - v`` is non-increasing inside a canonical representation.  After
all children segments, the node itself executes, requiring
``sum_j f_j + n_i + f_i`` and leaving ``f_i`` resident.  The resulting profile
is re-cut into a canonical representation and passed to the parent.

The peak of the root's first segment is the optimal memory; the concatenated
segment node lists give an optimal traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from .kernel import TreeKernel, flatten_chunks, kernel_liu
from .traversal import BOTTOMUP, Traversal
from .tree import Tree

__all__ = ["LiuResult", "Segment", "liu_optimal_traversal", "liu_min_memory"]

NodeId = Hashable


@dataclass(frozen=True)
class Segment:
    """One hill--valley segment of a subtree traversal.

    ``hill`` and ``valley`` are absolute memory levels within the subtree
    (the subtree's own profile starts at level 0).  ``nodes`` is a *nested*
    sequence of node chunks; use :func:`flatten_nodes` to obtain the flat
    execution order.
    """

    hill: float
    valley: float
    nodes: tuple


@dataclass(frozen=True)
class LiuResult:
    """Result of Liu's exact algorithm.

    Attributes
    ----------
    memory:
        The optimal (minimum) main memory over all traversals.
    traversal:
        An optimal traversal, in bottom-up convention.
    segments:
        Canonical hill--valley representation of the root subtree.
    subtree_peak:
        Optimal peak memory of every subtree (useful for diagnostics).
    """

    memory: float
    traversal: Traversal
    segments: Tuple[Segment, ...]
    subtree_peak: Dict[NodeId, float]


def _chunks_to_ids(nested: tuple, ids: Sequence[NodeId]) -> tuple:
    """Flatten a nested chunk tree of node indices into original ids.

    Iterative (via :func:`repro.core.kernel.flatten_chunks`): on deep chains
    the chunk nesting is as deep as the tree, so a recursive rewrite would
    defeat the kernel's purpose.  The flat tuple is a valid
    :class:`Segment.nodes` value -- consumers are documented to go through
    :func:`flatten_nodes` anyway.
    """
    return tuple(ids[i] for i in flatten_chunks(nested))


def flatten_nodes(nested: Sequence) -> List[NodeId]:
    """Flatten the nested node chunks stored in :class:`Segment` objects."""
    out: List[NodeId] = []
    stack: List = [nested]
    # Depth-first flattening with an explicit stack; chunks are tuples/lists,
    # leaves are node identifiers.
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


def liu_min_memory(tree: Tree) -> float:
    """Minimum memory over all traversals (value only)."""
    return liu_optimal_traversal(tree).memory


def liu_optimal_traversal(tree: Tree) -> LiuResult:
    """Run Liu's exact algorithm and return the optimal traversal.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).

    Returns
    -------
    LiuResult
        Optimal memory, an optimal bottom-up traversal, the root's canonical
        hill--valley segments, and the optimal peak of every subtree.

    Notes
    -----
    The segment merge runs on the flat arrays of
    :func:`repro.core.kernel.kernel_liu`.  The computation is iterative
    (bottom-up over the nodes) so arbitrarily deep trees are supported.
    Worst-case complexity is ``O(p^2)`` (quadratic in the number of nodes),
    as in the paper.
    """
    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    memory, order_idx, peaks, root_segments = kernel_liu(kern)
    ids = kern.ids
    segments = tuple(
        Segment(
            hill=hill,
            valley=valley,
            nodes=_chunks_to_ids(nodes, ids),
        )
        for hill, valley, nodes in root_segments
    )
    return LiuResult(
        memory=memory,
        traversal=Traversal(kern.order_to_ids(order_idx), BOTTOMUP),
        segments=segments,
        subtree_peak={ids[i]: peaks[i] for i in range(kern.size)},
    )

