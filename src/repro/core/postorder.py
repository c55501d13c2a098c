"""The ``PostOrder`` algorithm: the best postorder traversal (Liu, 1986).

Sparse direct solvers such as MUMPS traverse the assembly tree in postorder:
once the first node of a subtree is executed, the whole subtree is finished
before any other node.  Liu characterised the memory-optimal postorder: the
children of every node must be processed in decreasing order of
``P_j - f_j``, where ``P_j`` is the peak memory of the (optimal postorder)
traversal of the subtree rooted at ``j`` and ``f_j`` the size of the file it
leaves in memory.  The proof is a standard exchange argument; the resulting
algorithm runs in ``O(p log p)`` time.

The module exposes :func:`best_postorder` (the optimal rule) and, for ablation
purposes, :func:`postorder_with_rule` which also supports the two naive rules
``"natural"`` (children in insertion order) and ``"subtree_memory"``
(children by increasing subtree peak, the folklore rule quoted in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

from .kernel import TreeKernel, kernel_postorder
from .traversal import BOTTOMUP, Traversal
from .tree import Tree

__all__ = ["PostOrderResult", "best_postorder", "postorder_with_rule", "POSTORDER_RULES"]

NodeId = Hashable

POSTORDER_RULES = ("liu", "subtree_memory", "natural")


@dataclass(frozen=True)
class PostOrderResult:
    """Result of a postorder MinMemory computation.

    Attributes
    ----------
    memory:
        Peak memory of the traversal (the minimum main memory making it
        feasible in-core).
    traversal:
        The postorder traversal itself, in bottom-up convention.
    subtree_peak:
        ``subtree_peak[v]`` is the peak memory of the postorder traversal of
        the subtree rooted at ``v`` (including the file ``f_v`` it leaves in
        memory at the end).
    child_order:
        The order in which the children of every node are processed.
    """

    memory: float
    traversal: Traversal
    subtree_peak: Dict[NodeId, float]
    child_order: Dict[NodeId, Tuple[NodeId, ...]]


def best_postorder(tree: Tree) -> PostOrderResult:
    """Compute the memory-optimal postorder traversal (Liu's rule).

    Returns a :class:`PostOrderResult`; ``result.memory`` solves the
    MinMemory-PostOrder problem of the paper.
    """
    return postorder_with_rule(tree, rule="liu")


def postorder_with_rule(tree: Tree, rule: str = "liu") -> PostOrderResult:
    """Compute a postorder traversal using a given child-ordering rule.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).
    rule : str
        ``"liu"`` -- children in decreasing ``P_j - f_j`` (optimal among
        postorders); ``"subtree_memory"`` -- children in increasing subtree
        peak; ``"natural"`` -- children in insertion order.

    Returns
    -------
    PostOrderResult
        Peak memory, the traversal (bottom-up), per-subtree peaks, and the
        chosen child order of every node.

    Notes
    -----
    In the bottom-up convention, while the ``k``-th child subtree of node
    ``i`` is being processed, the files of the already-completed siblings are
    resident.  The peak of the subtree rooted at ``i`` is therefore::

        P_i = max( max_k ( sum_{j scheduled before k} f_j + P_k ),
                   sum_j f_j + n_i + f_i )

    and Liu's rule minimises the first term over all child permutations.
    The sweep runs on the flat arrays of
    :func:`repro.core.kernel.kernel_postorder`.
    """
    if rule not in POSTORDER_RULES:
        raise ValueError(f"unknown postorder rule {rule!r}; expected one of {POSTORDER_RULES}")
    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    memory, order_idx, peaks, child_orders = kernel_postorder(kern, rule)
    ids = kern.ids
    return PostOrderResult(
        memory=memory,
        traversal=Traversal(kern.order_to_ids(order_idx), BOTTOMUP),
        subtree_peak={ids[i]: peaks[i] for i in range(kern.size)},
        child_order={
            ids[i]: tuple(ids[c] for c in child_orders[i])
            for i in range(kern.size)
        },
    )

