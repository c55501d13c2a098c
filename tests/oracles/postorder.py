"""Oracle: the per-node PostOrder sweep (Liu, 1986).

Checks :func:`repro.core.postorder.postorder_with_rule`, which runs the
array-backed :func:`repro.core.kernel.kernel_postorder`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.postorder import POSTORDER_RULES, PostOrderResult
from repro.core.traversal import BOTTOMUP, Traversal
from repro.core.tree import Tree

NodeId = Hashable


def postorder_with_rule(tree: Tree, rule: str = "liu") -> PostOrderResult:
    """Postorder traversal with the children of every node ordered by ``rule``."""
    if rule not in POSTORDER_RULES:
        raise ValueError(f"unknown postorder rule {rule!r}; expected one of {POSTORDER_RULES}")
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    peak: Dict[NodeId, float] = {}
    child_order: Dict[NodeId, Tuple[NodeId, ...]] = {}

    for node in tree.bottom_up_order():
        children = tree.children(node)
        if not children:
            peak[node] = tree.f(node) + tree.n(node)
            child_order[node] = ()
            continue
        if rule == "liu":
            ordered = sorted(children, key=lambda c: peak[c] - tree.f(c), reverse=True)
        elif rule == "subtree_memory":
            ordered = sorted(children, key=lambda c: peak[c])
        else:  # natural
            ordered = list(children)
        child_order[node] = tuple(ordered)

        completed = 0.0
        best = 0.0
        for child in ordered:
            best = max(best, completed + peak[child])
            completed += tree.f(child)
        best = max(best, completed + tree.n(node) + tree.f(node))
        peak[node] = best

    order = _postorder_sequence(tree, child_order)
    traversal = Traversal(tuple(order), BOTTOMUP)
    return PostOrderResult(
        memory=peak[tree.root],
        traversal=traversal,
        subtree_peak=peak,
        child_order=child_order,
    )


def _postorder_sequence(
    tree: Tree, child_order: Dict[NodeId, Tuple[NodeId, ...]]
) -> List[NodeId]:
    """Bottom-up DFS sequence following ``child_order`` (iterative)."""
    order: List[NodeId] = []
    stack: List[Tuple[NodeId, bool]] = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for child in reversed(child_order[node]):
            stack.append((child, False))
    return order
