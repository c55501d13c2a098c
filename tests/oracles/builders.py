"""Oracle: the per-node parent-array builder.

Checks :func:`repro.core.builders.from_parent_list`, which bulk-builds
through :meth:`Tree.from_parents <repro.core.tree.Tree.from_parents>` and
validates the weights once on the kernel.  This version inserts node by
node with :meth:`Tree.add_node` and runs the full :meth:`Tree.validate`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.tree import Tree, TreeValidationError


def from_parent_list(
    parents: Sequence[Optional[int]],
    f: Optional[Sequence[float]] = None,
    n: Optional[Sequence[float]] = None,
) -> Tree:
    """Build a tree over ``0 .. len(parents) - 1`` from a parent array."""
    p = len(parents)
    fvals = [0.0] * p if f is None else [float(x) for x in f]
    nvals = [0.0] * p if n is None else [float(x) for x in n]
    if len(fvals) != p or len(nvals) != p:
        raise TreeValidationError("parents, f and n must have the same length")

    norm = [None if (x is None or x == -1) else int(x) for x in parents]
    roots = [i for i, x in enumerate(norm) if x is None]
    if len(roots) != 1:
        raise TreeValidationError(f"expected exactly one root, found {len(roots)}")

    tree = Tree()
    children: Dict[int, list] = {i: [] for i in range(p)}
    for i, par in enumerate(norm):
        if par is not None:
            if not (0 <= par < p):
                raise TreeValidationError(f"parent index {par} out of range")
            children[par].append(i)
    order = [roots[0]]
    idx = 0
    while idx < len(order):
        order.extend(children[order[idx]])
        idx += 1
    if len(order) != p:
        raise TreeValidationError("parent array contains a cycle")
    for node in order:
        tree.add_node(node, parent=norm[node], f=fvals[node], n=nvals[node])
    tree.validate()
    return tree
