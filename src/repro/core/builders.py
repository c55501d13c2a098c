"""Helpers to construct :class:`~repro.core.tree.Tree` objects.

Besides plain constructors (from parent arrays, from edge lists, from
``networkx`` graphs), this module implements the two *model variant*
reductions of Section III-C of the paper:

* :func:`from_replacement_model` -- the pebble-game-style model where the
  memory used by the input file of a node is *replaced* by the memory of its
  output files, so that processing node ``i`` needs
  ``max(f_i, sum_j f_j)``.  Reduced to the paper's model by giving node ``i``
  a negative execution file ``n_i = -min(f_i, sum_j f_j)`` (Figure 1).
* :func:`from_liu_model` -- Liu's (1987) two-node-per-column model where each
  column ``x`` is represented by a pair ``(x+, x-)`` with in-processing cost
  ``n_{x+}`` and residual cost ``n_{x-}``.  Reduced by merging each pair into
  one node with ``f_i = n_{x-}`` and
  ``n_i = n_{x+} - n_{x-} - sum_{children j} n_{j-}`` (Figure 2).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from .tree import Tree, TreeValidationError

__all__ = [
    "from_parent_list",
    "from_edges",
    "from_networkx",
    "from_replacement_model",
    "from_liu_model",
    "chain_tree",
    "star_tree",
    "uniform_weights",
]

NodeId = Hashable


def from_parent_list(
    parents: Sequence[Optional[int]],
    f: Optional[Sequence[float]] = None,
    n: Optional[Sequence[float]] = None,
) -> Tree:
    """Build a tree from a parent array.

    Parameters
    ----------
    parents:
        ``parents[i]`` is the parent of node ``i``; exactly one entry must be
        ``None`` (or ``-1``), marking the root.
    f, n:
        Optional per-node weights (default 0).

    Returns
    -------
    Tree
        A tree over the nodes ``0 .. len(parents) - 1``, inserted in BFS
        order, with its kernel built and its weights validated.
    """
    p = len(parents)
    fvals = [0.0] * p if f is None else [float(x) for x in f]
    nvals = [0.0] * p if n is None else [float(x) for x in n]
    if len(fvals) != p or len(nvals) != p:
        raise TreeValidationError("parents, f and n must have the same length")

    norm = [None if (x is None or x == -1) else int(x) for x in parents]
    roots = [i for i, x in enumerate(norm) if x is None]
    if len(roots) != 1:
        raise TreeValidationError(f"expected exactly one root, found {len(roots)}")

    children: Dict[int, list] = {i: [] for i in range(p)}
    for i, par in enumerate(norm):
        if par is not None:
            if not (0 <= par < p):
                raise TreeValidationError(f"parent index {par} out of range")
            children[par].append(i)
    # BFS order: parents precede children, siblings keep index order
    order = [roots[0]]
    idx = 0
    while idx < len(order):
        order.extend(children[order[idx]])
        idx += 1
    if len(order) != p:
        raise TreeValidationError("parent array contains a cycle")
    position = [0] * p
    for i, node in enumerate(order):
        position[node] = i
    tree = Tree.from_parents(
        [-1 if norm[v] is None else position[norm[v]] for v in order],
        [fvals[v] for v in order],
        [nvals[v] for v in order],
        ids=order,
        build_kernel=True,
    )
    try:
        tree.kernel().validate_weights()
    except ValueError as exc:
        raise TreeValidationError(str(exc)) from None
    return tree


def from_edges(
    edges: Iterable[Tuple[NodeId, NodeId]],
    root: NodeId,
    f: Optional[Mapping[NodeId, float]] = None,
    n: Optional[Mapping[NodeId, float]] = None,
) -> Tree:
    """Build a tree from (parent, child) edges and an explicit root."""
    f = dict(f or {})
    n = dict(n or {})
    children: Dict[NodeId, list] = {}
    nodes = {root}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
        nodes.add(parent)
        nodes.add(child)
    tree = Tree()
    tree.add_node(root, f=f.get(root, 0.0), n=n.get(root, 0.0))
    queue = [root]
    while queue:
        parent = queue.pop()
        for child in children.get(parent, []):
            tree.add_node(child, parent=parent, f=f.get(child, 0.0), n=n.get(child, 0.0))
            queue.append(child)
    if tree.size != len(nodes):
        raise TreeValidationError("edge list does not describe a single rooted tree")
    tree.validate()
    return tree


def from_networkx(graph, root: NodeId) -> Tree:
    """Build a tree from a ``networkx`` DiGraph whose edges go parent -> child.

    Node attributes ``f`` and ``n`` are used as weights when present.
    """
    f = {v: data.get("f", 0.0) for v, data in graph.nodes(data=True)}
    n = {v: data.get("n", 0.0) for v, data in graph.nodes(data=True)}
    return from_edges(graph.edges(), root=root, f=f, n=n)


# ----------------------------------------------------------------------
# model-variant reductions (Section III-C)
# ----------------------------------------------------------------------
def from_replacement_model(tree: Tree) -> Tree:
    """Reduce an instance of the *model with replacement* to the paper model.

    In the replacement model the memory needed to process node ``i`` is
    ``max(f_i, sum_{j in children(i)} f_j)`` -- the input file is replaced in
    place by the output files.  The reduction (Figure 1) keeps the same
    structure and file sizes but assigns execution files

    ``n_i = -min(f_i, sum_{j in children(i)} f_j)``

    so that ``MemReq(i) = f_i + n_i + sum_j f_j`` equals the replacement-model
    requirement.

    Parameters
    ----------
    tree:
        Instance interpreted under the replacement model; its ``n`` weights
        are ignored (they are 0 in that model).

    Returns
    -------
    Tree
        A new tree interpreted under the paper model.
    """
    reduced = tree.copy()
    for node in reduced.topological_order():
        child_sum = sum(reduced.f(c) for c in reduced.children(node))
        reduced.set_n(node, -min(reduced.f(node), child_sum))
    reduced.validate()
    return reduced


def from_liu_model(
    parents: Sequence[Optional[int]],
    n_plus: Sequence[float],
    n_minus: Sequence[float],
) -> Tree:
    """Reduce an instance of Liu's (1987) model to the paper model.

    Liu's model represents each column ``x`` by two nodes ``x+`` (while the
    column is being processed, with storage ``n_{x+}``) and ``x-`` (after its
    processing, with storage ``n_{x-}``).  The reduction of Figure 2 merges
    each pair back into a single node ``x`` with

    ``f_x = n_{x-}``  and  ``n_x = n_{x+} - n_{x-} - sum_{children j} n_{j-}``.

    Parameters
    ----------
    parents:
        Parent array of the (merged) column tree.
    n_plus, n_minus:
        Per-column storage while processing / after processing.

    Returns
    -------
    Tree
        Equivalent instance of the paper model.
    """
    p = len(parents)
    if len(n_plus) != p or len(n_minus) != p:
        raise TreeValidationError("parents, n_plus and n_minus must have equal length")
    children: Dict[int, list] = {i: [] for i in range(p)}
    for i, par in enumerate(parents):
        if par is not None and par != -1:
            children[int(par)].append(i)
    f = [float(n_minus[i]) for i in range(p)]
    n = [
        float(n_plus[i]) - float(n_minus[i]) - sum(float(n_minus[j]) for j in children[i])
        for i in range(p)
    ]
    return from_parent_list(parents, f=f, n=n)


# ----------------------------------------------------------------------
# simple parametric shapes (more elaborate generators live in repro.generators)
# ----------------------------------------------------------------------
def chain_tree(length: int, f: float = 1.0, n: float = 0.0) -> Tree:
    """A chain of ``length`` nodes (node 0 is the root)."""
    if length < 1:
        raise TreeValidationError("length must be >= 1")
    parents: list = [-1] + list(range(length - 1))
    return Tree.from_parents(parents, [f] * length, [n] * length)


def star_tree(leaves: int, root_f: float = 0.0, leaf_f: float = 1.0, n: float = 0.0) -> Tree:
    """A root with ``leaves`` children."""
    if leaves < 0:
        raise TreeValidationError("leaves must be >= 0")
    parents: list = [-1] + [0] * leaves
    f = [root_f] + [leaf_f] * leaves
    return Tree.from_parents(parents, f, [n] * (leaves + 1))


def uniform_weights(tree: Tree, f: float = 1.0, n: float = 0.0) -> Tree:
    """Return a copy of ``tree`` with every node assigned the same weights."""
    out = tree.copy()
    for node in out.nodes():
        out.set_f(node, f)
        out.set_n(node, n)
    return out
