"""Oracle: the per-entry sparse symbolic pipeline.

Checks the vectorized :func:`repro.sparse.etree.elimination_tree`,
:func:`repro.sparse.symbolic.column_counts`,
:func:`repro.sparse.symbolic.column_patterns`,
:func:`repro.sparse.amalgamation.amalgamate` and the
:func:`repro.sparse.assembly.build_assembly_tree` pipeline built on them.
Every function takes the same arguments as its library counterpart.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.sparse.amalgamation import AmalgamatedTree, _amalgamate_leaders
from repro.sparse.assembly import AssemblyTreeResult, assembly_tree_from_etree
from repro.sparse.etree import etree_children, etree_postorder
from repro.sparse.graph import symmetrized_pattern
from repro.sparse.ordering import ORDERINGS, apply_ordering
from repro.sparse.symbolic import symbolic_stats


def _pattern(matrix: sp.spmatrix, symmetrize: bool) -> sp.csr_matrix:
    return symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)


def elimination_tree(matrix: sp.spmatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Per-nonzero Liu construction with path compression."""
    pattern = _pattern(matrix, symmetrize)
    n = pattern.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    indptr, indices = pattern.indptr, pattern.indices

    for j in range(n):
        for k in indices[indptr[j] : indptr[j + 1]]:
            if k >= j:
                continue
            # climb from k to the current root of its subtree
            v = int(k)
            while ancestor[v] != -1 and ancestor[v] != j:
                nxt = int(ancestor[v])
                ancestor[v] = j  # path compression
                v = nxt
            if ancestor[v] == -1:
                ancestor[v] = j
                parent[v] = j
    return parent


def column_counts(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    symmetrize: bool = True,
) -> np.ndarray:
    """Per-entry row-subtree climb."""
    pattern = _pattern(matrix, symmetrize)
    if parent is None:
        parent = elimination_tree(pattern, symmetrize=False)
    parent = np.asarray(parent, dtype=np.int64)
    n = pattern.shape[0]
    counts = np.ones(n, dtype=np.int64)  # the diagonal entries
    marker = np.full(n, -1, dtype=np.int64)
    indptr, indices = pattern.indptr, pattern.indices

    for i in range(n):
        marker[i] = i
        for k in indices[indptr[i] : indptr[i + 1]]:
            k = int(k)
            if k >= i:
                continue
            # climb the row subtree of i
            j = k
            while marker[j] != i:
                counts[j] += 1
                marker[j] = i
                j = int(parent[j])
                if j < 0:
                    break
    return counts


def column_patterns(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    symmetrize: bool = True,
) -> List[np.ndarray]:
    """Bottom-up Python set merging."""
    pattern = _pattern(matrix, symmetrize)
    if parent is None:
        parent = elimination_tree(pattern, symmetrize=False)
    parent = np.asarray(parent, dtype=np.int64)
    n = pattern.shape[0]
    children = etree_children(parent)
    csc = sp.csc_matrix(pattern)
    patterns: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * n

    for j in etree_postorder(parent):
        j = int(j)
        rows = csc.indices[csc.indptr[j] : csc.indptr[j + 1]]
        below = set(int(r) for r in rows if r > j)
        for child in children[j]:
            below.update(int(r) for r in patterns[child] if r > j)
        patterns[j] = np.asarray(sorted(below), dtype=np.int64)
    return patterns


def perfect_leaders(
    parent: Sequence[int], counts: Sequence[int], perfect: bool
) -> np.ndarray:
    """Topmost column of every perfect-amalgamation chain (union-find)."""
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    n = parent.size
    children = etree_children(parent)

    # union-find over columns; the set representative is the topmost column
    leader = np.arange(n, dtype=np.int64)

    def find(v: int) -> int:
        root = v
        while leader[root] != root:
            root = leader[root]
        while leader[v] != root:
            leader[v], v = root, int(leader[v])
        return int(root)

    if perfect:
        for v in range(n):
            p = int(parent[v])
            if p < 0:
                continue
            if len(children[p]) == 1 and counts[p] == counts[v] - 1:
                leader[find(v)] = find(p)
    return np.asarray([find(v) for v in range(n)], dtype=np.int64)


def amalgamate(
    parent: Sequence[int],
    counts: Sequence[int],
    *,
    relaxed: int = 1,
    perfect: bool = True,
) -> AmalgamatedTree:
    """Union-find perfect chains, then the library's relaxed phase."""
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    leader = perfect_leaders(parent, counts, perfect)
    return _amalgamate_leaders(parent, counts, leader, relaxed)


def build_assembly_tree(
    matrix: sp.spmatrix,
    *,
    ordering: str = "nested_dissection",
    relaxed: int = 1,
    perfect: bool = True,
) -> AssemblyTreeResult:
    """The symbolic pipeline of the library, stage for stage, on the oracles."""
    pattern = symmetrized_pattern(matrix)
    perm = ORDERINGS[ordering](pattern)
    permuted = apply_ordering(pattern, perm)
    parent = elimination_tree(permuted, symmetrize=False)
    counts = column_counts(permuted, parent, symmetrize=False)
    amalgamated = amalgamate(parent, counts, relaxed=relaxed, perfect=perfect)
    return AssemblyTreeResult(
        tree=assembly_tree_from_etree(amalgamated),
        permutation=perm,
        etree_parent=parent,
        counts=counts,
        amalgamated=amalgamated,
        symbolic=symbolic_stats(permuted, parent, counts=counts, symmetrize=False),
        ordering=ordering,
        relaxed=relaxed,
    )
