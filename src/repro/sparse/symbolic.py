"""Symbolic Cholesky factorization.

Given the symmetrized pattern of a matrix and its elimination tree, this
module computes

* :func:`column_counts` -- the number of nonzeros of every column of the
  Cholesky factor ``L`` (including the diagonal), the quantity the paper
  calls ``mu`` when weighting assembly-tree nodes;
* :func:`column_patterns` -- the full row pattern of every column of ``L``
  (needed by the multifrontal numeric engine);
* :func:`symbolic_stats` -- aggregate statistics (``nnz(L)``, factorization
  flops) used by the experiment drivers.

Row ``i`` of ``L`` is the set of columns encountered when climbing the
elimination tree from every ``k`` with ``a_ik != 0, k < i`` up to ``i`` (the
row-subtree algorithm; its per-entry climb is kept as the test oracle under
``tests/oracles``).  :func:`column_counts` is the Gilbert--Ng--Peyton
formulation of the same quantity: row subtrees are never walked -- each one
is summarised by its entries sorted in postorder, whose consecutive lowest
common ancestors delimit the overlaps between the climbed paths (the
non-skeleton entries cancel out of the telescoped sum).
The per-path increments become ±1 deltas on path endpoints, accumulated for
all rows at once and resolved by one prefix sum over the postordered tree,
so the total Python work is a handful of numpy calls regardless of
``nnz(L)``.

:func:`column_patterns` allocates the CSC structure of ``L`` up front
(sizes are exactly the column counts) and fills it with sorted-array merges
-- each child pattern is consumed by exactly one parent, so the merged
volume is ``O(nnz(L))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .etree import (
    _ancestor_table,
    _children_csr,
    _first_descendants,
    _lca_batch,
    _lower_coo,
    _postorder_flat,
    elimination_tree,
    etree_levels,
)
from .graph import symmetrized_pattern

__all__ = ["column_counts", "column_patterns", "SymbolicStats", "symbolic_stats"]


def column_counts(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    symmetrize: bool = True,
) -> np.ndarray:
    """Nonzero count of every column of ``L`` (diagonal included).

    Parameters
    ----------
    matrix:
        Square sparse matrix (pattern only is used, symmetrized internally).
    parent:
        Optional precomputed elimination-tree parent array.
    symmetrize:
        Set to False only when ``matrix`` already is a symmetrized pattern
        (structurally symmetric with a full diagonal, as produced by
        :func:`~repro.sparse.graph.symmetrized_pattern`): skips the
        ``O(nnz)`` re-symmetrization passes on the pipeline hot path.
    """
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    if parent is None:
        parent = elimination_tree(pattern, symmetrize=False)
    return _kernel_column_counts(pattern, np.asarray(parent, dtype=np.int64))


def _kernel_column_counts(pattern: sp.csr_matrix, parent: np.ndarray) -> np.ndarray:
    """Vectorized Gilbert--Ng--Peyton column counts.

    ``counts[j] - 1`` is the number of rows ``i > j`` whose row subtree
    contains ``j``, i.e. the number of half-open etree paths ``[k, i)``
    (one per strictly-lower entry ``a_ik``) covering ``j``, with overlaps
    between paths of the same row removed.  Sorting each row's entries by
    postorder position turns the union into a telescoped sum: add the path
    ``[k_t, i)`` for every entry, subtract ``[lca(k_t, k_{t+1}), i)`` for
    every consecutive pair.  A path ``[a, b)`` adds 1 to ``delta[a]`` and
    -1 to ``delta[b]``, and the per-column coverage is the subtree sum of
    ``delta`` -- a prefix sum over the postorder, where every subtree is one
    contiguous segment.
    """
    n = pattern.shape[0]
    counts = np.ones(n, dtype=np.int64)
    if n == 0:
        return counts
    rows, cols = _lower_coo(pattern)
    if rows.size == 0:
        return counts
    post = np.empty(n, dtype=np.int64)
    inv_post = _postorder_flat(parent)
    post[inv_post] = np.arange(n, dtype=np.int64)
    levels = etree_levels(parent)

    order = np.lexsort((post[cols], rows))
    rows, cols = rows[order], cols[order]
    delta = np.zeros(n, dtype=np.int64)
    np.add.at(delta, cols, 1)
    np.subtract.at(delta, rows, 1)
    same_row = rows[1:] == rows[:-1]
    if same_row.any():
        up = _ancestor_table(parent, levels)
        overlap = _lca_batch(up, levels, cols[:-1][same_row], cols[1:][same_row])
        np.subtract.at(delta, overlap, 1)
        np.add.at(delta, rows[1:][same_row], 1)

    first = _first_descendants(parent, post)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(delta[inv_post], out=prefix[1:])
    counts += prefix[post + 1] - prefix[first]
    return counts


def column_patterns(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    symmetrize: bool = True,
) -> List[np.ndarray]:
    """Row pattern (strictly below the diagonal) of every column of ``L``.

    The pattern of column ``j`` is the union of the below-diagonal pattern of
    column ``j`` of ``A`` and of the patterns of its elimination-tree
    children, minus the children themselves -- computed bottom-up.  The
    output of column ``j`` is a sorted ``numpy`` array of row indices ``> j``.

    The CSC structure of ``L`` is allocated up front from the column counts
    and filled with sorted-array merges (each returned pattern is a view into
    one shared buffer).  ``symmetrize=False`` declares that ``matrix``
    already is a symmetrized pattern (see :func:`column_counts`).
    """
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    if parent is None:
        parent = elimination_tree(pattern, symmetrize=False)
    return _kernel_column_patterns(pattern, np.asarray(parent, dtype=np.int64))


def _kernel_column_patterns(
    pattern: sp.csr_matrix, parent: np.ndarray
) -> List[np.ndarray]:
    """CSC-structured bottom-up merges on flat arrays (no Python sets)."""
    n = pattern.shape[0]
    counts = _kernel_column_counts(pattern, parent)
    indptr_l = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts - 1, out=indptr_l[1:])
    buffer = np.empty(int(indptr_l[-1]), dtype=np.int64)

    csc = sp.csc_matrix(pattern)
    csc.sort_indices()
    a_indptr = csc.indptr
    a_indices = csc.indices.astype(np.int64, copy=False)
    child_ptr, child_idx, _ = _children_csr(parent)

    patterns: List[np.ndarray] = [buffer[:0]] * n
    # children precede parents in column order, so a plain ascending sweep
    # is bottom-up; each child pattern is merged into exactly one parent
    for j in range(n):
        rows = a_indices[a_indptr[j] : a_indptr[j + 1]]
        pieces = [rows[rows > j]]
        for c in child_idx[child_ptr[j] : child_ptr[j + 1]]:
            child_pattern = patterns[c]
            pieces.append(child_pattern[child_pattern > j])
        merged = pieces[0] if len(pieces) == 1 else np.unique(np.concatenate(pieces))
        target = buffer[indptr_l[j] : indptr_l[j + 1]]
        if merged.size != target.size:
            raise AssertionError(
                f"column {j}: merged pattern has {merged.size} rows, "
                f"column count predicts {target.size}"
            )
        target[:] = merged
        patterns[j] = target
    return patterns


@dataclass(frozen=True)
class SymbolicStats:
    """Aggregate results of the symbolic factorization."""

    n: int
    nnz_a: int
    nnz_l: int
    flops: float
    max_column_count: int

    @property
    def fill_ratio(self) -> float:
        """``nnz(L) / nnz(tril(A))`` -- the fill-in factor."""
        return self.nnz_l / max(self.nnz_a, 1)


def symbolic_stats(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    counts: Optional[np.ndarray] = None,
    symmetrize: bool = True,
) -> SymbolicStats:
    """Size, fill and flop statistics of the Cholesky factorization.

    ``counts`` may pass precomputed column counts (as returned by
    :func:`column_counts` for the same matrix) to skip recomputing them;
    ``symmetrize=False`` declares that ``matrix`` already is a symmetrized
    pattern (see :func:`column_counts`).
    """
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    n = pattern.shape[0]
    if counts is None:
        counts = column_counts(pattern, parent)
    nnz_lower_a = int((pattern.nnz + n) // 2)
    flops = float(np.sum(counts.astype(np.float64) ** 2))
    return SymbolicStats(
        n=n,
        nnz_a=nnz_lower_a,
        nnz_l=int(np.sum(counts)),
        flops=flops,
        max_column_count=int(np.max(counts)) if n else 0,
    )
