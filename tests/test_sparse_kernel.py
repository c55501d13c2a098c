"""Kernel-vs-reference equivalence of the vectorized sparse symbolic layer.

The vectorized :func:`elimination_tree`, :func:`column_counts`,
:func:`column_patterns` and :func:`amalgamate` must be bit-identical to the
per-entry reference oracles of ``tests/oracles/sparse.py`` on every matrix:
random SPD patterns (property-based via hypothesis), regular grids, and the
deterministic paper-suite matrices of
:func:`repro.analysis.datasets.matrix_suite`.
The counts/patterns cross-validation ``counts[j] == len(patterns[j]) + 1``
closes the loop between the two independent algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oracles import sparse as oracle
from repro.analysis.datasets import matrix_suite
from repro.sparse.amalgamation import amalgamate
from repro.sparse.assembly import build_assembly_tree
from repro.sparse.etree import elimination_tree, etree_levels, etree_to_task_tree
from repro.sparse.matrices import (
    anisotropic_laplacian_2d,
    banded_spd,
    grid_laplacian_2d,
    grid_laplacian_3d,
    random_spd,
)
from repro.sparse.symbolic import column_counts, column_patterns, symbolic_stats


def _assert_engines_agree(matrix, relaxed=(0, 1, 4)):
    """All four symbolic stages must match the reference bit for bit."""
    parent_k = elimination_tree(matrix)
    parent_r = oracle.elimination_tree(matrix)
    assert np.array_equal(parent_k, parent_r)

    counts_k = column_counts(matrix, parent_k)
    counts_r = oracle.column_counts(matrix, parent_r)
    assert np.array_equal(counts_k, counts_r)

    patterns_k = column_patterns(matrix, parent_k)
    patterns_r = oracle.column_patterns(matrix, parent_r)
    assert len(patterns_k) == len(patterns_r)
    for col_k, col_r in zip(patterns_k, patterns_r):
        assert col_k.dtype == col_r.dtype == np.int64
        assert np.array_equal(col_k, col_r)

    # cross-validation between the two independent symbolic algorithms
    for j in range(matrix.shape[0]):
        assert counts_k[j] == len(patterns_k[j]) + 1

    for budget in relaxed:
        am_k = amalgamate(parent_k, counts_k, relaxed=budget)
        am_r = oracle.amalgamate(parent_r, counts_r, relaxed=budget)
        assert am_k.supernodes == am_r.supernodes
        assert np.array_equal(am_k.parent, am_r.parent)
        assert np.array_equal(am_k.column_to_supernode, am_r.column_to_supernode)


@st.composite
def random_symmetric_patterns(draw):
    """Random sparse symmetric matrices, sometimes reducible (forests)."""
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.floats(min_value=0.0, max_value=0.3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    b = sp.random(n, n, density=density, random_state=rng, format="coo")
    return sp.csc_matrix(b + b.T + sp.identity(n))


class TestEngineEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(matrix=random_symmetric_patterns())
    def test_random_matrices(self, matrix):
        _assert_engines_agree(matrix, relaxed=(1,))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=60),
        bandwidth=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_banded_matrices(self, n, bandwidth, seed):
        _assert_engines_agree(banded_spd(n, bandwidth, seed=seed), relaxed=(0, 2))


class TestEngineEquivalenceSuites:
    @pytest.mark.parametrize(
        "matrix",
        [
            grid_laplacian_2d(7),
            grid_laplacian_2d(6, stencil=9),
            grid_laplacian_3d(4),
            anisotropic_laplacian_2d(6),
            random_spd(48, density=0.08, seed=11),
            sp.identity(9, format="csc"),  # diagonal: a forest of singletons
        ],
        ids=["grid2d", "grid2d-9pt", "grid3d", "aniso", "random", "diagonal"],
    )
    def test_grid_and_structured(self, matrix):
        _assert_engines_agree(matrix)

    def test_paper_suite(self):
        for name, matrix in matrix_suite("tiny"):
            _assert_engines_agree(matrix, relaxed=(1,))

    def test_counts_match_stats_both_engines(self):
        matrix = grid_laplacian_2d(8)
        stats_k = symbolic_stats(matrix)
        stats_r = symbolic_stats(matrix, counts=oracle.column_counts(matrix))
        assert stats_k == stats_r


class TestEtreeLevels:
    def test_cycle_raises_instead_of_hanging(self):
        from repro.core.tree import TreeValidationError

        # the historical builder raised TreeValidationError, so callers
        # catching it (or plain ValueError) must keep working
        with pytest.raises(TreeValidationError, match="cycle"):
            etree_levels([1, 2, 0])  # 3-cycle: no fixed point to converge to
        with pytest.raises(ValueError, match="cycle"):
            etree_levels([0])  # self-loop
        with pytest.raises(TreeValidationError, match="cycle"):
            etree_levels([1, 0])  # even cycle: converges to a bogus fixed point
        with pytest.raises(TreeValidationError, match="cycle"):
            etree_levels([-1, 0, 3, 2])  # valid tree + detached even cycle
        with pytest.raises(TreeValidationError, match="cycle"):
            etree_to_task_tree([1, 2, 0])

    def test_postorder_roots_increasing_for_any_negative_marker(self):
        from repro.sparse.etree import etree_postorder

        # any negative parent value marks a root; roots must still come out
        # in increasing vertex order (as the historical implementation did)
        assert list(etree_postorder([-1, -2])) == [0, 1]
        assert list(etree_postorder([-3, 2, -1])) == [0, 1, 2]

    def test_levels_match_reference_climb(self):
        parent = elimination_tree(random_spd(40, density=0.1, seed=5))
        levels = etree_levels(parent)
        for v in range(len(parent)):
            depth, u = 0, v
            while parent[u] >= 0:
                depth += 1
                u = parent[u]
            assert levels[v] == depth


class TestTaskTreeKernelCache:
    def test_from_parents_precaches_kernel(self):
        parent = elimination_tree(grid_laplacian_2d(5))
        tree = etree_to_task_tree(parent, f=[1.0] * 25, n_weights=[2.0] * 25)
        assert tree._kernel is not None  # cached at construction time
        kern = tree.kernel()
        assert kern is tree._kernel
        # the pre-cached kernel must agree with a fresh BFS relabeling
        from repro.core.kernel import TreeKernel

        fresh = TreeKernel.from_tree(tree)
        by_id = {kern.ids[i]: i for i in range(kern.size)}
        for node in tree.nodes():
            i, j = by_id[node], fresh.index[node]
            assert kern.f[i] == fresh.f[j] and kern.n[i] == fresh.n[j]
            assert kern.mem_req[i] == fresh.mem_req[j]

    def test_forest_gets_cached_kernel_too(self):
        parent = elimination_tree(sp.identity(6, format="csc"))
        tree = etree_to_task_tree(parent)
        assert tree._kernel is not None
        assert tree.root == -1


class TestPipelineEngines:
    def test_build_assembly_tree_engines_identical(self):
        matrix = grid_laplacian_2d(12)
        for ordering in ("natural", "rcm"):
            res_k = build_assembly_tree(matrix, ordering=ordering, relaxed=2)
            res_r = oracle.build_assembly_tree(matrix, ordering=ordering, relaxed=2)
            assert res_k.tree == res_r.tree
            assert np.array_equal(res_k.etree_parent, res_r.etree_parent)
            assert np.array_equal(res_k.counts, res_r.counts)
            assert res_k.symbolic == res_r.symbolic
            assert res_k.amalgamated.supernodes == res_r.amalgamated.supernodes
