"""Tests for the array-backed tree kernel (:mod:`repro.core.kernel`).

Three layers of coverage:

* representation: ``TreeKernel`` construction, caching on :class:`Tree`,
  round-trips, and the bulk :meth:`Tree.from_parents` builder;
* equivalence: every registered solver must agree with the per-node
  reference oracles of ``tests/oracles`` on random and adversarial trees --
  peak memory, I/O volume, the traversal itself and the eviction schedule --
  and every report must replay identically under the library's replay and
  the oracle replay;
* scale regression: a 100k-node chain and a ~100k-node iterated harpoon
  solve with every registered algorithm under the default interpreter
  recursion limit (the hot paths are explicit-stack iterative).
"""

from __future__ import annotations

import math
import pickle
import random
import sys

import pytest

from _helpers import make_random_tree
from oracles import liu as liu_oracle
from oracles import minio as minio_oracle
from oracles import minmem as minmem_oracle
from oracles import postorder as postorder_oracle
from oracles import replay as replay_oracle
from oracles.explore import ExploreSolver
from repro.bench.replay import replay_report
from repro.core.builders import chain_tree, star_tree
from repro.core.kernel import KernelExploreSolver, TreeKernel
from repro.core.liu import flatten_nodes, liu_optimal_traversal
from repro.core.minmem import min_mem
from repro.core.postorder import postorder_with_rule
from repro.core.traversal import TOPDOWN, Traversal
from repro.core.tree import Tree, TreeValidationError
from repro.generators.harpoon import iterated_harpoon_tree
from repro.generators.random_trees import (
    random_attachment_tree,
    random_binary_tree,
    random_caterpillar,
    random_recent_attachment_tree,
)
from repro.solvers import get_solver, list_solvers, solve, solve_many


def sample_trees():
    """A diverse bag of small trees exercising every structural corner."""
    rng = random.Random(20110527)
    trees = [
        chain_tree(1, f=3.0, n=1.0),
        chain_tree(60, f=2.0, n=1.0),
        star_tree(40, leaf_f=3.0, n=1.0),
        iterated_harpoon_tree(3, levels=3, memory=27.0, epsilon=0.5),
        random_attachment_tree(130, seed=7),
        random_recent_attachment_tree(130, seed=8, window=5),
        random_binary_tree(33, seed=9),
        random_caterpillar(25, seed=10),
    ]
    trees += [make_random_tree(60, rng) for _ in range(4)]
    trees += [make_random_tree(60, rng, window=4) for _ in range(4)]
    return trees


# ----------------------------------------------------------------------
# representation
# ----------------------------------------------------------------------
class TestTreeKernel:
    def test_from_tree_layout(self):
        tree = Tree()
        tree.add_node("r", f=1.0, n=0.5)
        tree.add_node("a", parent="r", f=2.0, n=0.0)
        tree.add_node("b", parent="r", f=3.0, n=0.25)
        tree.add_node("c", parent="a", f=4.0, n=0.0)
        kern = tree.kernel()
        assert kern.size == 4
        assert kern.ids[0] == "r" and kern.parent[0] == -1
        # children keep insertion order
        assert [kern.ids[i] for i in kern.children(0)] == ["a", "b"]
        assert kern.f[kern.index["c"]] == 4.0
        assert kern.mem_req[0] == pytest.approx(1.0 + 0.5 + 2.0 + 3.0)
        assert kern.child_f_sum[kern.index["a"]] == pytest.approx(4.0)
        assert kern.max_mem_req() == pytest.approx(tree.max_mem_req())

    def test_cache_and_invalidation(self):
        tree = chain_tree(5, f=1.0, n=1.0)
        kern = tree.kernel()
        assert tree.kernel() is kern  # cached
        tree.set_f(3, 7.0)
        kern2 = tree.kernel()
        assert kern2 is not kern
        assert kern2.f[3] == 7.0
        tree.add_node(5, parent=4, f=1.0, n=0.0)
        assert tree.kernel().size == 6

    def test_to_tree_round_trip(self):
        for tree in sample_trees():
            back = tree.kernel().to_tree()
            assert back == tree

    def test_pickle_round_trip(self):
        tree = random_attachment_tree(40, seed=3)
        kern = tree.kernel()
        clone = pickle.loads(pickle.dumps(kern))
        assert clone.ids == kern.ids
        assert clone.parent == kern.parent
        assert clone.f == kern.f
        # a pickled tree ships its cached kernel (workers skip the rebuild)
        tree2 = pickle.loads(pickle.dumps(tree))
        assert tree2.kernel().parent == kern.parent

    def test_rejects_non_topological_parents(self):
        with pytest.raises(ValueError):
            TreeKernel([-1, 2, 1], [0.0] * 3, [0.0] * 3)
        with pytest.raises(ValueError):
            TreeKernel([0, -1], [0.0] * 2, [0.0] * 2)
        with pytest.raises(ValueError):
            TreeKernel([-1, 0], [0.0], [0.0, 0.0])

    def test_validate_weights(self):
        kern = TreeKernel([-1, 0], [1.0, 2.0], [0.0, 0.0])
        kern.validate_weights()  # fine
        with pytest.raises(ValueError, match="negative file size"):
            TreeKernel([-1, 0], [1.0, -2.0], [5.0, 0.0]).validate_weights()
        with pytest.raises(ValueError, match="non-finite"):
            TreeKernel([-1, 0], [1.0, math.nan], [0.0, 0.0]).validate_weights()
        with pytest.raises(ValueError, match="negative memory requirement"):
            TreeKernel([-1, 0], [1.0, 1.0], [0.0, -5.0]).validate_weights()

    def test_weights_validated_once_per_kernel(self):
        kern = TreeKernel([-1, 0, 0], [0.0, 2.0, 1.0], [1.0, 0.0, 3.0])
        assert not kern._validated
        solve(kern, "minmem")
        assert kern._validated
        # a validated kernel is trusted: the solves sharing it skip the scan
        kern.f[1] = -2.0
        kern.validate_weights()
        assert pickle.loads(pickle.dumps(kern))._validated
        # derived kernels start unvalidated
        assert not TreeKernel.from_flat_arrays(*kern.to_flat_arrays())._validated
        assert not kern.patched([("f", 2, 5.0)])._validated


class TestFromParents:
    def test_bulk_matches_add_node(self):
        bulk = Tree.from_parents([-1, 0, 0, 1], f=[1.0, 2.0, 3.0, 4.0], n=[0.5] * 4)
        manual = Tree()
        manual.add_node(0, f=1.0, n=0.5)
        manual.add_node(1, parent=0, f=2.0, n=0.5)
        manual.add_node(2, parent=0, f=3.0, n=0.5)
        manual.add_node(3, parent=1, f=4.0, n=0.5)
        assert bulk == manual
        bulk.validate()

    def test_custom_ids(self):
        tree = Tree.from_parents([-1, 0, 1], f=[1, 2, 3], ids=["x", "y", "z"])
        assert tree.root == "x"
        assert tree.parent("z") == "y"
        assert tree.f("y") == 2.0

    def test_rejects_malformed(self):
        with pytest.raises(TreeValidationError):
            Tree.from_parents([])
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, 2, 1])  # forward reference
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, -1])  # two roots
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, 0], f=[1.0])  # length mismatch
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, 0], ids=["a", "a"])  # duplicate ids


# ----------------------------------------------------------------------
# kernel vs reference-oracle equivalence
# ----------------------------------------------------------------------
def oracle_report(tree, report):
    """``(peak, io_volume, traversal, evictions)`` the oracles produce for
    the solve behind ``report`` (an ``auto`` report: for the solver it
    routed to)."""
    spec = get_solver(report.extras.get("portfolio", {}).get("algorithm", report.algorithm))
    if spec.family == "postorder":
        result = postorder_oracle.postorder_with_rule(tree, report.extras["rule"])
        return result.memory, 0.0, result.traversal, None
    if spec.name == "liu":
        result = liu_oracle.liu_optimal_traversal(tree)
        return result.memory, 0.0, result.traversal, None
    if spec.name == "minmem":
        result = minmem_oracle.min_mem(tree)
        return result.memory, 0.0, result.traversal, None
    if spec.name == "explore":
        result = ExploreSolver(tree).explore(tree.root, report.extras["memory_limit"])
        order = tuple(flatten_nodes(result.traversal_chunks))
        return result.required, 0.0, Traversal(order, TOPDOWN), None
    assert spec.family == "minio", spec.name
    # the base traversal comes from the MinMem oracle, as the solver's
    # default base algorithm is minmem
    base = minmem_oracle.min_mem(tree)
    result = minio_oracle.run_out_of_core(
        tree, report.extras["memory_limit"], base.traversal, report.extras["heuristic"]
    )
    assert report.extras["in_core_peak"] == pytest.approx(base.memory)
    return (
        result.peak_resident,
        result.io_volume,
        result.schedule.traversal,
        result.schedule.evictions,
    )


def assert_replays_agree(tree, report):
    """The library replay validates ``report`` and the oracle replay
    recomputes the same metrics."""
    kernel = replay_report(tree, report)
    if report.schedule is not None:
        oracle = replay_oracle.replay_schedule(
            tree, report.schedule, memory=report.extras.get("memory_limit")
        )
    else:
        partial = not report.extras.get("completed", True)
        oracle = replay_oracle.replay_traversal(tree, report.traversal, partial=partial)
    assert oracle.peak_memory == pytest.approx(kernel.peak_memory)
    assert oracle.io_volume == pytest.approx(kernel.io_volume)
    assert (oracle.steps, oracle.evictions, oracle.complete) == (
        kernel.steps,
        kernel.evictions,
        kernel.complete,
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(set(list_solvers())))
    def test_identical_reports_and_valid_replays(self, algorithm):
        for tree in sample_trees():
            kernel = solve(tree, algorithm)
            peak, io, traversal, evictions = oracle_report(tree, kernel)
            assert kernel.peak_memory == pytest.approx(peak)
            assert kernel.io_volume == pytest.approx(io)
            assert kernel.traversal.order == traversal.order
            assert kernel.traversal.convention == traversal.convention
            if kernel.schedule is not None:
                assert kernel.schedule.evictions == evictions
            assert_replays_agree(tree, kernel)

    def test_solver_entry_points_accept_kernels(self):
        tree = random_attachment_tree(60, seed=5)
        kern = tree.kernel()
        assert liu_optimal_traversal(kern).memory == pytest.approx(
            liu_optimal_traversal(tree).memory
        )
        assert min_mem(kern).memory == pytest.approx(min_mem(tree).memory)
        assert postorder_with_rule(kern).memory == pytest.approx(
            postorder_with_rule(tree).memory
        )

    def test_result_shapes_match_reference(self):
        tree = random_attachment_tree(60, seed=6)
        for rule in ("liu", "natural", "subtree_memory"):
            kernel = postorder_with_rule(tree, rule=rule)
            reference = postorder_oracle.postorder_with_rule(tree, rule=rule)
            assert kernel.subtree_peak == pytest.approx(reference.subtree_peak)
            assert kernel.child_order == reference.child_order
        kernel = liu_optimal_traversal(tree)
        reference = liu_oracle.liu_optimal_traversal(tree)
        assert kernel.subtree_peak == pytest.approx(reference.subtree_peak)
        assert len(kernel.segments) == len(reference.segments)
        for seg_k, seg_r in zip(kernel.segments, reference.segments):
            assert seg_k.hill == pytest.approx(seg_r.hill)
            assert seg_k.valley == pytest.approx(seg_r.valley)
        for reuse_states in (True, False):
            kernel = min_mem(tree, reuse_states=reuse_states)
            reference = minmem_oracle.min_mem(tree, reuse_states=reuse_states)
            assert kernel.memory == pytest.approx(reference.memory)
            assert kernel.traversal == reference.traversal
            assert (kernel.iterations, kernel.explore_calls) == (
                reference.iterations,
                reference.explore_calls,
            )

    def test_explore_solver_parity_under_memory_pressure(self):
        rng = random.Random(99)
        for trial in range(6):
            tree = make_random_tree(50, rng, window=5 if trial % 2 else None)
            floor = tree.max_mem_req()
            optimum = min_mem(tree).memory
            for fraction in (1.0, 0.5, 0.0):
                memory = floor + fraction * (optimum - floor)
                oracle = ExploreSolver(tree)
                ref = oracle.explore(tree.root, memory)
                kern = tree.kernel()
                solver = KernelExploreSolver(kern)
                resident, cut, _, peak, required = solver.explore(0, memory)
                assert resident == pytest.approx(ref.resident)
                assert peak == pytest.approx(ref.peak)
                assert required == pytest.approx(ref.required)
                assert [kern.ids[j] for j in cut] == list(ref.cut)
                # leaves run inline, without a frame, yet count the same
                assert (solver.explore_calls, solver.nodes_visited) == (
                    oracle.explore_calls,
                    oracle.nodes_visited,
                )


class TestEngineOption:
    """``engine=`` no longer selects an implementation: there is one."""

    def test_solve_rejects_engine_option(self):
        tree = chain_tree(3)
        for algorithm in ("liu", "minmem", "postorder", "minio", "explore", "auto"):
            with pytest.raises(TypeError, match="engine"):
                solve(tree, algorithm, engine="kernel")
        with pytest.raises(TypeError, match="engine"):
            solve(tree, "liu", reuse=True, engine="kernel")

    def test_solve_many_drops_engine_option(self):
        tree = random_attachment_tree(40, seed=2)
        (with_option,) = solve_many([tree], ("liu", "minio"), engine="kernel")
        (plain,) = solve_many([tree], ("liu", "minio"))
        for name in ("liu", "minio"):
            assert with_option[name].peak_memory == plain[name].peak_memory
            assert with_option[name].traversal == plain[name].traversal
            assert "engine" not in with_option[name].extras

    def test_library_entry_points_take_no_engine(self):
        tree = chain_tree(3)
        for call in (
            lambda: liu_optimal_traversal(tree, engine="kernel"),
            lambda: min_mem(tree, engine="kernel"),
            lambda: postorder_with_rule(tree, engine="kernel"),
            lambda: replay_report(tree, solve(tree, "liu"), engine="kernel"),
        ):
            with pytest.raises(TypeError):
                call()


# ----------------------------------------------------------------------
# scale regression: deep and wide 100k-node instances, no recursion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deep_chain():
    return chain_tree(100_000, f=2.0, n=1.0)


@pytest.fixture(scope="module")
def big_harpoon():
    # 1 + 3*2*(2^14 - 1) = 98_299 nodes, 42 levels of nested harpoons
    return iterated_harpoon_tree(2, levels=14, memory=1.0, epsilon=0.01)


class TestHundredThousandNodes:
    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        # the hot paths must not recurse: solving 100k-node instances has to
        # succeed without ever touching the interpreter recursion limit
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(old)

    @pytest.mark.parametrize("algorithm", sorted(set(list_solvers())))
    def test_chain_100k_solves(self, deep_chain, algorithm):
        report = solve(deep_chain, algorithm)
        assert report.peak_memory > 0
        assert replay_report(deep_chain, report).peak_memory == pytest.approx(
            report.peak_memory
        )

    @pytest.mark.parametrize("algorithm", sorted(set(list_solvers())))
    def test_harpoon_100k_solves(self, big_harpoon, algorithm):
        report = solve(big_harpoon, algorithm)
        assert report.peak_memory > 0
        assert replay_report(big_harpoon, report).peak_memory == pytest.approx(
            report.peak_memory
        )

    def test_chain_100k_known_optimum(self, deep_chain):
        # uniform chain f=2, n=1: every traversal needs f_parent+n+f = 5
        assert min_mem(deep_chain).memory == pytest.approx(5.0)
        assert liu_optimal_traversal(deep_chain).memory == pytest.approx(5.0)
        assert postorder_with_rule(deep_chain).memory == pytest.approx(5.0)

    def test_harpoon_100k_matches_theorem_bounds(self, big_harpoon):
        from repro.generators.harpoon import (
            optimal_memory_bound,
            postorder_memory_bound,
        )

        optimum = liu_optimal_traversal(big_harpoon).memory
        postorder = postorder_with_rule(big_harpoon).memory
        assert optimum == pytest.approx(optimal_memory_bound(2, 14, 1.0, 0.01))
        assert postorder == pytest.approx(postorder_memory_bound(2, 14, 1.0, 0.01))


class TestFlatArrays:
    """to_flat_arrays / from_flat_arrays: the engine arena's transport."""

    def _trees(self):
        from repro.core.builders import chain_tree, star_tree
        from repro.generators.random_trees import random_attachment_tree

        return [
            chain_tree(1),
            chain_tree(6, f=2.0, n=1.0),
            star_tree(12, leaf_f=3.0, n=0.5),
            random_attachment_tree(150, seed=17),
        ]

    def test_round_trip_is_bit_identical(self):
        for tree in self._trees():
            kern = tree.kernel()
            parent, f, n = kern.to_flat_arrays()
            ids = None if kern.has_trivial_ids() else kern.ids
            clone = TreeKernel.from_flat_arrays(parent, f, n, ids=ids)
            for attr in (
                "size", "ids", "index", "parent", "child_ptr", "child_idx",
                "f", "n", "mem_req", "child_f_sum",
            ):
                assert getattr(clone, attr) == getattr(kern, attr), attr
            # plain python scalars, exactly like the __init__ path
            assert all(type(x) is int for x in clone.parent)
            assert all(type(x) is float for x in clone.mem_req)

    def test_non_trivial_ids(self):
        tree = Tree()
        tree.add_node("r", f=1.0, n=0.5)
        tree.add_node("a", parent="r", f=2.0, n=0.25)
        tree.add_node(("b", 3), parent="r", f=3.0, n=0.75)
        kern = tree.kernel()
        assert not kern.has_trivial_ids()
        parent, f, n = kern.to_flat_arrays()
        clone = TreeKernel.from_flat_arrays(parent, f, n, ids=kern.ids)
        assert clone.ids == kern.ids
        assert clone.index == kern.index

    def test_validation_errors(self):
        import numpy as np

        with pytest.raises(ValueError, match="root"):
            TreeKernel.from_flat_arrays(np.array([0]), np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match="topological"):
            TreeKernel.from_flat_arrays(
                np.array([-1, 2, 1]), np.zeros(3), np.zeros(3)
            )
        with pytest.raises(ValueError, match="same length"):
            TreeKernel.from_flat_arrays(np.array([-1, 0]), np.zeros(1), np.zeros(2))
        with pytest.raises(ValueError, match="empty"):
            TreeKernel.from_flat_arrays(
                np.array([], dtype=np.int64), np.array([]), np.array([])
            )
        with pytest.raises(ValueError, match="duplicates"):
            TreeKernel.from_flat_arrays(
                np.array([-1, 0]), np.zeros(2), np.zeros(2), ids=["x", "x"]
            )

    def test_solvers_agree_on_attached_kernel(self):
        from repro.solvers import solve

        tree = self._trees()[-1]
        kern = tree.kernel()
        parent, f, n = kern.to_flat_arrays()
        ids = None if kern.has_trivial_ids() else kern.ids
        clone = TreeKernel.from_flat_arrays(parent, f, n, ids=ids)
        for algorithm in ("postorder", "liu", "minmem"):
            assert solve(clone, algorithm) == solve(kern, algorithm)
