"""Differential tests: incremental re-solve vs the from-scratch oracle.

``solve(tree, alg, reuse=report)`` promises *bit identity* with a
from-scratch solve of the mutated tree -- same peak (exact float ``==``),
same witness traversal, same I/O volume.  The oracle here is
``solve(tree.copy(), alg)``: the copy rebuilds its kernel with the
BFS labeling, so the comparison also proves the patched kernel's
append-at-the-end labeling does not leak into any result.

Coverage comes in two shapes: a hypothesis layer drawing adversarial
trees and mutation scripts interactively, and a seeded bulk layer
driving over a thousand independent mutation sequences (the acceptance
floor of the differential harness) with mode accounting -- the patched
fast path must actually run, not silently fall back to full sweeps.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from _diff_strategies import draw_mutations, task_trees
from repro.core.tree import Tree
from repro.solvers import solve
from repro.solvers.incremental import (
    INCREMENTAL_ALGORITHMS,
    STATE_CACHE_CAPACITY,
    clear_state_cache,
    solve_incremental,
    state_cache_size,
)

ALGORITHMS = ("postorder", "liu")


def assert_bit_identical(got, want) -> None:
    assert got.peak_memory == want.peak_memory
    assert got.traversal.order == want.traversal.order
    assert got.traversal.convention == want.traversal.convention
    assert got.io_volume == want.io_volume


def mutate(rng: random.Random, tree: Tree, max_ops: int) -> None:
    """Seeded analogue of :func:`_diff_strategies.draw_mutations`."""
    for _ in range(rng.randrange(1, max_ops + 1)):
        kind = rng.randrange(3)
        if kind == 0:
            tree.add_node(
                tree.size,
                parent=rng.randrange(tree.size),
                f=float(rng.randrange(13)),
                n=float(rng.randrange(7)),
            )
        elif kind == 1:
            tree.set_f(rng.randrange(tree.size), float(rng.randrange(13)))
        else:
            tree.set_n(rng.randrange(tree.size), float(rng.randrange(7)))


@given(data=st.data())
def test_incremental_matches_oracle(data):
    """Drawn tree, drawn mutation rounds: every re-solve is bit-identical."""
    tree = data.draw(task_trees(), label="tree")
    algorithm = data.draw(st.sampled_from(ALGORITHMS), label="algorithm")
    rounds = data.draw(st.integers(min_value=1, max_value=3), label="rounds")

    report = solve(tree, algorithm, reuse=True)
    assert_bit_identical(report, solve(tree.copy(), algorithm))
    assert report.extras["incremental"] == "full"

    for _ in range(rounds):
        draw_mutations(data, tree)
        report = solve(tree, algorithm, reuse=report)
        assert_bit_identical(report, solve(tree.copy(), algorithm))
        assert report.extras["incremental"] in ("patched", "full")


@given(data=st.data())
def test_unchanged_tree_hits_cache(data):
    """reuse= on an unmutated tree returns the cached state verbatim."""
    tree = data.draw(task_trees(max_nodes=20), label="tree")
    algorithm = data.draw(st.sampled_from(ALGORITHMS), label="algorithm")
    first = solve(tree, algorithm, reuse=True)
    again = solve(tree, algorithm, reuse=first)
    assert again.extras["incremental"] == "cached"
    assert_bit_identical(again, first)


def test_thousand_mutation_sequences():
    """The acceptance floor: >= 1000 independent seeded mutation sequences.

    Each sequence starts from a fresh random tree, applies 1-3 rounds of
    mutations, and asserts bit identity against the from-scratch oracle
    after every round.  Mode accounting proves the patched path carries
    the bulk of the work (journal overflow and cache eviction may demote
    individual rounds to "full", but never the majority).
    """
    rng = random.Random(20260808)
    modes = {"patched": 0, "full": 0, "cached": 0}
    sequences = 0
    for trial in range(1000):
        algorithm = ALGORITHMS[trial % 2]
        size = rng.randrange(2, 41)
        tree = Tree()
        tree.add_node(0, f=float(rng.randrange(13)), n=float(rng.randrange(7)))
        for i in range(1, size):
            tree.add_node(
                i,
                parent=rng.randrange(i),
                f=float(rng.randrange(13)),
                n=float(rng.randrange(7)),
            )
        report = solve(tree, algorithm, reuse=True)
        sequences += 1
        for _ in range(rng.randrange(1, 4)):
            mutate(rng, tree, max_ops=5)
            report = solve(tree, algorithm, reuse=report)
            modes[report.extras["incremental"]] += 1
            assert_bit_identical(report, solve(tree.copy(), algorithm))
    assert sequences >= 1000
    assert modes["patched"] > modes["full"], modes


def test_postorder_rules_all_supported():
    """Every postorder child-ordering rule re-solves bit-identically."""
    rng = random.Random(7)
    for rule in ("liu", "natural", "subtree_memory"):
        tree = Tree()
        tree.add_node(0, f=2.0, n=1.0)
        for i in range(1, 30):
            tree.add_node(i, parent=rng.randrange(i), f=float(i % 5), n=1.0)
        report = solve(tree, "postorder", rule=rule, reuse=True)
        mutate(rng, tree, max_ops=4)
        report = solve(tree, "postorder", rule=rule, reuse=report)
        assert_bit_identical(report, solve(tree.copy(), "postorder", rule=rule))


def test_reuse_by_token_string():
    """extras["incremental_token"] alone resumes the retained state."""
    tree = Tree()
    tree.add_node(0, f=1.0, n=1.0)
    tree.add_node(1, parent=0, f=2.0, n=1.0)
    report = solve(tree, "liu", reuse=True)
    tree.add_node(2, parent=1, f=3.0, n=0.0)
    resumed = solve(tree, "liu", reuse=report.extras["incremental_token"])
    assert resumed.extras["incremental"] == "patched"
    assert_bit_identical(resumed, solve(tree.copy(), "liu"))


def test_algorithm_mismatch_falls_back_to_full():
    """A liu state cannot seed a postorder re-solve (and vice versa)."""
    tree = Tree()
    tree.add_node(0, f=1.0, n=1.0)
    tree.add_node(1, parent=0, f=2.0, n=1.0)
    liu_report = solve(tree, "liu", reuse=True)
    tree.set_f(1, 5.0)
    crossed = solve(tree, "postorder", reuse=liu_report)
    assert crossed.extras["incremental"] == "full"
    assert_bit_identical(crossed, solve(tree.copy(), "postorder"))


def test_unsupported_algorithms_raise():
    tree = Tree()
    tree.add_node(0, f=1.0, n=1.0)
    for algorithm in ("minmem", "explore", "minio", "auto"):
        assert algorithm not in INCREMENTAL_ALGORITHMS
        with pytest.raises(TypeError):
            solve(tree, algorithm, reuse=True)
    with pytest.raises(TypeError, match="engine"):
        solve(tree, "liu", reuse=True, engine="kernel")


def test_pickled_tree_resumes_with_full_resolve():
    """Pickling drops the journal; reuse= stays correct (full, identical)."""
    tree = Tree()
    tree.add_node(0, f=1.0, n=1.0)
    for i in range(1, 12):
        tree.add_node(i, parent=i - 1, f=2.0, n=1.0)
    report = solve(tree, "postorder", reuse=True)
    tree.set_f(5, 9.0)
    clone = pickle.loads(pickle.dumps(tree))
    resumed = solve(clone, "postorder", reuse=report)
    assert resumed.extras["incremental"] == "full"
    assert_bit_identical(resumed, solve(clone.copy(), "postorder"))


def test_state_cache_is_bounded():
    clear_state_cache()
    tree = Tree()
    tree.add_node(0, f=1.0, n=1.0)
    for _ in range(STATE_CACHE_CAPACITY + 10):
        solve_incremental(tree.copy(), "liu", reuse=True)
    assert state_cache_size() == STATE_CACHE_CAPACITY
    clear_state_cache()
