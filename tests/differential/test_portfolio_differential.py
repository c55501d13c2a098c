"""Differential tests: the ``"auto"`` portfolio vs the best single solver.

The portfolio's contract is relative, so the oracle is exhaustive: run
every in-core algorithm on the same tree and demand
``auto.peak <= TOLERANCE * min(single peaks)``.  The bench families the
routing table was fitted on are replayed instance by instance, and a
hypothesis layer checks the bound holds off-distribution too -- on drawn
trees no routing rule was ever fitted against.
"""

from __future__ import annotations

from hypothesis import given, settings

from _diff_strategies import task_trees
from repro.bench.scenario import get_scenario
from repro.bench.scenarios import IN_CORE_ALGORITHMS
from repro.solvers import solve
from repro.solvers.portfolio import (
    RACE_CANDIDATES,
    ROUTING_TABLE,
    TOLERANCE,
    route,
    tree_features,
)

#: the cheap bench families (the fitted distribution); ``large`` and
#: ``sparse_pipeline`` are covered by the committed campaign artifact
FAMILIES = ("synthetic", "random", "harpoon", "assembly", "etree")


def best_single_peak(kern) -> float:
    return min(solve(kern, name).peak_memory for name in IN_CORE_ALGORITHMS)


def test_auto_within_tolerance_on_bench_families():
    checked = 0
    for scenario_name in FAMILIES:
        for instance, tree in get_scenario(scenario_name).builder(0):
            kern = tree.kernel()
            auto = solve(kern, "auto")
            best = best_single_peak(kern)
            bound = TOLERANCE * best
            assert auto.peak_memory <= bound, (
                f"{scenario_name}/{instance}: auto={auto.peak_memory} "
                f"best={best} via {auto.extras['portfolio']}"
            )
            checked += 1
    assert checked >= 25  # the families must actually enumerate instances


@given(tree=task_trees(max_nodes=32))
@settings(max_examples=60)
def test_auto_within_tolerance_off_distribution(tree):
    kern = tree.kernel()
    auto = solve(kern, "auto")
    assert auto.peak_memory <= TOLERANCE * best_single_peak(kern)
    info = auto.extras["portfolio"]
    assert info["mode"] == "route"
    assert info["algorithm"] in IN_CORE_ALGORITHMS
    assert info["rule"] in {entry["rule"] for entry in ROUTING_TABLE}


def test_routing_table_is_wellformed():
    """The table is plain data: known features, known ops, catch-all last."""
    from repro.core.builders import chain_tree

    feature_names = set(tree_features(chain_tree(3, f=1.0, n=1.0).kernel()))
    assert ROUTING_TABLE[-1]["when"] == ()  # catch-all: route() always lands
    for entry in ROUTING_TABLE:
        assert entry["algorithm"] in IN_CORE_ALGORITHMS
        for key, op, threshold in entry["when"]:
            assert key in feature_names
            assert op in (">=", "<=", ">", "<")
            assert isinstance(threshold, float)


def test_route_picks_liu_on_harpoons_and_postorder_on_chains():
    from repro.core.builders import chain_tree
    from repro.generators.harpoon import harpoon_tree

    rule, algorithm = route(tree_features(harpoon_tree(8, memory=64.0).kernel()))
    assert (rule, algorithm) == ("harpoon-like", "liu")
    rule, algorithm = route(tree_features(chain_tree(50, f=2.0, n=1.0).kernel()))
    assert (rule, algorithm) == ("chain-dominated", "postorder")


def test_forced_race_equals_best_candidate():
    """race mode returns exactly the quality-best candidate, extras intact."""
    from repro.generators.harpoon import harpoon_tree

    tree = harpoon_tree(8, memory=64.0, epsilon=0.25)
    kern = tree.kernel()
    raced = solve(kern, "auto", race_threshold=1)
    expected = min(
        (solve(kern, name).peak_memory for name in RACE_CANDIDATES),
    )
    assert raced.peak_memory == expected
    info = raced.extras["portfolio"]
    assert info["mode"] == "race"
    assert info["candidates"] == list(RACE_CANDIDATES)
    assert raced.algorithm == "auto"


def test_large_tree_race_runs_in_the_calling_process():
    """At RACE_NODE_THRESHOLD nodes ``auto`` races without any pool."""
    import multiprocessing

    from repro.core.builders import chain_tree
    from repro.solvers.engine import dispatch

    dispatch.shutdown_engine()
    children = {p.pid for p in multiprocessing.active_children()}
    tree = chain_tree(25_000, f=2.0, n=1.0)
    report = solve(tree, "auto")
    assert not dispatch._default_engines
    assert {p.pid for p in multiprocessing.active_children()} <= children

    candidates = [solve(tree, name) for name in RACE_CANDIDATES]
    best = min(
        range(len(candidates)),
        key=lambda i: (candidates[i].peak_memory, candidates[i].io_volume, i),
    )
    forced = solve(tree, "auto", race_threshold=1)
    for got in (report, forced):
        assert got.algorithm == "auto"
        assert got.peak_memory == candidates[best].peak_memory
        assert got.traversal == candidates[best].traversal
    assert report.extras["portfolio"] == forced.extras["portfolio"] == {
        "algorithm": RACE_CANDIDATES[best],
        "mode": "race",
        "candidates": list(RACE_CANDIDATES),
        "features": tree_features(tree.kernel()),
    }


def test_features_are_json_safe_floats():
    from repro.generators.random_trees import random_attachment_tree

    features = tree_features(random_attachment_tree(60, seed=3).kernel())
    import json

    assert json.loads(json.dumps(features)) == features
    assert all(isinstance(v, float) for v in features.values())
