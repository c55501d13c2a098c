"""Tests of the benchmark's own helpers, and a tiny seeded run of each workload.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from time import perf_counter, sleep

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchlib import exact, inputs, spec, stats  # noqa: E402
from benchlib.stats import Tally  # noqa: E402


# ----------------------------------------------------------------------
# the tail rule: the highest percentile with ten samples beyond it
# ----------------------------------------------------------------------
def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    t = stats.tail(values)
    assert t == 89
    assert sum(v > t for v in values) == 10
    assert stats.tail_level(100) == pytest.approx(90.0)


def test_tail_is_order_independent_and_small_samples_fall_back_to_max():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert stats.tail(values) == stats.tail(sorted(values))
    assert stats.tail([4.0, 2.0, 3.0]) == 4.0
    assert stats.tail_level(10) == 100.0
    assert stats.tail(list(range(11))) == 0


def test_summarize_reports_count_and_level():
    s = stats.summarize([float(x) for x in range(1, 201)])
    assert (s.p50, s.tail, s.count) == (100.5, 190.0, 200)
    assert s.level == pytest.approx(95.0)


def test_window_tail_is_the_median_of_window_tails():
    windows = [list(range(50)), list(range(100, 150)), list(range(200, 250))]
    assert stats.window_tail(windows) == stats.tail(windows[1])
    assert stats.window_tail(windows + [[]]) == stats.window_tail(windows)


def test_kind_median_does_not_jump_across_a_gap_between_kinds():
    # three fast kinds, three slow ones: one slow sample of a fast kind moves
    # the pooled median across the gap, but not the median of kind medians
    kinds = {k: [10.0, 10.0, 10.0] for k in "abc"}
    kinds.update({k: [20.0, 20.0, 20.0] for k in "def"})
    kinds["c"][0] = 30.0
    pooled = [x for v in kinds.values() for x in v]
    assert stats.median(pooled) == 20.0
    assert stats.kind_median(kinds) == 15.0


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_tally_counts_every_failure_kind_once():
    tally = Tally()
    tally.ok()
    tally.check(True, "check")
    tally.check(False, "check", "wrong peak")
    tally.fail("rejected", "queue full")
    tally.fail("deadline", "req-7")
    tally.fail("time limit", "req-9")
    assert (tally.attempted, tally.failed) == (6, 4)
    assert tally.failed_frac == pytest.approx(4 / 6)
    assert tally.reasons == {"check": 1, "rejected": 1, "deadline": 1, "time limit": 1}


def test_service_check_counts_rejections_deadlines_and_silence():
    from benchlib.service import Request, _check

    def req(rid, status, peak=1.0, latency=0.001):
        r = Request(rid, b"", 3, 1.0)
        r.due, r.sent = 10.0, 10.0
        if status is not None:
            r.recv, r.status, r.peak = 10.0 + latency, status, peak
        return r

    tally = Tally()
    _check([
        req("ok", "ok"),
        req("wrong", "ok", peak=2.0),
        req("rejected", "rejected"),
        req("deadline", "deadline"),
        req("silent", None),
        req("late", "ok", latency=spec.SERVICE_OP_LIMIT_S + 1),
    ], tally)
    assert (tally.attempted, tally.failed) == (6, 5)
    assert set(tally.reasons) == {"wrong peak", "rejected", "deadline", "no answer", "time limit"}


# ----------------------------------------------------------------------
# open-loop lateness is measured from the due time
# ----------------------------------------------------------------------
class _SlowDaemon:
    """Stands in for the daemon: answers at once, but each send blocks."""

    def __init__(self, send_cost: float) -> None:
        self.send_cost = send_cost

    def submit(self, req) -> None:
        sleep(self.send_cost)
        req.sent = perf_counter()
        req.recv, req.status = req.sent, "ok"

    def wait_idle(self, deadline: float) -> None:
        pass


class _Stream:
    def __init__(self) -> None:
        self.i = 0

    def next(self):
        from benchlib.service import Request

        self.i += 1
        return Request(f"r{self.i}", b"", 1, 0.0)


def test_open_loop_times_requests_from_their_due_time():
    import numpy as np
    from benchlib.service import open_loop

    # 200 req/s offered, but every send takes 20 ms: the generator falls
    # behind, and both lateness and latency must show it
    reqs = open_loop(_SlowDaemon(0.02), _Stream(), rate=200.0, duration=0.5,
                     rng=np.random.default_rng(1))
    late = [r.sent - r.due for r in reqs]
    assert len(reqs) > 20
    assert all(x >= 0 for x in late)
    assert late[-1] > 0.1                      # the backlog accumulates
    assert all(r.recv - r.due >= r.sent - r.due for r in reqs)


# ----------------------------------------------------------------------
# names and limits of BENCHMARK.json
# ----------------------------------------------------------------------
def _document():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_the_spec():
    assert _document() == spec.benchmark_document()


def test_names_units_and_counts_are_within_limits():
    doc = _document()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    metrics = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert stats.check_names(names) == []
    assert stats.check_names(metrics) == []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert stats.UNIT_RE.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) <= 64 * 1024


def test_check_names_rejects_bad_and_duplicate_names():
    assert stats.check_names(["ok.name-1_x", "9lives"]) == []
    assert stats.check_names(["_x", "a b", "a/b", "x" * 65]) != []
    assert stats.check_names(["dup", "dup"]) == ["duplicate name 'dup'"]


def test_every_per_layer_metric_says_what_it_moves():
    for m in spec.PER_LAYER:
        assert m.moves and m.doc


# ----------------------------------------------------------------------
# inputs and exact checks
# ----------------------------------------------------------------------
def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    sizes = spec.SIZES["tiny"]
    a, b = inputs.large_trees(3, sizes), inputs.large_trees(3, sizes)
    assert inputs.crc(a) == inputs.crc(b)
    assert inputs.crc(a) != inputs.crc(inputs.large_trees(4, sizes))
    m = inputs.grid_matrices(3, 5, 3)
    assert inputs.crc(m) == inputs.crc(inputs.grid_matrices(3, 5, 3))
    mix = inputs.service_mix(3, 10)
    assert inputs.crc(mix) == inputs.crc(inputs.service_mix(3, 10))
    assert inputs.crc(mix) != inputs.crc(inputs.service_mix(3, 10, stream=1))


def _kind(name: str) -> str:
    return name.split("-")[2]


def _arrays(tree) -> tuple:
    """A repository Tree as parent-index / f / n lists, in node order."""
    nodes = tree.nodes()
    index = {node: k for k, node in enumerate(nodes)}
    parents = [-1 if tree.parent(v) is None else index[tree.parent(v)] for v in nodes]
    return parents, [tree.f(v) for v in nodes], [tree.n(v) for v in nodes]


def test_service_mix_follows_the_repository_traffic_shapes():
    from repro.bench.scenarios import _service_traffic
    from repro.core.builders import chain_tree
    from repro.generators.harpoon import harpoon_tree, iterated_harpoon_tree
    from repro.generators.synthetic import bamboo_with_bushes, broom_tree

    count = 60
    ours = inputs.service_mix(5, count)
    theirs = _service_traffic(5, count)
    # the same kind in every slot; the drawn sizes differ (each has its own RNG)
    assert [_kind(t.name) for t in ours] == [_kind(name) for name, _ in theirs]
    for i, t in enumerate(ours):
        kind, size = _kind(t.name), t.size
        if kind in ("attach", "deep"):
            assert 50 <= size <= 500, t.name
            continue
        if kind == "caterpillar":  # a spine of max(17, drawn // 3), 0-4 leaves each
            assert 17 <= size <= 5 * 166, t.name
            continue
        # the deterministic shapes: the repository's generator at our size
        expected = {
            "broom": lambda: broom_tree(size - 7, 7, f=3.0, n=1.0),
            "bamboo": lambda: bamboo_with_bushes(size // 5, 4, f_spine=2.0, f_bush=5.0, n=1.0),
            "chain": lambda: chain_tree(size, f=2.0, n=1.0),
            "harpoon": lambda: harpoon_tree((size - 1) // 3, memory=64.0, epsilon=0.25),
            "iterharpoon": lambda: iterated_harpoon_tree(
                3, levels=3, memory=float(8 + i % 5), epsilon=0.25),
        }[kind]()
        assert (t.parents, t.f, t.n) == _arrays(expected), t.name
        assert 50 <= size <= 500, t.name
    assert [t.size for t in ours if _kind(t.name) == "iterharpoon"] == [
        tree.size for name, tree in theirs if _kind(name) == "iterharpoon"]


def test_generated_parent_arrays_are_topological():
    for t in inputs.large_trees(1, spec.SIZES["tiny"]) + inputs.service_mix(1, 10):
        assert t.parents[0] == -1
        assert all(0 <= p < i for i, p in enumerate(t.parents[1:], start=1))


def test_exact_peak_matches_the_library_on_integer_weights():
    import repro

    t = inputs.service_mix(2, 3)[0]
    tree = repro.from_parent_list(t.parents, t.f, t.n)
    report = repro.solve(tree, "liu")
    et = exact.ExactTree(t.parents, t.f, t.n)
    peak = et.peak(report.traversal.order, report.traversal.convention == repro.TOPDOWN)
    assert peak == report.peak_memory * et.den


def test_exact_peak_is_exact_where_floats_round():
    from fractions import Fraction

    et = exact.ExactTree([-1, 0, 0], [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
    # the root holds both children's files: exactly 0.1 + 0.2 as real numbers,
    # which float addition rounds
    peak = Fraction(et.peak([1, 2, 0], topdown=False), et.den)
    assert peak == Fraction(0.1) + Fraction(0.2)
    assert Fraction(0.1 + 0.2) != peak


# ----------------------------------------------------------------------
# no process outlives a run
# ----------------------------------------------------------------------
def test_end_group_kills_a_child_and_what_it_started():
    import subprocess

    from benchlib import harness

    code = ("import subprocess, time\n"
            "subprocess.Popen(['sleep', '60'])\n"
            "print('started', flush=True)\n"
            "time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    assert proc.stdout.readline().strip() == "started"
    assert len(harness._group(proc.pid)) == 2
    harness.end_group(proc.pid)
    proc.wait(timeout=10)
    proc.stdout.close()
    assert harness._group(proc.pid) == []


def test_stop_children_stops_the_library_pool_and_resource_tracker():
    import subprocess

    # a 25k-node chain is above auto's race threshold: the race runs through
    # the library's process pool, whose arena starts the resource tracker
    code = ("import os, repro\n"
            "from benchlib.harness import descendants, stop_children\n"
            "t = repro.from_parent_list([-1] + list(range(24999)), [1.0] * 25000, [2.0] * 25000)\n"
            "repro.solve(t, 'auto')\n"
            "before = len(descendants(os.getpid())) - 1\n"
            "stop_children()\n"
            "print(before, len(descendants(os.getpid())) - 1)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    before, after = map(int, out.stdout.split())
    assert after == 0, f"{before} processes before, {after} after"


# ----------------------------------------------------------------------
# a tiny seeded run of every workload, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, tmp_path, monkeypatch):
    import run as bench_run

    monkeypatch.setattr(bench_run, "HERE", str(tmp_path))
    for trace in (False, True):
        doc, record, code = bench_run.run(workload, 7, 1.0, trace, scale="tiny")
        assert code == 0, record["failure_examples"]
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
        wanted = spec.PER_LAYER if trace else spec.END_TO_END
        assert list(doc["metrics"]) == [m.name for m in wanted]
        for m in wanted:
            assert doc["metrics"][m.name]["unit"] == m.unit
        if not trace:
            assert all(v["value"] > 0 for v in doc["metrics"].values())
        assert record["provenance"]["seed"] == 7
        assert record["provenance"]["inputs_crc"]
    assert os.path.exists(tmp_path / "out" / f"{workload}-seed7-trace1.spans.json")
    assert threading.active_count() == 1
