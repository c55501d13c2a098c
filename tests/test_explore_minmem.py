"""Unit tests for the Explore algorithm and the MinMem exact solver."""

import math
import random
import threading

import pytest

from repro.bench.replay import replay_report
from repro.core.bruteforce import optimal_min_memory
from repro.core.builders import chain_tree, from_parent_list, star_tree
from repro.core.kernel import KernelExploreSolver, flatten_chunks
from repro.core.liu import liu_min_memory
from repro.core.minmem import min_mem, min_memory
from repro.core.postorder import best_postorder
from repro.core.traversal import TOPDOWN, check_in_core, is_topological, peak_memory
from repro.generators.harpoon import harpoon_tree, iterated_harpoon_tree
from repro.solvers import solve

from _helpers import make_random_tree


def explore(tree, memory, **kw):
    """One Explore call from the root: ``(resident, cut ids, order, peak)``."""
    kern = tree.kernel()
    solver = KernelExploreSolver(kern, **kw)
    resident, cut, chunks, peak, _ = solver.explore(0, memory)
    order = kern.order_to_ids(flatten_chunks(chunks))
    return resident, [kern.ids[j] for j in cut], order, peak


class TestExplore:
    def test_blocked_root(self):
        t = star_tree(3, root_f=1.0, leaf_f=2.0)
        resident, cut, _, peak = explore(t, 3.0)  # MemReq(root) = 7 > 3
        assert resident == math.inf
        assert peak == pytest.approx(7.0)
        assert cut == []

    def test_full_exploration(self):
        t = star_tree(3, root_f=1.0, leaf_f=2.0)
        resident, _, order, peak = explore(t, 10.0)
        assert resident == 0.0
        assert peak == math.inf
        assert sorted(order, key=str) == sorted(t.nodes(), key=str)

    def test_partial_exploration_reports_cut(self):
        # root f=0 with two chains; one chain needs little memory, the other a lot
        t = from_parent_list(
            [None, 0, 0, 1, 2],
            f=[0.0, 1.0, 1.0, 1.0, 8.0],
            n=[0.0, 0.0, 0.0, 0.0, 0.0],
        )
        resident, cut, _, peak = explore(t, 3.0)
        # node 4 (needs 8+1=9 > available) blocks its branch
        assert 4 in cut or 2 in cut
        assert peak > 3.0
        assert resident >= 0.0

    def test_peak_estimate_lets_progress(self):
        t = star_tree(2, root_f=0.0, leaf_f=4.0)
        _, _, _, peak = explore(t, 8.0)
        assert peak == math.inf  # fully explored: 8 = MemReq(root) suffices

    def test_resume_states_consistent(self):
        t = make_random_tree(30, __import__("random").Random(3))
        kern = t.kernel()
        fresh = KernelExploreSolver(kern, reuse_states=False)
        cached = KernelExploreSolver(kern, reuse_states=True)
        for m in (t.max_mem_req(), t.max_mem_req() * 1.5, t.max_mem_req() * 3):
            a_resident, _, _, a_peak, _ = fresh.explore(0, m)
            b_resident, _, _, b_peak, _ = cached.explore(0, m)
            assert a_resident == pytest.approx(b_resident)
            assert (a_peak == b_peak == math.inf) or a_peak == pytest.approx(b_peak)


class TestMinMem:
    def test_single_node(self):
        t = from_parent_list([None], f=[1.0], n=[4.0])
        res = min_mem(t)
        assert res.memory == pytest.approx(5.0)
        assert res.traversal.convention == TOPDOWN

    def test_matches_bruteforce(self, rng):
        for _ in range(80):
            t = make_random_tree(rng.randint(1, 10), rng)
            assert min_memory(t) == pytest.approx(optimal_min_memory(t))

    def test_matches_liu(self, rng):
        for _ in range(60):
            t = make_random_tree(rng.randint(1, 60), rng)
            assert min_memory(t) == pytest.approx(liu_min_memory(t))

    def test_traversal_is_complete_witness(self, rng):
        for _ in range(40):
            t = make_random_tree(rng.randint(1, 40), rng)
            res = min_mem(t)
            assert len(res.traversal) == t.size
            assert is_topological(t, res.traversal)
            assert peak_memory(t, res.traversal) == pytest.approx(res.memory)
            assert check_in_core(t, res.memory, res.traversal)

    def test_no_reuse_same_result(self, rng):
        for _ in range(20):
            t = make_random_tree(rng.randint(1, 25), rng)
            fast = min_mem(t, reuse_states=True)
            slow = min_mem(t, reuse_states=False)
            assert fast.memory == pytest.approx(slow.memory)
            assert peak_memory(t, slow.traversal) == pytest.approx(slow.memory)

    def test_never_below_max_memreq(self, rng):
        for _ in range(30):
            t = make_random_tree(rng.randint(1, 30), rng)
            assert min_memory(t) >= t.max_mem_req() - 1e-9

    def test_never_worse_than_postorder(self, rng):
        for _ in range(30):
            t = make_random_tree(rng.randint(1, 30), rng)
            assert min_memory(t) <= best_postorder(t).memory + 1e-9

    def test_harpoon_optimal(self):
        t = harpoon_tree(4, memory=1.0, epsilon=0.01)
        assert min_memory(t) == pytest.approx(1.0 + 4 * 0.01)

    def test_iterated_harpoon_optimal(self):
        t = iterated_harpoon_tree(3, 3, memory=1.0, epsilon=0.01)
        assert min_memory(t) == pytest.approx(liu_min_memory(t))

    def test_deep_chain_no_recursion_error(self):
        t = chain_tree(20000, f=1.0, n=0.0)
        res = min_mem(t)
        assert res.memory == pytest.approx(2.0)
        assert len(res.traversal) == 20000

    def test_iteration_counters(self):
        t = star_tree(4, root_f=0.0, leaf_f=1.0)
        res = min_mem(t)
        assert res.iterations >= 1
        assert res.explore_calls >= res.iterations


#: an 8-node tree whose float sums drift past the 1e-9 tolerance: a child
#: stays a candidate after every pass over the root's cut, merging nothing
STALL_PAYLOAD = {
    "parents": [-1, 0, 0, 0, 0, 3, 0, 3],
    "f": [0, 3, 0, 1e6, 1e12, 1e-9, 0.1, 3],
    "n": [0, 0.1, 3, 0.1, 3, 3, 0, 0],
}

#: weights spanning 26 decades: sums of these lose low-order bits
WIDE_WEIGHTS = (0.0, 1e-9, 0.1, 1.0, 3.0, 1e6, 1e12, 1e17)


def _minmem_within(tree, seconds=5.0):
    """``solve(tree, "minmem")`` in a daemon thread; fails if it overruns."""
    box = {}

    def target():
        try:
            box["report"] = solve(tree, "minmem")
        except Exception as exc:
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"minmem did not finish within {seconds} s"
    return box


class TestTermination:
    """A pass over the cut that merges nothing ends the pass loop."""

    def test_pinned_float_stall_raises(self):
        tree = from_parent_list(**STALL_PAYLOAD)
        outcome = _minmem_within(tree)
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "floating-point stall" in str(outcome["error"])
        assert solve(tree, "liu").peak_memory == 1000001000003.1

    def test_wide_weight_sweep_answers_or_stalls(self):
        answered = 0
        for seed in range(2000):
            rng = random.Random(seed)
            p = rng.randint(1, 12)
            tree = from_parent_list(
                [None] + [rng.randrange(i) for i in range(1, p)],
                f=[rng.choice(WIDE_WEIGHTS) for _ in range(p)],
                n=[rng.choice(WIDE_WEIGHTS) for _ in range(p)],
            )
            outcome = _minmem_within(tree)
            if "error" in outcome:
                assert isinstance(outcome["error"], RuntimeError), f"seed {seed}"
                assert "floating-point stall" in str(outcome["error"])
            else:
                replay_report(tree, outcome["report"])
                answered += 1
        assert answered >= 1900

