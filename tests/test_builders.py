"""Unit tests for tree builders and the model-variant reductions."""

import math
import random

import pytest

from repro.core.builders import (
    chain_tree,
    from_edges,
    from_liu_model,
    from_networkx,
    from_parent_list,
    from_replacement_model,
    star_tree,
    uniform_weights,
)
from repro.core.kernel import TreeKernel
from repro.core.liu import liu_min_memory
from repro.core.tree import Tree, TreeValidationError

from oracles import builders as builders_oracle


def _random_parent_array(rng):
    """A parent array over shuffled labels, sometimes broken on purpose."""
    p = rng.randint(1, 15)
    labels = list(range(p))
    rng.shuffle(labels)
    parents = [None] * p
    for k in range(1, p):
        parents[labels[k]] = labels[rng.randrange(k)]
    parents[labels[0]] = rng.choice([None, -1])
    roll = rng.random()
    if roll < 0.05 and p > 1:
        parents[labels[1]] = None  # a second root
    elif roll < 0.10 and p > 2:
        parents[labels[1]] = labels[2]  # often a cycle
    elif roll < 0.13:
        parents[rng.randrange(p)] = p + 3  # out of range
    weights = [0.0, 1.0, 2.5, 1e-9, 7.0]
    f = [rng.choice(weights) for _ in range(p)]
    n = [rng.choice(weights + [-1.0]) for _ in range(p)]
    roll = rng.random()
    if roll < 0.05:
        f[rng.randrange(p)] = -1.0
    elif roll < 0.10:
        f[rng.randrange(p)] = math.nan
    elif roll < 0.15:
        n[rng.randrange(p)] = math.inf
    elif roll < 0.20:
        n[rng.randrange(p)] = -50.0
    return parents, f, n


def _built(build, parents, f, n):
    """Everything observable about a build: the tree and kernel, or the error."""
    try:
        tree = build(parents, f, n)
    except Exception as exc:
        return type(exc), str(exc)
    kern = tree.kernel()
    nodes = [(v, tree.parent(v), tree.children(v), tree.f(v), tree.n(v))
             for v in tree.nodes()]
    arrays = (kern.ids, kern.parent, kern.child_ptr, kern.child_idx,
              kern.f, kern.n, kern.mem_req)
    return repr(nodes), repr(arrays)


class TestFromParentList:
    def test_basic(self):
        t = from_parent_list([None, 0, 0, 1], f=[1, 2, 3, 4], n=[0, 1, 0, 2])
        assert t.root == 0
        assert t.children(0) == (1, 2)
        assert t.f(3) == 4 and t.n(3) == 2

    def test_minus_one_root(self):
        t = from_parent_list([-1, 0, 1])
        assert t.root == 0
        assert t.children(1) == (2,)

    def test_multiple_roots_rejected(self):
        with pytest.raises(TreeValidationError):
            from_parent_list([None, None, 0])

    def test_cycle_rejected(self):
        with pytest.raises(TreeValidationError):
            from_parent_list([None, 2, 1, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(TreeValidationError):
            from_parent_list([None, 0], f=[1.0])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TreeValidationError):
            from_parent_list([None, 7])

    def test_invalid_weights_rejected(self):
        with pytest.raises(TreeValidationError, match="negative file size"):
            from_parent_list([None, 0], f=[5.0, -2.0])
        with pytest.raises(TreeValidationError, match="non-finite n"):
            from_parent_list([None, 0], n=[0.0, math.nan])

    def test_bulk_build_matches_per_node_oracle(self):
        """Same trees, kernels and errors as node-by-node insertion."""
        for seed in range(3000):
            parents, f, n = _random_parent_array(random.Random(seed))
            got = _built(from_parent_list, parents, f, n)
            expected = _built(builders_oracle.from_parent_list, parents, f, n)
            assert got == expected, f"seed {seed}"

    def test_kernel_is_built_and_validated(self):
        t = from_parent_list([2, 2, None], f=[1.0, 2.0, 0.0], n=[0.0, 0.0, 1.0])
        kern = t.kernel()
        assert kern.ids == [2, 0, 1] and kern._validated
        assert kern.parent == TreeKernel.from_tree(t).parent


class TestFromEdgesAndNetworkx:
    def test_from_edges(self):
        t = from_edges([("r", "a"), ("r", "b"), ("a", "c")], root="r", f={"a": 2.0})
        assert t.root == "r"
        assert t.f("a") == 2.0
        assert t.size == 4

    def test_from_edges_disconnected_rejected(self):
        with pytest.raises(TreeValidationError):
            from_edges([("r", "a"), ("x", "y")], root="r")

    def test_networkx_roundtrip(self):
        t = from_parent_list([None, 0, 0, 2], f=[1, 2, 3, 4], n=[5, 6, 7, 8])
        g = t.to_networkx()
        back = from_networkx(g, root=0)
        assert back == t


class TestShapes:
    def test_chain(self):
        t = chain_tree(5, f=2.0, n=1.0)
        assert t.size == 5
        assert t.height() == 4
        assert all(len(t.children(v)) <= 1 for v in t.nodes())

    def test_chain_invalid(self):
        with pytest.raises(TreeValidationError):
            chain_tree(0)

    def test_star(self):
        t = star_tree(4, root_f=1.0, leaf_f=3.0)
        assert t.size == 5
        assert len(t.children(t.root)) == 4
        assert t.mem_req(t.root) == pytest.approx(1.0 + 4 * 3.0)

    def test_uniform_weights(self):
        t = star_tree(3)
        u = uniform_weights(t, f=7.0, n=2.0)
        assert all(u.f(v) == 7.0 and u.n(v) == 2.0 for v in u.nodes())
        # original untouched
        assert t.f(t.root) == 0.0


class TestReplacementModel:
    def test_figure1_weights(self, paper_figure1_tree):
        """The reduction must reproduce the right-hand weights of Figure 1."""
        reduced = from_replacement_model(paper_figure1_tree)
        # leaves keep n = 0 (min(f, 0) = 0)
        for leaf in ("B", "E", "F", "G", "H"):
            assert reduced.n(leaf) == 0.0
        # C: f=2, children files 1+2=3 -> n = -min(2,3) = -2
        assert reduced.n("C") == -2.0
        # D: f=1, children files 2+3=5 -> n = -1
        assert reduced.n("D") == -1.0
        # A: f=1, children files 1+2+1=4 -> n = -1  (figure shows -1 at the root
        # of the transformed tree up to the root file convention)
        assert reduced.n("A") == -1.0

    def test_memreq_equals_replacement_rule(self, paper_figure1_tree):
        reduced = from_replacement_model(paper_figure1_tree)
        for node in reduced.nodes():
            children_sum = sum(
                paper_figure1_tree.f(c) for c in paper_figure1_tree.children(node)
            )
            expected = max(paper_figure1_tree.f(node), children_sum)
            assert reduced.mem_req(node) == pytest.approx(expected)


class TestLiuModel:
    def test_figure2_reduction(self):
        """Check the Figure 2 example: node weights of the merged tree."""
        # Column tree:      x is the root; children b, c; b has children d, e;
        #                    c has children f, g, h (matching Figure 2 shapes).
        parents = [None, 0, 0, 1, 1, 2, 2, 2]
        #          x     b  c  d  e  f  g  h
        n_plus = [1.0, 2.0, 3.0, 5.0, 2.0, 2.0, 2.0, 3.0]
        n_minus = [0.0, 2.0, 1.0, 3.0, 3.0, 5.0, 6.0, 2.0]
        tree = from_liu_model(parents, n_plus, n_minus)
        # f_i = n_minus
        assert [tree.f(i) for i in range(8)] == n_minus
        # x: n = n+ - n- - sum(children n-) = 1 - 0 - (2 + 1) = -2
        assert tree.n(0) == pytest.approx(-2.0)
        # b: 2 - 2 - (3 + 3) = -6
        assert tree.n(1) == pytest.approx(-6.0)
        # c: 3 - 1 - (5 + 6 + 2) = -11
        assert tree.n(2) == pytest.approx(-11.0)
        # leaves: n+ - n-
        assert tree.n(3) == pytest.approx(2.0)
        assert tree.n(5) == pytest.approx(-3.0)

    def test_memreq_matches_liu_peak(self):
        """MemReq of a merged node equals the Liu-model in-processing storage
        (n_{x+}) plus nothing else, for any instance."""
        parents = [None, 0, 0, 1]
        n_plus = [4.0, 6.0, 3.0, 2.0]
        n_minus = [1.0, 2.0, 1.0, 1.5]
        tree = from_liu_model(parents, n_plus, n_minus)
        for i in range(4):
            children = [j for j, p in enumerate(parents) if p == i]
            # f_i + n_i + sum(f_children) = n_minus + (n_plus - n_minus - sum) + sum
            assert tree.mem_req(i) == pytest.approx(n_plus[i])

    def test_length_mismatch(self):
        with pytest.raises(TreeValidationError):
            from_liu_model([None, 0], [1.0], [1.0, 2.0])
