"""Seeded input generators: every input the program receives is made here.

The program under test only ever sees the generated parent/f/n arrays,
sparse matrices or NDJSON lines; none of its own generators run.  Shapes
follow the repository's benchmark families (Section VI of the paper):

* the ``large`` family: a unit-weight chain, Theorem 1's iterated harpoon,
  a deep recent-attachment tree and a caterpillar, each followed by its
  Section VI-E reweighted copy (node weights uniform in ``[1, N/500]``,
  edge weights uniform in ``[1, N]``);
* the service mix: the repository's request-traffic shapes, 50-500 nodes;
* grid Laplacians (5-point 2-D, 7-point 3-D) under a seeded symmetric
  relabelling, so orderings see a different initial numbering per seed
  while the graph, and hence the fill a good ordering reaches, stays put.

:func:`crc` fingerprints a workload's inputs so two runs can prove they
measured the same thing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class TreeInput:
    """One tree as the parent/f/n arrays a caller hands to the library."""

    name: str
    parents: List[int]
    f: List[float]
    n: List[float]

    @property
    def size(self) -> int:
        return len(self.parents)

    def payload(self, scale: float = 1.0) -> dict:
        """The service's parent-array tree document, weights times ``scale``."""
        if scale == 1.0:
            return {"parents": self.parents, "f": self.f, "n": self.n}
        return {
            "parents": self.parents,
            "f": [x * scale for x in self.f],
            "n": [x * scale for x in self.n],
        }


def _tree(name: str, parents, f, n) -> TreeInput:
    return TreeInput(
        name,
        [int(p) for p in parents],
        [float(x) for x in f],
        [float(x) for x in n],
    )


# ----------------------------------------------------------------------
# shapes
# ----------------------------------------------------------------------
def chain(size: int, *, f: float = 2.0, n: float = 1.0) -> TreeInput:
    """A chain of ``size`` nodes, every one (the root too) with ``f`` and ``n``."""
    return _tree(f"chain-{size}", np.arange(-1, size - 1), np.full(size, f), np.full(size, n))


def iterated_harpoon(
    branches: int, levels: int, *, memory: float = 1.0, epsilon: float = 0.01
) -> TreeInput:
    """Theorem 1's iterated harpoon: every branch is heavy -> light -> tip."""
    parents, f = [-1], [epsilon]
    frontier = [0]
    for level in range(1, levels + 1):
        tip = memory if level == levels else epsilon
        nxt = []
        for anchor in frontier:
            for _ in range(branches):
                heavy = len(parents)
                parents.extend((anchor, heavy, heavy + 1))
                f.extend((memory / branches, epsilon, tip))
                nxt.append(heavy + 2)
        frontier = nxt
    return _tree(f"harpoon-b{branches}-l{levels}", parents, f, [0.0] * len(parents))


def recent_attachment(
    size: int, rng: np.random.Generator, *, window: int, max_f: int = 100, max_n: int = 20
) -> TreeInput:
    """Node ``i`` attaches to one of the ``window`` nodes before it (deep)."""
    i = np.arange(1, size)
    low = np.maximum(0, i - window)
    parents = np.concatenate(([-1], low + (rng.random(size - 1) * (i - low)).astype(np.int64)))
    f = rng.integers(1, max_f + 1, size).astype(float)
    f[0] = 0.0
    return _tree(f"deep-{size}", parents, f, rng.integers(0, max_n + 1, size))


def uniform_attachment(
    size: int, rng: np.random.Generator, *, max_f: int = 100, max_n: int = 20
) -> TreeInput:
    """Node ``i`` attaches to a uniformly random earlier node (bushy)."""
    i = np.arange(1, size)
    parents = np.concatenate(([-1], (rng.random(size - 1) * i).astype(np.int64)))
    f = rng.integers(1, max_f + 1, size).astype(float)
    f[0] = 0.0
    return _tree(f"attach-{size}", parents, f, rng.integers(0, max_n + 1, size))


def caterpillar(
    spine: int, rng: np.random.Generator, *, max_leaves: int, max_f: int = 100, max_n: int = 20
) -> TreeInput:
    """A spine of ``spine`` nodes, each with 0..``max_leaves`` leaf children."""
    leaves = rng.integers(0, max_leaves + 1, spine)
    parents = np.concatenate((np.arange(-1, spine - 1), np.repeat(np.arange(spine), leaves)))
    size = parents.size
    f = rng.integers(1, max_f + 1, size).astype(float)
    f[0] = 0.0
    return _tree(f"caterpillar-{spine}", parents, f, rng.integers(0, max_n + 1, size))


def broom(handle: int, bristles: int, *, f: float, n: float) -> TreeInput:
    """A chain of ``handle`` nodes ending in ``bristles`` leaves; uniform weights."""
    parents = np.concatenate((np.arange(-1, handle - 1), np.full(bristles, handle - 1)))
    size = parents.size
    return _tree(f"broom-{size}", parents, np.full(size, f), np.full(size, n))


def bamboo_with_bushes(
    segments: int, bush_size: int, *, f_spine: float, f_bush: float, n: float
) -> TreeInput:
    """A spine of ``segments`` nodes, each carrying ``bush_size`` leaves."""
    parents = np.concatenate(
        (np.arange(-1, segments - 1), np.repeat(np.arange(segments), bush_size))
    )
    f = np.concatenate((np.full(segments, f_spine), np.full(segments * bush_size, f_bush)))
    return _tree(f"bamboo-{parents.size}", parents, f, np.full(parents.size, n))


def reweighted(tree: TreeInput, rng: np.random.Generator) -> TreeInput:
    """Section VI-E: keep the shape, redraw n in [1, N/500] and f in [1, N]."""
    size = tree.size
    n = rng.integers(1, max(1, size // 500) + 1, size)
    f = rng.integers(1, size + 1, size).astype(float)
    if tree.f[0] == 0.0:
        f[0] = 0.0
    return _tree(f"reweighted-{tree.name}", tree.parents, f, n)


# ----------------------------------------------------------------------
# workload inputs
# ----------------------------------------------------------------------
def large_trees(seed: int, sizes: dict) -> List[TreeInput]:
    """The large family's shapes at ``sizes``, then their reweighted copies."""
    rng = np.random.default_rng([seed, 1])
    shapes = [
        chain(sizes["chain"]),
        iterated_harpoon(3, sizes["harpoon_levels"]),
        recent_attachment(sizes["deep"], rng, window=8),
        caterpillar(sizes["caterpillar_spine"], rng, max_leaves=3),
    ]
    return shapes + [reweighted(t, rng) for t in shapes]


def service_mix(seed: int, count: int, stream: int = 0) -> List[TreeInput]:
    """``count`` small heterogeneous trees of about 50-500 nodes (the request mix).

    The shapes and size rules of the repository's service traffic
    (``repro.bench.scenarios._service_traffic``), drawn from this module's
    own seeded generator: request ``i`` is of kind ``i % 5`` -- uniform
    attachment, recent attachment, a caterpillar whose spine is a third of
    the drawn size, a synthetic broom / bamboo-with-bushes / chain (by
    ``i % 3``), or a harpoon (``i`` odd: one level of 17-166 branches,
    52-499 nodes) or a 118-node iterated harpoon (``i`` even).  Different
    ``stream`` values draw independent mixes from the same seed.
    """
    rng = np.random.default_rng([seed, 2, stream])
    trees = []
    for i in range(count):
        size = int(rng.integers(50, 501))
        kind = i % 5
        if kind == 0:
            tree, label = uniform_attachment(size, rng), "attach"
        elif kind == 1:
            tree, label = recent_attachment(size, rng, window=6), "deep"
        elif kind == 2:
            tree, label = caterpillar(max(17, size // 3), rng, max_leaves=4), "caterpillar"
        elif kind == 3:
            shape = i % 3
            if shape == 0:
                tree, label = broom(size - 7, 7, f=3.0, n=1.0), "broom"
            elif shape == 1:
                tree = bamboo_with_bushes(max(2, size // 5), 4, f_spine=2.0, f_bush=5.0, n=1.0)
                label = "bamboo"
            else:
                tree, label = chain(size, f=2.0, n=1.0), "chain"
        elif i % 2:
            branches = 17 + int(rng.integers(150))
            tree = iterated_harpoon(branches, 1, memory=64.0, epsilon=0.25)
            label = "harpoon"
        else:
            tree = iterated_harpoon(3, 3, memory=float(8 + i % 5), epsilon=0.25)
            label = "iterharpoon"
        trees.append(TreeInput(f"req-{i:04d}-{label}-{tree.size}", tree.parents, tree.f, tree.n))
    return trees


@dataclass(frozen=True)
class MatrixInput:
    """A grid Laplacian under a seeded symmetric relabelling."""

    name: str
    matrix: sp.csc_matrix

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]


def grid_laplacian(dims: Sequence[int]) -> sp.csc_matrix:
    """5-point (2-D) or 7-point (3-D) Laplacian plus the identity (SPD)."""
    size = int(np.prod(dims))
    idx = np.arange(size).reshape(dims)
    rows, cols = [], []
    for axis in range(len(dims)):
        lo = [slice(None)] * len(dims)
        hi = [slice(None)] * len(dims)
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        a, b = idx[tuple(lo)].ravel(), idx[tuple(hi)].ravel()
        rows.extend((a, b))
        cols.extend((b, a))
    r, c = np.concatenate(rows), np.concatenate(cols)
    off = sp.coo_matrix((-np.ones(r.size), (r, c)), shape=(size, size))
    degree = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(degree + 1.0)).tocsc()


def grid_matrices(seed: int, side_2d: int, side_3d: int) -> List[MatrixInput]:
    """The 2-D and 3-D grid Laplacians, each symmetrically relabelled."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for name, dims in (
        (f"grid2d-{side_2d}x{side_2d}", (side_2d, side_2d)),
        (f"grid3d-{side_3d}x{side_3d}x{side_3d}", (side_3d,) * 3),
    ):
        a = grid_laplacian(dims)
        perm = rng.permutation(a.shape[0])
        out.append(MatrixInput(name, a[perm][:, perm].tocsc()))
    return out


def crc(items: Sequence[object]) -> str:
    """CRC-32 over the canonical bytes of trees and matrices, as hex."""
    value = 0
    for item in items:
        if isinstance(item, TreeInput):
            parts = (
                np.asarray(item.parents, dtype=np.int64),
                np.asarray(item.f, dtype=np.float64),
                np.asarray(item.n, dtype=np.float64),
            )
        else:
            m = item.matrix
            parts = (
                np.asarray(m.indptr, dtype=np.int64),
                np.asarray(m.indices, dtype=np.int64),
                np.asarray(m.data, dtype=np.float64),
            )
        value = zlib.crc32(item.name.encode(), value)
        for part in parts:
            value = zlib.crc32(part.tobytes(), value)
    return f"{value:08x}"
