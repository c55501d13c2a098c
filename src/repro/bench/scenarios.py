"""Built-in benchmark scenarios.

Importing this module populates the scenario registry with the default
campaign: seven tree families mirroring the paper's experimental section,
each swept over sizes and run with the three MinMemory algorithms
(PostOrder, Liu, MinMem) plus -- where out-of-core behaviour matters -- the
budgeted solvers (``explore`` and the MinIO eviction heuristics).

=================  ==========  ===================================================
scenario           family      trees
=================  ==========  ===================================================
``synthetic``      synthetic   deterministic shapes: balanced k-ary, brooms,
                               bamboo-with-bushes, Sethi--Ullman expression trees
``random``         random      uniform/recent attachment, random binary,
                               caterpillars, with Section VI-E random weights
``harpoon``        harpoon     iterated harpoons of Theorem 1 (worst cases for
                               postorder traversals)
``assembly``       assembly    assembly trees of synthetic SPD matrices
                               (orderings x relaxed amalgamation)
``etree``          etree       elimination trees of matrices round-tripped
                               through the MatrixMarket format
``sparse_pipeline`` sparse_pipeline  grid-Laplacian assembly trees at 10k-250k
                               rows through the vectorized symbolic pipeline
``large``          large       kernel-scale synthetic instances (100k chain,
                               88k harpoon, deep random)
``service``        service     request-traffic simulation: hundreds of small
                               heterogeneous trees x all in-core algorithms
``service_burst``  service     the same traffic at full scale (2000 trees)
=================  ==========  ===================================================

Every builder takes the run ``seed`` and threads it into the random-tree
generators, so two runs with the same seed benchmark identical instances.
Scenarios marked ``smoke`` are small enough for the CI smoke job
(``repro bench --smoke``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import List, Tuple

from ..core.builders import chain_tree, star_tree
from ..core.tree import Tree
from ..generators.harpoon import harpoon_tree, iterated_harpoon_tree
from ..generators.random_trees import (
    random_attachment_tree,
    random_binary_tree,
    random_caterpillar,
    random_recent_attachment_tree,
    reweight_random,
)
from ..generators.synthetic import (
    balanced_tree,
    bamboo_with_bushes,
    broom_tree,
    full_binary_expression_tree,
)
from .scenario import register_scenario

__all__ = [
    "MINMEMORY_ALGORITHMS",
    "BUDGETED_ALGORITHMS",
    "IN_CORE_ALGORITHMS",
    "PORTFOLIO_ALGORITHMS",
]

#: the three MinMemory solvers compared throughout the paper
MINMEMORY_ALGORITHMS = ("postorder", "liu", "minmem")

#: budgeted solvers added on families where out-of-core behaviour matters
BUDGETED_ALGORITHMS = ("explore", "minio_first_fit", "minio_lsnf")

#: every registered in-core (unbudgeted) solver -- the service traffic mix.
#: Deliberately excludes ``auto``: the portfolio routes *to* these, and the
#: traffic request streams built from this tuple must stay byte-identical
#: across releases (tests/test_traffic_determinism.py pins their digests)
IN_CORE_ALGORITHMS = (
    "postorder",
    "postorder_natural",
    "postorder_subtree_memory",
    "liu",
    "minmem",
)

#: the portfolio entry, benchmarked on every family so each campaign
#: artifact records auto-vs-best-single evidence (tools/fit_portfolio.py)
PORTFOLIO_ALGORITHMS = ("auto",)


# ----------------------------------------------------------------------
# synthetic: deterministic parametric shapes
# ----------------------------------------------------------------------
@register_scenario(
    "synthetic",
    family="synthetic",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS + ("minio_first_fit",),
    summary="deterministic parametric shapes (balanced, broom, bamboo, Sethi-Ullman)",
    tags=("deterministic",),
    smoke=True,
)
def _synthetic(seed: int) -> List[Tuple[str, Tree]]:
    del seed  # fully deterministic family
    return [
        ("balanced-3x4", balanced_tree(3, 4, f=2.0, n=1.0)),
        ("broom-40x8", broom_tree(40, 8, f=3.0, n=1.0)),
        ("bamboo-24x4", bamboo_with_bushes(24, 4, f_spine=2.0, f_bush=5.0, n=1.0)),
        ("sethi-ullman-6", full_binary_expression_tree(6)),
        ("chain-96", chain_tree(96, f=2.0, n=1.0)),
        ("star-64", star_tree(64, leaf_f=3.0, n=1.0)),
    ]


# ----------------------------------------------------------------------
# random: seeded random shapes with Section VI-E weights
# ----------------------------------------------------------------------
@register_scenario(
    "random",
    family="random",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS + BUDGETED_ALGORITHMS,
    summary="seeded random shapes (attachment, binary, caterpillar) with VI-E weights",
    tags=("seeded",),
    smoke=True,
)
def _random(seed: int) -> List[Tuple[str, Tree]]:
    instances = [
        ("attachment-120", random_attachment_tree(120, seed=seed)),
        ("deep-120", random_recent_attachment_tree(120, seed=seed + 1, window=8)),
        ("binary-48", random_binary_tree(48, seed=seed + 2)),
        ("caterpillar-40", random_caterpillar(40, seed=seed + 3, max_leaves=3)),
    ]
    # the Section VI-E protocol: keep every shape, redraw the weights
    instances += [
        (f"reweighted-{name}", reweight_random(tree, seed=seed + 100 + i))
        for i, (name, tree) in enumerate(instances)
    ]
    return instances


# ----------------------------------------------------------------------
# harpoon: the paper's postorder worst cases (Theorem 1)
# ----------------------------------------------------------------------
@register_scenario(
    "harpoon",
    family="harpoon",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS,
    summary="iterated harpoons of Theorem 1 (postorder worst cases)",
    tags=("deterministic", "worst-case"),
    smoke=True,
)
def _harpoon(seed: int) -> List[Tuple[str, Tree]]:
    del seed  # fully deterministic family
    return [
        ("harpoon-b4", harpoon_tree(4, memory=16.0, epsilon=0.5)),
        ("harpoon-b8", harpoon_tree(8, memory=64.0, epsilon=0.25)),
        ("iterated-b3-l3", iterated_harpoon_tree(3, levels=3, memory=27.0, epsilon=0.5)),
        ("iterated-b4-l2", iterated_harpoon_tree(4, levels=2, memory=32.0, epsilon=0.5)),
    ]


# ----------------------------------------------------------------------
# assembly: multifrontal assembly trees of synthetic SPD matrices
# ----------------------------------------------------------------------
@register_scenario(
    "assembly",
    family="assembly",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS
               + ("minio_first_fit", "minio_lsnf"),
    summary="assembly trees of synthetic SPD matrices (orderings x amalgamation)",
    tags=("sparse",),
    smoke=True,
)
def _assembly(seed: int) -> List[Tuple[str, Tree]]:
    del seed  # the matrix suite and orderings are deterministic
    from ..analysis.datasets import assembly_tree_dataset

    return [
        (instance.name, instance.tree)
        for instance in assembly_tree_dataset("tiny")
    ]


# ----------------------------------------------------------------------
# etree: elimination trees round-tripped through MatrixMarket files
# ----------------------------------------------------------------------
def _etree_instance(name: str, matrix, tmpdir: str) -> Tuple[str, Tree]:
    """Round-trip ``matrix`` through a .mtx file and build its etree."""
    from ..sparse.etree import elimination_tree, etree_to_task_tree
    from ..sparse.mmio import read_matrix_market, write_matrix_market

    path = Path(tmpdir) / f"{name}.mtx"
    write_matrix_market(matrix, path, symmetric=True)
    loaded = read_matrix_market(path)
    parent = elimination_tree(loaded)
    csc = loaded.tocsc()
    # column nonzero counts stand in for contribution-block / frontal sizes
    counts = [float(csc.indptr[j + 1] - csc.indptr[j]) for j in range(csc.shape[0])]
    tree = etree_to_task_tree(parent, f=counts, n_weights=[1.0] * len(parent))
    tree.set_f(tree.root, 0.0)  # no file above the root
    return name, tree


@register_scenario(
    "large",
    family="large",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS,
    summary="kernel-scale instances (100k-node chain, 88k harpoon, deep random)",
    tags=("scale", "kernel"),
    smoke=False,
)
def _large(seed: int) -> List[Tuple[str, Tree]]:
    """Instances big enough to exercise the array-backed kernel.

    These are the trees where per-node overhead would dominate a dict-based
    sweep; the CI bench job runs this scenario explicitly (see the
    repository workflow).  Excluded from the smoke set to keep the PR gate
    fast.
    """
    return [
        ("chain-100k", chain_tree(100_000, f=2.0, n=1.0)),
        ("harpoon-b3-l9", iterated_harpoon_tree(3, levels=9, memory=1.0, epsilon=0.01)),
        ("deep-50k", random_recent_attachment_tree(50_000, seed=seed + 1, window=8)),
        ("caterpillar-20k", random_caterpillar(20_000, seed=seed + 3, max_leaves=3)),
    ]


@register_scenario(
    "sparse_pipeline",
    family="sparse_pipeline",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS,
    summary="grid-Laplacian assembly trees at 10k-250k rows "
            "(vectorized ordering -> etree -> counts -> amalgamation)",
    tags=("sparse", "scale", "kernel"),
    smoke=False,
)
def _sparse_pipeline(seed: int) -> List[Tuple[str, Tree]]:
    """End-to-end symbolic pipeline on large grid Laplacians.

    Every instance runs the full matrix -> assembly-tree pipeline of
    Section VI-B (symmetrize, fill-reducing ordering, elimination tree,
    column counts, relaxed amalgamation) on the vectorized symbolic layer
    before the solvers are timed on the resulting weighted tree.  The sweep
    spans 10k to 250k matrix rows -- two orders of magnitude above what a
    per-entry symbolic layer could build in reasonable time -- including a
    >= 100k-row 2-D grid.  Excluded from the smoke set; the CI bench job
    runs it explicitly.
    """
    del seed  # deterministic matrices and orderings
    from ..sparse.assembly import build_assembly_tree
    from ..sparse.matrices import grid_laplacian_2d, grid_laplacian_3d

    specs = [
        # (instance, matrix, ordering, relaxed): 10k / 10.6k / 102k / 250k rows
        ("grid2d-100x100-rcm-r4", grid_laplacian_2d(100), "rcm", 4),
        ("grid3d-22-rcm-r4", grid_laplacian_3d(22), "rcm", 4),
        ("grid2d-320x320-rcm-r4", grid_laplacian_2d(320), "rcm", 4),
        ("grid2d-500x500-natural-r16", grid_laplacian_2d(500), "natural", 16),
    ]
    return [
        (name, build_assembly_tree(matrix, ordering=ordering, relaxed=relaxed).tree)
        for name, matrix, ordering, relaxed in specs
    ]


# ----------------------------------------------------------------------
# service: simulated request traffic (the batch engine's target workload)
# ----------------------------------------------------------------------
def _service_traffic(seed: int, count: int) -> List[Tuple[str, Tree]]:
    """``count`` small heterogeneous trees, 50-500 nodes each.

    The mix cycles through the library's families -- random attachment,
    deep (recent-attachment) random, caterpillars, deterministic synthetic
    shapes and small harpoons -- so a batch looks like production request
    traffic: many independent solves on trees of wildly different shapes,
    none of them individually expensive.  Seeded: the same seed rebuilds
    the identical stream.
    """
    import random as _random

    rng = _random.Random(seed * 1_000_003 + 0x5EB1CE)
    instances: List[Tuple[str, Tree]] = []
    for i in range(count):
        size = 50 + rng.randrange(451)  # 50 .. 500 nodes
        kind = i % 5
        if kind == 0:
            tree = random_attachment_tree(size, seed=rng.randrange(2**31))
            label = "attach"
        elif kind == 1:
            tree = random_recent_attachment_tree(
                size, seed=rng.randrange(2**31), window=6
            )
            label = "deep"
        elif kind == 2:
            # the argument is the spine length; leaves (0-4 per spine node)
            # roughly triple it, so aim the spine at a third of the target
            tree = random_caterpillar(
                max(17, size // 3), seed=rng.randrange(2**31), max_leaves=4
            )
            label = "caterpillar"
        elif kind == 3:
            # deterministic synthetic shapes, parameterised by the draw
            shape = i % 3
            if shape == 0:
                tree = broom_tree(size - 7, 7, f=3.0, n=1.0)
                label = "broom"
            elif shape == 1:
                tree = bamboo_with_bushes(
                    max(2, size // 5), 4, f_spine=2.0, f_bush=5.0, n=1.0
                )
                label = "bamboo"
            else:
                tree = chain_tree(size, f=2.0, n=1.0)
                label = "chain"
        else:
            # harpoon_tree(b) has 3b + 1 nodes; iterated level-3 harpoons
            # (118 nodes) season the mix with the postorder worst cases
            if i % 2:
                tree = harpoon_tree(
                    17 + rng.randrange(150), memory=64.0, epsilon=0.25
                )
                label = "harpoon"
            else:
                tree = iterated_harpoon_tree(
                    3, levels=3, memory=float(8 + i % 5), epsilon=0.25
                )
                label = "iterharpoon"
        instances.append((f"req-{i:04d}-{label}-{tree.size}", tree))
    return instances


@register_scenario(
    "service",
    family="service",
    algorithms=IN_CORE_ALGORITHMS + PORTFOLIO_ALGORITHMS,
    summary="request-traffic simulation: 320 small heterogeneous trees "
            "x all in-core algorithms",
    tags=("seeded", "traffic", "batch"),
    smoke=True,
)
def _service(seed: int) -> List[Tuple[str, Tree]]:
    """Simulated request traffic at smoke scale (320 trees, 1600 cells).

    This is the workload the persistent batch engine is built for: many
    small independent solves where per-payload pickling and pool startup
    dominate the old per-call pool.  The full-scale variant is
    ``service_burst``.
    """
    return _service_traffic(seed, 320)


@register_scenario(
    "service_burst",
    family="service",
    algorithms=IN_CORE_ALGORITHMS + PORTFOLIO_ALGORITHMS,
    summary="request-traffic simulation at full scale: 2000 small "
            "heterogeneous trees x all in-core algorithms",
    tags=("seeded", "traffic", "batch", "scale"),
    smoke=False,
)
def _service_burst(seed: int) -> List[Tuple[str, Tree]]:
    """Thousands of small heterogeneous trees (the full traffic burst).

    Excluded from the smoke set for artifact-size reasons (10 000 records);
    run it explicitly with ``repro bench --filter service_burst --workers N``
    to exercise the engine at scale.
    """
    return _service_traffic(seed, 2000)


@register_scenario(
    "etree",
    family="etree",
    algorithms=MINMEMORY_ALGORITHMS + PORTFOLIO_ALGORITHMS,
    summary="elimination trees of matrices round-tripped through MatrixMarket",
    tags=("sparse", "mmio"),
    smoke=True,
)
def _etree(seed: int) -> List[Tuple[str, Tree]]:
    from ..sparse.matrices import banded_spd, grid_laplacian_2d, random_spd

    matrices = [
        ("grid2d-10", grid_laplacian_2d(10)),
        ("banded-100", banded_spd(100, bandwidth=4, seed=seed + 3)),
        ("random-80", random_spd(80, density=0.05, seed=seed + 7)),
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-etree-") as tmpdir:
        return [_etree_instance(name, matrix, tmpdir) for name, matrix in matrices]
