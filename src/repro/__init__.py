"""repro -- memory-optimal tree traversals for sparse matrix factorization.

A from-scratch reproduction of *"On optimal tree traversals for sparse matrix
factorization"* (Jacquelin, Marchal, Robert, Uçar; IPPS 2011).

The library is organised in seven layers:

``repro.core``
    Task-tree model, traversal checkers, the three MinMemory algorithms
    (``PostOrder``, ``Liu``, ``MinMem``), the MinIO out-of-core scheduler with
    its six eviction heuristics, exhaustive oracles and pebble-game special
    cases.  Every solver runs on the flat array-backed :class:`TreeKernel`
    of :mod:`repro.core.kernel` (one implementation per algorithm; the
    per-node originals are test oracles under ``tests/oracles``).
``repro.sparse``
    The sparse-matrix substrate that produces the assembly trees the paper
    evaluates on: matrix generators, fill-reducing orderings, elimination
    trees, symbolic factorization, supernode amalgamation and a multifrontal
    Cholesky engine.  The symbolic pipeline (etree, column counts, column
    patterns, amalgamation) is vectorized on flat arrays; the per-entry
    originals are test oracles as well.
``repro.generators``
    Synthetic tree families: harpoon graphs (Theorems 1 and 2), random-weight
    trees (Section VI-E), and parametric shapes.
``repro.solvers``
    The unified entry point: a registry of every algorithm exposed under a
    common name, the :class:`SolveReport` result type, the
    ``solve``/``solve_many``/``compare`` facade, and the persistent
    shared-memory batch engine (``repro.solvers.engine``) that fans
    parallel batches over a reusable worker pool, shipping each tree's
    kernel to the workers exactly once.
``repro.service``
    Solver-as-a-service: a long-lived asyncio daemon over the batch engine
    with a bounded request queue, admission control, per-request deadlines
    and content-token tree interning, behind HTTP/JSON and NDJSON stdio
    front ends (``repro serve``).
``repro.analysis``
    Dolan--Moré performance profiles, statistics tables, dataset builders and
    the experiment drivers that regenerate every table and figure of the
    paper.
``repro.bench``
    The benchmark subsystem: a decorator-based registry of *scenarios*
    (tree family x sizes x algorithms x memory budgets), an independent
    schedule replay that re-validates every reported schedule, a
    campaign-planning runner with warmup/repeat timing that fans each
    scenario's full cell grid through the batch engine, and
    schema-versioned ``BENCH_<timestamp>.json`` artifacts with a regression
    ``compare`` mode.

Quickstart::

    from repro import Tree, solve, compare

    t = Tree()
    t.add_node(0, f=0.0, n=1.0)
    t.add_node(1, parent=0, f=4.0, n=2.0)
    t.add_node(2, parent=0, f=3.0, n=1.0)

    report = solve(t, "minmem")            # the paper's MinMem algorithm
    print(report.peak_memory, report.traversal.order)

    print(solve(t, "postorder").memory)    # best postorder traversal
    print(solve(t, "liu").memory)          # Liu's exact algorithm

    print(compare(t).format_table())       # ranked side-by-side reports

    # out-of-core scheduling under a memory bound
    print(solve(t, "minio", memory=t.max_mem_req(), heuristic="lsnf").io_volume)

Batches of trees fan out across worker processes::

    from repro import solve_many

    results = solve_many(trees, ["postorder", "minmem"], workers=4)

Benchmarks run through the scenario registry of :mod:`repro.bench` -- from
Python or via the ``bench`` subcommand::

    repro-treemem bench --list                 # enumerate the scenarios
    repro-treemem bench --filter minmem --json # run + write BENCH_*.json
    repro-treemem bench --compare OLD NEW      # exit 1 on regressions

Every emitted schedule is replay-validated: an independent replay re-executes
it step by step and recomputes peak memory and I/O volume from scratch (see
:mod:`repro.bench.replay`).

The pre-registry entry points (``best_postorder``, ``liu_optimal_traversal``,
``min_mem``, ``run_out_of_core``, ...) remain fully supported and are
re-exported below; ``solve`` is a thin dispatch layer over them.
"""

from .core import (
    BOTTOMUP,
    TOPDOWN,
    KernelExploreSolver,
    LiuResult,
    MemoryProfile,
    MinMemResult,
    OutOfCoreSchedule,
    PostOrderResult,
    Traversal,
    TraversalError,
    Tree,
    TreeKernel,
    TreeValidationError,
    best_postorder,
    chain_tree,
    check_in_core,
    check_out_of_core,
    from_edges,
    from_liu_model,
    from_networkx,
    from_parent_list,
    from_replacement_model,
    is_postorder,
    is_topological,
    liu_min_memory,
    liu_optimal_traversal,
    memory_profile,
    min_mem,
    min_memory,
    peak_memory,
    postorder_with_rule,
    star_tree,
    uniform_weights,
)
from .core.minio import HEURISTICS, io_volume, run_out_of_core
from .core.serialize import load_tree, save_tree
from .solvers import (
    Comparison,
    SolveReport,
    SolverSpec,
    UnknownSolverError,
    compare,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solve_many,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "Tree",
    "TreeKernel",
    "TreeValidationError",
    "Traversal",
    "TraversalError",
    "OutOfCoreSchedule",
    "MemoryProfile",
    "TOPDOWN",
    "BOTTOMUP",
    "KernelExploreSolver",
    "LiuResult",
    "MinMemResult",
    "PostOrderResult",
    "best_postorder",
    "postorder_with_rule",
    "liu_optimal_traversal",
    "liu_min_memory",
    "min_mem",
    "min_memory",
    "memory_profile",
    "peak_memory",
    "check_in_core",
    "check_out_of_core",
    "is_topological",
    "is_postorder",
    "from_parent_list",
    "from_edges",
    "from_networkx",
    "from_replacement_model",
    "from_liu_model",
    "chain_tree",
    "star_tree",
    "uniform_weights",
    "HEURISTICS",
    "run_out_of_core",
    "io_volume",
    "save_tree",
    "load_tree",
    # unified solver facade
    "solve",
    "solve_many",
    "compare",
    "Comparison",
    "SolveReport",
    "SolverSpec",
    "UnknownSolverError",
    "register_solver",
    "get_solver",
    "list_solvers",
]
