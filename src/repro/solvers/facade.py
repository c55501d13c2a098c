"""The ``solve`` / ``solve_many`` / ``compare`` facade.

These three functions are the intended entry points of the library:

* :func:`solve` runs one registered algorithm on one tree and returns a
  :class:`~repro.solvers.report.SolveReport`;
* :func:`solve_many` batches ``trees x algorithms`` and, when ``workers > 1``,
  fans the batch across an executor backend -- by default the persistent
  shared-memory process engine of :mod:`repro.solvers.engine` (workers and
  resident trees reused across calls); ``pool=`` selects any registered
  backend (see :data:`POOL_MODES`), falling back to serial execution when
  the platform cannot run it, e.g. in sandboxes; results are bit-identical
  to the serial path because every registered solver is deterministic;
* :func:`compare` runs several algorithms on the same tree and returns them
  ranked (peak memory first, then I/O volume; ties keep the requested
  order).

Every built-in solver has exactly one implementation, the array kernel of
:mod:`repro.core.kernel`; "engine" here always means the batch executor.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import lru_cache
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.tree import Tree
from .engine.backends import backend_names
from .registry import SolverSpec, get_solver
from .report import SolveReport

__all__ = [
    "solve",
    "solve_many",
    "compare",
    "Comparison",
    "DEFAULT_COMPARE_ALGORITHMS",
    "POOL_MODES",
]

#: algorithms compared side by side when :func:`compare` is given none
DEFAULT_COMPARE_ALGORITHMS = ("postorder", "liu", "minmem")

#: executor modes for parallel batches, straight from the backend registry
#: (one source of truth shared with ``bench --pool`` and ``serve --pool``):
#: the persistent shared-memory process engine (default), a one-shot pool
#: per call (legacy), forced serial execution, a persistent in-process
#: thread pool, and an optional ``dask.distributed`` cluster
POOL_MODES = backend_names()

AlgorithmArg = Union[str, Sequence[str]]


@lru_cache(maxsize=None)
def _declared_options(func) -> Optional[FrozenSet[str]]:
    """Keyword options ``func`` consumes, or ``None`` for "accepts anything".

    Built-in adapters declare their real options and swallow the rest with a
    var-keyword parameter named ``_ignored`` (so batch calls can forward
    options that only apply to some of the algorithms).  A var-keyword
    parameter with any *other* name marks a solver that genuinely accepts
    arbitrary options, disabling the strict check.
    """
    names = set()
    for param in inspect.signature(func).parameters.values():
        if param.kind in (param.KEYWORD_ONLY, param.POSITIONAL_OR_KEYWORD):
            names.add(param.name)
        elif param.kind == param.VAR_KEYWORD and param.name != "_ignored":
            return None
    names.discard("tree")
    return frozenset(names)


def _prepare_options(
    spec: SolverSpec,
    memory: Optional[float],
    options: Dict[str, Any],
    *,
    strict: bool,
) -> Dict[str, Any]:
    """Resolve the options actually handed to ``spec.func``.

    ``memory`` is a facade-level parameter: it is forwarded only to solvers
    that take one (``explore``, the ``minio`` family) and silently dropped
    otherwise.  Any other option the solver does not declare raises
    :class:`TypeError` when ``strict`` (single-algorithm :func:`solve`) and
    is dropped when lenient (:func:`solve_many` batches over algorithms with
    different option sets).
    """
    declared = _declared_options(spec.func)
    opts = dict(options)
    if declared is not None:
        unknown = set(opts) - declared
        if unknown:
            if strict:
                raise TypeError(
                    f"solver {spec.name!r} got unexpected option(s) "
                    f"{sorted(unknown)}; it accepts {sorted(declared)}"
                )
            for key in unknown:
                opts.pop(key)
        if memory is not None and "memory" in declared:
            opts["memory"] = memory
    elif memory is not None:
        opts["memory"] = memory
    return opts


def solve(
    tree: Tree,
    algorithm: str = "minmem",
    *,
    memory: Optional[float] = None,
    reuse: Optional[Any] = None,
    **options: Any,
) -> SolveReport:
    """Run one registered solver on ``tree`` and return its report.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree.  A flat :class:`~repro.core.kernel.TreeKernel` is
        accepted by every built-in solver and skips the per-solve
        conversion (``Tree`` inputs cache their kernel transparently).
    algorithm : str
        Registry name or alias (see :func:`repro.solvers.list_solvers`).
    memory : float, optional
        Main-memory budget, forwarded to solvers that take one (``explore``
        and the ``minio`` family); the in-core MinMemory solvers ignore it.
    reuse : True or SolveReport, optional
        Incremental re-solve for the postorder/Liu solvers: pass a previous
        report (of the same algorithm on the tree before its latest
        mutations) to re-solve only the mutated nodes' root paths, or
        ``True`` to bootstrap -- solve from scratch but retain the per-node
        state a later ``reuse=report`` call resumes from.  The result is
        bit-identical to a from-scratch solve either way; see
        :mod:`repro.solvers.incremental`.
    options
        Solver-specific keyword options (e.g. ``rule=`` for ``postorder``,
        ``heuristic=`` for ``minio``, ``reuse_states=`` for ``minmem``).
        Options the solver does not declare raise :class:`TypeError`, so a
        typo cannot silently fall back to a default.

    Returns
    -------
    SolveReport
        Peak memory, witness traversal, I/O volume / schedule where
        applicable, wall time, and solver-specific ``extras``.

    Raises
    ------
    UnknownSolverError
        If ``algorithm`` does not resolve to a registered solver.

    Examples
    --------
    >>> from repro.core.builders import chain_tree
    >>> solve(chain_tree(4, f=1.0, n=1.0), "minmem").peak_memory
    3.0
    """
    if reuse is not None:
        from .incremental import solve_incremental

        return solve_incremental(
            tree, algorithm, memory=memory, reuse=reuse, **options
        )
    return _dispatch(tree, algorithm, memory, options, strict=True)


def _dispatch(
    tree: Tree,
    algorithm: str,
    memory: Optional[float],
    options: Dict[str, Any],
    *,
    strict: bool,
) -> SolveReport:
    fault = options.get("_fault")
    if fault is not None:
        # chaos injection (repro.faults): the reserved _fault key carries a
        # worker-side fault into this dispatch.  It must trip *before* the
        # wall-time stamp so injected straggler sleeps never pollute the
        # timing columns of a chaos campaign.
        options = {k: v for k, v in options.items() if k != "_fault"}
        from ..faults.plan import trip

        trip(fault)
    spec = get_solver(algorithm)
    opts = _prepare_options(spec, memory, options, strict=strict)
    start = perf_counter()
    report = spec.func(tree, **opts)
    elapsed = perf_counter() - start
    # the report carries the *registry* name the caller asked for (aliases
    # canonicalised), so batch keys and Comparison lookups always match;
    # variant details (the rule, the eviction heuristic) live in extras
    return replace(report, algorithm=spec.name, wall_time=elapsed)


def _normalize_algorithms(algorithms: AlgorithmArg) -> Tuple[str, ...]:
    if isinstance(algorithms, str):
        algorithms = (algorithms,)
    canonical = tuple(get_solver(name).name for name in algorithms)
    if not canonical:
        raise ValueError("solve_many needs at least one algorithm")
    if len(set(canonical)) != len(canonical):
        raise ValueError(f"duplicate algorithms after canonicalisation: {canonical}")
    return canonical


def _solve_task(payload: Tuple[Tree, str, Optional[float], Dict[str, Any]]) -> SolveReport:
    """Module-level worker so the process pool can pickle it.

    Lenient dispatch: a batch shares one option set across algorithms with
    different signatures, so inapplicable options are dropped per solver.
    """
    tree, algorithm, memory, options = payload
    return _dispatch(tree, algorithm, memory, options, strict=False)


def solve_many(
    trees: Iterable[Tree],
    algorithms: AlgorithmArg = ("minmem",),
    *,
    memory: Optional[float] = None,
    workers: Optional[int] = None,
    **options: Any,
) -> List[Dict[str, SolveReport]]:
    """Solve every tree with every algorithm, optionally in parallel.

    Parameters
    ----------
    trees : iterable of Tree or TreeKernel
        The task trees (any iterable; it is materialised once).  Passing
        :class:`~repro.core.kernel.TreeKernel` objects ships the compact
        flat form to worker processes, which then skip per-tree
        reconstruction; pickled ``Tree`` objects carry their cached kernel
        for the same reason.
    algorithms : str or sequence of str
        One name or a sequence of names/aliases.
    memory : float, optional
        Forwarded to every :func:`solve` call (budgeted solvers only).
    workers : int, optional
        ``None``, ``0`` or ``1`` run serially in-process.  Larger values use
        a process pool of that many workers; if the platform cannot spawn
        subprocesses the batch degrades to the serial path with a
        :class:`RuntimeWarning` (emitted once per engine for the missing
        platform, per batch for pool crashes and unpicklable options; the
        results are identical either way, only slower).
    options
        Forwarded to every solver with lenient dispatch (options a solver
        does not declare are dropped for that solver, so one option set can
        serve a mixed batch).  The reserved option ``pool`` selects the
        executor backend instead of reaching any solver (any name in
        :data:`POOL_MODES`): ``pool="persistent"`` (the default) reuses the
        process-wide :class:`~repro.solvers.engine.SolveEngine` -- workers
        stay alive across calls and every tree's kernel is shipped to them
        exactly once through the shared arena; ``pool="fresh"`` restores
        the legacy one-shot pool per call; ``pool="threads"`` runs on a
        persistent in-process thread pool; ``pool="dask"`` fans out to a
        ``dask.distributed`` cluster (optional dependency; raises a
        :class:`ValueError` subclass when dask is not installed);
        ``pool="serial"`` forces in-process execution regardless of
        ``workers``.

    Returns
    -------
    list of dict
        One dictionary per input tree (in input order) mapping the
        canonical algorithm name to its :class:`SolveReport`.
    """
    pool = options.pop("pool", None)
    if pool not in (None, *POOL_MODES):
        raise ValueError(f"unknown pool mode {pool!r}; expected one of {POOL_MODES}")
    tree_list = list(trees)
    names = _normalize_algorithms(algorithms)
    # one shared options dict: solvers never mutate it (_prepare_options
    # copies), and the pickle memo then ships it once per executor chunk
    shared_options = dict(options)
    payloads = [
        (tree, name, memory, shared_options) for tree in tree_list for name in names
    ]

    flat: Optional[List[SolveReport]] = None
    parallel = workers is not None and workers > 1 and len(payloads) > 1
    if parallel and pool != "serial":
        from .engine import get_engine

        flat = get_engine(pool).run_batch(payloads, workers)
    if flat is None:
        flat = [_solve_task(payload) for payload in payloads]

    out: List[Dict[str, SolveReport]] = []
    for i in range(len(tree_list)):
        chunk = flat[i * len(names) : (i + 1) * len(names)]
        out.append({name: report for name, report in zip(names, chunk)})
    return out


@dataclass(frozen=True)
class Comparison:
    """Ranked side-by-side reports of several algorithms on one tree.

    ``reports`` is sorted best-first: by peak memory, then I/O volume; ties
    keep the order in which the algorithms were requested.
    """

    reports: Tuple[SolveReport, ...]

    @property
    def best(self) -> SolveReport:
        """The winning report (lowest peak memory)."""
        return self.reports[0]

    @property
    def algorithms(self) -> Tuple[str, ...]:
        """Algorithm names in ranked order."""
        return tuple(report.algorithm for report in self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def __getitem__(self, algorithm: str) -> SolveReport:
        for report in self.reports:
            if report.algorithm == algorithm:
                return report
        raise KeyError(algorithm)

    def ratios(self) -> Dict[str, float]:
        """Peak-memory ratio of every algorithm to the best one."""
        best = self.best.peak_memory
        return {
            report.algorithm: (report.peak_memory / best if best else 1.0)
            for report in self.reports
        }

    def format_table(self) -> str:
        """Plain-text ranking table (used by the CLI)."""
        lines = [f"{'algorithm':<26} {'peak memory':>14} {'ratio':>8} {'IO':>10} {'time':>10}"]
        ratios = self.ratios()
        for report in self.reports:
            lines.append(
                f"{report.algorithm:<26} {report.peak_memory:>14.6g} "
                f"{ratios[report.algorithm]:>8.4f} {report.io_volume:>10.6g} "
                f"{report.wall_time * 1e3:>8.2f}ms"
            )
        return "\n".join(lines)


def compare(
    tree: Tree,
    algorithms: AlgorithmArg = DEFAULT_COMPARE_ALGORITHMS,
    *,
    memory: Optional[float] = None,
    workers: Optional[int] = None,
    **options: Any,
) -> Comparison:
    """Run several algorithms on one tree and rank the reports.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (or its flat kernel form).
    algorithms : str or sequence of str
        Registry names or aliases; defaults to the paper's three MinMemory
        solvers (``postorder``, ``liu``, ``minmem``).
    memory : float, optional
        Budget forwarded to budgeted solvers (``explore``, ``minio``).
    workers : int, optional
        Worker processes, as in :func:`solve_many`.
    options
        Extra solver options (lenient dispatch: options a solver does not
        declare are dropped for that solver).

    Returns
    -------
    Comparison
        Reports sorted best-first by (peak memory, I/O volume); ties keep
        the requested algorithm order.

    Examples
    --------
    >>> from repro.core.builders import chain_tree
    >>> ranking = compare(chain_tree(4, f=1.0, n=1.0))
    >>> ranking.best.peak_memory
    3.0
    """
    (reports_by_name,) = solve_many(
        [tree], algorithms, memory=memory, workers=workers, **options
    )
    # stable sort: ties on (peak, IO) keep the caller's algorithm order, so
    # the ranking is deterministic (wall time is not a tie-breaker)
    ranked = sorted(
        reports_by_name.values(),
        key=lambda r: (r.peak_memory, r.io_volume),
    )
    return Comparison(reports=tuple(ranked))
