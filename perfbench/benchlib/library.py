"""The in-process workloads: ``large_trees`` and ``sparse_plan``.

Both are serial closed loops with one caller.  A run repeats *passes* over
the workload's fixed operation list until ``--seconds`` of wall time is
used (a pass is never cut short), so every pass measures the same work and
throughput is a median over passes.  Only the program's calls are timed;
the output checks run between them, outside the timed region.  Each timed
call is normalised by a :class:`harness.SpeedProbe` sample taken just
before it.

In a traced run, even passes are traced and odd passes are not: the
traced passes give the per-layer numbers, and the ratio of the two kinds
of pass is the tracing overhead.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from . import inputs, spec
from .exact import ExactTree
from .harness import (
    Context, OpTimeout, Result, SpeedProbe, peak_rss_mb, time_library_setup, time_limit,
)
from .stats import Tally, kind_median, median, summarize
from .tracer import Tracer


class Checker:
    """Replays every report; a report seen before must repeat exactly."""

    def __init__(self) -> None:
        from repro.bench.replay import ReplayError, replay_report

        self._replay, self._replay_error = replay_report, ReplayError
        self.seen: Dict[Tuple, Tuple] = {}
        self.seconds = 0.0
        self.last = ""

    def report(self, key: Tuple, tree, report, budget: Optional[float] = None) -> bool:
        """Check one report; True when it passes."""
        start = perf_counter()
        try:
            fingerprint = (
                report.peak_memory,
                report.io_volume,
                tuple(report.traversal.order) if report.traversal is not None else None,
            )
            known = self.seen.get(key)
            if known is not None:
                return known == fingerprint or self._fail("not repeatable", key)
            if budget is not None and report.extras.get("memory_limit") != budget:
                return self._fail("budget not recorded", key)
            try:
                # MinIO reports replay under their recorded memory_limit
                self._replay(tree, report)
            except self._replay_error as exc:
                return self._fail("replay", f"{key}: {exc}")
            self.seen[key] = fingerprint
            return True
        finally:
            self.seconds += perf_counter() - start

    def _fail(self, reason: str, detail: object) -> bool:
        self.last = f"{reason}: {detail}"
        return False


def _solve(repro, tree, algo: str, budget: Optional[float]):
    """One timed repro.solve call under the per-operation time limit."""
    with time_limit(spec.LIBRARY_OP_LIMIT_S):
        start = perf_counter()
        report = repro.solve(tree, algo, memory=budget)
        return report, perf_counter() - start


def _budget(tree, minmem_peak: float) -> float:
    low = tree.max_mem_req()
    return low + spec.MINIO_BUDGET_FRACTION * (minmem_peak - low)


#: a further pass starts if it is expected to end within this share of --seconds
PASS_SLACK = 1.25


def _passes(ctx: Context, run_pass) -> Tuple[List[dict], float]:
    """Run passes until the wall-clock budget would be overrun.

    A traced run makes at least two passes, a traced and a plain one, so
    that it can report the tracing overhead.  Returns the passes and the
    peak resident memory (this process and its pool workers) after the
    first: a fixed amount of work, so it repeats.
    """
    out: List[dict] = []
    rss = 0.0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(run_pass(len(out), ctx.trace and len(out) % 2 == 0))
        took = perf_counter() - t0
        if len(out) == 1:
            rss = peak_rss_mb(os.getpid())
        if (perf_counter() - start + took > ctx.seconds * PASS_SLACK
                and (len(out) >= 2 or not ctx.trace)):
            return out, rss


def _stage_layers(prefix: str, samples: Dict[str, List[float]], names) -> Dict[str, float]:
    out = {}
    for name in names:
        values = samples.get(name) or [0.0]
        s = summarize(values)
        out[f"{prefix}{name}.p50"], out[f"{prefix}{name}.tail"] = s.p50, s.tail
    return out


def _raw_info(passes: List[dict], raw_latencies: List[float], probe: SpeedProbe) -> dict:
    """Wall-clock figures before normalisation, for the run record."""
    raw = summarize(raw_latencies)
    return {
        "wall_ops_per_s": median([p["solves"] / p["raw"] for p in passes]),
        "wall_nodes_per_s": median([p["work"] / p["raw"] for p in passes]),
        "wall_op_p50_ms": raw.p50 * 1e3,
        "wall_op_tail_ms": raw.tail * 1e3,
        "probe_p50_ms": median(probe.samples) * 1e3,
        "probe_min_ms": min(probe.samples) * 1e3,
        "probe_max_ms": max(probe.samples) * 1e3,
    }


def _overhead(passes: List[dict]) -> float:
    traced = [p["timed"] / p["work"] for p in passes if p["traced"]]
    plain = [p["timed"] / p["work"] for p in passes if not p["traced"]]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


# ----------------------------------------------------------------------
# large_trees
# ----------------------------------------------------------------------
def run_large_trees(ctx: Context) -> Result:
    trees = inputs.large_trees(ctx.seed, ctx.sizes)
    setup = time_library_setup(
        ctx,
        "t = repro.from_parent_list(list(range(-1, 999)), [2.0] * 1000, [1.0] * 1000)\n"
        "repro.solve(t, 'liu')",
    )
    import repro

    tally = Tally()
    checker = Checker()
    tracer = Tracer() if ctx.trace else None
    latencies: List[float] = []
    by_kind: Dict[Tuple[str, str], List[float]] = {}
    first_pass: Dict[Tuple[str, str], object] = {}

    # warm-up, outside the timed window: one tree through every algorithm
    # (the first auto race spawns the library's worker pool)
    warm = repro.from_parent_list(trees[0].parents, trees[0].f, trees[0].n)
    peak = repro.solve(warm, "minmem").peak_memory
    for algo in spec.LARGE_ALGORITHMS:
        repro.solve(warm, algo, memory=_budget(warm, peak) if algo.startswith("minio") else None)
    del warm

    exact = {t.name: ExactTree(t.parents, t.f, t.n) for t in trees}
    exact_peaks: Dict[Tuple[str, str], int] = {}
    probe = SpeedProbe()
    stages: Dict[str, List[float]] = {}  # normalised per-layer samples, traced passes
    raw_latencies: List[float] = []
    op_ids = iter(range(1 << 30))

    def run_pass(index: int, traced: bool) -> dict:
        timed = raw = work = 0.0
        solves = 0
        for t in trees:
            op = next(op_ids)
            probe.sample()
            start = perf_counter()
            tree = repro.from_parent_list(t.parents, t.f, t.n)
            built = perf_counter()
            if traced:
                tree.kernel()
            flat = perf_counter()
            raw += flat - start
            timed += probe.normalise(flat - start)
            root = -1
            if traced:
                stages.setdefault("build_s", []).append(probe.normalise(built - start))
                stages.setdefault("flatten_s", []).append(probe.normalise(flat - built))
                root = tracer.add(op, -1, "op", start, flat)  # closed below
                tracer.add(op, root, "build", start, built)
                tracer.add(op, root, "flatten", built, flat)
            peaks: Dict[str, float] = {}
            for algo in spec.LARGE_ALGORITHMS:
                budget = None
                if algo.startswith("minio"):
                    if "minmem" not in peaks:
                        tally.fail("skipped", f"{t.name}/{algo}: no minmem peak for the budget")
                        continue
                    budget = _budget(tree, peaks["minmem"])
                probe.sample()
                try:
                    report, took = _solve(repro, tree, algo, budget)
                except OpTimeout:
                    tally.fail("time limit", f"{t.name}/{algo}")
                    continue
                except Exception as exc:  # a solver error is a failed op, not a crash
                    tally.fail("error", f"{t.name}/{algo}: {type(exc).__name__}: {exc}")
                    continue
                normalised = probe.normalise(took)
                raw += took
                timed += normalised
                solves += 1
                work += t.size
                latencies.append(normalised)
                by_kind.setdefault((t.name, algo), []).append(normalised)
                raw_latencies.append(took)
                if traced:
                    end = perf_counter()
                    stages.setdefault(algo, []).append(normalised)
                    tracer.add(op, root, f"solve:{algo}", end - took, end)
                peaks[algo] = report.peak_memory
                if index == 0:
                    first_pass[(t.name, algo)] = report
                c0 = perf_counter()
                ok = checker.report((t.name, algo), tree, report, budget)
                why = checker.last
                if ok and algo in _IN_CORE:
                    ok, why = _optimality(exact_peaks, exact[t.name], t.name, algo, report)
                if traced:
                    tracer.add(op, root, "check", c0, perf_counter())
                tally.check(ok, "check", why)
            if traced:
                tracer.close(root, perf_counter())
        return {"timed": timed, "raw": raw, "work": work, "solves": solves, "traced": traced}

    passes, rss = _passes(ctx, run_pass)
    lat = summarize(latencies)
    plain = [p for p in passes if not p["traced"]] or passes
    in_core = [r for (name, algo), r in first_pass.items() if not algo.startswith("minio")]
    metrics = {
        "setup_s": median(setup),
        "ops_per_s": median([p["solves"] / p["timed"] for p in plain]),
        "nodes_per_s": median([p["work"] / p["timed"] for p in plain]),
        "op_p50_ms": kind_median(by_kind) * 1e3,
        "peak_rss_mb": rss,
        "peak_sum": sum(r.peak_memory for r in in_core),
    }
    layers = _zero_layers()
    layers["op_tail_ms"] = lat.tail * 1e3
    layers["bench.replay_s"] = checker.seconds
    _portfolio_layers(layers, first_pass, trees)
    if tracer is not None:
        layers.update(_stage_layers("core.tree.", stages, ["build_s"]))
        layers.update(_stage_layers("core.kernel.", stages, ["flatten_s"]))
        layers.update(_stage_layers("solvers.solve_s.", stages, spec.LARGE_ALGORITHMS))
        layers["bench.trace_overhead"] = _overhead(passes)
    info = {
        "inputs_crc": inputs.crc(trees),
        "inputs": [f"{t.name} ({t.size} nodes)" for t in trees],
        "setup_samples_s": setup,
        **_raw_info(plain, raw_latencies, probe),
        "passes": len(passes),
        "latency_samples": lat.count,
        "op_tail_percentile": lat.level,
    }
    return Result(metrics, layers, tally, info, tracer)


_IN_CORE = ("postorder", "liu", "minmem", "auto")


def _optimality(exact_peaks: dict, tree: ExactTree, name: str, algo: str, report) -> Tuple[bool, str]:
    """Compare in-core traversals by their exact peaks (see :mod:`.exact`).

    MinMem and Liu are both optimal, so their traversals must peak at
    exactly the same value; the best postorder can only be worse; auto must
    match the best fixed algorithm.  Algorithms run in ``_IN_CORE`` order,
    so the peaks compared against are already known.
    """
    from repro import TOPDOWN

    key = (name, algo)
    if key not in exact_peaks:
        order = report.traversal.order
        exact_peaks[key] = tree.peak(order, report.traversal.convention == TOPDOWN)
    peak = exact_peaks[key]
    fixed = {a: exact_peaks.get((name, a)) for a in ("postorder", "liu", "minmem")}
    if algo == "liu" and fixed["postorder"] is not None and fixed["postorder"] < peak:
        return False, f"postorder beats liu on {name}"
    if algo == "minmem" and fixed["liu"] != peak:
        return False, f"minmem and liu traversals peak differently on {name}"
    if algo == "auto" and peak != min(v for v in fixed.values() if v is not None):
        return False, f"auto is not the best fixed peak on {name}"
    return True, ""


def _portfolio_layers(layers: Dict[str, float], first_pass: dict, trees) -> None:
    """Work counts and portfolio quality from one pass of reports."""
    explore = io_ops = 0
    io_volume = 0.0
    ratios, raced, chosen, run = [], 0, 0, 0
    for (name, algo), report in first_pass.items():
        if algo == "minmem":
            explore += int(report.extras.get("explore_calls", 0))
        elif algo.startswith("minio"):
            io_ops += int(report.extras.get("io_operations", 0))
            io_volume += report.io_volume
        elif algo == "auto":
            fixed = [first_pass[(name, a)].peak_memory for a in ("postorder", "liu", "minmem")
                     if (name, a) in first_pass]
            if fixed and min(fixed) > 0:
                ratios.append(report.peak_memory / min(fixed))
            info = report.extras.get("portfolio", {})
            candidates = len(info.get("candidates", [])) or 1
            raced += info.get("mode") == "race"
            chosen += 1
            run += candidates
    layers["core.minmem.explore_calls"] = explore
    layers["core.minmem.liu_peak_mismatches"] = sum(
        1 for t in trees
        if (t.name, "minmem") in first_pass and (t.name, "liu") in first_pass
        and first_pass[(t.name, "minmem")].peak_memory != first_pass[(t.name, "liu")].peak_memory
    )
    layers["core.minio.io_operations"] = io_ops
    layers["core.minio.io_volume"] = io_volume
    if chosen:
        layers["solvers.portfolio.auto_peak_ratio"] = max(ratios) if ratios else 0.0
        layers["solvers.portfolio.race_frac"] = raced / chosen
        layers["solvers.portfolio.useful_frac"] = chosen / run


def _zero_layers() -> Dict[str, float]:
    return {m.name: 0.0 for m in spec.PER_LAYER}


# ----------------------------------------------------------------------
# sparse_plan
# ----------------------------------------------------------------------
#: build_assembly_tree stages besides the ordering (stage_seconds keys)
_STAGES = ("symmetrize", "permute", "etree", "counts", "amalgamate", "tree")


def run_sparse_plan(ctx: Context) -> Result:
    matrices = inputs.grid_matrices(ctx.seed, ctx.sizes["grid_2d"], ctx.sizes["grid_3d"])
    plans = [
        (m, ordering, relaxed)
        for m in matrices
        for ordering in spec.SPARSE_ORDERINGS
        for relaxed in spec.SPARSE_RELAXED
    ]
    setup = time_library_setup(
        ctx,
        "from repro.sparse.assembly import build_assembly_tree\n"
        "import scipy.sparse as sp\n"
        "a = (sp.eye(64) * 4 - sp.eye(64, k=1) - sp.eye(64, k=-1)).tocsc()\n"
        "repro.solve(build_assembly_tree(a, ordering='nested_dissection').tree, 'liu')",
    )
    import repro
    from repro.sparse.assembly import build_assembly_tree

    tally = Tally()
    checker = Checker()
    tracer = Tracer() if ctx.trace else None
    latencies: List[float] = []
    by_kind: Dict[Tuple, List[float]] = {}
    samples: Dict[str, List[float]] = {}  # normalised per-layer samples, traced passes
    raw_latencies: List[float] = []
    first_pass: Dict[Tuple, Tuple[float, ...]] = {}
    counts = {"factor_nnz": 0, "assembly_nodes": 0, "explore": 0, "io_ops": 0, "io_volume": 0.0}
    probe = SpeedProbe()

    # warm-up, outside the timed window: one plan per ordering on the smaller grid
    for ordering in spec.SPARSE_ORDERINGS:
        res = build_assembly_tree(matrices[-1].matrix, ordering=ordering, relaxed=4)
        repro.solve(res.tree, "liu")

    op_ids = iter(range(1 << 30))

    def run_pass(index: int, traced: bool) -> dict:
        timed = raw = work = 0.0
        done = 0
        for m, ordering, relaxed in plans:
            op = next(op_ids)
            key = (m.name, ordering, relaxed)
            stages: Dict[str, float] = {}
            probe.sample()
            start = perf_counter()
            try:
                with time_limit(spec.LIBRARY_OP_LIMIT_S):
                    res = build_assembly_tree(
                        m.matrix, ordering=ordering, relaxed=relaxed, stage_seconds=stages
                    )
            except OpTimeout:
                tally.fail("time limit", str(key))
                continue
            except Exception as exc:
                tally.fail("error", f"{key}: {type(exc).__name__}: {exc}")
                continue
            built = perf_counter()
            tree = res.tree
            if traced:
                tree.kernel()
            flat = perf_counter()
            took = flat - start
            reports = {}
            ok, why = True, ""
            for algo in spec.SPARSE_ALGORITHMS:
                budget = _budget(tree, reports["minmem"][0].peak_memory) if algo.startswith("minio") else None
                try:
                    report, solve_took = _solve(repro, tree, algo, budget)
                except OpTimeout:
                    ok, why = False, f"time limit {key}/{algo}"
                    break
                except Exception as exc:
                    ok, why = False, f"error {key}/{algo}: {type(exc).__name__}: {exc}"
                    break
                took += solve_took
                reports[algo] = (report, budget, solve_took)
            end = perf_counter()
            if not ok:
                tally.fail("error", why)
                continue
            raw += took
            timed += probe.normalise(took)
            work += m.rows
            done += 1
            latencies.append(probe.normalise(took))
            by_kind.setdefault(key, []).append(latencies[-1])
            raw_latencies.append(took)
            c0 = perf_counter()
            for algo, (report, budget, _) in reports.items():
                if ok and not checker.report(key + (algo,), tree, report, budget):
                    ok, why = False, checker.last
            if ok and reports["minmem"][0].peak_memory != reports["liu"][0].peak_memory:
                ok, why = False, f"minmem peak != liu peak on {key}"
            tally.check(ok, "check", why)
            if traced:
                root = tracer.add(op, -1, "op", start, end)
                tracer.stages(op, root, start, stages)
                tracer.add(op, root, "flatten", built, flat)
                at = end
                for algo, (_, _, solve_took) in reversed(list(reports.items())):
                    tracer.add(op, root, f"solve:{algo}", at - solve_took, at)
                    samples.setdefault(algo, []).append(probe.normalise(solve_took))
                    at -= solve_took
                tracer.add(op, root, "check", c0, perf_counter())
                for stage, seconds in stages.items():
                    name = f"ordering_s.{ordering}" if stage == "ordering" else f"{stage}_s"
                    samples.setdefault(name, []).append(probe.normalise(seconds))
                unaccounted = (built - start) - sum(stages.values())
                samples.setdefault("unaccounted_s", []).append(probe.normalise(unaccounted))
                samples.setdefault("flatten_s", []).append(probe.normalise(flat - built))
            if index == 0:
                first_pass[key] = tuple(r.peak_memory for algo, (r, _, _) in reports.items()
                                        if not algo.startswith("minio"))
                counts["factor_nnz"] += res.symbolic.nnz_l
                counts["assembly_nodes"] += tree.size
                counts["explore"] += int(reports["minmem"][0].extras.get("explore_calls", 0))
                mio = reports["minio_first_fit"][0]
                counts["io_ops"] += int(mio.extras.get("io_operations", 0))
                counts["io_volume"] += mio.io_volume
        return {"timed": timed, "raw": raw, "work": work, "solves": done, "traced": traced}

    passes, rss = _passes(ctx, run_pass)
    lat = summarize(latencies)
    plain = [p for p in passes if not p["traced"]] or passes
    metrics = {
        "setup_s": median(setup),
        "ops_per_s": median([p["solves"] / p["timed"] for p in plain]),
        "nodes_per_s": median([p["work"] / p["timed"] for p in plain]),
        "op_p50_ms": kind_median(by_kind) * 1e3,
        "peak_rss_mb": rss,
        "peak_sum": sum(sum(p) for p in first_pass.values()),
    }
    layers = _zero_layers()
    layers["op_tail_ms"] = lat.tail * 1e3
    layers["bench.replay_s"] = checker.seconds
    layers["sparse.factor_nnz"] = counts["factor_nnz"]
    layers["sparse.assembly_nodes"] = counts["assembly_nodes"]
    layers["core.minmem.explore_calls"] = counts["explore"]
    layers["core.minio.io_operations"] = counts["io_ops"]
    layers["core.minio.io_volume"] = counts["io_volume"]
    if tracer is not None:
        layers.update(_stage_layers("sparse.", samples, [f"{s}_s" for s in _STAGES + ("unaccounted",)]))
        layers.update(_stage_layers("sparse.", samples,
                                    [f"ordering_s.{o}" for o in spec.SPARSE_ORDERINGS]))
        layers.update(_stage_layers("core.kernel.", samples, ["flatten_s"]))
        layers.update(_stage_layers("solvers.solve_s.", samples, spec.SPARSE_ALGORITHMS))
        layers["bench.trace_overhead"] = _overhead(passes)
    info = {
        "inputs_crc": inputs.crc(matrices),
        "inputs": [f"{m.name} ({m.rows} rows)" for m in matrices],
        "plans_per_pass": len(plans),
        "setup_samples_s": setup,
        **_raw_info(plain, raw_latencies, probe),
        "passes": len(passes),
        "latency_samples": lat.count,
        "op_tail_percentile": lat.level,
    }
    return Result(metrics, layers, tally, info, tracer)
