"""What the benchmark measures: workloads, metrics, and how they interact.

This module is the single source of truth.  ``BENCHMARK.json`` at the
repository root is :func:`benchmark_document` serialised (a test keeps the
two equal), and ``run.py --describe`` prints the parts the JSON file has no
room for: each workload's loop type and rates, and for every per-layer
metric the end-to-end metric and workload it should move.

Every end-to-end metric is defined on every workload and is never zero,
so a run always reports the full set.  Metrics that exist on only some
workloads (``io_volume``, ``auto_peak_ratio``, ``sustained_rps``) are
per-layer metrics, reported as 0 where the workload does not run the layer;
so are the timings that do not repeat within a tenth on the shared
machine this was tuned on (``op_tail_ms``, the service's client-side views).

Timings are normalised to a reference machine speed
(:class:`harness.SpeedProbe`): that machine's speed drifts by up to 1.5x
for seconds at a time, which otherwise dominates the run-to-run spread.
Each run record under ``perfbench/out/`` keeps the wall-clock figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: input sizes per scale; ``tiny`` is for the benchmark's own tests
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "chain": 24_000,
        "harpoon_levels": 8,       # 3 (3^8 - 1) * 3 / 2 + 1 = 29,521 nodes
        "deep": 21_000,
        "caterpillar_spine": 8_500,  # about 21k nodes with its leaves
        "grid_2d": 48,
        "grid_3d": 11,
        "service_trees": 320,
        "cold_pool": 2000,
    },
    "tiny": {
        "chain": 300,
        "harpoon_levels": 3,
        "deep": 300,
        "caterpillar_spine": 100,
        "grid_2d": 8,
        "grid_3d": 4,
        "service_trees": 24,
        "cold_pool": 60,
    },
}

#: the large_trees algorithms: the three MinMemory solvers, the portfolio,
#: and two MinIO eviction heuristics under a budget
LARGE_ALGORITHMS = ("postorder", "liu", "minmem", "auto", "minio_first_fit", "minio_lsnf")
#: each sparse plan: the assembly tree, then these solves
SPARSE_ALGORITHMS = ("liu", "minmem", "minio_first_fit")
SPARSE_ORDERINGS = ("nested_dissection", "minimum_degree", "rcm")
SPARSE_RELAXED = (1, 4, 16)
#: in-core algorithms the service requests cycle through
SERVICE_ALGORITHMS = ("postorder", "liu", "minmem")
#: MinIO budget: this far from max MemReq towards the MinMem peak
MINIO_BUDGET_FRACTION = 0.25

#: service phases, as shares of --seconds
OPEN_LOOP_SHARE, CLOSED_LOOP_SHARE, LADDER_SHARE = 0.4, 0.3, 0.3
#: offered rate of the open-loop phase (requests per second): about a
#: quarter of the daemon's closed-loop capacity on one core (370-390 req/s
#: on service_cold, 660-690 on service_warm), so latency shows per-request cost
#: rather than queueing; between the repository's own traffic scenarios'
#: poisson-r50 and poisson-r200
OPEN_LOOP_RATE = 100.0
#: open-loop windows and closed-loop slices alternate in this many rounds,
#: each after a probe of the daemon CPU's speed; op_tail_ms is the median of
#: the windows' tails
ROUNDS = 10
#: sustained_rps: ladder rates as shares of the closed-loop throughput
LADDER_FRACTIONS = (0.4, 0.55, 0.7, 0.85, 1.0)
#: a ladder step is sustained when its op_tail_ms stays under this limit...
SUSTAINED_TAIL_LIMIT_MS = 50.0
#: ...and no more requests than this are outstanding when it ends
SUSTAINED_BACKLOG = 8
#: service_cold: weight scalings 2**0 .. 2**(COLD_SCALES-1) of each pool tree
COLD_SCALES = 4
#: traced service runs also probe a daemon on its default backend (no
#: --pool) with this many requests, waiting at most this long for answers
DEFAULT_PROBE_REQUESTS = 4
DEFAULT_PROBE_LIMIT_S = 5.0
#: per-operation time limits (an overrun counts as failed)
LIBRARY_OP_LIMIT_S = 60.0
SERVICE_OP_LIMIT_S = 10.0
#: timings are normalised to a machine that runs the speed probe in this many
#: seconds (see harness.SpeedProbe), using the median of the last PROBE_WINDOW
#: probes
PROBE_REFERENCE_S = 0.0025
PROBE_WINDOW = 5
#: set-ups timed per run (their median is setup_s)
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "large_trees",
        "serial library solves (1 caller, closed loop) of 21k-30k-node trees: "
        "tree build, kernel flatten and solver core dominate; no service or sparse code runs",
        "closed loop, 1 caller, one repro.solve at a time; each tree is built from its "
        "arrays with repro.from_parent_list, then solved with every algorithm",
    ),
    Workload(
        "sparse_plan",
        "serial matrix plans (1 caller, closed loop) of grid Laplacians x 3 orderings x "
        "relaxed 1/4/16: the symbolic pipeline dominates, solves are on small trees",
        "closed loop, 1 caller, one plan at a time: build_assembly_tree, then "
        "liu, minmem and minio_first_fit on its tree",
    ),
    Workload(
        "service_warm",
        "daemon over stdio: open loop at 100 req/s, 2 closed-loop clients, 50 ms "
        "sustained-tail limit; 320 trees sent once, then by token: per-request overhead dominates",
        "daemon on --pool threads (its default backend hangs; traced runs probe it); "
        "open loop (Poisson, 100 req/s, timed from the due time) alternating with a "
        "closed loop of nproc clients, then a rate ladder at 40-100% of the closed-loop rate "
        "with a 50 ms tail limit",
    ),
    Workload(
        "service_cold",
        "service_warm's daemon, rates and limit, but every request carries a tree never "
        "sent before, in full: interning, eviction and tree build on every request",
        "the same three phases as service_warm; more distinct trees than the interner's "
        "512 slots, so it evicts",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
SERVICE_WORKLOADS = ("service_warm", "service_cold")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    doc: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process launch to first operation answered (imports, daemon start, one "
             "warm-up op); median of 5 set-ups per run, each normalised by speed probes "
             "taken just before it"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations per second: repro.solve calls (large_trees), matrix plans "
             "(sparse_plan), in the serial loop; for service_*, closed-loop responses "
             "per second of the daemon's own CPU time, i.e. its one-core capacity"),
    EndToEnd("nodes_per_s", "nodes/s", "higher", 0.25,
             "tree nodes per second on the same basis: nodes x solves (large_trees), "
             "elimination-tree nodes = matrix rows planned (sparse_plan), request "
             "tree nodes (service_*)"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median operation latency: the median over operation kinds of each kind's "
             "median (stats.kind_median), a kind being one repro.solve call on one "
             "(tree, algorithm) (large_trees) or one plan of one (matrix, ordering, "
             "relaxed) (sparse_plan); for service_*, the daemon-side latency of an open-loop "
             "request (the sum of its returned timing.stages), which leaves out the "
             "JSON decode of the request line, the encode of the response and the stdio "
             "thread hops: their CPU cost shows in ops_per_s, their latency only in the "
             "per-layer service.wire_ms and service.open_loop_p50_ms"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "sum of peak resident sets of the processes running the program: the "
             "benchmark process and its pool workers after the first pass (large_trees, "
             "sparse_plan), the daemon and its workers at the end (service_*)"),
    EndToEnd("peak_sum", "units", "lower", 0.2,
             "sum of the reported peak memory over every distinct (input, in-core "
             "algorithm); deterministic for a seed"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    doc: str


def _stage(name: str, unit: str, moves: str, doc: str) -> List[PerLayer]:
    return [
        PerLayer(f"{name}.p50", unit, "lower", moves, f"{doc} (median)"),
        PerLayer(f"{name}.tail", unit, "lower", moves, f"{doc} (tail)"),
    ]


_LIB = "nodes_per_s and ops_per_s on large_trees and sparse_plan; barely service_*"
_SPARSE = "nodes_per_s, ops_per_s and op_p50_ms on sparse_plan; nothing elsewhere"
_SERVICE_OP = "op_p50_ms and ops_per_s on service_*"


def _per_layer() -> Tuple[PerLayer, ...]:
    out: List[PerLayer] = []
    out += _stage("core.tree.build_s", "s",
                  "nodes_per_s on large_trees",
                  "repro.from_parent_list on one tree")
    out += _stage("core.kernel.flatten_s", "s",
                  "nodes_per_s on large_trees and sparse_plan",
                  "Tree.kernel() on a freshly built tree")
    for algo in LARGE_ALGORITHMS:
        out += _stage(f"solvers.solve_s.{algo}", "s", _LIB,
                      f"repro.solve(tree, {algo!r}) on a flattened tree")
    out.append(PerLayer(
        "op_tail_ms", "ms", "lower",
        "nothing: the tail view of op_p50_ms, per-layer because it does not repeat "
        "within a tenth (spread over ten seeds: 12% large_trees, 8% sparse_plan, "
        "11% service_warm, 36% service_cold)",
        "op_p50_ms's latencies at the highest percentile with ten samples beyond it; "
        "for service_*, the client-side open-loop latency from the due time, as the "
        "median of the open-loop windows' tails"))
    out += [
        PerLayer("service.open_loop_p50_ms", "ms", "lower",
                 "nothing: the client view of op_p50_ms on service_*, per-layer because it "
                 "does not repeat within a tenth (spread over ten seeds 10% warm, 24% cold)",
                 "open-loop latency as the client sees it, timed from each request's due time"),
        PerLayer("service.closed_loop_rps", "1/s", "higher",
                 "nothing: the wall-clock view of ops_per_s on service_*, per-layer because "
                 "it does not repeat within a tenth (spread over ten seeds 14% warm, 29% cold)",
                 "responses per second at nproc closed-loop clients (median over slices)"),
    ]
    out += [
        PerLayer("core.minmem.explore_calls", "count", "lower", _LIB,
                 "Explore calls summed over one pass of minmem solves (report extras)"),
        PerLayer("core.minmem.liu_peak_mismatches", "count", "lower",
                 "nothing: a correctness count (ROADMAP item 1's float drift)",
                 "trees whose reported minmem and liu peaks differ in floating point "
                 "although their traversals peak exactly alike"),
        PerLayer("core.minio.io_operations", "count", "lower", _LIB,
                 "evictions summed over one pass of MinIO solves (report extras)"),
        PerLayer("core.minio.io_volume", "units", "lower",
                 "nothing: a quality count (the I/O volume end-to-end metric of "
                 "large_trees and sparse_plan, per-layer because service runs no MinIO)",
                 "MinIO I/O volume summed over one pass; deterministic for a seed"),
        PerLayer("solvers.portfolio.auto_peak_ratio", "ratio", "lower",
                 "nothing: must stay 1.0 while race_frac or useful_frac move",
                 "max over trees of auto's peak / the best fixed algorithm's peak"),
        PerLayer("solvers.portfolio.race_frac", "ratio", "lower",
                 "nodes_per_s on large_trees; must not move auto_peak_ratio",
                 "share of auto solves that raced candidates instead of routing"),
        PerLayer("solvers.portfolio.useful_frac", "ratio", "higher",
                 "nodes_per_s on large_trees; must not move auto_peak_ratio",
                 "chosen candidates / candidates run, over auto solves"),
    ]
    for stage in ("symmetrize", "permute", "etree", "counts", "amalgamate", "tree",
                  "unaccounted"):
        out += _stage(f"sparse.{stage}_s", "s", _SPARSE,
                      f"build_assembly_tree stage {stage!r} (stage_seconds; "
                      "unaccounted = plan build time minus the stages)")
    for ordering in SPARSE_ORDERINGS:
        out += _stage(f"sparse.ordering_s.{ordering}", "s", _SPARSE,
                      f"the {ordering} ordering stage")
    out += [
        PerLayer("sparse.factor_nnz", "count", "lower",
                 "peak_sum on sparse_plan (a faster ordering with worse fill shows)",
                 "nnz(L) summed over one pass of plans"),
        PerLayer("sparse.assembly_nodes", "count", "lower",
                 "peak_sum on sparse_plan",
                 "assembly-tree nodes summed over one pass of plans"),
    ]
    out += _stage("service.protocol.parse_ms", "ms",
                  "op_p50_ms on service_cold; barely service_warm",
                  "daemon stage parse")
    out += _stage("service.protocol.intern_ms", "ms",
                  "op_p50_ms on service_cold; barely service_warm",
                  "daemon stage intern")
    out.append(PerLayer("service.protocol.intern_hit_ratio", "ratio", "higher",
                        "op_p50_ms on service_cold; barely service_warm",
                        "interner hits / (hits + misses) from the stats document"))
    out += _stage("service.daemon.queued_ms", "ms",
                  "op_tail_ms on service_* (and sustained_rps)",
                  "daemon stage queued")
    out.append(PerLayer("service.daemon.max_queue_depth", "count", "lower",
                        "op_tail_ms on service_* (and sustained_rps)",
                        "max_queue_depth from the stats document"))
    out += _stage("solvers.engine.dispatch_ms", "ms", _SERVICE_OP, "daemon stage dispatch")
    out += _stage("service.solve_ms", "ms", _SERVICE_OP, "daemon stage solve")
    out += _stage("service.report_ms", "ms", _SERVICE_OP, "daemon stage report")
    out += _stage("service.wire_ms", "ms",
                  "ops_per_s on service_* through the daemon's decode/encode CPU time "
                  "(not op_p50_ms, which excludes it); otherwise only the per-layer "
                  "service.open_loop_p50_ms and op_tail_ms",
                  "client-observed latency from send minus the sum of daemon stages")
    out += [
        PerLayer("service.wire_bytes_per_req", "bytes", "lower",
                 "ops_per_s on service_* (bytes the daemon decodes and encodes); not op_p50_ms",
                 "request plus response bytes per request"),
        PerLayer("service.sustained_rps", "1/s", "higher",
                 "nothing: the capacity view of op_tail_ms on service_*",
                 "highest ladder rate whose tail stays under the limit with no "
                 "growing backlog (per-layer: a ladder quantises it too coarsely "
                 "to repeat within a tenth; spread over ten seeds 31% warm, 58% cold)"),
        PerLayer("service.default_backend.answered_frac", "ratio", "higher",
                 "nothing while the workloads run on --pool threads: it shows when the "
                 "default backend stops hanging, so they can move to it (0 when this "
                 "benchmark was written; 0 on large_trees and sparse_plan)",
                 "share of probe requests a daemon started with no --pool answers "
                 "correctly within the probe's time limit"),
        PerLayer("solvers.engine.retries", "count", "lower", "failed count on service_*",
                 "engine retries"),
        PerLayer("solvers.engine.serial_fallbacks", "count", "lower",
                 "failed count on service_*", "engine serial fallbacks"),
        PerLayer("solvers.engine.broken_pools", "count", "lower",
                 "failed count on service_*", "engine broken pools"),
        PerLayer("loadgen.late_p50_ms", "ms", "lower",
                 "nothing: generator health; a late generator invalidates open-loop numbers",
                 "median lateness of open-loop sends behind their due time"),
        PerLayer("loadgen.late_max_ms", "ms", "lower",
                 "nothing: generator health", "largest open-loop send lateness"),
        PerLayer("bench.replay_s", "s", "lower",
                 "nothing: the output check's own cost, outside the timed region",
                 "seconds spent checking outputs (replay and comparisons)"),
        PerLayer("bench.trace_overhead", "ratio", "lower",
                 "nothing: traced op_p50_ms / untraced op_p50_ms - 1 within the traced run",
                 "tracing overhead, from interleaved traced and untraced operations"),
    ]
    return tuple(out)


PER_LAYER: Tuple[PerLayer, ...] = _per_layer()


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` document, exactly."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def describe() -> str:
    """Human-readable account of every workload and metric."""
    lines = ["workloads:"]
    for w in WORKLOADS:
        lines += [f"  {w.name}: {w.why}", f"      loop: {w.loop}"]
    lines.append("end-to-end metrics (every workload):")
    for m in END_TO_END:
        lines.append(f"  {m.name} [{m.unit}, {m.better}, bound {m.bound}]: {m.doc}")
    lines.append("per-layer metrics (traced runs; 0 where the workload skips the layer):")
    for m in PER_LAYER:
        lines.append(f"  {m.name} [{m.unit}, {m.better}]: {m.doc}; moves {m.moves}")
    return "\n".join(lines)
