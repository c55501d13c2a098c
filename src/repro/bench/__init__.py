"""repro.bench -- scenario-sweep benchmarks with schedule-replay validation.

The benchmark subsystem turns the paper's experimental campaign into a
first-class, machine-readable pipeline on top of the solver registry:

``repro.bench.scenario``
    The :class:`Scenario` model and its decorator registry
    (:func:`register_scenario`): a scenario names a tree family, a seeded
    builder, the algorithms to run and the memory budgets to sweep.
``repro.bench.scenarios``
    The built-in campaign: five families (synthetic, random, harpoon,
    assembly, MatrixMarket-derived elimination trees) x sizes x the
    MinMemory and MinIO solvers.
``repro.bench.replay``
    An independent schedule replay that re-executes any
    :class:`~repro.solvers.SolveReport` step by step, recomputes peak
    memory and I/O volume from scratch, and raises on infeasible or
    misreported schedules -- the oracle behind both the benchmark runner
    and the cross-solver tests.
``repro.bench.runner``
    :func:`run_scenarios`: executes the campaign through
    :func:`repro.solvers.solve_many` (parallel workers, warmup + repeat
    timing) and collects per-cell metrics including optimality ratios.
``repro.bench.traffic``
    Open-loop traffic benchmarks over the :mod:`repro.service` daemon:
    seeded Poisson/bursty arrival schedules (plus a closed-loop baseline)
    replayed against a live service, recording latency percentiles,
    throughput, rejections and deadline misses per load cell.
``repro.bench.artifact``
    Schema-versioned ``BENCH_<timestamp>.json`` persistence plus
    :func:`compare_artifacts`, which diffs two artifacts and flags
    regressions.

Quickstart::

    from repro.bench import select_scenarios, run_scenarios, write_artifact

    run = run_scenarios(select_scenarios("minmem"), seed=0, repeat=3)
    print(run.format_table())
    path = write_artifact(run)          # BENCH_<timestamp>.json

or from the command line::

    repro-treemem bench --list
    repro-treemem bench --filter minmem --json
    repro-treemem bench --traffic --smoke --transport stdio
    repro-treemem bench --compare BENCH_old.json BENCH_new.json
"""

from .artifact import (
    BENCH_SCHEMA_VERSION,
    ArtifactComparison,
    ArtifactError,
    RecordDelta,
    compare_artifacts,
    load_artifact,
    run_to_dict,
    write_artifact,
)
from .replay import (
    ReplayError,
    ReplayMismatch,
    ReplayResult,
    replay_report,
    replay_schedule,
    replay_traversal,
)
from .checkpoint import CampaignJournal, JournalError
from .runner import BenchRecord, BenchRun, run_scenarios
from .scenario import (
    Scenario,
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_table,
    select_scenarios,
)
from . import scenarios as _builtin_scenarios  # noqa: F401  (registers the campaign)
from .traffic import (
    TrafficCell,
    TrafficScenario,
    UnknownTrafficScenarioError,
    get_traffic_scenario,
    list_traffic_scenarios,
    register_traffic_scenario,
    run_traffic_scenarios,
    select_traffic_scenarios,
)

__all__ = [
    # scenarios
    "Scenario",
    "UnknownScenarioError",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_table",
    "select_scenarios",
    # replay
    "ReplayError",
    "ReplayMismatch",
    "ReplayResult",
    "replay_traversal",
    "replay_schedule",
    "replay_report",
    # runner
    "BenchRecord",
    "BenchRun",
    "run_scenarios",
    # checkpoint
    "CampaignJournal",
    "JournalError",
    # traffic
    "TrafficCell",
    "TrafficScenario",
    "UnknownTrafficScenarioError",
    "register_traffic_scenario",
    "get_traffic_scenario",
    "list_traffic_scenarios",
    "select_traffic_scenarios",
    "run_traffic_scenarios",
    # artifacts
    "BENCH_SCHEMA_VERSION",
    "ArtifactError",
    "ArtifactComparison",
    "RecordDelta",
    "run_to_dict",
    "write_artifact",
    "load_artifact",
    "compare_artifacts",
]
