"""Compare the executor backends on the service campaigns.

Runs the same campaign (default ``service`` + ``service_burst``) once per
requested backend through :func:`repro.bench.run_scenarios` and writes the
persistent run's ``BENCH_*.json`` artifact with every other backend's
campaign wall time (and its work-splitting counters) embedded under
``run.backends``, so one committed artifact carries the whole comparison.

Usage::

    PYTHONPATH=src python tools/bench_backends_demo.py \
        [--scenario service --scenario service_burst] [--workers 4] \
        [--repeat 2] [--warmup 1] [--seed 0] [--pools persistent,threads,serial] \
        [--output BENCH_x.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import get_scenario, run_scenarios  # noqa: E402
from repro.bench.artifact import run_to_dict  # noqa: E402
from repro.solvers import shutdown_engine  # noqa: E402


def _strip(records):
    return [
        (r.key, r.peak_memory, r.io_volume, r.replay_ok, r.optimality_ratio)
        for r in records
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", action="append", dest="scenarios", default=None,
        help="scenario name; repeatable (default: service, service_burst)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--pools", default="persistent,threads,serial",
        help="comma-separated backend names, reference run first",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    names = args.scenarios or ["service", "service_burst"]
    scenarios = [get_scenario(name) for name in names]
    pools = [name.strip() for name in args.pools.split(",") if name.strip()]
    common = dict(
        seed=args.seed, repeat=args.repeat, warmup=args.warmup, workers=args.workers
    )

    print(f"campaign: {', '.join(names)} x workers={args.workers} "
          f"repeat={args.repeat} warmup={args.warmup}", flush=True)

    runs = {}
    for pool in pools:
        runs[pool] = run_scenarios(scenarios, pool=pool, **common)
        shutdown_engine()
        extras = runs[pool].extras
        print(f"  {pool:<21}: {runs[pool].campaign_seconds:8.2f}s "
              f"({len(runs[pool].records)} records, "
              f"{extras['work_units']} work units, "
              f"{extras['straggler_resplits']} re-splits)", flush=True)

    if not runs:
        print("error: --pools names no backend", file=sys.stderr)
        return 1
    reference_pool, reference = next(iter(runs.items()))
    for pool, run in runs.items():
        if _strip(run.records) != _strip(reference.records):
            print(f"error: pool={pool} disagrees with pool={reference_pool} "
                  "on deterministic metrics", file=sys.stderr)
            return 1

    document = run_to_dict(reference)
    document["run"]["backends"] = {
        pool: {
            "campaign_seconds": run.campaign_seconds,
            "speedup_vs_reference":
                reference.campaign_seconds / run.campaign_seconds,
            **run.extras,
        }
        for pool, run in runs.items()
    }
    path = args.output
    if path is None:
        stamp = document["created_utc"].replace("-", "").replace(":", "")
        path = Path(f"BENCH_{stamp}.json")
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(reference.records)} records to {path} "
          f"(backends compared: {', '.join(runs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
