#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload large_trees --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --describe

With ``--trace 0`` the run reports every end-to-end metric; with
``--trace 1`` it records spans and reports every per-layer metric instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a human, with the run's provenance.  The exit code
is 0 only when every operation succeeded and every output check passed.
Each run also writes a record (and, when traced, its spans) under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import spec  # noqa: E402


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def provenance(ctx, result) -> dict:
    import numpy
    import scipy

    revision = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "git_revision": revision or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if revision else None,
        "nproc": ctx.nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": ctx.seed,
        "scale": ctx.scale,
        "inputs_crc": result.info.get("inputs_crc"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple:
    """Run one workload; returns ``(result document, record, exit code)``."""
    from benchlib.harness import Context

    ctx = Context(
        root=ROOT, seed=seed, seconds=seconds, trace=trace, scale=scale,
        out_dir=os.path.join(HERE, "out"),
    )
    if workload in spec.SERVICE_WORKLOADS:
        from benchlib.service import run_service

        result = run_service(ctx, cold=workload == "service_cold")
    else:
        from benchlib import library

        result = getattr(library, f"run_{workload}")(ctx)
    chosen = spec.PER_LAYER if trace else spec.END_TO_END
    source = result.layers if trace else result.metrics
    metrics = {m.name: {"value": float(source[m.name]), "unit": m.unit} for m in chosen}
    tally = result.tally
    doc = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(ctx, result),
        "failed_frac": tally.failed_frac,
        "failures": dict(tally.reasons),
        "failure_examples": tally.examples,
        "info": result.info,
        "end_to_end": result.metrics,
        "per_layer": result.layers,
    }
    os.makedirs(ctx.out_dir, exist_ok=True)
    stem = os.path.join(ctx.out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if result.tracer is not None:
        result.tracer.dump(stem + ".spans.json", meta={"workload": workload, "seed": seed})
    return doc, record, 0 if doc["correct"] else 1


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    from benchlib.harness import become_subreaper, stop_children

    # registered before the library is imported, so that it runs after the
    # library's own exit hooks; SIGTERM exits through it too
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    become_subreaper()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print every workload and metric, then exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(spec.describe())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure (expected {ROOT}/src/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    doc, record, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    for name, metric in doc["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {doc['attempted']}  failed {doc['failed']}  "
          f"failed_frac {record['failed_frac']:.6g}  {record['failures'] or ''}")
    for example in record["failure_examples"]:
        print(f"  failure: {example}")
    print(json.dumps(doc, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
