#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

The script builds the substitute data sets described in docs/ARCHITECTURE.md
(section "repro.analysis and the CLI") and prints, for each experiment, the
same quantities the paper reports: Table I / II statistics, and the Figure
5-9 performance profiles (as tau tables and ASCII curves).  The benchmark
scripts listed in benchmarks/README.md ("Paper-replication scripts") record
the same outputs under ``benchmarks/results/``.

Run with::

    python examples/paper_experiments.py --scale tiny          # seconds
    python examples/paper_experiments.py --scale small         # a few minutes
    python examples/paper_experiments.py --experiment fig7     # one experiment
"""

import argparse
import time

from repro.analysis import (
    ascii_profile,
    assembly_tree_dataset,
    format_profile_table,
    format_ratio_table,
    random_tree_dataset,
    run_harpoon_ablation,
    run_minio_heuristics,
    run_minmemory_comparison,
    run_runtime_comparison,
    run_traversal_io,
)

EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8", "fig9", "harpoon", "all")


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def fig5_table1(assembly) -> None:
    banner("Figure 5 + Table I -- PostOrder vs optimal memory (assembly trees)")
    comparison = run_minmemory_comparison(assembly)
    print(format_ratio_table(comparison.statistics()))
    profile = comparison.profile(non_optimal_only=True)
    print("\nperformance profile (non-optimal instances only):")
    print(format_profile_table(profile, taus=(1.0, 1.02, 1.05, 1.1, 1.2)))
    print(ascii_profile(profile))


def fig6(assembly) -> None:
    banner("Figure 6 -- run time of PostOrder / Liu / MinMem (assembly trees)")
    runtime = run_runtime_comparison(assembly)
    print(format_profile_table(runtime.profile(), taus=(1.0, 1.5, 2.0, 3.0, 5.0)))
    for algorithm in runtime.times:
        print(f"total {algorithm:<10}: {runtime.total_time(algorithm) * 1e3:9.1f} ms")


def fig7(assembly) -> None:
    banner("Figure 7 -- I/O volume of the eviction heuristics (MinMem traversals)")
    comparison = run_minio_heuristics(assembly)
    print(format_profile_table(comparison.profile(), taus=(1.0, 1.1, 1.5, 2.0, 5.0)))


def fig8(assembly) -> None:
    banner("Figure 8 -- I/O volume of the traversal algorithms + First Fit")
    comparison = run_traversal_io(assembly)
    print(format_profile_table(comparison.profile(), taus=(1.0, 1.1, 1.5, 2.0, 5.0)))


def fig9_table2(random_set) -> None:
    banner("Figure 9 + Table II -- PostOrder vs optimal memory (random trees)")
    comparison = run_minmemory_comparison(random_set)
    print(format_ratio_table(comparison.statistics()))
    profile = comparison.profile(non_optimal_only=True)
    print("\nperformance profile (non-optimal instances only):")
    print(format_profile_table(profile, taus=(1.0, 1.1, 1.25, 1.5, 2.0)))
    print(ascii_profile(profile))


def harpoon() -> None:
    banner("Theorem 1 ablation -- iterated harpoons")
    ablation = run_harpoon_ablation()
    print(f"{'levels':>7}{'PostOrder':>12}{'Optimal':>10}{'ratio':>8}")
    for i, level in enumerate(ablation.levels):
        print(
            f"{level:>7}{ablation.postorder[i]:>12.4f}{ablation.optimal[i]:>10.4f}"
            f"{ablation.postorder[i] / ablation.optimal[i]:>8.2f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("tiny", "small", "full"), default="tiny")
    parser.add_argument("--experiment", choices=EXPERIMENTS, default="all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    assembly = None
    random_set = None
    if args.experiment in ("fig5", "fig6", "fig7", "fig8", "all"):
        assembly = assembly_tree_dataset(args.scale)
        print(f"assembly-tree data set: {len(assembly)} trees ({args.scale})")
    if args.experiment in ("fig9", "all"):
        random_set = random_tree_dataset(args.scale, seed=args.seed, assembly_instances=assembly)
        print(f"random-tree data set: {len(random_set)} trees")

    if args.experiment in ("fig5", "all"):
        fig5_table1(assembly)
    if args.experiment in ("fig6", "all"):
        fig6(assembly)
    if args.experiment in ("fig7", "all"):
        fig7(assembly)
    if args.experiment in ("fig8", "all"):
        fig8(assembly)
    if args.experiment in ("fig9", "all"):
        fig9_table2(random_set)
    if args.experiment in ("harpoon", "all"):
        harpoon()
    print(f"\ntotal time: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
