"""Test oracles: the per-node reference implementations of the library's
algorithms.

The library ships one implementation per algorithm -- the array-backed
kernels of :mod:`repro.core.kernel` and the vectorized sparse symbolic
layer.  The straightforward per-node (dict-based, per-entry) versions they
were derived from live here, outside the package, as independent oracles:
``tests/test_kernel.py`` and ``tests/test_sparse_kernel.py`` check every
kernel against them on the same trees and matrices.

Each module mirrors the library module it checks and exposes plain
functions returning the library's own result types:

* :mod:`oracles.builders` -- ``from_parent_list``;
* :mod:`oracles.postorder` -- ``postorder_with_rule``;
* :mod:`oracles.liu` -- ``liu_optimal_traversal``;
* :mod:`oracles.explore` -- ``ExploreSolver`` (paper Algorithm 3);
* :mod:`oracles.minmem` -- ``min_mem`` (paper Algorithm 4);
* :mod:`oracles.minio` -- ``run_out_of_core``;
* :mod:`oracles.replay` -- ``replay_traversal`` / ``replay_schedule``;
* :mod:`oracles.sparse` -- ``elimination_tree``, ``column_counts``,
  ``column_patterns``, ``amalgamate`` and ``build_assembly_tree``.
"""
