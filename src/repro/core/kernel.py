"""Array-backed tree kernel: the library's iterative O(n) hot paths.

The dict-based :class:`~repro.core.tree.Tree` is convenient to build and
mutate, but every traversal algorithm pays for it at solve time: each node
visit goes through bound-method calls (``tree.f(v)``, ``tree.children(v)``),
per-call membership checks, and hash lookups keyed by arbitrary node
identifiers.  :class:`TreeKernel` is the flat counterpart the solvers
actually run on:

* nodes are relabeled ``0 .. p-1`` in a top-down topological order (index
  ``0`` is the root, ``range(p-1, -1, -1)`` is a valid bottom-up order);
* the structure lives in contiguous arrays -- a ``parent`` index array and a
  children CSR (``child_ptr`` / ``child_idx``, insertion order preserved);
* the weights (``f``, ``n``) and the derived per-node quantities the hot
  loops need (``mem_req``, ``child_f_sum``) are precomputed float arrays.

On top of the representation this module implements the explicit-stack,
array-based versions of every hot path:

* :func:`kernel_postorder` -- Liu's optimal postorder (and the two naive
  child-ordering rules) by a single bottom-up sweep;
* :func:`kernel_liu` -- Liu's exact hill--valley algorithm with the segment
  merge running on plain float tuples;
* :class:`KernelExploreSolver` / :func:`kernel_min_mem` -- the paper's
  Explore/MinMem pair with incrementally-maintained cut sums (recomputing
  ``sum(f)`` over the cut per candidate, as a literal transcription does,
  is quadratic in the cut size);
* :func:`kernel_replay_traversal` / :func:`kernel_replay_schedule` -- the
  schedule replay's peak-memory/IO recomputation on index arrays;
* :func:`kernel_out_of_core` -- the MinIO eviction simulator with an
  incrementally-maintained resident size.

Nothing here recurses: every sweep is an explicit loop or an explicit stack,
so 100k-node chains are as safe as balanced trees.  These are the only
implementations the library ships: the public entry points
(:func:`~repro.core.postorder.postorder_with_rule`,
:func:`~repro.core.liu.liu_optimal_traversal`,
:func:`~repro.core.minmem.min_mem`, :func:`~repro.core.minio.run_out_of_core`,
:mod:`repro.bench.replay`) are thin wrappers over them.  The per-node,
dict-based originals are test oracles under ``tests/oracles``.

A kernel is built once per tree -- :meth:`Tree.kernel()
<repro.core.tree.Tree.kernel>` caches it and invalidates the cache on
mutation -- so repeated solves (benchmark rounds, algorithm comparisons,
budget sweeps) share a single conversion.

Examples
--------
>>> from repro.core.builders import chain_tree
>>> kern = chain_tree(4, f=1.0, n=1.0).kernel()
>>> kern.size, kern.ids[0]
(4, 0)
>>> kernel_postorder(kern)[0]
3.0
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "TreeKernel",
    "KernelExploreSolver",
    "flatten_chunks",
    "kernel_postorder",
    "kernel_postorder_patch",
    "kernel_liu",
    "kernel_liu_state",
    "kernel_liu_patch",
    "kernel_min_mem",
    "kernel_replay_traversal",
    "kernel_replay_schedule",
    "kernel_out_of_core",
]


def flatten_chunks(nested) -> List[int]:
    """Flatten nested tuple chunks of node indices (explicit stack).

    The Explore/MinMem and Liu kernels accumulate traversals as nested
    tuples whose nesting depth can reach the tree depth; this flattener is
    iterative so deep chains cannot overflow the interpreter stack.
    """
    out: List[int] = []
    stack: List = [nested]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out

NodeId = Hashable

#: absolute tolerance for memory comparisons
_EPS = 1e-9


class TreeKernel:
    """Flat, array-backed snapshot of a task tree.

    Instances are immutable by convention: they are built in one pass from a
    :class:`~repro.core.tree.Tree` (or directly from a parent array) and
    shared by every solver run on the same tree.

    Attributes
    ----------
    size : int
        Number of nodes ``p``.
    ids : list
        ``ids[i]`` is the original node identifier of index ``i``.  Indices
        are assigned in a top-down topological order: ``ids[0]`` is the root
        and every parent index is smaller than its children's indices.
    index : dict
        Inverse mapping ``original id -> index``.
    parent : list of int
        ``parent[i]`` is the parent index of node ``i`` (``-1`` for the root).
    child_ptr, child_idx : list of int
        Children in CSR form: the children of node ``i`` are
        ``child_idx[child_ptr[i]:child_ptr[i + 1]]``, in insertion order
        (the same order :meth:`Tree.children` reports).
    f, n : list of float
        Communication-file and execution-file sizes by index.
    mem_req : list of float
        ``MemReq(i) = f[i] + n[i] + sum(f[j] for j children of i)``
        (Equation (1) of the paper), precomputed.
    child_f_sum : list of float
        ``sum(f[j] for j children of i)``, precomputed.
    """

    __slots__ = (
        "size",
        "ids",
        "index",
        "parent",
        "child_ptr",
        "child_idx",
        "f",
        "n",
        "mem_req",
        "child_f_sum",
        # incremental-patch provenance: kernels built by :meth:`patched` keep
        # a weak reference to the kernel they were derived from (`_base`) and
        # the sorted tuple of indices whose subtree changed (`_dirty`); both
        # are ``None`` for kernels built from scratch.  The incremental
        # solvers (kernel_postorder_patch / kernel_liu_patch) use them to
        # recompute only the root-path-affected nodes
        "_base",
        "_dirty",
        # True once validate_weights() passed: the solvers sharing a kernel
        # (minmem, then each minio_* solve) skip the O(p) re-check
        "_validated",
        # weak-referenceable so the engine arena (repro.solvers.engine) can
        # key its shared-memory exports by kernel and release the segment
        # when the kernel is garbage collected
        "__weakref__",
    )

    def __init__(
        self,
        parent: Sequence[int],
        f: Sequence[float],
        n: Sequence[float],
        *,
        ids: Optional[Sequence[NodeId]] = None,
    ) -> None:
        """Build a kernel from a topologically-ordered parent array.

        Parameters
        ----------
        parent : sequence of int
            ``parent[i]`` must be ``< i`` for every non-root node and ``-1``
            exactly for node ``0`` (top-down topological labeling).
        f, n : sequence of float
            Per-node weights, same length as ``parent``.
        ids : sequence, optional
            Original node identifiers (defaults to ``0 .. p-1``).

        Raises
        ------
        ValueError
            If the parent array is not topologically ordered or the lengths
            disagree.
        """
        p = len(parent)
        if len(f) != p or len(n) != p:
            raise ValueError("parent, f and n must have the same length")
        if p == 0:
            raise ValueError("cannot build a kernel for an empty tree")
        if parent[0] != -1:
            raise ValueError("node 0 must be the root (parent[0] == -1)")
        self.size = p
        self.parent = [int(x) for x in parent]
        self.f = [float(x) for x in f]
        self.n = [float(x) for x in n]
        if ids is None:
            self.ids = list(range(p))
            self.index = {i: i for i in range(p)}
        else:
            if len(ids) != p:
                raise ValueError("ids must have the same length as parent")
            self.ids = list(ids)
            self.index = {v: i for i, v in enumerate(self.ids)}
            if len(self.index) != p:
                raise ValueError("ids contains duplicates")

        counts = [0] * p
        for i in range(1, p):
            par = self.parent[i]
            if not 0 <= par < i:
                raise ValueError(
                    f"parent[{i}] = {par} breaks the topological labeling"
                )
            counts[par] += 1
        ptr = [0] * (p + 1)
        for i in range(p):
            ptr[i + 1] = ptr[i] + counts[i]
        self.child_ptr = ptr
        fill = list(ptr)
        child_idx = [0] * (p - 1)
        for i in range(1, p):
            par = self.parent[i]
            child_idx[fill[par]] = i
            fill[par] += 1
        self.child_idx = child_idx

        fvals = self.f
        cfs = [0.0] * p
        for i in range(1, p):
            cfs[self.parent[i]] += fvals[i]
        self.child_f_sum = cfs
        nvals = self.n
        self.mem_req = [fvals[i] + nvals[i] + cfs[i] for i in range(p)]
        self._base = None
        self._dirty = None
        self._validated = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree) -> "TreeKernel":
        """Build a kernel from a :class:`~repro.core.tree.Tree`.

        One BFS pass relabels the nodes top-down; children keep their
        insertion order, so every tie-breaking rule of the solvers behaves
        exactly as on the original tree.  Prefer :meth:`Tree.kernel`, which
        caches the result on the tree.
        """
        order = tree.topological_order()
        index = {v: i for i, v in enumerate(order)}
        # accessing the internal maps directly: this is the package-private
        # bulk path, one dict lookup per node instead of three method calls
        parent_map = tree._parent
        f_map = tree._f
        n_map = tree._n
        parent = [-1] * len(order)
        for i, v in enumerate(order):
            par = parent_map[v]
            if par is not None:
                parent[i] = index[par]
        return cls(
            parent,
            [f_map[v] for v in order],
            [n_map[v] for v in order],
            ids=order,
        )

    def to_tree(self):
        """Materialise a :class:`~repro.core.tree.Tree` (original ids)."""
        from .tree import Tree

        return Tree.from_parents(self.parent, self.f, self.n, ids=self.ids)

    # ------------------------------------------------------------------
    # flat-buffer export / attach (the engine arena's transport format)
    # ------------------------------------------------------------------
    def has_trivial_ids(self) -> bool:
        """True when the original identifiers are exactly ``0 .. p-1``.

        Kernels built by the bulk generators and the sparse pipeline carry
        trivial ids; exporters can then skip shipping the id list entirely.
        """
        ids = self.ids
        return ids[0] == 0 and ids[-1] == self.size - 1 and ids == list(range(self.size))

    def to_flat_arrays(self):
        """Export the defining arrays as three contiguous numpy arrays.

        Returns
        -------
        (parent, f, n) : numpy arrays
            ``int64`` parent indices and ``float64`` weights.  Together with
            :attr:`ids` these reproduce the kernel exactly via
            :meth:`from_flat_arrays`; the derived arrays (children CSR,
            ``mem_req``, ``child_f_sum``) are recomputed on attach, so the
            export is three buffers instead of ten.
        """
        import numpy as np

        return (
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.f, dtype=np.float64),
            np.asarray(self.n, dtype=np.float64),
        )

    @classmethod
    def from_flat_arrays(cls, parent, f, n, *, ids=None) -> "TreeKernel":
        """Rebuild a kernel from :meth:`to_flat_arrays` output.

        A vectorized counterpart of ``__init__``: the topological check, the
        children CSR and the derived weight arrays are all computed with
        numpy primitives instead of per-node Python loops, so attaching a
        shipped kernel in a worker process costs a handful of array passes.
        The result is bit-identical to the ``__init__`` path -- in particular
        ``child_f_sum`` accumulates in the same index order (``np.bincount``
        sums its input sequentially) and children keep insertion order
        (stable argsort).

        Raises
        ------
        ValueError
            Same contract as the constructor: mismatched lengths, an empty
            tree, a non-root first node, or a parent array that breaks the
            topological labeling.
        """
        import numpy as np

        parent = np.ascontiguousarray(parent, dtype=np.int64)
        f = np.ascontiguousarray(f, dtype=np.float64)
        n = np.ascontiguousarray(n, dtype=np.float64)
        p = int(parent.shape[0])
        if f.shape[0] != p or n.shape[0] != p:
            raise ValueError("parent, f and n must have the same length")
        if p == 0:
            raise ValueError("cannot build a kernel for an empty tree")
        if parent[0] != -1:
            raise ValueError("node 0 must be the root (parent[0] == -1)")
        tail = parent[1:]
        if p > 1:
            bad = (tail < 0) | (tail >= np.arange(1, p, dtype=np.int64))
            if bad.any():
                i = int(np.argmax(bad)) + 1
                raise ValueError(
                    f"parent[{i}] = {int(parent[i])} breaks the topological labeling"
                )

        kern = object.__new__(cls)
        kern.size = p
        kern.parent = parent.tolist()
        kern.f = f.tolist()
        kern.n = n.tolist()
        if ids is None:
            kern.ids = list(range(p))
            kern.index = {i: i for i in range(p)}
        else:
            if len(ids) != p:
                raise ValueError("ids must have the same length as parent")
            kern.ids = list(ids)
            kern.index = {v: i for i, v in enumerate(kern.ids)}
            if len(kern.index) != p:
                raise ValueError("ids contains duplicates")

        counts = np.bincount(tail, minlength=p)
        ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        kern.child_ptr = ptr.tolist()
        # stable sort groups children by parent while preserving their
        # relative (insertion) order -- the same CSR __init__ builds
        kern.child_idx = (np.argsort(tail, kind="stable") + 1).tolist()
        cfs = np.bincount(tail, weights=f[1:], minlength=p)
        kern.child_f_sum = cfs.tolist()
        kern.mem_req = (f + n + cfs).tolist()
        kern._base = None
        kern._dirty = None
        kern._validated = False
        return kern

    # ------------------------------------------------------------------
    # incremental patching
    # ------------------------------------------------------------------
    def patched(self, patches: Sequence[tuple]) -> "TreeKernel":
        """A new kernel with a journal of tree mutations applied.

        Each patch is one of the op tuples :class:`~repro.core.tree.Tree`
        records while a cached kernel is being invalidated:

        * ``("add", node, parent, f, n)`` -- a new leaf under ``parent``;
        * ``("f", node, value)`` / ``("n", node, value)`` -- a weight update.

        Existing nodes keep their indices; added nodes are appended in patch
        order (a valid topological labeling, since every parent already has a
        smaller index).  The appended labeling can differ from the BFS
        labeling :meth:`from_tree` would produce, but all solver results are
        labeling-independent in id-space: the hot paths only rely on
        parent-before-child order and on the children's insertion order,
        both of which are preserved exactly.

        The result carries provenance for the incremental solvers:
        ``_base`` is a weak reference to ``self`` and ``_dirty`` is the
        sorted tuple of indices whose subtree differs from the base (the
        union of the mutated nodes' root paths).  Everything outside
        ``_dirty`` is untouched, so per-node solve state (postorder peaks,
        Liu segments) computed on the base kernel remains valid there.
        """
        ids = list(self.ids)
        index = dict(self.index)
        parent = list(self.parent)
        f = list(self.f)
        n = list(self.n)
        changed = set()
        for op in patches:
            kind = op[0]
            if kind == "add":
                _, node, par, fv, nv = op
                if node in index:
                    raise ValueError(f"patched node {node!r} already present")
                i = len(ids)
                ids.append(node)
                index[node] = i
                parent.append(index[par])
                f.append(float(fv))
                n.append(float(nv))
                changed.add(i)
                changed.add(index[par])
            elif kind == "f":
                _, node, value = op
                i = index[node]
                f[i] = float(value)
                changed.add(i)
                if parent[i] >= 0:
                    changed.add(parent[i])
            elif kind == "n":
                _, node, value = op
                i = index[node]
                n[i] = float(value)
                changed.add(i)
            else:
                raise ValueError(f"unknown kernel patch op {kind!r}")
        kern = TreeKernel(parent, f, n, ids=ids)
        dirty = set()
        for i in changed:
            while i >= 0 and i not in dirty:
                dirty.add(i)
                i = parent[i]
        kern._base = weakref.ref(self)
        kern._dirty = tuple(sorted(dirty))
        return kern

    def base_kernel(self) -> Optional["TreeKernel"]:
        """The kernel this one was patched from, if it is still alive."""
        ref = self._base
        return None if ref is None else ref()

    # ------------------------------------------------------------------
    # pickling (slots class; provenance weakrefs are dropped)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in TreeKernel.__slots__
            if slot not in ("__weakref__", "_base", "_dirty")
        }

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._base = None
        self._dirty = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def children(self, i: int) -> List[int]:
        """Child indices of node ``i`` in insertion order."""
        return self.child_idx[self.child_ptr[i] : self.child_ptr[i + 1]]

    def max_mem_req(self) -> float:
        """``max_i MemReq(i)``, the trivial lower bound on main memory."""
        return max(self.mem_req)

    def total_file_size(self) -> float:
        """Sum of all communication-file sizes (I/O volume upper bound)."""
        return math.fsum(self.f)

    def validate_weights(self) -> None:
        """Check the weight invariants (mirrors :meth:`Tree.validate`).

        Raises ``ValueError`` on non-finite weights, negative file sizes or
        negative memory requirements.  The structural invariants (single
        root, acyclicity, connectivity) hold by construction.  A kernel
        that passed once is not checked again.
        """
        if self._validated:
            return
        for i in range(self.size):
            fv, nv, mr = self.f[i], self.n[i], self.mem_req[i]
            if fv != fv or abs(fv) == math.inf:
                raise ValueError(f"non-finite f for node {self.ids[i]!r}")
            if fv < 0:
                raise ValueError(f"negative file size for node {self.ids[i]!r}")
            if nv != nv or abs(nv) == math.inf:
                raise ValueError(f"non-finite n for node {self.ids[i]!r}")
            if mr < 0:
                raise ValueError(
                    f"negative memory requirement for node {self.ids[i]!r}"
                )
        self._validated = True

    def order_to_ids(self, order: Sequence[int]) -> Tuple[NodeId, ...]:
        """Map a sequence of node indices back to original identifiers."""
        ids = self.ids
        return tuple(ids[i] for i in order)

    def order_to_indices(self, order: Sequence[NodeId]) -> List[int]:
        """Map original identifiers to node indices (raises ``KeyError``)."""
        index = self.index
        return [index[v] for v in order]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TreeKernel(p={self.size}, root={self.ids[0]!r})"


# ----------------------------------------------------------------------
# PostOrder: one bottom-up sweep over the index range
# ----------------------------------------------------------------------
def kernel_postorder(
    kern: TreeKernel, rule: str = "liu"
) -> Tuple[float, List[int], List[float], List[List[int]]]:
    """Memory-optimal (or ablation-rule) postorder on the kernel.

    Parameters
    ----------
    kern : TreeKernel
        The flat tree.
    rule : str
        ``"liu"`` (children by decreasing ``P_j - f_j``, optimal),
        ``"subtree_memory"`` (increasing subtree peak) or ``"natural"``
        (insertion order).

    Returns
    -------
    (memory, order, subtree_peak, child_order)
        Peak memory, the bottom-up node order (indices), the per-node
        subtree peaks, and the chosen child permutation per node.
    """
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    peak = [0.0] * p
    child_order: List[List[int]] = [[]] * p

    for v in range(p - 1, -1, -1):
        lo, hi = child_ptr[v], child_ptr[v + 1]
        if lo == hi:
            peak[v] = f[v] + n[v]
            continue
        children = child_idx[lo:hi]
        if hi - lo > 1:  # singleton child lists need no ordering rule
            if rule == "liu":
                children.sort(key=lambda c: peak[c] - f[c], reverse=True)
            elif rule == "subtree_memory":
                children.sort(key=lambda c: peak[c])
        child_order[v] = children
        completed = 0.0
        best = 0.0
        for c in children:
            cand = completed + peak[c]
            if cand > best:
                best = cand
            completed += f[c]
        cand = completed + n[v] + f[v]
        peak[v] = cand if cand > best else best

    return peak[0], _emit_postorder(child_order), peak, child_order


def _emit_postorder(child_order: List[List[int]]) -> List[int]:
    """Bottom-up DFS following ``child_order`` (explicit stack)."""
    order: List[int] = []
    append = order.append
    stack: List[int] = [0]
    # encode "expanded" by pushing ~v (bitwise complement is a distinct int)
    while stack:
        v = stack.pop()
        if v < 0:
            append(~v)
            continue
        stack.append(~v)
        for c in reversed(child_order[v]):
            stack.append(c)
    return order


def kernel_postorder_patch(
    kern: TreeKernel,
    base_peak: Sequence[float],
    base_child_order: Sequence[List[int]],
    rule: str = "liu",
) -> Tuple[float, List[int], List[float], List[List[int]]]:
    """Incremental :func:`kernel_postorder` on a :meth:`TreeKernel.patched` kernel.

    ``base_peak`` / ``base_child_order`` are the per-node arrays a previous
    :func:`kernel_postorder` run (same ``rule``) produced on the kernel's
    base.  Only the nodes in ``kern._dirty`` -- the mutated nodes and their
    root paths -- are recomputed with the exact per-node update rule of the
    full sweep; every other node's subtree is untouched, so its cached peak
    and child permutation are reused verbatim.  The returned tuple is
    bit-identical to running :func:`kernel_postorder` from scratch (the
    differential suite in ``tests/differential`` asserts this).

    The inputs are never mutated: the returned arrays are fresh lists that
    share the unchanged per-node entries, so one base state can serve many
    patches.
    """
    if kern._dirty is None:
        raise ValueError("kernel has no patch provenance; run the full solve")
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    peak = list(base_peak)
    peak.extend([0.0] * (p - len(peak)))
    child_order: List[List[int]] = list(base_child_order)
    child_order.extend([[]] * (p - len(child_order)))

    # dirty indices in decreasing order: every dirty child precedes its
    # dirty ancestors (parent[i] < i), exactly like the full bottom-up sweep
    for v in sorted(kern._dirty, reverse=True):
        lo, hi = child_ptr[v], child_ptr[v + 1]
        if lo == hi:
            peak[v] = f[v] + n[v]
            child_order[v] = []
            continue
        children = child_idx[lo:hi]
        if hi - lo > 1:
            if rule == "liu":
                children.sort(key=lambda c: peak[c] - f[c], reverse=True)
            elif rule == "subtree_memory":
                children.sort(key=lambda c: peak[c])
        child_order[v] = children
        completed = 0.0
        best = 0.0
        for c in children:
            cand = completed + peak[c]
            if cand > best:
                best = cand
            completed += f[c]
        cand = completed + n[v] + f[v]
        peak[v] = cand if cand > best else best

    return peak[0], _emit_postorder(child_order), peak, child_order


# ----------------------------------------------------------------------
# Liu's exact algorithm: hill--valley segment merge on float tuples
# ----------------------------------------------------------------------
def kernel_liu(
    kern: TreeKernel,
) -> Tuple[float, List[int], List[float], List[Tuple[float, float, tuple]]]:
    """Liu's exact MinMemory algorithm on the kernel.

    Liu's per-node algorithm on index arrays: per subtree the canonical hill--valley representation is kept as plain
    ``(hill, valley, nodes)`` tuples, children segments are interleaved in
    decreasing ``hill - valley`` order (stable on ties), and the profile is
    re-cut by one backward plus one forward sweep.

    Returns
    -------
    (memory, order, subtree_peak, root_segments)
        The optimal memory, an optimal bottom-up order (indices), the
        optimal peak of every subtree, and the root's canonical segments as
        ``(hill, valley, nested_chunks)`` tuples (chunks hold node indices;
        flatten with :func:`repro.core.liu.flatten_nodes`).
    """
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    segments_of: List[Optional[List[Tuple[float, float, tuple]]]] = [None] * p
    subtree_peak = [0.0] * p

    for v in range(p - 1, -1, -1):
        lo, hi = child_ptr[v], child_ptr[v + 1]
        fv = f[v]
        if lo == hi:
            # leaf: a single segment, no merge and no re-cut needed
            peak0 = fv + n[v]
            segments_of[v] = [(peak0, fv, (v,))]
            subtree_peak[v] = peak0
            continue
        if hi - lo == 1:
            # one child: the merge sort is a no-op (a canonical representation
            # already has non-increasing hill - valley), and converting to
            # relative increments and re-basing reproduces the absolute
            # levels, so the child's segments ARE the events
            child = child_idx[lo]
            events = segments_of[child]
            segments_of[child] = None  # merged; free the memory
            base = events[-1][1]
        else:
            keyed: List[Tuple[float, int, int, float, float, tuple]] = []
            for child_pos in range(lo, hi):
                child = child_idx[child_pos]
                prev_valley = 0.0
                segs = segments_of[child]
                for seg_idx, (hill, valley, nodes) in enumerate(segs):
                    keyed.append(
                        (
                            valley - hill,  # == -(hill - valley)
                            child_pos,
                            seg_idx,
                            hill - prev_valley,
                            valley - prev_valley,
                            nodes,
                        )
                    )
                    prev_valley = valley
                segments_of[child] = None  # merged; free the memory
            keyed.sort(key=lambda item: (item[0], item[1], item[2]))
            events = []
            base = 0.0
            for _, _, _, rel_hill, rel_valley, nodes in keyed:
                events.append((base + rel_hill, base + rel_valley, nodes))
                base += rel_valley
        own_peak = base + n[v] + fv
        events.append((own_peak, fv, (v,)))
        # The profile collapses into a single segment whenever the final
        # residual fv is the minimum over all events (the suffix-minimum cut
        # lands on the last event); that covers chains and most assembly
        # nodes, and skips the O(events) array bookkeeping of _canonical.
        max_hill = own_peak
        single = True
        for hill, valley, _ in events:
            if valley < fv:
                single = False
                break
            if hill > max_hill:
                max_hill = hill
        if single:
            segs = [(max_hill, fv, tuple(nodes for _, _, nodes in events))]
        else:
            segs = _canonical(events)
        segments_of[v] = segs
        subtree_peak[v] = segs[0][0]  # canonical hills are non-increasing

    root_segments = segments_of[0]
    assert root_segments is not None
    order: List[int] = []
    for _, _, nodes in root_segments:
        order.extend(flatten_chunks(nodes))
    return subtree_peak[0], order, subtree_peak, root_segments


def _canonical(
    events: List[Tuple[float, float, tuple]],
) -> List[Tuple[float, float, tuple]]:
    """Cut an event profile into its canonical hill--valley representation.

    One backward sweep for suffix maxima/minima, one forward sweep for the
    cuts, producing plain tuples instead of ``Segment`` objects.
    """
    n_events = len(events)
    first_max = [0] * n_events
    last_min = [0] * n_events
    suffix_max = [0.0] * n_events
    suffix_min = [0.0] * n_events
    peak, level = events[-1][0], events[-1][1]
    suffix_max[-1] = peak
    suffix_min[-1] = level
    first_max[-1] = last_min[-1] = n_events - 1
    for t in range(n_events - 2, -1, -1):
        peak, level = events[t][0], events[t][1]
        if peak >= suffix_max[t + 1]:
            suffix_max[t] = peak
            first_max[t] = t
        else:
            suffix_max[t] = suffix_max[t + 1]
            first_max[t] = first_max[t + 1]
        if level < suffix_min[t + 1]:
            suffix_min[t] = level
            last_min[t] = t
        else:
            suffix_min[t] = suffix_min[t + 1]
            last_min[t] = last_min[t + 1]

    segments: List[Tuple[float, float, tuple]] = []
    start = 0
    while start < n_events:
        valley_pos = last_min[first_max[start]]
        segments.append(
            (
                suffix_max[start],
                events[valley_pos][1],
                tuple(events[t][2] for t in range(start, valley_pos + 1)),
            )
        )
        start = valley_pos + 1
    return segments


def _liu_visit(
    v: int,
    f: List[float],
    n: List[float],
    child_ptr: List[int],
    child_idx: List[int],
    segments_of: List[Optional[List[Tuple[float, float, tuple]]]],
) -> None:
    """One node of the Liu sweep, *retaining* every child's segment list.

    Same per-node computation as the corresponding block of
    :func:`kernel_liu`, except that children's segments are read (and, for
    the single-child case, copied) instead of being consumed -- the
    state-keeping and incremental variants below need them to stay valid.
    """
    lo, hi = child_ptr[v], child_ptr[v + 1]
    fv = f[v]
    if lo == hi:
        peak0 = fv + n[v]
        segments_of[v] = [(peak0, fv, (v,))]
        return
    if hi - lo == 1:
        # copy: kernel_liu appends the own-peak event onto the child's list
        # in place (the child is about to be freed there); here the child's
        # segments must survive for future patches
        events = list(segments_of[child_idx[lo]])
        base = events[-1][1]
    else:
        keyed: List[Tuple[float, int, int, float, float, tuple]] = []
        for child_pos in range(lo, hi):
            child = child_idx[child_pos]
            prev_valley = 0.0
            for seg_idx, (hill, valley, nodes) in enumerate(segments_of[child]):
                keyed.append(
                    (
                        valley - hill,
                        child_pos,
                        seg_idx,
                        hill - prev_valley,
                        valley - prev_valley,
                        nodes,
                    )
                )
                prev_valley = valley
        keyed.sort(key=lambda item: (item[0], item[1], item[2]))
        events = []
        base = 0.0
        for _, _, _, rel_hill, rel_valley, nodes in keyed:
            events.append((base + rel_hill, base + rel_valley, nodes))
            base += rel_valley
    own_peak = base + n[v] + fv
    events.append((own_peak, fv, (v,)))
    max_hill = own_peak
    single = True
    for hill, valley, _ in events:
        if valley < fv:
            single = False
            break
        if hill > max_hill:
            max_hill = hill
    if single:
        segs = [(max_hill, fv, tuple(nodes for _, _, nodes in events))]
    else:
        segs = _canonical(events)
    segments_of[v] = segs


def _liu_order(
    root_segments: List[Tuple[float, float, tuple]],
) -> List[int]:
    order: List[int] = []
    for _, _, nodes in root_segments:
        order.extend(flatten_chunks(nodes))
    return order


def kernel_liu_state(
    kern: TreeKernel,
) -> Tuple[float, List[int], List[float], List[List[Tuple[float, float, tuple]]]]:
    """:func:`kernel_liu`, returning the full per-node segment state.

    Identical result values (the segment merge is the same computation; the
    only difference is that no child segment list is freed), but the fourth
    element is ``segments_of`` -- every node's canonical hill--valley
    segments -- instead of just the root's.  That array, together with
    ``subtree_peak``, is the state :func:`kernel_liu_patch` resumes from.
    """
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    segments_of: List[Optional[List[Tuple[float, float, tuple]]]] = [None] * p
    subtree_peak = [0.0] * p
    for v in range(p - 1, -1, -1):
        _liu_visit(v, f, n, child_ptr, child_idx, segments_of)
        subtree_peak[v] = segments_of[v][0][0]
    return subtree_peak[0], _liu_order(segments_of[0]), subtree_peak, segments_of


def kernel_liu_patch(
    kern: TreeKernel,
    base_subtree_peak: Sequence[float],
    base_segments_of: Sequence[Optional[List[Tuple[float, float, tuple]]]],
) -> Tuple[float, List[int], List[float], List[List[Tuple[float, float, tuple]]]]:
    """Incremental :func:`kernel_liu` on a :meth:`TreeKernel.patched` kernel.

    ``base_subtree_peak`` / ``base_segments_of`` come from a previous
    :func:`kernel_liu_state` (or ``kernel_liu_patch``) run on the kernel's
    base.  Only the nodes in ``kern._dirty`` are re-merged and re-cut; a
    clean node's subtree is untouched, so its canonical segments are exactly
    what the full sweep would recompute (segments only reference node
    indices inside the subtree, and existing nodes keep their indices under
    patching).  The result is bit-identical to a from-scratch
    :func:`kernel_liu_state`.
    """
    if kern._dirty is None:
        raise ValueError("kernel has no patch provenance; run the full solve")
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    segments_of: List[Optional[List[Tuple[float, float, tuple]]]] = list(
        base_segments_of
    )
    segments_of.extend([None] * (p - len(segments_of)))
    subtree_peak = list(base_subtree_peak)
    subtree_peak.extend([0.0] * (p - len(subtree_peak)))
    for v in sorted(kern._dirty, reverse=True):
        _liu_visit(v, f, n, child_ptr, child_idx, segments_of)
        subtree_peak[v] = segments_of[v][0][0]
    return subtree_peak[0], _liu_order(segments_of[0]), subtree_peak, segments_of


# ----------------------------------------------------------------------
# Explore / MinMem: the paper's Algorithms 3 and 4 on index arrays
# ----------------------------------------------------------------------
class KernelExploreSolver:
    """Repeated ``Explore`` calls (paper Algorithm 3) on one tree, with state.

    Keeps per-node resume states (the ``L_init`` / ``Tr_init`` mechanism of
    the paper, generalised to every node) and offers the
    ``reuse_states=False`` literal-pseudocode mode.  Nodes are indices,
    per-node state lives in flat lists, and the resident size of the current
    cut is maintained incrementally instead of being re-summed per
    candidate.

    :meth:`explore` runs the recursion of Algorithm 3 as one loop: the
    running frame lives in local variables, descending into a child pushes
    them as a tuple, and returning pops them and applies the merge.  Leaf
    children run inline without a frame (each still counts as one
    ``Explore`` call).  A pass over the cut that merges nothing ends the
    frame: in exact arithmetic such a pass leaves no candidate for the
    next one, so the rule only changes inputs whose sums drift in floating
    point, which then stop with MinMem's no-progress ``RuntimeError``
    instead of looping forever.

    Parameters
    ----------
    kern : TreeKernel
        The flat tree (its weights are validated once per kernel).
    reuse_states : bool
        Keep every node's reached exploration state across sweeps (the fast
        mode); ``False`` retains only the entry node's state, exactly as in
        the paper's pseudocode.
    """

    def __init__(self, kern: TreeKernel, *, reuse_states: bool = True) -> None:
        kern.validate_weights()
        self.kern = kern
        self.reuse_states = reuse_states
        self._peak_of = list(kern.mem_req)
        p = kern.size
        self._state_cut: List[Optional[Sequence[int]]] = [None] * p
        self._state_chunks: List[Optional[tuple]] = [None] * p
        self._state_required = [0.0] * p
        self.explore_calls = 0
        self.nodes_visited = 0

    def peak_of(self, i: int) -> float:
        """Current estimate of the memory needed to progress below ``i``."""
        return self._peak_of[i]

    def explore(self, node: int, m_avail: float):
        """Run ``Explore`` from index ``node`` with ``m_avail`` memory.

        Returns
        -------
        (resident, cut, chunks, peak, required)
            ``M_i``, the frontier (tuple of indices), the nested traversal
            chunks (flatten with :func:`flatten_chunks`), ``M_peak_i``, and
            the peak memory actually used by the returned partial traversal.
        """
        if not self.reuse_states:
            kept = self._state_cut[node]
            kept_chunks = self._state_chunks[node]
            kept_required = self._state_required[node]
            p = self.kern.size
            self._state_cut = [None] * p
            self._state_chunks = [None] * p
            self._state_required = [0.0] * p
            self._state_cut[node] = kept
            self._state_chunks[node] = kept_chunks
            self._state_required[node] = kept_required
            self._peak_of = list(self.kern.mem_req)
        kern = self.kern
        f = kern.f
        mem_req = kern.mem_req
        child_ptr = kern.child_ptr
        child_idx = kern.child_idx
        peak_of = self._peak_of
        state_cut = self._state_cut
        state_chunks = self._state_chunks
        state_required = self._state_required
        inf = math.inf
        calls = visited = 0
        # the suspended ancestors of the running frame, one locals tuple each
        stack = []
        cur, avail = node, m_avail
        while True:
            # enter `cur` with `avail` memory; cut None: blocked (lines 3-5)
            calls += 1
            kept = state_cut[cur]
            required = state_required[cur]
            if kept is not None and required <= avail + _EPS:
                cut = list(kept)
                chunks = list(state_chunks[cur])
            elif mem_req[cur] > avail + _EPS:
                cut = None
            else:
                # execute the node itself (paper lines 10-11)
                cut = child_idx[child_ptr[cur] : child_ptr[cur + 1]]
                chunks = [cur]
                required = mem_req[cur]
                visited += 1
            total = 0.0
            if cut is not None:
                for j in cut:
                    total += f[j]
            candidates = ()
            k = 0
            merged = cut is not None
            # advance the running frame until it descends into an inner node
            while True:
                if k < len(candidates):
                    j = candidates[k]
                    k += 1
                    rest = total - f[j]
                    child_avail = avail - rest
                    if child_ptr[j] != child_ptr[j + 1]:
                        stack.append(
                            (cur, avail, cut, chunks, required, total,
                             candidates, k, merged, j, rest)
                        )
                        cur, avail = j, child_avail
                        break
                    # a leaf child: executed whole or blocked, no frame
                    calls += 1
                    leaf_req = mem_req[j]
                    if leaf_req > child_avail + _EPS:
                        peak_of[j] = leaf_req
                        continue
                    if state_cut[j] is None:
                        visited += 1
                        state_cut[j] = ()
                        state_chunks[j] = (j,)
                        state_required[j] = leaf_req
                    peak_of[j] = inf
                    cut.remove(j)
                    chunks.append(j)
                    total -= f[j]
                    req = rest + leaf_req
                    if req > required:
                        required = req
                    merged = True
                    continue
                if merged and cut:
                    # a new pass over the frontier (paper lines 12-18); a
                    # pass that merged nothing ended the frame
                    headroom = avail - total
                    candidates = [
                        j for j in cut if headroom + f[j] >= peak_of[j] - _EPS
                    ]
                    k = 0
                    merged = False
                    continue
                # the frame is done: its result, then back to the parent
                if cut is None:
                    resident, peak = inf, mem_req[cur]
                    sub_cut, sub_chunks, required = (), (), 0.0
                else:
                    resident = total
                    peak = inf
                    for j in cut:
                        cand = peak_of[j] + (resident - f[j])
                        if cand < peak:
                            peak = cand
                    sub_cut = cut
                    sub_chunks = tuple(chunks)
                    state_cut[cur] = cut
                    state_chunks[cur] = sub_chunks
                    state_required[cur] = required
                if not stack:
                    self.explore_calls += calls
                    self.nodes_visited += visited
                    return (resident, tuple(sub_cut), sub_chunks, peak, required)
                sub_required = required
                (cur, avail, cut, chunks, required, total,
                 candidates, k, merged, j, rest) = stack.pop()
                peak_of[j] = peak
                if resident <= f[j] + _EPS:
                    # merge the child's cut in place of the child (16-18)
                    idx = cut.index(j)
                    cut[idx : idx + 1] = sub_cut
                    chunks.append(sub_chunks)
                    total += resident - f[j]
                    req = rest + sub_required
                    if req > required:
                        required = req
                    merged = True


def kernel_min_mem(
    kern: TreeKernel, *, reuse_states: bool = True
) -> Tuple[float, List[int], int, int]:
    """The ``MinMem`` algorithm (paper Algorithm 4) on the kernel.

    Returns
    -------
    (memory, order, iterations, explore_calls)
        The optimal memory, an optimal top-down order (indices), the number
        of root sweeps and the total number of ``Explore`` invocations.
    """
    solver = KernelExploreSolver(kern, reuse_states=reuse_states)
    m_peak = max(kern.mem_req)
    m_avail = 0.0
    iterations = 0
    chunks: tuple = ()
    while m_peak != math.inf:
        m_avail = m_peak
        _, _, chunks, m_peak, _ = solver.explore(0, m_avail)
        iterations += 1
        if m_peak is not math.inf and m_peak <= m_avail:
            raise RuntimeError(
                "MinMem made no progress (floating-point stall); "
                f"memory={m_avail}, reported peak={m_peak}"
            )
    return m_avail, flatten_chunks(chunks), iterations, solver.explore_calls


# ----------------------------------------------------------------------
# replay: independent peak-memory / IO recomputation on index arrays
# ----------------------------------------------------------------------
def kernel_replay_traversal(
    kern: TreeKernel,
    order: Sequence[int],
    *,
    topdown: bool,
    partial: bool = False,
) -> Tuple[float, int, bool]:
    """Re-execute a traversal (given as indices) and recompute its peak.

    Enforces the same constraints as :func:`repro.bench.replay
    .replay_traversal`: no duplicates, precedence respected, completeness
    unless ``partial`` (top-down only).

    Returns
    -------
    (peak_memory, steps, complete)

    Raises
    ------
    ValueError
        On any violated constraint (callers re-wrap into ``ReplayError``).
    """
    p = kern.size
    f = kern.f
    n = kern.n
    parent = kern.parent
    cfs = kern.child_f_sum
    executed = [-1] * p
    for step, i in enumerate(order):
        if executed[i] != -1:
            raise ValueError(f"step {step}: node {kern.ids[i]!r} executed twice")
        executed[i] = step
    complete = len(order) == p
    if not complete and (not partial or not topdown):
        raise ValueError(
            f"order covers {len(order)} of {p} nodes; "
            "only top-down replays may be partial"
        )

    if topdown:
        if order and order[0] != 0:
            raise ValueError("top-down execution must start at the root")
        resident = f[0] if order else 0.0
        peak = resident
        for step, i in enumerate(order):
            par = parent[i]
            if par >= 0:
                par_step = executed[par]
                if par_step < 0 or par_step >= step:
                    raise ValueError(
                        f"step {step}: node {kern.ids[i]!r} executed "
                        "before its parent"
                    )
            during = resident + n[i] + cfs[i]
            if during > peak:
                peak = during
            resident += cfs[i] - f[i]
        return peak, len(order), complete

    # bottom-up: every child strictly before its parent, full permutation
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    resident = 0.0
    peak = 0.0
    for step, i in enumerate(order):
        for pos in range(child_ptr[i], child_ptr[i + 1]):
            if executed[child_idx[pos]] >= step:
                raise ValueError(
                    f"step {step}: node {kern.ids[i]!r} executed before "
                    f"child {kern.ids[child_idx[pos]]!r}"
                )
        during = resident + n[i] + f[i]
        if during > peak:
            peak = during
        resident += f[i] - cfs[i]
    return peak, len(order), True


def kernel_replay_schedule(
    kern: TreeKernel,
    order: Sequence[int],
    evictions: Dict[int, int],
    *,
    memory: Optional[float] = None,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> Tuple[float, float, int]:
    """Re-execute an out-of-core schedule given as indices.

    ``order`` must be a full top-down permutation; ``evictions`` maps node
    index to the step before which its file is written out.  Enforces every
    constraint of the paper's Algorithm 2 (production before eviction,
    eviction strictly before execution, no double writes, optional memory
    bound) and recomputes peak resident memory and I/O volume.

    Returns
    -------
    (peak_memory, io_volume, evictions_count)

    Raises
    ------
    ValueError
        On any violated constraint (callers re-wrap into ``ReplayError``).
    """
    p = kern.size
    f = kern.f
    n = kern.n
    cfs = kern.child_f_sum
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    if len(order) != p:
        raise ValueError("schedule order is not a permutation of the tree nodes")
    position = [-1] * p
    for step, i in enumerate(order):
        if position[i] != -1:
            raise ValueError("schedule order is not a permutation of the tree nodes")
        position[i] = step

    evict_at: Dict[int, List[int]] = {}
    for victim, step in evictions.items():
        if not 0 <= step < p:
            raise ValueError(
                f"eviction step {step} of {kern.ids[victim]!r} out of range"
            )
        if position[victim] <= step:
            raise ValueError(
                f"node {kern.ids[victim]!r} evicted at step {step} but "
                f"executes at step {position[victim]}; files must be "
                "evicted strictly before their owner runs"
            )
        evict_at.setdefault(step, []).append(victim)

    # resident state: 0 = absent, 1 = resident, 2 = on disk
    state = [0] * p
    state[0] = 1
    resident_size = f[0]
    peak = resident_size
    io_total = 0.0
    bound = None
    if memory is not None:
        bound = memory * (1.0 + rel_tol) + abs_tol

    for step, i in enumerate(order):
        victims = evict_at.get(step)
        if victims:
            for victim in victims:
                if state[victim] != 1:
                    raise ValueError(
                        f"step {step}: evicted file {kern.ids[victim]!r} is "
                        "not resident (not produced yet, or already written out)"
                    )
                state[victim] = 2
                resident_size -= f[victim]
                io_total += f[victim]
        if state[i] == 2:  # read the input file back from secondary memory
            state[i] = 1
            resident_size += f[i]
        if state[i] != 1:
            raise ValueError(
                f"step {step}: input file of {kern.ids[i]!r} is not "
                "resident; the parent has not executed"
            )
        step_peak = resident_size + n[i] + cfs[i]
        if bound is not None and step_peak > bound:
            raise ValueError(
                f"step {step}: executing {kern.ids[i]!r} needs "
                f"{step_peak:.6g} but the memory bound is {memory:.6g}"
            )
        if step_peak > peak:
            peak = step_peak
        state[i] = 0
        resident_size += cfs[i] - f[i]
        for pos in range(child_ptr[i], child_ptr[i + 1]):
            state[child_idx[pos]] = 1

    for i in range(p):
        if state[i] == 2:
            raise ValueError(
                f"files never read back: [{kern.ids[i]!r}]"
            )
    return peak, io_total, len(evictions)


# ----------------------------------------------------------------------
# MinIO: the eviction simulator with incremental resident accounting
# ----------------------------------------------------------------------
def kernel_out_of_core(
    kern: TreeKernel,
    memory: float,
    order: Sequence[int],
    selector,
    *,
    eps: float = 1e-12,
) -> Tuple[Dict[int, int], float, float]:
    """Out-of-core simulation of a top-down ``order`` (indices) on the kernel.

    The MinIO simulator behind :func:`repro.core.minio.run_out_of_core`:
    whenever the next node does not fit, the evictable resident
    files (latest-scheduled-first) are offered to ``selector``; any
    shortfall is topped up in LSNF order.  The resident size is maintained
    incrementally -- re-summing the resident set per step would be
    quadratic.

    Parameters
    ----------
    kern, memory, order:
        Instance, memory bound (``>= max MemReq``), full top-down order.
    selector:
        ``(candidates, io_req) -> victims`` over ``(original id, size)``
        pairs, exactly as the public heuristics expect.

    Returns
    -------
    (evictions, io_volume, peak_resident)
        Eviction step per evicted node *index*, total written volume, and
        the peak resident memory.
    """
    p = kern.size
    f = kern.f
    ids = kern.ids
    index = kern.index
    mem_req = kern.mem_req
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx

    position = [0] * p
    for step, i in enumerate(order):
        position[i] = step

    resident: Dict[int, float] = {0: f[0]}
    resident_size = f[0]
    on_disk = set()
    evictions: Dict[int, int] = {}
    io_total = 0.0
    peak_resident = resident_size

    for step, i in enumerate(order):
        # 1. read the input file back if it was unloaded
        if i in on_disk:
            on_disk.discard(i)
            resident[i] = f[i]
            resident_size += f[i]

        # 2. free memory if the node does not fit
        extra = mem_req[i] - f[i]
        io_req = extra - (memory - resident_size)
        if io_req > eps:
            # evictable files, latest-scheduled-first (the paper's set S),
            # exposed to the selector under their original identifiers
            cand_idx = sorted(
                (j for j in resident if j != i),
                key=lambda j: position[j],
                reverse=True,
            )
            candidates = [(ids[j], resident[j]) for j in cand_idx]
            freed = 0.0
            for victim_id in selector(candidates, io_req):
                j = index[victim_id]
                size = resident.pop(j)
                resident_size -= size
                freed += size
                on_disk.add(j)
                evictions[j] = step
                io_total += f[j]
            if freed + eps < io_req:
                # top up in LSNF order so execution always proceeds
                for j in cand_idx:
                    if freed >= io_req - eps:
                        break
                    if j not in resident:
                        continue
                    size = resident.pop(j)
                    resident_size -= size
                    freed += size
                    on_disk.add(j)
                    evictions[j] = step
                    io_total += f[j]
            if freed + eps < io_req:
                raise ValueError(
                    "infeasible eviction: not enough resident files to free"
                )

        # 3. execute the node
        during = resident_size + extra
        if during > peak_resident:
            peak_resident = during
        size = resident.pop(i, None)
        if size is not None:
            resident_size -= size
        for pos in range(child_ptr[i], child_ptr[i + 1]):
            c = child_idx[pos]
            resident[c] = f[c]
            resident_size += f[c]

    return evictions, io_total, peak_resident
