"""Oracle: schedule replay written against the :class:`Tree` accessors only.

Checks :func:`repro.bench.replay.replay_traversal` and
:func:`repro.bench.replay.replay_schedule`, which replay on the flat index
arrays of :mod:`repro.core.kernel`.  Both enforce the same constraints and
return the same :class:`~repro.bench.replay.ReplayResult`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.bench.replay import _ABS_TOL, _REL_TOL, ReplayError, ReplayResult
from repro.core.traversal import BOTTOMUP, TOPDOWN, OutOfCoreSchedule, Traversal
from repro.core.tree import Tree

NodeId = Hashable


def replay_traversal(
    tree: Tree, traversal: Traversal, *, partial: bool = False
) -> ReplayResult:
    """Re-execute an in-core traversal (a top-down prefix when ``partial``)."""
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    order = tuple(traversal.order)
    executed: Dict[NodeId, int] = {}
    for step, node in enumerate(order):
        if node not in tree:
            raise ReplayError(f"step {step}: node {node!r} is not in the tree")
        if node in executed:
            raise ReplayError(f"step {step}: node {node!r} executed twice")
        executed[node] = step
    complete = len(order) == tree.size
    if not complete and (not partial or traversal.convention != TOPDOWN):
        raise ReplayError(
            f"order covers {len(order)} of {tree.size} nodes; "
            "only top-down replays may be partial"
        )

    if traversal.convention == TOPDOWN:
        if order and order[0] != tree.root:
            raise ReplayError("top-down execution must start at the root")
        resident = tree.f(tree.root) if order else 0.0
        peak = resident
        for step, node in enumerate(order):
            parent = tree.parent(node)
            if parent is not None and executed.get(parent, step) >= step:
                raise ReplayError(
                    f"step {step}: node {node!r} executed before its parent"
                )
            children_size = sum(tree.f(c) for c in tree.children(node))
            peak = max(peak, resident + tree.n(node) + children_size)
            resident += children_size - tree.f(node)
        return ReplayResult(
            peak_memory=peak,
            steps=len(order),
            complete=complete,
        )

    # bottom-up: every child strictly before its parent, full permutation
    resident = 0.0
    peak = 0.0
    for step, node in enumerate(order):
        for child in tree.children(node):
            if executed[child] >= step:
                raise ReplayError(
                    f"step {step}: node {node!r} executed before child {child!r}"
                )
        children_size = sum(tree.f(c) for c in tree.children(node))
        peak = max(peak, resident + tree.n(node) + tree.f(node))
        resident += tree.f(node) - children_size
    return ReplayResult(peak_memory=peak, steps=len(order), complete=True)


def replay_schedule(
    tree: Tree, schedule: OutOfCoreSchedule, *, memory: Optional[float] = None
) -> ReplayResult:
    """Re-execute an out-of-core schedule, recomputing peak and I/O volume."""
    traversal = schedule.traversal
    if traversal.convention == BOTTOMUP:
        traversal = traversal.reversed()
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    order = tuple(traversal.order)
    if len(order) != tree.size or set(order) != set(tree.nodes()):
        raise ReplayError("schedule order is not a permutation of the tree nodes")
    position = {node: step for step, node in enumerate(order)}

    evict_at: Dict[int, list] = {}
    for victim, step in schedule.evictions.items():
        if victim not in tree:
            raise ReplayError(f"eviction of unknown node {victim!r}")
        if not 0 <= step < len(order):
            raise ReplayError(f"eviction step {step} of {victim!r} out of range")
        if position[victim] <= step:
            raise ReplayError(
                f"node {victim!r} evicted at step {step} but executes at "
                f"step {position[victim]}; files must be evicted strictly "
                "before their owner runs"
            )
        evict_at.setdefault(step, []).append(victim)

    resident: Dict[NodeId, float] = {tree.root: tree.f(tree.root)}
    resident_size = tree.f(tree.root)
    on_disk = set()
    peak = resident_size
    io_total = 0.0

    for step, node in enumerate(order):
        for victim in evict_at.get(step, ()):  # evictions happen before step
            if victim not in resident:
                raise ReplayError(
                    f"step {step}: evicted file {victim!r} is not resident "
                    "(not produced yet, or already written out)"
                )
            resident_size -= resident.pop(victim)
            on_disk.add(victim)
            io_total += tree.f(victim)
        if node in on_disk:  # read the input file back from secondary memory
            on_disk.discard(node)
            resident[node] = tree.f(node)
            resident_size += tree.f(node)
        if node not in resident:
            raise ReplayError(
                f"step {step}: input file of {node!r} is not resident; "
                "the parent has not executed"
            )
        children_size = sum(tree.f(c) for c in tree.children(node))
        step_peak = resident_size + tree.n(node) + children_size
        if memory is not None and step_peak > memory * (1.0 + _REL_TOL) + _ABS_TOL:
            raise ReplayError(
                f"step {step}: executing {node!r} needs {step_peak:.6g} "
                f"but the memory bound is {memory:.6g}"
            )
        peak = max(peak, step_peak)
        resident_size -= resident.pop(node)
        for child in tree.children(node):
            resident[child] = tree.f(child)
            resident_size += tree.f(child)

    if on_disk:
        raise ReplayError(f"files never read back: {sorted(map(repr, on_disk))}")
    return ReplayResult(
        peak_memory=peak,
        io_volume=io_total,
        steps=len(order),
        evictions=len(schedule.evictions),
        complete=True,
    )
