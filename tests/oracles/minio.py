"""Oracle: the dict-based MinIO out-of-core simulator.

Checks :func:`repro.core.minio.run_out_of_core`, which runs the array-backed
:func:`repro.core.kernel.kernel_out_of_core`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple, Union

from repro.core.minio.heuristics import Selector, get_heuristic
from repro.core.minio.scheduler import OutOfCoreResult
from repro.core.traversal import (
    TOPDOWN,
    OutOfCoreSchedule,
    Traversal,
    TraversalError,
    is_topological,
)
from repro.core.tree import Tree

NodeId = Hashable

_EPS = 1e-12


def run_out_of_core(
    tree: Tree,
    memory: float,
    traversal: Traversal,
    heuristic: Union[str, Selector] = "first_fit",
) -> OutOfCoreResult:
    """Replay ``traversal`` under ``memory``, evicting files with ``heuristic``."""
    selector = get_heuristic(heuristic) if isinstance(heuristic, str) else heuristic
    traversal = traversal.as_convention(TOPDOWN)

    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    if not is_topological(tree, traversal):
        raise TraversalError("traversal violates precedence constraints")
    if memory < tree.max_mem_req() - _EPS:
        raise ValueError(
            f"memory {memory} is below the largest node requirement "
            f"{tree.max_mem_req()}; no execution exists"
        )

    pos = traversal.position()
    resident: Dict[NodeId, float] = {tree.root: tree.f(tree.root)}
    on_disk: set = set()
    evictions: Dict[NodeId, int] = {}
    io_total = 0.0
    peak_resident = tree.f(tree.root)

    for step, node in enumerate(traversal.order):
        # 1. read the input file back if it was unloaded
        if node in on_disk:
            on_disk.discard(node)
            resident[node] = tree.f(node)

        # 2. determine how much must be freed to execute the node
        extra = tree.mem_req(node) - tree.f(node)
        m_avail = memory - sum(resident.values())
        io_req = extra - m_avail
        if io_req > _EPS:
            candidates = _candidates(tree, resident, pos, node)
            victims = selector(candidates, io_req)
            freed = 0.0
            for victim in victims:
                freed += resident.pop(victim)
                on_disk.add(victim)
                evictions[victim] = step
                io_total += tree.f(victim)
            if freed + _EPS < io_req:
                # The heuristic did not free enough; finish with LSNF order so
                # the execution always proceeds (possible since M >= MemReq).
                for victim, size in _candidates(tree, resident, pos, node):
                    if freed >= io_req - _EPS:
                        break
                    freed += resident.pop(victim)
                    on_disk.add(victim)
                    evictions[victim] = step
                    io_total += size
            if freed + _EPS < io_req:
                raise ValueError(
                    "infeasible eviction: not enough resident files to free"
                )

        # 3. execute the node
        peak_resident = max(
            peak_resident, sum(resident.values()) + extra
        )
        resident.pop(node, None)
        for child in tree.children(node):
            resident[child] = tree.f(child)

    schedule = OutOfCoreSchedule(traversal=traversal, evictions=evictions)
    return OutOfCoreResult(
        schedule=schedule,
        io_volume=io_total,
        io_operations=len(evictions),
        peak_resident=peak_resident,
    )


def _candidates(
    tree: Tree,
    resident: Dict[NodeId, float],
    pos: Dict[NodeId, int],
    current: NodeId,
) -> List[Tuple[NodeId, float]]:
    """Evictable files ordered latest-scheduled-first (the paper's set ``S``)."""
    nodes = [v for v in resident if v != current]
    nodes.sort(key=lambda v: pos[v], reverse=True)
    return [(v, resident[v]) for v in nodes]
