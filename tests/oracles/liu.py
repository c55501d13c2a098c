"""Oracle: Liu's exact hill--valley algorithm, one node at a time (Liu, 1987).

Checks :func:`repro.core.liu.liu_optimal_traversal`, which runs the
array-backed segment merge of :func:`repro.core.kernel.kernel_liu`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.liu import LiuResult, Segment, flatten_nodes
from repro.core.traversal import BOTTOMUP, Traversal
from repro.core.tree import Tree

NodeId = Hashable


def liu_optimal_traversal(tree: Tree) -> LiuResult:
    """Optimal memory, an optimal traversal and the root's segments."""
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    segments_of: Dict[NodeId, List[Segment]] = {}
    subtree_peak: Dict[NodeId, float] = {}

    for node in tree.bottom_up_order():
        children = tree.children(node)
        events: List[Tuple[float, float, tuple]] = []

        if children:
            # Convert every child's canonical (absolute) segments into
            # relative increments and merge them in decreasing (hill - valley)
            # order, preserving per-child order for equal keys.
            keyed: List[Tuple[float, int, int, float, float, tuple]] = []
            for child_idx, child in enumerate(children):
                prev_valley = 0.0
                for seg_idx, seg in enumerate(segments_of[child]):
                    rel_hill = seg.hill - prev_valley
                    rel_valley = seg.valley - prev_valley
                    keyed.append(
                        (
                            -(seg.hill - seg.valley),
                            child_idx,
                            seg_idx,
                            rel_hill,
                            rel_valley,
                            seg.nodes,
                        )
                    )
                    prev_valley = seg.valley
                # children segment lists are no longer needed once merged
                del segments_of[child]
            keyed.sort(key=lambda item: (item[0], item[1], item[2]))

            base = 0.0
            for _, _, _, rel_hill, rel_valley, nodes in keyed:
                events.append((base + rel_hill, base + rel_valley, nodes))
                base += rel_valley
        else:
            base = 0.0

        # The node itself: children files resident, allocate n_i + f_i,
        # release the children files, keep f_i.
        own_peak = base + tree.n(node) + tree.f(node)
        events.append((own_peak, tree.f(node), (node,)))

        segments_of[node] = _canonical_segments(events)
        subtree_peak[node] = max(seg.hill for seg in segments_of[node])

    root_segments = tuple(segments_of[tree.root])
    order: List[NodeId] = []
    for seg in root_segments:
        order.extend(flatten_nodes(seg.nodes))
    traversal = Traversal(tuple(order), BOTTOMUP)
    return LiuResult(
        memory=subtree_peak[tree.root],
        traversal=traversal,
        segments=root_segments,
        subtree_peak=subtree_peak,
    )


def _canonical_segments(events: List[Tuple[float, float, tuple]]) -> List[Segment]:
    """Cut an event profile into its canonical hill--valley representation.

    ``events`` is a list of ``(peak_during, level_after, nodes)`` triples in
    execution order.  Each segment starts where the previous one ended, peaks
    at the maximum remaining peak and is cut at the *last* position achieving
    the minimum residual level reached at or after that peak.  This yields
    non-increasing hills and non-decreasing valleys, and packs runs of events
    with identical residual levels into a single segment (interrupting such a
    run cannot help a parent, since the memory level at the intermediate cut
    points equals the level at the end of the run).

    The construction is a single backward sweep plus a single forward sweep,
    i.e. linear in the number of events.
    """
    n_events = len(events)
    if n_events == 0:
        return []
    # suffix maxima of the peaks (with first position achieving them) and
    # suffix minima of the residual levels (with last position achieving them)
    first_max = [0] * n_events
    last_min = [0] * n_events
    suffix_max = [0.0] * n_events
    suffix_min = [0.0] * n_events
    suffix_max[-1] = events[-1][0]
    suffix_min[-1] = events[-1][1]
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

    segments: List[Segment] = []
    start = 0
    while start < n_events:
        hill_pos = first_max[start]
        valley_pos = last_min[hill_pos]
        chunk = tuple(events[t][2] for t in range(start, valley_pos + 1))
        segments.append(
            Segment(hill=suffix_max[start], valley=events[valley_pos][1], nodes=chunk)
        )
        start = valley_pos + 1
    return segments
