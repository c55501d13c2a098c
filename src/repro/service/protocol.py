"""Wire protocol of the solver service: requests, responses, tree interning.

Both front ends (HTTP/JSON and newline-delimited-JSON stdio) speak the same
documents:

Request::

    {
      "id": "req-1",                   # optional; generated when absent
      "tree": {"parents": [-1, 0, 0], "f": [0, 4, 3], "n": [1, 2, 1]},
      "algorithm": "minmem",           # any registered solver (default minmem)
      "memory": 12.5,                  # optional budget (budgeted solvers)
      "deadline": 0.5,                 # optional seconds, from acceptance
      "options": {"reuse_states": true}, # solver options (lenient dispatch)
      "report": "full"                 # "full" | "summary" | "none"
    }

The ``tree`` payload takes three forms: a parent-array document as above
(the compact form the generators and the kernel use), a stored-tree document
(:func:`repro.core.serialize.tree_to_dict` schema), or ``{"token": "..."}``
referencing a tree interned by an earlier request.  Interning is the
service-side analogue of the engine's scatter-once arena: the first request
carrying a payload builds the :class:`~repro.core.tree.Tree` (kernel
included) exactly once, every response echoes the payload's ``tree_token``,
and later requests -- or clients that compute the token themselves via
:func:`tree_payload_token`, it is a pure content digest -- send the token
instead of the arrays.  Because the daemon also keeps the interned tree
alive, the engine's :class:`~repro.solvers.engine.TreeArena` ships it to the
worker processes exactly once across the whole request stream.

Response::

    {
      "id": "req-1",
      "status": "ok",                  # or an error code, see service.errors
      "algorithm": "minmem",
      "tree_token": "t-1d9c51cbe0e04a35",
      "timing": {"queue_seconds": ..., "solve_seconds": ..., "total_seconds": ...},
      "report": {...}                  # SolveReport document ("ok" only)
      # error responses instead carry {"error": {"type", "code", "message", ...}}
    }
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.tree import Tree, TreeValidationError
from ..obs import SpanTimeline
from ..solvers.registry import UnknownSolverError, get_solver
from ..solvers.report import SolveReport, report_to_dict
from .errors import BadRequestError, ServiceError, UnknownTreeTokenError

__all__ = [
    "TreeInterner",
    "ServiceRequest",
    "ServiceResponse",
    "parse_request",
    "tree_payload_token",
    "error_response",
]

#: options reserved by the batch facade; a request smuggling one in would be
#: silently dropped by lenient dispatch, so reject it loudly instead
RESERVED_OPTIONS = ("pool",)

#: report verbosity levels a request may ask for
REPORT_MODES = ("full", "summary", "none")

_request_counter = itertools.count(1)


# ----------------------------------------------------------------------
# tree payloads
# ----------------------------------------------------------------------
def tree_payload_token(payload: Dict[str, Any]) -> str:
    """Content token of a tree payload (stable across processes and runs).

    Clients may compute this locally to switch to token form without a
    round trip: the token depends only on the payload document.
    """
    digest = hashlib.sha1(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return f"t-{digest[:16]}"


def _tree_from_payload(payload: Dict[str, Any]) -> Tree:
    """Build a :class:`Tree` from a parent-array or stored-tree document."""
    if "parents" in payload:
        parents = payload["parents"]
        if not isinstance(parents, list) or not parents:
            raise BadRequestError("tree.parents must be a non-empty list")
        f = payload.get("f")
        n = payload.get("n")
        for name, weights in (("f", f), ("n", n)):
            if weights is not None and len(weights) != len(parents):
                raise BadRequestError(
                    f"tree.{name} has {len(weights)} entries for "
                    f"{len(parents)} nodes"
                )
        try:
            first = parents[0]
            topological = (first is None or first == -1) and all(
                isinstance(p, int) and 0 <= p < i
                for i, p in enumerate(parents[1:], start=1)
            )
            if topological:
                # the fast path also caches the kernel, so the engine arena
                # can export the tree without a per-request rebuild
                return Tree.from_parents(parents, f=f, n=n, build_kernel=True)
            from ..core.builders import from_parent_list

            return from_parent_list(parents, f=f, n=n)
        except (TreeValidationError, ValueError, TypeError) as exc:
            raise BadRequestError(f"invalid tree payload: {exc}") from None
    if "nodes" in payload:
        from ..core.serialize import tree_from_dict

        try:
            return tree_from_dict(payload)
        except (TreeValidationError, KeyError, TypeError) as exc:
            raise BadRequestError(f"invalid tree document: {exc}") from None
    raise BadRequestError(
        "tree payload must carry 'parents', 'nodes' or 'token'"
    )


class TreeInterner:
    """Bounded LRU of trees keyed by payload content token.

    The intern step happens once per distinct payload: the tree (and its
    cached kernel) is built on first sight and every later request -- token
    form or full form -- reuses the same object.  Keeping the object alive
    here is what makes the engine arena's scatter-once effective: segment
    exports are keyed by kernel identity, so as long as the interner holds
    the tree, its flat arrays never cross to the workers twice.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("interner capacity must be >= 1")
        self.capacity = capacity
        self._trees: "OrderedDict[str, Tree]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._trees)

    def intern(self, payload: Dict[str, Any]) -> Tuple[str, Tree]:
        """Tree for ``payload`` (built once per distinct content token)."""
        token = tree_payload_token(payload)
        tree = self._trees.get(token)
        if tree is not None:
            self._trees.move_to_end(token)
            self.hits += 1
            return token, tree
        self.misses += 1
        tree = _tree_from_payload(payload)
        while len(self._trees) >= self.capacity:
            self._trees.popitem(last=False)
        self._trees[token] = tree
        return token, tree

    def lookup(self, token: str) -> Tree:
        """Resolve a token from an earlier intern; typed error when evicted."""
        tree = self._trees.get(token)
        if tree is None:
            raise UnknownTreeTokenError(
                f"unknown tree token {token!r} (evicted or never interned); "
                "re-send the full tree payload"
            )
        self._trees.move_to_end(token)
        self.hits += 1
        return tree


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass
class ServiceRequest:
    """One parsed, admitted-or-not solve request."""

    id: str
    tree: Tree
    tree_token: str
    algorithm: str
    memory: Optional[float] = None
    deadline: Optional[float] = None
    options: Dict[str, Any] = field(default_factory=dict)
    report_mode: str = "full"
    #: stamped by the daemon at admission (perf_counter seconds)
    accepted_at: float = 0.0
    #: per-request span timeline; created by :func:`parse_request` (or by
    #: the daemon at admission for hand-built requests)
    trace: Optional[SpanTimeline] = field(default=None, repr=False, compare=False)


def parse_request(
    doc: Dict[str, Any],
    interner: TreeInterner,
    *,
    default_deadline: Optional[float] = None,
    trace: Optional[SpanTimeline] = None,
) -> ServiceRequest:
    """Validate a request document into a :class:`ServiceRequest`.

    Every malformed field raises :class:`BadRequestError` (or the more
    specific :class:`UnknownTreeTokenError`) -- parsing happens *before*
    admission, so a bad request never occupies a queue slot.

    The request's span timeline starts here: field validation is recorded
    as ``parse`` (two disjoint stretches around the intern call, summed),
    tree construction/lookup as ``intern``.  Pass an existing ``trace`` to
    extend a timeline that began upstream (e.g. at socket accept).
    """
    if trace is None:
        trace = SpanTimeline()
    trace.begin("parse")
    if not isinstance(doc, dict):
        raise BadRequestError("request must be a JSON object")
    request_id = doc.get("id")
    if request_id is None:
        request_id = f"req-{next(_request_counter)}"
    elif not isinstance(request_id, str) or not request_id:
        raise BadRequestError("request id must be a non-empty string")

    payload = doc.get("tree")
    if not isinstance(payload, dict):
        raise BadRequestError("request must carry a 'tree' object")
    trace.end("parse")
    trace.begin("intern")
    if "token" in payload:
        token = payload["token"]
        if not isinstance(token, str):
            raise BadRequestError("tree.token must be a string")
        tree = interner.lookup(token)
    else:
        token, tree = interner.intern(payload)
    trace.end("intern")
    trace.begin("parse")

    algorithm = doc.get("algorithm", "minmem")
    try:
        algorithm = get_solver(algorithm).name
    except UnknownSolverError as exc:
        raise BadRequestError(str(exc)) from None

    memory = doc.get("memory")
    if memory is not None:
        try:
            memory = float(memory)
        except (TypeError, ValueError):
            raise BadRequestError("memory must be a number") from None

    deadline = doc.get("deadline", default_deadline)
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise BadRequestError("deadline must be a number (seconds)") from None
        if deadline <= 0:
            raise BadRequestError("deadline must be > 0 seconds")

    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise BadRequestError("options must be an object")
    reserved = sorted(set(options) & set(RESERVED_OPTIONS))
    if reserved:
        raise BadRequestError(
            f"option(s) {reserved} are reserved by the batch facade and "
            "have no effect on a service request"
        )

    report_mode = doc.get("report", "full")
    if report_mode not in REPORT_MODES:
        raise BadRequestError(
            f"report must be one of {REPORT_MODES}, not {report_mode!r}"
        )

    trace.end("parse")
    return ServiceRequest(
        id=request_id,
        tree=tree,
        tree_token=token,
        algorithm=algorithm,
        memory=memory,
        deadline=deadline,
        options=dict(options),
        report_mode=report_mode,
        trace=trace,
    )


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
@dataclass
class ServiceResponse:
    """Outcome of one request: a report or a typed error, plus timing.

    The timing breakdown separates where a request spent its life:
    ``queue_seconds`` from admission to dispatch, ``solve_seconds`` from
    dispatch to completion (service-side, IPC included -- the report's own
    ``wall_time`` is the in-worker stamp), ``total_seconds`` from admission
    to the response.  ``stages`` refines that further: the per-stage span
    durations (``parse``/``intern``/``queued``/``dispatch``/``solve``/
    ``report``) of the request's :class:`~repro.obs.SpanTimeline`, surfaced
    under ``timing.stages`` on the wire.

    ``extras`` carries execution metadata that is not part of the solver's
    answer -- today the degradation ladder: ``tier`` names where the solve
    actually ran (the engine backend, the service thread pool, or inline)
    and ``degraded`` flags requests that fell below the configured tier.
    Serialized as the top-level ``extras`` object when non-empty.
    """

    request_id: str
    status: str
    algorithm: Optional[str] = None
    tree_token: Optional[str] = None
    report: Optional[SolveReport] = None
    error: Optional[ServiceError] = None
    report_mode: str = "full"
    queue_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    stages: Optional[Dict[str, float]] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> "ServiceResponse":
        """Return self when ok; re-raise the typed error otherwise."""
        if self.error is not None:
            raise self.error
        if not self.ok:  # pragma: no cover - error always set on failure
            raise ServiceError(f"request {self.request_id} failed: {self.status}")
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The wire document (report verbosity per the request's ask)."""
        doc: Dict[str, Any] = {
            "id": self.request_id,
            "status": self.status,
            "timing": {
                "queue_seconds": self.queue_seconds,
                "solve_seconds": self.solve_seconds,
                "total_seconds": self.total_seconds,
            },
        }
        if self.stages is not None:
            doc["timing"]["stages"] = dict(self.stages)
        if self.algorithm is not None:
            doc["algorithm"] = self.algorithm
        if self.tree_token is not None:
            doc["tree_token"] = self.tree_token
        if self.report is not None and self.report_mode != "none":
            if self.report_mode == "summary":
                doc["report"] = {
                    "algorithm": self.report.algorithm,
                    "peak_memory": self.report.peak_memory,
                    "io_volume": self.report.io_volume,
                    "wall_time": self.report.wall_time,
                    "extras": dict(self.report.extras),
                }
            else:
                doc["report"] = report_to_dict(self.report)
        if self.error is not None:
            doc["error"] = self.error.to_dict()
        if self.extras:
            doc["extras"] = dict(self.extras)
        return doc


def error_response(
    request_id: Optional[str],
    error: ServiceError,
    *,
    tree_token: Optional[str] = None,
    algorithm: Optional[str] = None,
    queue_seconds: float = 0.0,
    solve_seconds: float = 0.0,
    total_seconds: float = 0.0,
) -> ServiceResponse:
    """A :class:`ServiceResponse` describing ``error`` (status = its code)."""
    return ServiceResponse(
        request_id=request_id or "unknown",
        status=error.code,
        algorithm=algorithm,
        tree_token=tree_token,
        error=error,
        queue_seconds=queue_seconds,
        solve_seconds=solve_seconds,
        total_seconds=total_seconds,
    )
