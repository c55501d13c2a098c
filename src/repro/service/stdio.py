"""NDJSON stdio front end: one JSON document per line, in and out.

This is the transport tests and CI use: no sockets, no ports, fully
deterministic to drive.  Each input line is either a solve request (the
:mod:`repro.service.protocol` schema) or a control document::

    {"op": "stats"}      -> {"op": "stats", "stats": {...}}
    {"op": "metrics"}    -> {"op": "metrics", "content_type": ..., "body": ...}
    {"op": "shutdown"}   -> stop reading (equivalent to EOF)

The ``metrics`` body is the same Prometheus text document ``GET /metrics``
serves on the HTTP front end, carried as one JSON string.

Requests run concurrently -- the reader never blocks on a solve -- and
responses are written as they complete, one JSON document per line, matched
to requests by ``id``.  EOF (or ``shutdown``) stops the reader; in-flight
requests still drain to a response line before :func:`serve_stdio` returns.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, Optional

from .daemon import SolverService
from .errors import BadRequestError
from .protocol import error_response

__all__ = ["serve_stdio", "run_stdio_server"]

ReadLine = Callable[[], Awaitable[Optional[str]]]
WriteLine = Callable[[str], Awaitable[None]]


async def serve_stdio(
    service: SolverService,
    read_line: ReadLine,
    write_line: WriteLine,
) -> Dict[str, Any]:
    """Serve NDJSON requests until EOF; returns the final stats snapshot.

    ``read_line`` yields one line per call (``None`` at EOF); ``write_line``
    emits one line.  Both are async callables, so tests can drive the front
    end with in-memory queues and the CLI can wrap real stdin/stdout.
    """
    write_lock = asyncio.Lock()
    tasks: set = set()

    async def emit(doc: Dict[str, Any]) -> None:
        text = json.dumps(doc, separators=(",", ":"))
        async with write_lock:  # response lines must never interleave
            await write_line(text)

    async def run_one(doc: Dict[str, Any]) -> None:
        response = await service.handle(doc)
        await emit(response.to_dict())

    while True:
        line = await read_line()
        if line is None:
            break
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            service.stats.bad_requests += 1
            await emit(
                error_response(
                    None, BadRequestError(f"invalid JSON line: {exc}")
                ).to_dict()
            )
            continue
        op = doc.get("op") if isinstance(doc, dict) else None
        if op == "stats":
            await emit({"op": "stats", "stats": service.snapshot()})
            continue
        if op == "metrics":
            from ..obs import PROMETHEUS_CONTENT_TYPE

            await emit({
                "op": "metrics",
                "content_type": PROMETHEUS_CONTENT_TYPE,
                "body": service.render_metrics(),
            })
            continue
        if op == "shutdown":
            break
        task = asyncio.ensure_future(run_one(doc))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    if tasks:
        await asyncio.gather(*tasks)
    return service.snapshot()


async def run_stdio_server(service: SolverService) -> Dict[str, Any]:
    """Wire :func:`serve_stdio` to the real stdin/stdout of the process.

    Reading happens on the default thread executor so a quiet stdin never
    blocks the event loop (and the daemon keeps solving while waiting).  The
    reader owns a private duplicate of stdin's file descriptor, split into
    lines exactly as ``sys.stdin`` is, rather than ``sys.stdin`` itself: a
    process pool that forks while the reader blocks would otherwise copy
    ``sys.stdin``'s held lock, and every forked worker would deadlock when
    multiprocessing's bootstrap closes ``sys.stdin``.
    """
    import os
    import sys

    loop = asyncio.get_running_loop()
    stdin = open(os.dup(sys.stdin.fileno()), encoding="utf-8", newline="\n")

    def _read_blocking() -> Optional[str]:
        line = stdin.readline()
        return line if line else None

    async def read_line() -> Optional[str]:
        return await loop.run_in_executor(None, _read_blocking)

    def _write_blocking(text: str) -> None:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    async def write_line(text: str) -> None:
        await loop.run_in_executor(None, _write_blocking, text)

    return await serve_stdio(service, read_line, write_line)
