"""The daemon workloads: ``service_warm`` and ``service_cold``.

The daemon runs in a child process (``python -m repro.cli serve --stdio``)
and is driven over its NDJSON stdin/stdout by this process alone: one
writer, one reader thread, and at most ``nproc`` closed-loop client threads
sharing the pipe.  This process runs on one CPU and the daemon on the
others (:func:`harness.split_cpus`).  A run has four phases:

1. warm-up (untimed): every (tree, algorithm) pair of the mix once, each
   tree in full on first sight and by its interner token afterwards;
2. open loop: Poisson arrivals at :data:`spec.OPEN_LOOP_RATE`; latency is
   timed from each request's *due* time, so a stall also charges the
   requests queued behind it, and the generator's own lateness is reported;
3. closed loop: ``nproc`` clients, each sending its next request when the
   previous answer arrives;
   phases 2 and 3 alternate in :data:`spec.ROUNDS` rounds, and before each
   stretch the speed of the daemon's CPU is probed while the daemon is idle
   (:class:`harness.SpeedProbe`), to normalise that stretch's timings;
4. rate ladder: short open-loop steps at rising shares of the closed-loop
   rate; ``sustained_rps`` is the highest step whose tail stays under
   :data:`spec.SUSTAINED_TAIL_LIMIT_MS` with no backlog left when it ends.

The end-to-end figures are the ones that repeat on a shared machine: the
daemon-side latency of open-loop requests (the sum of the ``timing.stages``
each response carries) and the closed loop's responses per second of the
daemon's CPU time.  The stages start after the stdio front end has decoded
the request line and stop before the response is encoded and written, so
that latency leaves out JSON decode and encode and the stdio thread hops;
their CPU cost still counts in the daemon's CPU time.  The client-side
views -- latency from the due time, wall-clock responses per second, and
``service.wire_ms`` -- are per-layer metrics.

``service_warm`` sends trees by token after the warm-up, so interning is
all hits.  ``service_cold`` sends every request a tree never sent before,
in full (:class:`ColdStream`), so interning misses and evicts throughout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import inputs, spec
from .harness import (
    Context, Result, SpeedProbe, cpu_seconds, end_group, peak_rss_mb, split_cpus,
)
from .stats import Tally, median, summarize, tail, tail_level, window_tail
from .tracer import Tracer

class Request:
    """One request line and what became of it."""

    __slots__ = ("rid", "line", "nodes", "expect", "due", "sent", "recv", "status",
                 "peak", "stages", "token", "bytes_in", "event", "traced", "speed")

    def __init__(self, rid: str, line: bytes, nodes: int, expect: float) -> None:
        self.rid, self.line, self.nodes, self.expect = rid, line, nodes, expect
        self.due = self.sent = self.recv = 0.0
        self.status: Optional[str] = None
        self.peak: Optional[float] = None
        self.stages: Dict[str, float] = {}
        self.token: Optional[str] = None
        self.bytes_in = 0
        self.event: Optional[threading.Event] = None
        self.traced = False
        self.speed = 1.0  # SpeedProbe factor of its window or slice


class Daemon:
    """``repro serve --stdio`` in a child process, with a response reader.

    The workloads pass ``pool="threads"``: on the default backend
    (``persistent``, a process pool) a daemon whose first request arrives
    alone never answers, because the pool forks its workers while the stdio
    reader thread, back in ``readline``, holds the stdin lock, and each
    forked worker deadlocks closing stdin.  A run whose every request fails
    cannot be compared with anything, so the default backend is measured
    by :func:`probe_default_backend` instead.
    The daemon gets a session of its own, so :meth:`kill` reaches its workers.
    """

    def __init__(self, ctx: Context, log, cpus: Optional[Set[int]] = None,
                 pool: Optional[str] = "threads") -> None:
        self.cmd = [sys.executable, "-m", "repro.cli", "serve", "--stdio",
                    "--workers", str(ctx.nproc)] + (["--pool", pool] if pool else [])
        self.proc = subprocess.Popen(
            self.cmd, cwd=ctx.root, env=ctx.child_env(), start_new_session=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
        )
        if cpus:
            # threads the daemon starts later inherit its main thread's CPUs
            os.sched_setaffinity(self.proc.pid, cpus)
        self._write_lock = threading.Lock()
        self._inflight: Dict[str, Request] = {}
        self._stats: List[dict] = []
        self._stats_ready = threading.Event()
        self.tracer: Optional[Tracer] = None
        self._reader = threading.Thread(target=self._read, name="perfbench-reader", daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            recv = perf_counter()
            doc = json.loads(line)
            if "op" in doc:
                self._stats.append(doc)
                self._stats_ready.set()
                continue
            req = self._inflight.pop(doc.get("id"), None)
            if req is None:
                continue
            req.recv, req.bytes_in = recv, len(line)
            req.status = doc.get("status")
            req.token = doc.get("tree_token")
            req.stages = (doc.get("timing") or {}).get("stages") or {}
            report = doc.get("report")
            if report is not None:
                req.peak = report.get("peak_memory")
            if req.traced and self.tracer is not None:
                _trace_request(self.tracer, req)
            if req.event is not None:
                req.event.set()

    def submit(self, req: Request) -> None:
        self._inflight[req.rid] = req
        with self._write_lock:
            req.sent = perf_counter()
            self.proc.stdin.write(req.line)
            self.proc.stdin.flush()

    def wait_idle(self, deadline: float) -> None:
        while self._inflight and perf_counter() < deadline:
            sleep(0.002)

    def stats(self) -> dict:
        self._stats_ready.clear()
        with self._write_lock:
            self.proc.stdin.write(b'{"op":"stats"}\n')
            self.proc.stdin.flush()
        if not self._stats_ready.wait(30):
            raise RuntimeError("daemon did not answer the stats request")
        return self._stats[-1]["stats"]

    def close(self) -> None:
        try:
            with self._write_lock:
                self.proc.stdin.write(b'{"op":"shutdown"}\n')
                self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        end_group(self.proc.pid)
        self._reader.join(timeout=10)

    def kill(self) -> None:
        """Kill the daemon and every process it started; wait for them all."""
        end_group(self.proc.pid)
        self.proc.wait()
        try:
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        self._reader.join(timeout=10)


def _trace_request(tracer: Tracer, req: Request) -> None:
    op = tracer.root("request", req.sent, req.recv)
    tracer.stages(op, op, req.sent, req.stages)
    served = sum(req.stages.values())
    tracer.add(op, op, "wire", req.sent + served, req.recv)


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
class Stream:
    """Thread-safe source of the next request."""

    def __init__(self, prefix: str) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._prefix = prefix

    def next(self) -> Request:
        with self._lock:
            i = self._count
            self._count += 1
        return self.make(f"{self._prefix}{i}", i)

    def make(self, rid: str, i: int) -> Request:  # pragma: no cover - abstract
        raise NotImplementedError


def _line(rid: str, tree_doc: str, algo: str) -> bytes:
    return f'{{"id":"{rid}","tree":{tree_doc},"algorithm":"{algo}"}}\n'.encode()


class WarmStream(Stream):
    """Mix trees by interner token, in a seeded random order."""

    def __init__(self, prefix: str, trees, tokens, refs, seed) -> None:
        super().__init__(prefix)
        self.pairs = [(i, a) for i in range(len(trees)) for a in spec.SERVICE_ALGORITHMS]
        self.order = np.random.default_rng(seed).permutation(len(self.pairs))
        self.trees, self.tokens, self.refs = trees, tokens, refs

    def make(self, rid: str, i: int) -> Request:
        t, algo = self.pairs[self.order[i % len(self.order)]]
        doc = '{"token":"%s"}' % self.tokens[t]
        return Request(rid, _line(rid, doc, algo), self.trees[t].size, self.refs[(t, algo)])


class ColdStream(Stream):
    """A tree never sent before per request, in full.

    Request ``i`` carries the ``i % P``-th of its ``P`` pool trees with every
    weight scaled by ``2**k``, ``k = (i // P) % COLD_SCALES``: a new content
    token each time for the first ``P * COLD_SCALES`` requests, while every
    peak scales by exactly ``2**k``.  Each pool tree keeps one algorithm, so
    one in-process reference solve per pool tree checks all its variants.
    """

    def __init__(self, prefix: str, pool, refs, indices: range) -> None:
        super().__init__(prefix)
        self.pool, self.refs, self.indices = pool, refs, indices

    def make(self, rid: str, i: int) -> Request:
        count = len(self.indices)
        t = self.indices[i % count]
        scale = 2.0 ** ((i // count) % spec.COLD_SCALES)
        algo = spec.SERVICE_ALGORITHMS[t % len(spec.SERVICE_ALGORITHMS)]
        doc = json.dumps(self.pool[t].payload(scale=scale), separators=(",", ":"))
        return Request(rid, _line(rid, doc, algo), self.pool[t].size,
                       self.refs[(t, algo)] * scale)


# ----------------------------------------------------------------------
# load generators
# ----------------------------------------------------------------------
def open_loop(daemon: Daemon, stream: Stream, rate: float, duration: float,
              rng: np.random.Generator, traced: bool = False) -> List[Request]:
    """Poisson arrivals at ``rate`` for ``duration`` seconds; waits for answers."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    reqs: List[Request] = []
    start = perf_counter() + 0.01
    for i, offset in enumerate(offsets):
        req = stream.next()           # build the line before its due time
        req.due = start + float(offset)
        req.traced = traced and i % 2 == 1
        wait = req.due - perf_counter()
        if wait > 0:
            sleep(wait)
        daemon.submit(req)
        reqs.append(req)
    daemon.wait_idle(perf_counter() + spec.SERVICE_OP_LIMIT_S)
    return reqs


def closed_loop(daemon: Daemon, stream: Stream, clients: int, duration: float,
                count: Optional[int] = None) -> Tuple[List[Request], float]:
    """``clients`` callers, each waiting for its answer before sending again.

    Runs for ``duration`` seconds, or until ``count`` requests were sent.
    Returns the requests and the phase's elapsed time.
    """
    done: List[Request] = []
    lock = threading.Lock()
    start = perf_counter()
    stop_at = start + duration
    sent = [0]

    def client() -> None:
        while perf_counter() < stop_at:
            with lock:
                if count is not None and sent[0] >= count:
                    return
                sent[0] += 1
            req = stream.next()
            req.event = threading.Event()
            daemon.submit(req)
            req.due = req.sent
            req.event.wait(spec.SERVICE_OP_LIMIT_S)
            with lock:
                done.append(req)
            if req.recv == 0.0:
                return

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    end = max((r.recv for r in done), default=perf_counter())
    return done, end - start


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _references(trees, tally: Tally, one_algorithm: bool = False):
    """In-process peaks of every (tree, algorithm), replay-checked.

    With ``one_algorithm``, tree ``i`` only gets the algorithm
    :class:`ColdStream` pairs it with.  Returns the peaks by
    ``(tree index, algorithm)`` and the seconds spent replaying.
    """
    import repro
    from repro.bench.replay import ReplayError, replay_report

    algos = spec.SERVICE_ALGORITHMS
    refs, checking = {}, 0.0
    for i, t in enumerate(trees):
        tree = repro.from_parent_list(t.parents, t.f, t.n)
        for algo in (algos[i % len(algos)],) if one_algorithm else algos:
            report = repro.solve(tree, algo)
            c0 = perf_counter()
            try:
                replay_report(tree, report)
            except ReplayError as exc:
                tally.fail("reference replay", f"{t.name}/{algo}: {exc}")
            checking += perf_counter() - c0
            refs[(i, algo)] = report.peak_memory
    return refs, checking


def _check(reqs: List[Request], tally: Tally) -> None:
    for req in reqs:
        if req.recv == 0.0:
            tally.fail("no answer", req.rid)
        elif req.status != "ok":
            tally.fail(req.status or "error", req.rid)
        elif req.recv - req.due > spec.SERVICE_OP_LIMIT_S:
            tally.fail("time limit", req.rid)
        else:
            tally.check(req.peak == req.expect, "wrong peak",
                        f"{req.rid}: {req.peak} != {req.expect}")


def _start(ctx: Context, log, cpus: Optional[Set[int]]) -> Tuple[Daemon, float]:
    """Launch a daemon and time it up to its first answered request."""
    start = perf_counter()
    daemon = Daemon(ctx, log, cpus)
    probe = Request("setup", _line("setup", '{"parents":[-1,0,0],"f":[0,4,3],"n":[1,2,1]}',
                                   "liu"), 3, 0.0)
    probe.event = threading.Event()
    daemon.submit(probe)
    if not probe.event.wait(60) or probe.status != "ok":
        daemon.close()
        raise RuntimeError(f"daemon set-up failed (status {probe.status})")
    return daemon, perf_counter() - start


def probe_default_backend(ctx: Context, log, trees, refs) -> float:
    """Share of probe requests a daemon on its default backend answers right.

    Starts ``repro serve --stdio --workers nproc`` with no ``--pool`` and
    sends it :data:`spec.DEFAULT_PROBE_REQUESTS` mix trees in full, one at a
    time as the workloads' set-up does, waiting at most
    :data:`spec.DEFAULT_PROBE_LIMIT_S` in all for the answers; then kills
    the daemon and its workers.  It stays 0 while that backend hangs.
    """
    algo = spec.SERVICE_ALGORITHMS[0]
    reqs = [_full_request(f"d{i}", t, algo, refs[(i, algo)])
            for i, t in enumerate(trees[:spec.DEFAULT_PROBE_REQUESTS])]
    daemon = Daemon(ctx, log, pool=None)
    try:
        deadline = perf_counter() + spec.DEFAULT_PROBE_LIMIT_S
        for req in reqs:
            req.event = threading.Event()
            daemon.submit(req)
            if not req.event.wait(max(0.0, deadline - perf_counter())):
                break
    finally:
        daemon.kill()
    return sum(1 for r in reqs if r.status == "ok" and r.peak == r.expect) / len(reqs)


def run_service(ctx: Context, *, cold: bool) -> Result:
    trees = inputs.service_mix(ctx.seed, ctx.sizes["service_trees"])
    tally = Tally()
    refs, checking = _references(trees, tally)
    pool, pool_refs = [], {}
    if cold:
        pool = inputs.service_mix(ctx.seed, ctx.sizes["cold_pool"], stream=1)
        pool_refs, pool_checking = _references(pool, tally, one_algorithm=True)
        checking += pool_checking
    rng = np.random.default_rng([ctx.seed, 6])
    os.makedirs(ctx.out_dir, exist_ok=True)
    log_path = os.path.join(ctx.out_dir, f"daemon-{'cold' if cold else 'warm'}.log")

    # the load generator (this process) on one CPU, the daemon on the others
    cpus = split_cpus()
    previous = os.sched_getaffinity(0)
    with open(log_path, "w") as log:
        if cpus:
            os.sched_setaffinity(0, cpus[0])
        setups = []
        daemon = None
        setup_probe = SpeedProbe()
        try:
            for _ in range(ctx.setup_repeats):
                if daemon is not None:
                    daemon.close()
                speed = _speed(setup_probe, cpus and cpus[1])
                daemon, took = _start(ctx, log, cpus and cpus[1])
                setups.append(took * speed)
            tracer = Tracer() if ctx.trace else None
            daemon.tracer = tracer
            phases = _phases(ctx, daemon, trees, refs, rng, pool, pool_refs, cpus and cpus[1])
            stats = daemon.stats()
            rss = peak_rss_mb(daemon.proc.pid)
        finally:
            if daemon is not None:
                daemon.close()
            os.sched_setaffinity(0, previous)
        # the default backend, in traced runs only: it costs up to its time limit
        default_answered = probe_default_backend(ctx, log, trees, refs) if ctx.trace else None

    warm_reqs, windows, slices, ladder, probe = phases
    open_reqs = [r for w in windows for r in w]
    closed_reqs = [r for reqs, _, _ in slices for r in reqs]
    c0 = perf_counter()
    for reqs in (warm_reqs, open_reqs, closed_reqs):
        _check(reqs, tally)
    for step in ladder:  # ladder overload only fails the step, a wrong answer fails the run
        _check([r for r in step["reqs"] if r.status == "ok"], tally)
    checking += perf_counter() - c0

    ok_open = [r for r in open_reqs if r.status == "ok"]
    ok_closed = [r for r in closed_reqs if r.status == "ok"]
    window_latencies = [[(r.recv - r.due) * r.speed * 1e3 for r in w if r.status == "ok"]
                        for w in windows]
    # the daemon's CPU time in each closed-loop slice, normalised to the
    # reference speed: its capacity on one core, whatever the clients' core is
    # doing; the median over slices, so one slice's bad probe does not count
    # (a slice too short to register a CPU clock tick is left out)
    capacity = [([r for r in reqs if r.status == "ok"], cpu * reqs[0].speed)
                for reqs, _, cpu in slices if reqs and cpu > 0]
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": median([len(ok) / cpu for ok, cpu in capacity]),
        "nodes_per_s": median([sum(r.nodes for r in ok) / cpu for ok, cpu in capacity]),
        "op_p50_ms": median([sum(r.stages.values()) * r.speed * 1e3 for r in ok_open]),
        "peak_rss_mb": rss,
        "peak_sum": sum(r.peak for r in warm_reqs if r.peak is not None),
    }
    layers = {m.name: 0.0 for m in spec.PER_LAYER}
    layers["op_tail_ms"] = window_tail(window_latencies)
    layers["service.open_loop_p50_ms"] = median([x for w in window_latencies for x in w])
    layers["service.closed_loop_rps"] = median(
        [sum(1 for r in reqs if r.status == "ok") / took for reqs, took, _ in slices])
    served = ok_open + ok_closed
    for stage, name in (("parse", "service.protocol.parse_ms"),
                        ("intern", "service.protocol.intern_ms"),
                        ("queued", "service.daemon.queued_ms"),
                        ("dispatch", "solvers.engine.dispatch_ms"),
                        ("solve", "service.solve_ms"),
                        ("report", "service.report_ms")):
        s = summarize([r.stages.get(stage, 0.0) * r.speed * 1e3 for r in served])
        layers[f"{name}.p50"], layers[f"{name}.tail"] = s.p50, s.tail
    wire = summarize([(r.recv - r.sent - sum(r.stages.values())) * r.speed * 1e3 for r in served])
    layers["service.wire_ms.p50"], layers["service.wire_ms.tail"] = wire.p50, wire.tail
    layers["service.wire_bytes_per_req"] = sum(len(r.line) + r.bytes_in for r in served) / len(served)
    late = [(r.sent - r.due) * 1e3 for r in open_reqs]
    layers["loadgen.late_p50_ms"], layers["loadgen.late_max_ms"] = median(late), max(late)
    passed = [s["rate"] for s in ladder if s["sustained"]]
    layers["service.sustained_rps"] = max(passed) if passed else 0.0
    hits, misses = stats.get("interner_hits", 0), stats.get("interner_misses", 0)
    layers["service.protocol.intern_hit_ratio"] = hits / max(1, hits + misses)
    layers["service.daemon.max_queue_depth"] = stats.get("max_queue_depth", 0)
    engine = stats.get("engine") or {}
    for key in ("retries", "serial_fallbacks", "broken_pools"):
        layers[f"solvers.engine.{key}"] = engine.get(key, 0)
    layers["bench.replay_s"] = checking
    if tracer is not None:
        layers["service.default_backend.answered_frac"] = default_answered
        traced = [(r.recv - r.due) * r.speed for r in ok_open if r.traced]
        plain = [(r.recv - r.due) * r.speed for r in ok_open if not r.traced]
        layers["bench.trace_overhead"] = median(traced) / median(plain) - 1.0
    info = {
        "inputs_crc": inputs.crc(trees + pool),
        "inputs": f"{len(trees)} mix trees and {len(pool)} cold-pool trees, "
                  f"{min(t.size for t in trees)}-{max(t.size for t in trees)} nodes",
        "daemon": " ".join(["python"] + daemon.cmd[1:]),
        "default_backend_answered_frac": default_answered,
        "cpus": {"generator": sorted(cpus[0]), "daemon": sorted(cpus[1])} if cpus else None,
        "setup_samples_s": setups,
        "wall_open_loop_p50_ms": median([(r.recv - r.due) * 1e3 for r in ok_open]),
        "client_p50_ms_from_send": median([(r.recv - r.sent) * r.speed * 1e3 for r in ok_open]),
        "daemon_cpu_s": sum(cpu for _, _, cpu in slices),
        "probe_ms": [round(x * 1e3, 3) for x in probe.samples],
        "open_loop": {
            "rate": spec.OPEN_LOOP_RATE, "requests": len(open_reqs),
            "window_speed": [w[0].speed if w else None for w in windows],
            "window_stages_p50_raw_ms": [
                median([sum(r.stages.values()) * 1e3 for r in w if r.status == "ok"])
                for w in windows],
            "window_samples": [len(w) for w in window_latencies],
            "window_tail_percentiles": [tail_level(len(w)) for w in window_latencies],
        },
        "closed_loop": {
            "clients": ctx.nproc, "requests": len(closed_reqs),
            "slice_ops_per_cpu_s": [len(ok) / cpu for ok, cpu in capacity],
            "seconds": sum(took for _, took, _ in slices),
        },
        "ladder": [{k: v for k, v in s.items() if k != "reqs"} for s in ladder],
        "stats": stats,
    }
    return Result(metrics, layers, tally, info, tracer)


def _phases(ctx: Context, daemon: Daemon, trees, refs, rng, pool, pool_refs,
            cpus: Optional[Set[int]]):
    seconds = ctx.seconds
    # 1. warm-up: each tree in full once, then its other pairs by token
    first = [_full_request(f"f{i}", t, spec.SERVICE_ALGORITHMS[0], refs[(i, spec.SERVICE_ALGORITHMS[0])])
             for i, t in enumerate(trees)]
    warm_reqs = _run_list(daemon, first, ctx.nproc)
    tokens = {i: r.token for i, r in enumerate(warm_reqs)}
    rest = [
        Request(f"g{i}-{a}", _line(f"g{i}-{a}", '{"token":"%s"}' % tokens[i], a), t.size, refs[(i, a)])
        for i, t in enumerate(trees) for a in spec.SERVICE_ALGORITHMS[1:]
    ]
    warm_reqs += _run_list(daemon, rest, ctx.nproc)
    # the open loop and the closed loop (then the ladder) draw from separate
    # streams, so the open loop's requests are the same for a seed however
    # many requests the closed loop got through
    if pool:
        half = len(pool) // 2
        open_stream = ColdStream("o", pool, pool_refs, range(half))
        stream = ColdStream("c", pool, pool_refs, range(half, len(pool)))
    else:
        open_stream = WarmStream("o", trees, tokens, refs, [ctx.seed, 4, 0])
        stream = WarmStream("c", trees, tokens, refs, [ctx.seed, 4, 1])

    # 2. open loop at the fixed offered rate and 3. closed loop with nproc
    # clients, interleaved in rounds so that both sample the machine's slow
    # and fast stretches alike across the whole run.  Before each window and
    # slice, while the daemon is idle, the speed of the daemon's CPU is
    # probed, and that stretch's timings are normalised by it.
    probe = SpeedProbe()
    windows, slices = [], []
    for _ in range(spec.ROUNDS):
        speed = _speed(probe, cpus)
        window = open_loop(daemon, open_stream, spec.OPEN_LOOP_RATE,
                           seconds * spec.OPEN_LOOP_SHARE / spec.ROUNDS, rng, traced=ctx.trace)
        for r in window:
            r.speed = speed
        windows.append(window)
        speed = _speed(probe, cpus)
        cpu = cpu_seconds(daemon.proc.pid)
        reqs, took = closed_loop(daemon, stream, ctx.nproc,
                                 seconds * spec.CLOSED_LOOP_SHARE / spec.ROUNDS)
        cpu = cpu_seconds(daemon.proc.pid) - cpu
        for r in reqs:
            r.speed = speed
        slices.append((reqs, took, cpu))
    capacity = median([sum(1 for r in reqs if r.status == "ok") / took for reqs, took, _ in slices])
    # 4. ladder
    ladder = []
    step_s = seconds * spec.LADDER_SHARE / len(spec.LADDER_FRACTIONS)
    for fraction in spec.LADDER_FRACTIONS:
        rate = fraction * capacity
        reqs = open_loop(daemon, stream, rate, step_s, rng)
        ok = [r for r in reqs if r.status == "ok"]
        last_sent = max((r.sent for r in reqs), default=0.0)
        backlog = sum(1 for r in reqs if r.recv == 0.0 or r.recv > last_sent)
        step_tail = tail([(r.recv - r.due) * 1e3 for r in ok]) if ok else float("inf")
        sustained = (len(ok) == len(reqs) and backlog <= spec.SUSTAINED_BACKLOG
                     and step_tail <= spec.SUSTAINED_TAIL_LIMIT_MS)
        ladder.append({"rate": rate, "requests": len(reqs), "backlog": backlog,
                       "tail_ms": step_tail, "sustained": sustained, "reqs": reqs})
        if not sustained:
            break
    return warm_reqs, windows, slices, ladder, probe


def _speed(probe: SpeedProbe, cpus: Optional[Set[int]]) -> float:
    """Normalisation factor from fresh probes on the daemon's CPUs."""
    for _ in range(spec.PROBE_WINDOW):
        probe.sample(cpus)
    return probe.normalise(1.0)


def _full_request(rid: str, tree: inputs.TreeInput, algo: str, expect: float) -> Request:
    doc = json.dumps(tree.payload(), separators=(",", ":"))
    return Request(rid, _line(rid, doc, algo), tree.size, expect)


def _run_list(daemon: Daemon, reqs: List[Request], clients: int) -> List[Request]:
    """Send a fixed list through a closed loop of ``clients`` (in order)."""
    stream = _ListStream(reqs)
    closed_loop(daemon, stream, clients, duration=600.0, count=len(reqs))
    return reqs


class _ListStream(Stream):
    def __init__(self, reqs: List[Request]) -> None:
        super().__init__("")
        self.reqs = reqs

    def make(self, rid: str, i: int) -> Request:
        return self.reqs[i]
