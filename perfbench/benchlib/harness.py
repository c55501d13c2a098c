"""Run context, per-operation time limits, set-up timing and memory probes."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, Iterator, List, Optional, Set, Tuple

from . import spec
from .stats import Tally
from .tracer import Tracer


@dataclass
class Context:
    """Everything a workload needs to know about its run."""

    root: str          # checkout root (holds src/repro)
    seed: int
    seconds: float
    trace: bool
    scale: str = "full"
    out_dir: str = ""
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    @property
    def sizes(self) -> Dict[str, int]:
        return spec.SIZES[self.scale]

    @property
    def setup_repeats(self) -> int:
        return spec.SETUP_REPEATS if self.scale == "full" else 1

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    tally: Tally
    info: Dict[str, object]
    tracer: Optional[Tracer] = None


class SpeedProbe:
    """Tracks how fast this machine runs right now, to normalise timings.

    The shared machine this benchmark was tuned on changes speed by up to
    1.5x for seconds at a time (measured with a fixed pure-Python loop:
    17 ms in fast stretches, 25 ms in slow ones, correlated 0.77 with the
    sparse pipeline's own timings).  A run's median then depends on how
    much of it fell in slow stretches.  So before each operation (or each
    stretch of daemon traffic), outside the timed region and on the CPU the
    work runs on, the probe times a fixed reference task that is no part of
    the program, and :meth:`normalise` rescales the work's time to a
    machine that runs that task in :data:`spec.PROBE_REFERENCE_S`:
    ``t * reference / median(last probes)``.  On sparse_plan this took the
    spread of ops_per_s across runs from 34% to 3%.
    """

    def __init__(self) -> None:
        import numpy as np

        self._array = np.arange(20_000, dtype=np.float64)
        self.samples: List[float] = []

    def sample(self, cpus: Optional[Set[int]] = None) -> float:
        """Time the reference task once (on ``cpus``, when given)."""
        previous = os.sched_getaffinity(0) if cpus else None
        if cpus:
            os.sched_setaffinity(0, cpus)
        try:
            start = perf_counter()
            total, table = 0, {}
            for i in range(20_000):
                total += i * i
                table[i & 255] = total
            float((self._array * self._array).sum())
            took = perf_counter() - start
        finally:
            if previous:
                os.sched_setaffinity(0, previous)
        self.samples.append(took)
        return took

    def normalise(self, seconds: float) -> float:
        recent = sorted(self.samples[-spec.PROBE_WINDOW:])
        return seconds * spec.PROBE_REFERENCE_S / recent[len(recent) // 2]


def split_cpus() -> Optional[Tuple[Set[int], Set[int]]]:
    """CPUs for the load generator (one) and for the daemon (the rest).

    Measured on the 2-core machine this benchmark was tuned on (service_cold,
    three seeds): with the generator and the daemon free to share both
    cores, the open-loop median was 3.6-6.3 ms and the closed loop 271-328
    req/s; with the generator on one core and the daemon on the other,
    3.1-3.4 ms and 377-405 req/s.  ``None`` when fewer than two CPUs are
    available.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class OpTimeout(Exception):
    """An operation overran its per-operation time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    """Raise :class:`OpTimeout` in the main thread after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


def descendants(pid: int) -> List[int]:
    """``pid`` and its live descendants."""
    out, stack = [], [pid]
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(_children(p))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _stat(pid: int) -> List[str]:
    """Fields of ``/proc/pid/stat`` after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` and its live descendants."""
    total = 0
    for p in descendants(pid):
        fields = _stat(p)
        if len(fields) > 12:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (VmHWM) of ``pid`` and its live descendants."""
    return sum(_hwm_kb(p) for p in descendants(pid)) / 1024.0


def wait_ended(pids: List[int], timeout: float = 10.0) -> bool:
    """Wait until every process in ``pids`` has exited (gone or a zombie)."""
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        if all(_stat(p)[:1] in ([], ["Z"]) for p in pids):
            return True
        sleep(0.01)
    return False


def _group(pgid: int) -> List[int]:
    """Live members of process group ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
                out.append(int(entry))
    return out


def end_group(pgid: int) -> None:
    """Kill process group ``pgid`` and wait until every member has ended.

    Every process the benchmark launches leads a session of its own, so
    this reaches whatever it started in turn, orphans included.
    """
    pids = _group(pgid)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    wait_ended(pids)


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that :func:`stop_children` reaps them."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The library's ``auto`` race starts a process pool, and its shared-memory
    arena starts multiprocessing's resource tracker; left alone, the tracker
    outlives this interpreter by a moment.  Meant to run at exit after the
    library's own exit hook: it shuts the library's engines down, kills
    what is left but the tracker, then closes the tracker's pipe (it unlinks
    any leaked segment and exits) and reaps every child.
    """
    engine = sys.modules.get("repro.solvers.engine")
    if engine is not None:
        engine.shutdown_engine()
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    others = [p for p in descendants(os.getpid())[1:] if p != tracker_pid]
    _kill(others)
    wait_ended(others)  # dead processes no longer hold the tracker's pipe
    if tracker_pid is not None:
        try:
            tracker._stop()
        except (AttributeError, OSError):
            pass
    _kill(descendants(os.getpid())[1:])
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def time_library_setup(ctx: Context, warmup: str) -> List[float]:
    """Seconds from launching a fresh interpreter to one warm-up op done.

    The child imports the library and runs ``warmup`` (Python source), then
    prints ``ready``; the clock stops when that line arrives.  Each time is
    normalised by :class:`SpeedProbe` samples taken just before its launch.
    """
    code = f"import repro\n{warmup}\nprint('ready', flush=True)\n"
    times = []
    probe = SpeedProbe()
    for _ in range(ctx.setup_repeats):
        for _ in range(spec.PROBE_WINDOW):
            probe.sample()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ctx.root, env=ctx.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up child did not exit")
        finally:
            end_group(proc.pid)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {err.strip()[-500:]}")
        times.append(probe.normalise(elapsed))
    return times
