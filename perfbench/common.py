"""Shared plumbing for the repo benchmark: locations, the environment
record, latency statistics, obs counter deltas and the span tracer.

Everything here runs in the benchmark process; nothing reaches into
``src/``.  The program is imported only after :func:`activate` has put
``src`` on ``sys.path`` and pointed the characterization cache at the
benchmark-owned directory.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median  # noqa: F401  (re-exported)
from typing import Dict, Iterator, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"
CHARLIB_CACHE = CACHE / "charlib"
TRACE_DIR = CACHE / "traces"

#: Exit code when the program under test is missing from the checkout.
EXIT_NO_PROGRAM = 66
#: Exit code when a check that must hold before timing does not.
EXIT_PRECONDITION = 70


class BenchmarkError(RuntimeError):
    """A precondition of a timed run failed (cold cache, bad checkout)."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def activate() -> None:
    """Make the checkout's program importable, with its characterization
    cache isolated under the benchmark directory."""
    CHARLIB_CACHE.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CHAR_CACHE"] = str(CHARLIB_CACHE)
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def log(message: str) -> None:
    """Progress line on stderr (stdout carries the report)."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# environment record


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, workload: str, trace: bool) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# statistics


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, samples)``.  The value is the
    ``TAIL_BEYOND + 1``-th largest sample; with too few samples it falls
    back to the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_rss_mb(pid: int) -> float:
    """Current RSS of a live process, 0 if it is gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# child processes

#: Process groups this run has started and not yet reaped.
_GROUPS: Dict[int, subprocess.Popen] = {}
#: ``prctl`` option that makes orphaned descendants our children.
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants (a fleet worker whose daemon died
    first), so :func:`reap` can collect them rather than leave them to
    init."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def spawn(args: List[str], **kwargs) -> subprocess.Popen:
    """Start ``args`` as the leader of a new process group, so
    :func:`reap` can stop it together with everything it forks."""
    _become_subreaper()
    proc = subprocess.Popen(args, start_new_session=True, **kwargs)
    _GROUPS[proc.pid] = proc
    return proc


def _collect_orphans() -> None:
    """Wait for adopted descendants that have exited (zombies whose
    parent is this process and that no ``Popen`` tracks)."""
    me = os.getpid()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        pid = int(stat.parent.name)
        if fields[0] == "Z" and int(fields[1]) == me and pid not in _GROUPS:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Stop ``proc`` and its whole process group and wait until every
    member has ended: SIGTERM, then SIGKILL after ``grace_s``."""
    pgid = proc.pid
    if proc.poll() is None:
        try:
            os.killpg(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.monotonic() + grace_s
    killed_at = None
    while _group_alive(pgid):
        proc.poll()  # collect the leader
        _collect_orphans()
        now = time.monotonic()
        if killed_at is None and now > deadline:
            killed_at = now
        if killed_at is not None:
            if now - killed_at > grace_s:
                break  # SIGKILL cannot be ignored; nothing runs now
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
        time.sleep(0.02)
    proc.wait()
    _GROUPS.pop(pgid, None)


def reap_all() -> None:
    """Reap every group :func:`spawn` started that is still listed."""
    for proc in list(_GROUPS.values()):
        reap(proc, grace_s=2.0)
    _collect_orphans()


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (fleet workers of a daemon)."""
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            children.extend(int(p) for p in task.read_text().split())
        except OSError:
            continue
    return children


# ---------------------------------------------------------------------------
# obs counters


def counters() -> Dict[str, float]:
    """Unlabeled numeric entries of the program's metric registry."""
    from repro import obs

    return {key: value for key, value in obs.snapshot().items()
            if isinstance(value, (int, float)) and "{" not in key}


def delta(after: Dict[str, float], before: Dict[str, float],
          name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


# ---------------------------------------------------------------------------
# tracing


@dataclass
class SpanRecord:
    op: int
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory spans recorded by the benchmark around its calls into
    the program.  Disabled, :meth:`span` costs one attribute test."""

    enabled: bool = False
    spans: List[SpanRecord] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @contextmanager
    def span(self, name: str, op: int = 0) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = SpanRecord(op=op, name=name,
                            parent=stack[-1] if stack else -1,
                            start=time.perf_counter())
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def switch(self, on: bool) -> None:
        """Turn benchmark spans and the program's own obs spans
        (``pathfinder.justify`` / ``pathfinder.delaycalc``) on or off."""
        from repro.obs import tracing

        self.enabled = on
        tracing.enable(on)

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the part covered by
        direct child spans (children nest inside their parent)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                child_time[record.parent] += record.end - record.start
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.spans):
            own = record.end - record.start - child_time[index]
            totals[record.name] = totals.get(record.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [
            {"op": r.op, "name": r.name, "parent": r.parent,
             "start": r.start, "end": r.end}
            for r in self.spans
        ]
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# results


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    goodput_rps: float = 0.0
    max_rps_slo: float = 0.0
    latency_limit_ms: float = 0.0
    checks: List[Check] = field(default_factory=list)
    #: Extra end-to-end context printed beside the metrics.
    notes: Dict[str, object] = field(default_factory=dict)
    #: Per-layer metrics the workload measures itself, by name.
    layers: Dict[str, float] = field(default_factory=dict)
    #: The program's own span totals (``repro.obs.tracing``) over the
    #: measured loop, checks excluded.
    program_spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Program registry snapshots around the measured loop.
    counters: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


#: Shuffled copies of the measured service times in one replay: long
#: enough for the queue to reach its steady state, and independent of
#: the order the seed happened to produce.
REPLAY_ROUNDS = 10


def replay_max_rate(service_s: List[float], ladder: List[float],
                    limit_s: float, servers: int = 1) -> float:
    """Highest ladder rate that ``servers`` FIFO servers sustain when
    the measured service times are replayed under evenly spaced
    arrivals: the replayed latency at the run's tail percentile (the
    one :func:`tail` reports for the measured samples) stays within
    ``limit_s`` and the backlog does not grow (the last request waits
    no longer than ``limit_s``).  0 when even the lowest rung fails."""
    pct = tail(service_s)[1]
    shuffle = random.Random(0).shuffle
    stream: List[float] = []
    for _ in range(REPLAY_ROUNDS):
        batch = list(service_s)
        shuffle(batch)
        stream += batch
    best = 0.0
    for rate in sorted(ladder):
        free = [0.0] * servers
        latencies = []
        wait = 0.0
        for index, service in enumerate(stream):
            arrival = index / rate
            slot = min(range(servers), key=free.__getitem__)
            begin = max(arrival, free[slot])
            free[slot] = begin + service
            wait = begin - arrival
            latencies.append(wait + service)
        if percentile(latencies, pct) > limit_s or wait > limit_s:
            break
        best = rate
    return best


clock = time.perf_counter
