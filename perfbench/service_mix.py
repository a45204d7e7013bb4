"""``service-mix``: the daemon as users see it, as an open loop.

A ``repro serve --fleet 2`` daemon runs in its own process.  One client
process (this one) opens no more connections than ``nproc`` and sends a
seeded request mix on a fixed schedule at ``OFFERED_RPS``; the server
answers one request per connection at a time, so each latency is timed
from the request's *due* time and the generator's lateness is reported.

The mix, per block of 80 requests (order shuffled per block):

* 60 ``memo`` -- repeats of deterministic requests served during
  warm-up (result-memo hits, about a millisecond);
* 16 ``warm`` -- c880a@0.25 on its warm context with fresh
  ``top``/``n_worst``;
* 2 ``cold``  -- c432 and c1908@0.3, from a circuit x corner working
  set larger than ``--cache-size``, each context built on first use;
* 1 ``gba``   -- ``tool: gba`` on full c7552;
* 1 ``size``  -- the sizing op on c432@0.3.

Plus ``PROBES`` deadline-bearing c499 request(s) at the end of every
schedule: a single ``justify()`` call on c499 runs unbounded, so the
fleet kills the worker at its hard horizon and the request ends as
``deadline-exceeded`` long after its deadline (see README.md).  Probes
count as refused in ``success_ratio`` and never as correct answers.

Every served report is compared byte for byte with an in-process
``execute_analysis`` / ``execute_size`` of the same request (cached per
program-source digest under ``.cache/expected``); memo replays must
carry ``cached: true``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from prepare import SIZE_REQUEST
from common import (
    CACHE, Outcome, Tracer, child_pids, clock, log, median, percentile,
    process_rss_mb, reap, replay_max_rate, spawn,
)

OFFERED_RPS = 4.0
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
FLEET = 2
CACHE_SIZE = 4
#: One block of 80 requests (a 20 s run), shuffled.  Sorted by service
#: time, the median falls among the memo hits (75%) and the tail (11th
#: largest) near the middle of the warm computes (20%) on every seed.  With heavier compute shares the median landed in a
#: compute class, or in the upper memo hits, whose latency depends on
#: what shares the two cores with it (spreads over five to ten seeds of
#: 0.3-0.9 of the median).
BLOCK = (("memo", 60), ("warm", 16), ("cold", 2), ("size", 1), ("gba", 1))
PROBES = 1
PROBE_DEADLINE_S = 1.0
#: A request slower than this (from its due time) misses the limit.
LATENCY_LIMIT_S = 2.0
#: Fixed ladder of offered rates (requests/s) for ``max_rps_slo``.
RATE_LADDER = [round(0.5 * 1.02 ** k, 4) for k in range(400)]
BOOTS = 3

#: Deterministic requests served once during warm-up; none shares a
#: context with the cold working set.
MEMO_POOL = (
    {"netlist": "iscas:c880a@0.25", "n_worst": 5, "top": 5},
    {"netlist": "iscas:c432@0.05", "tech": "65nm", "n_worst": 10},
    {"netlist": "iscas:c17", "tech": "130nm", "n_worst": 3},
    {"netlist": "iscas:c17"},
)
WARM_CIRCUIT = "iscas:c880a@0.25"
#: Cold working set: 2 circuits x 3 corners, more than ``CACHE_SIZE``.
#: The two cost about the same (about 1 s), so whichever corners a run
#: draws, its cold requests carry the same work; with c6288@0.25
#: (0.1 s) in the set, the pair a 20 s run drew moved the capacity
#: replay by a tenth.
COLD_CIRCUITS = ("iscas:c432", "iscas:c1908@0.3")
COLD_N_WORST = 3
CORNERS = ("90nm", "65nm", "130nm")
GBA_CIRCUIT = "iscas:c7552"
#: Sizing is never memoized, so the mix repeats one request: its cost
#: (the number of moves depends on the target) is the same on every seed.
SIZE_CIRCUIT = SIZE_REQUEST["netlist"]
PROBE_CIRCUIT = "iscas:c499"

Request = Tuple[str, str, Dict]  # (class, op, params)


class MixGenerator:
    """Seeded request stream; no compute request repeats a fingerprint
    within a run (a repeat would be a memo hit).  The seed draws the
    order and the parameters, but every three warm requests cover
    ``n_worst`` 1, 2 and 3 and every two cold ones the two cold
    circuits, so each run carries the same amount of compute."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.warm_tops = list(range(1, 9))
        self.rng.shuffle(self.warm_tops)
        self.cold_corners = {c: self.rng.sample(CORNERS, len(CORNERS))
                             for c in COLD_CIRCUITS}
        self.gba_tops = list(range(1, 41))
        self.rng.shuffle(self.gba_tops)
        self.counts: Dict[str, int] = {}
        self.warm_ns: List[int] = []
        self.cold_order: List[str] = []

    def _next(self, cls: str) -> Request:
        k = self.counts.get(cls, 0)
        self.counts[cls] = k + 1
        if cls == "memo":
            return cls, "analyze", dict(self.rng.choice(MEMO_POOL))
        if cls == "warm":
            triple, slot = divmod(k, 3)
            if slot == 0:
                self.warm_ns = self.rng.sample((1, 2, 3), 3)
            tops = len(self.warm_tops)
            top = self.warm_tops[triple % tops] + tops * (triple // tops)
            return cls, "analyze", {"netlist": WARM_CIRCUIT,
                                    "n_worst": self.warm_ns[slot],
                                    "top": top}
        if cls == "cold":
            round_, slot = divmod(k, len(COLD_CIRCUITS))
            if slot == 0:
                self.cold_order = self.rng.sample(COLD_CIRCUITS,
                                                  len(COLD_CIRCUITS))
            circuit = self.cold_order[slot]
            corners = self.cold_corners[circuit]
            return cls, "analyze", {
                "netlist": circuit, "tech": corners[round_ % len(corners)],
                "n_worst": COLD_N_WORST,
                "top": 1 + round_ // len(corners)}
        if cls == "gba":
            tops = len(self.gba_tops)
            return cls, "analyze", {
                "netlist": GBA_CIRCUIT, "tool": "gba",
                "top": self.gba_tops[k % tops] + tops * (k // tops)}
        return cls, "size", dict(SIZE_REQUEST)

    def block(self) -> List[Request]:
        classes = [cls for cls, count in BLOCK for _ in range(count)]
        self.rng.shuffle(classes)
        return [self._next(cls) for cls in classes]

    def schedule(self, count: int, probes: int) -> List[Request]:
        requests: List[Request] = []
        while len(requests) < count - probes:
            requests.extend(self.block())
        requests = requests[:count - probes]
        # Last, so the probe's stall of one of the two connections does
        # not queue the rest of the traffic (which would make every
        # latency depend on where the seed put it).
        requests += [("probe", "analyze", {"netlist": PROBE_CIRCUIT})] * probes
        return requests


# ---------------------------------------------------------------------------
# daemon lifecycle


class Daemon:
    """One ``repro serve`` process; :meth:`stop` always reaps it."""

    def __init__(self, index: int):
        run_dir = CACHE / "service"
        run_dir.mkdir(parents=True, exist_ok=True)
        self.port_file = run_dir / f"port-{os.getpid()}-{index}"
        self.port_file.unlink(missing_ok=True)
        self.log_path = run_dir / f"daemon-{os.getpid()}-{index}.log"
        self.started = clock()
        with open(self.log_path, "w") as sink:
            self.proc = spawn(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--fleet", str(FLEET), "--cache-size", str(CACHE_SIZE),
                 "--max-queue", "256", "--port", "0",
                 "--port-file", str(self.port_file)],
                stdout=sink, stderr=subprocess.STDOUT)
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until the first ``ping`` answers; returns boot seconds."""
        from repro.service.client import ServiceClient

        deadline = self.started + timeout
        while self.port is None:
            if self.proc.poll() is not None or clock() > deadline:
                raise RuntimeError(
                    f"daemon failed to start; see {self.log_path}")
            text = (self.port_file.read_text()
                    if self.port_file.exists() else "")
            if text.endswith("\n"):
                self.port = int(text)
            else:
                time.sleep(0.005)
        with ServiceClient("127.0.0.1", self.port, timeout=30) as client:
            client.call("ping")
        return clock() - self.started

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=120).connect()

    def rss_mb(self) -> float:
        """Current RSS of the acceptor plus its fleet workers."""
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return sum(process_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        try:
            if self.port is not None and self.proc.poll() is None:
                with self.client() as client:
                    client.call("shutdown")
                self.proc.wait(timeout=30)
        except Exception as exc:  # fall through to a hard stop
            log(f"daemon shutdown: {exc}")
        finally:
            reap(self.proc)  # the daemon and any fleet worker it left
            self.port_file.unlink(missing_ok=True)


def sample_rss(daemon: Daemon, stop: threading.Event,
               samples: List[float]) -> None:
    while not stop.wait(0.2):
        samples.append(daemon.rss_mb())


def call(client, op: str, params: Dict, deadline_s=None):
    """One request; returns the terminal frame or the ServiceError."""
    from repro.service.client import ServiceError

    try:
        return client.call(op, params, deadline_s=deadline_s)
    except ServiceError as exc:
        return exc


def concurrently(daemon: Daemon, requests: List[Tuple[str, Dict]]):
    """Send ``requests`` at once, one connection each (warms every
    fleet worker's private context cache)."""
    results: List[object] = [None] * len(requests)

    def worker(index: int) -> None:
        op, params = requests[index]
        with daemon.client() as client:
            results[index] = call(client, op, params)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def warm_up(daemon: Daemon) -> None:
    with daemon.client() as client:
        for params in MEMO_POOL:
            frame = call(client, "analyze", dict(params))
            if not isinstance(frame, dict):
                raise RuntimeError(f"warm-up request failed: {frame}")
    for pair in (
        [("analyze", {"netlist": WARM_CIRCUIT, "n_worst": 1, "top": 20 + i})
         for i in range(FLEET)],
        [("analyze", {"netlist": GBA_CIRCUIT, "tool": "gba",
                      "top": 1000 + i}) for i in range(FLEET)],
        [("size", {"netlist": SIZE_CIRCUIT, "required_ps": 500.0 + i,
                   "max_moves": 4}) for i in range(FLEET)],
    ):
        for frame in concurrently(daemon, pair):
            if not isinstance(frame, dict):
                raise RuntimeError(f"warm-up request failed: {frame}")


# ---------------------------------------------------------------------------
# open loop


def open_loop(daemon: Daemon, requests: List[Request], rate: float,
              tracer: Tracer):
    """Send ``requests`` due every ``1/rate`` s over ``CONNECTIONS``
    connections.  One ``(request, due, sent, done, frame)`` row each,
    times relative to the loop start."""
    rows: List[Optional[tuple]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = clock()

    def worker() -> None:
        with daemon.client() as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                cls, op, params = requests[index]
                due = index / rate
                wait = start + due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock() - start
                deadline = PROBE_DEADLINE_S if cls == "probe" else None
                with tracer.span(f"service.{cls}", index):
                    frame = call(client, op, dict(params), deadline)
                rows[index] = (requests[index], due, sent,
                               clock() - start, frame)
                if not isinstance(frame, dict):
                    client.close()  # an error frame may close the stream

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return rows, clock() - start


# ---------------------------------------------------------------------------
# expected outputs


class Expected:
    """In-process reference outputs, cached on disk per source digest."""

    def __init__(self):
        from prepare import source_digest

        self.dir = CACHE / "expected" / source_digest()
        self.dir.mkdir(parents=True, exist_ok=True)
        self.contexts: Dict[tuple, object] = {}

    def _path(self, op: str, params: Dict):
        key = json.dumps([op, params], sort_keys=True)
        name = hashlib.blake2b(key.encode(), digest_size=16).hexdigest()
        return self.dir / f"{name}.json"

    def get(self, op: str, params: Dict) -> Dict:
        path = self._path(op, params)
        if path.exists():
            return json.loads(path.read_text())
        from repro.service.requests import (
            AnalysisRequest, build_context, execute_analysis, execute_size,
        )

        if op == "size":
            outcome = execute_size(**params)
            value = {"report": outcome.report, **outcome.payload}
        else:
            request = AnalysisRequest.from_params(dict(params))
            key = request.context_key()
            if key not in self.contexts:
                self.contexts[key] = build_context(request)
            outcome = execute_analysis(request, context=self.contexts[key])
            value = {"report": outcome.report}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(value))
        tmp.replace(path)
        return value


def verify_rows(rows, expected: Expected) -> Tuple[int, int, List[str]]:
    """Returns ``(failed, refused, problems)``."""
    failed = refused = 0
    problems: List[str] = []
    for (cls, op, params), _, _, _, frame in rows:
        if cls == "probe":
            if isinstance(frame, dict):
                continue  # a bounded answer in time would be a success
            if getattr(frame, "code", None) == "deadline-exceeded":
                refused += 1
                continue
            failed += 1
            problems.append(f"probe: unexpected {frame!r}")
            continue
        if not isinstance(frame, dict):
            failed += 1
            problems.append(f"{cls} {params}: {frame!r}")
            continue
        want = expected.get(op, params)
        ok = all(frame.get(key) == value for key, value in want.items())
        if op == "analyze":
            ok = ok and frame.get("cached") is (cls == "memo")
        if not ok:
            failed += 1
            problems.append(f"{cls} {params}: served output differs")
    return failed, refused, problems


def stats_counters(daemon: Daemon) -> Dict[str, float]:
    with daemon.client() as client:
        metrics = client.call("stats")["metrics"]
    return {key: value for key, value in metrics.items()
            if isinstance(value, (int, float)) and "{" not in key}


SERVICE_COUNTERS = {
    "service.shed": "service.overloaded",
    "service.deadline_drops": "service.deadline_drops",
    "service.worker_timeouts": "service.worker_timeouts",
    "service.request_retries": "service.request_retries",
    "service.worker_crashes": "service.worker_crashes",
}


def run(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome(latency_limit_ms=LATENCY_LIMIT_S * 1e3)
    expected = Expected()
    boots: List[float] = []
    warms: List[float] = []
    daemon = None
    try:
        # Every boot is warmed up, so set-up is a median of whole
        # set-ups (a single warm-up spread by a quarter between runs).
        for index in range(BOOTS):
            if daemon is not None:
                daemon.stop()
            with tracer.span("service.boot"):
                daemon = Daemon(index)
                boots.append(daemon.wait_ready())
            warm_started = clock()
            with tracer.span("service.warm_up"):
                warm_up(daemon)
            warms.append(clock() - warm_started)
        out.setup_s = median(b + w for b, w in zip(boots, warms))
        with daemon.client() as client:
            pings = []
            for _ in range(20):
                begun = clock()
                client.call("ping")
                pings.append(clock() - begun)

        generator = MixGenerator(seed)
        count = int(round(OFFERED_RPS * seconds))
        probes = PROBES if count >= 20 else 0
        requests = generator.schedule(count, probes)
        before = stats_counters(daemon)
        # Workers killed at the probe's horizon take their peak with
        # them, so the peak is sampled while the loop runs.
        samples = [daemon.rss_mb()]
        stop = threading.Event()
        sampler = threading.Thread(target=sample_rss,
                                   args=(daemon, stop, samples))
        sampler.start()
        try:
            rows, elapsed = open_loop(daemon, requests, OFFERED_RPS, tracer)
        finally:
            stop.set()
            sampler.join()
        after = stats_counters(daemon)
        out.peak_rss_mb = max(samples)
    finally:
        if daemon is not None:
            daemon.stop()

    out.elapsed_s = elapsed
    out.attempted = len(rows)
    out.latencies_s = [done - due for _, due, _, done, _ in rows]
    failed, refused, problems = verify_rows(rows, expected)
    out.failed = failed
    out.notes["refused"] = refused
    out.check("served outputs == in-process outputs", failed == 0,
              "; ".join(problems[:3]) or f"{len(rows) - refused} checked")
    out.check("deadline probes answered with a structured error",
              all(isinstance(r[4], dict)
                  or getattr(r[4], "code", None) == "deadline-exceeded"
                  for r in rows if r[0][0] == "probe"),
              f"{refused} of {probes} refused as deadline-exceeded")
    good = [r for r in rows if r[0][0] != "probe" and isinstance(r[4], dict)]
    out.goodput_rps = sum(done - due <= LATENCY_LIMIT_S
                          for _, due, _, done, _ in good) / elapsed
    by_class: Dict[str, List[float]] = {}
    for (cls, _, _), _, sent, done, _ in rows:
        by_class.setdefault(cls, []).append(done - sent)
    # Capacity: replay the probe-free traffic through CONNECTIONS FIFO
    # servers on the fixed ladder, each request at its class's median
    # service time.  Two workers share two cores with the client, so a
    # single request's time swings with what ran beside it; replaying
    # raw samples put the spread over five seeds at 0.43 of the median.
    service_s = [median(by_class[r[0][0]]) for r in good]
    out.max_rps_slo = replay_max_rate(service_s, RATE_LADDER,
                                      LATENCY_LIMIT_S, servers=CONNECTIONS)
    lateness = [max(0.0, sent - due) for _, due, sent, _, _ in rows]
    analyze = [r for r in rows if r[0][1] == "analyze" and r[0][0] != "probe"
               and isinstance(r[4], dict)]
    layers = {
        "service.ping_ms": median(pings) * 1e3,
        "service.lateness_p99_ms": percentile(lateness, 99) * 1e3,
        "service.memo_hit_ratio": (sum(bool(r[4].get("cached"))
                                       for r in analyze)
                                   / max(len(analyze), 1)),
    }
    for cls, metric in (("memo", "service.memo_ms"),
                        ("warm", "service.warm_ms"),
                        ("cold", "service.cold_ms"),
                        ("gba", "service.gba_ms"),
                        ("size", "service.size_ms"),
                        ("probe", "service.deadline_ms")):
        if by_class.get(cls):
            layers[metric] = median(by_class[cls]) * 1e3
    for metric, counter in SERVICE_COUNTERS.items():
        layers[metric] = after.get(counter, 0) - before.get(counter, 0)
    out.layers = layers
    # Program work counters: the per-request deltas the fleet ships back.
    work: Dict[str, float] = {}
    for r in analyze:
        for key, value in (r[4].get("metrics") or {}).items():
            if "{" not in key and isinstance(value, (int, float)):
                work[key] = work.get(key, 0) + value
    out.counters = ({}, work)
    # Search CPU time measured by the workers themselves.
    out.layers["pathfinder.search_s"] = work.get("pathfinder.cpu_seconds",
                                                 0.0)
    out.notes.update({
        "offered_rps": OFFERED_RPS, "connections": CONNECTIONS,
        "fleet": FLEET, "cache_size": CACHE_SIZE, "probes": probes,
        "boot_s": boots, "warm_up_s": warms,
        "lateness_max_ms": max(lateness) * 1e3,
        "rate_ladder": [RATE_LADDER[0], RATE_LADDER[-1], "x1.02"],
    })
    return out
