"""Supervised worker processes behind the analysis acceptor.

PR 9's daemon computed every request inside its own
``ThreadPoolExecutor``: one poisoned request (a segfaulting extension,
a runaway C loop, an OOM kill) took the whole daemon -- and every other
in-flight client -- down with it.  This module moves the compute into
N supervised **worker processes** so a worker death kills exactly one
request attempt:

* :func:`run_work` -- the single spec-driven execution function.  Both
  the in-process :class:`ThreadedExecutor` (``--fleet 0``) and every
  fleet worker run *this* function on *the same spec*, which is what
  makes fleet-mode reports byte-identical to threaded-mode reports by
  construction (and both byte-identical to the one-shot CLI, because
  ``run_work`` calls the shared execution layer in
  :mod:`repro.service.requests`).
* :class:`WorkerFleet` -- service policy over the shared
  :class:`repro.resilience.workers.WorkerPool` (the pool the supervised
  search runs its shards on), which reports each attempt as finished,
  crashed, timed out (the hard deadline derived from the QoS wall
  budget) or killed: bounded crash retry with exponential backoff
  (``retry_backoff * 2**attempt``), structured timeouts, hog
  preemption.  Counters: ``service.worker_crashes``,
  ``service.request_retries``, ``service.worker_timeouts``,
  ``service.worker_respawns``, ``service.preemptions``.
* :class:`ThreadedExecutor` -- the deterministic in-process fallback at
  ``--fleet 0`` (the PR 9 behavior): same ``run_work``, same frames,
  no process isolation.

Exceptions *inside* the request (bad params, resilience failures) are
converted to structured error frames by :func:`run_work` itself, so a
task future only ever raises for **infrastructure** failures:
:class:`WorkerCrashed` (retries exhausted), :class:`WorkerTimeout`
(hard deadline tripped, worker killed), or :class:`Preempted` (the
admission layer reclaimed the worker for higher-priority work; the
server re-enqueues the request).

Workers inherit the warm in-process charlib memo on platforms with
``fork`` and hold their own :class:`~repro.service.cache.HotCache` of
built contexts, so a long-lived worker answers repeat configurations
as fast as the threaded path.  Fault injection for the chaos harness
rides in the spec (``fleet_fault``): a scheduled crash hard-kills the
worker with ``os._exit`` before the compute starts, exactly like an
OOM kill.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.resilience.errors import ConfigError, ResilienceError
from repro.resilience.workers import (
    FINISHED,
    KILLED,
    TIMED_OUT,
    Attempt,
    WorkerPool,
)
from repro.service.cache import HotCache
from repro.service.protocol import (
    ProtocolError,
    error_frame,
    partial_frame,
    result_frame,
)
from repro.service.requests import (
    AnalysisRequest,
    build_context,
    execute_analysis,
    execute_size,
    execute_verify,
)

_log = obs.get_logger("repro.service")

#: Fields a ``fleet_fault`` request param may carry (chaos harness
#: only; attempt numbers are zero-based and continuous across retries
#: and re-admissions, so ``{"crash_attempts": [0]}`` kills the first
#: try and lets the retry succeed).
FLEET_FAULT_FIELDS = ("crash_attempts", "crash_exit_code",
                      "hang_attempts", "hang_s")


class FleetError(Exception):
    """Infrastructure failure of a fleet task (not a request error)."""


class WorkerCrashed(FleetError):
    """Every retry of a task died with its worker."""


class WorkerTimeout(FleetError):
    """The task's hard wall deadline tripped; its worker was killed."""


class Preempted(FleetError):
    """The worker was reclaimed for higher-priority work; the request
    should be re-enqueued (it lost its partial progress, nothing
    else)."""


# ---------------------------------------------------------------------------
# The shared execution function (byte identity by construction)


def _numeric_snapshot() -> Dict[str, float]:
    return {key: value for key, value in obs_metrics.snapshot().items()
            if isinstance(value, (int, float))}


def _numeric_delta(before: Dict[str, float]) -> Dict[str, float]:
    after = _numeric_snapshot()
    return {key: value - before.get(key, 0)
            for key, value in after.items()
            if value != before.get(key, 0)}


def run_work(spec: Dict[str, Any], contexts: HotCache) -> List[Dict[str, Any]]:
    """Execute one work spec against a context cache; return the
    response frames (``partial``* then a terminal ``result``/``error``).

    Request-level failures are rendered to error frames *here*, so the
    threaded pool and the worker pipe both carry plain frame lists --
    the acceptor never needs to distinguish where the work ran.
    """
    try:
        op = spec["op"]
        if op == "analyze":
            return _run_analyze(spec, contexts)
        if op == "verify":
            outcome = execute_verify(**spec["params"])
            return [result_frame(None, op="verify", report=outcome.report,
                                 ok=outcome.ok)]
        if op == "size":
            outcome = execute_size(**spec["params"])
            return [result_frame(None, op="size", report=outcome.report,
                                 **outcome.payload)]
        return [error_frame(None, "bad-request",
                            f"op {op!r} not dispatchable")]
    except ProtocolError as exc:
        return [error_frame(None, exc.code, str(exc))]
    except ConfigError as exc:
        return [error_frame(None, "bad-request", str(exc))]
    except ResilienceError as exc:
        return [error_frame(None, "internal", str(exc))]
    except Exception as exc:  # never let a request take the worker down
        _log.warning("service.request_error", op=spec.get("op"),
                     error=f"{type(exc).__name__}: {exc}")
        return [error_frame(None, "internal",
                            f"{type(exc).__name__}: {exc}")]


def _run_analyze(spec: Dict[str, Any],
                 contexts: HotCache) -> List[Dict[str, Any]]:
    request = AnalysisRequest(**spec["request"])
    fault_plan = spec.get("fault")
    context = contexts.get_or_build(
        request.context_key(), lambda: build_context(request))
    with context.lock:
        before = _numeric_snapshot()
        started = time.monotonic()
        outcome = execute_analysis(request, context=context,
                                   fault_plan=fault_plan)
        elapsed = time.monotonic() - started
        delta = _numeric_delta(before)
    fields: Dict[str, Any] = {
        "op": "analyze",
        "report": outcome.report,
        "paths": len(outcome.paths),
        "degraded": outcome.degraded,
        "cached": False,
        "elapsed_s": round(elapsed, 6),
        "metrics": delta,
    }
    frames: List[Dict[str, Any]] = []
    if outcome.degraded and outcome.completeness is not None:
        completeness = [o.as_dict() for o in
                        outcome.completeness.origins.values()]
        fields["completeness"] = completeness
        frames.append(partial_frame(None, completeness))
    frames.append(result_frame(None, **fields))
    return frames


# ---------------------------------------------------------------------------
# In-process fallback (--fleet 0)


class ThreadedExecutor:
    """The deterministic in-process executor: ``run_work`` on a thread
    pool against the server's own context cache.  No isolation -- a
    worker segfault is a daemon segfault -- but zero IPC overhead and
    bit-for-bit the PR 9 behavior."""

    def __init__(self, width: int, contexts: HotCache):
        self.width = width
        self._contexts = contexts
        self._pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="repro-service")

    def submit(self, spec: Dict[str, Any], attempt: int = 0) -> Future:
        return self._pool.submit(run_work, spec, self._contexts)

    def preemptible(self) -> bool:
        return False

    def preempt_one(self) -> bool:
        return False

    def stats(self) -> Dict[str, Any]:
        return {"mode": "threaded", "width": self.width}

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Worker fleet


def _worker_init(cache_size: int) -> HotCache:
    """Worker state: a private cache of built analysis contexts."""
    return HotCache(cache_size, name="worker_cache")


def _worker_task(contexts: HotCache, payload, emit) -> List[Dict[str, Any]]:
    """Run one ``(spec, attempt)`` task in a fleet worker."""
    spec, attempt = payload
    fault = spec.get("fleet_fault") or {}
    if attempt in tuple(fault.get("crash_attempts", ())):
        # Hard death before any compute: skips every finally/atexit,
        # exactly like an OOM kill of the worker.
        os._exit(int(fault.get("crash_exit_code", 23)))
    if attempt in tuple(fault.get("hang_attempts", ())):
        time.sleep(float(fault.get("hang_s", 30.0)))
    return run_work(spec, contexts)


class WorkerFleet:
    """N supervised worker processes sharing one task queue.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving
    to the response frames, or raising :class:`WorkerCrashed` /
    :class:`WorkerTimeout` / :class:`Preempted` -- see the module
    docstring for the contract.
    """

    def __init__(self, size: int, cache_size: int = 8,
                 retries: int = 2, retry_backoff: float = 0.1):
        if size < 1:
            raise ValueError(f"fleet needs >= 1 worker, got {size}")
        self.size = size
        self.retries = retries
        self.retry_backoff = retry_backoff
        self._stopping = False
        self._pool = WorkerPool(size, _worker_init, (cache_size,),
                                _worker_task, name="fleet",
                                on_spawn=lambda: obs.counter(
                                    "service.worker_respawns").inc())

    @property
    def width(self) -> int:
        return self.size

    def submit(self, spec: Dict[str, Any], attempt: int = 0) -> Future:
        future: Future = Future()
        self._dispatch(spec, attempt, attempt, future)
        return future

    def _dispatch(self, spec: Dict[str, Any], first: int, attempt: int,
                  future: Future) -> None:
        if self._stopping:
            future.set_exception(WorkerCrashed("fleet is shutting down"))
            return
        task = self._pool.submit((spec, attempt),
                                 timeout=spec.get("timeout_s"))
        task.future.add_done_callback(
            lambda done: self._settle(done.result(), spec, first, attempt,
                                      future))

    def _settle(self, outcome: Attempt, spec: Dict[str, Any], first: int,
                attempt: int, future: Future) -> None:
        """Map one attempt onto the request future (runs on the pool's
        supervising thread): answer, retry a crash, or fail."""
        if outcome.status == FINISHED:
            if outcome.error is not None:  # run_work renders its own
                future.set_exception(outcome.error)
            else:
                future.set_result(outcome.accept())
            return
        if self._stopping:
            future.set_exception(WorkerCrashed("fleet is shutting down"))
            return
        if outcome.status == KILLED:
            obs.counter("service.preemptions").inc()
            _log.info("fleet.preempted", attempt=attempt)
            future.set_exception(Preempted(
                f"worker reclaimed for higher-priority work "
                f"(attempt {attempt})"))
            return
        if outcome.status == TIMED_OUT:
            timeout_s = spec.get("timeout_s")
            obs.counter("service.worker_timeouts").inc()
            _log.warning("fleet.worker_timeout", attempt=attempt,
                         timeout_s=timeout_s)
            future.set_exception(WorkerTimeout(
                f"request exceeded its {timeout_s:g}s hard wall "
                f"deadline; worker killed (attempt {attempt})"))
            return
        # Crashed: the worker died under the request (segfault, OOM
        # kill, injected os._exit).  Bounded retry with backoff.
        obs.counter("service.worker_crashes").inc()
        _log.warning("fleet.worker_crashed", attempt=attempt,
                     exitcode=outcome.exitcode)
        if attempt + 1 > first + self.retries:
            future.set_exception(WorkerCrashed(
                f"request killed its worker on {self.retries + 1} "
                f"consecutive attempts (last exit code "
                f"{outcome.exitcode})"))
            return
        obs.counter("service.request_retries").inc()
        time.sleep(min(self.retry_backoff * 2 ** (attempt - first), 2.0))
        self._dispatch(spec, first, attempt + 1, future)

    def preemptible(self) -> bool:
        return True

    def preempt_one(self) -> bool:
        """Reclaim one worker running a preemptible hog (an uncapped
        ``exhaustive`` request); returns whether a preemption was
        requested."""
        for task in self._pool.running():
            spec, _attempt = task.payload
            if spec.get("hog") and self._pool.kill(task):
                return True
        return False

    def stats(self) -> Dict[str, Any]:
        return {
            "mode": "fleet",
            "width": self.size,
            "workers_alive": self._pool.alive(),
            "busy": len(self._pool.running()),
            "crashes": obs.counter("service.worker_crashes").value,
            "retries": obs.counter("service.request_retries").value,
            "preemptions": obs.counter("service.preemptions").value,
        }

    def shutdown(self) -> None:
        self._stopping = True
        self._pool.shutdown()
