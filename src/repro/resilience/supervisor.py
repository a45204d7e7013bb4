"""Supervised parallel search: the driver that refuses to die.

:class:`ShardSupervisor` runs the per-origin shards on the shared
:class:`~repro.resilience.workers.WorkerPool` -- one long-lived forked
worker per slot, one shard at a time per worker -- and applies its own
retry policy to each attempt the pool reports:

* **Worker crashes** (pipe EOF or a dead process): a crash always names
  its shard, which is re-queued against a bounded retry budget with
  exponential backoff (``resilience.worker_crashes`` /
  ``resilience.shard_retries``).
* **Shard timeouts / heartbeat stalls**: the pool kills the worker of a
  shard past its wall-clock deadline (``resilience.shard_timeouts``);
  the supervisor kills the worker of a shard whose progress beats --
  sent over the task pipe, folded into the
  :class:`~repro.obs.progress.ProgressBoard` on this thread -- went
  silent (``resilience.heartbeat_stalls``).  Either way only that shard
  is re-queued.
* **Retry exhaustion**: the shard falls back to an in-process serial
  run -- worker-environment faults cannot follow it there.  If even
  that fails, the origin is recorded as ``failed`` with zero paths and
  the run *continues* (``resilience.serial_fallbacks``,
  ``resilience.degraded_origins``); only policy errors from the
  resilience taxonomy (e.g. a missing arc under the ``error`` policy)
  abort the run, because they are deterministic decisions, not
  infrastructure failures.
* **SIGINT**: workers ignore SIGINT; the pool is shut down,
  completed-shard results and merged metrics are preserved, and
  :class:`~repro.resilience.errors.SearchInterrupted` carries the
  partial result out.
* **Checkpoint/resume**: completed origins stream to a JSON snapshot
  (:mod:`repro.resilience.checkpoint`), flushed after every shard; a
  resumed run adopts them without re-searching and reproduces the exact
  path set of an uninterrupted run.

The merge stays byte-identical to the serial search: results are
collected per origin *index* and concatenated in declaration order, no
matter the completion, retry, or resume order.

This module is imported lazily (``repro.resilience.__init__`` does not
pull it in) because it imports the core search -- which itself uses the
leaf modules :mod:`repro.resilience.budgets` and
:mod:`repro.resilience.errors`.
"""

from __future__ import annotations

import queue
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder, SearchStats
from repro.netlist.circuit import Circuit
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs.aggregate import record_resource_usage
from repro.obs.logging import get_logger
from repro.obs.progress import (
    HeartbeatPublisher,
    ProgressBoard,
    ProgressRenderer,
)
from repro.resilience.budgets import CompletenessReport, OriginOutcome
from repro.resilience.checkpoint import (
    CheckpointWriter,
    config_fingerprint,
    load_checkpoint,
)
from repro.resilience.errors import ResilienceError, SearchInterrupted
from repro.resilience.workers import (
    CRASHED,
    FINISHED,
    POLL_SECONDS,
    TIMED_OUT,
    Attempt,
    PoolTask,
    WorkerPool,
)

_log = get_logger("repro.resilience")

#: One shard's wire format: paths, SearchStats.as_dict(), delaycalc
#: counter deltas, per-origin completeness outcome dicts.
ShardResult = Tuple[
    List[TimedPath], Dict[str, float], Dict[str, int], Dict[str, Dict]
]

#: The delaycalc counters folded across shards into the parent registry.
DELTA_KEYS = (
    "delaycalc.arc_evaluations",
    "delaycalc.arc_cache_hits",
    "delaycalc.arc_cache_misses",
    "delaycalc.arc_substitutions",
)


def _init_worker(circuit: Circuit, charlib: CharacterizedLibrary,
                 calc_kwargs: Dict, finder_kwargs: Dict,
                 fault_plan: object, beats: bool,
                 compiled_tables: object = None) -> Tuple:
    ec = EngineCircuit(circuit)
    # The parent's compiled timing tables (slew fixed point, worst-arc
    # delays, pruning bounds) are derived purely from circuit + corner:
    # seeding them gives byte-identical values without redoing the
    # sweeps once per worker process.
    calc = DelayCalculator(ec, charlib, compiled=compiled_tables,
                           **calc_kwargs)
    return ec, calc, finder_kwargs, fault_plan, beats


def run_shard(ec: EngineCircuit, calc: DelayCalculator, finder_kwargs: Dict,
              origins: Sequence[str],
              progress: object = None) -> ShardResult:
    """One shard's search, in whatever process this runs in."""
    before = (calc.arc_evaluations, calc.arc_cache_hits,
              calc.arc_cache_misses, calc.arc_substitutions)
    if progress is not None:
        progress.started()
    finder = PathFinder(ec, calc, progress=progress, **finder_kwargs)
    with finder.find_paths(inputs=origins) as stream:
        paths = list(stream)
    if progress is not None:
        progress.done(
            extensions=finder.stats.extensions_tried, paths=len(paths),
            best=max((p.worst_arrival for p in paths), default=None))
    deltas = {
        "delaycalc.arc_evaluations": calc.arc_evaluations - before[0],
        "delaycalc.arc_cache_hits": calc.arc_cache_hits - before[1],
        "delaycalc.arc_cache_misses": calc.arc_cache_misses - before[2],
        "delaycalc.arc_substitutions": calc.arc_substitutions - before[3],
    }
    outcomes = {
        name: outcome.as_dict()
        for name, outcome in finder.completeness.origins.items()
    }
    return paths, finder.stats.as_dict(), deltas, outcomes


def _search_shard(state: Tuple, payload: Tuple[str, int],
                  emit) -> ShardResult:
    """Pool task: one origin's search in a worker; beats go out over
    the task pipe."""
    ec, calc, finder_kwargs, fault_plan, beats = state
    origin, attempt = payload
    if fault_plan is not None:
        fault_plan.before_shard(origin, attempt, in_worker=True)
    result = run_shard(ec, calc, finder_kwargs, [origin],
                       progress=HeartbeatPublisher(emit, origin)
                       if beats else None)
    record_resource_usage()
    return result


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs (all have production-safe defaults)."""

    jobs: int = 1
    #: Wall-clock deadline per pooled shard *attempt* (None = no
    #: deadline).  Guards against hung workers; a shard that merely
    #: runs long is retried and ultimately completed by the serial
    #: fallback, so results never change -- only placement does.
    shard_timeout: Optional[float] = None
    #: Re-queue attempts per shard beyond the first try.
    shard_retries: int = 2
    #: Base of the exponential backoff before a retry is resubmitted
    #: (``backoff * 2**attempt`` seconds; 0 disables sleeping).
    retry_backoff: float = 0.05
    #: Run a shard in-process after its retries are exhausted.
    serial_fallback: bool = True
    checkpoint_path: Optional[str] = None
    resume_path: Optional[str] = None
    #: Render a throttled live progress line (origins done/total,
    #: extensions, best bound, ETA) on stderr.
    progress: bool = False
    #: Treat a pooled shard whose *heartbeat* goes silent this long as
    #: hung (its worker is killed and the shard retried, like a
    #: deadline expiry) -- unlike ``shard_timeout`` this distinguishes a
    #: stalled shard from a merely slow one, which keeps beating.  None
    #: disables.
    heartbeat_timeout: Optional[float] = None


@dataclass
class SupervisedResult:
    """Merged outcome of one supervised run."""

    paths: List[TimedPath]
    stats: SearchStats
    completeness: CompletenessReport
    #: Shards adopted from the resume checkpoint without re-searching.
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def degraded(self) -> bool:
        return not self.completeness.complete


@dataclass(eq=False)  # identity semantics: compared in retry entries
class _Shard:
    """Supervisor-side bookkeeping for one origin."""

    origin: str
    attempts: int = 0
    result: Optional[ShardResult] = None
    status: str = "pending"
    submitted_at: Optional[float] = None
    #: Metrics for this shard already landed in the parent registry
    #: (telemetry merge for pooled shards, direct publication for
    #: in-process ones); the merge must not publish them again.
    published: bool = False


class ShardSupervisor:
    """Runs the per-origin shards of one search under supervision.

    One instance covers one search invocation; :meth:`run` is the only
    entry point.  ``jobs == 1`` runs every shard in-process (no pool)
    through the identical bookkeeping/merge/checkpoint code, which is
    the reference for the equivalence tests.
    """

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        calc_kwargs: Dict,
        finder_kwargs: Dict,
        config: SupervisorConfig,
        fault_plan: object = None,
    ):
        self.circuit = circuit
        self.charlib = charlib
        self.calc_kwargs = dict(calc_kwargs)
        self.finder_kwargs = dict(finder_kwargs)
        self.config = config
        self.fault_plan = fault_plan
        #: Parent-computed :class:`~repro.core.tarrays.CompiledTables`
        #: shipped to every worker (and any in-process fallback
        #: calculator).  Deliberately not part of ``calc_kwargs``: it is
        #: derived state, excluded from the checkpoint fingerprint.
        self.compiled_tables = None
        self._ec: Optional[EngineCircuit] = None
        self._calc: Optional[DelayCalculator] = None
        self._completed_count = 0
        self._writer: Optional[CheckpointWriter] = None
        self._board: Optional[ProgressBoard] = None
        self.metrics = {
            "worker_crashes": 0,
            "shard_timeouts": 0,
            "heartbeat_stalls": 0,
            "shard_retries": 0,
            "serial_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    def _in_process_context(self) -> Tuple[EngineCircuit, DelayCalculator]:
        """Lazy parent-process search context (serial mode, fallbacks)."""
        if self._ec is None:
            self._ec = EngineCircuit(self.circuit)
            self._calc = DelayCalculator(self._ec, self.charlib,
                                         compiled=self.compiled_tables,
                                         **self.calc_kwargs)
        return self._ec, self._calc

    def attach_parent_context(self, ec: EngineCircuit,
                              calc: DelayCalculator) -> None:
        """Reuse an already-built circuit/calculator (the parallel
        driver builds one to precompute pruning bounds)."""
        self._ec, self._calc = ec, calc

    # ------------------------------------------------------------------
    def run(self, origins: Sequence[str]) -> SupervisedResult:
        shards = [_Shard(origin) for origin in origins]
        if self.config.progress or self.config.heartbeat_timeout is not None:
            renderer = ProgressRenderer() if self.config.progress else None
            self._board = ProgressBoard(len(shards), renderer=renderer)
        fingerprint = config_fingerprint(
            self.circuit.name, list(origins),
            {**self.finder_kwargs, **self.calc_kwargs,
             "budgets": self._budget_dict()},
        )
        resumed = self._adopt_resume(shards, fingerprint)
        if self.config.checkpoint_path:
            self._writer = CheckpointWriter(
                self.config.checkpoint_path, self.circuit.name, fingerprint,
            )
            # Carry adopted shards forward so a later resume of the new
            # checkpoint still covers them.
            for shard in shards:
                if shard.result is not None:
                    self._record_checkpoint(shard)

        if self._board is not None:
            for shard in shards:
                if shard.result is not None:  # adopted from the resume
                    self._board.mark_done(shard.origin,
                                          paths=len(shard.result[0]))
        pending = [s for s in shards if s.result is None]
        interrupted = False
        try:
            if pending:
                if self.config.jobs > 1:
                    self._run_pooled(pending)
                else:
                    self._run_serial(pending)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if self._board is not None:
                self._board.close()

        result = self._merge(shards, resumed, interrupted)
        if interrupted:
            exc = SearchInterrupted(
                f"search interrupted after {self._completed_count} "
                "completed shard(s); merged partial results preserved"
                + (f" in checkpoint {self.config.checkpoint_path}"
                   if self.config.checkpoint_path else "")
            )
            exc.partial = result
            raise exc
        return result

    def _budget_dict(self) -> Optional[Dict]:
        budgets = self.finder_kwargs.get("budgets")
        return budgets.as_dict() if budgets is not None else None

    # ------------------------------------------------------------------
    def _adopt_resume(self, shards: List[_Shard], fingerprint: str) -> int:
        if not self.config.resume_path:
            return 0
        checkpoint = load_checkpoint(self.config.resume_path, fingerprint)
        adopted = 0
        by_origin = {s.origin: s for s in shards}
        for origin in checkpoint.completed_origins():
            shard = by_origin.get(origin)
            if shard is None:
                continue
            status, paths, stats, deltas = checkpoint.shard_result(origin)
            outcome = OriginOutcome(origin, status,
                                    paths_found=len(paths)).as_dict()
            shard.result = (paths, stats, deltas, {origin: outcome})
            shard.status = status
            adopted += 1
        _log.info("supervisor.resumed", path=self.config.resume_path,
                  adopted=adopted, total=len(shards))
        return adopted

    def _record_checkpoint(self, shard: _Shard) -> None:
        if self._writer is None or shard.result is None:
            return
        paths, stats, deltas, outcomes = shard.result
        self._writer.record(shard.origin, shard.status, paths, stats, deltas)
        obs_export.instant("resilience.checkpoint_write",
                           origin=shard.origin, status=shard.status)

    # ------------------------------------------------------------------
    def _finish_shard(self, shard: _Shard, result: ShardResult) -> None:
        """Take a shard's result, whose metrics already reached this
        registry: merged by :meth:`~repro.resilience.workers.Attempt.accept`
        for a pooled attempt, published at stream close in-process."""
        shard.result = result
        shard.published = True
        outcome = result[3].get(shard.origin)
        shard.status = outcome["status"] if outcome else "complete"
        self._completed_count += 1
        self._record_checkpoint(shard)
        if (self.fault_plan is not None
                and getattr(self.fault_plan, "interrupt_after", None)
                is not None
                and self._completed_count >= self.fault_plan.interrupt_after):
            # Deterministic SIGINT simulation for the fault harness:
            # exercises the exact KeyboardInterrupt unwind path.
            raise KeyboardInterrupt

    def _fail_shard(self, shard: _Shard, reason: str) -> None:
        """Retries and fallback exhausted: degrade, don't die."""
        shard.status = "failed"
        shard.result = (
            [], SearchStats().as_dict(), {key: 0 for key in DELTA_KEYS},
            {shard.origin: OriginOutcome(shard.origin, "failed").as_dict()},
        )
        self._completed_count += 1
        if self._board is not None:
            self._board.mark_done(shard.origin)
        self._record_checkpoint(shard)
        _log.error("supervisor.shard_failed", origin=shard.origin,
                   attempts=shard.attempts, reason=reason)

    # ------------------------------------------------------------------
    def _run_serial(self, pending: List[_Shard]) -> None:
        ec, calc = self._in_process_context()
        for shard in pending:
            if self.fault_plan is not None:
                self.fault_plan.before_shard(shard.origin, shard.attempts,
                                             in_worker=False)
            shard.attempts += 1
            self._finish_shard(
                shard,
                run_shard(ec, calc, self.finder_kwargs, [shard.origin],
                          progress=self._local_progress(shard.origin)),
            )

    def _local_progress(self, origin: str) -> Optional[HeartbeatPublisher]:
        """In-process shards beat straight into the board, no queue."""
        if self._board is None:
            return None
        return HeartbeatPublisher(self._board.update, origin)

    # ------------------------------------------------------------------
    def _run_pooled(self, pending: List[_Shard]) -> None:
        config = self.config
        todo: Deque[_Shard] = deque(pending)
        retry_at: List[Tuple[float, _Shard]] = []
        in_flight: Dict[PoolTask, _Shard] = {}
        # Beats and finished attempts arrive on the pool's supervising
        # threads; this queue hands both to this thread, in pipe order.
        events: "queue.Queue[Tuple[str, object]]" = queue.Queue()
        pool = WorkerPool(
            config.jobs, _init_worker,
            (self.circuit, self.charlib, self.calc_kwargs,
             self.finder_kwargs, self.fault_plan, self._board is not None,
             self.compiled_tables),
            _search_shard, name="shard",
            on_message=lambda _task, beat: events.put(("beat", beat)),
        )
        try:
            while todo or in_flight or retry_at:
                now = time.monotonic()
                # Promote retries whose backoff has elapsed.
                for entry in [e for e in retry_at if e[0] <= now]:
                    retry_at.remove(entry)
                    todo.append(entry[1])
                while todo and len(in_flight) < config.jobs:
                    shard = todo.popleft()
                    task = pool.submit((shard.origin, shard.attempts),
                                       label=shard.origin,
                                       timeout=config.shard_timeout)
                    task.future.add_done_callback(
                        lambda _f, task=task: events.put(("done", task)))
                    shard.attempts += 1
                    shard.submitted_at = time.monotonic()
                    if self._board is not None:
                        # A stale beat from a previous attempt must not
                        # mask a silent retry.
                        self._board.last_beat.pop(shard.origin, None)
                    in_flight[task] = shard
                if not in_flight:
                    # Only backed-off retries remain: sleep to the next.
                    time.sleep(max(0.0, min(t for t, _ in retry_at)
                                   - time.monotonic()))
                    continue
                try:
                    event = events.get(timeout=POLL_SECONDS)
                    while True:
                        kind, item = event
                        if kind == "beat":
                            self._board.update(item)
                        else:
                            self._settle(in_flight.pop(item),
                                         item.future.result(), todo,
                                         retry_at)
                        event = events.get_nowait()
                except queue.Empty:
                    pass
                if config.heartbeat_timeout is not None:
                    self._kill_stalled(pool, in_flight)
        finally:
            pool.shutdown()

    def _settle(self, shard: _Shard, attempt: Attempt,
                todo: Deque[_Shard],
                retry_at: List[Tuple[float, _Shard]]) -> None:
        """Apply the retry policy to one finished pooled attempt."""
        if attempt.status == FINISHED and attempt.error is None:
            self._finish_shard(shard, attempt.accept())
            return
        if attempt.status == FINISHED:
            if isinstance(attempt.error, ResilienceError):
                # Policy decision (missing arc under `error`, checkpoint
                # mismatch...): deterministic, so a retry cannot help.
                raise attempt.error
            _log.warning("supervisor.shard_error", origin=shard.origin,
                         attempt=shard.attempts, error=str(attempt.error))
        elif attempt.status == CRASHED:
            self.metrics["worker_crashes"] += 1
            obs_export.instant("resilience.worker_crash",
                               origins=shard.origin)
            _log.warning("supervisor.worker_crash", origins=shard.origin,
                         exitcode=attempt.exitcode)
        elif attempt.status == TIMED_OUT:
            self.metrics["shard_timeouts"] += 1
            obs_export.instant("resilience.shard_timeout",
                               origin=shard.origin, attempt=shard.attempts)
            _log.warning("supervisor.shard_timeout", origin=shard.origin,
                         attempt=shard.attempts,
                         timeout=self.config.shard_timeout)
        # KILLED: a heartbeat stall, already counted by _kill_stalled.
        self._requeue(shard, todo, retry_at)

    def _kill_stalled(self, pool: WorkerPool,
                      in_flight: Dict[PoolTask, _Shard]) -> None:
        """Kill the worker of every shard whose beats went silent (a
        slow shard keeps beating; a stalled one does not)."""
        now = time.monotonic()
        for task, shard in in_flight.items():
            age = self._board.beat_age(shard.origin)
            if age is None:
                age = now - shard.submitted_at
            if age > self.config.heartbeat_timeout and pool.kill(task):
                self.metrics["heartbeat_stalls"] += 1
                obs_export.instant("resilience.heartbeat_stall",
                                   origin=shard.origin, silent_s=round(age, 3))
                _log.warning("supervisor.heartbeat_stall",
                             origin=shard.origin, attempt=shard.attempts,
                             silent_s=age)

    def _requeue(self, shard: _Shard, todo: Deque[_Shard],
                 retry_at: List[Tuple[float, _Shard]]) -> None:
        """Schedule a failed attempt for retry, or exhaust into the
        serial fallback."""
        if shard.attempts <= self.config.shard_retries:
            self.metrics["shard_retries"] += 1
            obs_export.instant("resilience.shard_retry",
                               origin=shard.origin, attempt=shard.attempts)
            backoff = self.config.retry_backoff * (2 ** (shard.attempts - 1))
            if backoff > 0:
                retry_at.append((time.monotonic() + backoff, shard))
            else:
                todo.append(shard)
            return
        if self.config.serial_fallback:
            self.metrics["serial_fallbacks"] += 1
            obs_export.instant("resilience.serial_fallback",
                               origin=shard.origin, attempts=shard.attempts)
            _log.warning("supervisor.serial_fallback", origin=shard.origin,
                         attempts=shard.attempts)
            ec, calc = self._in_process_context()
            try:
                self._finish_shard(
                    shard,
                    run_shard(ec, calc, self.finder_kwargs, [shard.origin],
                              progress=self._local_progress(shard.origin)),
                )
            except KeyboardInterrupt:
                raise
            except ResilienceError:
                raise
            except Exception as exc:
                self._fail_shard(shard, f"serial fallback failed: {exc}")
            return
        self._fail_shard(shard, "retries exhausted, serial fallback disabled")

    # ------------------------------------------------------------------
    def _merge(self, shards: List[_Shard], resumed: int,
               interrupted: bool) -> SupervisedResult:
        """Fold shard results in origin declaration order and publish
        the merged totals -- identical semantics to the plain parallel
        driver, plus completeness and resilience accounting."""
        max_paths = self.finder_kwargs.get("max_paths")
        paths: List[TimedPath] = []
        merged = SearchStats()
        # Shards whose metrics never reached this registry -- adopted
        # from a resume checkpoint, or recorded as failed -- are
        # published here from their checkpointed stats/deltas.  Pooled
        # shards arrived via telemetry shipping and in-process shards
        # published at stream close; re-publishing either would double
        # count (which the old unconditional publish did for every
        # supervised serial run).
        unpublished = SearchStats()
        totals: Dict[str, int] = {key: 0 for key in DELTA_KEYS}
        completeness = CompletenessReport()
        for shard in shards:
            if shard.result is None:
                completeness.origins[shard.origin] = OriginOutcome(
                    shard.origin, "skipped"
                )
                continue
            shard_paths, stats_dict, deltas, outcomes = shard.result
            if max_paths is None or len(paths) < max_paths:
                paths.extend(shard_paths)
            merged.merge(stats_dict)
            if not shard.published:
                unpublished.merge(stats_dict)
                for key, value in deltas.items():
                    totals[key] = totals.get(key, 0) + value
            for name, outcome in outcomes.items():
                completeness.origins[name] = OriginOutcome.from_dict(outcome)
        if max_paths is not None:
            del paths[max_paths:]

        name = self.circuit.name
        unpublished.publish(name)
        registry = obs_metrics.REGISTRY
        for key in DELTA_KEYS:
            value = totals.get(key, 0)
            registry.counter(key).inc(value)
            registry.counter(key, circuit=name).inc(value)
        for key, value in self.metrics.items():
            registry.counter(f"resilience.{key}").inc(value)
        degraded = len(completeness.degraded_origins())
        registry.counter("resilience.degraded_origins").inc(degraded)
        if resumed:
            registry.counter("resilience.resumed_shards").inc(resumed)
        _log.debug("supervisor.done", circuit=name, shards=len(shards),
                   paths=len(paths), degraded=degraded, resumed=resumed,
                   interrupted=interrupted, **self.metrics)
        return SupervisedResult(
            paths=paths,
            stats=merged,
            completeness=completeness,
            resumed_shards=resumed,
            interrupted=interrupted,
        )
