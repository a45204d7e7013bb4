"""One supervised worker-process pool for search shards and service requests.

Both parallel layers run on :class:`WorkerPool`: the supervised search
(:class:`repro.resilience.supervisor.ShardSupervisor`, one task per
origin shard) and the service fleet
(:class:`repro.service.fleet.WorkerFleet`, one task per request).  Each
of the N *slots* is one long-lived forked worker, the duplex pipe that
carries its tasks, and a parent-side supervising thread.  A worker runs
one task at a time, so every failure points at exactly one task and
costs exactly one worker: a crash (pipe EOF or a dead process), a
task's hard wall deadline, or :meth:`WorkerPool.kill` ends that worker,
and the slot respawns it for its next task.

The pool does **not** retry and names no counters: a task's future
resolves to an :class:`Attempt` (finished, crashed, timed out or
killed) and each caller applies its own policy.  Workers ignore SIGINT
(the parent owns interruption), close the sockets they inherited across
the fork (another slot's pipe or a client connection would otherwise be
held open), and ship their metrics as a per-task
:class:`~repro.obs.aggregate.RegistryShipper` delta.  Messages a task
emits while it runs (search progress beats) travel over the same pipe
to the pool's ``on_message`` callback.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import stat
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import tracing as obs_tracing
from repro.obs.aggregate import (
    RegistryShipper,
    ShardTelemetry,
    merge_shard_telemetry,
)
from repro.obs.logging import get_logger

_log = get_logger("repro.resilience")

#: Supervision poll period (seconds): how often a busy slot checks its
#: worker's liveness, its task's deadline and kill requests.
POLL_SECONDS = 0.05

#: Attempt outcomes.
FINISHED = "finished"
CRASHED = "crashed"
TIMED_OUT = "timed-out"
KILLED = "killed"


@dataclass
class Attempt:
    """How one task attempt ended: ``FINISHED`` carries the handler's
    ``value`` (or the exception it raised as ``error``); the other
    statuses mean the worker is gone (``exitcode`` is its status)."""

    status: str
    value: Any = None
    error: Optional[BaseException] = None
    telemetry: Optional[ShardTelemetry] = None
    exitcode: Optional[int] = None

    def accept(self) -> Any:
        """Merge the worker's telemetry into this process's registry
        (once) and return the value.  The caller takes the result on its
        own thread, so an attempt it discards never reaches the
        registry."""
        if self.telemetry is not None:
            merge_shard_telemetry(self.telemetry)
            self.telemetry = None
        return self.value


@dataclass(eq=False)  # identity semantics: tasks key caller dicts
class PoolTask:
    """One submitted task; ``future`` resolves to its :class:`Attempt`."""

    payload: Any
    #: Telemetry label of the shipment (gauges merge under
    #: ``shard=<label>``); None = ``<pool name>-pid<worker pid>``.
    label: Optional[str] = None
    #: Hard wall deadline of the attempt, in seconds (None = none).
    timeout: Optional[float] = None
    future: Future = field(default_factory=Future)
    kill_requested: bool = False


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close every inherited socket fd but the task pipe (``keep_fd``,
    itself a socketpair); non-socket fds (log files, the multiprocessing
    resource tracker) are left alone."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        return
    for fd in fds:
        if fd <= 2 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn, name: str, init: Callable, init_args: Sequence,
                 handler: Callable, tracing: Tuple[bool, bool]) -> None:
    """Build the worker state once, then run ``handler(state, payload,
    emit)`` per task and send the outcome.  Exits on pipe EOF, so an
    orphaned worker cannot outlive its parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _close_inherited_sockets(conn.fileno())
    # Mirror the parent's tracing switches (a fork inherits them, a
    # spawn does not).
    if tracing[0]:
        obs_tracing.enable()
    if tracing[1]:
        obs_tracing.capture_events()
    state = init(*init_args)
    shipper = RegistryShipper()
    # Absorb fork-inherited and init-time metrics, spans and events.
    shipper.collect("__init__")

    def emit(message: Any) -> None:
        conn.send(("message", message))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        payload, label = message
        label = label or f"{name}-pid{os.getpid()}"
        try:
            value = handler(state, payload, emit)
        except Exception as exc:
            # A failed attempt ships nothing: absorb whatever it
            # recorded so the next task on this worker does not ship it.
            shipper.collect(label)
            reply = ("error", exc)
        else:
            reply = ("done", value, shipper.collect(label))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


#: ``fork`` where available: workers inherit warm in-process state
#: (charlib memo, compiled tables) and start in milliseconds.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


class _Slot:
    """One worker process plus its parent-side supervising thread."""

    def __init__(self, pool: "WorkerPool", index: int):
        self.pool = pool
        self.index = index
        self.process = None
        self.conn = None
        #: The task executing in this slot's worker (read by
        #: :meth:`WorkerPool.running`; plain attribute, GIL-consistent).
        self.current: Optional[PoolTask] = None
        self.thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"repro-{pool.name}-supervisor-{index}")
        self.thread.start()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def _spawn(self) -> None:
        parent_conn, child_conn = _CONTEXT.Pipe()
        pool = self.pool
        process = _CONTEXT.Process(
            target=_worker_main,
            args=(child_conn, pool.name, pool.init, pool.init_args,
                  pool.handler,
                  (obs_tracing.enabled(), obs_tracing.events_enabled())),
            name=f"repro-{pool.name}-worker-{self.index}",
        )
        process.start()
        child_conn.close()
        self.process, self.conn = process, parent_conn
        _log.info("workers.spawned", pool=pool.name, slot=self.index,
                  pid=process.pid)
        if pool.on_spawn is not None:
            pool.on_spawn()

    def kill(self) -> Optional[int]:
        """Stop this slot's worker (if any) and reap it; returns its
        exit code."""
        process, conn = self.process, self.conn
        self.process = self.conn = None
        if conn is not None:
            conn.close()
        if process is None:
            return None
        if process.is_alive():
            process.terminate()
            process.join(2.0)
            if process.is_alive():
                process.kill()
        process.join(2.0)
        return process.exitcode

    def _run(self) -> None:
        while True:
            task = self.pool._tasks.get()
            if task is None:
                break
            try:
                attempt = self._execute(task)
            except Exception as exc:  # supervision must never die
                _log.error("workers.supervision_error", pool=self.pool.name,
                           slot=self.index,
                           error=f"{type(exc).__name__}: {exc}")
                attempt = Attempt(CRASHED, error=exc,
                                  exitcode=self.kill())
            task.future.set_result(attempt)
        self.kill()

    def _execute(self, task: PoolTask) -> Attempt:
        if task.kill_requested or self.pool._closed:
            return Attempt(KILLED)
        if not self.alive():
            self.kill()
            self._spawn()
        self.current = task
        try:
            self.conn.send((task.payload, task.label))
            return self._supervise(task, time.monotonic())
        except (OSError, EOFError):
            return Attempt(CRASHED, exitcode=self.kill())
        finally:
            self.current = None

    def _supervise(self, task: PoolTask, started: float) -> Attempt:
        """Poll the worker until it answers, dies, outlives the task's
        deadline, or is killed."""
        while True:
            if self.conn.poll(POLL_SECONDS):
                try:
                    kind, *body = self.conn.recv()
                except Exception:  # EOF, or an unreadable message
                    kind = None
                if kind == "done":
                    return Attempt(FINISHED, value=body[0],
                                   telemetry=body[1])
                if kind == "error":
                    return Attempt(FINISHED, error=body[0])
                if kind != "message":
                    return Attempt(CRASHED, exitcode=self.kill())
                if self.pool.on_message is not None:
                    self.pool.on_message(task, body[0])
            elif not self.process.is_alive():
                return Attempt(CRASHED, exitcode=self.kill())
            if task.kill_requested or self.pool._closed:
                return Attempt(KILLED, exitcode=self.kill())
            if (task.timeout is not None
                    and time.monotonic() - started > task.timeout):
                return Attempt(TIMED_OUT, exitcode=self.kill())


class WorkerPool:
    """N supervised worker slots sharing one FIFO task queue.

    ``init(*init_args)`` builds each worker's state once, in the worker;
    ``handler(state, payload, emit)`` runs one task there and returns a
    picklable value (``emit(message)`` sends a message to
    ``on_message(task, message)`` in the parent while the task runs).
    Under ``fork`` the three are inherited; elsewhere they must pickle.
    """

    def __init__(self, size: int, init: Callable, init_args: Sequence,
                 handler: Callable, *, name: str = "pool",
                 on_message: Optional[Callable[[PoolTask, Any], None]] = None,
                 on_spawn: Optional[Callable[[], None]] = None):
        if size < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {size}")
        self.name = name
        self.init = init
        self.init_args = tuple(init_args)
        self.handler = handler
        self.on_message = on_message
        self.on_spawn = on_spawn
        self._closed = False
        self._tasks: "queue.Queue[Optional[PoolTask]]" = queue.Queue()
        self._slots = [_Slot(self, index) for index in range(size)]

    def submit(self, payload: Any, label: Optional[str] = None,
               timeout: Optional[float] = None) -> PoolTask:
        """Queue one task; the first idle slot runs it."""
        task = PoolTask(payload, label=label, timeout=timeout)
        if self._closed:
            task.future.set_result(Attempt(KILLED))
        else:
            self._tasks.put(task)
        return task

    def kill(self, task: PoolTask) -> bool:
        """Kill the worker running ``task`` (a queued task is dropped
        when a slot picks it up).  Returns whether a kill was newly
        requested; the task's attempt resolves ``killed`` within one
        poll period."""
        if task.future.done() or task.kill_requested:
            return False
        task.kill_requested = True
        return True

    def running(self) -> List[PoolTask]:
        """Tasks executing in a worker right now."""
        return [slot.current for slot in self._slots
                if slot.current is not None]

    def alive(self) -> int:
        """Number of live worker processes."""
        return sum(1 for slot in self._slots if slot.alive())

    def shutdown(self) -> None:
        """Kill every busy worker, drop queued tasks (both resolve
        ``killed``), stop idle workers and reap them all."""
        self._closed = True
        for _ in self._slots:
            self._tasks.put(None)
        for slot in self._slots:
            slot.thread.join(5.0)
            slot.kill()
        while not self._tasks.empty():  # raced in behind the stop markers
            task = self._tasks.get_nowait()
            if task is not None:
                task.future.set_result(Attempt(KILLED))
