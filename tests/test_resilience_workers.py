"""The shared worker pool and the exact accounting it gives its callers.

:class:`repro.resilience.workers.WorkerPool` runs one task per worker,
so every crash, hang or kill is charged to exactly one task and costs
exactly one worker.  The pool-level tests drive it with toy handlers;
the supervisor-level tests pin the consequences for the sharded search:
crash counts no longer depend on which peers happened to be in flight,
and no worker process outlives a run.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap
from repro.perf import supervised_find_paths
from repro.resilience.workers import (
    CRASHED,
    FINISHED,
    KILLED,
    TIMED_OUT,
    WorkerPool,
)
from repro.verify.faults import FaultPlan


def _init(offset):
    return {"offset": offset}


def _handle(state, payload, emit):
    """Toy task: ``(op, arg)`` -- add, beat, crash, hang or fail."""
    op, arg = payload
    if op == "add":
        obs.counter("toy.tasks").inc()
        return state["offset"] + arg
    if op == "beat":
        for index in range(arg):
            emit(index)
        return "beaten"
    if op == "crash":
        os._exit(arg)
    if op == "hang":
        time.sleep(arg)
        return "woke"
    raise ValueError(f"bad toy op {arg}")


@pytest.fixture
def pool():
    pool = WorkerPool(2, _init, (100,), _handle, name="toy")
    yield pool
    pool.shutdown()


def _outcome(task, timeout=30.0):
    return task.future.result(timeout=timeout)


class TestPoolAttempts:
    def test_finished_value_and_handler_error(self, pool):
        assert _outcome(pool.submit(("add", 1))).value == 101
        failed = _outcome(pool.submit(("fail", "x")))
        assert failed.status == FINISHED
        assert isinstance(failed.error, ValueError)
        # A raising task leaves its worker usable.
        assert _outcome(pool.submit(("add", 2))).value == 102

    def test_crash_costs_one_task_and_the_worker_respawns(self, pool):
        crashed = _outcome(pool.submit(("crash", 7)))
        assert crashed.status == CRASHED
        assert crashed.exitcode == 7
        assert _outcome(pool.submit(("add", 5))).value == 105

    def test_deadline_kills_only_the_hung_worker(self, pool):
        hung = pool.submit(("hang", 60.0), timeout=0.5)
        quick = pool.submit(("hang", 1.0))
        assert _outcome(hung).status == TIMED_OUT
        assert _outcome(quick).value == "woke"

    def test_kill_targets_one_task(self, pool):
        victim = pool.submit(("hang", 60.0))
        peer = pool.submit(("hang", 1.0))
        deadline = time.monotonic() + 10.0
        while victim not in pool.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.kill(victim)
        assert not pool.kill(victim)  # already requested
        assert _outcome(victim).status == KILLED
        assert _outcome(peer).value == "woke"

    def test_messages_arrive_in_order_before_the_result(self):
        seen = []
        pool = WorkerPool(1, _init, (0,), _handle, name="toy",
                          on_message=lambda task, msg: seen.append(msg))
        try:
            assert _outcome(pool.submit(("beat", 5))).value == "beaten"
        finally:
            pool.shutdown()
        assert seen == [0, 1, 2, 3, 4]

    def test_telemetry_reaches_registry_only_when_accepted(self, pool,
                                                           clean_obs):
        taken = _outcome(pool.submit(("add", 0), label="kept"))
        dropped = _outcome(pool.submit(("add", 0), label="dropped"))
        assert clean_obs.counter("toy.tasks").value == 0
        taken.accept()
        taken.accept()  # idempotent: the delta merges once
        assert clean_obs.counter("toy.tasks").value == 1
        assert dropped.telemetry is not None

    def test_shutdown_resolves_busy_and_queued_tasks(self):
        pool = WorkerPool(1, _init, (0,), _handle, name="toy")
        busy = pool.submit(("hang", 60.0))
        queued = pool.submit(("add", 1))
        pool.shutdown()
        assert _outcome(busy).status == KILLED
        assert _outcome(queued).status == KILLED
        assert _outcome(pool.submit(("add", 1))).status == KILLED
        assert pool.alive() == 0
        assert multiprocessing.active_children() == []

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            WorkerPool(0, _init, (0,), _handle)


def _circuit():
    return techmap(random_dag("wk21", 6, 35, seed=21, n_outputs=3))


class TestSupervisorOnPool:
    def test_exact_crash_accounting(self, charlib_poly_90, clean_obs):
        """Each worker runs one shard, so a crash with a peer in flight
        is charged to the crasher alone: three crashes, two retries, one
        degraded origin -- independent of scheduling."""
        circuit = _circuit()
        victim = circuit.inputs[1]
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, serial_fallback=False,
            retry_backoff=0.0,
            fault_plan=FaultPlan(crash_origins=(victim,),
                                 crash_attempts=(0, 1, 2)),
        )
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.worker_crashes").value == 3
        assert registry.counter("resilience.shard_retries").value == 2
        assert registry.counter("resilience.degraded_origins").value == 1
        assert list(result.completeness.degraded_origins()) == [victim]

    def test_no_worker_outlives_the_run(self, charlib_poly_90, clean_obs):
        circuit = _circuit()
        crasher, sleeper = circuit.inputs[0], circuit.inputs[2]
        result = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, shard_timeout=3.0,
            retry_backoff=0.0,
            fault_plan=FaultPlan(crash_origins=(crasher,),
                                 hang_origins=(sleeper,),
                                 hang_seconds=60.0),
        )
        assert result.completeness.complete
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.worker_crashes").value == 1
        assert registry.counter("resilience.shard_timeouts").value == 1
        assert multiprocessing.active_children() == []
