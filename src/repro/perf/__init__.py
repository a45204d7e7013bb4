"""Hot-path performance layer for the single-pass search.

One public entry point: :func:`supervised_find_paths`, the parallel
driver that shards the search across primary inputs (each origin's
search is independent -- the paper's natural partition), merges the
per-origin streams back into the calling process, including its metrics
registry, and returns the full
:class:`~repro.resilience.supervisor.SupervisedResult` (paths, merged
stats, per-origin completeness, resume accounting).  It runs under the
:mod:`repro.resilience.supervisor` -- worker crashes, shard timeouts
and SIGINT degrade or retry instead of killing the run.  The serial
hot-path pieces (arc-resolution memoization, justify-skip) live
directly in :mod:`repro.core.delaycalc` and
:mod:`repro.core.pathfinder`; see ``docs/PERFORMANCE.md`` for how to
measure them and ``docs/ROBUSTNESS.md`` for the supervision knobs.
"""

from repro.perf.parallel import supervised_find_paths

__all__ = ["supervised_find_paths"]
