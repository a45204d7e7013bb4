"""Repo benchmark entry point.

    python3 perfbench/run.py --workload batch-analysis --seed 1 \
        --seconds 15 --trace 0

Runs one workload (``batch-analysis``, ``eco-edits`` or ``service-mix``)
against the program in ``src/`` of this checkout, checks every output,
prints each metric by name with its unit plus every check's verdict,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from the benchmark's own spans and the program's obs counters)
with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR, EXIT_NO_PROGRAM, EXIT_PRECONDITION, SRC, TRACE_DIR,
    BenchmarkError, Outcome, Tracer, activate, delta, environment, median,
    percentile, program_present, reap, reap_all, spawn, tail,
)

WORKLOADS = ("batch-analysis", "eco-edits", "service-mix")
#: In-process set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Per-layer counters read as exact deltas of the program's registry.
COUNTERS = (
    "pathfinder.extensions_tried", "pathfinder.justification_cubes",
    "pathfinder.justification_backtracks", "pathfinder.conflicts",
    "pathfinder.pruned", "pathfinder.bound_prunes",
    "pathfinder.justify_skipped", "pathfinder.paths_found",
    "delaycalc.arc_evaluations", "incremental.cone_gates",
    "incremental.levels_reswept", "incremental.full_rebuilds",
    "incremental.soa_recompiles",
)
#: Span self times (benchmark spans) reported per layer.
SPAN_LAYERS = {
    "charlib.load_s": "charlib.load",
    "netlist.load_s": "netlist.load",
    "core.compile_s": "core.compile",
    "pathfinder.search_s": "pathfinder.search",
    "gba.run_s": "gba.run",
}


def load_spec():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


#: The program modules whose import is the first term of ``setup_s``.
PUBLIC_MODULES = ("repro.core.graphsta", "repro.core.incremental",
                  "repro.core.sta", "repro.service.requests")
#: Fresh interpreters timed importing them; ``setup_s`` takes the median
#: (one in-process import alone spread by a third between runs).
IMPORT_REPEATS = 5
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "started = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - started)\n"
)


def measure_imports() -> float:
    """Median seconds a fresh interpreter takes to import the program's
    public modules; then imports them into this process."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = spawn([sys.executable, "-c", _IMPORT_PROBE, *PUBLIC_MODULES],
                     stdout=subprocess.PIPE, text=True)
        try:
            output, _ = proc.communicate()
        finally:
            reap(proc)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing the program exited "
                                 f"{proc.returncode}")
        times.append(float(output.split()[-1]))
    for name in PUBLIC_MODULES:
        importlib.import_module(name)
    return median(times)


def setup_timer(import_s: float, tracer: Tracer):
    """``setup_s(fn)``: run ``fn(tracer)`` ``SETUP_REPEATS`` times; return
    imports + the median set-up time, and the last set-up's state."""
    def measure(setup_once):
        times = []
        state = None
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            state = setup_once(tracer)
            times.append(time.perf_counter() - started)
        return import_s + median(times), state
    return measure


def layer_metrics(out: Outcome, tracer: Tracer, spec) -> dict:
    """Every per-layer metric of BENCHMARK.json, 0 where the workload
    does not exercise the layer."""
    values = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
    selfs = tracer.self_times()
    for metric, span_name in SPAN_LAYERS.items():
        values[metric] = selfs.get(span_name, 0.0)
    values.update(out.layers)
    before, after = out.counters
    for name in COUNTERS:
        values[name] = delta(after, before, name)
    program_spans = out.program_spans
    values["pathfinder.justify_s"] = program_spans.get(
        "pathfinder.justify", {}).get("total_s", 0.0)
    values["pathfinder.delaycalc_s"] = program_spans.get(
        "pathfinder.delaycalc", {}).get("total_s", 0.0)
    hits = delta(after, before, "delaycalc.arc_cache_hits")
    misses = delta(after, before, "delaycalc.arc_cache_misses")
    values["delaycalc.arc_cache_hit_ratio"] = hits / max(hits + misses, 1)
    tried = values["pathfinder.extensions_tried"]
    values["pathfinder.paths_per_extension"] = (
        values["pathfinder.paths_found"] / tried if tried else 0.0)
    values["pathfinder.us_per_extension"] = (
        values["pathfinder.search_s"] / tried * 1e6 if tried else 0.0)
    values["trace.overhead_pct"] = out.notes.get("trace_overhead_pct", 0.0)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def end_to_end(out: Outcome, spec) -> dict:
    ok = out.attempted - out.failed - out.notes.get("refused", 0)
    values = {
        "setup_s": out.setup_s,
        "ops_per_s": out.attempted / out.elapsed_s,
        "latency_p50_ms": percentile(out.latencies_s, 50) * 1e3,
        "latency_tail_ms": tail(out.latencies_s)[0] * 1e3,
        "success_ratio": ok / out.attempted,
        "peak_rss_mb": out.peak_rss_mb,
        "goodput_rps": out.goodput_rps,
        "max_rps_slo": out.max_rps_slo,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def run_workload(name: str, seed: int, seconds: float,
                 tracer: Tracer) -> Outcome:
    if name == "service-mix":
        import service_mix

        return service_mix.run(seed, seconds, tracer)
    import_s = measure_imports()
    measure = setup_timer(import_s, tracer)
    if name == "batch-analysis":
        import batch_analysis

        return batch_analysis.run(seed, seconds, tracer, measure)
    import eco_edits

    return eco_edits.run(seed, seconds, tracer, measure)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination signal unwinds like an exception, so every child
    # process is still reaped on the way out.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _terminate)
    if not program_present():
        print(f"perfbench: program sources not found under {SRC}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return EXIT_NO_PROGRAM
    try:
        activate()
        spec = load_spec()
        import prepare

        stamp = prepare.ensure_prepared()
        libraries = prepare.library_files()
        tracer = Tracer()
        if args.trace:
            tracer.switch(True)
        out = run_workload(args.workload, args.seed, args.seconds, tracer)
        prepare.assert_no_new_libraries(libraries)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        reap_all()
    e2e = end_to_end(out, spec)
    if args.trace:
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(out, tracer, spec)
    else:
        metrics = e2e
    record = environment(args.seed, args.workload, bool(args.trace))
    record["charlib.characterize_s"] = stamp["characterize_s"]
    record.update(out.notes)
    _, record["latency_tail_percentile"], record["latency_samples"] = tail(
        out.latencies_s)
    record["latency_limit_ms"] = out.latency_limit_ms
    record["fail_ratio"] = 1.0 - e2e["success_ratio"]["value"]
    print("environment: " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name}: {metric['value']!r} {metric['unit']}")
    for check in out.checks:
        verdict = "PASS" if check.ok else "FAIL"
        print(f"check {verdict}: {check.name}"
              + (f" ({check.detail})" if check.detail else ""))
    correct = all(check.ok for check in out.checks)
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
