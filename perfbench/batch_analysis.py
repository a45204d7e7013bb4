"""``batch-analysis``: the paper's own use case as a closed loop.

A single caller runs jobs back to back.  Each job builds a fresh
context (``load_circuit`` -> ``TruePathSTA`` -> pruning bounds) and runs
an N-worst true-path search.  Jobs come in *decks*: every deck holds the
same multiset of circuit classes, the seed shuffles the order and
rotates each job through the 90/65/130 nm corners, and a run always
ends on a deck boundary, so every seed measures the same mix of work.

ECC circuits (c499, c1355) are absent on purpose: a single
``justify()`` call on them runs unbounded (see README.md), and an
in-process closed loop has no way to stop it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    Outcome, Tracer, clock, counters, delta, median, peak_rss_mb,
    replay_max_rate,
)

CORNERS = ("90nm", "65nm", "130nm")


@dataclass(frozen=True)
class JobClass:
    spec: str
    n_worst: int
    max_paths: int
    per_deck: int


#: One deck, about 6 s on 2 cores (per job: c17 and c432@0.05 under
#: 0.01 s, c6288@0.25 0.1 s, c880a@0.25 0.19 s at 65 nm and 0.26 s at
#: 90/130 nm, c1908@0.3 0.8-0.9 s, c432 0.9-1.05 s, c2670@0.2 1.5-1.9 s).
#: c880a@0.25 runs twice per corner in every deck, so over ``k`` decks
#: the jobs sort into 4k below it, its 2k 65 nm jobs, its 4k 90/130 nm
#: jobs, then 4k above: the median (ranks 7k, 7k+1) always falls among
#: the 90/130 nm c880a@0.25 jobs, k ranks from the block's lower edge.
#: With three or four copies per deck it fell on the edge between the
#: 65 nm and the 90/130 nm jobs and jumped by a third between seeds.
#: The tail (the 11th largest job) falls among the c432 jobs, or the
#: c1908@0.3 ones just below them when a run completes only three decks.
DECK = (
    JobClass("c17", 10, 20000, 1),
    JobClass("c432@0.05", 10, 20000, 1),
    JobClass("c6288@0.25", 10, 20000, 2),
    JobClass("c880a@0.25", 10, 20000, 6),
    JobClass("c432", 10, 20000, 2),
    JobClass("c1908@0.3", 10, 20000, 1),
    JobClass("c2670@0.2", 10, 200, 1),
)
#: Jobs small enough for the exhaustive differential oracle in well
#: under a second (c6288@0.25, also 8 inputs, takes 8-11 s per corner).
ORACLE_SPECS = ("c17", "c432@0.05")
#: A job slower than this misses its latency limit (goodput).
LATENCY_LIMIT_S = 3.0
#: Fixed ladder of offered rates (jobs/s) for ``max_rps_slo``.
RATE_LADDER = [round(0.1 * 1.02 ** k, 4) for k in range(400)]

Job = Tuple[JobClass, str]


def make_decks(seed: int, count: int) -> List[List[Job]]:
    """``count`` decks; deck ``d`` gives copy ``j`` of a class the
    corner ``(offset + d + j) mod 3`` with a seeded per-class offset."""
    rng = random.Random(seed)
    offsets = {cls.spec: rng.randrange(len(CORNERS)) for cls in DECK}
    decks = []
    for d in range(count):
        deck = [
            (cls, CORNERS[(offsets[cls.spec] + d + j) % len(CORNERS)])
            for cls in DECK for j in range(cls.per_deck)
        ]
        rng.shuffle(deck)
        decks.append(deck)
    return decks


def load_libraries(tracer: Tracer) -> Dict[str, object]:
    """Load every corner's characterized library from the disk cache."""
    from repro.charlib.characterize import FAST_GRID, characterize_library
    from repro.gates.library import default_library
    from repro.tech.presets import TECHNOLOGIES

    library = default_library()
    with tracer.span("charlib.load"):
        return {corner: characterize_library(library, TECHNOLOGIES[corner],
                                             grid=FAST_GRID)
                for corner in CORNERS}


def setup_once(tracer: Tracer) -> Dict[str, object]:
    """One set-up: library load, circuit build, first compile."""
    from repro.core.sta import TruePathSTA
    from repro.service.requests import load_circuit

    charlibs = load_libraries(tracer)
    with tracer.span("netlist.load"):
        circuit = load_circuit("iscas:c432")
    with tracer.span("core.compile"):
        sta = TruePathSTA(circuit, charlibs["90nm"])
        sta.calc.required_bounds()
        sta.calc.remaining_bounds()
    return charlibs


def run_job(job: Job, charlibs: Dict[str, object], tracer: Tracer,
            op: int):
    from repro.core.sta import TruePathSTA
    from repro.service.requests import load_circuit

    cls, corner = job
    with tracer.span("job", op):
        with tracer.span("netlist.load", op):
            circuit = load_circuit(f"iscas:{cls.spec}")
        with tracer.span("core.compile", op):
            sta = TruePathSTA(circuit, charlibs[corner])
            sta.calc.required_bounds()
            sta.calc.remaining_bounds()
        with tracer.span("pathfinder.search", op):
            paths = sta.n_worst_paths(cls.n_worst, max_paths=cls.max_paths)
    return paths


def run_decks(decks: List[List[Job]], charlibs, tracer: Tracer,
              seconds: Optional[float], first_op: int = 0):
    """Run whole decks until ``seconds`` have passed (or all of them
    when ``seconds`` is None).  Returns ``(results, elapsed)`` with one
    ``(job, latency_s, paths | exception)`` per job."""
    results = []
    started = clock()
    op = first_op
    for deck in decks:
        for job in deck:
            begun = clock()
            try:
                outcome = run_job(job, charlibs, tracer, op)
            except Exception as exc:  # counted as a failed operation
                outcome = exc
            results.append((job, clock() - begun, outcome))
            op += 1
        if seconds is not None and clock() - started >= seconds:
            break
    return results, clock() - started


def signature(paths) -> Tuple:
    return tuple((p.worst_arrival, p.describe()) for p in paths)


def check_results(results, charlibs, tracer: Tracer, out: Outcome) -> None:
    """Every job: worst true-path arrival <= the GBA worst endpoint
    arrival, and repeats of one (class, corner) agree exactly."""
    from repro.core.graphsta import GraphSTA
    from repro.service.requests import load_circuit

    gba_worst: Dict[Job, float] = {}
    first: Dict[Job, Tuple] = {}
    bad_bound = bad_repeat = errors = 0
    for job, _, paths in results:
        if isinstance(paths, Exception):
            errors += 1
            out.failed += 1
            continue
        if job not in gba_worst:
            cls, corner = job
            with tracer.span("gba.run"):
                circuit = load_circuit(f"iscas:{cls.spec}")
                gba = GraphSTA(circuit, charlibs[corner]).run()
            gba_worst[job] = max(gba.worst_arrival(net)
                                 for net in circuit.outputs)
        worst = max((p.worst_arrival for p in paths), default=0.0)
        sig = signature(paths)
        ok_bound = bool(paths) and worst <= gba_worst[job] * (1 + 1e-9)
        ok_repeat = first.setdefault(job, sig) == sig
        bad_bound += not ok_bound
        bad_repeat += not ok_repeat
        out.failed += not (ok_bound and ok_repeat)
    out.check("job errors", errors == 0, f"{errors} raised")
    out.check("true-path worst <= GBA worst", bad_bound == 0,
              f"{bad_bound} of {len(results)} jobs violate")
    out.check("repeated jobs identical", bad_repeat == 0,
              f"{bad_repeat} of {len(results)} jobs differ")


def check_oracle(charlibs, tracer: Tracer, out: Outcome) -> None:
    from repro.service.requests import load_circuit
    from repro.verify import run_oracle

    summaries = []
    ok = True
    for spec in ORACLE_SPECS:
        for corner in CORNERS:
            with tracer.span("oracle.check"):
                report = run_oracle(load_circuit(f"iscas:{spec}"),
                                    charlibs[corner])
            ok = ok and report.ok
            summaries.append(f"{corner}: {report.summary()}")
    out.check(f"exhaustive oracle on {', '.join(ORACLE_SPECS)}", ok,
              "; ".join(summaries))


def run(seed: int, seconds: float, tracer: Tracer, setup_s) -> Outcome:
    """``setup_s`` is a callable timing one set-up (see run.py)."""
    from repro.obs import tracing

    out = Outcome(latency_limit_ms=LATENCY_LIMIT_S * 1e3)
    out.setup_s, charlibs = setup_s(setup_once)
    decks = make_decks(seed, 64)
    before = counters()
    if tracer.enabled:
        # Same decks untraced, then traced: the gap is the overhead.
        tracer.switch(False)
        plain, plain_s = run_decks(decks, charlibs, tracer, seconds / 2)
        tracer.switch(True)
        results, elapsed = run_decks(decks[:len(plain) // len(decks[0])],
                                     charlibs, tracer, None,
                                     first_op=len(plain))
        out.notes["trace_overhead_pct"] = (elapsed / plain_s - 1) * 100
        results = plain + results
        elapsed += plain_s
    else:
        results, elapsed = run_decks(decks, charlibs, tracer, seconds)
    after = counters()
    out.program_spans = tracing.aggregates()
    out.peak_rss_mb = peak_rss_mb()
    out.elapsed_s = elapsed
    out.attempted = len(results)
    out.latencies_s = [latency for _, latency, _ in results]
    out.notes["decks"] = len(results) // sum(c.per_deck for c in DECK)
    out.notes["rate_ladder"] = [RATE_LADDER[0], RATE_LADDER[-1], "x1.02"]
    by_class: Dict[str, List[float]] = {}
    for (cls, _), latency, _ in results:
        by_class.setdefault(cls.spec, []).append(latency)
    out.notes["job_ms"] = {spec: round(median(values) * 1e3, 1)
                           for spec, values in by_class.items()}
    check_results(results, charlibs, tracer, out)
    check_oracle(charlibs, tracer, out)
    out.check("no characterization in timed region",
              delta(after, before, "charlib.cache_misses") == 0)
    ok_latencies = [lat for _, lat, paths in results
                    if not isinstance(paths, Exception)]
    out.goodput_rps = sum(lat <= LATENCY_LIMIT_S
                          for lat in ok_latencies) / elapsed
    out.max_rps_slo = replay_max_rate(out.latencies_s, RATE_LADDER,
                                      LATENCY_LIMIT_S)
    out.counters = (before, after)
    return out
