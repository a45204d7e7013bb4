"""``eco-edits``: the optimization loop's write path as a closed loop.

One :class:`~repro.core.incremental.IncrementalSTA` session over full
c7552.  Each operation is a seeded pin-compatible ``replace_cell``
followed by a timing read (``arrivals()`` + ``required_bounds()`` ->
worst endpoint arrival and slack).  Repaired cones range from a few
gates to more than a thousand, so edits come in *decks*: candidate
gates are split into bins by the size of the cone an edit can dirty,
every deck edits one seeded gate per bin, and a run ends on a deck
boundary.  No true-path search
runs, so a ``pathfinder`` change must leave this workload unchanged.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from common import (
    Outcome, Tracer, clock, counters, delta, peak_rss_mb, replay_max_rate,
)

CIRCUIT = "iscas:c7552"
CORNER = "90nm"
#: Cone-size bins per deck (one edit each).
BINS = 32
#: An edit + read slower than this misses its latency limit (goodput).
LATENCY_LIMIT_S = 2.0
#: Fixed ladder of offered rates (edits/s) for ``max_rps_slo``.
RATE_LADDER = [round(0.5 * 1.02 ** k, 4) for k in range(400)]
#: Clock period as a multiple of the initial worst arrival (slack read).
CLOCK_MARGIN = 1.05

Edit = Tuple[str, str]  # (instance, new cell)


def setup_once(tracer: Tracer):
    """One set-up: library load, c7552 build, session initial analysis."""
    from repro.charlib.characterize import FAST_GRID, characterize_library
    from repro.core.incremental import IncrementalSTA
    from repro.gates.library import default_library
    from repro.service.requests import load_circuit
    from repro.tech.presets import TECHNOLOGIES

    with tracer.span("charlib.load"):
        charlib = characterize_library(default_library(),
                                       TECHNOLOGIES[CORNER], grid=FAST_GRID)
    with tracer.span("netlist.load"):
        circuit = load_circuit(CIRCUIT)
    with tracer.span("core.compile"):
        session = IncrementalSTA(circuit, charlib)
        session.refresh()
    return charlib, circuit, session


def structural_cones(circuit) -> Dict[str, int]:
    """Per instance, the gates an edit of it can dirty: the transitive
    fanout of the instance and of the drivers of its input nets (their
    loads change).  Bitsets over a reverse topological sweep."""
    order = circuit.topological()
    index = {inst.name: k for k, inst in enumerate(order)}
    fanout: Dict[str, int] = {}
    for inst in reversed(order):
        bits = 1 << index[inst.name]
        for sink, _ in circuit.fanout_of(inst.output_net):
            bits |= fanout[sink.name]
        fanout[inst.name] = bits
    cones = {}
    for inst in order:
        bits = fanout[inst.name]
        for net in inst.pins.values():
            driver = circuit.driver_of(net)
            if driver is not None:
                bits |= fanout[driver.name]
        cones[inst.name] = bits.bit_count()
    return cones


class EditPlan:
    """Edits in decks of one gate per cone-size bin.

    The deck contents are the same for every seed (drawn once with a
    fixed generator, every gate edited at most once per run); the seed
    orders the edits inside each deck.  Which gate of a bin is edited
    moves the repaired cone far more than its bin does: with gates drawn
    per seed, the spread of the median latency over five seeds was 0.42
    of the median (0.10 with fixed gates)."""

    def __init__(self, circuit, seed: int):
        pools: Dict[Tuple[str, ...], List[str]] = {}
        for cell in circuit.library:
            pools.setdefault(tuple(cell.inputs), []).append(cell.name)
        cones = structural_cones(circuit)
        candidates = sorted(
            (cones[name], name) for name, inst in circuit.instances.items()
            if len(pools.get(tuple(inst.cell.inputs), ())) > 1)
        size = len(candidates) / BINS
        draw = random.Random(0)
        bins = []
        for b in range(BINS):
            names = [name for _, name in
                     candidates[int(b * size):int((b + 1) * size)]]
            draw.shuffle(names)
            bins.append(names)
        self.decks: List[List[Edit]] = []
        for row in zip(*bins):
            deck = []
            for name in row:
                current = circuit.instances[name].cell
                options = [c for c in pools[tuple(current.inputs)]
                           if c != current.name]
                deck.append((name, draw.choice(options)))
            self.decks.append(deck)
        self.rng = random.Random(seed)
        self.next = 0

    def deck(self) -> List[Edit]:
        edits = list(self.decks[self.next])
        self.next += 1
        self.rng.shuffle(edits)
        return edits


def timing_read(session, outputs: List[int]) -> float:
    """Worst endpoint arrival from the session's arrivals; the required
    bounds are read as the loop's second query."""
    arrivals = session.arrivals()
    session.required_bounds()
    return max(a for net in outputs for a in arrivals[net] if a is not None)


def run_edits(session, plan: EditPlan, outputs, period: float,
              tracer: Tracer, seconds: float, first_op: int = 0,
              decks: int = 0):
    """Whole decks until ``seconds`` have passed (or exactly ``decks``
    decks when given).  One ``(latency, edit_s, query_s, cone, slack |
    exception)`` row per edit."""
    rows = []
    started = clock()
    op = first_op
    done = 0
    while True:
        for name, cell in plan.deck():
            begun = clock()
            try:
                with tracer.span("op", op):
                    with tracer.span("incremental.edit", op):
                        report = session.replace_cell(name, cell)
                    edited = clock()
                    with tracer.span("incremental.query", op):
                        slack = period - timing_read(session, outputs)
                finished = clock()
                rows.append((finished - begun, edited - begun,
                             finished - edited, report.cone_gates, slack))
            except Exception as exc:  # counted as a failed operation
                rows.append((clock() - begun, 0.0, 0.0, 0, exc))
            op += 1
        done += 1
        if decks and done >= decks:
            break
        if not decks and clock() - started >= seconds:
            break
    return rows, clock() - started, done


def check_against_scratch(session, charlib, circuit, tracer: Tracer,
                          out: Outcome) -> None:
    """The edited session must equal a from-scratch session on the
    final circuit: arrivals, slews and both bound tables."""
    from repro.core.incremental import IncrementalSTA

    with tracer.span("core.compile"):
        scratch = IncrementalSTA(circuit, charlib)
        scratch.refresh()
    same = (session.arrivals() == scratch.arrivals()
            and session.slews() == scratch.slews()
            and session.required_bounds() == scratch.required_bounds()
            and session.suffix_bounds() == scratch.suffix_bounds())
    out.check("session == from-scratch session on final circuit", same)
    if not same:
        out.failed += 1


def run(seed: int, seconds: float, tracer: Tracer, setup_s) -> Outcome:
    from repro.obs import tracing

    out = Outcome(latency_limit_ms=LATENCY_LIMIT_S * 1e3)
    out.setup_s, (charlib, circuit, session) = setup_s(setup_once)
    plan = EditPlan(circuit, seed)
    outputs = [session.ec.net_id[name] for name in circuit.outputs]
    period = CLOCK_MARGIN * timing_read(session, outputs)
    before = counters()
    if tracer.enabled:
        tracer.switch(False)
        plain, plain_s, decks = run_edits(session, plan, outputs, period,
                                          tracer, seconds / 2)
        tracer.switch(True)
        rows, elapsed, _ = run_edits(session, plan, outputs, period, tracer,
                                     seconds, first_op=len(plain),
                                     decks=decks)
        out.notes["trace_overhead_pct"] = (elapsed / plain_s - 1) * 100
        rows = plain + rows
        elapsed += plain_s
    else:
        rows, elapsed, _ = run_edits(session, plan, outputs, period, tracer,
                                     seconds)
    after = counters()
    out.program_spans = tracing.aggregates()
    out.peak_rss_mb = peak_rss_mb()
    out.elapsed_s = elapsed
    out.attempted = len(rows)
    out.latencies_s = [row[0] for row in rows]
    errors = sum(isinstance(row[4], Exception) for row in rows)
    out.failed += errors
    out.check("edit errors", errors == 0, f"{errors} raised")
    check_against_scratch(session, charlib, circuit, tracer, out)
    out.check("no characterization in timed region",
              delta(after, before, "charlib.cache_misses") == 0)
    out.check("no search ran in the edit loop",
              delta(after, before, "pathfinder.extensions_tried") == 0)
    ok = [row for row in rows if not isinstance(row[4], Exception)]
    out.goodput_rps = sum(row[0] <= LATENCY_LIMIT_S for row in ok) / elapsed
    out.max_rps_slo = replay_max_rate(out.latencies_s, RATE_LADDER,
                                      LATENCY_LIMIT_S)
    cone = sum(row[3] for row in ok)
    edit_s = sum(row[1] for row in ok)
    out.layers.update({
        "incremental.edit_s": edit_s,
        "incremental.query_s": sum(row[2] for row in ok),
        "incremental.us_per_cone_gate": edit_s / max(cone, 1) * 1e6,
    })
    out.notes["decks"] = len(rows) // BINS
    out.notes["rate_ladder"] = [RATE_LADDER[0], RATE_LADDER[-1], "x1.02"]
    out.notes["mean_cone_gates"] = cone / max(len(ok), 1)
    out.counters = (before, after)
    return out
