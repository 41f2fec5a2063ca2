"""Substrate performance: event throughput of the simulation engine.

Not a paper table -- this tracks the cost of the reproduction itself so
regressions in the engine hot path are caught (the 32-node GE study
simulates ~40M events and is directly gated by this number).

The machine-readable result lands in three places: the bench results
directory, a top-level ``BENCH_engine.json`` (the cross-PR perf
trajectory, committed), and the run ledger (``repro history`` /
``repro baseline check``).
"""

import gc
import json
import time
from pathlib import Path

from conftest import write_result

from repro.experiments.report import format_table
from repro.experiments.runner import marked_speed_of, run_ge
from repro.machine.sunwulf import ge_configuration
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.sim.flight import FlightRecorder
from repro.sim.trace import Tracer

N = 300
NODES = 8

#: Sweep mode: how throughput scales with the simulated machine, not just
#: the headline point.  Each (nodes, N) pair is timed directly with
#: ``perf_counter`` (one warm-up + best of SWEEP_REPEATS); the headline
#: (NODES, N) point above stays pytest-benchmark-timed so the committed
#: trajectory remains comparable across PRs.
SWEEP_POINTS = ((2, 150), (4, 220), (8, 300))
SWEEP_REPEATS = 3

#: Interleaved bare / flight / traced rounds for the instrumentation
#: overhead legs.  Pairing within one process is the only comparison that
#: survives container timer noise; best-of-N on each side rejects the
#: scheduler outliers.
OVERHEAD_REPEATS = 5

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sweep_rows() -> list[dict]:
    rows = []
    for nodes, n in SWEEP_POINTS:
        cluster = ge_configuration(nodes)
        marked = marked_speed_of(cluster)
        run_ge(cluster, n, marked=marked)  # warm-up (imports, caches)
        best = 0.0
        events = 0
        for _ in range(SWEEP_REPEATS):
            t0 = time.perf_counter()
            record = run_ge(cluster, n, marked=marked)
            dt = time.perf_counter() - t0
            events = record.run.events
            rate = events / dt
            if rate > best:
                best = rate
        rows.append(
            {
                "nodes": nodes,
                "n": n,
                "events_per_run": events,
                "events_per_second": best,
            }
        )
    return rows


def _overhead_legs(cluster, marked) -> tuple[dict, dict]:
    """Bare vs flight-recorded vs traced throughput, interleaved in this
    process; returns ``(flight_overhead, traced_overhead)``.

    The flight recorder is always-on instrumentation when attached (the
    engine's record hook is then the ring's prebound append), so its cost
    is a gated budget: the measured overhead at the default capacity must
    stay under 5% (the dominant term is the ring's eviction-time cache
    misses, which grow with capacity -- see ``repro.sim.flight``).  The
    traced leg (a :class:`Tracer` plus a :class:`MetricsRegistry`, fed by
    one fan-out of the same record tuples) is reported, not gated.
    """
    flight = FlightRecorder()  # default capacity + watchdog, as shipped
    legs = {
        "bare": lambda: run_ge(cluster, N, marked=marked),
        "flight": lambda: run_ge(cluster, N, marked=marked, flight=flight),
        "traced": lambda: run_ge(cluster, N, marked=marked, tracer=Tracer(),
                                 metrics=MetricsRegistry()),
    }
    for leg in legs.values():
        leg()  # warm-up
    best = dict.fromkeys(legs, 0.0)
    for _ in range(OVERHEAD_REPEATS):
        for name, leg in legs.items():
            # A traced run's record holds ~22k tuples: free it and reset
            # the collector's counts outside the timed window, so no leg
            # pays for another leg's garbage.
            gc.collect()
            t0 = time.perf_counter()
            record = leg()
            dt = time.perf_counter() - t0
            best[name] = max(best[name], record.run.events / dt)
            del record
    flight_overhead = {
        "capacity": flight.capacity,
        "bare_events_per_second": best["bare"],
        "flight_events_per_second": best["flight"],
        "overhead_fraction": 1.0 - best["flight"] / best["bare"],
    }
    traced_overhead = {
        "bare_events_per_second": best["bare"],
        "traced_events_per_second": best["traced"],
        "overhead_fraction": 1.0 - best["traced"] / best["bare"],
    }
    return flight_overhead, traced_overhead


def test_engine_event_throughput(benchmark, results_dir):
    cluster = ge_configuration(NODES)
    marked = marked_speed_of(cluster)

    def one_run():
        return run_ge(cluster, N, marked=marked)

    record = benchmark(one_run)

    events = record.run.events
    seconds = benchmark.stats.stats.mean
    throughput = events / seconds
    sweep = _sweep_rows()
    overhead, traced = _overhead_legs(cluster, marked)
    text = format_table(
        ["metric", "value"],
        [("simulated events per run", events),
         ("mean wall time (s)", seconds),
         ("events / second", throughput)]
        + [
            (f"sweep {row['nodes']} nodes, N={row['n']} (ev/s)",
             row["events_per_second"])
            for row in sweep
        ]
        + [
            (f"flight recorder K={overhead['capacity']} (ev/s)",
             overhead["flight_events_per_second"]),
            ("flight overhead (fraction)",
             f"{overhead['overhead_fraction']:.4f}"),
            ("tracer + metrics (ev/s)", traced["traced_events_per_second"]),
            ("traced overhead (fraction)",
             f"{traced['overhead_fraction']:.4f}"),
        ],
        title=f"Engine throughput (GE, {NODES} nodes, N={N})",
    )
    write_result(results_dir, "engine_throughput", text)

    # Machine-readable trajectory point so PRs can diff engine perf.  The
    # headline fields keep their shape (the CI regression gate and older
    # BENCH_engine.json snapshots compare them); the sweep rides along.
    payload = {
        "bench": "engine_throughput",
        "app": "ge",
        "nodes": NODES,
        "n": N,
        "events_per_run": events,
        "mean_wall_seconds": seconds,
        "events_per_second": throughput,
        "sweep": sweep,
        "flight_overhead": overhead,
        "traced_overhead": traced,
    }
    text = json.dumps(payload, indent=2) + "\n"
    (results_dir / "BENCH_engine.json").write_text(text)
    # Top-level copy: the perf trajectory PRs diff against each other.
    (REPO_ROOT / "BENCH_engine.json").write_text(text)
    RunLedger(REPO_ROOT / ".repro" / "ledger").record_bench(payload)

    assert throughput > 20_000  # regression floor; typically ~200k/s
    # The CI gate holds the flight-recorder budget at 5%; this in-bench
    # backstop only catches a gross fast-lane regression (the measured
    # cost at the default capacity is ~3%).
    assert overhead["overhead_fraction"] < 0.10, overhead
