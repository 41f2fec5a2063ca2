"""Golden fixtures for what the engine's record stream feeds its sinks.

Two runs cover every record kind the engine emits: a small Gaussian
elimination under a fault schedule (slowdown, link degradation and a
crash with restart, so the trace also carries the injector's ``fault``
records) and a hand-written program that yields compute, send, recv,
multicast, a timed-out recv and a log record.

* ``golden_trace.json`` is the Chrome trace of both runs.
* ``golden_metrics.json`` is the :class:`~repro.obs.MetricsRegistry`
  snapshot plus the :class:`~repro.obs.StructLogger` ``sim.op`` events of
  both runs, with wall-clock fields stripped.

The comparison is exact: a change to how the engine reports its events
shows up here as a mismatch.  Regenerate only when an *intentional*
change is made to what the sinks receive::

    PYTHONPATH=src python tests/obs/test_golden_records.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import run_app
from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    NodeSlowdown,
    make_fault_launcher,
)
from repro.machine.presets import mixed_pairs
from repro.network.model import UniformCostNetwork
from repro.obs import MetricsRegistry, StructLogger, chrome_trace_events
from repro.sim.engine import Engine
from repro.sim.events import Compute, Log, Multicast, Recv, Send
from repro.sim.trace import Tracer

TRACE_FIXTURE = Path(__file__).parent / "golden_trace.json"
METRICS_FIXTURE = Path(__file__).parent / "golden_metrics.json"

_SCHEDULE = FaultSchedule((
    NodeSlowdown(rank=1, onset=0.0, duration=None, severity=0.5),
    LinkDegradation(onset=0.0, duration=None, bandwidth_factor=0.5,
                    latency_factor=2.0),
    NodeCrash(rank=2, at=0.001, restart_delay=0.002,
              recompute_seconds=0.0005),
))

#: Gauges that measure the host, not the simulation.
_WALL_GAUGES = ("engine_wall_seconds", "engine_events_per_second")


def _program(rank: int):
    """Every engine record kind on three ranks, timed-out receive included."""
    if rank == 0:
        yield Compute(flops=2e3)
        yield Log("phase one")
        yield Send(1, 24.0, tag=3)
        yield Multicast((0, 1, 2), 8.0, tag=5)
        yield Compute(seconds=0.05)
        yield Send(2, 16.0, tag=9)
    elif rank == 1:
        yield Recv(src=0, tag=3)
        yield Recv(src=0, tag=5)
        yield Compute(flops=1e3)
    else:
        got = yield Recv(src=0, tag=9, timeout=0.01)
        assert got is None
        yield Recv(src=0, tag=5)
        yield Recv(src=0, tag=9)
        yield Log("done")


def _run(ge_tracer=None, hand_tracer=None, metrics=None) -> None:
    run_app("ge", mixed_pairs(2), 12, tracer=ge_tracer, metrics=metrics,
            launcher=make_fault_launcher(_SCHEDULE))
    Engine(3, UniformCostNetwork(0.01), [1e5] * 3, tracer=hand_tracer,
           metrics=metrics).run(_program)


def golden_trace() -> list[dict]:
    ge, hand = Tracer(), Tracer()
    _run(ge_tracer=ge, hand_tracer=hand)
    return chrome_trace_events([("ge-faults", ge), ("hand", hand)])


def golden_metrics() -> dict:
    registry = MetricsRegistry()
    _run(metrics=registry)
    snapshot = registry.to_dict()
    snapshot["gauges"] = [
        g for g in snapshot["gauges"] if g["name"] not in _WALL_GAUGES
    ]
    logger = StructLogger()
    _run(metrics=logger)
    ops = [
        {k: v for k, v in event.items() if k != "ts_utc"}
        for event in logger.events
        if event["event"] == "sim.op"
    ]
    return {"registry": snapshot, "sim_op_events": ops}


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_chrome_trace_matches_golden_fixture():
    assert _roundtrip(golden_trace()) == json.loads(TRACE_FIXTURE.read_text())


def test_metrics_match_golden_fixture():
    assert _roundtrip(golden_metrics()) == json.loads(
        METRICS_FIXTURE.read_text()
    )


def test_fixtures_cover_every_record_kind():
    kinds = {e.get("cat") for e in json.loads(TRACE_FIXTURE.read_text())}
    assert {"compute", "send", "recv", "multicast", "recv-timeout", "log",
            "fault"} <= kinds


def regen() -> None:
    for path, obj in ((TRACE_FIXTURE, golden_trace()),
                      (METRICS_FIXTURE, golden_metrics())):
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
