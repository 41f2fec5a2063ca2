"""Export :class:`~repro.sim.trace.Tracer` records as Chrome trace-event JSON.

The output is the "JSON Array Format" understood by ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_: a flat list of event objects.  Each
simulated run becomes one process (``pid``), each rank one thread (``tid``);
``compute`` / ``send`` / ``recv`` / ``multicast`` records become complete
duration events (``ph: "X"``) and ``log`` records become instant events
(``ph: "i"``).  ``fault`` records (appended by the fault injector) render
as their own instant-event track: category ``fault``, named after the
fault kind, so slowdowns / crashes / restarts / drops line up against the
rank timelines.  Records with a negative rank (network-level fault events)
go to a dedicated ``network`` pseudo-thread (tid :data:`NETWORK_TID`)
instead of being folded into rank 0.  Virtual seconds are scaled to microseconds, the unit the
trace viewers expect.

Every emitted event carries the full ``ph``/``ts``/``dur``/``pid``/``tid``
field set so downstream tooling can treat the array uniformly.  Duration
events carry the record's detail string (rendered once, by
:func:`~repro.sim.trace.render_record`) under ``args.detail``.  The same
per-record events make up a flight-recorder dump's ``traceEvents``
(:func:`flight_trace_events`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

from ..sim.trace import TraceRecord, Tracer, render_record

#: Virtual seconds -> trace-viewer microseconds.
MICROSECONDS: float = 1e6

#: Thread id of the ``network`` pseudo-track: records with a negative rank
#: (network-level fault events like ``link.degraded``) land here, safely
#: above any plausible real rank id so the track sorts after the ranks.
NETWORK_TID: int = 1_000_000

#: Accepted input: one tracer, or ``(label, tracer)`` pairs / TraceRun-likes.
TraceInput = Union[Tracer, Sequence[Any]]


def _runs(trace: TraceInput) -> list[tuple[str, Tracer]]:
    """Normalize the input to a list of ``(label, tracer)`` pairs."""
    if isinstance(trace, Tracer):
        return [("run", trace)]
    runs: list[tuple[str, Tracer]] = []
    for item in trace:
        if isinstance(item, Tracer):
            runs.append((f"run {len(runs) + 1}", item))
        elif hasattr(item, "label") and hasattr(item, "tracer"):
            runs.append((item.label, item.tracer))
        else:
            label, tracer = item
            runs.append((str(label), tracer))
    return runs


def _rank_track_name(rank: int, topology: Any) -> str:
    """Thread-track label for a rank, annotated with its placement when a
    topology is supplied (``rank 3 [node 1/rack 0]``)."""
    if topology is None:
        return f"rank {rank}"
    try:
        node, rack, zone = topology.placement(rank)
    except Exception:
        return f"rank {rank}"
    where = f"node {node}/rack {rack}"
    if getattr(topology, "nzones", 1) > 1:
        where += f"/zone {zone}"
    return f"rank {rank} [{where}]"


def chrome_trace_events(
    trace: TraceInput,
    time_scale: float = MICROSECONDS,
    topology: Any = None,
) -> list[dict[str, Any]]:
    """Convert traced runs to a list of Chrome trace-event dicts.

    ``trace`` is a single :class:`Tracer` or an iterable of ``(label,
    tracer)`` pairs (e.g. :class:`~repro.experiments.runner.TraceCollector`
    ``.runs``); each run gets its own ``pid`` starting at 1.  Metadata
    events name the processes after the run labels and the threads
    ``rank <r>``.  When ``topology`` (a
    :class:`~repro.network.topology.Topology`) is given, each rank track
    carries its node/rack(/zone) placement so hierarchical-network traces
    group visually by tier.
    """
    events: list[dict[str, Any]] = []
    for pid, (label, tracer) in enumerate(_runs(trace), start=1):
        events.extend(
            _record_events(map(render_record, tracer.raw), pid, label,
                           time_scale, topology)
        )
        if tracer.dropped:
            events.append({
                "name": f"{tracer.dropped} records dropped (tracer limit)",
                "cat": "tracer", "ph": "i", "ts": 0, "dur": 0,
                "pid": pid, "tid": 0, "s": "p",
                # Machine-readable mirror of the name, so tooling can
                # detect truncated traces without string parsing.
                "args": {"dropped": tracer.dropped,
                         "stored": len(tracer.raw)},
            })
    return events


def flight_trace_events(
    records: Sequence[TraceRecord],
    reason: dict[str, Any],
    time_scale: float = MICROSECONDS,
) -> list[dict[str, Any]]:
    """Chrome trace events of a flight-recorder dump.

    The retained records render exactly like a traced run (one process,
    ``pid`` 0, named ``flight recorder``), preceded by a global
    ``flight_dump`` instant event whose args carry the dump reason.
    """
    events = _record_events(records, 0, "flight recorder", time_scale, None)
    events.insert(1, {
        "name": "flight_dump", "ph": "i", "s": "g", "ts": 0, "dur": 0,
        "pid": 0, "tid": 0, "args": dict(reason),
    })
    return events


def _record_events(
    records: Iterable[TraceRecord],
    pid: int,
    label: str,
    time_scale: float,
    topology: Any,
) -> list[dict[str, Any]]:
    """Trace events of one run's records: process/thread names, then one
    slice or instant event per record."""
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "ts": 0, "dur": 0,
        "pid": pid, "tid": 0, "args": {"name": label},
    }]
    named_tids: set[int] = set()
    for rec in records:
        tid = rec.rank if rec.rank >= 0 else NETWORK_TID
        if tid not in named_tids:
            named_tids.add(tid)
            events.append({
                "name": "thread_name", "ph": "M", "ts": 0, "dur": 0,
                "pid": pid, "tid": tid,
                "args": {
                    "name": _rank_track_name(rec.rank, topology)
                    if rec.rank >= 0 else "network",
                },
            })
        ts = rec.start * time_scale
        if rec.kind in ("log", "fault"):
            events.append({
                "name": rec.detail or rec.kind, "cat": rec.kind, "ph": "i",
                "ts": ts, "dur": 0, "pid": pid, "tid": tid,
                "s": "t",
            })
        else:
            event: dict[str, Any] = {
                "name": rec.kind, "cat": rec.kind, "ph": "X",
                "ts": ts, "dur": (rec.end - rec.start) * time_scale,
                "pid": pid, "tid": tid,
            }
            if rec.detail:
                event["args"] = {"detail": rec.detail}
            events.append(event)
    return events


def write_chrome_trace(
    path: str | Path,
    trace: TraceInput,
    time_scale: float = MICROSECONDS,
    topology: Any = None,
) -> int:
    """Write the trace-event array to ``path``; returns the event count.

    The file is a bare JSON array (the canonical Chrome trace format), so
    it loads directly in ``chrome://tracing`` and Perfetto.
    """
    events = chrome_trace_events(trace, time_scale=time_scale,
                                 topology=topology)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(events, indent=1) + "\n")
    return len(events)


# -- cross-process sweep telemetry export -------------------------------------

def telemetry_trace_events(
    timeline: Any, time_scale: float = MICROSECONDS
) -> list[dict[str, Any]]:
    """Convert a sweep telemetry timeline to Chrome trace events.

    ``timeline`` is a :class:`~repro.obs.telemetry.SweepTimeline` (or any
    object with ``all_spans()``, or a plain span list).  Unlike the
    single-simulation export above -- virtual time, one process per run
    -- this renders *wall-clock* spans with one trace process per real
    OS process of the sweep: the parent first, then one labeled track
    per pool worker.  ``process_name`` / ``thread_name`` /
    ``process_sort_index`` metadata events name every track, so
    Perfetto and ``chrome://tracing`` show ``parent`` and ``worker-<pid>``
    lanes instead of bare pid numbers.

    Timestamps are shifted so the earliest span starts at 0 and scaled
    from seconds to microseconds.
    """
    spans = timeline.all_spans() if hasattr(timeline, "all_spans") \
        else list(timeline)
    if not spans:
        return []
    origin = min(span.start for span in spans)

    # Stable track order: parent first, then workers sorted by label.
    def track_rank(key: tuple[str, int]) -> tuple[int, str]:
        worker, _ = key
        return (0 if worker == "parent" else 1, worker)

    tracks = sorted(
        {(span.worker or f"pid {span.pid}", span.pid) for span in spans},
        key=track_rank,
    )
    events: list[dict[str, Any]] = []
    for sort_index, (worker, pid) in enumerate(tracks):
        events.append({
            "name": "process_name", "ph": "M", "ts": 0, "dur": 0,
            "pid": pid, "tid": 0, "args": {"name": worker},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "ts": 0, "dur": 0,
            "pid": pid, "tid": 0, "args": {"sort_index": sort_index},
        })
        events.append({
            "name": "thread_name", "ph": "M", "ts": 0, "dur": 0,
            "pid": pid, "tid": 0, "args": {"name": f"{worker} spans"},
        })
    for span in spans:
        event: dict[str, Any] = {
            "name": span.name, "cat": "sweep", "ph": "X",
            "ts": (span.start - origin) * time_scale,
            "dur": span.duration * time_scale,
            "pid": span.pid, "tid": 0,
        }
        if span.meta:
            event["args"] = dict(span.meta)
        events.append(event)
    return events


def write_telemetry_trace(
    path: str | Path, timeline: Any, time_scale: float = MICROSECONDS
) -> int:
    """Write a sweep timeline as Chrome trace JSON; returns event count."""
    events = telemetry_trace_events(timeline, time_scale=time_scale)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(events, indent=1) + "\n")
    return len(events)
