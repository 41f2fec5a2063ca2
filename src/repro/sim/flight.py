"""Flight recorder: a last-K ring of trace records with crash dumps.

:class:`~repro.sim.trace.Tracer` keeps the *oldest* records and drops
the tail once its limit is hit — the right shape for building complete
traces, and exactly the wrong one for post-mortem debugging, where the
interesting records are the ones immediately *before* the failure.
:class:`FlightRecorder` is the complement: a bounded ring
(``collections.deque(maxlen=K)``) that always holds the most recent K
records and costs O(K) memory regardless of run length.

The ring stores the engine's record stream as it is emitted: raw tuples
``(rank, kind, start, end, *extras)`` (layout on
:class:`~repro.sim.trace.Tracer`).  When the recorder is the only sink,
the engine's record hook *is* the ring's prebound ``deque.append``: a
Python-level call per event costs ~200 ns — over the <5 % always-on
budget — while the bound C-level append costs ~40 ns.  Detail strings
are only formatted at dump time, by the same
:func:`~repro.sim.trace.render_record` the tracer uses.

The dominant recording cost is not the append but the *ring's cache
footprint*: every append at steady state evicts the record inserted K
events earlier, whose cache lines have long gone cold, so each eviction
is a cache-miss-bound deallocation.  Measured on the GE benchmark
(``benchmarks/bench_engine_throughput.py``), overhead grows with K —
roughly free at K=128, ~3 % at K=512, ~5 % at K=1024 and ~8 % at
K=4096 — which is why the default capacity is 512 rather than
something roomier.  Raise it explicitly when a deeper post-mortem
window is worth the throughput.

Dumps are written to ``.repro/flight/`` (``$REPRO_FLIGHT_DIR``) when

* the engine raises out of its run loop (``ProtocolError``,
  ``RankFailedError``, ``EventLimitExceeded``, ``DeadlockError``, ...), or
* the watchdog trips at run completion: per-rank virtual-time
  monotonicity over the retained window, utilization collapse (a rank's
  utilization below ``utilization_floor`` — the signature of a
  fail-stopped rank), or a stale-pop-ratio spike (scheduler waste).

Each dump is a self-contained JSON envelope that doubles as a Chrome
trace: the ``traceEvents`` key loads directly in Perfetto /
``chrome://tracing``.  ``repro flight list|show`` reads them back (see
:mod:`repro.obs.flight`).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

from .trace import render_record

#: Default ring capacity: enough context to see the collective or
#: protocol exchange leading into a failure, small enough that the ring
#: stays cache-resident (the overhead is eviction-time cache misses and
#: grows with K — see the module docstring for measured numbers).
DEFAULT_CAPACITY = 512

#: Default dump directory (overridden by ``$REPRO_FLIGHT_DIR``).
DEFAULT_FLIGHT_DIR = os.path.join(".repro", "flight")

_DUMP_SEQ = itertools.count()


def flight_dir() -> Path:
    """The active flight-dump directory (env override included)."""
    return Path(os.environ.get("REPRO_FLIGHT_DIR", DEFAULT_FLIGHT_DIR))


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds for the online run-health checks.

    ``utilization_floor``
        A rank whose utilization over the run falls below this trips
        ``utilization_collapse`` — the signature of a fail-stopped rank
        sitting dead while the others finish.
    ``stale_ratio_ceiling``
        Fraction of heap pops that were stale entries above which the
        scheduler is mostly spinning on dead work.
    ``min_events``
        Runs shorter than this are never judged (tiny unit-test runs
        legitimately have degenerate utilization profiles).
    """

    utilization_floor: float = 0.05
    stale_ratio_ceiling: float = 0.9
    min_events: int = 256


class FlightRecorder:
    """Bounded most-recent-K record ring with crash/watchdog dumps.

    Parameters
    ----------
    capacity:
        Ring size K (``0`` records nothing but still dumps reasons).
    out_dir:
        Dump directory; defaults to ``$REPRO_FLIGHT_DIR`` or
        ``.repro/flight`` resolved at dump time.
    watchdog:
        :class:`WatchdogConfig` thresholds, or ``None`` to disable the
        run-completion health checks (error dumps still fire).
    """

    __slots__ = ("capacity", "out_dir", "watchdog", "_buf", "append",
                 "dumps", "last_reason")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        out_dir: str | os.PathLike | None = None,
        watchdog: WatchdogConfig | None = WatchdogConfig(),
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.watchdog = watchdog
        self._buf: deque[tuple] = deque(maxlen=self.capacity)
        #: The hot-path entry point: the engine's handlers call this
        #: prebound C-level append with raw ``(rank, kind, start, end,
        #: *extras)`` tuples.  Never wrap it in Python.
        self.append = self._buf.append
        self.dumps: list[Path] = []
        self.last_reason: dict[str, Any] | None = None

    # -- ring access -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def records(self) -> list[tuple]:
        """Retained raw tuples, oldest first."""
        return list(self._buf)

    def render(self) -> list[dict[str, Any]]:
        """Retained records as dicts with lazily formatted detail."""
        return [asdict(render_record(rec)) for rec in self._buf]

    def clear(self) -> None:
        self._buf.clear()

    # -- engine-facing triggers ------------------------------------------
    def dump_error(self, exc: BaseException, **context: Any) -> Path:
        """Dump the ring because ``exc`` escaped the engine run loop."""
        reason = {
            "trigger": "error",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
        return self.dump(reason, context)

    def run_complete(
        self,
        *,
        stats: Sequence[Any],
        makespan: float,
        events: int,
        heap_pops: int,
        stale_pops: int,
        **context: Any,
    ) -> Path | None:
        """Run the watchdog at run completion; dump and return the path
        if any check trips, else ``None``."""
        checks = self.check(
            stats=stats,
            makespan=makespan,
            events=events,
            heap_pops=heap_pops,
            stale_pops=stale_pops,
        )
        if not checks:
            return None
        reason = {"trigger": "watchdog", "checks": checks}
        context = dict(
            context,
            makespan=makespan,
            events=events,
            heap_pops=heap_pops,
            stale_pops=stale_pops,
        )
        return self.dump(reason, context)

    def check(
        self,
        *,
        stats: Sequence[Any],
        makespan: float,
        events: int,
        heap_pops: int,
        stale_pops: int,
    ) -> list[str]:
        """Evaluate the watchdog; returns the tripped-check descriptions."""
        wd = self.watchdog
        if wd is None:
            return []
        checks: list[str] = []

        # Per-rank virtual-time monotonicity over the retained window.
        # The engine emits each rank's records in program order with
        # start >= previous end (exact float equality at the seams), so
        # any regression is a causality bug in a network model or
        # handler extension.
        last_end: dict[int, float] = {}
        for rec in self._buf:
            rank, kind, start, end = rec[0], rec[1], rec[2], rec[3]
            prev = last_end.get(rank)
            if prev is not None and start < prev:
                checks.append(
                    "monotonicity: rank "
                    f"{rank} {kind} starts at {start:g} before previous "
                    f"record end {prev:g}"
                )
                break
            last_end[rank] = end

        if events >= wd.min_events and makespan > 0.0 and stats:
            worst = min(stats, key=lambda st: st.utilization(makespan))
            worst_util = worst.utilization(makespan)
            if worst_util < wd.utilization_floor:
                checks.append(
                    "utilization_collapse: rank "
                    f"{worst.rank} utilization {worst_util:.4f} < floor "
                    f"{wd.utilization_floor:g}"
                )

        if heap_pops >= wd.min_events:
            ratio = stale_pops / heap_pops
            if ratio > wd.stale_ratio_ceiling:
                checks.append(
                    f"stale_pop_spike: {stale_pops}/{heap_pops} heap pops "
                    f"stale ({ratio:.2f} > {wd.stale_ratio_ceiling:g})"
                )
        return checks

    # -- dump -------------------------------------------------------------
    def dump(
        self, reason: dict[str, Any], context: dict[str, Any] | None = None
    ) -> Path:
        """Write the ring tail as a Chrome-trace-compatible envelope."""
        # Deferred import: repro.obs depends on repro.sim at module load.
        from ..obs.chrome_trace import flight_trace_events

        self.last_reason = reason
        records = [render_record(rec) for rec in self._buf]
        payload = {
            "kind": "flight-dump",
            "version": 1,
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "reason": reason,
            "engine": dict(context or {}),
            "capacity": self.capacity,
            "retained": len(records),
            "records": [asdict(rec) for rec in records],
            "traceEvents": flight_trace_events(records, reason),
        }
        out_dir = self.out_dir if self.out_dir is not None else flight_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        while True:
            name = f"flight-{stamp}-p{os.getpid()}-{next(_DUMP_SEQ):04d}.json"
            path = out_dir / name
            if not path.exists():
                break
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
        self.dumps.append(path)
        return path

