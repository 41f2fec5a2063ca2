"""Parallel sweep execution with a persistent content-addressed run cache.

Scalability studies (efficiency curves, required-size searches, fault
sweeps) sample many independent ``(app, cluster, N)`` simulation points.
:class:`SweepExecutor` removes the two dominant costs of that regime:

* **Parallelism** -- independent points fan out over a persistent warm
  :class:`~repro.experiments.pool.WorkerPool` (``jobs=``; the default of
  1 executes in-process, preserving the legacy serial path bit for
  bit).  The pool is spawned once per process and reused by every
  batch, sweep and search probe; tasks are dispatched in adaptive
  chunks and reference interned cluster/fault-schedule specs by hash
  instead of shipping them per task (see :mod:`repro.experiments.pool`).
  ``keep_pool=False`` restores the legacy throwaway pool-per-batch
  behavior (useful to benchmark exactly what the warm pool saves).
* **Caching** -- a persistent :class:`RunCache` under ``.repro/cache/``
  stores finished runs as versioned JSON documents keyed by a
  deterministic profile hash (app, N, cluster spec hash, run kwargs such
  as the :class:`~repro.mpi.communicator.CollectiveConfig`, the fault
  schedule's ``profile_hash`` and the library version), so repeated
  curves, searches and CI smoke runs are near-free.

Determinism is the contract: the simulator is deterministic, floats
survive both the pickle transport from workers and the JSON round-trip
through the cache exactly (``repr`` round-trips IEEE-754 doubles), so a
parallel cache-cold sweep is bit-identical to the serial one for every
measurement, per-rank statistic and derived ψ (test-enforced).  Only
``wall_seconds`` is wall-clock dependent; cached records replay the value
stored at record time.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..core.marked_speed import SystemMarkedSpeed
from ..core.types import MetricError
from ..machine.cluster import ClusterSpec
from ..mpi.communicator import CollectiveConfig
from ..obs.spans import Span, wall_now
from ..obs.streaming import summarize_rank_stats
from ..obs.telemetry import BUSY_PHASES, ROOT_SPAN, SweepTimeline
from ..sim.engine import RunResult
from ..sim.trace import RankStats
from . import runner as _runner
from .pool import WorkerPool, publish_spec, resolve_spec, shared_pool, spec_key
from .persistence import (
    measurement_from_dict,
    measurement_to_dict,
    read_json_document,
    write_json_document,
)
from .runner import RunRecord, resolve_app, run_app

#: Envelope kind of cache entries (see ``write_json_document``).
CACHE_KIND = "cached-run"
#: Bumped whenever the cache payload layout or hashed profile changes;
#: part of the profile hash, so stale layouts simply miss.
CACHE_PROFILE_VERSION = 1
#: Default cache root, overridable with $REPRO_CACHE_DIR.
DEFAULT_CACHE_DIR = ".repro/cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Run kwargs that are per-call side-effect channels, not part of the
#: simulated outcome.  A point carrying any of these executes in-process
#: and bypasses the cache (a cached run cannot feed a tracer, and a
#: flight recorder's ring must live in the caller's process).
SIDE_EFFECT_KWARGS = frozenset(
    {"tracer", "metrics", "log", "launcher", "flight"}
)

#: Above this rank count a serialized run drops its O(ranks) per-rank
#: lists (``stats``/``finish_times``) and carries a streaming
#: ``rank_summary`` block instead; overridable for tests and for sweeps
#: that need full per-rank data at scale (at a memory/disk cost).
RANK_SUMMARY_THRESHOLD_ENV = "REPRO_RANK_SUMMARY_THRESHOLD"
DEFAULT_RANK_SUMMARY_THRESHOLD = 4096


def rank_summary_threshold() -> int:
    """Rank count above which cached runs store only a rank summary."""
    raw = os.environ.get(RANK_SUMMARY_THRESHOLD_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_RANK_SUMMARY_THRESHOLD


class _Uncacheable(Exception):
    """A kwarg value has no canonical JSON form; the point cannot be keyed."""


# -- sweep points -------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation of a sweep: ``run_app`` arguments as data.

    ``kwargs`` holds the run keywords that determine the outcome (sorted
    tuple of pairs, so points are picklable and comparable); ``local``
    holds side-effect keywords (tracer/metrics/log/launcher) that force
    in-process, uncached execution.  ``schedule`` is an optional
    :class:`~repro.faults.schedule.FaultSchedule` to inject.
    """

    app: str
    cluster: ClusterSpec
    n: int
    kwargs: tuple[tuple[str, Any], ...] = ()
    local: tuple[tuple[str, Any], ...] = ()
    schedule: Any = None

    @staticmethod
    def make(
        app: str,
        cluster: ClusterSpec,
        n: int,
        schedule: Any = None,
        **run_kwargs: Any,
    ) -> "SweepPoint":
        """Build a point from ``run_app``-style keywords."""
        local = tuple(sorted(
            ((k, v) for k, v in run_kwargs.items()
             if k in SIDE_EFFECT_KWARGS and v is not None),
            key=lambda kv: kv[0],
        ))
        kwargs = tuple(sorted(
            ((k, v) for k, v in run_kwargs.items()
             if k not in SIDE_EFFECT_KWARGS),
            key=lambda kv: kv[0],
        ))
        return SweepPoint(
            app=resolve_app(app), cluster=cluster, n=int(n),
            kwargs=kwargs, local=local, schedule=schedule,
        )

    def run_kwargs(self) -> dict[str, Any]:
        out = dict(self.kwargs)
        out.update(self.local)
        return out


def _canonical_value(value: Any) -> Any:
    """JSON-stable form of a run kwarg for the profile hash."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)  # repr round-trips doubles; json floats match
    if isinstance(value, SystemMarkedSpeed):
        return {"marked_speeds": [repr(s) for s in value.speeds]}
    if isinstance(value, CollectiveConfig):
        return {"collectives": {"bcast": value.bcast,
                                "barrier": value.barrier}}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    raise _Uncacheable(f"no canonical form for {type(value).__name__}")


def point_profile_hash(point: SweepPoint) -> str | None:
    """Deterministic content hash of everything that decides the outcome.

    Covers the application, problem size, full cluster spec hash, the
    canonicalized run kwargs (collective algorithms, marked speed, seed,
    compute efficiency, ...), the fault schedule's ``profile_hash`` and
    the library version.  Returns ``None`` when the point carries
    side-effect kwargs or values without a canonical form -- such points
    are never cached.
    """
    from .. import __version__
    from ..obs.ledger import cluster_spec_hash

    if point.local:
        return None
    try:
        kwargs = {k: _canonical_value(v) for k, v in point.kwargs}
    except _Uncacheable:
        return None
    payload = {
        "profile_version": CACHE_PROFILE_VERSION,
        "app": point.app,
        "n": point.n,
        "cluster": cluster_spec_hash(point.cluster),
        "kwargs": kwargs,
        "schedule": (point.schedule.profile_hash()
                     if point.schedule is not None else None),
        "repro_version": __version__,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- record (de)serialization -------------------------------------------------

def run_record_to_payload(
    record: RunRecord, injector: Any = None
) -> dict[str, Any]:
    """JSON-ready form of a finished run (tracer and app_result dropped).

    ``injector`` optionally attaches the observed fault state
    (downtime/fail-stop/drops and the fault event list) so a cached
    faulted run rehydrates with its full degraded-metric surface.

    Above :func:`rank_summary_threshold` ranks the payload replaces the
    per-rank ``stats``/``finish_times`` lists with a streaming
    ``rank_summary`` block (quantiles + top-k outliers), keeping cache
    entries O(1) in rank count; the rehydrated
    :class:`~repro.sim.engine.RunResult` then has empty per-rank lists
    and reports its makespan from the summary.
    """
    run = record.run
    run_block: dict[str, Any]
    if len(run.stats) > rank_summary_threshold():
        run_block = {
            "nranks": len(run.stats),
            "rank_summary": run.rank_summary
            or summarize_rank_stats(run.stats, run.makespan),
        }
    else:
        run_block = {
            "finish_times": list(run.finish_times),
            "stats": [asdict(s) for s in run.stats],
        }
    run_block.update(
        events=run.events,
        undelivered_messages=run.undelivered_messages,
        wall_seconds=run.wall_seconds,
        heap_pushes=run.heap_pushes,
        stale_pops=run.stale_pops,
        heap_pops=run.heap_pops,
    )
    payload: dict[str, Any] = {
        "measurement": measurement_to_dict(record.measurement),
        "run": run_block,
    }
    if injector is not None:
        payload["fault"] = {
            "events": [[e.time, e.rank, e.kind, e.detail]
                       for e in injector.events],
            "downtime": {str(r): s for r, s in injector.downtime.items()},
            "failed_at": {str(r): t for r, t in injector.failed_at.items()},
            "messages_dropped": injector.messages_dropped,
        }
    return payload


def run_record_from_payload(payload: dict[str, Any]) -> RunRecord:
    """Rebuild a :class:`RunRecord` (tracer/app_result are ``None``)."""
    run_data = payload["run"]
    run = RunResult(
        finish_times=[float(t) for t in run_data.get("finish_times", ())],
        stats=[RankStats(**s) for s in run_data.get("stats", ())],
        events=int(run_data["events"]),
        tracer=None,
        return_values=[],
        undelivered_messages=int(run_data.get("undelivered_messages", 0)),
        wall_seconds=float(run_data.get("wall_seconds", 0.0)),
        heap_pushes=int(run_data.get("heap_pushes", 0)),
        stale_pops=int(run_data.get("stale_pops", 0)),
        heap_pops=int(run_data.get("heap_pops", 0)),
        rank_summary=run_data.get("rank_summary"),
    )
    return RunRecord(
        measurement=measurement_from_dict(payload["measurement"]),
        run=run,
        app_result=None,
    )


def injector_from_payload(schedule: Any, payload: dict[str, Any]) -> Any:
    """Rehydrate a :class:`~repro.faults.injection.FaultInjector`."""
    from ..faults.injection import FaultInjector, FaultTraceEvent

    injector = FaultInjector(schedule)
    injector.events = [
        FaultTraceEvent(float(t), int(r), str(k), str(d))
        for t, r, k, d in payload.get("events", ())
    ]
    injector.downtime = {int(r): float(s)
                         for r, s in payload.get("downtime", {}).items()}
    injector.failed_at = {int(r): float(t)
                          for r, t in payload.get("failed_at", {}).items()}
    injector.messages_dropped = int(payload.get("messages_dropped", 0))
    return injector


# -- the persistent cache -----------------------------------------------------

class RunCache:
    """Content-addressed store of finished runs under ``root``.

    Entries are ``write_json_document`` envelopes (kind ``cached-run``)
    at ``<root>/<key[:2]>/<key>.json``; a corrupt or wrong-kind file is a
    miss, never an error.  Writes go through a temp file + ``os.replace``
    so concurrent sweeps only ever observe complete entries.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            document = read_json_document(path, CACHE_KIND)
        except MetricError:
            return None
        result = document.get("result")
        return result if isinstance(result, dict) else None

    def put(
        self, key: str, payload: dict[str, Any],
        metadata: dict[str, Any] | None = None,
    ) -> Path:
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        write_json_document(
            tmp, CACHE_KIND, {"result": payload}, metadata=metadata
        )
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


# -- worker-side execution ----------------------------------------------------

def _encode_task(point: SweepPoint, pool: WorkerPool) -> tuple:
    """Compact pool-task form of a point: specs travel by intern hash.

    The cluster spec and fault schedule are replaced by
    ``(spec_hash, payload)`` references (payload ``None`` when the
    workers already hold the spec -- published before the pool spawned),
    so a typical task ships only ``(app, N, kwargs, spec_hash)``.
    """
    return (
        point.app,
        point.n,
        point.kwargs,
        point.local,
        pool.encode_spec(point.cluster),
        pool.encode_spec(point.schedule)
        if point.schedule is not None else None,
    )


def _decode_task(task: tuple) -> SweepPoint:
    """Worker-side inverse of :func:`_encode_task` (interns on miss)."""
    app, n, kwargs, local, cluster_ref, schedule_ref = task
    return SweepPoint(
        app=app,
        cluster=resolve_spec(cluster_ref),
        n=n,
        kwargs=kwargs,
        local=local,
        schedule=(resolve_spec(schedule_ref)
                  if schedule_ref is not None else None),
    )


def _publish_batch_specs(batch: Sequence[SweepPoint]) -> None:
    """Publish every spec of a batch *before* the pool (re)spawns, so a
    cold spawn's initializer snapshot already carries them and no task
    of the very first batch ships a spec inline."""
    for point in batch:
        for obj in (point.cluster, point.schedule):
            key = spec_key(obj)
            if key is not None:
                publish_spec(key, obj)


def _run_point(point: SweepPoint) -> tuple[RunRecord, Any]:
    """Execute one point; returns ``(record, injector-or-None)``."""
    kwargs = point.run_kwargs()
    if point.schedule is None:
        return run_app(point.app, point.cluster, point.n, **kwargs), None
    from ..faults.injection import FaultInjector
    from ..faults.run import make_fault_launcher

    point.schedule.validate_for(point.cluster.nranks)
    injector = FaultInjector(point.schedule, log=kwargs.get("log"))
    record = run_app(
        point.app, point.cluster, point.n,
        launcher=make_fault_launcher(point.schedule, injector),
        **kwargs,
    )
    return record, injector


def _pool_worker(task: tuple) -> dict[str, Any]:
    """Process-pool entry: run a point and return its JSON-ready payload.

    ``task`` is the compact :func:`_encode_task` form (specs by intern
    hash).  Ambient observers (ledger, trace collector) inherited
    through fork are suspended -- the parent executor is the recording
    authority.
    """
    point = _decode_task(task)
    prev_ledger, _runner._ACTIVE_LEDGER = _runner._ACTIVE_LEDGER, None
    prev_coll, _runner._ACTIVE_COLLECTOR = _runner._ACTIVE_COLLECTOR, None
    try:
        record, injector = _run_point(point)
        return run_record_to_payload(record, injector)
    finally:
        _runner._ACTIVE_LEDGER = prev_ledger
        _runner._ACTIVE_COLLECTOR = prev_coll


def _telemetry_pool_worker(task: tuple[tuple, float]) -> dict[str, Any]:
    """Telemetry twin of :func:`_pool_worker`.

    ``task`` pairs the compact task with its parent-side submit
    timestamp; the worker records a ``queue_wait`` span from it (pickle
    + queue + wait-for-free-worker latency), an ``engine_run`` span
    around the simulation and a ``serialize`` span around payload
    building, then ships its new spans (including, once per worker
    lifetime, the ``spawn`` span the pool initializer recorded) back
    alongside the payload.
    """
    from ..obs.telemetry import worker_telemetry

    compact, submitted_at = task
    point = _decode_task(compact)
    worker = worker_telemetry()
    worker.start_task(submitted_at)
    prev_ledger, _runner._ACTIVE_LEDGER = _runner._ACTIVE_LEDGER, None
    prev_coll, _runner._ACTIVE_COLLECTOR = _runner._ACTIVE_COLLECTOR, None
    try:
        with worker.recorder.span("engine_run", app=point.app, n=point.n):
            record, injector = _run_point(point)
        with worker.recorder.span("serialize"):
            payload = run_record_to_payload(record, injector)
    finally:
        _runner._ACTIVE_LEDGER = prev_ledger
        _runner._ACTIVE_COLLECTOR = prev_coll
    return {"payload": payload, "spans": worker.drain()}


# -- the executor -------------------------------------------------------------

class SweepExecutor:
    """Runs sweep points with optional process parallelism and caching.

    The default ``SweepExecutor()`` (one job, no cache) reproduces the
    legacy serial path exactly, including ambient ledger/trace behavior.
    With ``jobs > 1`` or a :class:`RunCache` attached, the executor
    becomes the recording authority: every point is appended to the
    ambient ledger (see :func:`~repro.experiments.runner.ledger_recording`)
    with a ``cache_hit`` extra metric, and hit/miss counters are kept in
    the attached metrics registry (``sweep_cache_hits_total`` /
    ``sweep_cache_misses_total``).

    Points carrying side-effect kwargs, and every point while a trace
    collector is active, execute in-process and bypass the cache -- a
    replayed record cannot produce a trace.  (The trace-collector case
    is surfaced with a one-time ``sweep.trace_serial_fallback`` warning
    when ``jobs > 1`` would otherwise suggest parallel execution.)

    Parallel batches run on a persistent
    :class:`~repro.experiments.pool.WorkerPool`: with the default
    ``keep_pool=True`` (and no pinned ``start_method``) the
    process-global shared pool for ``jobs`` workers, spawned once and
    reused across batches, sweeps, executors and search probes.
    ``keep_pool=False`` restores the legacy spawn-per-batch behavior;
    ``start_method="spawn"`` (etc.) pins the multiprocessing start
    method on an executor-private persistent pool (release it with
    :meth:`close`).

    ``telemetry=True`` additionally records cross-process wall-clock
    spans for every phase of the sweep (spawn, queue-wait, cache probe,
    engine run, serialize, cache write, collect); each ``run_faulted``
    call then leaves a fresh :class:`~repro.obs.telemetry.SweepTimeline`
    on :attr:`timeline`, feeds per-phase ``sweep_phase_seconds``
    histograms into the metrics registry, and (when an ambient ledger is
    recording) appends one sweep-level ``source="sweep"`` ledger record
    carrying the full telemetry block.  With telemetry off (the
    default) no span machinery runs and results are bit-identical to
    the untelemetered path -- with it on too: spans only *observe*.

    ``progress=`` attaches a
    :class:`~repro.obs.streaming.ProgressReporter` (the ``--progress``
    CLI flag): :meth:`run_faulted` calls its ``begin``/``point_done``/
    ``finish`` hooks as points land — cache hits included — and, when
    telemetry is also on, credits worker busy-span seconds so the
    heartbeat can show live worker utilization.  Like telemetry, the
    reporter only observes; results are unchanged.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | None = None,
        metrics: Any = None,
        log: Any = None,
        telemetry: bool = False,
        progress: Any = None,
        keep_pool: bool = True,
        start_method: str | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.log = log
        self.telemetry = bool(telemetry)
        self.progress = progress
        self.keep_pool = bool(keep_pool)
        self.start_method = start_method
        #: The pool used by the most recent parallel batch (tests and
        #: the CLI's profile report read ``pool.spawns`` off it).
        self.pool: WorkerPool | None = None
        self._private_pool: WorkerPool | None = None
        self._warned_trace_serial = False
        self.timeline: SweepTimeline | None = None
        self._setup_spans: list[Span] = []
        if metrics is None:
            from ..obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics

    def close(self) -> None:
        """Shut down this executor's private pool, if any.  Shared pools
        (the ``keep_pool=True`` default) outlive the executor and are
        torn down at interpreter exit or via
        :func:`~repro.experiments.pool.shutdown_worker_pools`."""
        pool, self._private_pool = self._private_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- bookkeeping -------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(self.metrics.value("sweep_cache_hits_total") or 0)

    @property
    def misses(self) -> int:
        return int(self.metrics.value("sweep_cache_misses_total") or 0)

    def cache_stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    @property
    def _managed(self) -> bool:
        """Executor-managed mode: caching/parallelism in play, so the
        executor (not ``run_app``) appends to the ambient ledger."""
        return self.jobs > 1 or self.cache is not None

    def _count(self, hit: bool) -> None:
        name = "sweep_cache_hits_total" if hit else "sweep_cache_misses_total"
        self.metrics.counter(name).inc()

    def _tick(self, hit: bool = False) -> None:
        """One point landed: advance the progress heartbeat, if any."""
        if self.progress is not None:
            self.progress.point_done(hit=hit)

    def _record_ledger(
        self, point: SweepPoint, record: RunRecord, cache_hit: bool
    ) -> None:
        ledger = _runner._ACTIVE_LEDGER
        if ledger is None:
            return
        ledger.record_run(
            point.app, point.cluster, record, source="run",
            extra_metrics={"cache_hit": 1.0 if cache_hit else 0.0},
            log=self.log,
        )

    # -- telemetry ---------------------------------------------------------
    @contextmanager
    def setup_span(self, name: str, **meta: Any) -> Iterator[None]:
        """Record driver-side preparation work (e.g. the marked-speed
        measurement) into the *next* sweep's timeline.  A no-op when
        telemetry is off."""
        if not self.telemetry:
            yield
            return
        start = wall_now()
        try:
            yield
        finally:
            self._setup_spans.append(Span(
                name=name, start=start, end=wall_now(), pid=os.getpid(),
                worker="parent", meta=meta,
            ))

    def _begin_timeline(self, points: Sequence[SweepPoint]) -> SweepTimeline | None:
        if not self.telemetry:
            return None
        timeline = self.timeline = SweepTimeline(jobs=self.jobs)
        timeline.points = len(points)
        if self._setup_spans:
            timeline.parent.spans.extend(self._setup_spans)
            self._setup_spans = []
        return timeline

    def _record_sweep_ledger(
        self, points: Sequence[SweepPoint], timeline: SweepTimeline
    ) -> None:
        """One sweep-level telemetry record per managed telemetered sweep.

        Called after the sweep root span has closed, so the recorded
        ``telemetry`` block carries the final wall/coverage numbers (and
        this write's own cost stays outside the attributed window).
        """
        ledger = _runner._ACTIVE_LEDGER
        if ledger is None or not points:
            return
        point = points[0]
        try:
            ledger.record_sweep(
                point.app, point.cluster, timeline,
                extra_metrics={
                    "cache_hits": float(timeline.cache_hits),
                    "cache_misses": float(
                        len(points) - timeline.cache_hits
                    ),
                },
                log=self.log,
            )
        except OSError:
            if self.log is not None:
                self.log.event("sweep.telemetry_ledger_failed")

    # -- execution ---------------------------------------------------------
    def run_points(self, points: Sequence[SweepPoint]) -> list[RunRecord]:
        """Execute points (cache/pool as configured); records in order."""
        return [record for record, _ in self.run_faulted(points)]

    def run_point(self, point: SweepPoint) -> RunRecord:
        return self.run_points([point])[0]

    def run_faulted(
        self, points: Sequence[SweepPoint]
    ) -> list[tuple[RunRecord, Any]]:
        """Like :meth:`run_points` but with each point's fault injector
        (``None`` for fault-free points)."""
        points = list(points)
        timeline = self._begin_timeline(points)
        progress = self.progress
        if progress is not None:
            progress.begin(total=len(points), workers=self.jobs)
        if not self._managed:
            if timeline is None:
                # Legacy path: serial, uncached, observers untouched.
                out = []
                for point in points:
                    out.append(_run_point(point))
                    self._tick()
                if progress is not None:
                    progress.finish()
                return out
            out = []
            with timeline.parent.span(ROOT_SPAN, points=len(points)):
                for idx, point in enumerate(points):
                    with timeline.parent.span(
                        "engine_run", point=idx, app=point.app, n=point.n
                    ):
                        out.append(_run_point(point))
                    self._tick()
            timeline.observe_metrics(self.metrics)
            if progress is not None:
                progress.finish()
            return out
        with _maybe_span(timeline, ROOT_SPAN, points=len(points)):
            out = self._run_managed(points, timeline)
        if timeline is not None:
            timeline.observe_metrics(self.metrics)
            # After the root closed: the recorded document then carries
            # the final wall/coverage numbers, not an in-flight window.
            self._record_sweep_ledger(points, timeline)
        if progress is not None:
            progress.finish()
        return out

    def _run_managed(
        self, points: list[SweepPoint], timeline: SweepTimeline | None
    ) -> list[tuple[RunRecord, Any]]:
        results: list[tuple[RunRecord, Any] | None] = [None] * len(points)
        flags: list[bool] = [False] * len(points)
        pending: list[int] = []
        parallelizable: list[int] = []
        keys: list[str | None] = []
        collector_active = _runner._ACTIVE_COLLECTOR is not None
        if collector_active and self.jobs > 1 and points:
            self._warn_trace_serial(len(points))
        for idx, point in enumerate(points):
            key = None
            cached = None
            if not collector_active:
                # The probe span covers key hashing plus the disk lookup.
                with _maybe_span(timeline, "cache_probe", point=idx):
                    key = point_profile_hash(point)
                    if key is not None and self.cache is not None:
                        cached = self.cache.get(key)
            keys.append(key)
            if cached is not None:
                point_schedule = point.schedule
                with _maybe_span(timeline, "collect", point=idx):
                    record = run_record_from_payload(cached)
                    injector = None
                    if point_schedule is not None and "fault" in cached:
                        injector = injector_from_payload(
                            point_schedule, cached["fault"]
                        )
                results[idx] = (record, injector)
                flags[idx] = True
                self._tick(hit=True)
                continue
            pending.append(idx)
            if key is not None and not point.local:
                parallelizable.append(idx)

        if self.jobs > 1 and len(parallelizable) > 1:
            batch = [points[i] for i in parallelizable]
            pool = self._acquire_pool()
            try:
                if timeline is not None:
                    payloads = self._run_pool_telemetered(
                        batch, pool, timeline
                    )
                else:
                    payloads = self._run_pool(batch, pool)
            finally:
                self._release_pool(pool, timeline)
            for idx, payload in zip(parallelizable, payloads):
                with _maybe_span(timeline, "collect", point=idx):
                    record = run_record_from_payload(payload)
                    injector = None
                    if points[idx].schedule is not None:
                        injector = injector_from_payload(
                            points[idx].schedule, payload.get("fault", {})
                        )
                results[idx] = (record, injector)
                if keys[idx] is not None and self.cache is not None:
                    with _maybe_span(timeline, "cache_write", point=idx):
                        self._cache_put(keys[idx], points[idx], payload)
            executed = set(parallelizable)
        else:
            executed = set()

        for idx in pending:
            if idx in executed:
                continue
            point = points[idx]
            with _suspended_ledger():
                with _maybe_span(
                    timeline, "engine_run", point=idx, app=point.app,
                    n=point.n,
                ):
                    record, injector = _run_point(point)
            results[idx] = (record, injector)
            self._tick()
            if keys[idx] is not None and self.cache is not None:
                with _maybe_span(timeline, "serialize", point=idx):
                    payload = run_record_to_payload(record, injector)
                with _maybe_span(timeline, "cache_write", point=idx):
                    self._cache_put(keys[idx], point, payload)

        out: list[tuple[RunRecord, Any]] = []
        for idx, point in enumerate(points):
            pair = results[idx]
            assert pair is not None
            with _maybe_span(timeline, "collect", point=idx):
                self._count(hit=flags[idx])
                self._record_ledger(point, pair[0], cache_hit=flags[idx])
            out.append(pair)
        if timeline is not None:
            timeline.cache_hits = sum(flags)
        return out

    def _acquire_pool(self) -> WorkerPool:
        """The pool for the next batch.

        ``keep_pool=True`` (default) without a pinned start method uses
        the process-global :func:`~repro.experiments.pool.shared_pool`
        for ``jobs`` workers -- spawned once, reused by every batch,
        sweep and search probe in this process.  A pinned
        ``start_method`` gets an executor-private persistent pool (still
        warm across this executor's batches; see :meth:`close`).
        ``keep_pool=False`` reproduces the legacy throwaway
        pool-per-batch behavior for A/B benchmarking.
        """
        if self.keep_pool and self.start_method is None:
            pool = shared_pool(self.jobs)
        elif self.keep_pool:
            if self._private_pool is None:
                self._private_pool = WorkerPool(
                    self.jobs, start_method=self.start_method
                )
            pool = self._private_pool
        else:
            pool = WorkerPool(self.jobs, start_method=self.start_method)
        self.pool = pool
        return pool

    def _release_pool(
        self, pool: WorkerPool, timeline: SweepTimeline | None
    ) -> None:
        """After a batch: throwaway pools shut down (the legacy cost,
        attributed to ``collect``); persistent pools stay warm."""
        if self.keep_pool:
            return
        # Sentinel delivery + worker joins are real legacy-path overhead;
        # attribute them to collect rather than leaving a coverage hole
        # at the tail of the sweep window.
        with _maybe_span(timeline, "collect", shutdown=True):
            pool.shutdown(wait=True)

    def _run_pool(
        self, batch: list[SweepPoint], pool: WorkerPool
    ) -> list[dict[str, Any]]:
        """Fan a batch out over the (warm) pool, untelemetered."""
        _publish_batch_specs(batch)
        pool.ensure()
        tasks = [_encode_task(point, pool) for point in batch]
        payloads: list[dict[str, Any]] = []
        for payload in pool.map(_pool_worker, tasks):
            payloads.append(payload)
            self._tick()
        return payloads

    def _run_pool_telemetered(
        self, batch: list[SweepPoint], pool: WorkerPool,
        timeline: SweepTimeline,
    ) -> list[dict[str, Any]]:
        """Telemetry twin of :meth:`_run_pool`: timestamped submits,
        warm-vs-cold spawn attribution, and shipped-span collection.

        A cold batch records a parent ``spawn`` span around the pool
        handle creation (workers fork lazily at first submit; their real
        startup cost arrives as worker-side ``spawn`` spans stamped from
        the pool-creation timestamp).  A warm batch records *no* spawn
        span and sets :attr:`SweepTimeline.pool_reuse` -- and spawn
        spans a long-lived worker already shipped to an earlier batch
        are filtered by the batch epoch so reuse is visible in the
        phase table, not double-counted.
        """
        epoch = wall_now()
        _publish_batch_specs(batch)
        if pool.needs_spawn():
            with timeline.parent.span("spawn", workers=pool.workers):
                pool.ensure()
            timeline.pool_spawns += 1
        else:
            timeline.pool_reuse = True
        tasks = [(_encode_task(point, pool), wall_now()) for point in batch]
        payloads: list[dict[str, Any]] = []
        for item in pool.map(_telemetry_pool_worker, tasks):
            spans = [
                d for d in item["spans"]
                if not (d["name"] == "spawn" and d["end"] < epoch)
            ]
            timeline.stale_spawn_spans += len(item["spans"]) - len(spans)
            timeline.add_worker_spans(spans)
            if self.progress is not None:
                # Live worker utilization: credit the busy-phase
                # (engine_run/serialize) seconds this result shipped.
                self.progress.note_busy_seconds(sum(
                    d["end"] - d["start"] for d in spans
                    if d["name"] in BUSY_PHASES
                ))
            self._tick()
            payloads.append(item["payload"])
        return payloads

    def _warn_trace_serial(self, npoints: int) -> None:
        """Explain (once) why a ``--jobs`` sweep went serial: an active
        :class:`~repro.experiments.runner.TraceCollector` needs every
        run's tracer in-process, which neither a worker nor a cached
        replay can provide."""
        if self._warned_trace_serial:
            return
        self._warned_trace_serial = True
        log = self.log
        if log is None:
            from ..obs.structlog import stderr_logger

            log = stderr_logger()
        log.warn_once(
            "sweep.trace_serial_fallback",
            "sweep.trace_serial_fallback",
            jobs=self.jobs,
            points=npoints,
            reason=(
                "an active TraceCollector needs in-process tracers; "
                "points run serial and uncached while it is collecting"
            ),
        )

    def _cache_put(
        self, key: str, point: SweepPoint, payload: dict[str, Any]
    ) -> None:
        try:
            self.cache.put(key, payload, metadata={
                "app": point.app,
                "n": point.n,
                "cluster": point.cluster.name,
            })
        except OSError:
            if self.log is not None:
                self.log.event("sweep.cache_write_failed", key=key)


@contextmanager
def _maybe_span(
    timeline: SweepTimeline | None, name: str, **meta: Any
) -> Iterator[None]:
    """Record a parent span when a timeline is active; pass through when
    telemetry is off (the zero-cost-when-off guarantee)."""
    if timeline is None:
        yield
        return
    with timeline.parent.span(name, **meta):
        yield


@contextmanager
def _suspended_ledger() -> Iterator[None]:
    """Mute ``run_app``'s ambient ledger hook (the executor records)."""
    prev = _runner._ACTIVE_LEDGER
    _runner._ACTIVE_LEDGER = None
    try:
        yield
    finally:
        _runner._ACTIVE_LEDGER = prev


# -- ambient executor ---------------------------------------------------------

_ACTIVE_EXECUTOR: SweepExecutor | None = None


@contextmanager
def sweep_execution(
    executor: SweepExecutor | None = None,
) -> Iterator[SweepExecutor]:
    """Route every sweep inside the ``with`` block through ``executor``.

    ``efficiency_curve``, ``required_size_by_simulation``,
    ``required_rank_hybrid`` and ``slowdown_sweep`` consult the ambient
    executor when none is passed explicitly (the CLI's ``--jobs`` /
    ``--no-cache`` flags enter this context).  With no argument, a
    serial executor with the persistent default cache is used.
    Reentrant: the previous executor is restored on exit.
    """
    global _ACTIVE_EXECUTOR
    active = executor if executor is not None else SweepExecutor(
        cache=RunCache()
    )
    previous = _ACTIVE_EXECUTOR
    _ACTIVE_EXECUTOR = active
    try:
        yield active
    finally:
        _ACTIVE_EXECUTOR = previous


def resolve_executor(executor: SweepExecutor | None = None) -> SweepExecutor:
    """Explicit executor wins; else the ambient one; else legacy serial."""
    if executor is not None:
        return executor
    if _ACTIVE_EXECUTOR is not None:
        return _ACTIVE_EXECUTOR
    return SweepExecutor()
