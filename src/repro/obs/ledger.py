"""Persistent run ledger: every simulated run leaves an auditable record.

PR 1 made single runs observable; the ledger makes *history* observable.
Each recorded run becomes one ``write_json_document``-enveloped JSON file
under ``<root>/runs/`` plus one line in an append-only JSONL index
(``<root>/index.jsonl``), capturing

* identity -- run id, UTC timestamp, source (``run`` / ``profile`` /
  ``bench``),
* provenance -- git SHA, Python version, platform, ``repro`` version,
  cluster name / rank count / spec hash,
* the metric surface -- makespan, speed-efficiency, load-imbalance index,
  the Theorem-1 decomposition, and the engine's wall-clock self-profile,
* a ``rank_summary`` block -- per-rank utilization/idle/flops quantiles
  (p50/p90/p99, streamed through :mod:`repro.obs.streaming` sketches)
  plus the top-k busiest and idlest ranks, with the utilization
  quantiles mirrored into the flat metrics for regression gating.

The default root is ``.repro/ledger`` under the current directory,
overridable with the ``REPRO_LEDGER_DIR`` environment variable or an
explicit ``root=``.  :mod:`repro.obs.regression` consumes these records
for cross-run comparison and CI perf gating.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from .analysis import imbalance_index, overhead_decomposition
from .streaming import summarize_rank_stats

if TYPE_CHECKING:  # avoid importing the experiments layer at module load
    from ..experiments.runner import RunRecord
    from ..machine.cluster import ClusterSpec
    from .profiler import ProfileReport
    from .structlog import StructLogger

#: Document kind of one persisted run record.
RUN_RECORD_KIND = "run-record"

#: Default ledger location (relative to the working directory).
DEFAULT_LEDGER_DIR = ".repro/ledger"

#: Environment variable overriding the default ledger location.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"


def default_ledger_root() -> Path:
    """The ledger directory used when none is given explicitly."""
    return Path(os.environ.get(LEDGER_DIR_ENV, DEFAULT_LEDGER_DIR))


def git_sha(cwd: str | Path | None = None) -> str | None:
    """HEAD commit of the working directory's repository, or None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def cluster_spec_hash(cluster: "ClusterSpec") -> str:
    """Short stable hash of everything that determines a cluster's timing."""
    spec = {
        "name": cluster.name,
        "network_kind": cluster.network_kind,
        "slots": [
            (slot.ptype.name, slot.ptype.clock_mhz,
             slot.ptype.peak_mflops, slot.node_id)
            for slot in cluster.slots
        ],
        "link": (cluster.link.latency, cluster.link.bandwidth,
                 cluster.link.software_overhead),
        "intranode": (cluster.intranode.latency, cluster.intranode.bandwidth,
                      cluster.intranode.software_overhead),
        "node_memory_mb": list(cluster.node_memory_mb),
    }
    # Tier grouping folds in only when present so hashes of flat clusters
    # recorded before hierarchical topologies existed stay stable.
    if cluster.node_racks:
        spec["node_racks"] = list(cluster.node_racks)
    if cluster.node_zones:
        spec["node_zones"] = list(cluster.node_zones)
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def environment_info() -> dict[str, Any]:
    """Provenance block shared by every run record."""
    from .. import __version__

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": __version__,
    }


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _new_run_id(app: str, problem_size: Any) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    size = f"-n{problem_size}" if problem_size else ""
    return f"{stamp}-{app}{size}-{uuid.uuid4().hex[:8]}"


def _run_metrics(
    record: "RunRecord", compute_efficiency: float
) -> dict[str, float]:
    """Flat metric dict of one executed run (the comparable surface)."""
    m = record.measurement
    run = record.run
    decomp = overhead_decomposition(
        work=m.work,
        marked_speed=m.marked_speed,
        makespan=run.makespan,
        compute_efficiency=compute_efficiency,
    )
    return {
        "makespan": run.makespan,
        "speed_efficiency": m.speed_efficiency,
        "work": m.work,
        "marked_speed": m.marked_speed,
        # Above the executor's rank-summary threshold a rehydrated run
        # carries no per-rank stats; the flat metric degrades to 0.0
        # (the summary block still holds the distribution).
        "imbalance_index": (
            imbalance_index(run.stats) if len(run.stats) else 0.0
        ),
        "theorem1_ideal_compute": decomp.ideal_compute,
        "theorem1_t0": decomp.t0,
        "theorem1_overhead": decomp.overhead,
        "theorem1_overhead_fraction": decomp.overhead_fraction,
        "events": float(run.events),
        "undelivered_messages": float(run.undelivered_messages),
        "wall_seconds": run.wall_seconds,
        "events_per_second": run.events_per_second,
        "heap_pushes": float(run.heap_pushes),
        "heap_pops": float(run.heap_pops),
        "stale_pops": float(run.stale_pops),
        "stale_pop_ratio": run.stale_pop_ratio,
    }


def _summary_metrics(summary: dict[str, Any]) -> dict[str, float]:
    """Flat (regression-gateable) view of a ``rank_summary`` block."""
    utilization = summary["utilization"]
    return {
        "utilization_p50": utilization["p50"],
        "utilization_p90": utilization["p90"],
        "utilization_p99": utilization["p99"],
        "utilization_mean": utilization["mean"],
    }


def bench_to_record(payload: dict[str, Any]) -> dict[str, Any]:
    """Normalize a raw ``BENCH_*.json`` payload into a run-record dict.

    Benches are not enveloped documents (they predate the ledger); this
    maps their fields onto the record shape so ``repro compare`` and
    baseline checks treat them uniformly.
    """
    metrics: dict[str, float] = {}
    for key in ("events_per_second", "mean_wall_seconds", "events_per_run"):
        if key in payload:
            metrics[key] = float(payload[key])
    nodes = payload.get("nodes")
    return {
        "run_id": f"bench-{payload.get('bench', 'unknown')}",
        "created_utc": _utc_now(),
        "source": "bench",
        "app": payload.get("app", payload.get("bench", "bench")),
        "problem_size": payload.get("n"),
        "cluster": {
            "name": f"{nodes} nodes" if nodes else "unknown",
            "nranks": None,
            "spec_hash": None,
        },
        "env": environment_info(),
        "metrics": metrics,
        "bench": payload,
    }


@dataclass(frozen=True)
class LedgerEntry:
    """One line of the append-only index (the cheap, scannable view)."""

    run_id: str
    created_utc: str
    source: str
    app: str
    problem_size: int | None
    cluster: str
    makespan: float | None
    speed_efficiency: float | None
    path: str

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LedgerEntry":
        return cls(
            run_id=data["run_id"],
            created_utc=data.get("created_utc", ""),
            source=data.get("source", "run"),
            app=data.get("app", ""),
            problem_size=data.get("problem_size"),
            cluster=data.get("cluster", ""),
            makespan=data.get("makespan"),
            speed_efficiency=data.get("speed_efficiency"),
            path=data.get("path", f"runs/{data['run_id']}.json"),
        )


class RunLedger:
    """Append-only store of run records under one root directory.

    Layout::

        <root>/runs/<run_id>.json   -- full enveloped run records
        <root>/index.jsonl          -- one JSON line per record, append-only
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_ledger_root()
        self.runs_dir = self.root / "runs"
        self.index_path = self.root / "index.jsonl"

    # -- writing -----------------------------------------------------------
    def _write(
        self,
        run_id: str,
        payload: dict[str, Any],
        log: "StructLogger | None" = None,
    ) -> str:
        from ..experiments.persistence import write_json_document

        self.runs_dir.mkdir(parents=True, exist_ok=True)
        relative = f"runs/{run_id}.json"
        write_json_document(self.runs_dir / f"{run_id}.json",
                            kind=RUN_RECORD_KIND, payload=payload)
        metrics = payload.get("metrics", {})
        index_line = {
            "run_id": run_id,
            "created_utc": payload["created_utc"],
            "source": payload["source"],
            "app": payload["app"],
            "problem_size": payload.get("problem_size"),
            "cluster": payload.get("cluster", {}).get("name", ""),
            "makespan": metrics.get("makespan"),
            "speed_efficiency": metrics.get("speed_efficiency"),
            "path": relative,
        }
        with self.index_path.open("a") as handle:
            handle.write(json.dumps(index_line, sort_keys=True) + "\n")
        if log is not None:
            log.event("ledger.recorded", run_id=run_id, source=payload["source"],
                      ledger=str(self.root))
        return run_id

    def record_run(
        self,
        app: str,
        cluster: "ClusterSpec",
        record: "RunRecord",
        source: str = "run",
        compute_efficiency: float | None = None,
        extra_metrics: dict[str, float] | None = None,
        fault: dict[str, Any] | None = None,
        log: "StructLogger | None" = None,
    ) -> str:
        """Persist one executed :class:`RunRecord`; returns the run id.

        ``fault`` attaches a fault block to the record (profile hash plus
        the fault metric surface) for runs executed under a fault schedule;
        such records conventionally use ``source="faults"``.
        """
        if compute_efficiency is None:
            from ..apps import APP_COMPUTE_EFFICIENCY

            compute_efficiency = APP_COMPUTE_EFFICIENCY.get(app, 1.0)
        metrics = _run_metrics(record, compute_efficiency)
        if record.run.stats or record.run.rank_summary is None:
            summary = summarize_rank_stats(
                record.run.stats, record.run.makespan
            )
        else:
            # Large-rank run rehydrated from the executor cache: the
            # streaming summary computed at run time *is* the record.
            summary = record.run.rank_summary
        metrics.update(_summary_metrics(summary))
        if extra_metrics:
            metrics.update(extra_metrics)
        m = record.measurement
        run_id = _new_run_id(app, m.problem_size)
        payload: dict[str, Any] = {
            "run_id": run_id,
            "created_utc": _utc_now(),
            "source": source,
            "app": app,
            "problem_size": m.problem_size,
            "cluster": {
                "name": cluster.name,
                "nranks": cluster.nranks,
                "nnodes": cluster.nnodes,
                "spec_hash": cluster_spec_hash(cluster),
            },
            "env": environment_info(),
            "metrics": metrics,
            "rank_summary": summary,
        }
        if fault is not None:
            payload["fault"] = fault
        return self._write(run_id, payload, log=log)

    def record_report(
        self,
        report: "ProfileReport",
        cluster: "ClusterSpec | None" = None,
        log: "StructLogger | None" = None,
    ) -> str:
        """Persist a ``repro profile`` report, reusing its analyzer results."""
        run = report.record.run
        m = report.record.measurement
        run_id = _new_run_id(report.app, report.problem_size)
        decomp = report.decomposition
        metrics = {
            "makespan": run.makespan,
            "speed_efficiency": m.speed_efficiency,
            "work": m.work,
            "marked_speed": m.marked_speed,
            "imbalance_index": report.imbalance,
            "theorem1_ideal_compute": decomp.ideal_compute,
            "theorem1_t0": decomp.t0,
            "theorem1_overhead": decomp.overhead,
            "theorem1_overhead_fraction": decomp.overhead_fraction,
            "events": float(run.events),
            "undelivered_messages": float(run.undelivered_messages),
            "wall_seconds": run.wall_seconds,
            "events_per_second": run.events_per_second,
            "heap_pushes": float(run.heap_pushes),
            "heap_pops": float(run.heap_pops),
            "stale_pops": float(run.stale_pops),
            "stale_pop_ratio": run.stale_pop_ratio,
            "critical_path_length": report.path.length,
            "trace_records": float(len(report.tracer.raw)),
            "trace_dropped": float(report.tracer.dropped),
        }
        summary = summarize_rank_stats(run.stats, run.makespan)
        metrics.update(_summary_metrics(summary))
        cluster_block: dict[str, Any] = {
            "name": report.cluster_name,
            "nranks": len(run.stats),
            "spec_hash": cluster_spec_hash(cluster) if cluster is not None else None,
        }
        payload = {
            "run_id": run_id,
            "created_utc": _utc_now(),
            "source": "profile",
            "app": report.app,
            "problem_size": report.problem_size,
            "cluster": cluster_block,
            "env": environment_info(),
            "metrics": metrics,
            "rank_summary": summary,
        }
        return self._write(run_id, payload, log=log)

    def record_sweep(
        self,
        app: str,
        cluster: "ClusterSpec",
        timeline: Any,
        extra_metrics: dict[str, float] | None = None,
        log: "StructLogger | None" = None,
    ) -> str:
        """Persist one sweep-level telemetry record (``source="sweep"``).

        ``timeline`` is a :class:`~repro.obs.telemetry.SweepTimeline`;
        its flat metric surface (wall seconds, per-phase totals,
        coverage, worker utilization) becomes the record's ``metrics``
        and the full structured view rides along as a ``telemetry``
        block, so overhead fractions are regression-gateable like any
        other metric.  Returns the new run id.
        """
        metrics = dict(timeline.flat_metrics())
        if extra_metrics:
            metrics.update(extra_metrics)
        run_id = _new_run_id(f"sweep-{app}", None)
        payload: dict[str, Any] = {
            "run_id": run_id,
            "created_utc": _utc_now(),
            "source": "sweep",
            "app": app,
            "problem_size": None,
            "cluster": {
                "name": cluster.name,
                "nranks": cluster.nranks,
                "nnodes": cluster.nnodes,
                "spec_hash": cluster_spec_hash(cluster),
            },
            "env": environment_info(),
            "metrics": metrics,
            "telemetry": timeline.to_dict(),
        }
        return self._write(run_id, payload, log=log)

    def record_bench(
        self, payload: dict[str, Any], log: "StructLogger | None" = None
    ) -> str:
        """Persist one raw ``BENCH_*.json`` payload as a bench record."""
        record = bench_to_record(payload)
        run_id = _new_run_id(record["app"], record.get("problem_size"))
        record["run_id"] = run_id
        return self._write(run_id, record, log=log)

    # -- reading -----------------------------------------------------------
    def entries(self) -> Iterator[LedgerEntry]:
        """All index entries in append (chronological) order."""
        if not self.index_path.exists():
            return
        for line in self.index_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn append must not break history
            yield LedgerEntry.from_dict(data)

    def history(
        self,
        app: str | None = None,
        source: str | None = None,
        limit: int | None = None,
    ) -> list[LedgerEntry]:
        """Index entries newest-first, optionally filtered."""
        selected = [
            entry for entry in self.entries()
            if (app is None or entry.app == app)
            and (source is None or entry.source == source)
        ]
        selected.reverse()
        if limit is not None:
            selected = selected[:limit]
        return selected

    def load(self, run_id: str) -> dict[str, Any]:
        """Full record for an exact run id or a unique prefix."""
        from ..core.types import MetricError
        from ..experiments.persistence import read_json_document

        path = self.runs_dir / f"{run_id}.json"
        if not path.exists():
            matches = sorted(self.runs_dir.glob(f"{run_id}*.json")) \
                if self.runs_dir.exists() else []
            if len(matches) == 1:
                path = matches[0]
            elif len(matches) > 1:
                names = ", ".join(p.stem for p in matches[:5])
                raise MetricError(
                    f"run id prefix {run_id!r} is ambiguous in {self.root}: "
                    f"{names}"
                )
            else:
                raise MetricError(
                    f"no run {run_id!r} in ledger {self.root} "
                    f"(see `repro history`)"
                )
        return read_json_document(path, kind=RUN_RECORD_KIND)

    def latest(
        self, app: str | None = None, source: str | None = None
    ) -> dict[str, Any] | None:
        """The newest full record, optionally filtered; None when empty."""
        entries = self.history(app=app, source=source, limit=1)
        if not entries:
            return None
        return self.load(entries[0].run_id)

    def resolve(self, token: str) -> dict[str, Any]:
        """Resolve a CLI run token into a full record dict.

        Accepts ``latest``, a run id (or unique prefix), or a path to a
        run-record document / raw ``BENCH_*.json`` file.
        """
        from ..core.types import MetricError

        if token == "latest":
            record = self.latest()
            if record is None:
                raise MetricError(
                    f"ledger {self.root} is empty; run `repro profile <app>` "
                    "first"
                )
            return record
        path = Path(token)
        if path.suffix == ".json" and path.exists():
            return load_record_file(path)
        return self.load(token)


def load_record_file(path: str | Path) -> dict[str, Any]:
    """Read a record from disk: enveloped run record or raw bench JSON."""
    from ..core.types import MetricError

    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as err:
        raise MetricError(f"cannot read record {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise MetricError(f"corrupt record {path}: {err}") from err
    if not isinstance(data, dict):
        raise MetricError(f"{path} does not contain a JSON object")
    if data.get("kind") == RUN_RECORD_KIND:
        return data
    if "bench" in data:  # raw BENCH_*.json payload
        return bench_to_record(data)
    if "metrics" in data:  # un-enveloped record (e.g. hand-written)
        return data
    raise MetricError(
        f"{path} is neither a {RUN_RECORD_KIND!r} document nor a BENCH "
        "payload"
    )
