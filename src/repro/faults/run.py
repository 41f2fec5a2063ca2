"""Drivers: run applications under a fault schedule and compare.

``faulty_mpi_run`` is a drop-in for :func:`repro.mpi.mpi_run` that wraps
the per-rank programs (compute faults) and the network model (link faults)
according to a :class:`~repro.faults.schedule.FaultSchedule`;
``make_fault_launcher`` packages it as a ``launcher=`` for the experiment
runners, so every application (GE, MM, FFT, stencil) runs under faults
with its normal workload/measurement bookkeeping.

``run_app_under_faults`` produces a :class:`FaultyRun`: the faulted
execution, an optional fault-free baseline of the same (app, cluster, N),
and the derived fault metrics -- per-rank availabilities, the effective
marked speed ``C_eff``, fault-adjusted speed-efficiency and the Theorem-1
degraded ψ.  ``slowdown_sweep`` scans slowdown severity to produce the
scalability-under-faults table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..apps import APP_COMPUTE_EFFICIENCY
from ..core.marked_speed import SystemMarkedSpeed
from ..core.types import MetricError
from ..experiments.runner import (
    RunRecord,
    marked_speed_of,
    resolve_app,
    run_app,
)
from ..machine.cluster import ClusterSpec
from ..mpi.communicator import CollectiveConfig, Comm
from ..sim.engine import Engine, RunResult
from ..sim.trace import Tracer
from .analysis import (
    FaultSweepRow,
    availability_weighted_speed,
    degraded_psi,
    fault_speed_efficiency,
)
from .injection import FaultInjector, faulty_program_factory
from .network import FaultyNetworkModel
from .schedule import FaultSchedule, uniform_slowdown

def faulty_mpi_run(
    nranks: int,
    network: Any,
    flops_per_second: Sequence[float],
    program: Any,
    schedule: FaultSchedule,
    config: CollectiveConfig | None = None,
    injector: FaultInjector | None = None,
    tracer: Tracer | None = None,
    metrics: Any = None,
    log: Any = None,
    max_events: int = 50_000_000,
    flight: Any = None,
) -> RunResult:
    """Run an SPMD program with the scheduled faults injected.

    Same contract as :func:`repro.mpi.mpi_run`; an empty schedule
    reproduces it bit for bit (raw generators, unwrapped network).  Pass an
    :class:`FaultInjector` to observe what actually happened (downtime,
    fail-stop times, dropped messages, the fault event trace).
    """
    schedule.validate_for(nranks)
    if injector is None:
        injector = FaultInjector(schedule, log=log)
    elif injector.log is None:
        injector.log = log
    speeds = [float(s) for s in flops_per_second]

    def factory(rank: int):
        return program(Comm(rank, nranks, config=config))

    wrapped = faulty_program_factory(factory, schedule, speeds, injector)
    net = (
        FaultyNetworkModel(network, schedule, injector)
        if schedule.has_network_faults
        else network
    )
    engine = Engine(
        nranks=nranks,
        network=net,
        flops_per_second=speeds,
        tracer=tracer,
        metrics=metrics,
        log=log,
        max_events=max_events,
        flight=flight,
    )
    result = engine.run(wrapped)
    if tracer is not None:
        injector.annotate_tracer(tracer)
    return result


def make_fault_launcher(
    schedule: FaultSchedule,
    injector: FaultInjector | None = None,
    flight: Any = None,
):
    """Package ``faulty_mpi_run`` as a ``launcher=`` for the app runners.

    ``flight`` optionally attaches a
    :class:`~repro.sim.flight.FlightRecorder` to every engine the
    launcher builds — the natural place for a black box, since faulted
    runs are exactly where post-mortem context is wanted.
    """

    def launch(
        nranks: int,
        network: Any,
        flops_per_second: Sequence[float],
        program: Any,
        config: CollectiveConfig | None = None,
        tracer: Tracer | None = None,
        metrics: Any = None,
        log: Any = None,
        max_events: int = 50_000_000,
        flight: Any = flight,
    ) -> RunResult:
        return faulty_mpi_run(
            nranks, network, flops_per_second, program, schedule,
            config=config, injector=injector, tracer=tracer,
            metrics=metrics, log=log, max_events=max_events,
            flight=flight,
        )

    return launch


@dataclass
class FaultyRun:
    """A faulted execution plus the derived degraded-performance metrics."""

    app: str
    cluster: ClusterSpec
    schedule: FaultSchedule
    injector: FaultInjector
    faulted: RunRecord
    baseline: RunRecord | None
    marked: SystemMarkedSpeed
    compute_efficiency: float

    @property
    def makespan(self) -> float:
        return self.faulted.run.makespan

    @property
    def availabilities(self) -> list[float]:
        """Per-rank availability ``a_i`` over the faulted run."""
        return self.injector.availabilities(self.cluster.nranks, self.makespan)

    @property
    def c_eff(self) -> float:
        """Availability-weighted effective marked speed ``Σ C_i·a_i``."""
        return availability_weighted_speed(
            self.marked.speeds, self.availabilities
        )

    @property
    def fault_speed_efficiency(self) -> float:
        """``E_S = W / (T · C_eff)`` of the faulted run."""
        return fault_speed_efficiency(
            self.faulted.measurement.work, self.makespan, self.c_eff
        )

    @property
    def psi(self) -> float:
        """Theorem-1 degraded ψ against the fault-free baseline."""
        if self.baseline is None:
            raise MetricError(
                "degraded ψ needs a fault-free baseline "
                "(run_app_under_faults(..., baseline=True))"
            )
        return degraded_psi(
            self.faulted.measurement.work,
            self.marked.total,
            self.baseline.run.makespan,
            self.makespan,
            compute_efficiency=self.compute_efficiency,
        )

    @property
    def fault_profile_hash(self) -> str:
        return self.schedule.profile_hash()

    def fault_metrics(self) -> dict[str, float]:
        """The flat metric block ledger records carry for faulted runs."""
        out = {
            "fault_events": float(len(self.schedule)),
            "c_eff_mflops": self.c_eff / 1e6,
            "availability_min": min(self.availabilities),
            "fault_speed_efficiency": self.fault_speed_efficiency,
            "messages_dropped": float(self.injector.messages_dropped),
            "failed_ranks": float(len(self.injector.failed_at)),
            "downtime_total": sum(self.injector.downtime.values()),
        }
        if self.baseline is not None:
            out["baseline_makespan"] = self.baseline.run.makespan
            out["degraded_psi"] = self.psi
        return out

    def to_ledger(
        self,
        ledger: Any = None,
        log: Any = None,
        source: str = "faults",
        extra_metrics: dict[str, float] | None = None,
    ) -> str:
        """Record the faulted run in a ledger (``source="faults"``).

        The record carries the normal metric surface plus the fault metric
        block and a ``fault`` section with the schedule's ``profile_hash``
        and its full event list, so history stays comparable per scenario.
        ``source``/``extra_metrics`` let derived drivers (the adversarial
        search records ``source="attack"`` with its budget/score surface)
        reuse the same record shape.  Returns the new run id.
        """
        if ledger is None:
            from ..obs.ledger import RunLedger

            ledger = RunLedger()
        metrics = self.fault_metrics()
        if extra_metrics:
            metrics.update(extra_metrics)
        return ledger.record_run(
            self.app,
            self.cluster,
            self.faulted,
            source=source,
            compute_efficiency=self.compute_efficiency,
            extra_metrics=metrics,
            fault={
                "profile_hash": self.fault_profile_hash,
                "schedule": self.schedule.to_payload(),
            },
            log=log,
        )


def run_app_under_faults(
    app: str,
    cluster: ClusterSpec,
    n: int,
    schedule: FaultSchedule,
    baseline: RunRecord | bool = True,
    tracer: Tracer | None = None,
    metrics: Any = None,
    log: Any = None,
    seed: int = 0,
    flight: Any = None,
    **run_kwargs: Any,
) -> FaultyRun:
    """Run one application under ``schedule``; optionally with a fault-free
    baseline of the same configuration for degraded-ψ.

    ``baseline`` may be ``True`` (run one), ``False`` (skip; ψ unavailable)
    or an existing :class:`RunRecord` to reuse.  ``flight`` attaches a
    :class:`~repro.sim.flight.FlightRecorder` to the faulted engine.
    """
    app = resolve_app(app)
    schedule.validate_for(cluster.nranks)
    marked = marked_speed_of(cluster)
    injector = FaultInjector(schedule, log=log)
    base_record: RunRecord | None
    if baseline is True:
        base_record = run_app(
            app, cluster, n, marked=marked, log=log, seed=seed, **run_kwargs
        )
    elif baseline is False:
        base_record = None
    else:
        base_record = baseline
    faulted = run_app(
        app, cluster, n,
        marked=marked, tracer=tracer, metrics=metrics, log=log, seed=seed,
        launcher=make_fault_launcher(schedule, injector, flight=flight),
        **run_kwargs,
    )
    return FaultyRun(
        app=app,
        cluster=cluster,
        schedule=schedule,
        injector=injector,
        faulted=faulted,
        baseline=base_record,
        marked=marked,
        compute_efficiency=APP_COMPUTE_EFFICIENCY[app],
    )


def slowdown_sweep(
    app: str,
    cluster: ClusterSpec,
    n: int,
    severities: Sequence[float] = (0.0, 0.2, 0.4, 0.6),
    onset: float = 0.0,
    duration: float | None = None,
    log: Any = None,
    seed: int = 0,
    executor: Any = None,
) -> list[FaultSweepRow]:
    """Scalability under faults: scan uniform slowdown severity.

    Every rank of the cluster is slowed by ``severity`` (whole-run by
    default); one shared fault-free baseline anchors degraded ψ.  More
    severity can only inflate the faulted overhead ``T_o'``, so ψ is
    monotonically non-increasing along the sweep (the acceptance shape).

    Severity points are independent: with a parallel/caching
    :class:`~repro.experiments.executor.SweepExecutor` (explicit or
    ambient) the baseline and every faulted run fan out together, and
    repeated sweeps replay from the run cache (the schedule's
    ``profile_hash`` is part of the cache key).
    """
    from ..experiments.executor import SweepPoint, resolve_executor

    app = resolve_app(app)
    exe = resolve_executor(executor)
    with exe.setup_span("marked_speed"):
        marked = marked_speed_of(cluster)
    schedules = [
        uniform_slowdown(
            cluster.nranks, severity, onset=onset, duration=duration
        )
        for severity in severities
    ]
    points = [SweepPoint.make(app, cluster, n, log=log, seed=seed)]
    points += [
        SweepPoint.make(
            app, cluster, n, schedule=schedule,
            marked=marked, log=log, seed=seed,
        )
        for schedule in schedules
    ]
    pairs = exe.run_faulted(points)
    base = pairs[0][0]
    rows: list[FaultSweepRow] = []
    for severity, schedule, (faulted, injector) in zip(
        severities, schedules, pairs[1:]
    ):
        faulty = FaultyRun(
            app=app,
            cluster=cluster,
            schedule=schedule,
            injector=injector,
            faulted=faulted,
            baseline=base,
            marked=marked,
            compute_efficiency=APP_COMPUTE_EFFICIENCY[app],
        )
        rows.append(FaultSweepRow(
            severity=severity,
            baseline_makespan=base.run.makespan,
            makespan=faulty.makespan,
            c_eff=faulty.c_eff,
            speed_efficiency=faulty.faulted.speed_efficiency,
            fault_speed_efficiency=faulty.fault_speed_efficiency,
            psi=faulty.psi,
        ))
    return rows


def render_sweep(rows: Sequence[FaultSweepRow], title: str = "") -> str:
    """The ψ-vs-fault-intensity table (fixed-width text)."""
    from ..experiments.report import format_table

    return format_table(
        ["severity", "T (s)", "T'/T", "C_eff (Mflop/s)", "E_S", "E_S^fault",
         "psi"],
        [
            [
                f"{row.severity:.2f}",
                f"{row.makespan:.4f}",
                f"{row.slowdown:.3f}",
                f"{row.c_eff / 1e6:.1f}",
                f"{row.speed_efficiency:.4f}",
                f"{row.fault_speed_efficiency:.4f}",
                f"{row.psi:.4f}",
            ]
            for row in sorted(rows, key=lambda r: r.severity)
        ],
        title=title or "Scalability under faults (uniform slowdown)",
    )
