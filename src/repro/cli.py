"""Command-line interface: regenerate any paper table or figure.

Examples::

    repro-scalability table1
    repro-scalability table3 --nodes 2 4 8
    repro-scalability fig2 --samples 5
    repro-scalability all --quick
    repro profile gaussian --nodes 4 --out /tmp/prof
    repro table3 --nodes 2 4 --trace-out study-trace.json
    repro history --app ge --limit 10
    repro compare latest 20260805T120000-ge-n300-ab12cd34
    repro baseline set latest && repro baseline check
    repro faults run --smoke
    repro faults run --app ge --slowdown 0.5 --trace-out faulted.json
    repro faults sweep --app ge --severities 0 0.2 0.4 0.6
    repro sweep profile --app ge --jobs 2 --sizes 120 160 200 240
    repro version

(``repro`` and ``repro-scalability`` are the same program; ``python -m
repro`` works too.)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Sequence

from .experiments import figures, tables
from .experiments.report import format_series, format_table

#: Node counts used by --quick (skips the expensive 16/32-node searches).
QUICK_NODE_COUNTS = (2, 4, 8)


def _print(text: str) -> None:
    print(text)
    print()


def cmd_table1(args: argparse.Namespace) -> None:
    rows = tables.table1_marked_speeds()
    _print(
        format_table(
            ["node type", "marked speed (Mflops)"],
            [(m.name, m.mflops) for m in rows],
            title="Table 1: marked speed of Sunwulf nodes",
        )
    )


def cmd_table2(args: argparse.Namespace) -> None:
    rows = tables.table2_ge_two_nodes(network_kind=_network_kind(args))
    _print(
        format_table(
            ["rank N", "workload W (flops)", "time T (s)",
             "achieved speed (Mflops)", "speed-efficiency"],
            [
                (m.problem_size, m.work, m.time, m.speed_mflops,
                 m.speed_efficiency)
                for m in rows
            ],
            title="Table 2: GE on two nodes",
        )
    )


def _node_counts(args: argparse.Namespace) -> tuple[int, ...]:
    if getattr(args, "nodes", None):
        return tuple(args.nodes)
    if getattr(args, "quick", False):
        return QUICK_NODE_COUNTS
    return tables.PAPER_NODE_COUNTS


def cmd_table3(args: argparse.Namespace) -> list[tables.RequiredRankRow]:
    rows = tables.table3_required_rank(
        node_counts=_node_counts(args), network_kind=_network_kind(args)
    )
    _print(
        format_table(
            ["nodes", "processes", "rank N", "workload W",
             "marked speed (Mflops)", "measured E_S"],
            [
                (r.nodes, r.nranks, r.rank_n, r.workload, r.marked_mflops,
                 r.efficiency)
                for r in rows
            ],
            title="Table 3: required rank for 0.3 speed-efficiency (GE)",
        )
    )
    return rows


def cmd_table4(args: argparse.Namespace) -> None:
    rows = cmd_table3(args)
    curve = tables.table4_ge_scalability(rows)
    _print(
        format_table(
            ["transition", "psi"],
            [
                (f"{p.label_from} -> {p.label_to}", p.psi)
                for p in curve.points
            ],
            title="Table 4: measured scalability of GE on Sunwulf",
        )
    )


def cmd_table5(args: argparse.Namespace) -> None:
    rows = tables.table5_mm_required_rank(
        node_counts=_node_counts(args), network_kind=_network_kind(args)
    )
    curve = tables.table5_mm_scalability(rows)
    _print(
        format_table(
            ["transition", "psi"],
            [
                (f"{p.label_from} -> {p.label_to}", p.psi)
                for p in curve.points
            ],
            title="Table 5: measured scalability of MM on Sunwulf",
        )
    )


def cmd_table6(args: argparse.Namespace) -> list[tables.PredictedRankRow]:
    rows = tables.table6_predicted_rank(
        node_counts=_node_counts(args), network_kind=_network_kind(args)
    )
    _print(
        format_table(
            ["nodes", "processes", "predicted rank N"],
            [(r.nodes, r.nranks, round(r.rank_n)) for r in rows],
            title="Table 6: predicted required rank (GE)",
        )
    )
    return rows


def cmd_table7(args: argparse.Namespace) -> None:
    rows = cmd_table6(args)
    points = tables.table7_predicted_scalability(rows)
    _print(
        format_table(
            ["transition", "psi (predicted)"],
            [(f"{p.label_from} -> {p.label_to}", p.psi) for p in points],
            title="Table 7: predicted scalability of GE on Sunwulf",
        )
    )


def cmd_fig1(args: argparse.Namespace) -> None:
    fig = figures.figure1_ge_two_nodes(network_kind=_network_kind(args))
    _print(
        format_series(
            "rank N", "speed-efficiency", fig.series.points,
            title="Figure 1: speed-efficiency of GE on two nodes",
        )
    )
    print(
        f"trend R^2 = {fig.series.trend.r_squared:.4f}; required N for "
        f"E_S={fig.target}: {fig.required_n:.0f}; verification run at "
        f"N={fig.verified_n} measured E_S={fig.verified_efficiency:.4f}"
    )
    print()


def cmd_fig2(args: argparse.Namespace) -> None:
    fig = figures.figure2_mm_curves(
        node_counts=_node_counts(args), samples=args.samples,
        network_kind=_network_kind(args),
    )
    for series in fig.series:
        _print(
            format_series(
                "rank N", "speed-efficiency", series.points,
                title=f"Figure 2 ({series.label}): MM speed-efficiency",
            )
        )
    required = fig.required_sizes()
    _print(
        format_table(
            ["configuration", f"required N for E_S={fig.target}"],
            sorted(required.items()),
            title="Figure 2 trend read-offs",
        )
    )


def _network_kind(args: argparse.Namespace) -> str:
    """Validated network spec from ``--network`` (default: the paper's
    shared bus)."""
    from .network.ethernet import known_network_spec

    spec = getattr(args, "network", None) or "bus"
    if not known_network_spec(spec):
        raise SystemExit(
            f"error: unknown network spec {spec!r} (flat kinds: bus, "
            "switch, zero; hierarchical: fat-tree[:nodes_per_edge"
            "[:oversubscription[:edges_per_pod]]], torus[:width[:height]], "
            "tiered[:nodes_per_rack[:racks_per_zone[:oversubscription]]])"
        )
    return spec


def _cluster_for(app: str, nodes: int, network_kind: str = "bus"):
    """App-specific Sunwulf configuration (canonical app name)."""
    from .machine import ge_configuration, mm_configuration

    if app == "mm":
        return mm_configuration(nodes, network_kind)
    return ge_configuration(nodes, network_kind)


def _app_cluster(args: argparse.Namespace, nodes: int):
    from .experiments.runner import resolve_app

    return _cluster_for(resolve_app(args.app), nodes, _network_kind(args))


def cmd_predict(args: argparse.Namespace) -> None:
    """Automatic scalability prediction (AutoPredictor, future work)."""
    from .experiments.autopredict import AutoPredictor

    counts = _node_counts(args)
    predictor = AutoPredictor(args.app, _app_cluster(args, counts[0]))
    rows = []
    for nodes in counts:
        cluster = _app_cluster(args, nodes)
        n_pred = predictor.required_size(cluster, args.target)
        rows.append((nodes, round(n_pred)))
    _print(
        format_table(
            ["nodes", f"predicted N for E_S={args.target}"],
            rows,
            title=f"Automatic prediction ({args.app})",
        )
    )
    transitions = []
    for a, b in zip(counts, counts[1:]):
        point = predictor.scalability(
            _app_cluster(args, a), _app_cluster(args, b), args.target
        )
        transitions.append((f"{a} -> {b} nodes", point.psi))
    _print(
        format_table(
            ["transition", "psi (predicted)"],
            transitions,
            title="Predicted scalability",
        )
    )


def cmd_breakdown(args: argparse.Namespace) -> None:
    """Per-rank phase breakdown and utilization timeline of one run."""
    from .experiments.analysis import render_breakdown, render_timeline
    from .experiments.runner import run_app
    from .sim.trace import Tracer

    cluster = _app_cluster(args, (_node_counts(args))[0])
    tracer = Tracer()
    record = run_app(args.app, cluster, args.size, tracer=tracer)
    m = record.measurement
    print(
        f"{args.app} at N={args.size} on {cluster.name}: T = {m.time:.4f} s, "
        f"E_S = {m.speed_efficiency:.4f}"
    )
    _print(render_breakdown(record, title="Per-rank breakdown"))
    print(render_timeline(tracer, cluster.nranks, m.time))
    print()


def cmd_profile(args: argparse.Namespace) -> None:
    """Profile one run: trace + metrics + analyzers (``repro profile <app>``)."""
    from .experiments.runner import resolve_app
    from .obs.ledger import RunLedger
    from .obs.profiler import profile_app

    try:
        app = resolve_app(args.app_name if args.app_name else args.app)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}") from None
    cluster = _cluster_for(app, _node_counts(args)[0], _network_kind(args))
    try:
        report = profile_app(app, cluster, args.size, out_dir=args.out)
    except OSError as err:
        raise SystemExit(
            f"error: cannot write profile artifacts to {args.out!r}: {err}"
        ) from None
    print(report.summary)
    print()
    if args.out:
        print(
            f"artifacts in {Path(args.out).resolve()}: "
            "trace.json (chrome://tracing / Perfetto), metrics.json, "
            "summary.txt"
        )
        print()
    ledger = RunLedger(getattr(args, "ledger", None))
    try:
        run_id = ledger.record_report(report, cluster=cluster)
    except OSError as err:
        print(f"warning: could not record run in ledger {ledger.root}: {err}")
    else:
        print(f"ledger: recorded run {run_id} in {ledger.root}")
    print()


def cmd_memory(args: argparse.Namespace) -> None:
    """Memory-feasibility report for one (app, configuration, N)."""
    from .machine.memory import distributed_feasibility, sequential_reference_feasible

    cluster = _app_cluster(args, (_node_counts(args))[0])
    report = distributed_feasibility(cluster, args.app, args.size)
    _print(
        format_table(
            ["node", "required (MB)", "capacity (MB)", "fits"],
            [
                (u.node_id, u.required_mb, u.capacity_mb, u.fits)
                for u in report.nodes
            ],
            title=f"Distributed memory feasibility ({args.app}, N={args.size})",
        )
    )
    seq = sequential_reference_feasible(cluster, args.app, args.size)
    print(
        f"distributed run fits: {report.fits}; sequential reference "
        f"measurable on some node: {seq}"
    )
    print()


# -- run-ledger commands (history / compare / baseline) -----------------------

def cmd_history(args: argparse.Namespace) -> int:
    """List the run ledger (``repro history``)."""
    from .obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    # `engine` is the user-facing name for executor-recorded per-point
    # runs, which the ledger stores as source="run".
    source = {"engine": "run"}.get(args.source, args.source)
    entries = ledger.history(app=args.app, source=source,
                             limit=args.limit)
    if not entries:
        print(
            f"ledger {ledger.root} has no matching runs "
            "(record one with `repro profile <app>`)"
        )
        return 0

    def fmt(value, pattern="{:.6g}"):
        return pattern.format(value) if value is not None else "-"

    _print(
        format_table(
            ["run id", "created (UTC)", "source", "app", "N", "cluster",
             "makespan (s)", "E_S"],
            [
                (e.run_id, e.created_utc, e.source, e.app,
                 e.problem_size if e.problem_size is not None else "-",
                 e.cluster, fmt(e.makespan), fmt(e.speed_efficiency, "{:.4f}"))
                for e in entries
            ],
            title=f"Run ledger {ledger.root} (newest first)",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Metric-by-metric delta table between two runs (``repro compare``)."""
    from .core.types import MetricError
    from .obs.ledger import RunLedger
    from .obs.regression import compare_records

    ledger = RunLedger(args.ledger)
    try:
        baseline = ledger.resolve(args.run_a)
        candidate = ledger.resolve(args.run_b)
    except MetricError as err:
        raise SystemExit(f"error: {err}") from None
    report = compare_records(baseline, candidate)
    _print(report.format())
    if args.check and report.verdict == "FAIL":
        return 1
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    """Freeze / check a named perf baseline (``repro baseline set|check``)."""
    from .core.types import MetricError
    from .obs.ledger import RunLedger
    from .obs.regression import (
        baseline_path,
        compare_records,
        load_baseline,
        save_baseline,
    )

    ledger = RunLedger(args.ledger)
    try:
        record = ledger.resolve(args.run)
    except MetricError as err:
        raise SystemExit(f"error: {err}") from None

    if args.action == "set":
        path = save_baseline(record, name=args.name, root=args.baselines)
        print(
            f"baseline {args.name!r} set to run "
            f"{record.get('run_id', '?')} at {path}"
        )
        print()
        return 0

    baseline = load_baseline(name=args.name, root=args.baselines)
    if baseline is None:
        print(
            f"WARN: no baseline {args.name!r} at "
            f"{baseline_path(args.name, args.baselines)}; nothing to check "
            "(create one with `repro baseline set`)"
        )
        print()
        return 0
    report = compare_records(baseline, record)
    _print(report.format(
        title=f"Baseline check ({args.name!r}) against "
              f"{record.get('run_id', '?')}"
    ))
    if report.verdict == "FAIL":
        failed = ", ".join(d.name for d in report.failed)
        print(f"FAIL: metric regression past threshold: {failed}")
        print()
        return 0 if args.warn_only else 1
    return 0


# -- shared execution flags ---------------------------------------------------

#: The flags of every command that runs simulations, defined once.
_EXECUTION_FLAGS: dict[str, dict[str, Any]] = {
    "jobs": dict(
        type=int, default=1, metavar="J",
        help="fan independent runs over J worker processes (default "
             "%(default)s; 1 is serial, bit-identical to the legacy path)",
    ),
    "no_keep_pool": dict(
        action="store_true",
        help="spawn a throwaway worker pool per batch instead of "
             "reusing the process-wide warm pool (legacy behavior)",
    ),
    "no_cache": dict(
        action="store_true",
        help="bypass the persistent run cache ($REPRO_CACHE_DIR or "
             ".repro/cache) and re-simulate every point",
    ),
    "progress": dict(
        action="store_true",
        help="live sweep heartbeat on stderr: points done/total, ETA, "
             "cache hit-rate and worker utilization",
    ),
    # What a ledger records differs per command, so each command gives
    # its own --ledger help.
    "ledger": dict(default=None, metavar="DIR"),
}


def _execution_flags(
    *names: str, **overrides: dict[str, Any]
) -> argparse.ArgumentParser:
    """A parent parser carrying the named execution flags.

    ``names`` are keys of the shared flag table (``jobs``,
    ``no_keep_pool``, ``no_cache``, ``progress``, ``ledger``);
    ``overrides`` maps a name to ``add_argument`` keywords (the help of
    ``ledger``, another default) for commands that need them.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        spec = {**_EXECUTION_FLAGS[name], **overrides.get(name, {})}
        parent.add_argument("--" + name.replace("_", "-"), **spec)
    return parent


# -- sweep executor plumbing (--jobs / --no-cache) ----------------------------

def _build_executor(args: argparse.Namespace):
    """The sweep executor for a command's --jobs/--no-cache flags."""
    from .experiments.executor import RunCache, SweepExecutor

    jobs = getattr(args, "jobs", 1)
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise SystemExit(f"error: --jobs must be >= 1, got {jobs}")
    cache = None if getattr(args, "no_cache", False) else RunCache()
    telemetry = bool(getattr(args, "profile", False))
    keep_pool = not getattr(args, "no_keep_pool", False)
    return SweepExecutor(jobs=jobs, cache=cache, telemetry=telemetry,
                         progress=_build_progress(args),
                         keep_pool=keep_pool)


def _build_progress(args: argparse.Namespace):
    """A live heartbeat reporter when --progress was given, else None."""
    if not getattr(args, "progress", False):
        return None
    from .obs.streaming import ProgressReporter

    return ProgressReporter()


def _print_cache_stats(executor) -> None:
    """One summary line when the persistent run cache was in play."""
    if executor is None or executor.cache is None:
        return
    stats = executor.cache_stats()
    if stats["hits"] or stats["misses"]:
        print(
            f"run cache: {stats['hits']} hit(s), {stats['misses']} miss(es) "
            f"({executor.cache.root})"
        )
        print()


# -- fault-injection commands (faults run / faults sweep) ---------------------

def _load_or_build_schedule(args: argparse.Namespace, nranks: int):
    """Resolve the schedule source flags of ``repro faults run``."""
    from .core.types import MetricError
    from .faults import FaultSchedule, FaultScheduleError, uniform_slowdown

    if args.schedule:
        try:
            return FaultSchedule.load(args.schedule)
        except (MetricError, FaultScheduleError) as err:
            raise SystemExit(f"error: {err}") from None
    if args.slowdown is not None:
        if not 0.0 <= args.slowdown < 1.0:
            raise SystemExit(
                f"error: --slowdown must be in [0, 1), got {args.slowdown}"
            )
        return uniform_slowdown(nranks, args.slowdown)
    raise SystemExit(
        "error: give a fault source: --schedule PATH, --slowdown SEV, "
        "or --smoke"
    )


def cmd_faults_run(args: argparse.Namespace) -> int:
    """Run one application under a fault schedule (``repro faults run``)."""
    from .experiments.runner import RunRecord, resolve_app, run_app
    from .faults import FaultSchedule, NodeCrash, run_app_under_faults
    from .sim.errors import SimulationError
    from .sim.trace import Tracer

    try:
        app = resolve_app(args.app)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}") from None
    cluster = _cluster_for(app, args.nodes, _network_kind(args))

    baseline: RunRecord | bool = not args.no_baseline
    if args.smoke:
        # Canned crash+restart scenario: crash the last rank at 30% of the
        # fault-free makespan, bring it back after 10% + 5% recompute.  The
        # baseline run doubles as the degraded-psi anchor.
        base = run_app(app, cluster, args.size, seed=args.seed)
        t = base.run.makespan
        schedule = FaultSchedule((
            NodeCrash(rank=cluster.nranks - 1, at=0.3 * t,
                      restart_delay=0.1 * t, recompute_seconds=0.05 * t),
        ))
        baseline = base
    else:
        schedule = _load_or_build_schedule(args, cluster.nranks)

    flight = None
    if args.flight:
        from .sim.flight import FlightRecorder

        flight = FlightRecorder()
    tracer = Tracer() if args.trace_out else None
    try:
        faulty = run_app_under_faults(
            app, cluster, args.size, schedule,
            baseline=baseline, tracer=tracer, seed=args.seed, flight=flight,
        )
    except SimulationError as err:
        # With a flight recorder attached the engine dumped its ring on
        # the way out -- point the user at the black box before exiting.
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        if flight is not None:
            for path in flight.dumps:
                print(
                    f"flight dump: {path} "
                    f"(inspect with `repro flight show {path}`)",
                    file=sys.stderr,
                )
        return 1
    if flight is not None:
        # Watchdog dumps from a run that still *completed* (e.g. a
        # utilization collapse after a fail-stop with restart).
        for path in flight.dumps:
            print(f"flight dump (watchdog): {path}")

    m = faulty.faulted.measurement
    print(
        f"{app} at N={args.size} on {cluster.name} under "
        f"{len(schedule)} fault event(s) "
        f"[profile {faulty.fault_profile_hash}]"
    )
    rows = [
        ("makespan T' (s)", f"{faulty.makespan:.4f}"),
        ("C_eff (Mflop/s)", f"{faulty.c_eff / 1e6:.1f}"),
        ("availability min", f"{min(faulty.availabilities):.4f}"),
        ("E_S (marked C)", f"{m.speed_efficiency:.4f}"),
        ("E_S^fault (C_eff)", f"{faulty.fault_speed_efficiency:.4f}"),
    ]
    if faulty.baseline is not None:
        rows[0:0] = [
            ("baseline T (s)", f"{faulty.baseline.run.makespan:.4f}"),
        ]
        rows.append(("degraded psi", f"{faulty.psi:.4f}"))
    print()
    _print(format_table(["metric", "value"], rows, title="Faulted run"))
    events = faulty.injector.events
    if events:
        _print(format_table(
            ["t (s)", "rank", "kind", "detail"],
            [
                (f"{e.time:.4f}", e.rank if e.rank >= 0 else "net",
                 e.kind, e.detail)
                for e in events
            ],
            title="Fault events",
        ))

    if tracer is not None:
        from .obs.chrome_trace import write_chrome_trace

        count = write_chrome_trace(args.trace_out, tracer,
                                   topology=cluster.topology())
        suffix = (
            f" ({tracer.dropped} records dropped past the tracer limit)"
            if tracer.dropped else ""
        )
        print(f"wrote {count} trace events to {args.trace_out}{suffix}")
        print()
    if args.smoke or args.ledger is not None:
        from .obs.ledger import RunLedger

        ledger = RunLedger(args.ledger)
        try:
            run_id = faulty.to_ledger(ledger)
        except OSError as err:
            print(
                f"warning: could not record run in ledger {ledger.root}: "
                f"{err}"
            )
        else:
            print(f"ledger: recorded run {run_id} in {ledger.root}")
        print()
    return 0


def cmd_faults_sweep(args: argparse.Namespace) -> int:
    """psi-vs-fault-intensity table (``repro faults sweep``)."""
    from .experiments.runner import resolve_app
    from .faults import (
        psi_is_monotone_nonincreasing,
        render_sweep,
        slowdown_sweep,
    )

    try:
        app = resolve_app(args.app)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}") from None
    for severity in args.severities:
        if not 0.0 <= severity < 1.0:
            raise SystemExit(
                f"error: severities must be in [0, 1), got {severity}"
            )
    cluster = _cluster_for(app, args.nodes, _network_kind(args))
    executor = _build_executor(args)
    with ExitStack() as stack:
        if args.ledger is not None:
            from .experiments.runner import ledger_recording
            from .obs.ledger import RunLedger

            stack.enter_context(ledger_recording(RunLedger(args.ledger)))
        rows = slowdown_sweep(
            app, cluster, args.size, severities=args.severities,
            seed=args.seed, executor=executor,
        )
    _print(render_sweep(
        rows,
        title=f"Scalability under faults ({app}, N={args.size}, "
              f"{cluster.name})",
    ))
    monotone = psi_is_monotone_nonincreasing(rows)
    print(f"psi monotone non-increasing with severity: {monotone}")
    print()
    _print_cache_stats(executor)
    if getattr(args, "profile", False) and executor.timeline is not None:
        _print(executor.timeline.format_report(
            title=f"Sweep overhead attribution ({app} faults sweep, "
                  f"jobs={executor.jobs})",
        ))
    if args.out:
        import json as _json
        from dataclasses import asdict

        payload = {
            "app": app,
            "cluster": cluster.name,
            "problem_size": args.size,
            "rows": [asdict(r) for r in sorted(rows, key=lambda r: r.severity)],
            "psi_monotone_nonincreasing": monotone,
            "cache": executor.cache_stats(),
            "jobs": executor.jobs,
        }
        if getattr(args, "profile", False) and executor.timeline is not None:
            payload["telemetry"] = executor.timeline.to_dict()
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(payload, indent=2) + "\n")
        print(f"wrote sweep data to {out}")
        print()
    return 0


def _parse_cluster_model(spec: str, network: str):
    """``GROUP:COUNT[,GROUP:COUNT...]`` -> fuzz :class:`ClusterModel`."""
    from .fuzz import ClusterModel, ScenarioError

    groups = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        try:
            groups.append((name.strip(), int(count) if count else 1))
        except ValueError:
            raise SystemExit(
                f"error: bad cluster group {part!r} "
                f"(expected GROUP:COUNT)"
            ) from None
    try:
        return ClusterModel(groups=tuple(groups), network=network)
    except ScenarioError as err:
        raise SystemExit(f"error: {err}") from None


def cmd_faults_attack(args: argparse.Namespace) -> int:
    """Worst-case resilience curve via adversarial search
    (``repro faults attack``)."""
    from .experiments.runner import resolve_app
    from .fuzz import (
        FuzzError,
        attack_to_ledger,
        load_case,
        make_case,
        render_attack_curve,
        replay_case,
        resilience_curve,
        save_case,
    )
    from .obs.ledger import RunLedger

    try:
        app = resolve_app(args.app)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}") from None
    if args.smoke:
        # Fast fixed-seed CI shape: small problem, few iterations, the
        # curve recorded to the ledger and the optimum replayed from a
        # corpus entry to prove bit-identical replay.
        size = args.size if args.size is not None else 64
        budgets = args.budgets or [0.2, 0.5]
        iterations = min(args.iterations, 8)
        corpus_dir = args.corpus or ".repro/fuzz/corpus"
        record = True
    else:
        size = args.size if args.size is not None else 96
        budgets = args.budgets or [0.1, 0.25, 0.5, 1.0]
        iterations = args.iterations
        corpus_dir = args.corpus
        record = args.ledger is not None
    cluster = _parse_cluster_model(args.cluster, args.network)
    executor = _build_executor(args)
    try:
        results = resilience_curve(
            app, cluster, size, budgets,
            iterations=iterations, seed=args.seed, executor=executor,
        )
    except FuzzError as err:
        raise SystemExit(f"error: {err}") from None
    _print(render_attack_curve(
        results,
        title=f"Worst-case resilience curve ({app}, N={size}, "
              f"{cluster.name}[{cluster.network}])",
    ))
    worst = min(results, key=lambda r: r.psi)
    print(
        f"worst case: psi={worst.psi:.4f} at budget {worst.budget:g} "
        f"({len(worst.scenario.schedule)} fault event(s), "
        f"scenario {worst.scenario.scenario_hash()})"
    )
    print()
    if record:
        ledger = RunLedger(args.ledger)
        for result in results:
            run_id = attack_to_ledger(result, ledger, executor=executor)
            print(
                f"ledger: recorded attack run {run_id} "
                f"(budget {result.budget:g}) in {ledger.root}"
            )
        print()
    if corpus_dir:
        case = make_case(
            worst.scenario, executor=executor,
            provenance={
                "origin": "faults-attack",
                "app": app, "budget": worst.budget, "seed": args.seed,
                "psi": worst.psi, "score": worst.score,
            },
        )
        path = save_case(case, corpus_dir)
        print(f"corpus: saved worst-case scenario to {path}")
        replay = replay_case(load_case(path), executor=executor)
        if replay.ok:
            print("corpus: replay is bit-identical (psi/makespan match)")
        else:
            for line in replay.mismatches:
                print(f"corpus: replay mismatch: {line}")
            for violation in replay.report.violations:
                print(f"corpus: replay violation: {violation}")
            print()
            return 1
        print()
    _print_cache_stats(executor)
    if args.out:
        import json as _json

        payload = {
            "app": app,
            "cluster": cluster.to_payload(),
            "problem_size": size,
            "seed": args.seed,
            "iterations": iterations,
            "curve": [r.to_payload() for r in results],
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(payload, indent=2) + "\n")
        print(f"wrote attack curve to {out}")
        print()
    return 0


def build_faults_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description=(
            "Fault injection: run applications under deterministic fault "
            "schedules and measure scalability under faults."
        ),
    )
    sub = parser.add_subparsers(dest="faults_command", required=True)

    run = sub.add_parser(
        "run", help="run one application under a fault schedule",
        parents=[_execution_flags(
            "ledger",
            ledger={"help": "record the run in this ledger (default ledger "
                            "with --smoke)"},
        )],
    )
    run.add_argument(
        "--app",
        choices=["ge", "gaussian", "mm", "matmul", "stencil", "jacobi", "fft"],
        default="ge", help="application to run (default: ge)",
    )
    run.add_argument("--nodes", type=int, default=2,
                     help="Sunwulf node count (default 2)")
    run.add_argument(
        "--network", default="bus", metavar="SPEC",
        help="interconnect model: bus (default), switch, or a "
             "hierarchical spec such as fat-tree:8:2, tiered:4",
    )
    run.add_argument("--size", type=int, default=300,
                     help="problem size N (default 300)")
    run.add_argument(
        "--schedule", default=None, metavar="PATH",
        help="fault-schedule JSON document to inject "
             "(see repro.faults.FaultSchedule.save)",
    )
    run.add_argument(
        "--slowdown", type=float, default=None, metavar="SEV",
        help="uniform whole-run slowdown of the given severity on every rank",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="canned crash+restart scenario (crash at 30%% of the fault-free "
             "makespan, restart after 10%% + 5%% recompute) recorded to the "
             "ledger; the CI smoke step",
    )
    run.add_argument("--seed", type=int, default=0,
                     help="workload seed (default 0)")
    run.add_argument(
        "--no-baseline", action="store_true",
        help="skip the fault-free baseline run (degraded psi unavailable)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace of the faulted run (fault track included)",
    )
    run.add_argument(
        "--flight", action="store_true",
        help="attach a flight recorder to the faulted engine: on a crash "
             "(or watchdog trip) the last-K trace records are dumped to "
             ".repro/flight/ for `repro flight show`",
    )
    run.set_defaults(func=cmd_faults_run)

    sweep = sub.add_parser(
        "sweep", help="psi-vs-fault-intensity table (uniform slowdown scan)",
        parents=[_execution_flags(
            "jobs", "no_keep_pool", "no_cache", "ledger", "progress",
            ledger={"help": "record every run of the sweep in this ledger "
                            "(with a cache_hit metric per record)"},
        )],
    )
    sweep.add_argument(
        "--app",
        choices=["ge", "gaussian", "mm", "matmul", "stencil", "jacobi", "fft"],
        default="ge", help="application to sweep (default: ge)",
    )
    sweep.add_argument("--nodes", type=int, default=2,
                       help="Sunwulf node count (default 2)")
    sweep.add_argument(
        "--network", default="bus", metavar="SPEC",
        help="interconnect model: bus (default), switch, or a "
             "hierarchical spec such as fat-tree:8:2, tiered:4",
    )
    sweep.add_argument("--size", type=int, default=300,
                       help="problem size N (default 300)")
    sweep.add_argument(
        "--severities", type=float, nargs="+",
        default=[0.0, 0.2, 0.4, 0.6],
        help="slowdown severities to scan (default: 0.0 0.2 0.4 0.6)",
    )
    sweep.add_argument("--seed", type=int, default=0,
                       help="workload seed (default 0)")
    sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the sweep rows as JSON (includes cache hit/miss "
             "counts)",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="collect cross-process telemetry and print the "
             "overhead-attribution phase table (also lands in --out "
             "as a `telemetry` block)",
    )
    sweep.set_defaults(func=cmd_faults_sweep)

    attack = sub.add_parser(
        "attack",
        help="adversarial search for worst-case resilience curves",
        parents=[_execution_flags(
            "jobs", "no_keep_pool", "no_cache", "ledger",
            ledger={"help": "record each budget optimum as a source=attack "
                            "ledger run (default ledger with --smoke)"},
        )],
    )
    attack.add_argument(
        "--app",
        choices=["ge", "gaussian", "mm", "matmul", "stencil", "jacobi", "fft"],
        default="ge", help="application to attack (default: ge)",
    )
    attack.add_argument(
        "--cluster", default="blade:2,v210:1", metavar="SPEC",
        help="heterogeneous cluster as GROUP:COUNT[,GROUP:COUNT...] over "
             "the fuzz node palette (blade, v210, generic, server); "
             "default: blade:2,v210:1",
    )
    attack.add_argument(
        "--network", default="bus", metavar="SPEC",
        help="network spec for the cluster: bus, switch, or a "
             "hierarchical spec such as fat-tree:8:2, torus, tiered:4 "
             "(default: bus)",
    )
    attack.add_argument("--size", type=int, default=None,
                        help="problem size N (default 96; 64 with --smoke)")
    attack.add_argument(
        "--budgets", type=float, nargs="+", default=None, metavar="B",
        help="injected-cost budgets for the resilience curve "
             "(default: 0.1 0.25 0.5 1.0; 0.2 0.5 with --smoke)",
    )
    attack.add_argument(
        "--iterations", type=int, default=40,
        help="hill-climbing iterations per budget (default 40, "
             "capped at 8 with --smoke)",
    )
    attack.add_argument("--seed", type=int, default=0,
                        help="search seed (default 0)")
    attack.add_argument(
        "--smoke", action="store_true",
        help="fast fixed-seed shape for CI: small problem, few "
             "iterations, curve recorded to the ledger and the worst "
             "case saved to a corpus entry + replayed bit-identically",
    )
    attack.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="save the worst-case scenario as a replayable corpus case "
             "here (.repro/fuzz/corpus with --smoke)",
    )
    attack.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the resilience curve as JSON",
    )
    attack.set_defaults(func=cmd_faults_attack)
    return parser


def faults_main(argv: Sequence[str]) -> int:
    args = build_faults_parser().parse_args(argv)
    return args.func(args)


# -- fuzz commands (repro fuzz) -----------------------------------------------

def cmd_fuzz_run(args: argparse.Namespace) -> int:
    """Seeded invariant-fuzzing campaign (``repro fuzz run``)."""
    from .fuzz import fuzz_campaign, violation_kinds

    executor = _build_executor(args)
    result = fuzz_campaign(
        count=args.count,
        seed=args.seed,
        executor=executor,
        shrink=not args.no_shrink,
        bit_identity_every=args.bit_identity_every,
        network_wrapper=args.network_wrapper,
        corpus_dir=args.corpus,
        artifacts_dir=args.artifacts,
    )
    print(result.summary())
    for report, path in zip(result.violating, result.corpus_paths):
        kinds = ", ".join(sorted(violation_kinds(report))) or "error"
        print(f"  violation [{kinds}]: {report.scenario.describe()}")
        print(f"    corpus case: {path}")
    for path in result.artifact_paths:
        print(f"  artifacts: {path}")
    print()
    _print_cache_stats(executor)
    return 0 if result.ok else 1


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Re-run every minimized corpus case (``repro fuzz replay``)."""
    from .fuzz import (
        CorpusError,
        corpus_paths,
        load_case,
        replay_case,
    )

    paths = corpus_paths(args.corpus)
    if not paths:
        print(f"no corpus cases under {args.corpus or 'tests/fuzz/corpus'}")
        return 0
    executor = _build_executor(args)
    failures = 0
    for path in paths:
        try:
            case = load_case(path)
            replay = replay_case(case, executor=executor)
        except CorpusError as err:
            failures += 1
            print(f"FAIL {path.name}: {err}")
            continue
        if replay.ok:
            print(f"ok   {case.name}: {case.scenario.describe()}")
            continue
        failures += 1
        print(f"FAIL {case.name}: {case.scenario.describe()}")
        for line in replay.mismatches:
            print(f"     mismatch: {line}")
        for violation in replay.report.violations:
            print(f"     violation: {violation}")
    print()
    print(f"replayed {len(paths)} case(s), {failures} failing")
    print()
    _print_cache_stats(executor)
    return 0 if failures == 0 else 1


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Property-based scenario fuzzing: generate adversarial "
            "(cluster x app x N x fault schedule) scenarios, check "
            "simulator invariants, shrink violations to minimal "
            "replayable corpus cases."
        ),
    )
    sub = parser.add_subparsers(dest="fuzz_command", required=True)

    run = sub.add_parser(
        "run", help="run a seeded fuzz campaign against the invariant oracle",
        parents=[_execution_flags("jobs", "no_keep_pool", "no_cache")],
    )
    run.add_argument("--count", type=int, default=20,
                     help="scenarios to generate (default 20)")
    run.add_argument("--seed", type=int, default=0,
                     help="campaign seed; same seed => same scenarios "
                          "(default 0)")
    run.add_argument(
        "--bit-identity-every", type=int, default=0, metavar="K",
        help="run the serial==pool==cached bit-identity probe on every "
             "K-th scenario (0: off; the probe spawns a process pool)",
    )
    run.add_argument(
        "--network-wrapper", default=None, metavar="NAME",
        help="apply a registered network wrapper to every scenario "
             "(fuzz an experimental network model)",
    )
    run.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="where violating scenarios land as corpus cases "
             "(default: $REPRO_FUZZ_CORPUS_DIR or tests/fuzz/corpus)",
    )
    run.add_argument(
        "--artifacts", default=".repro/fuzz", metavar="DIR",
        help="violation artifacts: scenario+violations JSON and flight "
             "ring dumps (default .repro/fuzz)",
    )
    run.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging violating scenarios before persisting",
    )
    run.set_defaults(func=cmd_fuzz_run)

    replay = sub.add_parser(
        "replay", help="re-run every minimized corpus case as a regression",
        parents=[_execution_flags("jobs", "no_keep_pool", "no_cache")],
    )
    replay.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus directory (default: $REPRO_FUZZ_CORPUS_DIR or "
             "tests/fuzz/corpus)",
    )
    replay.set_defaults(func=cmd_fuzz_replay)
    return parser


def fuzz_main(argv: Sequence[str]) -> int:
    args = build_fuzz_parser().parse_args(argv)
    return args.func(args)


# -- sweep telemetry commands (sweep profile) ---------------------------------

def cmd_sweep_profile(args: argparse.Namespace) -> int:
    """Cold-sweep overhead attribution (``repro sweep profile``).

    Runs one cache-cold parallel efficiency sweep with cross-process
    telemetry enabled and prints the phase table that explains where
    the wall time went -- the tool that makes a <1x cold "speedup"
    (``BENCH_sweep.json``) diagnosable.  A serial reference sweep is
    timed first (skip with ``--no-serial``) so the report can state the
    measured serial-vs-parallel comparison directly.
    """
    import json as _json
    import tempfile

    from .experiments.executor import RunCache, SweepExecutor
    from .experiments.runner import resolve_app
    from .experiments.sweep import efficiency_curve

    try:
        app = resolve_app(args.app)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}") from None
    if args.jobs < 1:
        raise SystemExit(f"error: --jobs must be >= 1, got {args.jobs}")
    cluster = _cluster_for(app, args.nodes, _network_kind(args))
    sizes = [int(n) for n in args.sizes]

    serial_seconds = None
    if not args.no_serial:
        start = time.perf_counter()
        efficiency_curve(app, cluster, sizes, executor=SweepExecutor(jobs=1))
        serial_seconds = time.perf_counter() - start

    with ExitStack() as stack:
        if args.cache is not None:
            cache = RunCache(root=args.cache)
        else:
            # A throwaway cache keeps the profiled sweep genuinely cold
            # while still exercising the cache probe/write phases.
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-sweep-profile-")
            )
            cache = RunCache(root=Path(tmp) / "cache")
        if args.ledger is not None:
            from .experiments.runner import ledger_recording
            from .obs.ledger import RunLedger

            stack.enter_context(ledger_recording(RunLedger(args.ledger)))
        keep_pool = not args.no_keep_pool
        if args.warm_pool and keep_pool:
            # Pay the one-off worker spawn before the profiled window,
            # so the report shows the steady-state (warm-pool) sweep.
            from .experiments.pool import shared_pool

            shared_pool(args.jobs).warm_up()
        executor = SweepExecutor(
            jobs=args.jobs, cache=cache, telemetry=True,
            progress=_build_progress(args), keep_pool=keep_pool,
        )
        efficiency_curve(app, cluster, sizes, executor=executor)
        timeline = executor.timeline
    _print(timeline.format_report(
        title=f"Sweep overhead attribution ({app}, "
              f"sizes {' '.join(map(str, sizes))}, jobs={args.jobs}, "
              f"{cluster.name})",
        serial_seconds=serial_seconds,
    ))
    if args.trace_out:
        from .obs.chrome_trace import write_telemetry_trace

        count = write_telemetry_trace(args.trace_out, timeline)
        print(
            f"wrote {count} telemetry trace events to {args.trace_out} "
            "(one track per worker process)"
        )
        print()
    if args.out:
        wall = timeline.wall_seconds
        payload = {
            "app": app,
            "cluster": cluster.name,
            "sizes": sizes,
            "jobs": args.jobs,
            "serial_seconds": serial_seconds,
            "parallel_seconds": wall,
            "speedup": (
                serial_seconds / wall
                if serial_seconds is not None and wall > 0 else None
            ),
            "telemetry": timeline.to_dict(),
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(payload, indent=2) + "\n")
        print(f"wrote sweep profile to {out}")
        print()
    return 0


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Sweep-executor tooling: cross-process telemetry and "
            "overhead attribution of the parallel sweep path."
        ),
    )
    sub = parser.add_subparsers(dest="sweep_command", required=True)

    profile = sub.add_parser(
        "profile",
        help="run one cache-cold telemetered sweep and attribute its "
             "wall time to spawn/queue/cache/engine phases",
        parents=[_execution_flags(
            "jobs", "no_keep_pool", "ledger", "progress",
            jobs={"default": 2},
            ledger={"help": "record the profiled runs plus a sweep-level "
                            "telemetry record (source=sweep) in this ledger"},
        )],
    )
    profile.add_argument(
        "--app",
        choices=["ge", "gaussian", "mm", "matmul", "stencil", "jacobi", "fft"],
        default="ge", help="application to sweep (default: ge)",
    )
    profile.add_argument("--nodes", type=int, default=2,
                         help="Sunwulf node count (default 2)")
    profile.add_argument(
        "--network", default="bus", metavar="SPEC",
        help="interconnect model: bus (default), switch, or a "
             "hierarchical spec such as fat-tree:8:2, tiered:4",
    )
    profile.add_argument(
        "--sizes", type=int, nargs="+", default=[120, 160, 200, 240],
        help="problem sizes of the sweep (default: 120 160 200 240)",
    )
    profile.add_argument(
        "--no-serial", action="store_true",
        help="skip the serial reference sweep (no speedup comparison "
             "in the report)",
    )
    profile.add_argument(
        "--warm-pool", action="store_true",
        help="pre-spawn the shared worker pool before the profiled "
             "sweep, so the report shows the steady-state warm-pool "
             "phase table (no spawn cost in the window)",
    )
    profile.add_argument(
        "--cache", default=None, metavar="DIR",
        help="run-cache directory to use (default: a throwaway "
             "directory, so the profiled sweep is cache-cold)",
    )
    profile.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the merged worker timeline as Chrome trace JSON "
             "(one labeled track per worker process)",
    )
    profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the overhead report as JSON (phases, coverage, "
             "worker utilization, serial-vs-parallel speedup)",
    )
    profile.set_defaults(func=cmd_sweep_profile)
    return parser


def sweep_main(argv: Sequence[str]) -> int:
    args = build_sweep_parser().parse_args(argv)
    return args.func(args)


# -- flight-recorder commands (flight list / flight show) ---------------------

def cmd_flight_list(args: argparse.Namespace) -> int:
    """Enumerate flight dumps, newest first (``repro flight list``)."""
    from .obs.flight import format_dump_line, list_dumps, load_dump
    from .sim.flight import flight_dir

    root = Path(args.dir) if args.dir else flight_dir()
    dumps = list_dumps(root)
    if not dumps:
        print(
            f"no flight dumps in {root} (a recorder dumps there when an "
            "engine run dies or the watchdog trips; attach one with "
            "`repro faults run --flight`)"
        )
        return 0
    for path in dumps:
        try:
            print(format_dump_line(path, load_dump(path)))
        except (OSError, ValueError) as err:
            print(f"{path.name}  (unreadable: {err})")
    print()
    return 0


def cmd_flight_show(args: argparse.Namespace) -> int:
    """Render one flight dump (``repro flight show [DUMP]``)."""
    from .obs.flight import format_dump, list_dumps, load_dump
    from .sim.flight import flight_dir

    root = Path(args.dir) if args.dir else flight_dir()
    if args.dump:
        path = Path(args.dump)
        if not path.exists() and (root / args.dump).exists():
            path = root / args.dump  # bare file name from `flight list`
    else:
        dumps = list_dumps(root)
        if not dumps:
            raise SystemExit(f"error: no flight dumps in {root}")
        path = dumps[0]
    try:
        doc = load_dump(path)
    except (OSError, ValueError) as err:
        raise SystemExit(f"error: {err}") from None
    print(format_dump(doc, tail=args.tail))
    print()
    print(
        f"source: {path} (the traceEvents key loads in chrome://tracing "
        "/ Perfetto)"
    )
    return 0


def build_flight_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro flight",
        description=(
            "Flight-recorder post-mortems: list and render the last-K "
            "record dumps written when a run dies or the watchdog trips."
        ),
    )
    parser.add_argument(
        "--dir", default=None, metavar="DIR",
        help="dump directory (default: $REPRO_FLIGHT_DIR or .repro/flight)",
    )
    # Also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # value from being overwritten by the subparser's default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dir", default=argparse.SUPPRESS, metavar="DIR",
        help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="flight_command", required=True)

    lst = sub.add_parser("list", help="list dumps, newest first",
                         parents=[common])
    lst.set_defaults(func=cmd_flight_list)

    show = sub.add_parser("show", help="render one dump as a readable trace "
                                       "tail", parents=[common])
    show.add_argument(
        "dump", nargs="?", default=None,
        help="dump file (path or bare name from `flight list`; default: "
             "the newest dump)",
    )
    show.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="only the last N records before the failure (default: all "
             "retained records)",
    )
    show.set_defaults(func=cmd_flight_show)
    return parser


def flight_main(argv: Sequence[str]) -> int:
    args = build_flight_parser().parse_args(argv)
    return args.func(args)


#: Ledger commands routed to their own parser (multi-positional grammar).
LEDGER_COMMANDS = ("history", "compare", "baseline")


def build_ledger_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run-ledger tools: history, comparison, perf baselines.",
        parents=[_execution_flags("ledger", ledger={
            "help": "ledger directory (default: $REPRO_LEDGER_DIR or "
                    ".repro/ledger)",
        })],
    )
    # Also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # value from being overwritten by the subparser's default.
    common = _execution_flags("ledger", ledger={
        "default": argparse.SUPPRESS, "help": argparse.SUPPRESS,
    })
    sub = parser.add_subparsers(dest="ledger_command", required=True)

    history = sub.add_parser("history", help="list recorded runs",
                             parents=[common])
    history.add_argument("--app", default=None,
                         help="only runs of this application")
    history.add_argument("--source", default=None,
                         choices=["run", "engine", "sweep", "profile",
                                  "bench", "faults"],
                         help="only runs recorded by this source "
                              "(`engine` = executor-recorded per-point "
                              "runs, `sweep` = sweep-level telemetry "
                              "records)")
    history.add_argument("--limit", type=int, default=20,
                         help="show at most this many runs (default 20)")
    history.set_defaults(func=cmd_history)

    compare = sub.add_parser(
        "compare", help="metric-by-metric delta table between two runs",
        parents=[common],
    )
    compare.add_argument(
        "run_a", help="baseline run: id/prefix, 'latest', or a JSON path"
    )
    compare.add_argument(
        "run_b", help="candidate run: id/prefix, 'latest', or a JSON path"
    )
    compare.add_argument(
        "--check", action="store_true",
        help="exit nonzero when the comparison verdict is FAIL",
    )
    compare.set_defaults(func=cmd_compare)

    baseline = sub.add_parser(
        "baseline", help="freeze or check a named perf baseline",
        parents=[common],
    )
    baseline.add_argument("action", choices=["set", "check"])
    baseline.add_argument(
        "run", nargs="?", default="latest",
        help="run to freeze/check: id/prefix, 'latest' (default), or a "
             "JSON path (run record or BENCH_*.json)",
    )
    baseline.add_argument("--name", default="default",
                          help="baseline name (default: 'default')")
    baseline.add_argument(
        "--baselines", default=None, metavar="DIR",
        help="baseline directory (default: $REPRO_BASELINE_DIR or "
             ".repro/baselines)",
    )
    baseline.add_argument(
        "--warn-only", action="store_true",
        help="report FAIL verdicts but exit zero (first-run CI mode)",
    )
    baseline.set_defaults(func=cmd_baseline)
    return parser


def ledger_main(argv: Sequence[str]) -> int:
    args = build_ledger_parser().parse_args(argv)
    if getattr(args, "baselines", None) is None:
        args.baselines = os.environ.get("REPRO_BASELINE_DIR")
    return args.func(args)


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "table5": cmd_table5,
    "table6": cmd_table6,
    "table7": cmd_table7,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
}

#: Tool commands excluded from `all` (they take app/size arguments).
TOOL_COMMANDS = {
    "predict": cmd_predict,
    "breakdown": cmd_breakdown,
    "memory": cmd_memory,
    "profile": cmd_profile,
}


def cmd_all(args: argparse.Namespace) -> None:
    for name, command in COMMANDS.items():
        start = time.time()
        command(args)
        print(f"[{name} done in {time.time() - start:.1f}s]")
        print()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scalability",
        description=(
            "Regenerate the evaluation tables/figures of 'Scalability of "
            "Heterogeneous Computing' (Sun, Chen, Wu; ICPP 2005) on the "
            "simulated Sunwulf cluster."
        ),
        epilog=(
            "Run-ledger commands have their own grammar: "
            "`repro history [--app A]`, `repro compare RUN_A RUN_B`, "
            "`repro baseline set|check [RUN]`; see `repro history --help`. "
            "Fault injection: `repro faults run|sweep|attack` "
            "(see `repro faults --help`). Scenario fuzzing: "
            "`repro fuzz run|replay` (see `repro fuzz --help`). "
            "Sweep overhead attribution: "
            "`repro sweep profile` (see `repro sweep --help`)."
        ),
        parents=[_execution_flags(
            "jobs", "no_keep_pool", "no_cache", "progress", "ledger",
            ledger={"help": "run-ledger directory (default: "
                            "$REPRO_LEDGER_DIR or .repro/ledger); `profile` "
                            "always records there, and giving the flag on "
                            "any other command records every simulated run "
                            "it executes (inspect with `repro history`)"},
        )],
    )
    parser.add_argument(
        "what",
        choices=[*COMMANDS, *TOOL_COMMANDS, "all"],
        help="which table/figure to regenerate, or a tool command "
             "(predict/breakdown/memory/profile)",
    )
    parser.add_argument(
        "app_name", nargs="?", default=None,
        help="application name for `profile` (ge/gaussian, mm/matmul, "
             "stencil/jacobi, fft); other commands take --app",
    )
    parser.add_argument(
        "--nodes", type=int, nargs="+", default=None,
        help="override the node counts of the study (default: paper's 2..32)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="restrict studies to 2-8 nodes (fast smoke run)",
    )
    parser.add_argument(
        "--network", default="bus", metavar="SPEC",
        help="interconnect model for every simulated cluster: bus "
             "(paper default), switch, or a hierarchical spec such as "
             "fat-tree:8:2, torus:16:8, tiered:8:4:2",
    )
    parser.add_argument(
        "--samples", type=int, default=6,
        help="samples per efficiency curve for figures (default 6)",
    )
    parser.add_argument(
        "--app",
        choices=["ge", "gaussian", "mm", "matmul", "stencil", "jacobi", "fft"],
        default="ge",
        help="application for the tool commands (default: ge)",
    )
    parser.add_argument(
        "--size", type=int, default=300,
        help="problem size N for breakdown/memory/profile (default 300; "
             "fft needs a power of two)",
    )
    parser.add_argument(
        "--target", type=float, default=0.3,
        help="target speed-efficiency for predict (default 0.3)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory for `profile` artifacts "
             "(trace.json, metrics.json, summary.txt)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export a Chrome trace-event JSON of every simulated run the "
             "command executes (open in chrome://tracing or Perfetto; "
             "disables run-cache reads so every run is really simulated)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in ("version", "--version", "-V"):
        from . import __version__

        # The same string write_json_document stamps into every document.
        print(f"repro {__version__}")
        return 0
    if argv and argv[0] == "faults":
        return faults_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "flight":
        return flight_main(argv[1:])
    if argv and argv[0] in LEDGER_COMMANDS:
        return ledger_main(argv)
    args = build_parser().parse_args(argv)
    from .experiments.runner import resolve_app

    args.app = resolve_app(args.app)  # normalize aliases once

    def dispatch() -> None:
        if args.what == "all":
            cmd_all(args)
        elif args.what in TOOL_COMMANDS:
            TOOL_COMMANDS[args.what](args)
        else:
            COMMANDS[args.what](args)

    executor = None
    collector = None
    with ExitStack() as stack:
        if args.trace_out:
            from .experiments.runner import collect_traces

            collector = stack.enter_context(collect_traces())
        if args.ledger and args.what != "profile":
            # `profile` records its full analyzer report itself.
            from .experiments.runner import ledger_recording
            from .obs.ledger import RunLedger

            stack.enter_context(ledger_recording(RunLedger(args.ledger)))
        if args.what != "profile":
            from .experiments.executor import sweep_execution

            executor = stack.enter_context(
                sweep_execution(_build_executor(args))
            )
        dispatch()
    _print_cache_stats(executor)
    if collector is not None:
        from .obs.chrome_trace import write_chrome_trace

        count = write_chrome_trace(args.trace_out, collector.runs)
        dropped = collector.warn_if_dropped()
        suffix = (
            f" ({dropped} records dropped past the per-run limit of "
            f"{collector.limit})" if dropped else ""
        )
        print(
            f"wrote {count} trace events from {len(collector.runs)} "
            f"simulated run(s) to {args.trace_out}{suffix}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
