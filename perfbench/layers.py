"""Per-layer tracing of a study pass, from outside the program.

:func:`instrument` wraps public functions of each layer for the duration
of a ``with`` block and records spans in memory along the chain::

    pass -> experiments.study -> core.search | experiments.curve
         -> experiments.executor.run_points -> experiments.runner.run_app
         -> sim.engine.run

plus the executor's per-point work (hash, cache get/put, payload
encode/decode), ``overhead.fit`` and ``npb.marked_speed``.  Layers that
run far too often for one span per call -- generator resumes (``apps``,
including nested ``mpi`` collective code), ``network`` transfers and
``sim.mailbox`` matching -- are counted and timed into their enclosing
``sim.engine.run`` span instead.  A span's self time is its duration
minus its children and minus the per-call time folded into it.

Nothing here changes results: every wrapper returns what it wrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator

from repro.experiments import executor, figures, runner, tables
from repro.mpi.collectives import COLLECTIVE_TAG_BASE
from repro.mpi.communicator import Comm
from repro.sim.engine import Engine
from repro.sim.mailbox import MailboxSet

_clock = time.perf_counter


class Span:
    """One layer call; its children are the calls it made."""

    __slots__ = ("name", "start", "end", "meta", "children", "inner")

    def __init__(self, name: str, meta: dict):
        self.name = name
        self.meta = meta
        self.children: list[Span] = []
        self.inner: dict[str, float] = {}
        self.start = _clock()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return (self.duration - sum(c.duration for c in self.children)
                - sum(self.inner.values()))

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, origin: float) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "self_s": self.self_time,
            "meta": self.meta,
            "inner_s": self.inner,
            "children": [c.to_dict(origin) for c in self.children],
        }


class _RunCounters:
    """Per-call counters of one engine run (generator, network, mailbox)."""

    __slots__ = ("gen_s", "resumes", "transfer_s", "transfers",
                 "multicasts", "bytes", "mailbox_s", "deposits",
                 "pop_matches", "coll_ops")

    def __init__(self) -> None:
        self.gen_s = self.transfer_s = self.mailbox_s = self.bytes = 0.0
        self.resumes = self.transfers = self.multicasts = 0
        self.deposits = self.pop_matches = self.coll_ops = 0


class _TimedGen:
    """Stands in for a rank generator; the engine only calls ``send``.

    Collective ops are told apart by their reserved tag space, which
    counts them without wrapping every collective's generator."""

    __slots__ = ("send",)

    def __init__(self, gen, acc: _RunCounters):
        inner = gen.send

        def send(value):
            t = _clock()
            try:
                op = inner(value)
            finally:
                acc.gen_s += _clock() - t
            acc.resumes += 1
            if getattr(op, "tag", -1) >= COLLECTIVE_TAG_BASE:
                acc.coll_ops += 1
            return op

        self.send = send


class Trace:
    """Spans and counters of one traced window."""

    def __init__(self) -> None:
        self.root: Span | None = None
        self._stack: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run: _RunCounters | None = None

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, meta)
        if parent is None:
            if self.root is not None:
                raise RuntimeError("a trace has one root span")
            self.root = span
        else:
            parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = _clock()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, per-call layers included."""
        out: dict[str, float] = defaultdict(float)
        if self.root is None:
            return out
        for span in self.root.walk():
            out[span.name] += span.self_time
            for layer, seconds in span.inner.items():
                out[layer] += seconds
        return dict(out)


def _spanned(trace: Trace, name: str, fn, meta=None):
    def wrapper(*args, **kwargs):
        with trace.span(name, **(meta(*args, **kwargs) if meta else {})):
            return fn(*args, **kwargs)
    return wrapper


def _counted(trace: Trace, key: str, fn):
    """Count calls of ``fn``.  For a ``Comm`` collective the call returns
    its generator unchanged, so no frame is added per yielded op."""

    def wrapper(*args, **kwargs):
        trace.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(trace: Trace) -> Iterator[Trace]:
    """Install the layer wrappers for the ``with`` block, then restore."""
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    engine_run = Engine.run

    def traced_engine_run(engine, programs):
        acc = _RunCounters()
        trace.run = acc
        if callable(programs):
            factory = programs
            programs = lambda rank: _TimedGen(factory(rank), acc)  # noqa: E731
        else:
            programs = [_TimedGen(g, acc) for g in programs]
        network = engine.network
        own = {}
        for attr in ("transfer", "multicast"):
            fn = getattr(network, attr, None)
            if fn is not None:
                own[attr] = _timed_network(fn, acc, attr == "multicast")
        try:
            for attr, fn in own.items():
                setattr(network, attr, fn)
            with trace.span("sim.engine.run", nranks=engine.nranks) as span:
                result = engine_run(engine, programs)
        finally:
            for attr in own:
                delattr(network, attr)
            trace.run = None
        span.inner = {
            "apps.generator": acc.gen_s,
            "network.transfer": acc.transfer_s,
            "sim.mailbox": acc.mailbox_s,
        }
        span.meta.update(
            events=result.events, heap_pushes=result.heap_pushes,
            stale_pops=result.stale_pops, resumes=acc.resumes,
            transfers=acc.transfers, multicasts=acc.multicasts,
            bytes=acc.bytes, deposits=acc.deposits,
            pop_matches=acc.pop_matches, collective_ops=acc.coll_ops,
        )
        return result

    deposit = MailboxSet.deposit
    pop_match = MailboxSet.pop_match

    def traced_deposit(self, msg):
        acc = trace.run
        t = _clock()
        deposit(self, msg)
        if acc is not None:
            acc.mailbox_s += _clock() - t
            acc.deposits += 1

    def traced_pop_match(self, *args):
        acc = trace.run
        t = _clock()
        msg = pop_match(self, *args)
        if acc is not None:
            acc.mailbox_s += _clock() - t
            acc.pop_matches += 1
        return msg

    cache_put = executor.RunCache.put

    def traced_cache_put(self, key, payload, metadata=None):
        with trace.span("experiments.executor.cache_put"):
            path = cache_put(self, key, payload, metadata)
        trace.counts["cache_bytes"] += path.stat().st_size
        return path

    search = tables.required_rank_hybrid

    def traced_search(app, cluster, *args, **kwargs):
        with trace.span("core.search", app=app, cluster=cluster.name,
                        nranks=cluster.nranks) as span:
            n, record = search(app, cluster, *args, **kwargs)
        span.meta.update(answer=n, answer_events=record.run.events)
        return n, record

    run_points = executor.SweepExecutor.run_points

    def traced_run_points(self, points):
        with trace.span("experiments.executor.run_points",
                        points=len(points)) as span:
            records = run_points(self, points)
        span.meta["events"] = sum(r.run.events for r in records)
        return records

    cache_get = executor.RunCache.get

    def traced_cache_get(self, key):
        with trace.span("experiments.executor.cache_get"):
            payload = cache_get(self, key)
        trace.counts["cache_hits" if payload is not None
                     else "cache_misses"] += 1
        return payload

    def curve_meta(app, cluster, sizes, *args, **kwargs):
        return {"app": app, "cluster": cluster.name, "points": len(sizes)}

    def run_app_meta(app, cluster, n, **kwargs):
        return {"app": app, "cluster": cluster.name, "n": n}

    try:
        patch(Engine, "run", traced_engine_run)
        patch(MailboxSet, "deposit", traced_deposit)
        patch(MailboxSet, "pop_match", traced_pop_match)
        patch(Comm, "bcast",
              _counted(trace, "mpi.bcast_calls", Comm.bcast))
        patch(Comm, "barrier",
              _counted(trace, "mpi.barrier_calls", Comm.barrier))
        patch(tables, "required_rank_hybrid", traced_search)
        patch(tables, "fit_machine_parameters", _spanned(
            trace, "overhead.fit", tables.fit_machine_parameters))
        patch(runner, "measure_cluster", _spanned(
            trace, "npb.marked_speed", runner.measure_cluster))
        patch(figures, "efficiency_curve", _spanned(
            trace, "experiments.curve", figures.efficiency_curve, curve_meta))
        patch(executor.SweepExecutor, "run_points", traced_run_points)
        patch(executor, "run_app", _spanned(
            trace, "experiments.runner.run_app", executor.run_app,
            run_app_meta))
        for attr, name in (
            ("point_profile_hash", "hash"),
            ("run_record_to_payload", "to_payload"),
            ("run_record_from_payload", "from_payload"),
        ):
            patch(executor, attr, _spanned(
                trace, f"experiments.executor.{name}",
                getattr(executor, attr)))
        patch(executor.RunCache, "get", traced_cache_get)
        patch(executor.RunCache, "put", traced_cache_put)
        yield trace
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _timed_network(fn, acc: _RunCounters, multicast: bool):
    def timed(src, dst, nbytes, start):
        t = _clock()
        out = fn(src, dst, nbytes, start)
        acc.transfer_s += _clock() - t
        if multicast:
            acc.multicasts += 1
        else:
            acc.transfers += 1
        acc.bytes += nbytes
        return out
    return timed


# -- per-layer accounting -------------------------------------------------------

def _under(span, name: str) -> list:
    return [s for s in span.walk() if s.name == name and s is not span]


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _meta_sum(spans, key: str) -> float:
    return sum(s.meta.get(key, 0) for s in spans)


def coverage(trace: Trace) -> float:
    """Share of the root span's wall time that the layers' self times
    account for: all of it but the root's own self time."""
    root = trace.root
    return 1.0 - root.self_time / root.duration if root.duration > 0 else 0.0


def report(trace: Trace) -> dict[str, Any]:
    """The per-layer self-time table and span tree of one traced window."""
    root = trace.root
    wall = root.duration
    calls: dict[str, int] = {}
    for span in root.walk():
        calls[span.name] = calls.get(span.name, 0) + 1
    rows = sorted(trace.self_times().items(), key=lambda kv: -kv[1])
    return {
        "wall_s": wall,
        "coverage": coverage(trace),
        "layers": [
            {"layer": layer, "self_s": self_s,
             "share": self_s / wall if wall > 0 else 0.0,
             "calls": calls.get(layer, 0)}
            for layer, self_s in rows
        ],
        "spans": root.to_dict(root.start),
    }


def _executor_metrics(trace, wall: float) -> dict[str, float]:
    root = trace.root
    prefix = "experiments.executor."
    times = {name: _total(_under(root, prefix + name))
             for name in ("cache_put", "cache_get", "to_payload",
                          "from_payload", "hash")}
    return {
        "points": _meta_sum(_under(root, prefix + "run_points"), "points"),
        "cache_hits": trace.counts["cache_hits"],
        "cache_misses": trace.counts["cache_misses"],
        "cache_put_s": times["cache_put"],
        "cache_bytes": trace.counts["cache_bytes"],
        "to_payload_s": times["to_payload"],
        "cache_get_s": times["cache_get"],
        "from_payload_s": times["from_payload"],
        "hash_s": times["hash"],
        "put_encode_share": (times["cache_put"] + times["to_payload"]) / wall,
        "get_decode_share": (times["cache_get"] + times["from_payload"]) / wall,
    }


def metrics(cold: Trace, warm: Trace, setup: Trace,
            untraced_s: float) -> dict[str, tuple[float, str]]:
    """The ``per_layer`` metrics: the traced cold pass unprefixed, the
    traced warm pass under ``warm.``."""
    root = cold.root
    wall = root.duration
    searches = _under(root, "core.search")
    probe_spans = [s for search in searches
                   for s in _under(search, "experiments.executor.run_points")]
    answer_events = _meta_sum(searches, "answer_events")
    fits = _under(root, "overhead.fit")
    engines = _under(root, "sim.engine.run")
    engine_s = _total(engines)
    events = _meta_sum(engines, "events")
    collectives = cold.counts["mpi.bcast_calls"] + cold.counts["mpi.barrier_calls"]
    gen_s = sum(s.inner["apps.generator"] for s in engines)
    exe = _executor_metrics(cold, wall)
    runs = _under(root, "experiments.runner.run_app")
    w_root = warm.root
    w_exe = _executor_metrics(warm, w_root.duration)
    w_fits = _under(w_root, "overhead.fit")
    count, sec, ratio = "count", "s", "ratio"
    return {
        "core.search.probes": (_meta_sum(probe_spans, "points"), count),
        "core.search.waste_ratio": (
            _meta_sum(probe_spans, "events") / answer_events
            if answer_events else 0.0, ratio),
        "overhead.fit_runs": (
            sum(len(_under(f, "sim.engine.run")) for f in fits), count),
        "overhead.fit_s": (_total(fits), sec),
        "npb.marked_speed_s": (
            _total(_under(setup.root, "npb.marked_speed")), sec),
        "experiments.executor.points": (exe["points"], count),
        "experiments.executor.cache_hits": (exe["cache_hits"], count),
        "experiments.executor.cache_misses": (exe["cache_misses"], count),
        "experiments.executor.cache_put_s": (exe["cache_put_s"], sec),
        "experiments.executor.cache_bytes": (exe["cache_bytes"], "B"),
        "experiments.executor.to_payload_s": (exe["to_payload_s"], sec),
        "experiments.executor.cache_get_s": (exe["cache_get_s"], sec),
        "experiments.executor.from_payload_s": (exe["from_payload_s"], sec),
        "experiments.executor.hash_s": (exe["hash_s"], sec),
        "experiments.executor.put_encode_share": (
            exe["put_encode_share"], ratio),
        "experiments.runner.runs": (len(runs), count),
        "experiments.runner.run_app_s": (_total(runs), sec),
        "sim.engine.runs": (len(engines), count),
        "sim.engine.run_s": (engine_s, sec),
        "sim.engine.self_s": (sum(s.self_time for s in engines), sec),
        "sim.engine.events": (events, count),
        "sim.engine.us_per_event": (
            1e6 * engine_s / events if events else 0.0, "us"),
        "sim.engine.heap_pushes": (_meta_sum(engines, "heap_pushes"), count),
        "sim.engine.stale_pops": (_meta_sum(engines, "stale_pops"), count),
        "sim.engine.run_share": (engine_s / wall, ratio),
        "sim.mailbox.deposits": (_meta_sum(engines, "deposits"), count),
        "sim.mailbox.pop_match_calls": (
            _meta_sum(engines, "pop_matches"), count),
        "sim.mailbox.match_s": (
            sum(s.inner["sim.mailbox"] for s in engines), sec),
        "apps.resumes": (_meta_sum(engines, "resumes"), count),
        "apps.generator_s": (gen_s, sec),
        "apps.generator_share": (gen_s / wall, ratio),
        "mpi.bcast_calls": (cold.counts["mpi.bcast_calls"], count),
        "mpi.barrier_calls": (cold.counts["mpi.barrier_calls"], count),
        "mpi.ops_per_collective": (
            _meta_sum(engines, "collective_ops") / collectives
            if collectives else 0.0, ratio),
        "network.transfer_calls": (_meta_sum(engines, "transfers"), count),
        "network.transfer_s": (
            sum(s.inner["network.transfer"] for s in engines), sec),
        "network.multicast_calls": (_meta_sum(engines, "multicasts"), count),
        "network.bytes": (_meta_sum(engines, "bytes"), "B"),
        "trace.pass_s": (wall, sec),
        "trace.overhead": (wall / untraced_s, ratio),
        "trace.coverage": (coverage(cold), ratio),
        "warm.pass_s": (w_root.duration, sec),
        "warm.trace.coverage": (coverage(warm), ratio),
        "warm.experiments.executor.cache_hits": (w_exe["cache_hits"], count),
        "warm.experiments.executor.cache_misses": (
            w_exe["cache_misses"], count),
        "warm.experiments.executor.cache_get_s": (w_exe["cache_get_s"], sec),
        "warm.experiments.executor.from_payload_s": (
            w_exe["from_payload_s"], sec),
        "warm.experiments.executor.hash_s": (w_exe["hash_s"], sec),
        "warm.experiments.executor.get_decode_share": (
            w_exe["get_decode_share"], ratio),
        "warm.overhead.fit_s": (_total(w_fits), sec),
        "warm.overhead.fit_runs": (
            sum(len(_under(f, "sim.engine.run")) for f in w_fits), count),
        "warm.sim.engine.runs": (len(_under(w_root, "sim.engine.run")), count),
    }
