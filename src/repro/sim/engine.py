"""Conservative discrete-event engine for simulated message-passing programs.

Processes are Python generators yielding the primitives in
:mod:`repro.sim.events`.  The engine always advances the runnable process
with the *smallest local virtual clock*, which keeps shared-resource network
models (e.g. the shared-bus Ethernet) causal: when a transfer is requested at
local time ``t``, every other live process has already progressed to a clock
``>= t`` or is blocked waiting on a message, so no transfer with an earlier
start time can be requested afterwards.

The engine is composed of three layers (see docs/API.md, "Engine
architecture"):

* :class:`~repro.sim.scheduler.Scheduler` — the time-ordered run queue:
  heap, seq stamps, stale-entry and receive-timeout bookkeeping.
* :class:`~repro.sim.mailbox.MailboxSet` — per-``(src, tag)`` indexed
  message matching with an exact wildcard path (smallest ``(arrival,
  seq)`` wins) and timed-receive deadline filtering.
* :class:`~repro.sim.dispatch.DispatchTable` — the ``{op type: handler}``
  table the hot loop resolves ``type(op)`` through.  The built-in
  primitives below register into the default table exactly like an
  extension would.

Observability is one record stream: each handler makes at most one
``record((rank, kind, start, end, *extras))`` call per event (the tuple
layout is documented on :class:`~repro.sim.trace.Tracer`).  ``Engine.run``
binds ``record`` once per run: ``None`` when no sink is attached, the
flight ring's bound ``deque.append`` (or the tracer's ``append``) when one
is, and a small fan-out closure otherwise.

Timing semantics:

* ``Compute(flops=f)`` advances the clock by ``f / flops_per_second[rank]``;
  ``Compute(flops=f, seconds=s)`` advances it by ``s`` while still crediting
  ``f`` flops to the rank's stats (an explicit duration override, used e.g.
  by fault injection to model degraded rates without losing work accounting).
* ``Send`` asks the network model for ``(sender_done, arrival)`` and advances
  the sender's clock to ``sender_done``; the message is deposited in the
  destination mailbox with the given arrival time.
* ``Recv`` completes at ``max(post_time, arrival)`` of the first matching
  message (smallest arrival, ties broken by deposit sequence); if no match
  exists, the process blocks until a matching send occurs.  A receive posted
  with ``timeout=`` resumes with ``None`` at ``post_time + timeout`` when no
  match arrived in time; a matching message whose arrival lies *past* the
  deadline does not complete the timed receive — it stays in the mailbox
  for a later receive (arrival exactly at the deadline is delivered).
* A network model may signal *in-transit loss* by returning
  ``arrival == math.inf`` from ``transfer``: the sender is charged normally
  (``sender_done``), but the message is never deposited at the destination
  and is counted in ``RankStats.messages_lost`` of the sender.

The run is fully deterministic for a fixed program and network model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Sequence

from .dispatch import DispatchTable, default_dispatch, register_handler
from .errors import (
    DeadlockError,
    EventLimitExceeded,
    InvalidOperationError,
    ProtocolError,
)
from .events import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Log,
    Message,
    Multicast,
    Now,
    Recv,
    Send,
)
from .mailbox import MailboxSet
from .scheduler import Scheduler
from .trace import RankStats, RankStatsArray, Tracer

#: Sentinel arrival time a network model returns for a message lost in
#: transit (the engine then never delivers it).
_INF = math.inf

#: A simulated process: a generator yielding SimOp objects, receiving results.
Program = Generator[Any, Any, Any]
#: A factory building the per-rank process generator.
ProgramFactory = Callable[[int], Program]


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    ``stats`` is a sequence with the :class:`RankStats` surface: a plain
    list for rehydrated runs, a column-backed
    :class:`~repro.sim.trace.RankStatsArray` (lazily materializing
    dataclass views) for engine-produced results.  Above the large-rank
    serialization threshold a cached run carries only ``rank_summary``
    (the streaming :func:`~repro.obs.streaming.summarize_rank_stats`
    block) with empty ``finish_times``/``stats``; ``makespan`` then falls
    back to the summary's recorded value.
    """

    finish_times: list[float]
    stats: Sequence[RankStats]
    events: int
    tracer: Tracer | None = None
    return_values: list[Any] = field(default_factory=list)
    undelivered_messages: int = 0
    wall_seconds: float = 0.0
    heap_pushes: int = 0
    stale_pops: int = 0
    heap_pops: int = 0
    rank_summary: dict | None = None

    @property
    def makespan(self) -> float:
        """Virtual time at which the last process finished (the run time T)."""
        if self.finish_times:
            return max(self.finish_times)
        if self.rank_summary is not None:
            return float(self.rank_summary.get("makespan", 0.0))
        return 0.0

    @property
    def events_per_second(self) -> float:
        """Engine self-profile: simulated events per wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def stale_pop_ratio(self) -> float:
        """Fraction of heap pops that were stale entries (scheduler waste)."""
        total = self.heap_pops
        return self.stale_pops / total if total > 0 else 0.0

    @property
    def total_bytes(self) -> float:
        """Total bytes injected into the network across all ranks."""
        total = getattr(self.stats, "total_bytes_sent", None)
        if total is not None:
            return total  # column sum, no per-rank views materialized
        return sum(s.bytes_sent for s in self.stats)

    @property
    def messages_lost(self) -> int:
        """Messages dropped in transit by the network model (all ranks)."""
        total = getattr(self.stats, "total_messages_lost", None)
        if total is not None:
            return total
        return sum(s.messages_lost for s in self.stats)


class _Proc:
    """Book-keeping for one simulated process."""

    __slots__ = ("rank", "gen", "send", "time", "done", "waiting",
                 "block_start", "pending", "value", "resume_seq",
                 "deadline_seq")

    def __init__(self, rank: int, gen: Program):
        self.rank = rank
        self.gen = gen
        self.send = gen.send  # bound once; resumed once per primitive event
        self.time = 0.0
        self.done = False
        self.waiting: Recv | None = None  # blocked receive, if any
        self.block_start = 0.0
        self.pending: Any = None  # value to feed the generator on next resume
        self.value: Any = None  # generator return value
        self.resume_seq = -1  # scheduler seq of this process's live resume entry
        self.deadline_seq: int | None = None  # scheduler seq of a pending timeout


class RunContext:
    """Per-run state handed to dispatch handler factories.

    One instance exists per ``Engine.run``; factories bind whatever they
    need from it into their handler closures (see
    :mod:`repro.sim.dispatch` for the registration contract).

    ``complete_recv(proc, msg, posted_at)`` accounts a matched receive and
    re-queues the process; ``deliver(msg)`` routes a just-arrived message
    to an eligible waiting receive or into the mailbox index, enforcing
    the timed-receive deadline rule in both cases.  ``record`` is the
    run's record hook (``None`` when no sink listens): a handler passes
    it one raw ``(rank, kind, start, end, *extras)`` tuple per event.
    """

    __slots__ = ("engine", "nranks", "flops_per_second", "network",
                 "transfer", "native_multicast", "procs", "stats",
                 "scheduler", "mailboxes", "record", "complete_recv",
                 "deliver")

    def __init__(
        self,
        engine: "Engine",
        procs: list[_Proc],
        stats: RankStatsArray,
        scheduler: Scheduler,
        mailboxes: MailboxSet,
        record: Callable[[tuple], None] | None,
    ):
        self.engine = engine
        self.nranks = engine.nranks
        self.flops_per_second = engine.flops_per_second
        self.network = engine.network
        self.transfer = engine.network.transfer
        # A network model's multicast support is fixed per instance (e.g.
        # FaultyNetworkModel only advertises it when its inner model does),
        # so resolve it once per run instead of once per event.
        self.native_multicast = getattr(engine.network, "multicast", None)
        self.procs = procs
        self.stats = stats
        self.scheduler = scheduler
        self.mailboxes = mailboxes
        # The per-run record hook (None when no sink listens).
        self.record = record

        push = scheduler.push_resume
        deposit = mailboxes.deposit
        # Stats columns, bound once per run: handler closures accumulate
        # into flat arrays instead of per-rank objects.
        recv_wait_time = stats.recv_wait_time
        bytes_received = stats.bytes_received
        messages_received = stats.messages_received

        def complete_recv(proc: _Proc, msg: Message, posted_at: float) -> None:
            t = proc.time
            arrival = msg.arrival
            if arrival > t:
                t = arrival
            proc.time = t
            rank = proc.rank
            recv_wait_time[rank] += t - posted_at
            bytes_received[rank] += msg.nbytes
            messages_received[rank] += 1
            if record is not None:
                record((rank, "recv", posted_at, t, msg.src, msg.tag,
                        msg.nbytes))
            proc.waiting = None
            proc.deadline_seq = None  # cancel any pending receive timeout
            proc.pending = msg
            push(proc)

        def deliver(msg: Message) -> None:
            dst_proc = procs[msg.dst]
            waiting = dst_proc.waiting
            if (
                waiting is not None
                and msg.matches(waiting.src, waiting.tag)
                and (
                    waiting.timeout is None
                    or msg.arrival
                    <= dst_proc.block_start + waiting.timeout
                )
            ):
                complete_recv(dst_proc, msg, dst_proc.block_start)
            else:
                # No eligible waiter (none posted, no match, or the
                # arrival is past a timed receive's deadline).
                deposit(msg)

        self.complete_recv = complete_recv
        self.deliver = deliver


class Engine:
    """Runs a set of per-rank generator programs over a network model.

    Parameters
    ----------
    nranks:
        Number of simulated processes (ranks ``0 .. nranks-1``).
    network:
        Object with ``transfer(src, dst, nbytes, start) -> (sender_done,
        arrival)`` and optionally ``reset()``.
    flops_per_second:
        Effective compute speed of each rank for this program, in flops/s.
    tracer:
        Optional :class:`Tracer` collecting full event records.
    metrics:
        Optional metrics sink (e.g. :class:`repro.obs.MetricsRegistry`).
        Duck-typed: the engine calls ``metrics.record_op(rank, kind, start,
        end, nbytes=..., flops=...)`` once per traced primitive (adapted
        from the raw record tuple) and ``metrics.record_engine(events=...,
        wall_seconds=..., heap_pushes=..., stale_pops=..., makespan=...)``
        once per run.  With no sink attached at all the hot loop pays a
        single ``None`` test per primitive.
    log:
        Optional structured logger (e.g. :class:`repro.obs.StructLogger`).
        Duck-typed: the engine calls ``log.event(name, **fields)`` at run
        start and completion (run-level events only; attach the logger as
        ``metrics=`` instead for per-operation JSONL).
    max_events:
        Safety limit on primitive operations processed.
    dispatch:
        Optional :class:`~repro.sim.dispatch.DispatchTable`; defaults to
        the shared table carrying the built-in primitives plus anything
        registered via :func:`~repro.sim.dispatch.register_handler`.
    flight:
        Optional :class:`~repro.sim.flight.FlightRecorder`.  Keeps the
        most recent K trace records in a bounded ring and auto-dumps
        them to ``.repro/flight/`` when an error escapes the run loop
        or the run-completion watchdog trips.  Read-only: attaching it
        never changes results (bit-identity is pinned by
        ``tests/sim/test_bit_identity.py``).
    """

    def __init__(
        self,
        nranks: int,
        network: Any,
        flops_per_second: Sequence[float],
        tracer: Tracer | None = None,
        metrics: Any = None,
        log: Any = None,
        max_events: int = 50_000_000,
        dispatch: DispatchTable | None = None,
        flight: Any = None,
    ):
        if nranks <= 0:
            raise InvalidOperationError(f"nranks must be positive, got {nranks}")
        if len(flops_per_second) != nranks:
            raise InvalidOperationError(
                f"flops_per_second has {len(flops_per_second)} entries "
                f"for {nranks} ranks"
            )
        for rank, speed in enumerate(flops_per_second):
            if speed <= 0:
                raise InvalidOperationError(
                    f"flops_per_second[{rank}] must be positive, got {speed}"
                )
        # Bind-time topology validation: a network model built from an
        # empty or length-mismatched node-id sequence would otherwise
        # surface later as an opaque IndexError inside transfer().
        topology = getattr(network, "topology", None)
        if topology is not None:
            topo_ranks = getattr(topology, "nranks", None)
            if topo_ranks is not None and topo_ranks != nranks:
                raise InvalidOperationError(
                    f"network topology maps {topo_ranks} ranks but the "
                    f"engine is running {nranks}; build the topology from "
                    f"one node id per rank (Topology.from_sequence(ids, "
                    f"nranks=...) validates this at construction)"
                )
        self.nranks = nranks
        self.network = network
        self.flops_per_second = [float(s) for s in flops_per_second]
        self.tracer = tracer
        self.metrics = metrics
        self.log = log
        self.max_events = max_events
        self.dispatch = dispatch if dispatch is not None else default_dispatch()
        self.flight = flight

    # ------------------------------------------------------------------
    def run(self, programs: ProgramFactory | Iterable[Program]) -> RunResult:
        """Execute the programs to completion and return timing results."""
        if callable(programs):
            gens = [programs(rank) for rank in range(self.nranks)]
        else:
            gens = list(programs)
            if len(gens) != self.nranks:
                raise InvalidOperationError(
                    f"expected {self.nranks} programs, got {len(gens)}"
                )
        if hasattr(self.network, "reset"):
            self.network.reset()

        if self.log is not None:
            self.log.event("engine.run_start", nranks=self.nranks)

        procs = [_Proc(rank, gen) for rank, gen in enumerate(gens)]
        stats = RankStatsArray(self.nranks)
        scheduler = Scheduler()
        mailboxes = MailboxSet(self.nranks)
        flight = self.flight
        record = self._record_hook()
        ctx = RunContext(self, procs, stats, scheduler, mailboxes, record)
        handlers = self.dispatch.build(ctx)

        live = self.nranks
        events = 0
        max_events = self.max_events
        wall_start = time.perf_counter()

        for proc in procs:
            scheduler.push_resume(proc)

        # Hot-loop local bindings (this loop runs once per primitive event).
        # Pop/stale accounting lives in loop locals rather than Scheduler
        # attributes: this is the hottest line in the engine and a local
        # integer increment is measurably cheaper.
        pop = scheduler.pop
        push = scheduler.push_resume
        finish_time_col = stats.finish_time
        recv_wait_col = stats.recv_wait_time
        pops = 0
        stale = 0

        # The try block costs nothing per iteration; it exists so an
        # error escaping the loop (protocol violation, event-limit,
        # deadlock, a program raising e.g. RankFailedError) dumps the
        # flight ring before propagating.
        try:
            while live > 0:
                try:
                    entry_time, entry_seq, rank = pop()
                except IndexError:
                    raise DeadlockError(
                        {
                            p.rank: f"Recv(src={p.waiting.src}, tag={p.waiting.tag})"
                            for p in procs
                            if p.waiting is not None and not p.done
                        }
                    ) from None
                pops += 1
                proc = procs[rank]
                # A popped entry is live iff its seq matches the process's
                # current resume stamp (a process is only ever queued while
                # runnable, and each entry is consumed at most once) ...
                if entry_seq == proc.resume_seq:
                    send_back = proc.pending
                    proc.pending = None
                    try:
                        op = proc.send(send_back)
                    except StopIteration as stop:
                        proc.done = True
                        proc.value = stop.value
                        finish_time_col[rank] = proc.time
                        live -= 1
                        continue

                    events += 1
                    if events > max_events:
                        raise EventLimitExceeded(
                            f"exceeded max_events={max_events}; "
                            "likely an unbounded program"
                        )
                    try:
                        handler = handlers[op.__class__]
                    except KeyError:
                        self._reject_op(rank, op)
                    handler(proc, op)
                # ... or its pending receive-timeout stamp: resume the blocked
                # process with None at the deadline instant.
                elif proc.waiting is not None and entry_seq == proc.deadline_seq:
                    op = proc.waiting
                    posted_at = proc.block_start
                    proc.time = entry_time
                    recv_wait_col[rank] += entry_time - posted_at
                    if record is not None:
                        record((rank, "recv-timeout", posted_at, entry_time,
                                op.src, op.tag, op.timeout))
                    proc.waiting = None
                    proc.deadline_seq = None
                    proc.pending = None
                    push(proc)
                else:
                    # Stale entry (consumed resume or dead timeout).
                    stale += 1
        except Exception as exc:
            if flight is not None:
                flight.dump_error(
                    exc,
                    nranks=self.nranks,
                    events=events,
                    heap_pops=pops,
                    stale_pops=stale,
                )
            raise

        wall = time.perf_counter() - wall_start
        undelivered = len(mailboxes)
        result = RunResult(
            finish_times=[p.time for p in procs],
            stats=stats,
            events=events,
            tracer=self.tracer,
            return_values=[p.value for p in procs],
            undelivered_messages=undelivered,
            wall_seconds=wall,
            heap_pushes=scheduler.pushes,
            stale_pops=stale,
            heap_pops=pops,
        )
        if self.metrics is not None:
            self.metrics.record_engine(
                events=events,
                wall_seconds=wall,
                heap_pushes=scheduler.pushes,
                stale_pops=stale,
                makespan=result.makespan,
                heap_pops=pops,
            )
        if flight is not None:
            # Watchdog pass over the completed run: monotonicity of the
            # retained window, utilization collapse, stale-pop spike.
            # Dumps (a pure side effect) and never alters the result.
            flight.run_complete(
                stats=stats,
                makespan=result.makespan,
                events=events,
                heap_pops=pops,
                stale_pops=stale,
                nranks=self.nranks,
            )
        if undelivered and self.log is not None:
            # Messages still sitting in mailboxes at exit usually indicate a
            # protocol bug (mismatched tags, a receive that never ran).
            # Surface it once per logger rather than only under profiling.
            warn_once = getattr(self.log, "warn_once", None)
            if warn_once is not None:
                warn_once(
                    "engine.undelivered_messages",
                    "engine.undelivered_messages",
                    undelivered_messages=undelivered,
                    nranks=self.nranks,
                )
            else:
                self.log.event(
                    "engine.undelivered_messages",
                    undelivered_messages=undelivered,
                    nranks=self.nranks,
                )
        if self.log is not None:
            self.log.event(
                "engine.run_complete",
                nranks=self.nranks,
                events=events,
                makespan=result.makespan,
                wall_seconds=wall,
                heap_pushes=scheduler.pushes,
                heap_pops=pops,
                stale_pops=stale,
                undelivered_messages=undelivered,
            )
        return result

    def _record_hook(self) -> Callable[[tuple], None] | None:
        """The one callable every handler feeds its raw record tuples to."""
        sinks = []
        if self.tracer is not None:
            sinks.append(self.tracer.append)
        if self.metrics is not None:
            sinks.append(_metrics_sink(self.metrics))
        if self.flight is not None:
            # A bound C-level deque append: cheap enough to keep the
            # flight recorder under its <5% always-on budget.
            sinks.append(self.flight.append)
        if not sinks:
            return None
        if len(sinks) == 1:
            return sinks[0]

        def fan_out(rec: tuple) -> None:
            for sink in sinks:
                sink(rec)

        return fan_out

    def _reject_op(self, rank: int, op: Any) -> None:
        """Raise the ProtocolError for an op type with no handler."""
        if isinstance(op, self.dispatch.registered()):
            raise ProtocolError(
                f"rank {rank} yielded a subclass of a primitive ({op!r}); "
                "yield the primitive types directly"
            ) from None
        raise ProtocolError(
            f"rank {rank} yielded unsupported object {op!r}"
        ) from None


def _metrics_sink(metrics: Any) -> Callable[[tuple], None]:
    """Adapt a duck-typed ``record_op`` metrics sink to raw record tuples."""
    record_op = metrics.record_op

    def sink(rec: tuple) -> None:
        kind = rec[1]
        if kind == "compute":
            flops = rec[4]
            record_op(rec[0], kind, rec[2], rec[3],
                      flops=flops if flops is not None else 0.0)
        elif kind in ("send", "recv", "multicast"):
            record_op(rec[0], kind, rec[2], rec[3], nbytes=rec[6])
        else:
            record_op(rec[0], kind, rec[2], rec[3])

    return sink


# ----------------------------------------------------------------------
# Built-in primitive handlers.  Registered through the same public
# interface extensions use; each factory runs once per Engine.run and
# binds the hot state it needs into its handler closure.

@register_handler(Send)
def _send_factory(ctx: RunContext):
    nranks = ctx.nranks
    transfer = ctx.transfer
    stats = ctx.stats
    send_time = stats.send_time
    bytes_sent = stats.bytes_sent
    messages_sent = stats.messages_sent
    messages_lost = stats.messages_lost
    record = ctx.record
    procs = ctx.procs
    complete_recv = ctx.complete_recv
    deposit = ctx.mailboxes.deposit
    new_seq = ctx.mailboxes.new_seq
    push = ctx.scheduler.push_resume

    def handle_send(proc: _Proc, op: Send) -> None:
        rank = proc.rank
        dst = op.dst
        if dst >= nranks:
            raise InvalidOperationError(
                f"rank {rank} sent to invalid rank {dst} "
                f"(nranks={nranks})"
            )
        start = proc.time
        nbytes = op.nbytes
        tag = op.tag
        sender_done, arrival = transfer(rank, dst, nbytes, start)
        if sender_done < start or arrival < start:
            raise ProtocolError(
                "network model returned a time before the send start "
                f"(start={start}, done={sender_done}, arrival={arrival})"
            )
        proc.time = sender_done
        send_time[rank] += sender_done - start
        bytes_sent[rank] += nbytes
        messages_sent[rank] += 1
        if record is not None:
            record((rank, "send", start, sender_done, dst, tag, nbytes))
        if arrival == _INF:
            # Lost in transit: sender paid, nothing is delivered.
            messages_lost[rank] += 1
        else:
            # ctx.deliver inlined (point-to-point sends dominate traffic):
            # hand the message to an eligible blocked receive, else mailbox.
            msg = Message(
                src=rank, dst=dst, tag=tag, nbytes=nbytes,
                payload=op.payload, arrival=arrival, seq=new_seq(),
            )
            dst_proc = procs[dst]
            waiting = dst_proc.waiting
            if (
                waiting is not None
                and (waiting.src == rank or waiting.src == ANY_SOURCE)
                and (waiting.tag == tag or waiting.tag == ANY_TAG)
                and (
                    waiting.timeout is None
                    or arrival <= dst_proc.block_start + waiting.timeout
                )
            ):
                complete_recv(dst_proc, msg, dst_proc.block_start)
            else:
                deposit(msg)
        push(proc)

    return handle_send


@register_handler(Recv)
def _recv_factory(ctx: RunContext):
    pop_match = ctx.mailboxes.pop_match
    complete_recv = ctx.complete_recv
    scheduler = ctx.scheduler

    def handle_recv(proc: _Proc, op: Recv) -> None:
        timeout = op.timeout
        msg = pop_match(
            proc.rank, op.src, op.tag,
            _INF if timeout is None else proc.time + timeout,
        )
        if msg is not None:
            complete_recv(proc, msg, proc.time)
        else:
            proc.waiting = op
            proc.block_start = proc.time
            if timeout is not None:
                proc.deadline_seq = scheduler.push_deadline(
                    proc.time + timeout, proc.rank
                )

    return handle_recv


@register_handler(Compute)
def _compute_factory(ctx: RunContext):
    fps = ctx.flops_per_second
    stats = ctx.stats
    flops_col = stats.flops
    compute_time = stats.compute_time
    record = ctx.record
    push = ctx.scheduler.push_resume

    def handle_compute(proc: _Proc, op: Compute) -> None:
        rank = proc.rank
        start = proc.time
        flops = op.flops
        seconds = op.seconds
        if seconds is not None:
            duration = seconds  # fixed cost or explicit override
        else:
            duration = flops / fps[rank]
        if flops is not None:
            flops_col[rank] += flops
        end = start + duration
        proc.time = end
        compute_time[rank] += duration
        if record is not None:
            record((rank, "compute", start, end, flops))
        push(proc)

    return handle_compute


@register_handler(Multicast)
def _multicast_factory(ctx: RunContext):
    nranks = ctx.nranks
    transfer = ctx.transfer
    native = ctx.native_multicast
    stats = ctx.stats
    send_time = stats.send_time
    bytes_sent = stats.bytes_sent
    messages_sent = stats.messages_sent
    messages_lost = stats.messages_lost
    record = ctx.record
    deliver = ctx.deliver
    new_seq = ctx.mailboxes.new_seq
    push = ctx.scheduler.push_resume

    def handle_multicast(proc: _Proc, op: Multicast) -> None:
        rank = proc.rank
        start = proc.time
        nbytes = op.nbytes
        remote = [d for d in op.dsts if d != rank]
        for dst in remote:
            if dst >= nranks:
                raise InvalidOperationError(
                    f"rank {rank} multicast to invalid rank {dst} "
                    f"(nranks={nranks})"
                )
        if not remote:
            push(proc)
            return
        deliveries: list[tuple[int, float]] = []
        lost = 0
        if native is not None:
            sender_done, arrival = native(rank, tuple(remote), nbytes, start)
            if arrival == _INF:
                lost = len(remote)  # whole broadcast frame lost
            elif arrival < start:
                raise ProtocolError(
                    "network model delivered a multicast before "
                    f"the send start (start={start}, "
                    f"arrival={arrival})"
                )
            else:
                deliveries = [(dst, arrival) for dst in remote]
        else:
            # Fallback: serialized unicasts (switched network).
            sender_done = start
            for dst in remote:
                leg_start = sender_done
                sender_done, arrival = transfer(rank, dst, nbytes, leg_start)
                if arrival != _INF and arrival < leg_start:
                    raise ProtocolError(
                        "network model delivered a multicast "
                        "unicast leg before its start "
                        f"(start={leg_start}, arrival={arrival})"
                    )
                if arrival == _INF:
                    lost += 1
                else:
                    deliveries.append((dst, arrival))
        if sender_done < start:
            raise ProtocolError(
                "network model returned a time before the "
                f"multicast start (start={start}, done={sender_done})"
            )
        proc.time = sender_done
        send_time[rank] += sender_done - start
        bytes_sent[rank] += nbytes  # one physical transmission
        messages_sent[rank] += 1
        messages_lost[rank] += lost
        if record is not None:
            record((rank, "multicast", start, sender_done, len(remote),
                    op.tag, nbytes))
        for dst, arrival in deliveries:
            deliver(Message(
                src=rank, dst=dst, tag=op.tag, nbytes=nbytes,
                payload=op.payload, arrival=arrival, seq=new_seq(),
            ))
        push(proc)

    return handle_multicast


@register_handler(Now)
def _now_factory(ctx: RunContext):
    push = ctx.scheduler.push_resume

    def handle_now(proc: _Proc, op: Now) -> None:
        proc.pending = proc.time
        push(proc)

    return handle_now


@register_handler(Log)
def _log_factory(ctx: RunContext):
    record = ctx.record
    push = ctx.scheduler.push_resume

    def handle_log(proc: _Proc, op: Log) -> None:
        if record is not None:
            record((proc.rank, "log", proc.time, proc.time, op.message))
        push(proc)

    return handle_log
