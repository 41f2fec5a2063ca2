"""Post-run analyzers: utilization, imbalance, overhead terms, critical path.

These operate on the engine's raw outputs (:class:`~repro.sim.trace.RankStats`
and the raw record tuples a :class:`~repro.sim.trace.Tracer` stores) and
map them onto the quantities the paper reasons about:

* :func:`rank_utilization` — per-rank compute / send / receive-wait / idle
  decomposition of the makespan (the terms sum to the makespan exactly).
* :func:`imbalance_index` — the balanced-load premise check,
  ``max_r t_r / mean_r t_r - 1``.
* :func:`overhead_decomposition` — the measured time mapped onto Theorem 1's
  ``T = (1 - alpha) W / C + t_0 + T_o``.
* :func:`critical_path` — the longest dependency chain of compute / send /
  receive trace records, i.e. *why* the makespan is what it is: which ranks
  and which message edges bound it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.types import MetricError
from ..sim.trace import RankStats, TraceRecord, Tracer, render_record

# ---------------------------------------------------------------------------
# Per-rank utilization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankUtilization:
    """One rank's share of the makespan, split by activity."""

    rank: int
    compute: float
    send: float
    recv_wait: float
    idle: float
    makespan: float

    @property
    def comm(self) -> float:
        """Communication time: send busy plus receive wait."""
        return self.send + self.recv_wait

    @property
    def utilization(self) -> float:
        """Busy fraction of the makespan (1.0 means never idle)."""
        if self.makespan <= 0:
            return 0.0
        return (self.compute + self.comm) / self.makespan


def rank_utilization(
    stats: Sequence[RankStats], makespan: float
) -> list[RankUtilization]:
    """Per-rank activity decomposition against the makespan.

    For every rank, ``compute + send + recv_wait + idle == makespan`` (up
    to float rounding), because the engine advances a rank's clock only
    through those three activities and idle is the remainder.
    """
    out = []
    for s in stats:
        out.append(
            RankUtilization(
                rank=s.rank,
                compute=s.compute_time,
                send=s.send_time,
                recv_wait=s.recv_wait_time,
                idle=s.idle_time(makespan),
                makespan=makespan,
            )
        )
    return out


def imbalance_index(stats: Sequence[RankStats], by: str = "compute") -> float:
    """Load-imbalance index ``max_r t_r / mean_r t_r - 1``.

    0 means perfect balance.  ``by`` selects the balanced quantity:
    ``'compute'`` (default; the paper's balanced-workload premise) or
    ``'busy'`` (compute plus communication).
    """
    if by == "compute":
        times = [s.compute_time for s in stats]
    elif by == "busy":
        times = [s.busy_time for s in stats]
    else:
        raise MetricError(f"imbalance_index 'by' must be compute|busy, got {by!r}")
    if not times:
        raise MetricError("imbalance_index needs at least one rank")
    mean = sum(times) / len(times)
    if mean == 0:
        return 0.0
    return max(times) / mean - 1.0


# ---------------------------------------------------------------------------
# Theorem-1 overhead decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadDecomposition:
    """Measured run time mapped onto ``T = (1 - alpha) W / C + t0 + To``.

    ``ideal_compute`` is the balanced parallel-compute term
    ``(1 - alpha) W / (f C)`` (``f`` = achievable fraction of marked speed),
    ``t0`` the sequential-portion time and ``overhead`` the residual
    ``To = T - ideal_compute - t0``: communication, synchronization waits
    and leftover imbalance.
    """

    makespan: float
    ideal_compute: float
    t0: float
    overhead: float
    work: float
    marked_speed: float
    alpha: float
    compute_efficiency: float

    @property
    def overhead_fraction(self) -> float:
        """``To / T`` — the share of the run the theory calls overhead."""
        return self.overhead / self.makespan if self.makespan > 0 else 0.0

    def as_rows(self) -> list[tuple[str, float, float]]:
        """``(term, seconds, fraction-of-T)`` rows for report tables."""
        total = self.makespan if self.makespan > 0 else 1.0
        return [
            ("(1-alpha) W / (f C)", self.ideal_compute, self.ideal_compute / total),
            ("t0 (sequential)", self.t0, self.t0 / total),
            ("To (overhead)", self.overhead, self.overhead / total),
            ("T (makespan)", self.makespan, self.makespan / total),
        ]


def overhead_decomposition(
    work: float,
    marked_speed: float,
    makespan: float,
    compute_efficiency: float = 1.0,
    alpha: float = 0.0,
    t0: float | None = None,
) -> OverheadDecomposition:
    """Decompose a measured makespan into the Theorem 1 terms.

    ``compute_efficiency`` is the application's achievable fraction of the
    marked speed (the ``f`` the runners apply); ``alpha`` the sequential
    fraction and ``t0`` an optional explicit sequential time (defaults to
    ``alpha * W / C``).  The overhead term is clamped at zero: the
    simulator's compute cannot beat the ideal.
    """
    if work < 0:
        raise MetricError(f"work must be non-negative, got {work}")
    if marked_speed <= 0:
        raise MetricError(f"marked_speed must be positive, got {marked_speed}")
    if not 0 < compute_efficiency <= 1:
        raise MetricError("compute_efficiency must be in (0, 1]")
    if not 0 <= alpha < 1:
        raise MetricError(f"alpha must be in [0, 1), got {alpha}")
    ideal = (1.0 - alpha) * work / (compute_efficiency * marked_speed)
    t0 = alpha * work / marked_speed if t0 is None else t0
    if t0 < 0:
        raise MetricError(f"t0 must be non-negative, got {t0}")
    return OverheadDecomposition(
        makespan=makespan,
        ideal_compute=ideal,
        t0=t0,
        overhead=max(0.0, makespan - ideal - t0),
        work=work,
        marked_speed=marked_speed,
        alpha=alpha,
        compute_efficiency=compute_efficiency,
    )


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageEdge:
    """A cross-rank dependency on the critical path.

    The edge covers the interval between the sender finishing its
    transmission (``send_end``) and the receive completing at the message's
    arrival (``arrival``); that span is network transit plus any mailbox
    dwell the receiver could not overlap.
    """

    src_rank: int
    dst_rank: int
    tag: int
    nbytes: float
    send_end: float
    arrival: float

    @property
    def span(self) -> float:
        """Seconds this edge contributes to the critical path."""
        return self.arrival - self.send_end


@dataclass
class CriticalPath:
    """The longest dependency chain bounding a traced run's makespan.

    ``records`` are the trace records on the path in chronological order;
    ``edges`` the message dependencies crossed (also chronological).
    ``length`` equals the makespan whenever the chain reaches back to
    virtual time 0 — i.e. whenever the tracer saw every event
    (``complete`` is False if the walk broke early, e.g. on a tracer that
    hit its record limit).
    """

    records: list[TraceRecord]
    edges: list[MessageEdge]
    end: float
    complete: bool = True
    #: Seconds attributed to each path element kind (incl. "message-edge").
    time_by_kind: dict[str, float] = field(default_factory=dict)
    #: Seconds of on-path records attributed to each rank.
    time_by_rank: dict[int, float] = field(default_factory=dict)

    @property
    def start(self) -> float:
        """Virtual time the chain starts (0.0 for a complete path)."""
        return self.records[0].start if self.records else self.end

    @property
    def length(self) -> float:
        """Total virtual time covered by the chain (= makespan when
        ``complete``)."""
        return self.end - self.start

    @property
    def ranks(self) -> list[int]:
        """Ranks appearing on the path, busiest (by on-path time) first."""
        return sorted(self.time_by_rank, key=self.time_by_rank.get, reverse=True)


def critical_path(tracer: Tracer) -> CriticalPath:
    """Walk the longest compute/send/recv dependency chain of a traced run.

    Starting from the record that ends last, the walk moves backwards: a
    receive that completed at its message's *arrival* (``end > start``)
    depends on the matching send/multicast on the source rank — a
    :class:`MessageEdge` — while every other record depends on its local
    predecessor.  Sends are matched to receives in FIFO order per
    ``(src, dst, tag)`` channel, which mirrors the engine's deterministic
    smallest-arrival matching for the FIFO network models.  Peers, tags
    and byte counts come straight from the tracer's raw record tuples, so
    edge sizes are exact.

    Requires a tracer that recorded the whole run; on a truncated trace the
    walk stops where the chain breaks and ``complete`` is False.
    """
    # "log" and "fault" records are zero-span annotations (the latter are
    # appended by the fault injector, possibly with rank -1 for network
    # events) — they are not engine ops and must not join the dependency walk.
    timeline = [r for r in tracer.raw if r[1] not in ("log", "fault")]
    if not timeline:
        return CriticalPath(records=[], edges=[], end=0.0,
                            complete=not tracer.dropped)

    # Per-rank chronological order with back-pointers to the previous record.
    by_rank: dict[int, list[int]] = {}
    position: list[int] = [0] * len(timeline)
    for idx, rec in enumerate(timeline):
        lst = by_rank.setdefault(rec[0], [])
        position[idx] = len(lst)
        lst.append(idx)

    # FIFO matching of receives to their sends/multicasts.  Raw layouts:
    # send (.., dst, tag, nbytes), multicast (.., ndsts, tag, nbytes),
    # recv (.., src, tag, nbytes).
    send_queues: dict[tuple[int, int, int], list[int]] = {}
    mcast_queues: dict[tuple[int, int], list[list]] = {}  # [idx, remaining]
    matched_send: dict[int, int] = {}  # recv idx -> send/multicast idx
    for idx, rec in enumerate(timeline):
        kind = rec[1]
        if kind == "send":
            send_queues.setdefault((rec[0], rec[4], rec[5]), []).append(idx)
        elif kind == "multicast":
            mcast_queues.setdefault((rec[0], rec[5]), []).append([idx, rec[4]])
        elif kind == "recv":
            src, tag = rec[4], rec[5]
            queue = send_queues.get((src, rec[0], tag))
            if queue:
                matched_send[idx] = queue.pop(0)
                continue
            fanout = mcast_queues.get((src, tag))
            if fanout:
                matched_send[idx] = fanout[0][0]
                fanout[0][1] -= 1
                if fanout[0][1] == 0:
                    fanout.pop(0)

    # Backward walk from the record that ends last (ties broken towards the
    # latest-recorded event, i.e. the op that actually closed the run).
    current = max(range(len(timeline)), key=lambda i: (timeline[i][3], i))
    end = timeline[current][3]
    path: list[int] = []
    edges: list[MessageEdge] = []
    time_by_kind: dict[str, float] = {}
    time_by_rank: dict[int, float] = {}
    complete = True
    visited: set[int] = set()

    while True:
        if current in visited:  # defensive: malformed trace input
            complete = False
            break
        visited.add(current)
        rec = timeline[current]
        rank, kind, start, rec_end = rec[:4]
        arrival_bound = (
            kind == "recv"
            and rec_end > start
            and current in matched_send
        )
        if arrival_bound:
            src = timeline[matched_send[current]]
            edge = MessageEdge(
                src_rank=src[0],
                dst_rank=rank,
                tag=rec[5],
                nbytes=float(rec[6]),
                send_end=src[3],
                arrival=rec_end,
            )
            edges.append(edge)
            time_by_kind["message-edge"] = (
                time_by_kind.get("message-edge", 0.0) + edge.span
            )
            current = matched_send[current]
            continue
        # The record itself lies on the path.
        path.append(current)
        span = rec_end - start
        time_by_kind[kind] = time_by_kind.get(kind, 0.0) + span
        time_by_rank[rank] = time_by_rank.get(rank, 0.0) + span
        pos = position[current]
        if pos == 0:
            # First record of this rank; complete iff it starts at time 0.
            complete = complete and start == 0.0 and not tracer.dropped
            break
        current = by_rank[rank][pos - 1]

    path.reverse()
    edges.reverse()
    return CriticalPath(
        records=[render_record(timeline[i]) for i in path],
        edges=edges,
        end=end,
        complete=complete,
        time_by_kind=time_by_kind,
        time_by_rank=time_by_rank,
    )
