"""Execution tracing and per-rank accounting for simulation runs.

The engine always keeps cheap aggregate counters (:class:`RankStats`); full
event records are collected only when a :class:`Tracer` is attached,
because large experiments generate millions of events and record objects
would dominate memory.

Every sink sees the same record: the raw tuple ``(rank, kind, start, end,
*extras)`` the engine emits once per event.  :func:`render_record` is the
one renderer that turns a tuple into a :class:`TraceRecord` with its
detail string, for the tracer, the flight-recorder dump and the Chrome
trace alike.

Between the tracer and the counters sits the
:class:`~repro.sim.flight.FlightRecorder`: a bounded ring that keeps only
the *last K* records, cheap enough to stay attached everywhere and dumped
as a post-mortem when a run dies.  A tracer that hits its per-run record
limit keeps counting drops (:attr:`Tracer.dropped`) so truncated traces
are detectable downstream.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass
class RankStats:
    """Aggregate virtual-time accounting for one simulated process."""

    rank: int
    compute_time: float = 0.0
    send_time: float = 0.0
    recv_wait_time: float = 0.0
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    messages_lost: int = 0
    flops: float = 0.0
    finish_time: float = 0.0

    @property
    def comm_time(self) -> float:
        """Total time attributed to communication (send busy + recv wait)."""
        return self.send_time + self.recv_wait_time

    @property
    def busy_time(self) -> float:
        """Compute plus communication time (excludes pure idling)."""
        return self.compute_time + self.comm_time

    def idle_time(self, makespan: float) -> float:
        """Time this rank spent idle against a run of length ``makespan``.

        The engine advances a rank's clock only through compute, send and
        receive-wait, so idle time is the tail between this rank's finish
        and the makespan.  By construction ``compute_time + comm_time +
        idle_time(makespan) == makespan`` (up to float rounding).
        """
        return max(0.0, makespan - self.busy_time)

    def utilization(self, makespan: float) -> float:
        """Fraction of the makespan this rank was busy (compute + comm).

        Returns 0 for a zero-length run.
        """
        if makespan <= 0:
            return 0.0
        return min(1.0, self.busy_time / makespan)


#: Column layout of :class:`RankStatsArray`: every ``float`` field of
#: :class:`RankStats` except ``rank`` (which is the array index).
_FLOAT_COLUMNS = (
    "compute_time",
    "send_time",
    "recv_wait_time",
    "bytes_sent",
    "bytes_received",
    "flops",
    "finish_time",
)
#: Integer columns (message counters).
_INT_COLUMNS = ("messages_sent", "messages_received", "messages_lost")


class RankStatsArray:
    """Flat, preallocated column store for per-rank aggregates.

    One C ``double``/``int64`` array per :class:`RankStats` field instead
    of one Python object (with an instance ``__dict__``) per rank --
    ~80 bytes/rank total versus ~400, and zero allocation in the engine
    hot path.  The engine's handlers write the columns directly
    (``compute_time[rank] += dt``); every *read* access goes through the
    sequence protocol, which lazily materializes ordinary
    :class:`RankStats` dataclass views, so downstream consumers
    (``asdict``, field access, equality) see exactly the objects they
    always did.  Values are bit-identical to the per-object
    representation: both store IEEE doubles and the accumulation
    arithmetic is unchanged.
    """

    __slots__ = ("nranks",) + _FLOAT_COLUMNS + _INT_COLUMNS

    def __init__(self, nranks: int):
        if nranks < 0:
            raise ValueError(f"nranks must be >= 0, got {nranks}")
        self.nranks = nranks
        zeros = bytes(8 * nranks)  # both column dtypes are 8 bytes wide
        for name in _FLOAT_COLUMNS:
            setattr(self, name, array("d", zeros))
        for name in _INT_COLUMNS:
            setattr(self, name, array("q", zeros))

    def __len__(self) -> int:
        return self.nranks

    def __getitem__(self, index: int | slice) -> "RankStats | list[RankStats]":
        if isinstance(index, slice):
            return [
                self._materialize(i)
                for i in range(*index.indices(self.nranks))
            ]
        i = index
        if i < 0:
            i += self.nranks
        if not 0 <= i < self.nranks:
            raise IndexError(index)
        return self._materialize(i)

    def __iter__(self) -> Iterator["RankStats"]:
        for i in range(self.nranks):
            yield self._materialize(i)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RankStatsArray):
            return self.nranks == other.nranks and all(
                getattr(self, name) == getattr(other, name)
                for name in _FLOAT_COLUMNS + _INT_COLUMNS
            )
        if isinstance(other, (list, tuple)):
            return self.materialize() == list(other)
        return NotImplemented

    def _materialize(self, rank: int) -> "RankStats":
        return RankStats(
            rank=rank,
            compute_time=self.compute_time[rank],
            send_time=self.send_time[rank],
            recv_wait_time=self.recv_wait_time[rank],
            bytes_sent=self.bytes_sent[rank],
            bytes_received=self.bytes_received[rank],
            messages_sent=self.messages_sent[rank],
            messages_received=self.messages_received[rank],
            messages_lost=self.messages_lost[rank],
            flops=self.flops[rank],
            finish_time=self.finish_time[rank],
        )

    def materialize(self) -> list["RankStats"]:
        """All ranks as plain dataclass objects (small-run convenience)."""
        return [self._materialize(i) for i in range(self.nranks)]

    @property
    def total_bytes_sent(self) -> float:
        """Column sum without materializing views."""
        return sum(self.bytes_sent)

    @property
    def total_messages_lost(self) -> int:
        """Column sum without materializing views."""
        return sum(self.messages_lost)


@dataclass(frozen=True)
class TraceRecord:
    """One engine event, recorded only when tracing is enabled."""

    rank: int
    kind: str
    start: float
    end: float
    detail: str = ""


#: Name of the peer field a message record's detail string leads with.
_PEER_KEY = {"send": "dst", "recv": "src", "multicast": "dsts"}


def _render_detail(kind: str, extras: tuple) -> str:
    """Format a raw record's extras as its ``key=value`` detail string.

    This is the only place detail strings are made, and only when a
    record is read: the engine emits raw tuples (see :class:`Tracer`).
    Extras that do not fit the kind's layout (a pre-rendered string from
    :meth:`Tracer.record`, a log message) are joined as they are.
    """
    try:
        if kind == "compute":
            (flops,) = extras
            return f"flops={flops:g}" if flops is not None else ""
        if kind in _PEER_KEY:
            peer, tag, nbytes = extras
            return f"{_PEER_KEY[kind]}={peer} tag={tag} nbytes={nbytes:g}"
        if kind == "recv-timeout":
            src, tag, timeout = extras
            return f"src={src} tag={tag} timeout={timeout:g}"
    except (TypeError, ValueError):
        pass
    return " ".join(str(x) for x in extras)


def render_record(rec: tuple) -> TraceRecord:
    """The :class:`TraceRecord` view of one raw record tuple."""
    return TraceRecord(rec[0], rec[1], rec[2], rec[3],
                       _render_detail(rec[1], rec[4:]))


class Tracer:
    """Collects the engine's raw records of a run.

    A record is the tuple ``(rank, kind, start, end, *extras)`` the engine
    emits once per event; the extras per kind are

    * ``compute``: ``flops`` (``None`` for a fixed-duration compute),
    * ``send``: ``dst, tag, nbytes``; ``recv``: ``src, tag, nbytes``;
      ``multicast``: ``ndsts, tag, nbytes``,
    * ``recv-timeout``: ``src, tag, timeout``; ``log``: ``message``.

    :attr:`raw` holds the tuples exactly as emitted (analyzers such as
    :func:`~repro.obs.analysis.critical_path` read numbers from it) and is
    the only copy kept; :attr:`records` renders a fresh list of
    :class:`TraceRecord` objects on each read.

    ``limit`` bounds memory use; once reached, further records spill to a
    streaming per-kind duration summary (``spill``, a
    :class:`~repro.obs.streaming.StreamingGroupStats` created on first
    overflow) and are counted in ``dropped`` instead of stored -- a
    truncated trace stays detectable *and* keeps an aggregate view of the
    tail it could not retain.
    """

    def __init__(self, limit: int = 1_000_000):
        self.limit = limit
        self.raw: list[tuple] = []
        self.dropped = 0
        self.spill: Any = None

    def append(self, rec: tuple) -> None:
        """Store one raw record tuple (the engine's record hook)."""
        if len(self.raw) < self.limit:
            self.raw.append(rec)
            return
        self.dropped += 1
        spill = self.spill
        if spill is None:
            # Deferred import: repro.obs depends on repro.sim at module
            # load, so the reverse edge must stay runtime-only.
            from ..obs.streaming import StreamingGroupStats

            spill = self.spill = StreamingGroupStats()
        spill.observe(rec[1], rec[3] - rec[2])

    def record(self, rank: int, kind: str, start: float, end: float, detail: str = "") -> None:
        """Store one record with a ready-made detail string (used for
        annotations such as the fault injector's ``fault`` track)."""
        self.append((rank, kind, start, end, detail))

    @property
    def records(self) -> list[TraceRecord]:
        """The stored records rendered as :class:`TraceRecord` objects
        (rendered per read, not cached)."""
        return [render_record(rec) for rec in self.raw]

    def spill_summary(self) -> dict[str, dict[str, float]]:
        """Per-kind duration statistics of the overflowed records
        (empty when the trace never hit ``limit``)."""
        return self.spill.to_dict() if self.spill is not None else {}

    def by_kind(self, kind: str) -> list[TraceRecord]:
        """All records of one kind ('compute', 'send', 'recv', 'multicast',
        'log')."""
        return [render_record(rec) for rec in self.raw if rec[1] == kind]

    def kinds(self) -> list[str]:
        """Sorted distinct kinds present among the stored records."""
        return sorted({rec[1] for rec in self.raw})

    def for_rank(self, rank: int) -> list[TraceRecord]:
        """All records emitted by one rank, in engine order."""
        return [render_record(rec) for rec in self.raw if rec[0] == rank]
