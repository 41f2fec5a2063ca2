"""Discrete-event simulation substrate.

This package provides the conservative virtual-time engine that every
simulated "execution" in the reproduction runs on: processes are Python
generators yielding :class:`~repro.sim.events.Compute`,
:class:`~repro.sim.events.Send`, :class:`~repro.sim.events.Recv` and friends,
and :class:`~repro.sim.engine.Engine` coordinates their virtual clocks over a
pluggable network model.

The engine itself is layered: a :class:`~repro.sim.scheduler.Scheduler`
(time-ordered run queue), a :class:`~repro.sim.mailbox.MailboxSet`
(per-``(src, tag)`` indexed message matching), a
:class:`~repro.sim.dispatch.DispatchTable` (op-type handler registry and
the extension point for new primitives), and one record stream for
observability: every handler emits the raw tuple ``(rank, kind, start,
end, *extras)`` through a single per-run hook that feeds the attached
:class:`~repro.sim.trace.Tracer`, metrics sink and
:class:`~repro.sim.flight.FlightRecorder`.  Detail strings are rendered
in one place, :func:`~repro.sim.trace.render_record`, and only when read.
"""

from .dispatch import (
    DispatchTable,
    Handler,
    HandlerFactory,
    default_dispatch,
    register_handler,
)
from .engine import Engine, Program, ProgramFactory, RunContext, RunResult
from .flight import FlightRecorder, WatchdogConfig
from .errors import (
    DeadlockError,
    EventLimitExceeded,
    InvalidOperationError,
    ProtocolError,
    SimulationError,
)
from .events import ANY_SOURCE, ANY_TAG, Compute, Log, Message, Multicast, Now, Recv, Send, SimOp
from .mailbox import MailboxSet
from .scheduler import Scheduler
from .trace import RankStats, RankStatsArray, Tracer, TraceRecord

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Compute",
    "DeadlockError",
    "DispatchTable",
    "Engine",
    "EventLimitExceeded",
    "FlightRecorder",
    "Handler",
    "HandlerFactory",
    "InvalidOperationError",
    "Log",
    "MailboxSet",
    "Message",
    "Multicast",
    "Now",
    "Program",
    "ProgramFactory",
    "ProtocolError",
    "RankStats",
    "RankStatsArray",
    "Recv",
    "RunContext",
    "RunResult",
    "Scheduler",
    "Send",
    "SimOp",
    "SimulationError",
    "TraceRecord",
    "Tracer",
    "WatchdogConfig",
    "default_dispatch",
    "register_handler",
]
