"""Host speed, sampled next to the measured passes.

On a shared host the same pass can take 20-40% longer for minutes at a
time because other tenants load the machine, and every instruction of
the process slows alike.  So while a run measures, an interval timer
interrupts it every ``EVERY_S`` seconds of wall time to time a fixed
reference workload, and the run reports its pass times scaled to a host
that runs the reference in ``NOMINAL_S``::

    reported = measured * NOMINAL_S / trimmed mean(samples taken meanwhile)

The reference is this file's own code, so a change of the program moves
the pass times and not the scale.  It runs with the garbage collector off
and any trace or profile hook cleared, so that the program's heap and
hooks do not slow it either.  The time a sample takes is kept out of the
pass it interrupts.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Iterator

#: A typical mean reference sample, taken inside passes, on a 2-CPU
#: shared VM (Intel Xeon, Python 3.11): the unit the reported times are
#: scaled to.  Changing it rescales every reported time.
NOMINAL_S = 2.5e-3
#: Wall time between two samples.
EVERY_S = 0.05
#: Share of the samples dropped at each end before averaging, so that the
#: rare sample a long stall hit does not move the mean.
TRIM = 0.05

_clock = time.perf_counter


def _rank(rank: int, steps: int) -> Iterator[tuple[float, dict]]:
    now = 0.0
    for step in range(steps):
        delay = ((rank * 7 + step) % 13) * 1e-3
        now = yield now + delay, {"src": rank, "tag": step, "bytes": 64 * step}


def reference_work(ranks: int = 16, steps: int = 40) -> int:
    """A fixed small discrete-event loop: a heap of timed events, generator
    resumes and small dicts, then JSON encoding and hashing of its log, as
    a simulation and its run cache do.  Returns the events it handled."""
    programs = [_rank(r, steps) for r in range(ranks)]
    heap = []
    for r, program in enumerate(programs):
        when, msg = next(program)
        heapq.heappush(heap, (when, r, msg))
    log = []
    while heap:
        when, r, msg = heapq.heappop(heap)
        log.append(msg)
        try:
            later, msg = programs[r].send(when)
        except StopIteration:
            continue
        heapq.heappush(heap, (later, r, msg))
    text = json.dumps(log, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    return len(json.loads(text))


def time_reference() -> float:
    """Seconds of one reference sample, without GC or trace hooks."""
    trace, profile = sys.gettrace(), sys.getprofile()
    collecting = gc.isenabled()
    sys.settrace(None)
    sys.setprofile(None)
    gc.disable()
    try:
        start = _clock()
        reference_work()
        return _clock() - start
    finally:
        if collecting:
            gc.enable()
        sys.setprofile(profile)
        sys.settrace(trace)


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds on the nominal host.

    A pass's time sums the host's slowness over the pass, so the samples
    taken evenly during it are averaged rather than their median taken:
    on ``ge-search`` passes the trimmed mean halved the spread left by
    the median."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])


class Sampler:
    """Samples host speed every ``every_s`` seconds while running.

    A ``SIGALRM`` interval timer interrupts whatever the process is doing,
    so the samples spread evenly over wall time, also inside long
    simulations.  ``spent`` is the total time the samples took, which a
    caller subtracts from the pass that contains them.
    """

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = _clock()
        try:
            self.samples.append(time_reference())
        finally:
            self.spent += _clock() - start
            self._sampling = False

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def since(self, mark: int, least: int = 1) -> list[float]:
        """The samples after the first ``mark``, reaching back further for
        at least ``least`` of them.  One is taken if there are none (a
        stretch shorter than ``every_s``)."""
        if len(self.samples) <= mark:
            self.sample()
        return self.samples[max(0, min(mark, len(self.samples) - least)):]

    @contextmanager
    def running(self) -> Iterator["Sampler"]:
        """Sample on the interval timer while open."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
