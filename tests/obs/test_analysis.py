"""Tests for the observability analyzers: utilization, imbalance,
overhead decomposition, and the critical-path walk."""

import pytest

from repro.core.types import MetricError
from repro.experiments.runner import run_app
from repro.machine.sunwulf import mm_configuration
from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.obs.analysis import (
    critical_path,
    imbalance_index,
    overhead_decomposition,
    rank_utilization,
)
from repro.sim.engine import Engine
from repro.sim.events import Compute, Multicast, Recv, Send
from repro.sim.trace import RankStats, Tracer


def run_traced(nranks, program, network=None, speeds=None):
    tracer = Tracer()
    net = network if network is not None else UniformCostNetwork(0.01)
    speeds = speeds if speeds is not None else [1e6] * nranks
    result = Engine(nranks, net, speeds, tracer=tracer).run(program)
    return result, tracer


class TestRankUtilization:
    def test_components_sum_to_makespan(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.3)
                yield Send(1, 8.0, tag=1)
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.1)

        result, _ = run_traced(2, program)
        util = rank_utilization(result.stats, result.makespan)
        for u in util:
            total = u.compute + u.send + u.recv_wait + u.idle
            assert total == pytest.approx(result.makespan, abs=1e-12)

    def test_fully_busy_rank_has_unit_utilization(self):
        def program(rank):
            yield Compute(seconds=0.5)

        result, _ = run_traced(1, program, network=ZeroCostNetwork())
        (u,) = rank_utilization(result.stats, result.makespan)
        assert u.utilization == pytest.approx(1.0)
        assert u.idle == 0.0

    def test_idle_rank(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=1.0)
            else:
                yield Compute(seconds=0.25)

        result, _ = run_traced(2, program, network=ZeroCostNetwork())
        util = rank_utilization(result.stats, result.makespan)
        assert util[1].idle == pytest.approx(0.75)
        assert util[1].utilization == pytest.approx(0.25)


class TestImbalanceIndex:
    def test_balanced_is_zero(self):
        stats = [RankStats(rank=r, compute_time=2.0) for r in range(4)]
        assert imbalance_index(stats) == pytest.approx(0.0)

    def test_unbalanced(self):
        stats = [
            RankStats(rank=0, compute_time=3.0),
            RankStats(rank=1, compute_time=1.0),
        ]
        # max/mean - 1 = 3/2 - 1
        assert imbalance_index(stats) == pytest.approx(0.5)

    def test_busy_mode(self):
        stats = [
            RankStats(rank=0, compute_time=1.0, send_time=1.0),
            RankStats(rank=1, compute_time=2.0),
        ]
        assert imbalance_index(stats, by="busy") == pytest.approx(0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(MetricError):
            imbalance_index([RankStats(rank=0)], by="flops")


class TestOverheadDecomposition:
    def test_terms_sum_to_makespan(self):
        d = overhead_decomposition(
            work=1e6, marked_speed=1e6, makespan=2.5, compute_efficiency=0.5
        )
        assert d.ideal_compute == pytest.approx(2.0)
        assert d.t0 == 0.0
        assert d.overhead == pytest.approx(0.5)
        assert d.ideal_compute + d.t0 + d.overhead == pytest.approx(d.makespan)
        assert d.overhead_fraction == pytest.approx(0.2)

    def test_alpha_splits_sequential_term(self):
        d = overhead_decomposition(
            work=1e6, marked_speed=1e6, makespan=2.0, alpha=0.25
        )
        assert d.t0 == pytest.approx(0.25)
        assert d.ideal_compute == pytest.approx(0.75)
        assert d.overhead == pytest.approx(1.0)

    def test_overhead_clamped_at_zero(self):
        d = overhead_decomposition(work=1e6, marked_speed=1e6, makespan=0.5)
        assert d.overhead == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(MetricError):
            overhead_decomposition(work=-1, marked_speed=1, makespan=1)
        with pytest.raises(MetricError):
            overhead_decomposition(work=1, marked_speed=0, makespan=1)
        with pytest.raises(MetricError):
            overhead_decomposition(
                work=1, marked_speed=1, makespan=1, compute_efficiency=0
            )
        with pytest.raises(MetricError):
            overhead_decomposition(work=1, marked_speed=1, makespan=1, alpha=1)


class TestCriticalPath:
    def test_ping_pong_path_length_equals_makespan(self):
        """Acceptance check: deterministic 2-rank ping-pong."""

        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.1)
                yield Send(1, 8.0, tag=1)
                yield Recv(src=1, tag=2)
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.2)
                yield Send(0, 8.0, tag=2)

        result, tracer = run_traced(2, program)
        path = critical_path(tracer)
        assert path.complete
        assert path.length == pytest.approx(result.makespan, abs=1e-12)
        assert path.start == 0.0
        assert path.end == pytest.approx(result.makespan)
        # The chain crosses both message edges and both ranks.
        assert len(path.edges) == 2
        assert set(path.time_by_rank) == {0, 1}

    def test_path_times_decompose_makespan(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.05)
                yield Send(1, 8.0, tag=1)
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.1)

        result, tracer = run_traced(2, program)
        path = critical_path(tracer)
        assert path.complete
        total = sum(path.time_by_kind.values())
        assert total == pytest.approx(result.makespan, abs=1e-12)

    def test_independent_ranks_path_is_longest_rank(self):
        def program(rank):
            yield Compute(seconds=0.1 * (rank + 1))

        result, tracer = run_traced(3, program, network=ZeroCostNetwork())
        path = critical_path(tracer)
        assert path.complete
        assert path.length == pytest.approx(0.3)
        assert list(path.time_by_rank) == [2]

    def test_multicast_edge_followed(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.1)
                yield Multicast((1, 2), 8.0, tag=3)
            else:
                yield Recv(src=0, tag=3)
                yield Compute(seconds=0.2)

        result, tracer = run_traced(3, program)
        path = critical_path(tracer)
        assert path.complete
        assert path.length == pytest.approx(result.makespan, abs=1e-12)
        assert any(e.src_rank == 0 for e in path.edges)

    def test_edge_nbytes_are_exact_message_sizes(self):
        # The MM operand broadcast is 8 * 701**2 = 3931208 bytes: seven
        # significant digits, which a "{:g}"-formatted detail string
        # would round to 3931210.
        tracer = Tracer()
        run_app("mm", mm_configuration(4), 701, tracer=tracer)
        path = critical_path(tracer)
        first = path.edges[0]
        assert (first.src_rank, first.dst_rank) == (0, 1)
        assert first.nbytes == 8 * 701 ** 2
        sent = {rec[6] for rec in tracer.raw
                if rec[1] in ("send", "multicast")}
        assert path.edges and all(e.nbytes in sent for e in path.edges)

    def test_truncated_trace_reports_incomplete(self):
        tracer = Tracer(limit=2)
        engine = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer)

        def program(rank):
            for _ in range(5):
                yield Compute(seconds=0.1)

        engine.run(program)
        path = critical_path(tracer)
        assert not path.complete

    def test_empty_trace(self):
        path = critical_path(Tracer())
        assert path.length == 0.0
        assert path.records == []
