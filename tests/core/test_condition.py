"""Unit tests for the isospeed-efficiency condition solvers."""

import math

import pytest

from repro.core.condition import required_problem_size, required_size_continuous
from repro.core.types import MetricError


def saturating(n):
    """A GE-like efficiency curve: rises toward 0.5."""
    return 0.5 * n / (n + 100.0)


class TestIntegerSolver:
    def test_finds_smallest_satisfying_n(self):
        n = required_problem_size(saturating, 0.25)
        assert saturating(n) >= 0.25
        assert saturating(n - 1) < 0.25
        assert n == 100  # 0.5 n/(n+100) >= 0.25 <=> n >= 100 exactly

    def test_lower_already_satisfies(self):
        assert required_problem_size(saturating, 0.25, lower=500) == 500

    def test_explicit_upper(self):
        n = required_problem_size(saturating, 0.25, upper=1 << 12)
        assert n == 100

    def test_upper_too_small_rejected(self):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.25, upper=50)

    def test_unreachable_target_raises(self):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.9, max_upper=1 << 16)

    def test_rtol_terminates_early_but_satisfies(self):
        calls = []

        def counted(n):
            calls.append(n)
            return saturating(n)

        n = required_problem_size(counted, 0.25, rtol=0.05)
        assert saturating(n) >= 0.25
        assert abs(n - 100) <= 0.05 * n
        exact_calls = []

        def counted2(n):
            exact_calls.append(n)
            return saturating(n)

        required_problem_size(counted2, 0.25, rtol=0.0)
        assert len(calls) < len(exact_calls)

    def test_validation(self):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.0)
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.25, lower=0)
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.25, rtol=-1.0)


def sawtooth(n):
    """A monotone trend plus a period-2 ripple, like the simulated E_S."""
    return saturating(n) + (0.002 if n % 2 else -0.002)


class Recorded:
    """An evaluator that remembers every N it was asked for."""

    def __init__(self, efficiency):
        self.efficiency = efficiency
        self.calls = []

    def __call__(self, n):
        self.calls.append(n)
        return self.efficiency(n)

    def certified(self, n, target, rtol):
        """``n`` meets the target and a probed ``m`` in
        ``[ceil(n (1 - rtol)), n)`` misses it."""
        floor = min(n - 1, math.ceil(n * (1 - rtol)))
        return self.efficiency(n) >= target and any(
            floor <= m < n and self.efficiency(m) < target
            for m in self.calls
        )


def off_by(factor):
    """A prior whose root sits at ``factor`` times the true one."""
    return lambda x: saturating(x / factor)


class TestCertifiedSearch:
    @pytest.mark.parametrize("rtol", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("target", [0.2, 0.25, 0.3, 0.4])
    @pytest.mark.parametrize("prior", [None, saturating],
                             ids=["no-prior", "prior"])
    def test_sawtooth_answer_is_certified(self, rtol, target, prior):
        evaluate = Recorded(sawtooth)
        n = required_problem_size(evaluate, target, lower=3, rtol=rtol,
                                  prior=prior)
        assert evaluate.certified(n, target, rtol)

    @pytest.mark.parametrize("factor", [0.2, 5.0])
    @pytest.mark.parametrize("efficiency", [saturating, sawtooth])
    def test_far_off_prior_still_certifies(self, factor, efficiency):
        evaluate = Recorded(efficiency)
        n = required_problem_size(evaluate, 0.25, lower=3, rtol=0.01,
                                  prior=off_by(factor))
        assert evaluate.certified(n, 0.25, 0.01)
        assert len(set(evaluate.calls)) == len(evaluate.calls)

    @pytest.mark.parametrize("factor", [0.8, 1.2])
    def test_prior_twenty_percent_off_needs_few_evaluations(self, factor):
        evaluate = Recorded(saturating)
        n = required_problem_size(evaluate, 0.25, lower=3, rtol=0.01,
                                  prior=off_by(factor))
        assert evaluate.certified(n, 0.25, 0.01)
        assert abs(n - 100) <= 1
        assert len(evaluate.calls) <= 5

    @pytest.mark.parametrize("prior", [
        saturating,  # the prior cannot reach the target either
        lambda x: 0.9 * x / (x + 100.0),  # the prior promises it can
    ], ids=["prior-unreachable", "prior-reachable"])
    def test_unreachable_target_raises(self, prior):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.6, lower=3, rtol=0.01,
                                  max_upper=1 << 16, prior=prior)

    def test_prior_meeting_target_at_lower_returns_lower(self):
        assert required_problem_size(
            saturating, 0.25, lower=500, rtol=0.01, prior=saturating
        ) == 500

    def test_exact_with_prior_at_zero_rtol(self):
        n = required_problem_size(saturating, 0.25, rtol=0.0,
                                  prior=off_by(1.3))
        assert n == 100


class TestContinuousSolver:
    def test_root_matches_analytic_inverse(self):
        # 0.5 n/(n+100) = 0.25 <=> n = 100.
        n = required_size_continuous(saturating, 0.25)
        assert n == pytest.approx(100.0, rel=1e-4)

    def test_lower_already_satisfies(self):
        assert required_size_continuous(saturating, 0.25, lower=500.0) == 500.0

    def test_unreachable_raises(self):
        with pytest.raises(MetricError):
            required_size_continuous(saturating, 0.6, max_upper=1e7)

    def test_explicit_upper_too_small(self):
        with pytest.raises(MetricError):
            required_size_continuous(saturating, 0.25, upper=50.0)
