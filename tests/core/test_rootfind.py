"""The pure-Python Brent solver against ``scipy.optimize.brentq``.

The port must return SciPy's root to the last bit, probe the same points
in the same order, and raise SciPy's errors, so that every search probe
and table built on the two closed-form solves stays unchanged.
"""

import math
import random

import pytest

from repro.core import condition, theory
from repro.core.rootfind import RTOL, brentq

#: The two call sites' tolerances, SciPy's defaults, and a loose pair.
TOLERANCES = [
    (1e-6, 1e-12),   # condition.required_size_continuous
    (1e-9, 1e-12),   # theory.solve_scaled_work
    (2e-12, RTOL),
    (1e-3, 1e-6),
]


@pytest.fixture(scope="module")
def scipy_brentq():
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.brentq


def _random_function(rng: random.Random):
    """A smooth (or deliberately flat/kinked) function with a root at r."""
    r = rng.uniform(-1e3, 1e3)
    s = 10 ** rng.uniform(-3, 3)
    c = rng.uniform(-1, 1)
    p = rng.choice([0.5, 1, 2, 3, 7])
    kind = rng.randrange(6)
    if kind == 0:
        return r, lambda x: s * (x - r) + c * (x - r) ** 2 * (x > r)
    if kind == 1:
        return r, lambda x: math.copysign(abs(x - r) ** p, x - r) * s
    if kind == 2:
        return r, lambda x: math.expm1(max(-700.0, min(700.0, s * (x - r) / 100)))
    if kind == 3:
        return r, lambda x: math.atan(s * (x - r)) + c * 1e-6
    if kind == 4:
        return r, lambda x: (x - r) * (1 + c * math.sin(x))
    # A step function: brackets a discontinuity, exercising bisection.
    return r, lambda x: math.floor(s * (x - r)) + 0.5


def _outcome(solver, f, a, b, **kwargs):
    """``(result, probes)`` where result is the root's hex or the error."""
    probes = []

    def traced(x):
        probes.append(x.hex())
        return f(x)

    try:
        result = solver(traced, a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as err:
        result = (type(err).__name__, str(err))
    return result, probes


@pytest.mark.parametrize("xtol,rtol", TOLERANCES)
def test_randomized_roots_bit_identical(scipy_brentq, xtol, rtol):
    rng = random.Random(f"brentq-{xtol}-{rtol}")
    converged = 0
    for _ in range(1500):
        r, f = _random_function(rng)
        a = r - 10 ** rng.uniform(-8, 4)
        b = r + 10 ** rng.uniform(-8, 4)
        if rng.random() < 0.5:
            a, b = b, a
        kwargs = dict(xtol=xtol, rtol=rtol, maxiter=rng.choice([100, 100, 8]))
        ours = _outcome(brentq, f, a, b, **kwargs)
        theirs = _outcome(scipy_brentq, f, a, b, **kwargs)
        assert ours == theirs, (a, b, kwargs)
        converged += isinstance(ours[0], str)
    assert converged > 1000  # the sample is mostly real solves


@pytest.mark.parametrize(
    "f,a,b,kwargs",
    [
        (lambda x: x * x + 1.0, 0.0, 2.0, {}),                 # same sign
        (lambda x: -(x * x) - 1.0, 0.0, 2.0, {}),              # both negative
        (lambda x: math.nan, 0.0, 2.0, {}),                    # NaN at a
        (lambda x: x - 1.0 if x < 2 else math.nan, 0.0, 2.0, {}),  # NaN at b
        (lambda x: x - 0.3, 0.0, 2.0, {"xtol": 0.0}),
        (lambda x: x - 0.3, 0.0, 2.0, {"xtol": -1e-9}),
        (lambda x: x - 0.3, 0.0, 2.0, {"rtol": 1e-17}),
        (lambda x: x - 0.3, 0.0, 2.0, {"maxiter": -1}),
        (lambda x: x * x - 2.0, 0.0, 2.0, {"maxiter": 2}),     # runs out
        (lambda x: x - 0.3, 0.0, 2.0, {"maxiter": 0}),
        (lambda x: x, 0.0, 2.0, {}),                           # root at a
        (lambda x: x - 2.0, 0.0, 2.0, {}),                     # root at b
        (lambda x: x, 0.0, 2.0, {"maxiter": 0}),               # a beats maxiter
        (lambda x: -0.0 if x == 0 else x - 1.0, 0.0, 2.0, {}),  # f(a) = -0.0
        (lambda x: x - 1.0, 2, 0, {}),                         # int, reversed
    ],
)
def test_edge_cases_match_scipy(scipy_brentq, f, a, b, kwargs):
    assert _outcome(brentq, f, a, b, **kwargs) == _outcome(
        scipy_brentq, f, a, b, **kwargs
    )


class TestErrorContract:
    def test_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, 0.0, 2.0)

    def test_nan_value(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan, 0.0, 2.0)

    @pytest.mark.parametrize(
        "kwargs", [{"xtol": 0.0}, {"rtol": 1e-16}, {"maxiter": -1}]
    )
    def test_bad_tolerances(self, kwargs):
        with pytest.raises(ValueError):
            brentq(lambda x: x - 0.3, 0.0, 2.0, **kwargs)

    def test_maxiter_exhausted(self):
        with pytest.raises(RuntimeError, match="after 2 iterations"):
            brentq(lambda x: x * x - 2.0, 0.0, 2.0, maxiter=2)

    def test_root_at_endpoint_returns_endpoint(self):
        assert brentq(lambda x: x, 0.0, 2.0) == 0.0
        assert brentq(lambda x: x - 2.0, 0.0, 2.0) == 2.0

    def test_converges_within_tolerance(self):
        root = brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-12)
        assert abs(root - math.sqrt(2.0)) <= 1e-12 + RTOL * math.sqrt(2.0)


def test_call_sites_match_scipy(scipy_brentq, monkeypatch):
    """Both closed-form solves return SciPy's answer bit for bit."""

    def solves():
        scaled = [
            theory.solve_scaled_work(
                1e9, 1e8, c_to, 0.5, 1.2,
                t0_of_work=lambda w: 0.5 + 1e-10 * w,
                overhead_of_work=lambda w: 1.2 * math.sqrt(w / 1e9),
            )
            for c_to in (1.5e8, 3e8, 7.25e8)
        ]
        sizes = [
            condition.required_size_continuous(
                lambda n: n ** 3 / (n ** 3 + k * n * n), target
            )
            for k in (3.0, 40.0, 900.0)
            for target in (0.3, 0.5, 0.9)
        ]
        return [x.hex() for x in scaled + sizes]

    ours = solves()
    monkeypatch.setattr(theory, "brentq", scipy_brentq)
    monkeypatch.setattr(condition, "brentq", scipy_brentq)
    assert solves() == ours
