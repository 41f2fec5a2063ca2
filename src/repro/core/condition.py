"""Solving the isospeed-efficiency condition for the required problem size.

The paper's first method (section 3.5) finds, for each configuration, the
problem size whose speed-efficiency equals a chosen constant (0.3 for GE,
0.2 for MM).  Speed-efficiency rises with the problem size for the
paper's applications (communication grows slower than computation), but
the simulated ``E_S(N)`` is not monotone in the integer ``N``: the block
distribution of rows over ranks makes it sawtoothed.  Measured on the
four-node GE configuration, ``E(834) = 0.30002`` while ``E(836) =
0.29986``; on four-node MM, ``E(100) = 0.20006``, ``E(101) = 0.1995`` and
``E(102) = 0.2014``.  So "the smallest ``N`` with ``E(N) >= target``" is
not what a search of a few probes can promise.  What it does promise is
a *certified crossing*: an ``N`` with ``E(N) >= target`` together with a
probed witness ``m`` in ``[N - max(1, rtol N), N)`` with ``E(m) <
target``.  For a monotone ``E`` at ``rtol = 0`` that is exactly the
smallest such ``N``.

Two solvers are provided:

* :func:`required_problem_size` -- certified integer search against any
  evaluator ``E(N)`` (e.g. a full simulated run), optionally seeded by a
  smooth model of ``E``.
* :func:`required_size_continuous` -- Brent root finding against a smooth
  model ``E(N)``, for analytic prediction (section 4.5).
"""

from __future__ import annotations

import math
from typing import Callable

from .rootfind import brentq

from .types import MetricError, _require_positive


def required_problem_size(
    efficiency_of: Callable[[int], float],
    target: float,
    lower: int = 2,
    upper: int | None = None,
    max_upper: int = 1 << 22,
    rtol: float = 0.0,
    prior: Callable[[float], float] | None = None,
) -> int:
    """Certified crossing ``N >= lower`` of ``efficiency_of(N) = target``.

    Returns ``lower`` when ``efficiency_of(lower) >= target``.  Otherwise
    the returned ``N`` has ``efficiency_of(N) >= target`` and some probed
    ``m`` with ``N - m <= max(1, rtol * N)`` has ``efficiency_of(m) <
    target``; for a non-decreasing ``efficiency_of`` and ``rtol = 0`` it
    is the smallest integer ``N`` meeting the target.

    The search first brackets the crossing.  Without a ``prior`` it
    probes ``lower`` and then ``upper`` (or, when ``upper`` is not given,
    doubles from ``max(2 * lower, 16)`` up to ``max_upper``).  With a
    ``prior`` -- a model ``E(N)`` of the same quantity, such as
    :meth:`~repro.core.prediction.PerformanceModel.efficiency` -- it
    probes the smallest integer the model says meets the target, then
    the root of the model shifted by the residual measured there, then
    secant steps clamped to ``[0.5 n, 2 n]`` of the latest probe ``n``,
    until one probe meets the target and another misses it.  Illinois
    regula falsi, with a bisection safeguard, then narrows the bracket.

    Each estimated root ``x`` is probed just past it, on the side the
    latest probe has not seen: at ``floor(x (1 - rtol / 3))`` after a
    probe that met the target, at ``ceil(x (1 + rtol / 3))`` after one
    that missed.  A probe ``h`` placed that way that meets the target is
    followed by the witness ``ceil(h (1 - rtol))``, whose miss ends the
    search.  So an estimate within about ``rtol`` of the crossing ends
    the search in two more probes, with the answer close above the
    crossing rather than up to ``rtol`` above it.

    Raises :class:`MetricError` when the target is not met by
    ``max_upper`` (or by ``upper``).
    """
    _require_positive("target", target)
    if lower < 1:
        raise MetricError(f"lower bound must be >= 1, got {lower}")
    if rtol < 0:
        raise MetricError(f"rtol must be non-negative, got {rtol}")

    cap = max_upper if upper is None else upper
    residual: dict[int, float] = {}  # every probe: N -> E(N) - target

    def probe(n: int) -> float:
        if n not in residual:
            residual[n] = efficiency_of(n) - target
        return residual[n]

    def unreachable() -> MetricError:
        if upper is not None:
            return MetricError(
                f"efficiency at upper bound N={upper} is below target {target}"
            )
        return MetricError(
            f"efficiency never reaches {target} up to N={max_upper}; "
            "the combination cannot attain the requested "
            "speed-efficiency (unscalable at this target)"
        )

    def aim(x: float) -> int:
        return math.floor(x * (1.0 - rtol / 3.0))

    def witness(h: int) -> int:
        return h - max(1, math.floor(rtol * h))

    # lo: the largest probe below hi that misses the target; hi: the
    # smallest probe that meets it.  Every probe lands between them.
    lo: int | None = None
    hi: int | None = None
    if prior is None:
        if probe(lower) >= 0:
            return lower
        lo = lower
        n = max(2 * lower, 16) if upper is None else upper
        while probe(n) < 0:
            if n >= cap:
                raise unreachable()
            lo, n = n, min(2 * n, cap)
        hi = n
    else:
        prior = _on_integers(prior)
        n = min(max(math.ceil(required_size_continuous(
            prior, target, lower=float(lower))), lower), cap)
        if probe(n) >= 0:
            hi = n
        else:
            lo = n
    previous: int | None = None  # the probe before n
    aimed = False  # whether n was placed at an estimated root
    f_lo = f_hi = 0.0  # Illinois weights of the bracket ends
    moved = ""  # the bracket end the latest probe moved
    widths: list[int] = []
    while True:
        if hi == lower:
            return lower
        if lo is not None and hi is not None:
            if hi - lo <= max(1, rtol * hi):
                return hi
            if not widths:
                f_lo, f_hi = residual[lo], residual[hi]
            widths.append(hi - lo)
        elif hi is None and n >= cap:
            raise unreachable()

        # -- place the next probe ---------------------------------------
        if aimed and n == hi:
            # Certify a hit from below: a miss here ends the search.
            step, aimed = witness(hi), False
        elif len(widths) >= 3 and widths[-1] > widths[-3] / 2:
            step, aimed = (lo + hi) // 2, False  # bisection safeguard
        else:
            if lo is not None and hi is not None:
                x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
                aimed = True
            else:
                x = _one_sided_root(prior, lower, previous, n, residual)
                aimed = 0.5 * n < x < 2.0 * n  # not a clamped step
            # Aim just past the estimate, on the side the latest probe
            # has not seen, so that the next outcome can end the search.
            step = aim(x) if n == hi else math.ceil(x * (1.0 + rtol / 3.0))
        low = lower if lo is None else lo + 1
        high = cap if hi is None else hi - 1
        previous, n = n, min(max(step, low), high)

        if probe(n) >= 0:
            hi, f_hi = n, residual[n]
            if moved == "hi":
                f_lo /= 2.0
            moved = "hi"
        else:
            lo, f_lo = n, residual[n]
            if moved == "lo":
                f_hi /= 2.0
            moved = "lo"


def _on_integers(prior: Callable[[float], float]) -> Callable[[float], float]:
    """The prior at integer ``N``, joined by straight lines.

    Models of ``E(N)`` round ``N`` to whole rows, so between integers
    they jump; the root of the joined-up model is the crossing the model
    predicts for integer ``N``.
    """
    def joined(x: float) -> float:
        k = math.floor(x)
        at_k = prior(k)
        return at_k if x == k else at_k + (x - k) * (prior(k + 1) - at_k)

    return joined


def _one_sided_root(
    prior: Callable[[float], float],
    lower: int,
    previous: int | None,
    n: int,
    residual: dict[int, float],
) -> float:
    """Estimated crossing while every probe so far lies on one side of it.

    A secant through the last two probes, else the prior shifted by the
    residual at ``n``, clamped to ``[0.5 n, 2 n]``.  An estimate on the
    wrong side of ``n`` puts the crossing at ``n`` right after the seed
    (the prior is only piecewise smooth) and doubles or halves ``n``
    later.
    """
    up = residual[n] < 0
    x = None
    if previous is not None:
        f_a, f_b = residual[previous], residual[n]
        if (f_b - f_a) * (n - previous) > 0:  # the secant rises
            x = n - f_b * (n - previous) / (f_b - f_a)
    if x is None:
        x = _shifted_root(prior, n, residual[n], lower)
    if x is None or (x <= n if up else x >= n):
        if previous is None:
            return float(n)
        return 2.0 * n if up else 0.5 * n
    return min(x, 2.0 * n) if up else max(x, 0.5 * n)


def _shifted_root(
    prior: Callable[[float], float],
    n: int,
    measured: float,
    lower: int,
) -> float | None:
    """Root of the prior shifted by the residual ``E(n) - target``
    measured at ``n``: the ``x`` with ``prior(x) + E(n) - prior(n) =
    target``, solved on the side of ``n`` where it must lie."""
    level = prior(n) - measured  # target - (E(n) - prior(n))
    try:
        if measured < 0:
            return required_size_continuous(prior, level, lower=float(n))
        return required_size_continuous(prior, level, lower=float(lower),
                                        upper=float(n))
    except MetricError:
        return None


def required_size_continuous(
    efficiency_of: Callable[[float], float],
    target: float,
    lower: float = 2.0,
    upper: float | None = None,
    max_upper: float = 1e9,
) -> float:
    """Real-valued problem size with ``efficiency_of(N) == target``.

    Used for model-based prediction where ``E(N)`` is smooth and monotone.
    """
    _require_positive("target", target)
    _require_positive("lower", lower)

    def residual(n: float) -> float:
        return efficiency_of(n) - target

    if residual(lower) >= 0:
        return lower
    if upper is None:
        upper = max(2 * lower, 16.0)
        while residual(upper) < 0:
            if upper >= max_upper:
                raise MetricError(
                    f"model efficiency never reaches {target} up to N={max_upper}"
                )
            upper = min(2 * upper, max_upper)
    elif residual(upper) < 0:
        raise MetricError(
            f"model efficiency at upper bound N={upper} is below target {target}"
        )
    return float(brentq(residual, lower, upper, xtol=1e-6, rtol=1e-12))
