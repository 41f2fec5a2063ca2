"""Brent's bracketing root finder, bit-identical to ``scipy.optimize.brentq``.

The paper's two closed-form solves -- Theorem 1's implicit scaled work
``W'`` (:func:`repro.core.theory.solve_scaled_work`) and the continuous
isospeed-efficiency condition
(:func:`repro.core.condition.required_size_continuous`) -- each need one
scalar root.  SciPy's ``brentq`` solves them, but importing
``scipy.optimize`` costs more than half a second and tens of megabytes
at every process start.  This module is a line-for-line port of SciPy's C
routine (``scipy/optimize/Zeros/brentq.c``) and of the checks its Python
wrapper makes, so the package starts without SciPy and every root, and
with it every search probe, rank and table, stays the same to the last
bit.

Python floats are IEEE doubles and every step below uses the C code's
operations in the C code's order, so the iterates agree exactly.  The one
place the languages differ is division by zero: C yields ``inf`` or
``NaN`` and Python raises.  Only the extrapolation step can divide by
zero (interpolation runs only when ``|f(xcur)| < |f(xpre)|``, so its
denominator is non-zero), and there C's ``inf``/``NaN`` step always
fails the acceptance test, so catching the error and bisecting takes the
same branch.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable

#: SciPy's defaults: ``xtol``, the smallest allowed ``rtol`` and ``maxiter``.
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _signbit(x: float) -> bool:
    """C's ``signbit``: true for negative values and for ``-0.0``."""
    return math.copysign(1.0, x) < 0


def _value(f: Callable[[float], float], x: float) -> float:
    """``f(x)`` as a double; a NaN stops the solve, as in SciPy."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = XTOL,
    rtol: float = RTOL,
    maxiter: int = MAXITER,
) -> float:
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    Returns ``x`` with ``|x - x0| <= xtol + rtol * |x0|`` for a true root
    ``x0``, exactly the value ``scipy.optimize.brentq(f, a, b, xtol=xtol,
    rtol=rtol, maxiter=maxiter)`` returns.

    Raises :class:`ValueError` for ``xtol <= 0``, ``rtol < 4 * eps``,
    ``maxiter < 0``, a bracket whose ends have the same sign, or a NaN
    function value; :class:`RuntimeError` when ``maxiter`` iterations do
    not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0

    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # C's inf or NaN: never a good short step
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
