"""Brent's bracketing root finder.

A step-for-step port of scipy's ``brentq`` (``scipy/optimize/Zeros/
brentq.c``; R. P. Brent, *Algorithms for Minimization Without
Derivatives*, 1973, ch. 4).  It keeps the same state (``xpre``, ``xcur``,
``xblk``), the same interpolate / extrapolate / bisect tests and the same
order of floating-point operations, so it returns scipy's root bit for bit.
The package needs nothing else from ``scipy.optimize``, and importing that
subpackage would add about 0.2 s and 17 MB to every run.
"""

from __future__ import annotations

import math
import sys

_RTOL = 4.0 * sys.float_info.epsilon


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100, disp=True):
    """Root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    The result lies within 2 (xtol + rtol |x|) of a root.  ``f`` is always
    called with a Python float.  Raises ValueError when f(a) and f(b) have
    the same sign or ``f`` returns NaN, and RuntimeError when ``maxiter``
    iterations do not converge; with ``disp=False`` the last iterate is
    returned instead.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # The tolerance is 2 delta.
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
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
                # In C any division by zero here leaves stry inf or NaN,
                # which fails the short-step test below: bisect.
                stry = math.inf
            # C's MIN(abs(spre), ...) with the arguments swapped: on a tie
            # or a NaN Python's min keeps its first, C's MIN its second.
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)

    if disp:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    return xcur
