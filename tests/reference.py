"""A high-precision PFA force on a lens profile, for settling disagreements.

``force_reference(profile, a)`` is the zero-temperature PFA force

    F = 2 pi integral_0^extent rho P(z(rho)) drho,   P(z) = -pi^2 hbar c / (240 z^4),

in 40-digit mpmath.  It shares no geometry with ``caslens``: the gap z(rho)
is built here from (R, D, R1, D1) alone, and no ``lens`` or ``pfa`` helper
is called.  So it can convict either ``full`` (the PFA by parts) or
``quadrature`` (the PFA integrated in double precision) when the two
disagree.

The profile is piecewise spherical, with a slope kink on the seam circle
rho = r (a perfect lens has one piece).  Each piece is integrated on its
own, with breakpoints that close in on both of its ends geometrically,
down to where the gap is within 1e-2 of its value at the end: a thin gap
rises steeply within a tiny width of the seam, and the breakpoints keep
that width inside a panel of its own size.  Each panel is a tanh-sinh rule
of degree at most 6, and a force whose summed error estimate exceeds
1e-25 of it is refused with an AssertionError.
"""

from __future__ import annotations

import mpmath

from caslens.constants import LIGHT_SPEED, REDUCED_PLANCK

DIGITS = 40

#: Each next breakpoint lies this much closer to the end it closes in on.
_STEP = 100
#: How close to its value at an end the gap must come before the breakpoints stop.
_FLAT = mpmath.mpf("1e-2")
#: The tanh-sinh degree cap, and the bound on the summed error estimate.
_MAX_DEGREE = 6
_MAX_ERROR = mpmath.mpf("1e-25")


def force_reference(profile, a: float) -> float:
    """The T = 0 PFA force on ``profile`` at closest approach a, in N."""
    with mpmath.workdps(DIGITS):
        mp = mpmath.mp
        R, D, a = mp.mpf(profile.R), mp.mpf(profile.D), mp.mpf(a)
        extent = mp.sqrt(D * (2 * R - D))

        def cap(radius, rho):
            # radius - sqrt(radius^2 - rho^2), without the cancellation.
            return rho * rho / (radius + mp.sqrt(radius * radius - rho * rho))

        if profile.R1 is None:
            pieces = [(0, extent, lambda rho: a + cap(R, rho))]
        else:
            R1, D1 = mp.mpf(profile.R1), mp.mpf(profile.D1)
            r = mp.sqrt(2 * R1 * D1 - D1 * D1)
            seam = cap(R, r)
            if profile.kind.value == "bubble":
                pieces = [(0, r, lambda rho: a + cap(R1, rho)),
                          (r, extent, lambda rho: a + D1 + cap(R, rho) - seam)]
            else:
                pieces = [(0, r, lambda rho: a + D1 - cap(R1, rho)),
                          (r, extent, lambda rho: a + cap(R, rho) - seam)]
        total = error = mp.mpf(0)
        for lo, hi, gap in pieces:
            value, estimate = mp.quad(lambda rho: rho / gap(rho) ** 4, _breakpoints(lo, hi, gap),
                                      error=True, maxdegree=_MAX_DEGREE)
            total += value
            error += estimate
        assert error <= _MAX_ERROR * total, f"reference error estimate {error} of {total}"
        pressure_scale = -mp.pi**2 * mp.mpf(REDUCED_PLANCK) * mp.mpf(LIGHT_SPEED) / 240
        return float(2 * mp.pi * pressure_scale * total)


def _breakpoints(lo, hi, gap) -> list:
    """lo, hi and the points between them that close in on each end by
    factors of _STEP, until the gap there is within _FLAT of the end's."""
    points = {lo, hi}
    for end, toward in ((lo, 1), (hi, -1)):
        z_end = gap(end)
        t = (hi - lo) / 2
        while end + toward * t != end:
            rho = end + toward * t
            points.add(rho)
            if abs(gap(rho) - z_end) <= _FLAT * z_end:
                break
            t /= _STEP
    return sorted(points)
