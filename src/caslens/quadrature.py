"""Adaptive Gauss-Kronrod quadrature.

The rule is QUADPACK's QAG with the 21-point Kronrod extension of the
10-point Gauss rule (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, Springer 1983).  The subinterval with the largest error
estimate is bisected until the summed estimate falls to the relative
tolerance.  One panel's error estimate is QUADPACK's

    resasc * min(1, (200 |K21 - G10| / resasc)^1.5),

floored at 50 machine epsilons of the panel's integral of |f|; resasc is
the integral of |f - mean(f)|.  A half-infinite range [a, inf) is mapped
onto (0, 1] by y = a + (1 - t)/t, and no node falls on t = 0.  There is no
extrapolation: an endpoint singularity costs more bisections, not accuracy.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Callable
from operator import mul

from .exceptions import TOLERANCE, QuadratureError, check_finite

#: Tightest relative tolerance the rule is asked for; the per-panel error
#: floor of 50 machine epsilons makes anything tighter unreachable.
MIN_REL_TOL = 1.0e-13

#: Cap on the number of subintervals.
LIMIT = 300

_EPS50 = 50.0 * sys.float_info.epsilon
_ABS_FLOOR_MIN = sys.float_info.min / _EPS50

# Kronrod abscissae on [0, 1) from the outside in; the odd positions
# (0.9739..., 0.8650..., ...) are the 10-point Gauss nodes.
_HALF_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_HALF_KRONROD = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980900001,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_CENTRE_KRONROD = 0.149445554002916905664936468389821
_HALF_GAUSS = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
)

# The 21 nodes on [-1, 1] with their Kronrod and Gauss weights.
_NODES = tuple(-x for x in _HALF_NODES) + (0.0,) + _HALF_NODES[::-1]
_KRONROD = _HALF_KRONROD + (_CENTRE_KRONROD,) + _HALF_KRONROD[::-1]
_GAUSS = _HALF_GAUSS + (0.0,) + _HALF_GAUSS[::-1]


def _kronrod21(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """K21 integral of f over [lo, hi] and QUADPACK's error estimate."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = [f(centre + half * x) for x in _NODES]
    kronrod = sum(map(mul, _KRONROD, values))
    gauss = sum(map(mul, _GAUSS, values))
    mean = 0.5 * kronrod
    width = abs(half)
    resabs = width * sum(map(mul, _KRONROD, map(abs, values)))
    resasc = width * sum(w * abs(v - mean) for w, v in zip(_KRONROD, values))
    error = abs((kronrod - gauss) * half)
    if resasc != 0.0 and error != 0.0:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    if resabs > _ABS_FLOOR_MIN:
        error = max(_EPS50 * resabs, error)
    return kronrod * half, error


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float,
) -> tuple[float, float, int]:
    """Integral of f over [a, b] by adaptive 21-point Gauss-Kronrod.

    ``b`` may be ``math.inf``.  ``rel_tol`` must be positive and finite
    (ValueError otherwise) and is raised to MIN_REL_TOL.  Returns (value,
    absolute error estimate, evaluations of f).  Raises QuadratureError
    when LIMIT subintervals do not reach the tolerance.
    """
    rel_tol = max(check_finite("rel_tol", rel_tol, TOLERANCE), MIN_REL_TOL)
    g, lo, hi = f, a, b
    if b == math.inf:
        def g(t: float) -> float:
            return f(a + (1.0 - t) / t) / (t * t)

        lo, hi = 0.0, 1.0
    area, errsum = _kronrod21(g, lo, hi)
    evaluations = 21
    if errsum <= rel_tol * abs(area) or errsum == 0.0:
        return area, errsum, evaluations
    # Max-heap on the error estimate: (-error, lo, hi, value).
    panels = [(-errsum, lo, hi, area)]
    for _ in range(LIMIT - 1):
        neg_error, lo, hi, value = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        left, left_error = _kronrod21(g, lo, mid)
        right, right_error = _kronrod21(g, mid, hi)
        evaluations += 42
        area += left + right - value
        errsum += left_error + right_error + neg_error
        heapq.heappush(panels, (-left_error, lo, mid, left))
        heapq.heappush(panels, (-right_error, mid, hi, right))
        if errsum <= rel_tol * abs(area):
            return sum(panel[3] for panel in panels), errsum, evaluations
    raise QuadratureError(
        f"adaptive quadrature on [{a!r}, {b!r}] stopped at {LIMIT} subintervals "
        f"with error estimate {errsum:.3e}, above {rel_tol:.1e} of {area:.6e}"
    )
