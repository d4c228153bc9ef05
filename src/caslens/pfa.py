"""Plate-lens Casimir force via the proximity force approximation (PFA).

Each annulus of the lens at local separation z(rho) contributes the
parallel-plate pressure over its area:  F = 2 pi integral rho P_pp(z(rho)) drho.
Every profile here is piecewise spherical (``_spheres``).  On a piece of
radius R_i, rho drho = (R_i - h) dh, and the gap runs linearly in h from g0
at h_lo to g1 at h_hi, so the integral goes by parts into F = F_pp(z, T) and
its antiderivative E = E_pp(z, T) at the ends of the pieces, which one
``plates._plate_kernel`` call per gap reads together.  Each closed form is
two weights on F, 2 pi [w_a F(a) + w_d F(a + D1)]:

    simplified     R F(a)
    bubble         R1 F(a) + (R - R1) F(a + D1)
    pit            (R - R1) F(a) + R1 F(a + D1)

and ``full`` sums, over the pieces, with sigma the sign of g1 - g0,

    sigma [(R_i - h_lo) F(g0) - (R_i - h_hi) F(g1)] - E(g0) + E(g1).

On a piece thinner than a tenth of its smallest gap those terms cancel, so
``full`` sums it by one 21-point Kronrod panel of ``quadrature``'s
integrand instead, which is exact at T = 0.  ``full`` is exact within the
PFA for every kind.  The simplified and bubble forms drop terms of order
(a, D1)/R, about 1e-5 for micrometer gaps and centimeter lenses; the pit
form is the tabulated one (see ``force_pit``).  ``quadrature``, which
integrates rho P_pp over each spherical piece numerically, is the cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum

from .exceptions import (LENGTH, LENGTH_OR_ZERO, TEMPERATURE, TOLERANCE, QuadratureError,
                         _Fields, _Record, check_finite)
from .lens import LensKind, LensProfile, _cap_height, _footprint_radius
from .plates import _E, _F, _P, _Z_T_TIMES_T, _plate_kernel
from .quadrature import _kronrod21, integrate

#: Default relative tolerance for the PFA quadrature, and the accuracy bound
#: every closed-form sum must meet.
DEFAULT_QUAD_TOL = 1.0e-9

#: Relative accuracy of each plate-kernel value (tested against mpmath).
_KERNEL_ACCURACY = 2.0e-15

#: a/R above which a closed form carries an applicability note.
_CLOSED_FORM_RATIO_LIMIT = 1.0e-2

_TWO_PI = 2.0 * math.pi

#: ``full`` sums a piece thinner than this share of its smallest gap by one K21 panel.
_THIN = 0.1

#: Gaps, as shares of z_T, at which ``quadrature`` also cuts a piece whose
#: smallest gap lies more than a decade below them.  There the thermal part
#: of the integrand turns in a layer about a/z_T wide that one K21 panel and
#: its G10 both miss, so its error estimate falls far below its error.
_Z_T_CUTS = (0.5, 0.1, 0.02)


class ForceMethod(Enum):
    GENERAL_QUADRATURE = "quadrature"
    PERFECT_FULL = "full"
    PERFECT_SIMPLIFIED = "simplified"
    BUBBLE = "bubble"
    PIT = "pit"


class ForceResult(_Fields):
    """Plate-lens force at one separation: ``magnitude`` >= 0 and finite, and
    ``value`` = -magnitude, as every force attracts.  Each method passes its
    negated sum, so a sum that is not attractive is refused here.  A plain
    record, built on every force call: not frozen, and unhashable.
    """

    __slots__ = ("magnitude", "method", "a", "T", "warning")

    def __init__(self, magnitude: float, method: ForceMethod, a: float, T: float,
                 warning: str | None = None) -> None:
        if not 0.0 <= magnitude < math.inf:
            raise ValueError(f"force magnitude {magnitude!r} is negative or not finite")
        self.magnitude = magnitude
        self.method = method
        self.a = a
        self.T = T
        self.warning = warning

    @property
    def value(self) -> float:
        return -self.magnitude


class RatioCurve(_Record):
    """Force ratio imperfect/perfect over a separation grid, which may be empty."""

    __slots__ = ("separations", "ratios")

    def __init__(self, separations: tuple[float, ...], ratios: tuple[float, ...]) -> None:
        self._store(separations, ratios)
        if len(separations) != len(ratios):
            raise ValueError("separations and ratios must have equal length")
        if any(not s > 0.0 for s in separations):
            raise ValueError("separations must be positive")
        if any(b <= prev for prev, b in zip(separations, separations[1:])):
            raise ValueError("separations must be strictly increasing")
        if any(not ratio > 0.0 for ratio in ratios):
            raise ValueError("force ratios must be strictly positive")


def _validate_point(a: float, T: float) -> None:
    check_finite("separation a", a, LENGTH)
    check_finite("temperature", T, TEMPERATURE)


def _applicability(a: float, R: float, form: str) -> str | None:
    """The closed forms' a/R rule: a >= R is refused, and a/R >= 1e-2 gives
    a warning naming ``form``, else None."""
    if a >= R:
        raise ValueError(f"a={a!r} is not small against R={R!r}")
    if a < _CLOSED_FORM_RATIO_LIMIT * R:
        return None
    return (f"a/R = {a / R:.3e} exceeds {_CLOSED_FORM_RATIO_LIMIT}; the {form} "
            "PFA form degrades at this separation")


def _closed(kind: LensKind, R: float, R1: float | None = 0.0) -> tuple:
    """The closed form of ``kind``: its ForceMethod, whose label names it, and
    its weights on F_pp(a) and F_pp(a + D1), the latter None if perfect."""
    if kind is LensKind.PERFECT:
        return ForceMethod.PERFECT_SIMPLIFIED, R, None
    if kind is LensKind.PIT:
        return ForceMethod.PIT, R - R1, R1
    return ForceMethod.BUBBLE, R1, R - R1


def _closed_force(kind: LensKind, a: float, T: float, R: float, R1: float | None,
                  D1: float | None) -> ForceResult:
    """``kind``'s closed form at (a, T), with no domain check: a/R rule, sum, result."""
    method, w_a, w_d = _closed(kind, R, R1)
    warning = _applicability(a, R, method.value)
    signed = _closed_sum(w_a, w_d, _plate_kernel(a, T, _F)[_F], a, T, D1)
    return ForceResult(-signed, method, a, T, warning)


def _raw_closed_force(kind: LensKind, a: float, T: float, R: float, R1: float,
                      D1: float) -> ForceResult:
    """The boundary of ``force_bubble`` and ``force_pit``, where R1 or D1 may be
    0: the domain of each length, then pit R1 < R, then the closed form."""
    _validate_point(a, T)
    check_finite("curvature radius R", R, LENGTH)
    check_finite("imperfection radius R1", R1, LENGTH_OR_ZERO)
    check_finite("imperfection depth D1", D1, LENGTH_OR_ZERO)
    if kind is LensKind.PIT and R1 >= R:
        raise ValueError("a pit requires R1 < R")
    return _closed_force(kind, a, T, R, R1, D1)


def _closed_sum(w_a: float, w_d: float | None, F_a: float, a: float, T: float,
                D1: float = 0.0) -> float:
    """The signed closed force 2 pi (w_a F_a + w_d F_pp(a + D1)), with F_a =
    F_pp(a) given and no domain check; w_d None gives (2 pi w_a) F_a.  Each F
    is within 2e-15 of exact, so a sum that is not negative, or whose bound
    2e-15 (|near| + |far|) exceeds DEFAULT_QUAD_TOL of it, is a ValueError."""
    if w_d is None:
        return _TWO_PI * w_a * F_a
    z = a + D1
    near, far = w_a * F_a, w_d * (F_a if z == a else _plate_kernel(z, T, _F)[_F])
    total = near + far
    if total < 0.0 and _KERNEL_ACCURACY * (abs(near) + abs(far)) <= DEFAULT_QUAD_TOL * -total:
        return _TWO_PI * total
    raise ValueError(f"imperfection depth D1={D1!r} is too thin against a={a!r}: the PFA terms "
                     f"cancel to worse than {DEFAULT_QUAD_TOL:g} relative accuracy")


def force_perfect_full(a: float, T: float, R: float, D: float | None = None) -> ForceResult:
    """``force(LensProfile.perfect(R, D), a, T, "full")``: the exact PFA force
    on a perfect lens of thickness D (default R, a hemisphere), by parts,
    or, for D below a tenth of a, where the by-parts terms cancel, by one
    21-point Kronrod panel: every D of the domain is served.
    """
    return force(LensProfile.perfect(R, D), a, T, ForceMethod.PERFECT_FULL)


def force_bubble(a: float, T: float, R: float, R1: float, D1: float) -> ForceResult:
    """Closed two-term PFA force for a lens with a central bubble: the
    raw-float adapter of ``force``'s closed branch, where R1 or D1 may be 0.

        F = 2 pi (R - R1) F_pp(a + D1, T) + 2 pi R1 F_pp(a, T)

    Degenerate limits: R1 = R or D1 = 0 reproduce the simplified perfect
    form (the bubble sphere takes over the whole cap, or has no depth).
    Like that form, it refuses a >= R and warns from a/R = 1e-2 on.
    """
    return _raw_closed_force(LensKind.BUBBLE, a, T, R, R1, D1)


def force_pit(a: float, T: float, R: float, R1: float, D1: float) -> ForceResult:
    """Closed two-term PFA force for a lens with a central pit: the
    raw-float adapter of ``force``'s closed branch, where R1 or D1 may be 0.

        F = 2 pi (R - R1) F_pp(a, T) + 2 pi R1 F_pp(a + D1, T)

    This is the tabulated form behind the pit benchmark curve
    (``ratio_line3``): it weights the pit cap by its deepest gap a + D1.
    It is *not* the surface integral of the pit profile, which is
    ``force(LensProfile.pit(R, R1, D1), a, T, "full")``, to leading order
    2 pi (R + R1) F_pp(a) - 2 pi R1 F_pp(a + D1): the area measure rho drho
    concentrates near the rim circle, where the gap is a.  Over a perfect
    lens the two deviate from 1 alike with opposite signs: on the Fig. 2 pit
    at a = 1, 2 and 3 um, 300 K, 1.6855, 1.5037 and 1.3728 against this
    form's 0.3145, 0.4963 and 0.6272.

    R1 = 0 (no pit) reproduces the simplified perfect form exactly; like
    that form, it refuses a >= R and warns from a/R = 1e-2 on.
    """
    return _raw_closed_force(LensKind.PIT, a, T, R, R1, D1)


def _spheres(profile: LensProfile, a: float) -> tuple:
    """The piece table: (R_i - h_hi, dh, g0, g1) for each spherical piece of
    the profile, the whole lens, or the cap or floor from its apex to the
    seam rho = r and then the lens beyond.

    On a piece of a sphere of radius R_i, rho drho = (R_i - h) dh with h the
    sagitta of that sphere, h runs over [h_hi - dh, h_hi], and the gap runs
    linearly in h from g0 to g1.  Every length here is a sum of non-negative
    lengths of the profile (a, D1, D - s with s the lens sagitta over the
    seam, R1 - D1 and R - D), so no gap and no R_i - h is a difference that
    cancels: a pit's floor reaches its rim gap a exactly, which a gap
    computed from rho cannot resolve once rho rounds to r.
    """
    R, D = profile.R, profile.D
    if profile.kind is LensKind.PERFECT:
        return ((R - D, D, a, a + D),)
    R1, D1 = profile.R1, profile.D1
    # A footprint that reaches the lens edge can leave a rise that rounds below 0.
    rise = max(D - _cap_height(R, _footprint_radius(profile)), 0.0)
    apex, seam = (a, a + D1) if profile.kind is LensKind.BUBBLE else (a + D1, a)
    return ((R1 - D1, D1, apex, seam), (R - D, rise, seam, seam + rise))


def _piece(lever: float, dh: float, g0: float, g1: float, T: float) -> tuple:
    """A piece of the ``_spheres`` table as an integrand over w in [0, 1],
    with its breakpoints.

    In w, 1/z runs linearly from 1/g0 to 1/g1: with den = (1 - w) g1 + w g0,

        z = g0 g1 / den,   R_i - h = (R_i - h_hi) + dh (1 - w) g1 / den,
        dh/dw = g0 g1 dh / den^2,

    so at T = 0, where P ~ z^-4, the integrand (R_i - h) P(z) dh/dw is a
    quadratic in w, which one 21-node panel integrates exactly.  Where the
    piece passes z_T, the gap at which tau = 2 pi and the kernel switches
    series, w_T is a breakpoint, and so is each gap of ``_Z_T_CUTS`` that
    the piece passes more than a decade above its smallest gap.  The
    breakpoint at gap z is w = g1 (z - g0) / (z (g1 - g0)).
    """

    # P_pp at each gap z <= a + D1 + D, which needs no domain check.
    def f(w: float, lever=lever, slope=dh * g1, g0=g0, g1=g1, g0g1=g0 * g1,
          jacobian=g0 * g1 * dh, T=T, kernel=_plate_kernel) -> float:
        u = 1.0 - w
        den = u * g1 + w * g0
        return (lever + slope * u / den) * kernel(g0g1 / den, T, _P)[_P] * jacobian / (den * den)

    if T == 0.0:
        return f, ()
    z_T = _Z_T_TIMES_T / T
    low, high = min(g0, g1), max(g0, g1)
    gaps = [share * z_T for share in _Z_T_CUTS if 10.0 * low < share * z_T < high]
    if low < z_T < high:
        gaps.append(z_T)
    # A set, as two cuts far above the smallest gap can round to one w.
    points = {g1 * (z - g0) / (z * (g1 - g0)) for z in gaps}
    return f, tuple(sorted(w for w in points if 0.0 < w < 1.0))


def force_general(
    profile: LensProfile,
    a: float,
    T: float,
    *,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ForceResult:
    """PFA force by direct quadrature over the actual surface profile.

    Integrates 2 pi rho P(z(rho)) from the symmetry axis to the lens edge
    by the adaptive Gauss-Kronrod rule of ``caslens.quadrature``, one
    ``integrate`` call per spherical piece: the whole lens, or the bubble's
    cap or the pit's floor and then the lens beyond the seam rho = r, so
    the seam's slope kink is always a piece boundary.  Each piece runs in
    a variable w in [0, 1] in which 1/z is linear (``_piece``): at T = 0
    the integrand is then a quadratic, and each piece one 21-node panel.
    At T > 0 a piece that passes the gap z_T where the kernel switches
    series is cut there, and at 0.5, 0.1 and 0.02 z_T where those lie more
    than a decade above its smallest gap: below z_T / 10 the thermal part
    of the integrand turns in a thin layer, which a single panel's error
    estimate misses.

    Each piece is held to ``quad_tol`` itself (``integrate`` raises it to
    MIN_REL_TOL).  Every piece integrand is <= 0, as R_i - h >= 0,
    dh/dw >= 0 and P_pp < 0, so the pieces' errors add up to at most
    ``quad_tol`` |F|; the summed estimate is then checked against that.
    At quad_tol = 1e-12 it matches ``force(profile, a, T, "full")``, the
    exact PFA, within 1e-10 relative (within 1e-12 from a/z_T = 1e-5 to 10
    on the lenses tested), and no profile that builds is known on which
    the two disagree or on which it raises QuadratureError.
    """
    _validate_point(a, T)
    check_finite("quad_tol", quad_tol, TOLERANCE)
    signed = achieved = 0.0
    for sphere in _spheres(profile, a):
        f, points = _piece(*sphere, T)
        value, error, _ = integrate(f, 0.0, 1.0, rel_tol=quad_tol, points=points)
        signed += value
        achieved += error
    signed *= _TWO_PI
    achieved *= _TWO_PI
    if signed != 0.0 and achieved > quad_tol * abs(signed):
        raise QuadratureError(
            f"PFA quadrature reached {achieved / abs(signed):.3e} relative "
            f"error, above the requested {quad_tol:.3e}"
        )
    return ForceResult(-signed, ForceMethod.GENERAL_QUADRATURE, a, T)


def force(
    profile: LensProfile,
    a: float,
    T: float,
    method: ForceMethod | str | None = None,
    *,
    tol: float | None = None,
) -> ForceResult:
    """Plate-lens force on ``profile`` at separation a and temperature T.

    ``method`` (a ForceMethod or its label) defaults to the closed form of
    the profile's kind.  ``quadrature`` and ``full`` serve every kind,
    ``simplified`` perfect lenses, and ``bubble`` and ``pit`` their own
    kind; any other pairing is a ValueError.  The profile's shape was
    checked when it was built, so each method checks only a and T (and
    ``quadrature`` its ``tol``; None keeps its default), and refuses a sum
    that does not attract through ``ForceResult``.
    """
    kind = profile.kind
    closed = _closed(kind, profile.R)[0]
    method = closed if method is None else ForceMethod(method)
    if method is ForceMethod.GENERAL_QUADRATURE:
        return force_general(profile, a, T, quad_tol=DEFAULT_QUAD_TOL if tol is None else tol)
    if method is not closed and method is not ForceMethod.PERFECT_FULL:
        raise ValueError(f"method {method.value!r} does not serve {kind.value} profiles")
    _validate_point(a, T)
    if method is closed:
        return _closed_force(kind, a, T, profile.R, profile.R1, profile.D1)
    # F_pp and E_pp at each distinct piece end, unchecked: a gap may exceed 1e5 m.
    kernel, by_parts, kronrod = {}, 0.0, 0.0
    for lever, dh, g0, g1 in _spheres(profile, a):
        if dh < _THIN * min(g0, g1):  # by parts, its terms would cancel
            kronrod += _kronrod21(_piece(lever, dh, g0, g1, T)[0], 0.0, 1.0)[0]
            continue
        for z in (g0, g1):
            if z not in kernel:
                kernel[z] = _plate_kernel(z, T, _E)
        (F0, _, E0, _, _), (F1, _, E1, _, _) = kernel[g0], kernel[g1]
        sign = math.copysign(1.0, g1 - g0)
        by_parts += sign * (lever + dh) * F0
        by_parts -= sign * lever * F1
        by_parts -= E0
        by_parts += E1
    signed = _TWO_PI * by_parts + _TWO_PI * kronrod
    return ForceResult(-signed, method, a, T)


def ratio_curve(profile: LensProfile, separations: Iterable[float], T: float) -> RatioCurve:
    """Force ratio imperfect lens / perfect lens over a separation grid.

    Both are ``force``'s default closed forms, the perfect lens the
    simplified form with the same R.  Each point reads F_pp(a) once for both,
    and F_pp(a + D1), and sums each form as ``force`` does: every ratio equals
    ``force(profile, a, T).value / force(perfect, a, T).value`` bit for bit.
    An empty grid gives an empty curve.
    """
    if profile.kind is LensKind.PERFECT:
        raise ValueError("ratio curves require a bubble or pit profile")
    R, D1 = profile.R, profile.D1
    method, w_a, w_d = _closed(profile.kind, R, profile.R1)
    _, w_p, _ = _closed(LensKind.PERFECT, R)  # the perfect lens's (2 pi w_p) F_pp(a)
    form = method.value
    grid = tuple(float(s) for s in separations)
    check_finite("temperature", T, TEMPERATURE)
    ratios = []
    for a in grid:
        check_finite("separation a", a, LENGTH)
        _applicability(a, R, form)  # refuses a >= R; a ratio carries no warning
        F_a = _plate_kernel(a, T, _F)[_F]
        ratios.append(_closed_sum(w_a, w_d, F_a, a, T, D1) / _closed_sum(w_p, None, F_a, a, T))
    return RatioCurve(separations=grid, ratios=tuple(ratios))
