"""Plate-lens Casimir force via the proximity force approximation (PFA).

Each annulus of the lens at local separation z(rho) contributes the
parallel-plate pressure over its area:  F = 2 pi integral rho P_pp(z(rho)) drho.
Every profile here is piecewise spherical.  On a piece of radius R_i,
rho drho = (R_i - h) dh, so the integral goes by parts into F = F_pp(z, T)
and its antiderivative E = E_pp(z, T) (from ``plates._plate_kernel``) at the
ends of the pieces.  Every method but ``quadrature`` is then a term list,
2 pi sum c_i K(z_i) with K = F or E.  With r the footprint radius of a
bubble or pit and s = R - sqrt(R^2 - r^2) the lens sagitta over it:

    simplified     R F(a)
    bubble         (R - R1) F(a + D1) + R1 F(a)
    pit            (R - R1) F(a) + R1 F(a + D1)
    full, perfect  R F(a) - (R - D) F(a + D) - E(a) + E(a + D)
    full, bubble   R1 F(a) + (R - R1 + D1 - s) F(a + D1) - (R - D) F(z_e)
                   - E(a) + E(z_e),         z_e = a + D1 - s + D
    full, pit      (R + R1 - D1 - s) F(a) - R1 F(a + D1) - (R - D) F(z_e)
                   - E(a + D1) + E(z_e),    z_e = a - s + D

where z_e is the gap at the lens edge.  ``full`` is exact within the PFA
for every kind.  The simplified and bubble forms drop terms of order
(a, D1)/R, about 1e-5 for micrometer gaps and centimeter lenses; the pit
form is the tabulated one (see ``force_pit``).  ``quadrature``, which
integrates the height profile numerically, is the cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum

from .exceptions import (LENGTH, LENGTH_OR_ZERO, TEMPERATURE, TOLERANCE, QuadratureError,
                         _Record, check_finite)
from .lens import (LensKind, LensProfile, _cap_height, _footprint_radius, height_function,
                   lateral_extent)
from .plates import _plate_kernel
from .quadrature import MIN_REL_TOL, integrate

#: Default relative tolerance for the PFA quadrature, and the accuracy bound
#: every term-list sum must meet.
DEFAULT_QUAD_TOL = 1.0e-9

#: Relative accuracy of each plate-kernel value (tested against mpmath).
_KERNEL_ACCURACY = 2.0e-15

#: a/R above which a closed form carries an applicability note.
_CLOSED_FORM_RATIO_LIMIT = 1.0e-2

_TWO_PI = 2.0 * math.pi

#: Which kernel value a term takes: its index in the ``_plate_kernel`` tuple of its gap.
_F, _E = 0, 2



class ForceMethod(Enum):
    GENERAL_QUADRATURE = "quadrature"
    PERFECT_FULL = "full"
    PERFECT_SIMPLIFIED = "simplified"
    BUBBLE = "bubble"
    PIT = "pit"


class ForceResult:
    """Plate-lens force at one separation.

    The magnitude is reported positive with an explicit attraction flag;
    ``value`` gives the signed force (negative when attractive).  A plain
    record: fields compare equal field by field and are not frozen.
    """

    __slots__ = ("magnitude", "attractive", "method", "a", "T", "warning")

    def __init__(self, magnitude: float, attractive: bool, method: ForceMethod,
                 a: float, T: float, warning: str | None = None) -> None:
        if not 0.0 <= magnitude < math.inf:
            raise ValueError(f"force magnitude {magnitude!r} is negative or not finite")
        self.magnitude = magnitude
        self.attractive = attractive
        self.method = method
        self.a = a
        self.T = T
        self.warning = warning

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.magnitude, self.attractive, self.method, self.a, self.T, self.warning)
                == (other.magnitude, other.attractive, other.method, other.a, other.T,
                    other.warning))

    def __repr__(self) -> str:
        return (f"ForceResult(magnitude={self.magnitude!r}, attractive={self.attractive!r}, "
                f"method={self.method!r}, a={self.a!r}, T={self.T!r}, "
                f"warning={self.warning!r})")

    @property
    def value(self) -> float:
        return -self.magnitude if self.attractive else self.magnitude


class RatioCurve(_Record):
    """Force ratio imperfect/perfect over a separation grid, which may be empty."""

    __slots__ = ("separations", "ratios")

    def __init__(self, separations: tuple[float, ...], ratios: tuple[float, ...]) -> None:
        object.__setattr__(self, "separations", separations)
        object.__setattr__(self, "ratios", ratios)
        if len(separations) != len(ratios):
            raise ValueError("separations and ratios must have equal length")
        if any(not s > 0.0 for s in separations):
            raise ValueError("separations must be positive")
        if any(b <= prev for prev, b in zip(separations, separations[1:])):
            raise ValueError("separations must be strictly increasing")
        if any(not ratio > 0.0 for ratio in ratios):
            raise ValueError("force ratios must be strictly positive")


def _validate_point(a: float, T: float, R: float, R1: float = 0.0, D1: float = 0.0) -> None:
    check_finite("separation a", a, LENGTH)
    check_finite("temperature", T, TEMPERATURE)
    check_finite("curvature radius R", R, LENGTH)
    check_finite("imperfection radius R1", R1, LENGTH_OR_ZERO)
    check_finite("imperfection depth D1", D1, LENGTH_OR_ZERO)


def _applicability(a: float, R: float, form: str) -> str | None:
    """The closed forms' a/R rule: a >= R is refused, and a/R >= 1e-2 gives
    a warning naming ``form``, else None."""
    if a >= R:
        raise ValueError(f"a={a!r} is not small against R={R!r}")
    if a < _CLOSED_FORM_RATIO_LIMIT * R:
        return None
    return (f"a/R = {a / R:.3e} exceeds {_CLOSED_FORM_RATIO_LIMIT}; the {form} "
            "PFA form degrades at this separation")


def _closed(kind: LensKind, R: float, R1: float | None = 0.0, D1: float | None = 0.0) -> tuple:
    """The closed form of ``kind``: its ForceMethod, whose label names it, its term
    list and the (name, value) ``_sum`` refuses under; R1, D1 unread if perfect."""
    if kind is LensKind.PERFECT:
        return ForceMethod.PERFECT_SIMPLIFIED, ((R, _F, 0.0),), ("curvature radius R", R)
    rim, cap = (0.0, D1) if kind is LensKind.PIT else (D1, 0.0)
    return (ForceMethod(kind.value), ((R - R1, _F, rim), (R1, _F, cap)),
            ("imperfection depth D1", D1))


def _closed_force(kind: LensKind, a: float, T: float, R: float, R1: float = 0.0,
                  D1: float = 0.0) -> ForceResult:
    """``kind``'s closed form at (a, T): domain, pit R1 < R, a/R rule, sum, result."""
    _validate_point(a, T, R, R1, D1)
    if kind is LensKind.PIT and R1 >= R:
        raise ValueError("a pit requires R1 < R")
    method, terms, thin = _closed(kind, R, R1, D1)
    warning = _applicability(a, R, method.value)
    return ForceResult(-_sum(terms, T, a, thin), True, method, a, T, warning)


def _terms(kind: LensKind, R: float, R1: float, D1: float, D: float, s: float) -> tuple:
    """The term list ((c_i, _F or _E, z_i - a), ...) of ``full`` on ``kind``,
    with s the lens sagitta over a bubble or pit (0 on a perfect lens).
    F terms come before E terms; that order is the order of the sum, and so
    fixes its rounding."""
    if kind is LensKind.PERFECT:
        return ((R, _F, 0.0), (D - R, _F, D), (-1.0, _E, 0.0), (1.0, _E, D))
    if kind is LensKind.PIT:
        edge = D - s
        return ((R + R1 - D1 - s, _F, 0.0), (-R1, _F, D1), (D - R, _F, edge),
                (-1.0, _E, D1), (1.0, _E, edge))
    edge = D1 - s + D
    return ((R1, _F, 0.0), (R - R1 + D1 - s, _F, D1), (D - R, _F, edge),
            (-1.0, _E, 0.0), (1.0, _E, edge))


def _sum(terms: tuple, T: float, a: float, thin: tuple[str, float],
         kernel: dict | None = None) -> float:
    """The signed force 2 pi sum c_i K(a + offset_i) of a term list, with one
    kernel call per distinct gap, shared through ``kernel`` (gap ->
    ``_plate_kernel`` tuple) by lists at the same a, and no domain check: a
    gap may exceed 1e5 m.
    Each K is within 2e-15 of exact, so the sum is within 2e-15 sum |t_i|; a
    sum that is not negative, or whose bound exceeds DEFAULT_QUAD_TOL of it,
    is a ValueError naming ``thin``."""
    if kernel is None:
        kernel = {}
    total = bound = 0.0
    for c, k, offset in terms:
        z = a + offset
        values = kernel.get(z)
        if values is None:
            values = kernel[z] = _plate_kernel(z, T)
        term = c * values[k]
        total += term
        bound += abs(term)
    # One term keeps the rounding the simplified form always had, (2 pi R) F_pp(a).
    signed = _TWO_PI * total if len(terms) > 1 else _TWO_PI * c * values[k]
    if not (total < 0.0 and _KERNEL_ACCURACY * bound <= DEFAULT_QUAD_TOL * -total):
        name, value = thin
        raise ValueError(f"{name}={value!r} is too thin against a={a!r}: the PFA terms "
                         f"cancel to worse than {DEFAULT_QUAD_TOL:g} relative accuracy")
    return signed


def force_perfect_full(a: float, T: float, R: float, D: float | None = None) -> ForceResult:
    """``force(LensProfile.perfect(R, D), a, T, "full")``: the exact PFA force
    on a perfect lens of thickness D (default R, a hemisphere), by parts.
    For D << a the terms cancel, and a D too thin for the 1e-9 bound is
    refused: at a = 1 um, 300 K and R = 15 cm, D = 1e-11 m is served and
    D = 1e-12 m is not.
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
    return _closed_force(LensKind.BUBBLE, a, T, R, R1, D1)


def force_pit(a: float, T: float, R: float, R1: float, D1: float) -> ForceResult:
    """Closed two-term PFA force for a lens with a central pit: the
    raw-float adapter of ``force``'s closed branch, where R1 or D1 may be 0.

        F = 2 pi (R - R1) F_pp(a, T) + 2 pi R1 F_pp(a + D1, T)

    This is the tabulated form behind the pit benchmark curve
    (``ratio_line3``): it weights the pit cap by its deepest gap a + D1.
    It is *not* the surface integral of the pit profile, which is
    ``force(LensProfile.pit(R, R1, D1), a, T, "full")``, to leading order
    2 pi (R + R1) F_pp(a) - 2 pi R1 F_pp(a + D1): the area measure rho drho
    concentrates near the rim circle, where the gap is a.

    R1 = 0 (no pit) reproduces the simplified perfect form exactly; like
    that form, it refuses a >= R and warns from a/R = 1e-2 on.
    """
    return _closed_force(LensKind.PIT, a, T, R, R1, D1)


def force_general(
    profile: LensProfile,
    a: float,
    T: float,
    *,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ForceResult:
    """PFA force by direct quadrature over the actual surface profile.

    Integrates 2 pi rho P(z(rho)) from the symmetry axis to the lens edge
    by the adaptive Gauss-Kronrod rule of ``caslens.quadrature``, with a
    mandatory split on the imperfection seam rho = r (the profile has a
    slope kink there) and a log-space outer panel so the decades between
    the footprint scale and the lens edge stay cheap.

    At quad_tol = 1e-12 it matches ``force(profile, a, T, "full")``, the
    exact PFA by parts, within 1e-10 relative on every profile kind.
    """
    _validate_point(a, T, profile.R)
    check_finite("quad_tol", quad_tol, TOLERANCE)
    panel_tol = max(0.1 * quad_tol, MIN_REL_TOL)  # a tenth each; 0.1 * 5e-324 is 0
    height = height_function(profile, a)  # single-valued, as every profile has D <= R
    extent = lateral_extent(profile)  # >= sqrt(D R) >= 1e-12 m, as D <= R
    if profile.kind is LensKind.PERFECT:
        split = min(math.sqrt(profile.R * a), 0.5 * extent)
    else:
        split = min(_footprint_radius(profile), 0.5 * extent)

    # P_pp at each gap z <= a + D1 + D, which needs no domain check.
    def inner(rho: float) -> float:
        return rho * _plate_kernel(height(rho), T)[1]

    def outer(v: float) -> float:
        rho = min(math.exp(v), extent)
        return rho * rho * _plate_kernel(height(rho), T)[1]

    inner_value, inner_error, _ = integrate(inner, 0.0, split, rel_tol=panel_tol)
    outer_value, outer_error, _ = integrate(outer, math.log(split), math.log(extent),
                                            rel_tol=panel_tol)
    signed = 2.0 * math.pi * (inner_value + outer_value)
    achieved = 2.0 * math.pi * (inner_error + outer_error)
    if signed != 0.0 and achieved > quad_tol * abs(signed):
        raise QuadratureError(
            f"PFA quadrature reached {achieved / abs(signed):.3e} relative "
            f"error, above the requested {quad_tol:.3e}"
        )
    return ForceResult(abs(signed), signed < 0.0, ForceMethod.GENERAL_QUADRATURE, a, T)


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
    checked when it was built, so no method refuses it for its shape.
    ``tol`` reaches only ``quadrature``; None keeps its default.
    """
    kind, R, D, R1, D1 = profile.kind, profile.R, profile.D, profile.R1, profile.D1
    perfect = kind is LensKind.PERFECT
    closed = _closed(kind, R, R1, D1)[0]
    method = closed if method is None else ForceMethod(method)
    if method is ForceMethod.GENERAL_QUADRATURE:
        return force_general(profile, a, T, quad_tol=DEFAULT_QUAD_TOL if tol is None else tol)
    if method is ForceMethod.PERFECT_FULL:
        _validate_point(a, T, R)
        r = 0.0 if perfect else _footprint_radius(profile)  # a perfect lens: no footprint
        terms = _terms(kind, R, R1, D1, D, _cap_height(R, r))
        return ForceResult(-_sum(terms, T, a, ("lens thickness D", D)), True, method, a, T)
    if method is not closed:
        raise ValueError(f"method {method.value!r} does not serve {kind.value} profiles")
    if perfect:
        return _closed_force(kind, a, T, R)
    # By their module names, which the benchmark's tracer counts closed forces by.
    return (force_pit if kind is LensKind.PIT else force_bubble)(a, T, R, R1, D1)


def ratio_curve(profile: LensProfile, separations: Iterable[float], T: float) -> RatioCurve:
    """Force ratio imperfect lens / perfect lens over a separation grid.

    Both are ``force``'s default closed forms, the perfect lens the
    simplified form with the same R.  Their term lists are built once, and
    each point costs one kernel call per distinct gap (a and a + D1); every
    ratio equals ``force(profile, a, T).value / force(perfect, a, T).value``
    bit for bit.  An empty grid gives an empty curve.
    """
    if profile.kind is LensKind.PERFECT:
        raise ValueError("ratio curves require a bubble or pit profile")
    R = profile.R
    method, imperfect_terms, depth = _closed(profile.kind, R, profile.R1, profile.D1)
    _, perfect_terms, radius = _closed(LensKind.PERFECT, R)
    form = method.value
    grid = tuple(float(s) for s in separations)
    check_finite("temperature", T, TEMPERATURE)
    ratios = []
    for a in grid:
        check_finite("separation a", a, LENGTH)
        _applicability(a, R, form)  # refuses a >= R; a ratio carries no warning
        kernel: dict = {}
        imperfect = _sum(imperfect_terms, T, a, depth, kernel)
        ratios.append(imperfect / _sum(perfect_terms, T, a, radius, kernel))
    return RatioCurve(separations=grid, ratios=tuple(ratios))
