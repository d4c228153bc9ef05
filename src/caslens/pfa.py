"""Plate-lens Casimir force via the proximity force approximation (PFA).

The lens surface is sliced into annuli; each annulus at local separation
z(rho) contributes the parallel-plate pressure over its area:

    F(a, T) = 2 pi  integral_0^extent  rho P_pp(z(rho), T) drho.

For a perfect spherical lens the integral reduces exactly to

    F = 2 pi R F_pp(a, T) - 2 pi (R - D) F_pp(D + a, T)
        - 2 pi integral_a^(D+a) F_pp(z, T) dz,

whose last term is -2 pi (E_pp(a, T) - E_pp(D + a, T)) with E_pp the
antiderivative of F_pp from the plate kernel (``free_energy_integral_pp``),
and, because a << R, to the familiar simplified form F = 2 pi R F_pp(a, T).
Central bubbles and pits replace the cap inside the footprint radius by the
imperfection sphere, giving the two-term closed forms

    bubble:  F = 2 pi (R - R1) F_pp(a + D1, T) + 2 pi R1 F_pp(a, T)
    pit:     F = 2 pi (R - R1) F_pp(a, T)      + 2 pi R1 F_pp(a + D1, T).

``force`` is the entry point over a ``LensProfile``: it evaluates the closed
form for the profile's kind, or the method asked for.  ``ratio_curve``
evaluates F_pp once per distinct gap of each grid point (a and a + D1) and
shares the closed-form expressions with ``force``, so its ratios are the
same floats as the ratios of ``force`` results.

The simplified, bubble and pit forms drop terms of relative order
(a, d, D1)/R, i.e. around 1e-5 for micrometer separations and centimeter
lenses; ``full`` is exact within the PFA, and the general quadrature keeps
every term and is the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .exceptions import QuadratureError, check_finite
from .lens import LensKind, LensProfile, derive_geometry, height_function, lateral_extent
from .plates import free_energy_integral_pp, free_energy_pp, pressure_pp
from .quadrature import integrate

#: Default relative tolerance for the PFA quadrature.
DEFAULT_QUAD_TOL = 1.0e-9

#: Relative accuracy of each plate-kernel value (tested against mpmath).
_KERNEL_ACCURACY = 2.0e-15

#: a/R above which the simplified closed form carries an applicability note.
_SIMPLIFIED_RATIO_LIMIT = 1.0e-2


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
        check_finite("force magnitude", magnitude, strict=False)
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


@dataclass(frozen=True)
class RatioCurve:
    """Force ratio imperfect/perfect over a separation grid."""

    separations: tuple[float, ...]
    ratios: tuple[float, ...]
    profile: LensProfile

    def __post_init__(self) -> None:
        if len(self.separations) != len(self.ratios):
            raise ValueError("separations and ratios must have equal length")
        if not self.separations:
            raise ValueError("a ratio curve needs at least one separation")
        if any(not s > 0.0 for s in self.separations):
            raise ValueError("separations must be positive")
        if any(b <= prev for prev, b in zip(self.separations, self.separations[1:])):
            raise ValueError("separations must be strictly increasing")
        if any(not ratio > 0.0 for ratio in self.ratios):
            raise ValueError("force ratios must be strictly positive")


def _validate_point(a: float, T: float, R: float) -> None:
    check_finite("separation a", a)
    check_finite("temperature", T, strict=False)
    check_finite("curvature radius R", R)


def _simplified_value(R: float, F: float) -> float:
    """2 pi R F, the simplified perfect-lens form at F = F_pp(a)."""
    return 2.0 * math.pi * R * F


def _two_term_value(a: float, T: float, R: float, R1: float, D1: float,
                    pit: bool) -> tuple[float, float]:
    """The signed 2 pi ((R - R1) F_rim + R1 F_cap), and F_pp(a).

    A bubble's cap sits at gap a and its rim at a + D1; a pit swaps them.
    """
    near = free_energy_pp(a, T).value
    far = free_energy_pp(a + D1, T).value
    rim, cap = (near, far) if pit else (far, near)
    return 2.0 * math.pi * ((R - R1) * rim + R1 * cap), near


def force_perfect_simplified(a: float, T: float, R: float) -> ForceResult:
    """Leading PFA form for a perfect lens:  F = 2 pi R F_pp(a, T).

    Valid for a << R; when a/R creeps above 1e-2 the result carries an
    applicability warning (and a >= R is rejected outright).
    """
    _validate_point(a, T, R)
    if a >= R:
        raise ValueError(f"a={a!r} is not small against R={R!r}")
    warning = None
    if a >= _SIMPLIFIED_RATIO_LIMIT * R:
        warning = (
            f"a/R = {a / R:.3e} exceeds {_SIMPLIFIED_RATIO_LIMIT}; the "
            "simplified PFA form degrades at this separation"
        )
    signed = _simplified_value(R, free_energy_pp(a, T).value)
    return ForceResult(abs(signed), signed < 0.0, ForceMethod.PERFECT_SIMPLIFIED,
                       a, T, warning)


def force_perfect_full(a: float, T: float, R: float, D: float | None = None) -> ForceResult:
    """Exact PFA result for a perfect spherical lens of thickness D.

        F = 2 pi [R F_pp(a) - (R - D) F_pp(D + a) - E_pp(a) + E_pp(D + a)]

    where E_pp(z) = integral_z^inf F_pp dz' = -(pi^2 hbar c / (1440 z^2)) g(tau)
    (``free_energy_integral_pp``), so the separation integral of F_pp
    from a to D + a is E_pp(a) - E_pp(D + a) and no quadrature runs.  D
    defaults to R (hemisphere), where the middle term vanishes.

    For D << a the four terms t_i in the bracket nearly cancel.  Each
    kernel value is within 2e-15 of exact (relative), so the bracket is
    within 2e-15 sum |t_i| / |bracket| of exact; the result is served only
    when the bracket is negative and that bound is at most
    DEFAULT_QUAD_TOL (1e-9), and otherwise D is too thin and the call is a
    ValueError.  At a = 1 um, 300 K and R = 15 cm, D = 1e-11 m is served
    (bound 1.4e-10) and D = 1e-12 m is refused (bound 1.4e-9).
    """
    _validate_point(a, T, R)
    if D is None:
        D = R
    if not 0.0 < D <= 2.0 * R:
        raise ValueError(f"lens thickness D={D!r} must satisfy 0 < D <= 2R")
    near = R * free_energy_pp(a, T).value
    far = (R - D) * free_energy_pp(D + a, T).value
    e_near, e_far = free_energy_integral_pp(a, T), free_energy_integral_pp(D + a, T)
    bracket = near - far - e_near + e_far
    rounding = _KERNEL_ACCURACY * (abs(near) + abs(far) + abs(e_near) + abs(e_far))
    if not (bracket < 0.0 and rounding <= DEFAULT_QUAD_TOL * -bracket):
        raise ValueError(f"lens thickness D={D!r} is too thin against a={a!r}: "
                         f"the by-parts terms cancel to worse than {DEFAULT_QUAD_TOL:g} "
                         "relative accuracy")
    return ForceResult(-2.0 * math.pi * bracket, True, ForceMethod.PERFECT_FULL, a, T)


def _two_term(
    a: float, T: float, R: float, R1: float, D1: float, *, pit: bool
) -> ForceResult:
    """The bubble and pit closed forms, checked and as a ``ForceResult``."""
    _validate_point(a, T, R)
    check_finite("imperfection radius R1", R1, strict=False)
    check_finite("imperfection depth D1", D1, strict=False)
    signed, _ = _two_term_value(a, T, R, R1, D1, pit)
    method = ForceMethod.PIT if pit else ForceMethod.BUBBLE
    return ForceResult(abs(signed), signed < 0.0, method, a, T)


def force_bubble(a: float, T: float, R: float, R1: float, D1: float) -> ForceResult:
    """Closed two-term PFA force for a lens with a central bubble.

        F = 2 pi (R - R1) F_pp(a + D1, T) + 2 pi R1 F_pp(a, T)

    Degenerate limits: R1 = R or D1 = 0 reproduce the simplified perfect
    form (the bubble sphere takes over the whole cap, or has no depth).
    """
    return _two_term(a, T, R, R1, D1, pit=False)


def force_pit(a: float, T: float, R: float, R1: float, D1: float) -> ForceResult:
    """Closed two-term PFA force for a lens with a central pit.

        F = 2 pi (R - R1) F_pp(a, T) + 2 pi R1 F_pp(a + D1, T)

    This is the tabulated closed form behind the pit benchmark curve
    (``ratio_line3``): it assigns the pit cap's 2 pi R1 weight to the
    deepest gap a + D1 and the remaining 2 pi (R - R1) to the rim gap a.
    Note that it is *not* the surface integral of the pit height profile.
    Integrating ``profile_height`` exactly (see ``force_general``) gives

        2 pi (R + R1) F_pp(a, T) - 2 pi R1 F_pp(a + D1, T)

    to leading order in (a, D1)/R, because the area measure rho d(rho)
    concentrates near the rim circle where the gap equals a.  The two
    expressions differ at order R1/R for pits, while the bubble and
    perfect closed forms do agree with their profiles.

    R1 = 0 (no pit) reproduces the simplified perfect form exactly.
    """
    if R1 >= R:
        raise ValueError("a pit requires R1 < R")
    return _two_term(a, T, R, R1, D1, pit=True)


def force_general(
    profile: LensProfile,
    a: float,
    T: float,
    *,
    quad_tol: float = DEFAULT_QUAD_TOL,
    pressure_fn: Callable[[float], float] | None = None,
) -> ForceResult:
    """PFA force by direct quadrature over the actual surface profile.

    Integrates 2 pi rho P(z(rho)) from the symmetry axis to the lens edge
    by the adaptive Gauss-Kronrod rule of ``caslens.quadrature``, with a
    mandatory split on the imperfection seam rho = r (the profile has a
    slope kink there) and a log-space outer panel so the decades between
    the footprint scale and the lens edge stay cheap.

    Agreement with the closed forms: perfect profiles match the exact
    ``force_perfect_full`` to 1e-10 relative (at quad_tol = 1e-12), and
    bubble profiles match ``force_bubble`` to well inside 1e-3.  Pit
    profiles are different by design: this routine integrates the actual
    pit height profile, which is dominated by the rim circle at gap a,
    whereas ``force_pit`` is the tabulated closed form that weights the
    pit cap by its deepest gap a + D1.  The two results differ at order R1/R for pits (see the
    ``force_pit`` docstring for the leading-order forms).

    ``pressure_fn`` (z -> N/m^2) overrides the parallel-plate pressure
    kernel; it exists for testing.
    """
    _validate_point(a, T, profile.R)
    height = height_function(profile, a)  # rejects D > R: z(rho) is single-valued
    if pressure_fn is None:
        def pressure_fn(z: float, _T: float = T) -> float:
            return pressure_pp(z, _T)

    extent = lateral_extent(profile)
    if not extent > 0.0:
        raise ValueError(f"lens thickness D={profile.D!r} gives the lens no lateral "
                         "extent: D (2R - D) rounds to 0")
    if profile.kind is LensKind.PERFECT:
        split = min(math.sqrt(profile.R * a), 0.5 * extent)
    else:
        split = min(derive_geometry(profile).r, 0.5 * extent)

    def inner(rho: float) -> float:
        return rho * pressure_fn(height(rho))

    def outer(v: float) -> float:
        rho = min(math.exp(v), extent)
        return rho * rho * pressure_fn(height(rho))

    inner_value, inner_error, _ = integrate(inner, 0.0, split, rel_tol=0.1 * quad_tol)
    outer_value, outer_error, _ = integrate(outer, math.log(split), math.log(extent),
                                            rel_tol=0.1 * quad_tol)
    signed = 2.0 * math.pi * (inner_value + outer_value)
    achieved = 2.0 * math.pi * (inner_error + outer_error)
    if signed != 0.0 and achieved > quad_tol * abs(signed):
        raise QuadratureError(
            f"PFA quadrature reached {achieved / abs(signed):.3e} relative "
            f"error, above the requested {quad_tol:.3e}"
        )
    return ForceResult(abs(signed), signed < 0.0, ForceMethod.GENERAL_QUADRATURE, a, T)


#: Each method's profile kind (None: every kind) and its call on (profile,
#: a, T, quadrature keywords); the calls look the force_* names up when
#: they run.
_METHODS = {
    ForceMethod.GENERAL_QUADRATURE: (None, lambda p, a, T, q: (
        force_general(p, a, T, **q))),
    ForceMethod.PERFECT_FULL: (LensKind.PERFECT, lambda p, a, T, q: (
        force_perfect_full(a, T, p.R, p.D))),
    ForceMethod.PERFECT_SIMPLIFIED: (LensKind.PERFECT, lambda p, a, T, q: (
        force_perfect_simplified(a, T, p.R))),
    ForceMethod.BUBBLE: (LensKind.BUBBLE, lambda p, a, T, q: (
        force_bubble(a, T, p.R, p.R1, p.D1))),
    ForceMethod.PIT: (LensKind.PIT, lambda p, a, T, q: (
        force_pit(a, T, p.R, p.R1, p.D1))),
}

#: The call of each profile kind's closed form, the default of ``force``.
_CLOSED_FORMS = {LensKind.PERFECT: _METHODS[ForceMethod.PERFECT_SIMPLIFIED][1],
                 LensKind.BUBBLE: _METHODS[ForceMethod.BUBBLE][1],
                 LensKind.PIT: _METHODS[ForceMethod.PIT][1]}


def force(
    profile: LensProfile,
    a: float,
    T: float,
    method: ForceMethod | str | None = None,
    *,
    tol: float | None = None,
) -> ForceResult:
    """Plate-lens force on ``profile`` at separation a and temperature T.

    ``method`` (a ForceMethod or its label) defaults to the closed form for
    the profile's kind.  Quadrature serves every kind; ``full`` and
    ``simplified`` serve perfect lenses, ``bubble`` and ``pit`` their own
    kind, and any other pairing is a ValueError.  ``tol`` reaches only
    ``quadrature``; None keeps its default tolerance.
    """
    if method is None:
        return _CLOSED_FORMS[profile.kind](profile, a, T, {})
    method = ForceMethod(method)
    kind, formula = _METHODS[method]
    if kind is not None and kind is not profile.kind:
        raise ValueError(f"method {method.value!r} applies to {kind.value} profiles, "
                         f"not {profile.kind.value}")
    return formula(profile, a, T, {} if tol is None else {"quad_tol": tol})


def ratio_curve(profile: LensProfile, separations: Iterable[float], T: float) -> RatioCurve:
    """Force ratio imperfect lens / perfect lens over a separation grid.

    Both are ``force``'s default closed forms; the reference denominator is
    the simplified perfect form with the same curvature radius R.  Each
    point evaluates F_pp once per distinct gap, at a and a + D1, and shares
    the closed-form expressions with ``force``, so every ratio equals
    ``force(profile, a, T).value / force(perfect, a, T).value`` bit for bit.
    """
    if profile.kind is LensKind.PERFECT:
        raise ValueError("ratio curves are defined for imperfect profiles only")
    check_finite("temperature", T, strict=False)
    R, R1, D1 = profile.R, profile.R1, profile.D1
    pit = profile.kind is LensKind.PIT
    grid = tuple(float(s) for s in separations)
    ratios = []
    for a in grid:
        check_finite("separation a", a)
        if a >= R:
            raise ValueError(f"a={a!r} is not small against R={R!r}")
        imperfect, near = _two_term_value(a, T, R, R1, D1, pit)
        perfect = _simplified_value(R, near)
        check_finite("force magnitude", abs(imperfect), strict=False)
        check_finite("force magnitude", abs(perfect), strict=False)
        ratios.append(imperfect / perfect)
    return RatioCurve(separations=grid, ratios=tuple(ratios), profile=profile)
