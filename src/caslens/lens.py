"""Axisymmetric lens surface profiles and imperfection geometry.

A spherical lens of curvature radius R and thickness D faces a plane plate
at closest approach a.  Optional surface imperfections sit centered on the
point of closest approach:

* bubble: the central cap is replaced by a shallower/steeper spherical
  patch of radius R1 and depth D1 that bulges toward the plate;
* pit: a spherical hollow of radius R1 and depth D1 is carved out, so the
  closest approach moves to the rim circle of the hollow.

The imperfection footprint radius r and the sagitta d of the undisturbed
lens over that footprint follow from the chord relations

    r^2 = 2 R1 D1 - D1^2        d = r^2 / (2 R).
"""

from __future__ import annotations

import math
from enum import Enum

from .exceptions import LENGTH, TOLERANCE, DegenerateImperfectionError, _Record, check_finite

#: Optical-surface quality bounds on the imperfection footprint diameter 2r.
FOOTPRINT_DIAMETER_MIN = 30.0e-6
FOOTPRINT_DIAMETER_MAX = 1.2e-3

#: Default measurement tolerance on the lens curvature radius (0.05 cm);
#: an imperfection depth below it escapes mechanical characterization.
DEFAULT_CURVATURE_TOLERANCE = 5.0e-4

#: Imperfection depth must stay far below the curvature radius.
_MAX_DEPTH_FRACTION = 1.0e-3


class LensKind(Enum):
    PERFECT = "perfect"
    BUBBLE = "bubble"
    PIT = "pit"


class LensProfile(_Record):
    """Lens description: curvature radius R, thickness D, optional defect.

    D defaults to R (a hemisphere) in the factory methods, and D <= R.
    R1/D1 are the imperfection curvature radius and depth; both are None on
    perfect profiles.  A bubble or pit needs D1 < 2 R1, so that it has a
    footprint r = sqrt(2 R1 D1 - D1^2) (else DegenerateImperfectionError),
    r must fit inside the lens extent, and its cap is at most a hemisphere
    (D1 <= R1).  Every shape rule is checked here, once; no method that takes
    a profile checks its shape again.  ``kind`` must be a LensKind member.
    """

    __slots__ = ("kind", "R", "D", "R1", "D1")

    def __init__(self, kind: LensKind, R: float, D: float,
                 R1: float | None = None, D1: float | None = None) -> None:
        if not isinstance(kind, LensKind):
            raise ValueError(f"lens kind must be a LensKind, got {kind!r}")
        self._store(kind, R, D, R1, D1)
        check_finite("curvature radius R", R, LENGTH)
        check_finite("lens thickness D", D, LENGTH)
        # Beyond R the surface z(rho) is not single-valued, and the lens
        # extent is R, not sqrt(D (2R - D)).
        if D > R:
            raise ValueError(f"lens thickness D={D!r} exceeds R={R!r}")
        if kind is LensKind.PERFECT:
            if R1 is not None or D1 is not None:
                raise ValueError("perfect profiles carry no imperfection parameters")
            return
        if R1 is None or D1 is None:
            raise ValueError(f"{kind.value} profiles require R1 and D1")
        check_finite("imperfection radius R1", R1, LENGTH)
        check_finite("imperfection depth D1", D1, LENGTH)
        if D1 >= _MAX_DEPTH_FRACTION * R:
            raise ValueError(
                f"imperfection depth D1={D1!r} is not small against R={R!r}"
            )
        if kind is LensKind.PIT and R1 >= R:
            raise ValueError("a pit requires R1 < R")
        r = _footprint_radius(self)
        extent = lateral_extent(self)
        if not r <= extent:
            raise ValueError(f"footprint r={r!r} does not fit inside the lens extent {extent!r}")
        # A cap deeper than a hemisphere makes z(rho) multi-valued at the seam.
        if D1 > R1:
            raise ValueError(
                f"imperfection depth D1={D1!r} exceeds R1={R1!r}: "
                "the cap is deeper than a hemisphere"
            )

    @classmethod
    def perfect(cls, R: float, D: float | None = None) -> "LensProfile":
        return cls(LensKind.PERFECT, R, R if D is None else D)

    @classmethod
    def bubble(cls, R: float, R1: float, D1: float,
               D: float | None = None) -> "LensProfile":
        return cls(LensKind.BUBBLE, R, R if D is None else D, R1, D1)

    @classmethod
    def pit(cls, R: float, R1: float, D1: float,
            D: float | None = None) -> "LensProfile":
        return cls(LensKind.PIT, R, R if D is None else D, R1, D1)


class ImperfectionGeometry(_Record):
    """Derived defect geometry.

    r        footprint radius on the lens surface, m
    d        sagitta of the undisturbed lens over the footprint, m
    offset   bubble: |d - D1| residual flattening; pit: d + D1 total depth
    spec_ok  True when 2r falls inside the optical-quality window
    """

    __slots__ = ("r", "d", "offset", "spec_ok")

    def __init__(self, r: float, d: float, offset: float, spec_ok: bool) -> None:
        self._store(r, d, offset, spec_ok)


def _footprint_radius(profile: LensProfile) -> float:
    r_sq = 2.0 * profile.R1 * profile.D1 - profile.D1**2
    if r_sq <= 0.0:
        raise DegenerateImperfectionError(
            f"R1={profile.R1!r}, D1={profile.D1!r} give no footprint "
            "(requires D1 < 2 R1)"
        )
    return math.sqrt(r_sq)


def derive_geometry(profile: LensProfile) -> ImperfectionGeometry:
    """Footprint radius, sagitta and offset of a lens imperfection."""
    if profile.kind is LensKind.PERFECT:
        raise ValueError("a perfect profile has no imperfection geometry")
    r = _footprint_radius(profile)
    d = r * r / (2.0 * profile.R)
    if profile.kind is LensKind.BUBBLE:
        offset = abs(d - profile.D1)
    else:
        offset = d + profile.D1
    spec_ok = FOOTPRINT_DIAMETER_MIN <= 2.0 * r <= FOOTPRINT_DIAMETER_MAX
    return ImperfectionGeometry(r=r, d=d, offset=offset, spec_ok=spec_ok)


def lateral_extent(profile: LensProfile) -> float:
    """Radius of the lens footprint on the plate plane: sqrt(D (2R - D))."""
    return math.sqrt(profile.D * (2.0 * profile.R - profile.D))


def _cap_height(radius: float, rho: float) -> float:
    # Exact spherical sagitta radius - sqrt(radius^2 - rho^2), written in
    # the conjugate form that avoids cancellation for rho << radius.
    return rho * rho / (radius + math.sqrt(radius * radius - rho * rho))


class SpecCheck(_Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self._store(name, passed, detail)


class SpecReport(_Record):
    """Outcome of checking a profile against the optical/metrology limits."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[SpecCheck, ...]) -> None:
        self._store(checks)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def validate_spec(
    profile: LensProfile,
    curvature_tolerance: float = DEFAULT_CURVATURE_TOLERANCE,
) -> SpecReport:
    """Check an imperfection against the surface-quality window and against
    the curvature-radius measurement tolerance; perfect profiles pass
    vacuously."""
    check_finite("curvature_tolerance", curvature_tolerance, TOLERANCE)
    if profile.kind is LensKind.PERFECT:
        detail = "no imperfection present"
        return SpecReport(checks=(
            SpecCheck("footprint-diameter", True, detail),
            SpecCheck("depth-below-curvature-tolerance", True, detail),
        ))
    geometry = derive_geometry(profile)
    diameter = 2.0 * geometry.r
    footprint_detail = (
        f"2r = {diameter:.6e} m, allowed "
        f"[{FOOTPRINT_DIAMETER_MIN:.1e}, {FOOTPRINT_DIAMETER_MAX:.1e}] m"
    )
    depth_ok = profile.D1 < curvature_tolerance
    depth_detail = (
        f"D1 = {profile.D1:.6e} m, curvature tolerance {curvature_tolerance:.1e} m"
    )
    return SpecReport(checks=(
        SpecCheck("footprint-diameter", geometry.spec_ok, footprint_detail),
        SpecCheck("depth-below-curvature-tolerance", depth_ok, depth_detail),
    ))
