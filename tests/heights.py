"""The gap between the plate and a lens profile, radius by radius.

``caslens.pfa`` builds the gap of each spherical piece from the profile's
lengths (``pfa._spheres``) and never evaluates it at a radius.  The tests
check those pieces, and the lens geometry itself, against this function.
"""

from __future__ import annotations

from collections.abc import Callable

from caslens.exceptions import LENGTH, check_finite
from caslens.lens import LensKind, LensProfile, _cap_height, _footprint_radius


def height_function(profile: LensProfile, a: float) -> Callable[[float], float]:
    """The separation rho -> z between the plate and the lens surface above
    radius rho, at closest approach a.

    The seam geometry is computed once, so the returned function can be
    called at many radii; it does not check that rho lies in
    [0, lateral_extent(profile)].  The profile's D <= R and
    D1 <= R1 keep z(rho) single-valued, and its footprint lies inside the
    lens.

    The imperfection region and the surrounding lens meet continuously on
    the seam circle rho = r; the lens-region offset uses the exact sagitta
    R - sqrt(R^2 - r^2) so the two branches agree there to round-off.
    """
    check_finite("closest approach a", a, LENGTH)
    R = profile.R
    if profile.kind is LensKind.PERFECT:
        return lambda rho: a + _cap_height(R, rho)
    r = _footprint_radius(profile)
    R1, D1 = profile.R1, profile.D1
    seam = _cap_height(R, r)
    if profile.kind is LensKind.BUBBLE:
        def bubble(rho: float) -> float:
            if rho <= r:
                return a + _cap_height(R1, rho)
            return a + D1 + _cap_height(R, rho) - seam

        return bubble

    # pit: the hollow floor for rho <= r, the undisturbed lens beyond;
    # closest approach a sits on the seam circle itself.
    def pit(rho: float) -> float:
        if rho <= r:
            return a + D1 - _cap_height(R1, rho)
        return a + _cap_height(R, rho) - seam

    return pit
