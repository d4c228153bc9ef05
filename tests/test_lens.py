"""Lens surface profiles, imperfection geometry and optical-limit checks."""

import math
import re
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from caslens import (
    DegenerateImperfectionError,
    LensKind,
    LensProfile,
    derive_geometry,
    lateral_extent,
    validate_spec,
)
from caslens.lens import height_function

BENCHMARK_R = 0.15

BUBBLE_WIDE = LensProfile.bubble(R=BENCHMARK_R, R1=0.25, D1=0.5e-6)
BUBBLE_NARROW = LensProfile.bubble(R=BENCHMARK_R, R1=0.05, D1=1.0e-6)
PIT_CASE = LensProfile.pit(R=BENCHMARK_R, R1=0.12, D1=1.0e-6)


def random_profile(rng):
    """A random valid bubble or pit on a random lens."""
    R = rng.uniform(0.03, 0.5)
    D1 = rng.uniform(1.0e-8, 0.9e-3 * R)
    if rng.random() < 0.5:
        R1 = rng.uniform(0.2 * R, 3.0 * R)
        return LensProfile.bubble(R=R, R1=R1, D1=D1)
    R1 = rng.uniform(0.2 * R, 0.95 * R)
    return LensProfile.pit(R=R, R1=R1, D1=D1)


def test_worked_example_wide_bubble():
    geometry = derive_geometry(BUBBLE_WIDE)
    assert_allclose(2.0 * geometry.r, 1.0e-3, atol=0.05e-3)
    assert_allclose(geometry.d, 0.83e-6, atol=0.005e-6)
    assert_allclose(geometry.offset, 0.33e-6, atol=0.005e-6)
    assert geometry.spec_ok


def test_worked_example_narrow_bubble():
    geometry = derive_geometry(BUBBLE_NARROW)
    assert_allclose(geometry.r, 0.32e-3, atol=0.005e-3)
    assert_allclose(geometry.d, 0.33e-6, atol=0.005e-6)
    assert_allclose(geometry.offset, 0.67e-6, atol=0.005e-6)
    assert geometry.spec_ok


def test_worked_example_pit():
    geometry = derive_geometry(PIT_CASE)
    assert_allclose(geometry.r, 0.49e-3, atol=0.005e-3)
    assert_allclose(geometry.d, 0.8e-6, atol=0.05e-6)
    assert_allclose(geometry.offset, 1.8e-6, atol=0.05e-6)
    assert geometry.spec_ok


def test_geometry_literal_relations():
    rng = np.random.default_rng(7)
    for _ in range(50):
        profile = random_profile(rng)
        geometry = derive_geometry(profile)
        assert_allclose(geometry.r**2,
                        2.0 * profile.R1 * profile.D1 - profile.D1**2,
                        rtol=1.0e-12)
        assert_allclose(geometry.d, geometry.r**2 / (2.0 * profile.R),
                        rtol=1.0e-12)
        if profile.kind is LensKind.BUBBLE:
            assert_allclose(geometry.offset, abs(geometry.d - profile.D1),
                            rtol=1.0e-12, atol=0.0)
        else:
            assert_allclose(geometry.offset, geometry.d + profile.D1,
                            rtol=1.0e-12)


def test_derive_geometry_rejects_perfect():
    with pytest.raises(ValueError):
        derive_geometry(LensProfile.perfect(R=0.15))


def test_degenerate_imperfection_rejected():
    with pytest.raises(DegenerateImperfectionError):
        LensProfile.bubble(R=0.1, R1=2.0e-5, D1=5.0e-5)


@pytest.mark.parametrize("build", [
    pytest.param(LensProfile.perfect, id="perfect"),
    pytest.param(partial(LensProfile.bubble, R1=0.25, D1=0.5e-6), id="bubble"),
    pytest.param(partial(LensProfile.pit, R1=0.12, D1=1.0e-6), id="pit"),
])
def test_every_constructor_serves_d_equal_to_r_and_refuses_the_next_float(build):
    assert build(R=BENCHMARK_R, D=BENCHMARK_R).D == BENCHMARK_R
    beyond = math.nextafter(BENCHMARK_R, math.inf)
    with pytest.raises(ValueError, match=re.escape(f"lens thickness D={beyond!r} exceeds R=0.15")):
        build(R=BENCHMARK_R, D=beyond)


@pytest.mark.parametrize("build", [LensProfile.bubble, LensProfile.pit])
@pytest.mark.parametrize("D1", [2.0e-6, 3.0e-6])  # D1 = 2 R1 and beyond it
def test_a_footprintless_bubble_or_pit_is_refused_when_built(build, D1):
    with pytest.raises(DegenerateImperfectionError, match="give no footprint"):
        build(R=BENCHMARK_R, R1=1.0e-6, D1=D1)


@pytest.mark.parametrize("build", [LensProfile.bubble, LensProfile.pit])
def test_every_cap_constructor_serves_a_hemisphere_and_refuses_the_next_float(build):
    R1 = 1.0e-6
    assert build(R=BENCHMARK_R, R1=R1, D1=R1).D1 == R1
    beyond = math.nextafter(R1, math.inf)
    with pytest.raises(ValueError, match=re.escape(f"imperfection depth D1={beyond!r} "
                                                   f"exceeds R1={R1!r}")):
        build(R=BENCHMARK_R, R1=R1, D1=beyond)


def test_height_at_axis_and_seam():
    a = 1.0e-6
    assert height_function(LensProfile.perfect(R=0.15), a)(0.0) == a
    assert height_function(BUBBLE_WIDE, a)(0.0) == a
    r = derive_geometry(PIT_CASE).r
    assert_allclose(height_function(PIT_CASE, a)(r), a, rtol=1.0e-12)
    assert_allclose(height_function(PIT_CASE, a)(0.0), a + PIT_CASE.D1,
                    rtol=1.0e-12)
    r_bubble = derive_geometry(BUBBLE_WIDE).r
    assert_allclose(height_function(BUBBLE_WIDE, a)(r_bubble),
                    a + BUBBLE_WIDE.D1, rtol=1.0e-12)


def test_seam_continuity_over_random_profiles():
    rng = np.random.default_rng(2024)
    a = 1.0e-6
    for _ in range(100):
        profile = random_profile(rng)
        r = derive_geometry(profile).r
        inner = height_function(profile, a)(r)
        outer = height_function(profile, a)(np.nextafter(r, np.inf))
        assert abs(outer - inner) / inner < 1.0e-9


def test_minimum_height_location():
    a = 1.0e-6
    r = derive_geometry(PIT_CASE).r
    grid = np.concatenate([np.linspace(0.0, lateral_extent(PIT_CASE), 2001), [r]])
    heights = np.array([height_function(PIT_CASE, a)(rho) for rho in grid])
    assert heights.min() >= a * (1.0 - 1.0e-12)
    assert grid[np.argmin(heights)] == pytest.approx(r, rel=1.0e-3)

    for profile in (LensProfile.perfect(R=0.15), BUBBLE_WIDE, BUBBLE_NARROW):
        grid = np.linspace(0.0, lateral_extent(profile), 2001)
        heights = np.array([height_function(profile, a)(rho) for rho in grid])
        assert heights.min() == heights[0] == a


def test_bubble_with_matching_radius_degenerates_to_perfect():
    R = 0.15
    bubble = LensProfile.bubble(R=R, R1=R, D1=1.0e-6)
    perfect = LensProfile.perfect(R=R)
    a = 1.0e-6
    for rho in np.linspace(0.0, lateral_extent(perfect), 50):
        assert_allclose(height_function(bubble, a)(rho),
                        height_function(perfect, a)(rho), rtol=1.0e-12)


def test_height_grows_monotonically_outward():
    a = 1.0e-6
    for profile in (LensProfile.perfect(R=0.15), BUBBLE_WIDE, BUBBLE_NARROW):
        grid = np.linspace(0.0, lateral_extent(profile), 500)
        heights = np.array([height_function(profile, a)(rho) for rho in grid])
        assert np.all(np.diff(heights) > 0.0)


def test_height_domain_errors():
    profile = LensProfile.perfect(R=0.15)
    with pytest.raises(ValueError):
        height_function(profile, 0.0)
    with pytest.raises(ValueError):   # tall: refused when built, before height_function
        LensProfile.perfect(R=0.15, D=0.25)


def test_lateral_extent():
    assert lateral_extent(LensProfile.perfect(R=0.15)) == pytest.approx(0.15)
    thin = LensProfile.perfect(R=0.15, D=0.01)
    assert lateral_extent(thin) == pytest.approx(math.sqrt(0.01 * (0.3 - 0.01)))


def test_profile_validation():
    with pytest.raises(ValueError):
        LensProfile.perfect(R=0.0)
    with pytest.raises(ValueError):
        LensProfile.perfect(R=0.15, D=0.31)     # beyond R, and the full sphere
    with pytest.raises(ValueError):
        LensProfile.perfect(R=0.15, D=0.0)
    with pytest.raises(ValueError):
        LensProfile(LensKind.BUBBLE, R=0.15, D=0.15)        # missing R1/D1
    with pytest.raises(ValueError):
        LensProfile(LensKind.PERFECT, R=0.15, D=0.15, R1=0.1, D1=1e-6)
    with pytest.raises(ValueError):
        LensProfile.bubble(R=0.15, R1=0.25, D1=2.0e-4)      # D1 not << R
    with pytest.raises(ValueError):
        LensProfile.pit(R=0.15, R1=0.15, D1=1.0e-6)         # pit needs R1 < R
    with pytest.raises(ValueError):
        LensProfile.bubble(R=0.15, R1=-0.25, D1=0.5e-6)
    # a bubble may be flatter or sharper than the lens
    LensProfile.bubble(R=0.15, R1=0.25, D1=0.5e-6)
    LensProfile.bubble(R=0.15, R1=0.05, D1=1.0e-6)


@pytest.mark.parametrize("args", [
    ("perfect", 0.15, 0.15),
    ("bubble", 0.15, 0.15, 0.25, 0.5e-6),
    ("pit", 0.15, 0.15, 0.2, 1.0e-6),       # the factory refuses it: R1 >= R
    (None, 0.15, 0.15),
], ids=["perfect", "bubble", "pit", "None"])
def test_a_kind_that_is_not_a_lens_kind_is_refused(args):
    with pytest.raises(ValueError, match=re.escape(repr(args[0]))):
        LensProfile(*args)


def test_the_factories_build_their_kind():
    assert LensProfile.perfect(0.15).kind is LensKind.PERFECT
    assert LensProfile.bubble(0.15, 0.25, 0.5e-6).kind is LensKind.BUBBLE
    assert LensProfile.pit(0.15, 0.12, 1.0e-6).kind is LensKind.PIT


def test_validate_spec_passes_benchmark_cases():
    for profile in (BUBBLE_WIDE, BUBBLE_NARROW, PIT_CASE):
        report = validate_spec(profile)
        assert report.all_passed, [c for c in report.checks if not c.passed]


def test_validate_spec_flags_footprint_violations():
    tiny = LensProfile.bubble(R=0.15, R1=0.001, D1=5.0e-8)  # 2r ~ 20 um
    report = validate_spec(tiny)
    failed = {c.name for c in report.checks if not c.passed}
    assert "footprint-diameter" in failed
    assert not report.all_passed

    wide = LensProfile.bubble(R=10.0, R1=9.0, D1=1.0e-4)    # 2r ~ 85 mm
    report = validate_spec(wide)
    failed = {c.name for c in report.checks if not c.passed}
    assert "footprint-diameter" in failed


def test_validate_spec_flags_depth_beyond_tolerance():
    profile = LensProfile.bubble(R=0.15, R1=0.25, D1=0.5e-6)
    report = validate_spec(profile, curvature_tolerance=0.4e-6)
    failed = {c.name for c in report.checks if not c.passed}
    assert "depth-below-curvature-tolerance" in failed


def test_validate_spec_perfect_is_vacuous():
    report = validate_spec(LensProfile.perfect(R=0.15))
    assert report.all_passed
