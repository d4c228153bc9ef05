"""Plate-lens forces: closed forms, direct quadrature and ratio curves."""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from caslens import pfa
from caslens import (
    ForceMethod,
    ForceResult,
    LensKind,
    LensProfile,
    RatioCurve,
    derive_geometry,
    force,
    force_bubble,
    force_general,
    force_perfect_full,
    force_pit,
    free_energy_pp,
    lateral_extent,
    ratio_curve,
    validate_spec,
)
from caslens.exceptions import QuadratureError
from caslens.lens import FOOTPRINT_DIAMETER_MAX, FOOTPRINT_DIAMETER_MIN
from caslens.quadrature import integrate

R_BENCH = 0.15
T_BENCH = 300.0

BUBBLE_WIDE = LensProfile.bubble(R=R_BENCH, R1=0.25, D1=0.5e-6)
BUBBLE_NARROW = LensProfile.bubble(R=R_BENCH, R1=0.05, D1=1.0e-6)
PIT_CASE = LensProfile.pit(R=R_BENCH, R1=0.12, D1=1.0e-6)

# Benchmark ratio tables at a = 1.0, 1.5, 2.0, 2.5, 3.0 um and T = 300 K.
BENCH_SEPARATIONS = (1.0e-6, 1.5e-6, 2.0e-6, 2.5e-6, 3.0e-6)
BENCH_LINE1 = (1.458, 1.361, 1.287, 1.233, 1.193)
BENCH_LINE2 = (0.429, 0.507, 0.580, 0.641, 0.689)
BENCH_LINE3 = (0.314, 0.409, 0.496, 0.570, 0.627)


@pytest.fixture
def kernel_gaps(monkeypatch):
    """The gaps at which pfa calls the plate kernel, in call order."""
    kernel, gaps = pfa._plate_kernel, []

    def counted(z, T):
        gaps.append(z)
        return kernel(z, T)

    monkeypatch.setattr(pfa, "_plate_kernel", counted)
    return gaps


def test_simplified_form_is_two_pi_r_times_plate_energy():
    a = 1.0e-6
    result = force(LensProfile.perfect(R_BENCH), a, T_BENCH)
    expected = 2.0 * math.pi * R_BENCH * free_energy_pp(a, T_BENCH).value
    assert_allclose(result.value, expected, rtol=1.0e-15)
    assert result.attractive
    assert result.magnitude > 0.0
    assert result.value < 0.0
    assert result.method is ForceMethod.PERFECT_SIMPLIFIED
    assert result.warning is None


@pytest.mark.parametrize("form, closed", [
    pytest.param("simplified", lambda a: force(LensProfile.perfect(R_BENCH), a, T_BENCH),
                 id="simplified"),
    pytest.param("bubble", lambda a: force_bubble(a, T_BENCH, R_BENCH, 0.25, 0.5e-6), id="bubble"),
    pytest.param("pit", lambda a: force_pit(a, T_BENCH, R_BENCH, 0.12, 1.0e-6), id="pit"),
])
def test_simplified_form_applicability_guard(form, closed):
    # Every closed form drops terms of order a/R: a >= R is refused, and
    # a/R >= 1e-2 carries a warning naming the form.
    with pytest.raises(ValueError, match=r"a=0.2 is not small against R=0.15"):
        closed(0.2)
    flagged = closed(2.0e-3)
    assert flagged.warning is not None
    assert f"the {form} PFA form degrades" in flagged.warning
    assert closed(1.0e-3).warning is None


def test_full_form_differs_from_simplified_at_order_a_over_r():
    for a in (1.0e-6, 2.0e-6, 3.0e-6):
        simplified = force(LensProfile.perfect(R_BENCH), a, T_BENCH).value
        full = force_perfect_full(a, T_BENCH, R_BENCH).value
        rel = abs(simplified / full - 1.0)
        assert 0.1 * a / R_BENCH < rel < 10.0 * a / R_BENCH


def test_full_form_thickness_validation():
    with pytest.raises(ValueError):
        force_perfect_full(1.0e-6, T_BENCH, R_BENCH, D=0.0)
    with pytest.raises(ValueError):
        force_perfect_full(1.0e-6, T_BENCH, R_BENCH, D=0.31)


def test_full_form_refuses_a_thickness_whose_terms_cancel():
    # D + a would round to a, making R F_pp(a) - (R - D) F_pp(a + D) exactly
    # 0; D = 1e-300 m lies outside the domain, which is checked first.
    with pytest.raises(ValueError, match=r"lens thickness D=1e-300 lies outside the served "
                                         r"range \[1e-12, 1e5\] m"):
        force_perfect_full(1.0e-6, T_BENCH, R_BENCH, 1.0e-300)
    # Inside the domain a + D still rounds to a at a = 1e5 m and D = 1e-12 m.
    with pytest.raises(ValueError, match=r"D=1e-12 is too thin .*cancel"):
        force_perfect_full(1.0e5, T_BENCH, 1.0e5, 1.0e-12)


@pytest.mark.parametrize("D, refusal", [
    pytest.param(1.0e-12, "is too thin .*1e-09", id="1e-12"),
    pytest.param(1.0e-16, r"lies outside the served range \[1e-12, 1e5\] m", id="1e-16"),
    pytest.param(1.0e-20, r"lies outside the served range \[1e-12, 1e5\] m", id="1e-20"),
])
def test_full_form_refuses_a_thickness_beyond_its_accuracy_bound(D, refusal):
    # 2e-15 sum |t_i| / |bracket| exceeds 1e-9 (6.8e5 x 2e-15 at 1e-12 m);
    # at 1e-16 and 1e-20 m, which the domain check refuses first, the value
    # would be 2.8e-7 and 1.4e-2 off.
    with pytest.raises(ValueError, match=f"D={D!r} {refusal}"):
        force_perfect_full(1.0e-6, T_BENCH, R_BENCH, D)


@pytest.mark.parametrize("D", [1.0e-11, 1.0e-9])
def test_full_form_serves_a_thin_lens_within_its_bound(D):
    full = force_perfect_full(1.0e-6, T_BENCH, R_BENCH, D).value
    quadrature = force_general(LensProfile.perfect(R_BENCH, D), 1.0e-6, T_BENCH,
                               quad_tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-9


def test_quadrature_matches_full_form_on_perfect_profile():
    profile = LensProfile.perfect(R=R_BENCH)
    for a in (1.0e-6, 2.0e-6, 3.0e-6):
        quadrature = force_general(profile, a, T_BENCH).value
        full = force_perfect_full(a, T_BENCH, R_BENCH).value
        assert abs(quadrature / full - 1.0) < 1.0e-6


@settings(max_examples=100, deadline=None)
@given(
    R=st.floats(min_value=0.01, max_value=1.0),
    thickness=st.floats(min_value=1.0e-4, max_value=1.0),
    a=st.floats(min_value=0.1e-6, max_value=10.0e-6),
    T=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1000.0)),
)
def test_full_form_by_parts_matches_quadrature(R, thickness, a, T):
    # D = thickness * R >= 1 um keeps a/D <= 10: the form's rounding error
    # grows as a/D, since R F_pp(a) and (R - D) F_pp(a + D) cancel as D -> 0.
    profile = LensProfile.perfect(R, thickness * R)
    full = force(profile, a, T, "full").value
    quadrature = force_general(profile, a, T, quad_tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-10


def test_quadrature_matches_bubble_closed_form():
    quadrature = force_general(BUBBLE_WIDE, 1.0e-6, T_BENCH).value
    closed = force_bubble(1.0e-6, T_BENCH, R_BENCH, 0.25, 0.5e-6).value
    assert abs(quadrature / closed - 1.0) < 1.0e-4


def test_quadrature_integrates_the_pit_profile_faithfully():
    # Integrating the pit height profile by parts gives, to leading order
    # in (a, D1)/R,
    #     F = 2 pi (R + R1) F_pp(a) - 2 pi R1 F_pp(a + D1)
    # (the rim circle at gap a dominates the area measure).  This differs
    # from the tabulated closed form of force_pit at order R1/R; the
    # quadrature must follow the profile, not the table.
    R1, D1 = 0.12, 1.0e-6
    for a in (1.0e-6, 2.0e-6, 3.0e-6):
        quadrature = force_general(PIT_CASE, a, T_BENCH).value
        near = free_energy_pp(a, T_BENCH).value
        far = free_energy_pp(a + D1, T_BENCH).value
        by_parts = 2.0 * math.pi * ((R_BENCH + R1) * near - R1 * far)
        assert abs(quadrature / by_parts - 1.0) < 1.0e-4
        tabulated = force_pit(a, T_BENCH, R_BENCH, R1, D1).value
        assert abs(quadrature / tabulated - 1.0) > 1.0


def test_quadrature_with_injected_constant_kernel(monkeypatch):
    # With P(z) = -1 the surface integral collapses to the projected area.
    monkeypatch.setattr("caslens.pfa._plate_kernel",
                        lambda z, T: (math.nan, -1.0, math.nan, math.nan, 0))
    profile = LensProfile.perfect(R=R_BENCH)
    result = force_general(profile, 1.0e-6, T_BENCH)
    expected = -math.pi * lateral_extent(profile) ** 2
    assert_allclose(result.value, expected, rtol=1.0e-9)


MICRO_PIT = LensProfile.pit(1.0, 1.0e-6, 1.0e-6)


@pytest.mark.parametrize("a, magnitude", [(1.0e-12, 2.723e9), (1.0e-10, 2.723e3)])
def test_full_serves_the_micro_pit_at_the_smallest_gaps(a, magnitude):
    result = force(MICRO_PIT, a, 300.0, "full")
    assert math.isfinite(result.magnitude) and result.attractive
    assert_allclose(result.magnitude, magnitude, rtol=1.0e-3)


def test_quadrature_matches_full_on_the_micro_pit_at_one_nanometre():
    full = force(MICRO_PIT, 1.0e-9, 300.0, "full").magnitude
    quadrature = force(MICRO_PIT, 1.0e-9, 300.0, "quadrature").magnitude
    assert_allclose(quadrature, full, rtol=1.0e-10)


@pytest.mark.xfail(raises=QuadratureError, strict=True,
                   reason="FOUND in CHANGES.md: force_general stops at 300 subintervals "
                          "on [0, 1e-6] for a hemispherical micro-pit at gaps <= 1e-10 m; "
                          "the domain is not narrowed to hide it, and full serves it")
@pytest.mark.parametrize("a", [1.0e-12, 1.0e-10])
def test_quadrature_serves_the_micro_pit_at_the_smallest_gaps(a):
    force(MICRO_PIT, a, 300.0, "quadrature")


def test_quadrature_refuses_a_lens_without_lateral_extent():
    # D (2R - D) rounds to 0 at D = 5e-324 m, which lies outside the domain;
    # on it, D <= R keeps the extent at least sqrt(D R) >= 1e-12 m.
    with pytest.raises(ValueError, match=r"lens thickness D=5e-324 lies outside the served "
                                         r"range \[1e-12, 1e5\] m"):
        force_general(LensProfile.perfect(R_BENCH, 5.0e-324), 1.0e-6, T_BENCH)
    assert lateral_extent(LensProfile.perfect(1.0e-12, 1.0e-12)) == 1.0e-12


def test_quadrature_requires_single_valued_surface():
    # D > R is refused when the profile is built, before any method runs.
    with pytest.raises(ValueError):
        LensProfile.perfect(R=R_BENCH, D=0.2)


@pytest.mark.parametrize("call", [
    pytest.param(lambda tol: force_general(BUBBLE_WIDE, 1.0e-6, T_BENCH, quad_tol=tol),
                 id="force_general"),
    pytest.param(lambda tol: force(BUBBLE_WIDE, 1.0e-6, T_BENCH, "quadrature", tol=tol),
                 id="force"),
])
@pytest.mark.parametrize("tol", [-1.0, -2.0, 0.0, math.nan, math.inf])
def test_bad_quadrature_tolerance_is_refused_under_its_own_name(call, tol):
    # Not as the tenth of it that each panel is held to.
    with pytest.raises(ValueError, match=re.escape(f"quad_tol={tol!r} lies outside the "
                                                   "served range (0, inf)")):
        call(tol)


@pytest.mark.parametrize("tol", [5.0e-324, 1.0e-323, 1.0e-320])
def test_subnormal_quadrature_tolerance_is_a_quadrature_error(tol):
    # A tenth of 5e-324 underflows to 0, which no panel could be held to;
    # a tolerance inside (0, inf) that no quadrature reaches is a NumericalError.
    with pytest.raises(QuadratureError, match="above the requested"):
        force_general(BUBBLE_WIDE, 1.0e-6, T_BENCH, quad_tol=tol)


def test_bubble_degenerates_to_simplified_perfect():
    rng = np.random.default_rng(11)
    for _ in range(10):
        R = rng.uniform(0.05, 0.5)
        a = rng.uniform(0.5e-6, 3.0e-6)
        T = rng.uniform(100.0, 600.0)
        D1 = rng.uniform(1.0e-8, 0.9e-3 * R)
        reference = force(LensProfile.perfect(R), a, T).value
        same_radius = force_bubble(a, T, R, R, D1).value
        no_depth = force_bubble(a, T, R, rng.uniform(0.01, 1.0), 0.0).value
        assert abs(same_radius / reference - 1.0) < 1.0e-12
        assert abs(no_depth / reference - 1.0) < 1.0e-12


def test_pit_degenerates_to_simplified_perfect():
    rng = np.random.default_rng(13)
    for _ in range(10):
        R = rng.uniform(0.05, 0.5)
        a = rng.uniform(0.5e-6, 3.0e-6)
        T = rng.uniform(100.0, 600.0)
        D1 = rng.uniform(1.0e-8, 0.9e-3 * R)
        reference = force(LensProfile.perfect(R), a, T).value
        no_pit = force_pit(a, T, R, 0.0, D1).value
        assert abs(no_pit / reference - 1.0) < 1.0e-12


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        force_pit(1.0e-6, T_BENCH, R_BENCH, R_BENCH, 1.0e-6)   # pit needs R1 < R
    # The served domain is checked first, so the refusal names the argument.
    with pytest.raises(ValueError, match=r"curvature radius R=1e-13 lies outside"):
        force_pit(1.0e-6, T_BENCH, 1.0e-13, 0.12, 1.0e-6)
    with pytest.raises(ValueError, match=r"imperfection radius R1=inf lies outside"):
        force_pit(1.0e-6, T_BENCH, R_BENCH, math.inf, 1.0e-6)
    with pytest.raises(ValueError):
        force_bubble(1.0e-6, T_BENCH, R_BENCH, -0.1, 1.0e-6)
    with pytest.raises(ValueError):
        force_bubble(1.0e-6, T_BENCH, R_BENCH, 0.25, -1.0e-6)
    with pytest.raises(ValueError):
        force_bubble(-1.0e-6, T_BENCH, R_BENCH, 0.25, 0.5e-6)


def test_ratio_curve_reproduces_benchmark_tables():
    for profile, expected in ((BUBBLE_WIDE, BENCH_LINE1),
                              (BUBBLE_NARROW, BENCH_LINE2),
                              (PIT_CASE, BENCH_LINE3)):
        curve = ratio_curve(profile, BENCH_SEPARATIONS, T_BENCH)
        assert_allclose(curve.ratios, expected, atol=2.0e-3)


def test_ratio_curves_are_ordered_and_monotonic():
    line1 = np.array(ratio_curve(BUBBLE_WIDE, BENCH_SEPARATIONS, T_BENCH).ratios)
    line2 = np.array(ratio_curve(BUBBLE_NARROW, BENCH_SEPARATIONS, T_BENCH).ratios)
    line3 = np.array(ratio_curve(PIT_CASE, BENCH_SEPARATIONS, T_BENCH).ratios)
    # a flattened cap beats the perfect lens; sharper or indented caps trail it
    assert np.all(line1 > 1.0)
    assert np.all(line2 < 1.0)
    assert np.all(line3 < line2)
    # every curve approaches 1 as the separation grows past the defect scale
    assert np.all(np.diff(line1) < 0.0)
    assert np.all(np.diff(line2) > 0.0)
    assert np.all(np.diff(line3) > 0.0)


def test_ratio_curve_rejects_perfect_profiles():
    with pytest.raises(ValueError, match="ratio curves require a bubble or pit profile"):
        ratio_curve(LensProfile.perfect(R=R_BENCH), BENCH_SEPARATIONS, T_BENCH)


@pytest.mark.parametrize("profile", [BUBBLE_WIDE, PIT_CASE])
def test_ratio_curve_serves_an_empty_grid(profile):
    assert ratio_curve(profile, [], T_BENCH) == RatioCurve(separations=(), ratios=())


@settings(max_examples=100, deadline=None)
@given(
    pit=st.booleans(),
    R=st.floats(min_value=0.01, max_value=1.0),
    D1=st.floats(min_value=0.1e-6, max_value=2.0e-6),
    footprint=st.floats(min_value=FOOTPRINT_DIAMETER_MIN, max_value=FOOTPRINT_DIAMETER_MAX),
    separations=st.lists(st.floats(min_value=0.1e-6, max_value=10.0e-6),
                         min_size=1, max_size=5, unique=True),
    T=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1000.0)),
)
def test_ratio_curve_equals_the_ratio_of_forces(pit, R, D1, footprint, separations, T):
    r = 0.5 * footprint
    R1 = (r * r + D1 * D1) / (2.0 * D1)
    assume(not pit or R1 < R)
    profile = (LensProfile.pit if pit else LensProfile.bubble)(R, R1, D1)
    perfect = LensProfile.perfect(R, profile.D)
    grid = sorted(separations)
    curve = ratio_curve(profile, grid, T)
    assert curve.separations == tuple(grid)
    for a, ratio in zip(grid, curve.ratios):
        expected = force(profile, a, T).value / force(perfect, a, T).value
        assert ratio.hex() == expected.hex()


@pytest.mark.parametrize("profile", [BUBBLE_WIDE, PIT_CASE])
def test_ratio_curve_evaluates_each_distinct_gap_once(kernel_gaps, profile):
    grid = (1.0e-6, 1.5e-6, 2.0e-6, 2.5e-6, 3.0e-6)
    ratio_curve(profile, grid, T_BENCH)
    assert len(kernel_gaps) == 2 * len(grid)


def test_ratio_curve_container_validation():
    with pytest.raises(ValueError):
        RatioCurve(separations=(1.0e-6, 2.0e-6), ratios=(1.0,))
    with pytest.raises(ValueError):
        RatioCurve(separations=(2.0e-6, 1.0e-6), ratios=(1.0, 1.1))
    with pytest.raises(ValueError):
        RatioCurve(separations=(1.0e-6, 2.0e-6), ratios=(1.0, -0.5))


def test_force_result_validation():
    with pytest.raises(ValueError):
        ForceResult(magnitude=-1.0, attractive=True,
                    method=ForceMethod.PERFECT_SIMPLIFIED, a=1.0e-6, T=300.0)


def test_force_result_is_a_plain_record():
    by_keyword = ForceResult(magnitude=2.0, attractive=True, method=ForceMethod.BUBBLE,
                             a=1.0e-6, T=300.0)
    by_position = ForceResult(2.0, True, ForceMethod.BUBBLE, 1.0e-6, 300.0, None)
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert by_keyword.value == -2.0
    assert by_keyword != ForceResult(2.0, False, ForceMethod.BUBBLE, 1.0e-6, 300.0)
    assert by_keyword != ForceResult(2.0, True, ForceMethod.PIT, 1.0e-6, 300.0)
    assert by_keyword != ForceResult(2.0, True, ForceMethod.BUBBLE, 1.0e-6, 300.0, "note")
    assert by_keyword != (2.0, True, ForceMethod.BUBBLE, 1.0e-6, 300.0, None)
    assert repr(by_position) == (
        "ForceResult(magnitude=2.0, attractive=True, method=<ForceMethod.BUBBLE: "
        "'bubble'>, a=1e-06, T=300.0, warning=None)")


def test_method_labels_are_stable():
    assert {m.value for m in ForceMethod} == {
        "quadrature", "full", "simplified", "bubble", "pit"}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(LensKind),
    R=st.floats(min_value=0.01, max_value=1.0),
    a=st.floats(min_value=0.1e-6, max_value=10.0e-6),
    T=st.floats(min_value=1.0, max_value=1000.0),
    radius=st.floats(min_value=0.05, max_value=0.95),
    depth=st.floats(min_value=1.0e-3, max_value=0.9),
)
def test_force_defaults_to_the_closed_form_of_the_profile_kind(kind, R, a, T, radius, depth):
    R1, D1 = radius * R, depth * 1.0e-3 * R
    if kind is LensKind.PERFECT:
        profile = LensProfile.perfect(R)
        # (2 pi R) F_pp(a), rounded as the simplified form rounds it; a/R < 1e-2.
        expected = ForceResult(-(2.0 * math.pi * R * free_energy_pp(a, T).value), True,
                               ForceMethod.PERFECT_SIMPLIFIED, a, T)
    elif kind is LensKind.BUBBLE:
        profile = LensProfile.bubble(R, R1, D1)
        expected = force_bubble(a, T, R, R1, D1)
    else:
        profile = LensProfile.pit(R, R1, D1)
        expected = force_pit(a, T, R, R1, D1)
    result = force(profile, a, T)
    assert math.isfinite(result.value) and result.value < 0.0 and result.attractive
    assert result == expected
    assert result.magnitude.hex() == expected.magnitude.hex()


@pytest.mark.parametrize("profile, method", [
    # Explicit ids, so that each row keeps its name as rows come and go.
    pytest.param(BUBBLE_WIDE, "pit", id="profile0-pit"),
    pytest.param(PIT_CASE, "bubble", id="profile2-bubble"),
    pytest.param(PIT_CASE, "simplified", id="profile3-simplified"),
    pytest.param(LensProfile.perfect(R_BENCH), "bubble", id="profile4-bubble"),
])
def test_force_method_must_serve_the_profile_kind(profile, method):
    with pytest.raises(ValueError, match=method):
        force(profile, 1.0e-6, T_BENCH, method)


@pytest.mark.parametrize("profile", [BUBBLE_WIDE, BUBBLE_NARROW, PIT_CASE])
def test_full_serves_bubbles_and_pits_by_parts(profile):
    result = force(profile, 1.0e-6, T_BENCH, "full")
    assert result.method is ForceMethod.PERFECT_FULL and result.attractive
    quadrature = force_general(profile, 1.0e-6, T_BENCH, quad_tol=1.0e-12).value
    assert abs(result.value / quadrature - 1.0) <= 1.0e-10


@pytest.mark.parametrize("profile, calls", [
    (LensProfile.perfect(R_BENCH), 2),
    (BUBBLE_WIDE, 3),
    (PIT_CASE, 3),
])
def test_full_takes_one_kernel_call_per_distinct_gap(kernel_gaps, profile, calls):
    force(profile, 1.0e-6, T_BENCH, "full")
    assert len(kernel_gaps) == len(set(kernel_gaps)) == calls


@pytest.mark.parametrize("profile, calls", [
    (LensProfile.perfect(R_BENCH), 1),
    (BUBBLE_WIDE, 2),
    (PIT_CASE, 2),
])
def test_closed_forms_take_one_kernel_call_per_distinct_gap(kernel_gaps, profile, calls):
    force(profile, 1.0e-6, T_BENCH)
    assert len(kernel_gaps) == len(set(kernel_gaps)) == calls


@pytest.mark.parametrize("profile", [LensProfile.perfect(R_BENCH), BUBBLE_WIDE, PIT_CASE])
def test_quadrature_takes_one_kernel_call_per_evaluation(monkeypatch, kernel_gaps, profile):
    evaluations = []

    def counted(*args, **kwargs):
        result = integrate(*args, **kwargs)
        evaluations.append(result[2])
        return result

    monkeypatch.setattr(pfa, "integrate", counted)
    force(profile, 1.0e-6, T_BENCH, "quadrature")
    assert len(evaluations) == 2
    assert len(kernel_gaps) == sum(evaluations) > 0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(LensKind),
    R=st.floats(min_value=0.01, max_value=1.0),
    a=st.floats(min_value=0.1e-6, max_value=10.0e-6),
    T=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1000.0)),
    D1=st.floats(min_value=0.1e-6, max_value=2.0e-6),
    footprint=st.floats(min_value=FOOTPRINT_DIAMETER_MIN, max_value=FOOTPRINT_DIAMETER_MAX),
)
def test_full_matches_quadrature_on_every_kind(kind, R, a, T, D1, footprint):
    r = 0.5 * footprint
    R1 = (r * r + D1 * D1) / (2.0 * D1)
    assume(kind is not LensKind.PIT or R1 < R)
    if kind is LensKind.PERFECT:
        profile = LensProfile.perfect(R)
    else:
        profile = LensProfile(kind, R, R, R1, D1)
    full = force(profile, a, T, "full").value
    quadrature = force_general(profile, a, T, quad_tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-10


# In this test and the next each ``profile`` is a builder: the lens is
# refused when it is built, so no method is reached.
@pytest.mark.parametrize("profile", [
    partial(LensProfile.bubble, R_BENCH, 0.25, 0.5e-6, D=0.2),
    partial(LensProfile.pit, R_BENCH, 0.12, 1.0e-6, D=0.2),
])
def test_full_refuses_a_bubble_or_pit_on_a_lens_thicker_than_r(profile):
    with pytest.raises(ValueError, match=r"D=0.2 exceeds R=0.15"):
        force(profile(), 1.0e-6, T_BENCH, "full")


@pytest.mark.parametrize("method", ["full", "quadrature"])
@pytest.mark.parametrize("profile", [
    partial(LensProfile.bubble, R_BENCH, 1.0, 1.0e-5, D=1.0e-5),  # r = 4.5 mm, extent 1.7 mm
    partial(LensProfile.bubble, 1.0e-3, 10.0, 0.9e-6),            # r = 4.2 mm beyond R = 1 mm
    partial(LensProfile.pit, 1.0e-3, 0.9e-3, 0.9e-6, D=1.0e-9),   # r = 40 um, extent 1.4 um
])
def test_full_and_quadrature_refuse_a_footprint_wider_than_the_lens(profile, method):
    with pytest.raises(ValueError, match=r"footprint r=.* does not fit inside the lens extent"):
        force(profile(), 1.0e-6, T_BENCH, method)


#: The thickness at which the lens extent sqrt(D (2R - D)) is the Fig. 2 pit's
#: footprint r = sqrt(2 R1 D1 - D1^2) over 0.99.
_D_PIT_FILLS_099 = R_BENCH - math.sqrt(R_BENCH**2 - (2.0 * 0.12 * 1.0e-6 - 1.0e-12) / 0.99**2)

#: Profiles on the edges of the shape rules: D = R, a footprint of 0.99 of the
#: lens extent, and D1 just under 2 R1.
EDGE_PROFILES = {
    "perfect-D=R": LensProfile.perfect(R_BENCH, R_BENCH),
    "bubble-D=R": LensProfile.bubble(R_BENCH, 0.25, 0.5e-6, D=R_BENCH),
    "pit-D=R": LensProfile.pit(R_BENCH, 0.12, 1.0e-6, D=R_BENCH),
    "pit-footprint-0.99-of-extent": LensProfile.pit(R_BENCH, 0.12, 1.0e-6, D=_D_PIT_FILLS_099),
    "bubble-D1-under-2R1": LensProfile.bubble(R_BENCH, 1.0e-6, 1.999999e-6),
    "pit-D1-under-2R1": LensProfile.pit(R_BENCH, 1.0e-6, 1.999999e-6),
}


@pytest.mark.parametrize("profile", EDGE_PROFILES.values(), ids=EDGE_PROFILES.keys())
def test_no_method_refuses_a_profile_that_builds(profile):
    # Every shape rule is checked when the profile is built, so each method
    # that serves the profile's kind returns a value at 1 um and 300 K.
    a, T = 1.0e-6, 300.0
    perfect = profile.kind is LensKind.PERFECT
    closed = "simplified" if perfect else profile.kind.value
    for method in ("full", "quadrature", closed):
        result = force(profile, a, T, method)
        assert 0.0 < result.magnitude < math.inf and result.attractive
    assert validate_spec(profile).checks
    if not perfect:
        assert 0.0 < derive_geometry(profile).r <= lateral_extent(profile)
        assert ratio_curve(profile, [a], T).ratios[0] > 0.0


def test_fig2_pit_against_the_exact_profile_integral():
    # The tabulated pit curve is far from the pit profile's own integral,
    # which exceeds the perfect lens's force by a third or more.
    perfect = LensProfile.perfect(R_BENCH)
    separations = (0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6)
    exact = [force(PIT_CASE, a, T_BENCH, "full").value for a in separations]
    tabulated = [force_pit(a, T_BENCH, R_BENCH, 0.12, 1.0e-6).value for a in separations]
    over_perfect = [pit / force(perfect, a, T_BENCH, "full").value
                    for a, pit in zip(separations, exact)]
    assert_allclose(np.divide(tabulated, exact), (0.131, 0.187, 0.330, 0.457), atol=1.0e-3)
    assert_allclose(over_perfect, (1.768, 1.686, 1.504, 1.373), atol=1.0e-3)
    assert list(np.round(over_perfect, 2)) == [1.77, 1.69, 1.50, 1.37]
