"""Plate-lens forces: closed forms, direct quadrature and ratio curves."""

import contextlib
import math
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
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
from caslens.constants import BOLTZMANN, LIGHT_SPEED, REDUCED_PLANCK
from caslens.exceptions import QuadratureError, check_finite
from caslens.lens import FOOTPRINT_DIAMETER_MAX, FOOTPRINT_DIAMETER_MIN
from caslens.plates import _E, _F, _P
from caslens.quadrature import integrate
from heights import height_function

R_BENCH = 0.15
T_BENCH = 300.0

BUBBLE_WIDE = LensProfile.bubble(R=R_BENCH, R1=0.25, D1=0.5e-6)
BUBBLE_NARROW = LensProfile.bubble(R=R_BENCH, R1=0.05, D1=1.0e-6)
PIT_CASE = LensProfile.pit(R=R_BENCH, R1=0.12, D1=1.0e-6)
MICRO_PIT = LensProfile.pit(1.0, 1.0e-6, 1.0e-6)

# Benchmark ratio tables at a = 1.0, 1.5, 2.0, 2.5, 3.0 um and T = 300 K.
BENCH_SEPARATIONS = (1.0e-6, 1.5e-6, 2.0e-6, 2.5e-6, 3.0e-6)
BENCH_LINE1 = (1.458, 1.361, 1.287, 1.233, 1.193)
BENCH_LINE2 = (0.429, 0.507, 0.580, 0.641, 0.689)
BENCH_LINE3 = (0.314, 0.409, 0.496, 0.570, 0.627)


class KernelCalls(list):
    """The gaps at which pfa calls the plate kernel, in call order; ``wants``
    holds what each call reads (``_F``, ``_P`` or ``_E``)."""

    def __init__(self):
        super().__init__()
        self.wants = []

    def clear(self):
        super().clear()
        self.wants.clear()


@pytest.fixture
def kernel_gaps(monkeypatch):
    """The gaps at which pfa calls the plate kernel, and what each reads."""
    kernel, gaps = pfa._plate_kernel, KernelCalls()

    def counted(z, T, want):
        gaps.append(z)
        gaps.wants.append(want)
        return kernel(z, T, want)

    monkeypatch.setattr(pfa, "_plate_kernel", counted)
    return gaps


def test_simplified_form_is_two_pi_r_times_plate_energy():
    a = 1.0e-6
    result = force(LensProfile.perfect(R_BENCH), a, T_BENCH)
    expected = 2.0 * math.pi * R_BENCH * free_energy_pp(a, T_BENCH).value
    assert_allclose(result.value, expected, rtol=1.0e-15)
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
    # D = 1e-300 m lies outside the domain, which is checked first.
    with pytest.raises(ValueError, match=r"lens thickness D=1e-300 lies outside the served "
                                         r"range \[1e-12, 1e5\] m"):
        force_perfect_full(1.0e-6, T_BENCH, R_BENCH, 1.0e-300)
    # Inside the domain a + D rounds to a at a = 1e5 m and D = 1e-12 m, where
    # R F_pp(a) - (R - D) F_pp(a + D) would cancel; the thin piece's K21 panel serves it.
    full = force_perfect_full(1.0e5, T_BENCH, 1.0e5, 1.0e-12).value
    quadrature = force_general(LensProfile.perfect(1.0e5, 1.0e-12), 1.0e5, T_BENCH,
                               quad_tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-10


@pytest.mark.parametrize("D", [
    pytest.param(1.0e-16, id="1e-16"),
    pytest.param(1.0e-20, id="1e-20"),
])
def test_full_form_refuses_a_thickness_beyond_its_accuracy_bound(D):
    # Below the domain, which is checked first.
    with pytest.raises(ValueError, match=f"D={D!r} lies outside the served range "
                                         r"\[1e-12, 1e5\] m"):
        force_perfect_full(1.0e-6, T_BENCH, R_BENCH, D)


@pytest.mark.parametrize("D", [1.0e-12, 1.0e-11, 1.0e-9])
def test_full_form_serves_a_thin_lens_within_its_bound(D):
    full = force_perfect_full(1.0e-6, T_BENCH, R_BENCH, D).value
    quadrature = force_general(LensProfile.perfect(R_BENCH, D), 1.0e-6, T_BENCH,
                               quad_tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-10


@pytest.mark.parametrize("a", [1.0e-9, 1.0e-6, 1.0e-4])
@pytest.mark.parametrize("thickness", [0.05, 0.0999, 0.1001, 0.2])
def test_full_form_is_exact_on_both_sides_of_the_thin_threshold(thickness, a):
    # D/a below 0.1 goes through one K21 panel, above it by parts.
    pytest.importorskip("mpmath")
    from reference import force_reference

    profile = LensProfile.perfect(R_BENCH, thickness * a)
    full = force(profile, a, 0.0, "full").value
    assert abs(full / force_reference(profile, a) - 1.0) <= 1.0e-14


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
                        lambda z, T, want: (math.nan, -1.0, math.nan, math.nan, 0))
    for profile in (LensProfile.perfect(R=R_BENCH), BUBBLE_WIDE, PIT_CASE):
        result = force_general(profile, 1.0e-6, T_BENCH)
        expected = -math.pi * lateral_extent(profile) ** 2
        assert_allclose(result.value, expected, rtol=1.0e-9)


@pytest.mark.parametrize("profile", [LensProfile.perfect(R_BENCH), BUBBLE_WIDE, BUBBLE_NARROW,
                                     PIT_CASE, MICRO_PIT],
                         ids=["perfect", "bubble-wide", "bubble-narrow", "pit", "micro-pit"])
def test_quadrature_follows_the_height_profile(monkeypatch, profile):
    # The pieces build their gaps from (a, D, R1, D1) alone; with P(z) = -1/z^2
    # their integral is QUADPACK's over rho of heights.height_function's gaps.
    quad = pytest.importorskip("scipy.integrate").quad
    a = 1.0e-6
    monkeypatch.setattr("caslens.pfa._plate_kernel",
                        lambda z, T, want: (math.nan, -1.0 / (z * z), math.nan, math.nan, 0))
    height = height_function(profile, a)
    edges = [0.0, lateral_extent(profile)]
    if profile.kind is not LensKind.PERFECT:
        edges.insert(1, derive_geometry(profile).r)
    expected = sum(quad(lambda rho: -2.0 * math.pi * rho / height(rho) ** 2, lo, hi,
                        epsabs=0.0, epsrel=1.0e-13, limit=300)[0]
                   for lo, hi in zip(edges, edges[1:]))
    result = force_general(profile, a, T_BENCH, quad_tol=1.0e-12)
    assert_allclose(result.value, expected, rtol=1.0e-11)


@pytest.mark.parametrize("a, magnitude", [(1.0e-12, 2.723e9), (1.0e-10, 2.723e3)])
def test_full_serves_the_micro_pit_at_the_smallest_gaps(a, magnitude):
    result = force(MICRO_PIT, a, 300.0, "full")
    assert math.isfinite(result.magnitude)
    assert_allclose(result.magnitude, magnitude, rtol=1.0e-3)


def test_quadrature_matches_full_on_the_micro_pit_at_one_nanometre():
    full = force(MICRO_PIT, 1.0e-9, 300.0, "full").magnitude
    quadrature = force(MICRO_PIT, 1.0e-9, 300.0, "quadrature").magnitude
    assert_allclose(quadrature, full, rtol=1.0e-10)


@pytest.mark.parametrize("a", [1.0e-12, 1.0e-10])
def test_quadrature_serves_the_micro_pit_at_the_smallest_gaps(a):
    # The floor's gap runs from a + D1 down to the rim gap a itself, which a
    # gap computed from rho loses once rho rounds to r.
    full = force(MICRO_PIT, a, 300.0, "full").magnitude
    quadrature = force(MICRO_PIT, a, 300.0, "quadrature", tol=1.0e-12).magnitude
    assert_allclose(quadrature, full, rtol=1.0e-10)


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
    # As quad_tol, not as the rel_tol that each piece's integrate is handed.
    with pytest.raises(ValueError, match=re.escape(f"quad_tol={tol!r} lies outside the "
                                                   "served range (0, inf)")):
        call(tol)


@pytest.mark.parametrize("tol", [5.0e-324, 1.0e-323, 1.0e-320])
def test_subnormal_quadrature_tolerance_is_a_quadrature_error(tol):
    # Each piece is held to MIN_REL_TOL at the tightest, far above these;
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


#: A bubble whose R1 = 1e5 m outweighs R = 12 cm: at a = 4 mm and 300 K its two
#: closed-form terms, R1 F_pp(a) and (R - R1) F_pp(a + D1), cancel until their
#: 2e-15 bound is 3.3e-9 of the sum.
THIN_BUBBLE = LensProfile.bubble(0.12, 1.0e5, 6.0e-11)


@pytest.mark.parametrize("closed", [
    pytest.param(lambda a: force(THIN_BUBBLE, a, T_BENCH), id="force"),
    pytest.param(lambda a: force_bubble(a, T_BENCH, 0.12, 1.0e5, 6.0e-11), id="force_bubble"),
    pytest.param(lambda a: ratio_curve(THIN_BUBBLE, [a], T_BENCH), id="ratio_curve"),
])
def test_closed_forms_refuse_a_depth_whose_terms_cancel(closed):
    with pytest.raises(ValueError, match=re.escape(
            "imperfection depth D1=6e-11 is too thin against a=0.004: the PFA terms "
            "cancel to worse than 1e-09 relative accuracy")):
        closed(4.0e-3)


def test_full_and_quadrature_serve_the_depth_the_closed_forms_refuse():
    full = force(THIN_BUBBLE, 4.0e-3, T_BENCH, "full").value
    quadrature = force(THIN_BUBBLE, 4.0e-3, T_BENCH, "quadrature", tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-14


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    R=st.floats(min_value=0.01, max_value=1.0),
    a=st.floats(min_value=0.1e-6, max_value=10.0e-6),
    T=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1000.0)),
    radius=st.floats(min_value=0.05, max_value=0.95),
    depth=st.floats(min_value=1.0e-3, max_value=0.9),
)
def test_closed_forms_are_two_weighted_plate_energies(kernel_gaps, R, a, T, radius, depth):
    # Bit for bit, with the rounding each form has always had, from two kernel
    # calls for a bubble or pit, and one for the simplified form or a bubble
    # with D1 = 0, whose two gaps are one.
    R1, D1 = radius * R, depth * 1.0e-3 * R
    F_a, F_d = free_energy_pp(a, T).value, free_energy_pp(a + D1, T).value
    two_pi = 2.0 * math.pi
    for closed, expected, calls in (
            (lambda: force_bubble(a, T, R, R1, D1), two_pi * ((R - R1) * F_d + R1 * F_a), 2),
            (lambda: force_pit(a, T, R, R1, D1), two_pi * ((R - R1) * F_a + R1 * F_d), 2),
            (lambda: force(LensProfile.perfect(R), a, T), two_pi * R * F_a, 1),
            (lambda: force_bubble(a, T, R, R1, 0.0), two_pi * ((R - R1) * F_a + R1 * F_a), 1)):
        kernel_gaps.clear()
        assert closed().value.hex() == expected.hex()
        assert len(kernel_gaps) == calls
        assert kernel_gaps.wants == [_F] * calls


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
    assert set(kernel_gaps.wants) == {_F}


def test_ratio_curve_container_validation():
    with pytest.raises(ValueError):
        RatioCurve(separations=(1.0e-6, 2.0e-6), ratios=(1.0,))
    with pytest.raises(ValueError):
        RatioCurve(separations=(2.0e-6, 1.0e-6), ratios=(1.0, 1.1))
    with pytest.raises(ValueError):
        RatioCurve(separations=(1.0e-6, 2.0e-6), ratios=(1.0, -0.5))


def test_force_result_validation():
    with pytest.raises(ValueError):
        ForceResult(magnitude=-1.0,
                    method=ForceMethod.PERFECT_SIMPLIFIED, a=1.0e-6, T=300.0)


def test_force_result_is_a_plain_record():
    by_keyword = ForceResult(magnitude=2.0, method=ForceMethod.BUBBLE,
                             a=1.0e-6, T=300.0)
    by_position = ForceResult(2.0, ForceMethod.BUBBLE, 1.0e-6, 300.0, None)
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert by_keyword.value == -2.0
    assert by_keyword != ForceResult(2.0, ForceMethod.PIT, 1.0e-6, 300.0)
    assert by_keyword != ForceResult(2.0, ForceMethod.BUBBLE, 1.0e-6, 300.0, "note")
    assert by_keyword != (2.0, ForceMethod.BUBBLE, 1.0e-6, 300.0, None)
    assert repr(by_position) == (
        "ForceResult(magnitude=2.0, method=<ForceMethod.BUBBLE: "
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
        expected = ForceResult(-(2.0 * math.pi * R * free_energy_pp(a, T).value),
                               ForceMethod.PERFECT_SIMPLIFIED, a, T)
    elif kind is LensKind.BUBBLE:
        profile = LensProfile.bubble(R, R1, D1)
        expected = force_bubble(a, T, R, R1, D1)
    else:
        profile = LensProfile.pit(R, R1, D1)
        expected = force_pit(a, T, R, R1, D1)
    result = force(profile, a, T)
    assert math.isfinite(result.value) and result.value < 0.0
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
    assert result.method is ForceMethod.PERFECT_FULL
    quadrature = force_general(profile, 1.0e-6, T_BENCH, quad_tol=1.0e-12).value
    assert abs(result.value / quadrature - 1.0) <= 1.0e-10


@pytest.mark.parametrize("profile, a, calls, panels", [
    pytest.param(LensProfile.perfect(R_BENCH), 1.0e-6, 2, 0, id="profile0-2"),
    pytest.param(BUBBLE_WIDE, 1.0e-6, 3, 0, id="profile1-3"),
    pytest.param(PIT_CASE, 1.0e-6, 3, 0, id="profile2-3"),
    # A thin piece is one K21 panel of 21 nodes: the whole lens, or the cap.
    pytest.param(LensProfile.perfect(R_BENCH, 1.0e-12), 1.0e-6, 21, 1, id="thin-perfect-21"),
    pytest.param(BUBBLE_WIDE, 1.0e-5, 23, 1, id="bubble-wide-10um-23"),
])
def test_full_takes_one_kernel_call_per_distinct_gap(kernel_gaps, profile, a, calls, panels):
    force(profile, a, T_BENCH, "full")
    assert len(kernel_gaps) == len(set(kernel_gaps)) == calls
    # The by-parts gaps read F_pp with E_pp; a K21 panel reads P_pp at its nodes.
    assert sorted(kernel_gaps.wants) == [_P] * (21 * panels) + [_E] * (calls - 21 * panels)


KINDS = {"perfect": LensProfile.perfect(R_BENCH), "bubble": BUBBLE_WIDE, "pit": PIT_CASE}


@pytest.mark.parametrize("method, checked", [
    (None, ["separation a", "temperature"]),
    ("full", ["separation a", "temperature"]),
    ("quadrature", ["separation a", "temperature", "quad_tol"]),
])
@pytest.mark.parametrize("profile", KINDS.values(), ids=KINDS.keys())
def test_force_checks_the_point_but_not_the_built_profile(monkeypatch, profile, method, checked):
    # The constructor checked the profile's lengths, so force checks only a
    # and T, and the quadrature's tolerance, each once.
    names = []

    def recorded(name, x, domain):
        names.append(name)
        return check_finite(name, x, domain)

    monkeypatch.setattr(pfa, "check_finite", recorded)
    force(profile, 1.0e-6, T_BENCH, method)
    assert names == checked


@pytest.mark.parametrize("method", [None, "full", "quadrature"])
@pytest.mark.parametrize("profile", KINDS.values(), ids=KINDS.keys())
def test_no_method_reports_a_repulsive_force(monkeypatch, profile, method):
    # A plate kernel with every value negated makes every sum repulsive:
    # each method refuses it instead of returning it.
    kernel = pfa._plate_kernel

    def repulsive(z, T, want):
        *values, n = kernel(z, T, want)
        return (*(None if v is None else -v for v in values), n)

    monkeypatch.setattr(pfa, "_plate_kernel", repulsive)
    with pytest.raises(ValueError):
        force(profile, 1.0e-6, T_BENCH, method)


@pytest.mark.parametrize("profile, calls", [
    (LensProfile.perfect(R_BENCH), 1),
    (BUBBLE_WIDE, 2),
    (PIT_CASE, 2),
])
def test_closed_forms_take_one_kernel_call_per_distinct_gap(kernel_gaps, profile, calls):
    force(profile, 1.0e-6, T_BENCH)
    assert len(kernel_gaps) == len(set(kernel_gaps)) == calls
    assert kernel_gaps.wants == [_F] * calls


@contextlib.contextmanager
def _piece_integrals():
    """The (value, error estimate, evaluations) of each ``integrate`` call
    that pfa makes inside the block: one per spherical piece."""
    results = []

    def recorded(*args, **kwargs):
        result = integrate(*args, **kwargs)
        results.append(result)
        return result

    with mock.patch.object(pfa, "integrate", recorded):
        yield results


@pytest.mark.parametrize("profile", [LensProfile.perfect(R_BENCH), BUBBLE_WIDE, PIT_CASE])
def test_quadrature_takes_one_kernel_call_per_evaluation(kernel_gaps, profile):
    with _piece_integrals() as pieces:
        force(profile, 1.0e-6, T_BENCH, "quadrature")
    # One integrate call per spherical piece: the lens, or a cap or floor and the lens.
    assert len(pieces) == (1 if profile.kind is LensKind.PERFECT else 2)
    assert len(kernel_gaps) == sum(evaluations for _, _, evaluations in pieces) > 0
    assert set(kernel_gaps.wants) == {_P}


@pytest.mark.parametrize("profile, a, budget", [
    pytest.param(LensProfile.perfect(R_BENCH), 1.0e-6, 42, id="profile0-42"),
    pytest.param(BUBBLE_WIDE, 1.0e-6, 63, id="profile1-63"),
    pytest.param(PIT_CASE, 1.0e-6, 63, id="profile2-63"),
    pytest.param(LensProfile.perfect(R_BENCH), 2.0e-6, 42, id="perfect-2um-42"),
    pytest.param(LensProfile.perfect(R_BENCH), 3.0e-6, 42, id="perfect-3um-42"),
    pytest.param(BUBBLE_WIDE, 2.0e-6, 63, id="bubble-wide-2um-63"),
    pytest.param(BUBBLE_WIDE, 3.0e-6, 63, id="bubble-wide-3um-63"),
    pytest.param(PIT_CASE, 2.0e-6, 63, id="pit-2um-63"),
    pytest.param(PIT_CASE, 3.0e-6, 84, id="pit-3um-84"),
])
def test_quadrature_stays_within_its_kernel_call_budget(kernel_gaps, profile, a, budget):
    # Each piece is held to quad_tol itself.  Held to a tenth of it, these took
    # 42/84/84, 105/105/105 and 63/105/126 at 1/2/3 um; integrated in rho and
    # then in ln rho, up to 126, 126 and 168 at 1 um.
    force(profile, a, T_BENCH, "quadrature")
    assert len(kernel_gaps) <= budget


@pytest.mark.parametrize("a", [1.0e-7, 1.0e-6, 1.0e-5, 1.0e-4])
@pytest.mark.parametrize("profile, calls", [
    (LensProfile.perfect(R_BENCH), 21),
    (BUBBLE_WIDE, 42),
    (BUBBLE_NARROW, 42),
    (PIT_CASE, 42),
], ids=["perfect", "bubble-wide", "bubble-narrow", "pit"])
def test_quadrature_takes_one_21_node_panel_per_piece_at_zero_temperature(kernel_gaps, profile,
                                                                          calls, a):
    # At T = 0 each piece's integrand is a quadratic in w, which K21 integrates
    # exactly; integrated in rho and then in ln rho, these took 63 to 420.
    force(profile, a, 0.0, "quadrature")
    assert len(kernel_gaps) == calls
    assert set(kernel_gaps.wants) == {_P}


@pytest.mark.parametrize("a", [1.0e-6, 2.0e-6, 3.0e-6])
@pytest.mark.parametrize("profile", [LensProfile.perfect(R_BENCH), BUBBLE_WIDE, BUBBLE_NARROW,
                                     PIT_CASE], ids=["perfect", "bubble-wide", "bubble-narrow",
                                                     "pit"])
def test_quadrature_matches_full_on_the_fig2_profiles(profile, a):
    full = force(profile, a, T_BENCH, "full").value
    quadrature = force(profile, a, T_BENCH, "quadrature").value
    assert abs(quadrature / full - 1.0) <= 1.0e-12


#: z_T T: below the gap z_T = hbar c / (2 k_B T) the plate kernel sums its dual series.
Z_T_TIMES_T = REDUCED_PLANCK * LIGHT_SPEED / (2.0 * BOLTZMANN)


@pytest.mark.parametrize("T", [3.0, 30.0, 300.0, 3000.0])
def test_quadrature_error_estimate_holds_down_to_nanometre_gaps(T):
    # Uncut, a piece's first panel w in [0, w_T] missed a thermal layer about
    # a/z_T wide: 2e-11 off at a/z_T ~ 3e-4, with an estimate 670 times smaller.
    rng = np.random.default_rng(32)
    profiles = (LensProfile.perfect(R_BENCH), PIT_CASE, BUBBLE_WIDE,
                LensProfile.perfect(R_BENCH, 1.0e-3))
    for a in Z_T_TIMES_T / T * 10.0 ** rng.uniform(-5.0, 1.0, 40):
        for profile in profiles:
            full = force(profile, a, T, "full").value
            with _piece_integrals() as pieces:
                quadrature = force_general(profile, a, T, quad_tol=1.0e-12).value
            assert abs(quadrature / full - 1.0) <= 1.0e-12
            estimate = 2.0 * math.pi * sum(error for _, error, _ in pieces)
            assert estimate >= abs(quadrature - full)


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


def _assert_full_matches_quadrature(profile, a, T):
    full = force(profile, a, T, "full").value
    with _piece_integrals() as pieces:
        quadrature = force_general(profile, a, T, quad_tol=1.0e-12).value
    assert abs(full / quadrature - 1.0) <= 1.0e-10
    # Every piece integrand is <= 0, so the pieces' errors cannot cancel and
    # each piece may be held to quad_tol itself.
    assert all(value <= 0.0 for value, _, _ in pieces)


@st.composite
def _built_lenses(draw):
    """A profile that builds, with R, D <= R, R1 and D1 <= R1 log-uniform over
    the length domain [1e-12, 1e5] m, a gap a log-uniform in [1e-12, 1e-4] m
    and T in {0, 300} K."""
    kind = draw(st.sampled_from(LensKind))
    exponent_R = draw(st.floats(min_value=-12.0, max_value=5.0))
    R = 10.0 ** exponent_R
    D = min(R, 10.0 ** draw(st.floats(min_value=-12.0, max_value=exponent_R)))
    try:
        if kind is LensKind.PERFECT:
            profile = LensProfile.perfect(R, D)
        else:
            exponent_R1 = draw(st.floats(min_value=-12.0, max_value=5.0))
            R1 = 10.0 ** exponent_R1
            D1 = min(R1, 10.0 ** draw(st.floats(min_value=-12.0, max_value=exponent_R1)))
            profile = LensProfile(kind, R, D, R1, D1)
    except ValueError:
        assume(False)
    a = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-4.0))
    return profile, a, draw(st.sampled_from((0.0, 300.0)))


#: Built profiles on which ``quadrature`` once raised QuadratureError
#: (``*-no-convergence``) or returned a value off the reference without one
#: (``*-off``): on pits and a bubble at gaps down to 1.3e-12 m, and on a bubble
#: whose footprint radius exceeds half the lens extent; and the ``thin-*`` rows,
#: on which ``full`` by parts was off the reference, by 5.6e-11 and 1.0e-11,
#: because a piece far thinner than its gap cancelled its own terms.
QUADRATURE_SETTLED = {
    "pit-a-1.5e-12-no-convergence": (
        LensProfile.pit(0.5, 6.5e-4, 7.6e-6, D=6.3e-3), 1.5e-12, 0.0),
    "pit-a-1.1e-10-no-convergence": (
        LensProfile.pit(2.0, 3.9e-2, 6.2e-4, D=7.9e-2), 1.1e-10, 0.0),
    "pit-a-4.2e-9-no-convergence": (
        LensProfile.pit(8.9e4, 14.0, 6.2e-3, D=8.4e-3), 4.2e-9, 300.0),
    "bubble-a-1.3e-12-no-convergence": (
        LensProfile.bubble(1.0e-4, 12.0, 1.2e-11, D=5.0e-5), 1.3e-12, 300.0),
    "pit-a-1.5e-12-3e-5-off": (
        LensProfile.pit(27483.651602469054, 0.05935436814461252, 0.012473720207729471,
                        D=6.051968791172717e-08),
        1.4662585461929144e-12, 0.0),
    "bubble-a-8.5e-11-4.7e-8-off": (
        LensProfile(LensKind.BUBBLE, 0.00017192943732642887, 1.7614357312086106e-09,
                    0.0013073935323327495, 9.74103398420565e-11),
        8.475870308569837e-11, 0.0),
    "thin-perfect-1.2e-10-off": (
        LensProfile.perfect(4.24015317948679, 6.85613430194986e-11),
        2.8230128620302183e-05, 300.0),
    "thin-bubble-1.0e-10-off": (
        LensProfile(LensKind.BUBBLE, 0.009371403154126148, 2.6841807859151745e-10,
                    0.0008524285497670339, 1.247313112800947e-10),
        8.805926830279637e-05, 300.0),
}


@pytest.mark.parametrize("name", QUADRATURE_SETTLED)
def test_quadrature_settles_the_rows_it_once_failed(name):
    # Each row agrees at its own T, and the 40-digit reference at T = 0
    # puts each method within 1e-14.
    pytest.importorskip("mpmath")
    from reference import force_reference

    profile, a, T = QUADRATURE_SETTLED[name]
    _assert_full_matches_quadrature(profile, a, T)
    exact = force_reference(profile, a)
    for value in (force(profile, a, 0.0, "full").value,
                  force_general(profile, a, 0.0, quad_tol=1.0e-12).value):
        assert abs(value / exact - 1.0) <= 1.0e-14


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          report_multiple_bugs=False,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@example(case=QUADRATURE_SETTLED["thin-perfect-1.2e-10-off"])
# A bubble over the whole lens: its footprint reaches the lens edge, where the
# rise of the lens piece beyond the seam once rounded to -1.3e-26 m.
@example(case=(LensProfile(LensKind.BUBBLE, 100.0, 1.0e-10, 100.0, 1.0e-10), 1.0e-4, 0.0))
@given(case=_built_lenses())
def test_full_matches_quadrature_on_every_profile_that_builds(case):
    _assert_full_matches_quadrature(*case)


@pytest.mark.parametrize("R, D, a", [(R_BENCH, R_BENCH, 1.0e-6), (1.0e5, 1.0e5, 1.0e-12),
                                     (R_BENCH, 1.0e-12, 1.0e-12), (1.0e-12, 1.0e-12, 1.0e-4)])
def test_the_reference_matches_the_perfect_lens_integral_in_closed_form(R, D, a):
    # On a perfect lens rho drho = (R - h) dh, so the reference's integral is
    # the closed (R + a)(a^-3 - (a + D)^-3)/3 - (a^-2 - (a + D)^-2)/2.
    mpmath = pytest.importorskip("mpmath")
    from reference import DIGITS, force_reference

    with mpmath.workdps(DIGITS):
        R_, D_, a_ = mpmath.mpf(R), mpmath.mpf(D), mpmath.mpf(a)
        integral = ((R_ + a_) * (a_**-3 - (a_ + D_)**-3) / 3
                    - (a_**-2 - (a_ + D_)**-2) / 2)
        closed = float(-mpmath.pi**3 * mpmath.mpf(REDUCED_PLANCK) * mpmath.mpf(LIGHT_SPEED)
                       / 120 * integral)
    assert force_reference(LensProfile.perfect(R, D), a) == pytest.approx(closed, rel=2.3e-16)


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
#: lens extent, and a hemispherical cap (D1 = R1).
EDGE_PROFILES = {
    "perfect-D=R": LensProfile.perfect(R_BENCH, R_BENCH),
    "bubble-D=R": LensProfile.bubble(R_BENCH, 0.25, 0.5e-6, D=R_BENCH),
    "pit-D=R": LensProfile.pit(R_BENCH, 0.12, 1.0e-6, D=R_BENCH),
    "pit-footprint-0.99-of-extent": LensProfile.pit(R_BENCH, 0.12, 1.0e-6, D=_D_PIT_FILLS_099),
    "bubble-D1=R1": LensProfile.bubble(R_BENCH, 1.0e-6, 1.0e-6),
    "pit-D1=R1": LensProfile.pit(R_BENCH, 1.0e-6, 1.0e-6),
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
        assert 0.0 < result.magnitude < math.inf
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


@pytest.mark.parametrize("profile", [PIT_CASE, BUBBLE_WIDE, BUBBLE_NARROW],
                         ids=["pit", "bubble-wide", "bubble-narrow"])
def test_fig2_exact_ratios_against_the_tabulated_curves(profile):
    # The exact ratio is ``full`` over ``full`` on a perfect lens of the same
    # R.  Both pit forms are 1 -+ (R1/R)(1 - F(a + D1)/F(a)) to leading order,
    # so their deviations from 1 cancel within (a + D1)/R: the tabulated pit
    # curve is the exact one with its deviation's sign flipped.  The bubbles'
    # closed form is the exact ratio within the same order.
    separations = (1.0e-6, 2.0e-6, 3.0e-6)
    perfect = LensProfile.perfect(R_BENCH)
    tabulated = ratio_curve(profile, separations, T_BENCH).ratios
    for a, curve in zip(separations, tabulated):
        exact = (force(profile, a, T_BENCH, "full").value
                 / force(perfect, a, T_BENCH, "full").value)
        bound = (a + profile.D1) / R_BENCH
        if profile.kind is LensKind.PIT:
            assert abs((exact - 1.0) + (curve - 1.0)) <= bound
        else:
            assert abs(exact - curve) <= bound
