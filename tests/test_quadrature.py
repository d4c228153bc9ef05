"""The adaptive Gauss-Kronrod rule against QUADPACK (scipy.integrate.quad).

The panels are the ones caslens integrates: the pieces of ``force_general``,
one w-panel on [0, 1] per spherical piece of the lens, and the momentum
integral of the thermal-sum oracle, which ends where its exact analytic tail
takes over.  Every range is finite; an infinite end is refused before any
panel runs.  On smooth panels the rule must take exactly QUADPACK's
bisections.  A piece that passes the gap where the plate kernel switches
series carries a breakpoint there; with it the piece is compared in value
with QUADPACK's QAGP, which extrapolates and so takes other bisections.
The log-space separation integral of F_pp is no caslens panel: it is the
quadrature reference for the closed antiderivative that
``force_perfect_full`` uses.
"""

import math

import pytest

from caslens import pfa
from caslens import LensProfile, NumericalError, free_energy_pp
from caslens.plates import _ANALYTIC_TAIL_MIN, _E, _momentum_integrand, _plate_kernel
from caslens.quadrature import integrate

T = 300.0
R = 0.15
PROFILES = {
    "perfect": LensProfile.perfect(R),
    "bubble-wide": LensProfile.bubble(R, 0.25, 0.5e-6),
    "bubble-narrow": LensProfile.bubble(R, 0.05, 1.0e-6),
    "pit": LensProfile.pit(R, 0.12, 1.0e-6),
}
SEPARATIONS = (0.5e-6, 1.0e-6, 3.0e-6)


@pytest.fixture(scope="module")
def quad():
    return pytest.importorskip("scipy.integrate").quad


def assert_matches_quadpack(quad, f, lo, hi, rel_tol, *, same_count=True, points=()):
    value, error, evaluations = integrate(f, lo, hi, rel_tol=rel_tol, points=points)
    ref, ref_error, info = quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=300,
                                full_output=1, points=points or None)
    assert abs(value / ref - 1.0) <= 1.0e-12
    assert error <= max(rel_tol, 1.0e-13) * abs(value)
    if same_count:
        assert evaluations == info["neval"]
    return evaluations, info["neval"]


def pfa_panels(profile, a):
    """force_general's pieces, each a w-panel: (integrand, 0, 1, its z_T breakpoint)."""
    pieces = (pfa._piece(*sphere, T) for sphere in pfa._spheres(profile, a))
    return [(f, 0.0, 1.0, points) for f, points in pieces]


@pytest.mark.parametrize("a", SEPARATIONS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_pfa_panels_match_quadpack(quad, name, a):
    # The kernel's two series are one smooth function, so a piece needs no
    # breakpoint for its value, only to keep each series on its own panels.
    panels = pfa_panels(PROFILES[name], a)
    assert len(panels) == (1 if name == "perfect" else 2)
    for f, lo, hi, _ in panels:
        assert_matches_quadpack(quad, f, lo, hi, 1.0e-10)


@pytest.mark.parametrize("a", SEPARATIONS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_outer_panel_with_its_breakpoints_matches_qagp(quad, name, a):
    # At 300 K the gap z_T = hbar c / (2 k_B T) = 3.8 um, where the kernel
    # switches series, lies inside one or two pieces of each case.
    cut = [(f, lo, hi, points) for f, lo, hi, points in pfa_panels(PROFILES[name], a) if points]
    assert cut
    for f, lo, hi, points in cut:
        assert_matches_quadpack(quad, f, lo, hi, 1.0e-10, same_count=False, points=points)


@pytest.mark.parametrize("a", SEPARATIONS)
def test_separation_integral_matches_quadpack(quad, a):
    def integrand(u):
        z = math.exp(u)
        return free_energy_pp(z, T).value * z

    assert_matches_quadpack(quad, integrand, math.log(a), math.log(R + a), 1.0e-12)
    integral = integrate(integrand, math.log(a), math.log(R + a), rel_tol=1.0e-12)[0]
    by_parts = _plate_kernel(a, T, _E)[_E] - _plate_kernel(R + a, T, _E)[_E]
    assert abs(by_parts / integral - 1.0) <= 1.0e-12


@pytest.mark.parametrize("m", [0.3, 1.0, 5.0, 20.0])
def test_momentum_tail_matches_quadpack(quad, m):
    # The oracle's quadrature ends at the start of its analytic tail.
    assert_matches_quadpack(quad, _momentum_integrand, m, _ANALYTIC_TAIL_MIN, 1.0e-12)


def test_log_singular_momentum_panel_matches_quadpack(quad):
    # y ln(1 - e^-y) ~ y ln y at 0: without extrapolation the rule needs
    # more bisections than QUADPACK's QAGS, but reaches the same value.
    evaluations, reference = assert_matches_quadpack(
        quad, _momentum_integrand, 0.0, 1.0, 1.0e-12, same_count=False)
    assert reference < evaluations < 1000


def test_exhausting_the_subinterval_limit_raises():
    # 1/x has no integral on [0, 1]; bisection towards 0 runs out of panels.
    with pytest.raises(NumericalError, match="stopped at 300 subintervals"):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, rel_tol=1.0e-12)


def test_polynomials_up_to_degree_19_take_one_panel():
    # Both G10 and K21 are exact there, so the error estimate is round-off.
    value, error, evaluations = integrate(lambda x: x**19 + x**2, -1.0, 2.0,
                                          rel_tol=1.0e-13)
    exact = (2.0**20 - 1.0) / 20.0 + 3.0
    assert abs(value / exact - 1.0) <= 1.0e-14
    assert evaluations == 21


def test_half_infinite_range():
    calls = []
    with pytest.raises(ValueError, match=r"integration range \[2\.0, inf\] needs two finite ends"):
        integrate(calls.append, 2.0, math.inf, rel_tol=1.0e-12)
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, -math.inf), (math.inf, math.inf)],
                         ids=["nan-start", "minus-inf-end", "inf-start"])
def test_a_bad_range_is_refused_before_any_panel_runs(lo, hi):
    calls = []
    with pytest.raises(ValueError, match=r"integration range \[") as refusal:
        integrate(calls.append, lo, hi, rel_tol=1.0e-9)
    assert f"[{lo!r}, {hi!r}]" in str(refusal.value)
    assert calls == []


@pytest.mark.parametrize("b, points", [
    (2.0, (math.nan,)),
    (2.0, (0.5, math.inf)),
    (2.0, (0.5, 0.5)),
    (2.0, (1.0, 0.5)),
    (2.0, (0.0, 0.5)),
    (2.0, (0.5, 2.0)),
    (math.inf, (1.0,)),
    (2.0, tuple(1.0 + i / 300.0 for i in range(1, 300))),
], ids=["nan", "inf", "repeated", "decreasing", "at-start", "at-end", "infinite-range",
        "limit-panels"])
def test_bad_breakpoints_are_refused_before_any_panel_runs(b, points):
    calls = []
    with pytest.raises(ValueError, match=r"breakpoints \(") as refusal:
        integrate(calls.append, 0.0, b, rel_tol=1.0e-9, points=points)
    assert repr(points) in str(refusal.value)
    assert calls == []


def test_a_breakpoint_on_a_kink_leaves_two_exact_panels():
    # |x - c| is linear on either side of c, where both rules are exact.
    c = 0.3
    value, _, evaluations = integrate(lambda x: abs(x - c), -1.0, 2.0, rel_tol=1.0e-12,
                                      points=(c,))
    assert abs(value / ((1.0 + c) ** 2 / 2.0 + (2.0 - c) ** 2 / 2.0) - 1.0) <= 1.0e-14
    assert evaluations == 42


def test_breakpoints_count_toward_the_subinterval_limit():
    # 1/x has no integral on [0, 1].  Two initial panels leave room for 298
    # bisections, one fewer than a single initial panel leaves.
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / x

    with pytest.raises(NumericalError, match="stopped at 300 subintervals"):
        integrate(f, 0.0, 1.0, rel_tol=1.0e-12, points=(0.5,))
    assert len(calls) == 2 * 21 + 298 * 42
