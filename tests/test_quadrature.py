"""The adaptive Gauss-Kronrod rule against QUADPACK (scipy.integrate.quad).

The panels are the ones caslens integrates: the inner and log-space outer
panels of ``force_general`` and the momentum integral of the thermal-sum
oracle.  On smooth panels the rule must take exactly QUADPACK's bisections.
The log-space separation integral of F_pp is no caslens panel: it is the
quadrature reference for the closed antiderivative that
``force_perfect_full`` uses.
"""

import math

import pytest

from caslens import (
    LensKind,
    LensProfile,
    NumericalError,
    derive_geometry,
    free_energy_pp,
    lateral_extent,
    pressure_pp,
)
from caslens.lens import height_function
from caslens.plates import _momentum_integrand, _plate_kernel
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


def assert_matches_quadpack(quad, f, lo, hi, rel_tol, *, same_count=True):
    value, error, evaluations = integrate(f, lo, hi, rel_tol=rel_tol)
    ref, ref_error, info = quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=300,
                                full_output=1)
    assert abs(value / ref - 1.0) <= 1.0e-12
    assert error <= max(rel_tol, 1.0e-13) * abs(value)
    if same_count:
        assert evaluations == info["neval"]
    return evaluations, info["neval"]


def pfa_panels(profile, a):
    """force_general's two panels: (integrand, lo, hi)."""
    height = height_function(profile, a)
    extent = lateral_extent(profile)
    if profile.kind is LensKind.PERFECT:
        split = min(math.sqrt(profile.R * a), 0.5 * extent)
    else:
        split = min(derive_geometry(profile).r, 0.5 * extent)

    def inner(rho):
        return rho * pressure_pp(height(rho), T)

    def outer(v):
        rho = min(math.exp(v), extent)
        return rho * rho * pressure_pp(height(rho), T)

    return (inner, 0.0, split), (outer, math.log(split), math.log(extent))


@pytest.mark.parametrize("a", SEPARATIONS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_pfa_panels_match_quadpack(quad, name, a):
    for f, lo, hi in pfa_panels(PROFILES[name], a):
        assert_matches_quadpack(quad, f, lo, hi, 1.0e-10)


@pytest.mark.parametrize("a", SEPARATIONS)
def test_separation_integral_matches_quadpack(quad, a):
    def integrand(u):
        z = math.exp(u)
        return free_energy_pp(z, T).value * z

    assert_matches_quadpack(quad, integrand, math.log(a), math.log(R + a), 1.0e-12)
    integral = integrate(integrand, math.log(a), math.log(R + a), rel_tol=1.0e-12)[0]
    by_parts = _plate_kernel(a, T)[2] - _plate_kernel(R + a, T)[2]
    assert abs(by_parts / integral - 1.0) <= 1.0e-12


@pytest.mark.parametrize("m", [0.3, 1.0, 5.0, 20.0])
def test_momentum_tail_matches_quadpack(quad, m):
    # QUADPACK's QAGI uses a 15-point rule on the mapped range, so only
    # the values are compared.
    assert_matches_quadpack(quad, _momentum_integrand, m, math.inf, 1.0e-12,
                            same_count=False)


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
    value, _, _ = integrate(lambda y: math.exp(-y), 2.0, math.inf, rel_tol=1.0e-12)
    assert abs(value / math.exp(-2.0) - 1.0) <= 1.0e-12
