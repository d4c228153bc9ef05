"""Plate free energy and pressure: closed series against independent checks."""

import math
import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from caslens import (
    ConvergenceError,
    FreeEnergyAreal,
    free_energy_pp,
    free_energy_pp_oracle,
    pressure_pp,
    tau,
)
from caslens import plates
from caslens.constants import BOLTZMANN, LIGHT_SPEED, REDUCED_PLANCK
from caslens.exceptions import QuadratureError
from caslens.plates import ZETA3

# Reference values frozen from independent evaluations (brute-force thermal
# sum and central finite differences); see tests below for the live checks.
TAU_1UM_300K = 1.6463324471978948
F_1UM_300K = -4.449333279644454e-10
BRACKET_1UM_300K = 1.3498958576441076
RATIO_15_TO_10 = 0.3122809987126108
RATIO_20_TO_10 = 0.14314291665040776
PRESSURE_15UM_300K = -2.5885727556211027e-4

#: Stated accuracy of free_energy_pp and pressure_pp against a 30-digit
#: reference, relative, for every tau >= 0.
KERNEL_REL_BOUND = 2.0e-15

#: log-spaced over [1e-8, 1e3], plus both sides of the switch at 2 pi.
TAU_GRID = [*np.logspace(-8.0, 3.0, 12),
            2.0 * math.pi * (1.0 - 1.0e-12), 2.0 * math.pi * (1.0 + 1.0e-12)]


def temperature_for_tau(z, target):
    """Temperature at which tau(z, T) equals the requested value."""
    return target / tau(z, 1.0)


def euler_maclaurin_sum(mp, g, N=16, K=14):
    """sum_{n>=1} g(n) in mpmath: the terms below N directly, the rest by
    Euler-Maclaurin (integral, half end term, K derivative corrections)."""
    head = mp.fsum(g(n) for n in range(1, N))
    tail = mp.quad(g, [N, 2 * N, mp.inf]) + g(N) / 2
    derivatives = list(mp.diffs(g, N, 2 * K))
    for k in range(1, K + 1):
        tail -= mp.bernoulli(2 * k) / mp.factorial(2 * k) * derivatives[2 * k - 1]
    return head + tail


def mpmath_plates(mp, z, T):
    """F_pp, P_pp and E_pp at 30 digits, summing the direct series in tau.

    No dual form is used, so the kernel's representation below 2 pi is
    checked against the series it replaces."""
    with mp.workdps(30):
        t = mp.mpf(tau(z, T))

        def energy_term(n):
            u = n * t
            x = mp.exp(-u)
            w = 1 / (1 - x)
            return x * w * (1 + u * w) / n**3

        def pressure_term(n):
            u = n * t
            x = mp.exp(-u)
            w = 1 / (1 - x)
            return x * w * (2 + 2 * u * w + u * u * (1 + x) * w * w) / n**3

        def integral_term(n):
            x = mp.exp(-n * t)
            return x / ((1 - x) * n**3)

        bracket = mp.zeta(3) / 2 + euler_maclaurin_sum(mp, energy_term)
        pressure_bracket = mp.zeta(3) + euler_maclaurin_sum(mp, pressure_term)
        integral_bracket = mp.zeta(3) / 2 + euler_maclaurin_sum(mp, integral_term)
        hbar_c = mp.mpf(REDUCED_PLANCK) * mp.mpf(LIGHT_SPEED)
        z = mp.mpf(z)
        return (-t * hbar_c * bracket / (16 * mp.pi**2 * z**3),
                -t * hbar_c * pressure_bracket / (16 * mp.pi**2 * z**4),
                -t * hbar_c * integral_bracket / (16 * mp.pi**2 * z**2))


def relative_error(value, reference):
    return float(abs(value / reference - 1))


def test_tau_reference_point():
    assert_allclose(tau(1.0e-6, 300.0), TAU_1UM_300K, rtol=1.0e-12)


def test_tau_zero_at_zero_temperature():
    assert tau(1.0e-6, 0.0) == 0.0


def test_tau_linear_in_separation():
    assert tau(2.0e-6, 300.0) == 2.0 * tau(1.0e-6, 300.0)


def test_tau_domain_errors():
    with pytest.raises(ValueError):
        tau(0.0, 300.0)
    with pytest.raises(ValueError):
        tau(-1.0e-6, 300.0)
    with pytest.raises(ValueError):
        tau(1.0e-6, -1.0)


@pytest.mark.parametrize("z, T", [
    (1.0e-6, math.nan),
    (1.0e-6, math.inf),
    (math.inf, 300.0),
    (math.nan, 300.0),
])
@pytest.mark.parametrize("kernel", [
    free_energy_pp,
    pressure_pp,
    free_energy_pp_oracle,
], ids=["free_energy_pp", "pressure_pp", "free_energy_pp_oracle"])
def test_non_finite_inputs_are_domain_errors(kernel, z, T):
    # Refused in tau() before any series or thermal sum starts.
    start = time.process_time()
    with pytest.raises(ValueError):
        kernel(z, T)
    assert time.process_time() - start < 0.05


@pytest.mark.parametrize("kernel, z, T", [
    (free_energy_pp, 1.0e-300, 0.0),
    (pressure_pp, 1.0e-200, 0.0),
    (free_energy_pp, 1.0e200, 0.0),
    (pressure_pp, 1.0e100, 0.0),
    (free_energy_pp, 1.0e200, 300.0),
    (pressure_pp, 1.0e200, 300.0),
    (free_energy_pp_oracle, 1.0e-170, 1.0e300),
    (free_energy_pp_oracle, 1.0e-160, 1.0e300),
    (free_energy_pp_oracle, 1.0e200, 300.0),
])
def test_separation_outside_the_float_range_is_a_domain_error(kernel, z, T):
    # Outside [1e-12, 1e5] m, z**3 or z**4 would overflow or underflow to 0,
    # tau^2 would overflow at 1e200 m and 300 K, and the thermal sum's
    # prefactor k_B T/(4 pi z^2) would divide by a z*z that underflows to 0;
    # the domain check refuses z before any of them is formed.
    start = time.process_time()
    with pytest.raises(ValueError, match=re.escape(
            f"separation z={z!r} lies outside the served range [1e-12, 1e5] m")):
        kernel(z, T)
    assert time.process_time() - start < 0.05


def test_free_energy_reference_values():
    result = free_energy_pp(1.0e-6, 300.0)
    assert_allclose(result.value, F_1UM_300K, rtol=1.0e-12)
    assert_allclose(result.bracket, BRACKET_1UM_300K, rtol=1.0e-12)
    # terms_used counts work, not accuracy: the kernel sums at most 6 terms.
    assert 1 <= result.terms_used <= 6


def test_free_energy_separation_ratios():
    f10 = free_energy_pp(1.0e-6, 300.0).value
    f15 = free_energy_pp(1.5e-6, 300.0).value
    f20 = free_energy_pp(2.0e-6, 300.0).value
    assert_allclose(f15 / f10, RATIO_15_TO_10, rtol=1.0e-9)
    assert_allclose(f20 / f10, RATIO_20_TO_10, rtol=1.0e-9)
    # four-digit rounded benchmarks
    assert_allclose(f15 / f10, 0.3123, atol=5.0e-5)
    assert_allclose(f20 / f10, 0.1431, atol=5.0e-5)


def test_free_energy_is_negative_with_bracket_above_floor():
    for z in (0.5e-6, 1.0e-6, 3.0e-6, 10.0e-6):
        result = free_energy_pp(z, 300.0)
        assert result.value < 0.0
        assert result.bracket > 0.5 * ZETA3
        assert result.terms_used >= 1


def test_high_temperature_bracket_approaches_classical_floor():
    T = temperature_for_tau(1.0e-6, 10.0)
    bracket = free_energy_pp(1.0e-6, T).bracket
    assert abs(bracket - 0.5 * ZETA3) / (0.5 * ZETA3) < 1.0e-3
    assert bracket > 0.5 * ZETA3


def test_high_temperature_tail_is_exponentially_small():
    # The sum above the classical floor is dominated by its first term,
    # which carries e^(-tau) (1 + tau + ...); C = 40 covers tau in [5, 30].
    for tau_value in np.linspace(5.0, 30.0, 11):
        T = temperature_for_tau(1.0e-6, tau_value)
        bracket = free_energy_pp(1.0e-6, T).bracket
        assert bracket - 0.5 * ZETA3 <= 40.0 * math.exp(-tau_value)


def test_zero_temperature_dedicated_path():
    z = 1.0e-6
    expected = -math.pi**2 * REDUCED_PLANCK * LIGHT_SPEED / (720.0 * z**3)
    result = free_energy_pp(z, 0.0)
    assert result.value == expected
    assert math.isinf(result.bracket)
    assert result.terms_used == 0
    # g(0) is 1.0 exactly, so E_pp takes the closed zero-temperature value.
    closed_integral = -math.pi**2 * REDUCED_PLANCK * LIGHT_SPEED / (1440.0 * z**2)
    assert plates._plate_kernel(z, 0.0)[2] == closed_integral


def assert_kernel_matches_mpmath(target):
    mp = pytest.importorskip("mpmath")
    z = 1.0e-6
    T = temperature_for_tau(z, target)
    reference_f, reference_p, reference_e = mpmath_plates(mp, z, T)
    result = free_energy_pp(z, T)
    assert result.terms_used <= 6
    assert relative_error(result.value, reference_f) <= KERNEL_REL_BOUND
    assert relative_error(pressure_pp(z, T), reference_p) <= KERNEL_REL_BOUND
    assert relative_error(plates._plate_kernel(z, T)[2], reference_e) <= KERNEL_REL_BOUND


def test_small_tau_is_served_by_the_dual_series():
    # The direct series would need about 900 terms here; the dual needs none.
    assert_kernel_matches_mpmath(0.999e-3)


@pytest.mark.parametrize("target", TAU_GRID, ids=lambda t: f"tau={t:.15g}")
def test_kernel_matches_mpmath(target):
    assert_kernel_matches_mpmath(target)


def test_kernel_is_continuous_across_two_pi():
    # The kernel switches from the dual to the direct series at tau = 2 pi;
    # its step there must match the reference's step to the stated bound.
    mp = pytest.importorskip("mpmath")
    z = 1.0e-6
    below, above = (temperature_for_tau(z, t) for t in TAU_GRID[-2:])
    reference = [mpmath_plates(mp, z, T) for T in (below, above)]
    kernel = [(free_energy_pp(z, T).value, pressure_pp(z, T), plates._plate_kernel(z, T)[2])
              for T in (below, above)]
    for i in range(3):
        step = (kernel[1][i] - kernel[0][i]) - (reference[1][i] - reference[0][i])
        assert float(abs(step / reference[0][i])) <= 2.0 * KERNEL_REL_BOUND


def test_magnitude_strictly_decreases_with_separation():
    grid = np.linspace(0.5e-6, 5.0e-6, 30)
    values = np.array([abs(free_energy_pp(z, 300.0).value) for z in grid])
    assert np.all(np.diff(values) < 0.0)


def test_scaling_collapses_onto_tau():
    # value * z^2 / T depends on tau alone; doubling z while halving T
    # keeps tau bit-identical.
    rng = np.random.default_rng(42)
    for _ in range(5):
        z = rng.uniform(0.5e-6, 3.0e-6)
        T = rng.uniform(50.0, 600.0)
        lhs = free_energy_pp(z, T)
        rhs = free_energy_pp(2.0 * z, T / 2.0)
        assert tau(2.0 * z, T / 2.0) == tau(z, T)
        assert_allclose(rhs.value * (2.0 * z) ** 2 / (T / 2.0),
                        lhs.value * z**2 / T, rtol=1.0e-12)


def test_series_matches_oracle_spot_check():
    series = free_energy_pp(1.0e-6, 300.0).value
    oracle = free_energy_pp_oracle(1.0e-6, 300.0).value
    assert abs(series - oracle) / abs(oracle) < 1.0e-9


@pytest.mark.parametrize("target", [0.1, 1.0, 2.0 * math.pi * (1.0 - 1.0e-9),
                                    2.0 * math.pi * (1.0 + 1.0e-9), 10.0, 100.0],
                         ids=lambda t: f"tau={t:.10g}")
def test_series_matches_oracle(target):
    # The oracle targets 1e-12; it shares no code with the closed series.
    z = 1.0e-6
    T = temperature_for_tau(z, target)
    series = free_energy_pp(z, T).value
    oracle = free_energy_pp_oracle(z, T).value
    assert relative_error(series, oracle) <= 1.0e-10


def test_oracle_classical_index_alone():
    # The momentum integral from 0 is -zeta(3), so the classical index alone
    # gives -(k_B T / (4 pi z^2)) zeta(3)/2.
    assert_allclose(plates._momentum_integral(0.0), -ZETA3, rtol=1.0e-12)


def test_oracle_reports_truncation_instead_of_lying():
    with pytest.raises(ConvergenceError):
        free_energy_pp_oracle(1.0e-6, 300.0, l_max=3)


def test_failed_momentum_quadrature_is_a_convergence_error(monkeypatch):
    def exhausted(*args, **kwargs):
        raise QuadratureError("stopped at 300 subintervals")

    monkeypatch.setattr(plates, "integrate", exhausted)
    with pytest.raises(ConvergenceError, match="momentum integral"):
        free_energy_pp_oracle(1.0e-6, 300.0)


@pytest.mark.parametrize("z, T, refusal", [
    # z lies outside the domain, which is checked first.
    pytest.param(1.0e-300, 300.0, re.escape("separation z=1e-300 lies outside the served "
                                            "range [1e-12, 1e5] m"), id="1e-300-300.0"),
    pytest.param(1.0e-9, 1.0e-300, "tau=", id="1e-09-1e-300"),
    pytest.param(1.0e-6, 5.0e-324, "tau=", id="1e-06-5e-324"),
])
def test_oracle_refuses_a_tau_that_rounds_away(z, T, refusal):
    # 1 - e^(-tau) rounds to 0, so the thermal sum's tail bound is undefined:
    # an accuracy refusal, reachable inside the domain at a tiny T.
    start = time.process_time()
    with pytest.raises(ValueError, match=refusal):
        free_energy_pp_oracle(z, T)
    assert time.process_time() - start < 0.05


def test_oracle_rejects_zero_temperature():
    with pytest.raises(ValueError):
        free_energy_pp_oracle(1.0e-6, 0.0)


def test_pressure_reference_value_and_sign():
    assert_allclose(pressure_pp(1.5e-6, 300.0), PRESSURE_15UM_300K, rtol=1.0e-12)
    for z in (0.5e-6, 1.0e-6, 2.0e-6, 5.0e-6):
        assert pressure_pp(z, 300.0) < 0.0


def test_pressure_matches_energy_derivative():
    grid = np.linspace(0.8e-6, 3.0e-6, 20)
    for z in grid:
        h = 1.0e-4 * z
        derivative = -(free_energy_pp(z + h, 300.0).value
                       - free_energy_pp(z - h, 300.0).value) / (2.0 * h)
        assert_allclose(pressure_pp(z, 300.0), derivative, rtol=1.0e-6)


def test_pressure_zero_temperature_path():
    z = 1.0e-6
    expected = -math.pi**2 * REDUCED_PLANCK * LIGHT_SPEED / (240.0 * z**4)
    assert pressure_pp(z, 0.0) == expected


def test_pressure_classical_limit():
    z = 1.0e-6
    T = temperature_for_tau(z, 10.0)
    classical = -BOLTZMANN * T * ZETA3 / (4.0 * math.pi * z**3)
    assert_allclose(pressure_pp(z, T), classical, rtol=1.0e-2)


def test_free_energy_areal_invariants():
    with pytest.raises(ValueError):
        FreeEnergyAreal(value=1.0, bracket=1.0, terms_used=1)
    with pytest.raises(ValueError):
        FreeEnergyAreal(value=-1.0, bracket=0.1, terms_used=1)
    with pytest.raises(ValueError):
        FreeEnergyAreal(value=-1.0, bracket=1.0, terms_used=-2)


def test_free_energy_areal_is_a_plain_record():
    by_keyword = FreeEnergyAreal(value=-1.0, bracket=1.0, terms_used=3)
    by_position = FreeEnergyAreal(-1.0, 1.0, 3)
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert by_keyword != FreeEnergyAreal(-2.0, 1.0, 3)
    assert by_keyword != FreeEnergyAreal(-1.0, 1.5, 3)
    assert by_keyword != FreeEnergyAreal(-1.0, 1.0, 4)
    assert by_keyword != (-1.0, 1.0, 3)
    assert repr(by_keyword) == "FreeEnergyAreal(value=-1.0, bracket=1.0, terms_used=3)"
    assert free_energy_pp(1.0e-6, 300.0) == free_energy_pp(1.0e-6, 300.0)
