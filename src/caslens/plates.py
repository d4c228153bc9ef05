"""Thermal Casimir free energy and pressure between parallel ideal-metal plates.

For two plane-parallel ideal-metal plates at separation z and temperature T
the free energy per unit area is

    F_pp(z, T) = - (k_B T / (4 pi z^2)) * bracket(tau)

    bracket(tau) = zeta(3)/2
                 + sum_{n>=1} e^(-tau n) / (n^2 (1 - e^(-tau n)))
                                 * (1/n + tau / (1 - e^(-tau n)))

with the dimensionless thermal parameter

    tau = 4 pi z k_B T / (hbar c).

The pressure is the negative separation derivative of F_pp, differentiated
term by term (tau itself depends on z).  A brute-force cross-check sums the
thermal (Matsubara) series directly, integrating each term numerically over
the dimensionless momentum variable y; it shares no code with the closed
series and is kept deliberately independent.

At tau >> 1 the bracket approaches zeta(3)/2 (classical limit); at T = 0 a
dedicated code path returns the standard zero-temperature results

    F_pp(z, 0) = - pi^2 hbar c / (720 z^3)
    P_pp(z, 0) = - pi^2 hbar c / (240 z^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import SI, PhysicalConstants
from .exceptions import ConvergenceError, QuadratureError, SlowConvergenceError
from .exceptions import check_finite
from .quadrature import integrate

#: Riemann zeta(3) (Apery's constant), to full double precision.
ZETA3 = 1.2020569031595943

#: Smallest thermal parameter the closed series accepts.  Below this the
#: term count explodes; use the zero-temperature asymptote or the oracle.
TAU_MIN = 1.0e-3

#: Relative size at which a series term stops the summation.
SERIES_TERM_CUTOFF = 1.0e-12

#: Hard cap on summed terms (protects the small-tau corner).
MAX_SERIES_TERMS = 10**6

#: Lower integration limits at or above this value use the two-term
#: analytic tail of the momentum integral; the neglected remainder is
#: below double precision there, and adaptive quadrature on such a far
#: tail would only lose relative accuracy.
_ANALYTIC_TAIL_MIN = 34.0


def tau(z: float, T: float, *, constants: PhysicalConstants = SI) -> float:
    """Dimensionless thermal parameter  tau = 4 pi z k_B T / (hbar c).

    Every kernel entry point goes through here, so this is where a NaN or
    infinite z or T is refused, before any series starts.
    """
    check_finite("separation", z)
    check_finite("temperature", T, strict=False)
    return 4.0 * math.pi * z * constants.boltzmann * T / (
        constants.reduced_planck * constants.light_speed
    )


@dataclass(frozen=True)
class FreeEnergyAreal:
    """Free energy per unit plate area.

    value       J/m^2, negative (attraction) for every valid input
    bracket     the dimensionless bracket multiplying -k_B T/(4 pi z^2);
                +inf on the zero-temperature path where the bracket
                representation degenerates
    terms_used  number of series terms (or thermal-sum indices) evaluated
    """

    value: float
    bracket: float
    terms_used: int

    def __post_init__(self) -> None:
        if not self.value < 0.0:
            raise ValueError(f"areal free energy must be negative, got {self.value!r}")
        if self.bracket < 0.5 * ZETA3:
            raise ValueError(
                f"bracket {self.bracket!r} below its classical floor {0.5 * ZETA3!r}"
            )
        if self.terms_used < 0:
            raise ValueError("terms_used must be non-negative")


def _zero_temperature_free_energy(z: float, constants: PhysicalConstants) -> float:
    # F_pp(z, 0) = - pi^2 hbar c / (720 z^3)
    return -(math.pi**2) * constants.reduced_planck * constants.light_speed / (
        720.0 * z**3
    )


def _zero_temperature_pressure(z: float, constants: PhysicalConstants) -> float:
    # P_pp(z, 0) = - pi^2 hbar c / (240 z^4)
    return -(math.pi**2) * constants.reduced_planck * constants.light_speed / (
        240.0 * z**4
    )


def _series_bracket(tau_z: float) -> tuple[float, int]:
    """Sum the closed-series bracket at the given thermal parameter.

    Terms are added until one falls below SERIES_TERM_CUTOFF of the running
    bracket; exceeding MAX_SERIES_TERMS raises instead of truncating.
    """
    bracket = 0.5 * ZETA3
    if math.exp(-tau_z) == 0.0:  # every term is 0; tau may be inf
        return bracket, 1
    for n in range(1, MAX_SERIES_TERMS + 1):
        x = math.exp(-tau_z * n)
        one_minus = 1.0 - x
        term = x / (n * n * one_minus) * (1.0 / n + tau_z / one_minus)
        bracket += term
        if term < SERIES_TERM_CUTOFF * bracket:
            return bracket, n
    raise ConvergenceError(
        f"free-energy series did not converge within {MAX_SERIES_TERMS} terms "
        f"at tau={tau_z!r}"
    )


def free_energy_pp(
    z: float, T: float, *, constants: PhysicalConstants = SI
) -> FreeEnergyAreal:
    """Free energy per unit area of two parallel ideal-metal plates.

        F_pp(z, T) = - (k_B T / (4 pi z^2)) * bracket(tau)

    T = 0 is served by the dedicated zero-temperature path.  For 0 < tau <
    TAU_MIN the closed series converges too slowly and a SlowConvergenceError
    points the caller at the asymptote or the brute-force oracle.
    """
    t = tau(z, T, constants=constants)
    if T != 0.0 and t < TAU_MIN:
        raise SlowConvergenceError(
            f"tau={t:.3e} is below {TAU_MIN}; use the zero-temperature "
            "asymptote or free_energy_pp_oracle instead of the closed series"
        )
    try:
        if T == 0.0:
            value = _zero_temperature_free_energy(z, constants)
            bracket, terms = math.inf, 0
        else:
            bracket, terms = _series_bracket(t)
            prefactor = constants.boltzmann * T / (4.0 * math.pi * z * z)
            value = -prefactor * bracket
    except ArithmeticError:  # a power of z overflowed, or underflowed to 0
        value = 0.0
    if not -math.inf < value < 0.0:
        raise ValueError(f"separation {z!r} m puts F_pp outside the float range")
    return FreeEnergyAreal(value=value, bracket=bracket, terms_used=terms)


def _pressure_bracket(tau_z: float) -> tuple[float, int]:
    """Sum the pressure bracket 2*bracket(tau) - tau*bracket'(tau).

    Differentiating each free-energy term in tau collapses to

        zeta(3) + sum_{n>=1} [ 2 e^(-tau n) / (n^2 (1-e^(-tau n)))
                                   * (1/n + tau/(1-e^(-tau n)))
                               + tau^2 e^(-tau n) (1 + e^(-tau n))
                                   / (n (1-e^(-tau n))^3) ]

    so every term stays positive and the same truncation rule applies.
    """
    bracket = ZETA3
    if math.exp(-tau_z) == 0.0:  # every term is 0; tau^2 may be inf
        return bracket, 1
    tau_sq = tau_z * tau_z
    for n in range(1, MAX_SERIES_TERMS + 1):
        x = math.exp(-tau_z * n)
        one_minus = 1.0 - x
        energy_part = 2.0 * x / (n * n * one_minus) * (1.0 / n + tau_z / one_minus)
        slope_part = tau_sq * x * (1.0 + x) / (n * one_minus**3)
        term = energy_part + slope_part
        bracket += term
        if term < SERIES_TERM_CUTOFF * bracket:
            return bracket, n
    raise ConvergenceError(
        f"pressure series did not converge within {MAX_SERIES_TERMS} terms "
        f"at tau={tau_z!r}"
    )


def pressure_pp(z: float, T: float, *, constants: PhysicalConstants = SI) -> float:
    """Casimir pressure between parallel ideal-metal plates, in N/m^2.

        P_pp(z, T) = - dF_pp/dz
                   = - (k_B T / (4 pi z^3)) * [2 bracket(tau) - tau bracket'(tau)]

    Negative for all valid inputs (the plates attract).
    """
    t = tau(z, T, constants=constants)
    if T != 0.0 and t < TAU_MIN:
        raise SlowConvergenceError(
            f"tau={t:.3e} is below {TAU_MIN}; use the zero-temperature "
            "asymptote or differentiate free_energy_pp_oracle instead"
        )
    try:
        if T == 0.0:
            value = _zero_temperature_pressure(z, constants)
        else:
            bracket, _ = _pressure_bracket(t)
            value = -constants.boltzmann * T / (4.0 * math.pi * z**3) * bracket
    except ArithmeticError:  # a power of z overflowed, or underflowed to 0
        value = 0.0
    if not -math.inf < value < 0.0:
        raise ValueError(f"separation {z!r} m puts P_pp outside the float range")
    return value


def _momentum_integrand(y: float) -> float:
    # y * ln(1 - e^(-y)), continued by its limit 0 at y = 0.
    if y <= 0.0:
        return 0.0
    if y < 1.0e-8:
        return y * math.log(y)
    ex = math.exp(-y)
    if ex == 0.0:
        return 0.0
    return y * math.log1p(-ex)


def _momentum_integral(m: float, quad_tol: float) -> float:
    """Integral of y*ln(1 - e^(-y)) over y in [m, inf); non-positive.

    Evaluated by the adaptive Gauss-Kronrod rule of ``caslens.quadrature``.
    For m >= _ANALYTIC_TAIL_MIN the two-term analytic tail
    -(1+m)e^(-m) - (2m+1)e^(-2m)/8 is exact to double precision and is
    used directly.  A panel that misses the tolerance raises
    ConvergenceError.
    """
    if m < 0.0:
        raise ValueError(f"lower integration limit must be non-negative, got {m!r}")
    if m >= _ANALYTIC_TAIL_MIN:
        return -(1.0 + m) * math.exp(-m) - (2.0 * m + 1.0) * math.exp(-2.0 * m) / 8.0
    total = 0.0
    # Split at y = 1 so the logarithmic behaviour near y = 0 gets its own
    # panel; both pieces are non-positive, so relative errors just add.
    bounds = (m, 1.0, math.inf) if m < 1.0 else (m, math.inf)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            total += integrate(_momentum_integrand, lo, hi, rel_tol=quad_tol)[0]
        except QuadratureError as exc:
            raise ConvergenceError(
                f"momentum integral on [{lo}, {hi}] did not converge: {exc}"
            ) from exc
    return total


def matsubara_term(
    z: float,
    T: float,
    l: int,
    *,
    quad_tol: float = 1.0e-12,
    constants: PhysicalConstants = SI,
) -> float:
    """Contribution of thermal-sum index l to F_pp, in J/m^2.

    Index 0 carries weight one half.  The l = 0 term alone equals the
    classical value -(k_B T / (4 pi z^2)) * zeta(3)/2.
    """
    if l < 0:
        raise ValueError(f"thermal-sum index must be non-negative, got {l!r}")
    if not T > 0.0:
        raise ValueError("the thermal sum requires T > 0")
    t = tau(z, T, constants=constants)
    weight = 0.5 if l == 0 else 1.0
    prefactor = constants.boltzmann * T / (4.0 * math.pi * z * z)
    return prefactor * weight * _momentum_integral(t * l, quad_tol)


def free_energy_pp_oracle(
    z: float,
    T: float,
    *,
    l_max: int = 100_000,
    quad_tol: float = 1.0e-12,
    constants: PhysicalConstants = SI,
) -> FreeEnergyAreal:
    """Brute-force thermal sum for F_pp; independent of the closed series.

    Sums the thermal indices l = 0, 1, 2, ... (index 0 halved), each term a
    Gauss-Kronrod quadrature (``caslens.quadrature``) over the dimensionless
    momentum variable y = 2 z q_l starting at y = tau*l.  The sum stops once
    a geometric tail bound drops below quad_tol of the accumulated value;
    running past l_max raises instead of silently truncating.
    """
    if not T > 0.0:
        raise ValueError("the brute-force sum requires T > 0; "
                         "free_energy_pp handles T = 0 directly")
    t = tau(z, T, constants=constants)
    total = 0.5 * _momentum_integral(0.0, quad_tol)
    terms = 1
    x = math.exp(-t)
    one_minus_x = 1.0 - x
    for l in range(1, l_max + 1):
        total += _momentum_integral(t * l, quad_tol)
        terms += 1
        # Tail bound: |integral(m)| <= (1+m)e^(-m) / (1-e^(-m)), summed
        # geometrically over the remaining indices j >= l+1.
        nxt = l + 1
        x_pow = math.exp(-t * nxt)
        geometric = (
            x_pow / one_minus_x
            + t * x_pow * (nxt * one_minus_x + x) / one_minus_x**2
        ) / (1.0 - x_pow)
        if geometric <= quad_tol * abs(total):
            break
    else:
        raise ConvergenceError(
            f"thermal sum not converged after l_max={l_max} indices at "
            f"tau={t:.3e}; raise l_max or loosen quad_tol"
        )
    prefactor = constants.boltzmann * T / (4.0 * math.pi * z * z)
    return FreeEnergyAreal(value=prefactor * total, bracket=-total, terms_used=terms)
