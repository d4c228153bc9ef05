"""Thermal Casimir free energy and pressure between parallel ideal-metal plates.

For two plane-parallel ideal-metal plates at separation z and temperature T
the free energy per unit area and the pressure are

    F_pp(z, T) = - (k_B T / (4 pi z^2)) * B(tau)
               = - (pi^2 hbar c / (720 z^3)) * f(tau),   f = 45 tau B / pi^4

    P_pp(z, T) = - dF_pp/dz
               = - (k_B T / (4 pi z^3)) * (2B - tau B')(tau)
               = - (pi^2 hbar c / (240 z^4)) * p(tau),   p = 15 tau (2B - tau B') / pi^4

with the dimensionless thermal parameter

    tau = 4 pi z k_B T / (hbar c).

Both brackets come from one function and its logarithmic derivatives
(D = tau d/dtau):

    S(tau) = zeta(3)/2 + sum_{n>=1} x / (n^3 (1 - x)),   x = e^(-n tau)
    B      = S - DS
    2B - tau B' = 2S - 3DS + D^2 S.

One loop serves both representations: it sums S, DS and D^2 S at an
argument of at least 2 pi, tau itself for tau >= 2 pi, and below it the dual
parameter sigma = 4 pi^2 / tau, through Ramanujan's zeta(3) formula
(Berndt, Ramanujan's Notebooks II, Entry 21(i)):

    S(tau) = -(tau^2 / 4 pi^2) S(sigma) + tau^3/1440 + pi^2 tau/72 + pi^4/(90 tau)

on which D acts as -sigma d/dsigma.  S itself gives the antiderivative of
F_pp that vanishes at infinity:

    E_pp(z, T) = integral_z^inf F_pp(z', T) dz'
               = - k_B T S(tau) / (4 pi z)
               = - (pi^2 hbar c / (1440 z^2)) * g(tau),   g = 90 tau S / pi^4.

T = 0 is the point sigma = inf of the dual form, where every term vanishes
and f = p = g = 1 exactly: the standard zero-temperature results

    F_pp(z, 0) = - pi^2 hbar c / (720 z^3)
    P_pp(z, 0) = - pi^2 hbar c / (240 z^4)
    E_pp(z, 0) = - pi^2 hbar c / (1440 z^2).

One private function, ``_plate_kernel(z, T, want)``, sums the series once
and reads from it only what its caller uses: F_pp, P_pp or E_pp with F_pp.
The public entries check z and T first; ``pfa`` calls it for every gap.

At tau >> 1 the bracket B approaches zeta(3)/2 (classical limit).  A
brute-force cross-check sums the thermal (Matsubara) series directly,
integrating each term numerically over the dimensionless momentum
variable y up to its exact analytic tail; it shares no code with the
closed series and is kept deliberately independent.
"""

from __future__ import annotations

import math
import sys

from .constants import BOLTZMANN, LIGHT_SPEED, REDUCED_PLANCK
from .exceptions import (LENGTH, TEMPERATURE, ConvergenceError, QuadratureError, _Fields,
                         check_finite)
from .quadrature import integrate

#: Riemann zeta(3) (Apery's constant), to full double precision.
ZETA3 = 1.2020569031595943

_TWO_PI = 2.0 * math.pi
_PI_SQ = math.pi**2
_FOUR_PI_SQ = 4.0 * _PI_SQ
_F_NORM = 45.0 / math.pi**4  # f = _F_NORM * tau * B
_P_NORM = 15.0 / math.pi**4  # p = _P_NORM * tau * (2B - tau B')
_G_NORM = 90.0 / math.pi**4  # g = _G_NORM * tau * S
#: What a ``_plate_kernel`` caller reads, each also its slot in the result.
_F, _P, _E = 0, 1, 2
_PI4_OVER_45 = math.pi**4 / 45.0  # 2 zeta(4)
#: zeta(3)/2, the classical (tau -> inf) floor of the bracket B.
_BRACKET_FLOOR = 0.5 * ZETA3
#: -pi^2 hbar c, multiplied in the order of every F_pp, P_pp and E_pp product.
_MINUS_PI_SQ_HBAR_C = -_PI_SQ * REDUCED_PLANCK * LIGHT_SPEED

#: Bound on the remainder of each summed moment S, DS and D^2 S at which
#: the loop stops.  S >= zeta(3)/2, so it is below 2e-18 relative.
_TAIL_BOUND = 1.0e-18

#: Relative tolerance of the thermal-sum oracle: each momentum integral,
#: and the tail bound at which the sum over indices stops.
_ORACLE_TOL = 1.0e-12

#: Upper end of every momentum quadrature, where the two-term analytic tail
#: of the momentum integral takes over: its next term, (1+3y)e^(-3y)/27, is
#: below 1e-30 of the tail from here on.  A lower limit at or above it uses
#: the tail alone.
_ANALYTIC_TAIL_MIN = 34.0


def tau(z: float, T: float) -> float:
    """Dimensionless thermal parameter  tau = 4 pi z k_B T / (hbar c)."""
    _check_domain(z, T)
    return _tau(z, T)


def _tau(z: float, T: float) -> float:
    # Unchecked: for _plate_kernel, which serves pfa's gaps a + offset.
    return 4.0 * math.pi * z * BOLTZMANN * T / (REDUCED_PLANCK * LIGHT_SPEED)


def _check_domain(z: float, T: float) -> None:
    # Every public entry refuses a z or T outside the served domain here,
    # before any series starts; inside it F_pp, P_pp and E_pp are finite and < 0.
    check_finite("separation z", z, LENGTH)
    check_finite("temperature", T, TEMPERATURE)


class FreeEnergyAreal(_Fields):
    """Free energy per unit plate area.

    value       J/m^2, negative (attraction) for every valid input
    bracket     the dimensionless bracket B multiplying -k_B T/(4 pi z^2);
                +inf at T = 0, where that representation degenerates
    terms_used  number of series terms (or thermal-sum indices) evaluated

    A plain record, built on every kernel call: not frozen, and unhashable.
    """

    __slots__ = ("value", "bracket", "terms_used")

    def __init__(self, value: float, bracket: float, terms_used: int) -> None:
        if not value < 0.0:
            raise ValueError(f"areal free energy must be negative, got {value!r}")
        if bracket < _BRACKET_FLOOR:
            raise ValueError(f"bracket {bracket!r} below its classical floor {_BRACKET_FLOOR!r}")
        if terms_used < 0:
            raise ValueError("terms_used must be non-negative")
        self.value = value
        self.bracket = bracket
        self.terms_used = terms_used


#: z_T T, where z_T is the gap at which tau = 4 pi z k_B T / (hbar c) = 2 pi:
#: below it ``_plate_kernel`` sums the dual series, from it on the direct one.
_Z_T_TIMES_T = REDUCED_PLANCK * LIGHT_SPEED / (2.0 * BOLTZMANN)


def _plate_kernel(z: float, T: float, want: int) -> tuple:
    """(F_pp, P_pp, E_pp, B, terms summed) in SI for every z > 0 and T >= 0, with
    no domain check (``pfa``'s gaps reach 3e5 m), and None in each slot ``want``
    does not read: ``_F`` reads F_pp and B, ``_P`` P_pp, ``_E`` E_pp, F_pp and B.

    The loop sums S, DS and D^2 S (D = a d/da) at a = tau or sigma (inf at
    T = 0).  With u = n a, x = e^(-u) and w = 1/(1 - x), term n of each is

        m0 = x w / n^3,   -m1 = -u w m0,   m2 - m1 = (u (1 + x) w - 1) m1.

    For a >= 2 pi, u w >= 1, so m0 <= m1 <= m2; each of m0, m1, m2 shrinks
    at least by q = e^(-a) from one n to the next.  The remainder of every
    sum after term n is therefore at most m2 q / (1 - q), and the loop stops
    once that drops below _TAIL_BOUND (at most 6 terms), whatever is read.
    """
    t = _tau(z, T)
    direct = t >= _TWO_PI
    a = t if direct else (_FOUR_PI_SQ / t if t > 0.0 else math.inf)
    q = math.exp(-a)
    ratio = q / (1.0 - q)
    s0, s1, s2 = 0.5 * ZETA3, 0.0, 0.0  # S, DS and the sum of every m2
    n, x = 0, q
    while x > 0.0:  # 0 once e^(-a) underflows, as at a = inf (T = 0, dual side)
        n += 1
        u = n * a
        w = 1.0 / (1.0 - x)
        m0 = x * w / (n * n * n)
        m1 = u * w * m0
        m2 = u * (1.0 + x) * w * m1
        s0 += m0
        s1 -= m1
        s2 += m2
        if m2 * ratio <= _TAIL_BOUND:
            break
        x *= q
    # f, p and g are F_pp, P_pp and E_pp in units of their values at T = 0.  On the
    # dual side, with the sums at sigma, where tau d/dtau = -D, the duality gives
    #   tau B             = pi^4/45 + tau^3 [(S - DS)/(4 pi^2) - tau/720]
    #   tau (2B - tau B') = pi^4/15 + tau^3 [(DS - D^2 S)/(4 pi^2) + tau/720]
    #   tau S             = pi^4/90 + tau^2 [pi^2/72 + tau (tau/1440 - S/(4 pi^2))].
    if want == _P:
        s2 += s1  # D^2 S
        p = (_P_NORM * t * (2.0 * s0 - 3.0 * s1 + s2) if direct else
             1.0 + _P_NORM * (t * t * t) * ((s1 - s2) / _FOUR_PI_SQ + t / 720.0))
        return None, _MINUS_PI_SQ_HBAR_C / (240.0 * z**4) * p, None, None, n
    if direct:
        bracket = s0 - s1
        f = _F_NORM * t * bracket
    else:
        f = 1.0 + _F_NORM * (t * t * t) * ((s0 - s1) / _FOUR_PI_SQ - t / 720.0)
        # B = pi^4 f / (45 tau), with 1/tau = sigma / (4 pi^2); +inf at T = 0.
        bracket = _PI_SQ / 180.0 * a * f
    F = _MINUS_PI_SQ_HBAR_C / (720.0 * z**3) * f
    if want == _F:
        return F, None, None, bracket, n
    g = (_G_NORM * t * s0 if direct else
         1.0 + _G_NORM * t * t * (_PI_SQ / 72.0 + t * (t / 1440.0 - s0 / _FOUR_PI_SQ)))
    return F, None, _MINUS_PI_SQ_HBAR_C / (1440.0 * z**2) * g, bracket, n


def free_energy_pp(z: float, T: float) -> FreeEnergyAreal:
    """Free energy per unit area of two parallel ideal-metal plates.

        F_pp(z, T) = - (pi^2 hbar c / (720 z^3)) * f(tau)

    Valid for every T >= 0; at T = 0, f = 1 exactly and the bracket is +inf.
    """
    _check_domain(z, T)
    F, _, _, bracket, terms = _plate_kernel(z, T, _F)
    return FreeEnergyAreal(F, bracket, terms)


def pressure_pp(z: float, T: float) -> float:
    """Casimir pressure between parallel ideal-metal plates, in N/m^2.

        P_pp(z, T) = - dF_pp/dz = - (pi^2 hbar c / (240 z^4)) * p(tau)

    Negative for all valid inputs (the plates attract).
    """
    _check_domain(z, T)
    return _plate_kernel(z, T, _P)[_P]


def _momentum_integrand(y: float) -> float:
    # y * ln(1 - e^(-y)), continued by its limit 0 at y = 0.
    if y <= 0.0:
        return 0.0
    if y < 1.0e-8:
        return y * math.log(y)
    return y * math.log1p(-math.exp(-y))


def _momentum_integral(m: float) -> float:
    """Integral of y*ln(1 - e^(-y)) over y in [m, inf), m = tau l >= 0; non-positive.

    With c = max(m, _ANALYTIC_TAIL_MIN), the part on [m, c] is one call of
    the adaptive Gauss-Kronrod rule of ``caslens.quadrature`` (none when
    m >= c), with a breakpoint at y = 1 when m < 1 so the logarithmic
    behaviour near y = 0 gets its own initial panel.  The part on [c, inf)
    is the two-term analytic tail -(1+c)e^(-c) - (2c+1)e^(-2c)/8, exact to
    double precision.  Both parts are non-positive, so their relative
    errors just add.  A quadrature that misses the tolerance raises
    ConvergenceError.
    """
    end = max(m, _ANALYTIC_TAIL_MIN)
    total = -(1.0 + end) * math.exp(-end) - (2.0 * end + 1.0) * math.exp(-2.0 * end) / 8.0
    if m < end:
        try:
            total += integrate(_momentum_integrand, m, end, rel_tol=_ORACLE_TOL,
                               points=(1.0,) if m < 1.0 else ())[0]
        except QuadratureError as exc:
            raise ConvergenceError(
                f"momentum integral on [{m}, {end}] did not converge: {exc}"
            ) from exc
    return total


def free_energy_pp_oracle(z: float, T: float, *, l_max: int = 100_000) -> FreeEnergyAreal:
    """Brute-force thermal sum for F_pp; independent of the closed series.

    Sums the thermal indices l = 0, 1, 2, ... (index 0 halved), each term an
    integral over the dimensionless momentum variable y = 2 z q_l from
    y = tau*l (``_momentum_integral``): a Gauss-Kronrod quadrature
    (``caslens.quadrature``) up to y = _ANALYTIC_TAIL_MIN and the exact
    analytic tail beyond it, so no range is infinite.  The sum stops once
    a geometric tail bound drops below 1e-12 of the accumulated value;
    running past l_max raises instead of silently truncating.  An l_max
    that is not an integer >= 1 is refused before any quadrature runs, and
    so is a sum whose tail bound after l_max exceeds the tolerance of every
    total it can reach (ConvergenceError): at tau = 1.6e-4 with the default
    l_max, the sum needs about 34/tau indices and is refused at once.
    """
    if not isinstance(l_max, int) or l_max < 1:
        raise ValueError(f"l_max must be an integer >= 1, got {l_max!r}")
    if not T > 0.0:
        raise ValueError("the brute-force sum requires T > 0; "
                         "free_energy_pp handles T = 0 directly")
    t = tau(z, T)
    x = math.exp(-t)
    one_minus_x = 1.0 - x
    if one_minus_x == 0.0:
        raise ValueError(f"tau={t!r} is too small for the thermal sum: "
                         "1 - e^(-tau) rounds to 0")

    def tail(nxt: int) -> float:
        # |integral(m)| <= (1+m)e^(-m) / (1-e^(-m)), summed geometrically
        # over the indices j >= nxt; it falls with nxt.
        x_pow = math.exp(-t * nxt)
        return (
            x_pow / one_minus_x
            + t * x_pow * (nxt * one_minus_x + x) / one_minus_x**2
        ) / (1.0 - x_pow)

    # Every integral is <= 0, and |integral(m)| falls with m, so |total| never
    # exceeds zeta(3)/2 + (1/tau) integral_0^inf |integral(m)| dm
    # = zeta(3)/2 + pi^4/(45 tau); twice that covers the quadratures' own
    # error.  A tail after l_max above the tolerance of it cannot stop the sum
    # (beyond sys.maxsize indices the tail is 0: e^(-1000) underflows).
    if tail(min(l_max, sys.maxsize) + 1) > 2.0 * _ORACLE_TOL * (0.5 * ZETA3 + _PI4_OVER_45 / t):
        raise ConvergenceError(
            f"thermal sum cannot converge within l_max={l_max} indices at "
            f"tau={t:.3e}; raise l_max"
        )
    total = 0.5 * _momentum_integral(0.0)
    terms = 1
    for l in range(1, l_max + 1):
        total += _momentum_integral(t * l)
        terms += 1
        if tail(l + 1) <= _ORACLE_TOL * abs(total):
            break
    else:
        raise ConvergenceError(
            f"thermal sum not converged after l_max={l_max} indices at "
            f"tau={t:.3e}; raise l_max"
        )
    # k_B T / (4 pi z^2) times the sum, finite wherever tau does not round away.
    value = BOLTZMANN * T / (4.0 * math.pi * z * z) * total
    return FreeEnergyAreal(value=value, bracket=-total, terms_used=terms)
