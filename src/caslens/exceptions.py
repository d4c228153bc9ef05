"""Exception types shared across the package, and its one domain check.

Domain errors (bad arguments, inconsistent configuration) raise plain
ValueError subclasses and map to the CLI usage exit code.  Numerical
failures raise NumericalError subclasses and map to the numerical-failure
exit code, so a truncated sum or quadrature is never silently accepted.
"""

from __future__ import annotations

import math


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its requested accuracy."""


class ConvergenceError(NumericalError):
    """A truncated sum did not converge within its term budget."""


class QuadratureError(NumericalError):
    """Adaptive quadrature could not meet the requested tolerance."""


class TableLookupError(ValueError):
    """A required coefficient is missing from a user-supplied table."""


class DegenerateBudgetError(ValueError):
    """An error budget is degenerate (e.g. zero scatter of the mean)."""


class DegenerateImperfectionError(ValueError):
    """Imperfection parameters describe an empty or impossible defect."""


def check_finite(name: str, x: float, *, strict: bool = True) -> float:
    """x, if finite and positive (non-negative when not strict); else ValueError.

    The package's one domain check on a length, temperature or tolerance;
    NaN fails its chained comparison, so NaN and +-inf are refused too.
    """
    if 0.0 < x < math.inf or (not strict and x == 0.0):
        return x
    sign = "positive" if strict else "non-negative"
    raise ValueError(f"{name} must be {sign} and finite, got {x!r}")
