"""Exception types shared across the package, its served domain and the one
check on it, and the base of its frozen records.

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


#: The served domain, as (low, high, 0 also served, the range as printed):
#: inside it no product the package forms leaves the float range.
LENGTH = (1.0e-12, 1.0e5, False, "[1e-12, 1e5] m")
LENGTH_OR_ZERO = (1.0e-12, 1.0e5, True, "0 or [1e-12, 1e5] m")
TEMPERATURE = (0.0, 1.0e9, False, "[0, 1e9] K")
TOLERANCE = (math.ulp(0.0), math.nextafter(math.inf, 0.0), False, "(0, inf)")


def check_finite(name: str, x: float, domain: tuple) -> float:
    """x, if it lies in ``domain`` (LENGTH, LENGTH_OR_ZERO, TEMPERATURE or
    TOLERANCE); else a ValueError naming ``name``, x and the range.

    The package's one domain check on a length, temperature or tolerance;
    NaN fails its chained comparison, so NaN and +-inf are refused too.
    """
    low, high, zero, text = domain
    if low <= x <= high or (zero and x == 0.0):
        return x
    raise ValueError(f"{name}={x!r} lies outside the served range {text}")


class _Record:
    """Base of the package's frozen records.

    A record lists its fields, in order, as ``__slots__`` and stores them in
    ``__init__`` with ``object.__setattr__``; assigning or deleting a field
    afterwards raises AttributeError.  Records compare equal (only to the same
    class) and hash as their field tuple, print every field, and copy and
    pickle by calling the class on their fields, so its rules run again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
