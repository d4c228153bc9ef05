"""Exception types shared across the package, its served domain and the one
check on it, and the bases of its records.

Domain errors (bad arguments, inconsistent configuration) raise plain
ValueError subclasses and map to the CLI usage exit code.  Numerical
failures raise NumericalError subclasses and map to the numerical-failure
exit code, so a truncated sum or quadrature is never silently accepted.

Records list their fields as ``__slots__``: ``_Fields`` compares, prints,
copies and pickles them, and ``_Record`` also stores and freezes them.
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
#: An error budget's magnitudes, its confidence beta and its blend
#: coefficients q, which lie in the attested Q_RANGE_95 at beta = 0.95.
MAGNITUDE = (0.0, math.nextafter(math.inf, 0.0), False, "[0, inf)")
CONFIDENCE = (math.ulp(0.0), math.nextafter(1.0, 0.0), False, "(0, 1)")
BLEND_COEFFICIENT = (math.ulp(0.0), 1.0, False, "(0, 1]")
Q_RANGE_95 = (0.71, 0.81, False, "[0.71, 0.81]")


def check_finite(name: str, x: float, domain: tuple) -> float:
    """x, if it lies in ``domain``, one of the tuples above; else a
    ValueError naming ``name``, x and the range.

    The package's one domain check on a served quantity; NaN fails its
    chained comparison, so NaN and +-inf are refused too.
    """
    low, high, zero, text = domain
    if low <= x <= high or (zero and x == 0.0):
        return x
    raise ValueError(f"{name}={x!r} lies outside the served range {text}")


class _Fields:
    """Base of every record: its ``__slots__`` are its fields, in order.

    A record compares equal only to the same class, field by field, prints
    every field, and copies and pickles through its constructor, so its rules
    run again.  On this base alone it is mutable and unhashable.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())


class _Record(_Fields):
    """Base of the frozen records: ``__init__`` calls ``_store`` once, a field
    cannot be assigned or deleted afterwards, and a record hashes as its fields."""

    __slots__ = ()

    def _store(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
