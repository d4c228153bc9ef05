"""Unit parsing, key-value configuration files and separation grids.

Everything inside the package is strict SI; these helpers convert at the
command-line boundary only.  Lengths accept the suffixes nm, um, mm, cm, m
(bare numbers are metres); temperatures accept an optional trailing K.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterator

from .exceptions import LENGTH, check_finite

#: Unit factors of each quantity; an empty suffix is the SI unit.
_UNITS = {
    "length": {"": 1.0, "nm": 1.0e-9, "um": 1.0e-6, "mm": 1.0e-3, "cm": 1.0e-2, "m": 1.0},
    "temperature": {"": 1.0, "K": 1.0},
}

#: Most points ``build_grid`` builds; a larger grid is refused before any
#: point is computed.
_MAX_GRID_POINTS = 100_000

_NUMBER_WITH_UNIT = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$"
)


def _parse(quantity: str, text: str) -> float:
    """A number with an optional unit suffix of ``quantity``, in SI units."""
    match = _NUMBER_WITH_UNIT.match(text)
    if not match:
        raise ValueError(f"cannot parse {quantity} {text!r}")
    number, unit = match.groups()
    factors = _UNITS[quantity]
    if unit not in factors:
        raise ValueError(f"unknown {quantity} unit {unit!r} in {text!r}")
    value = float(number) * factors[unit]
    if not math.isfinite(value):
        raise ValueError(f"{quantity} {text!r} is not finite")
    return value


def parse_length(text: str) -> float:
    """Metres from a string with an optional length suffix; strings only."""
    return _parse("length", text)


def parse_temperature(text: str) -> float:
    """Kelvin from a string with an optional trailing K; strings only."""
    return _parse("temperature", text)


def _lines(path: str | os.PathLike[str]) -> Iterator[tuple[str, str, str]]:
    """Yield ``path:lineno``, the stripped text before any # and the raw
    line, for each line of a UTF-8 text file that is not blank or a comment."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line, raw


def parse_kv_file(path: str | os.PathLike[str]) -> dict[str, str]:
    """Read a flat ``key = value`` text file; # starts a comment."""
    settings: dict[str, str] = {}
    for where, line, raw in _lines(path):
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{where}: empty key or value in {raw!r}")
        settings[key] = value
    return settings


def build_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid; empty when stop < start.

    The end point is included with a small tolerance so decimal steps like
    0.05 um land exactly 41 points on [1 um, 3 um].  A grid of more than
    100 000 points, or whose points repeat, is a ValueError.
    """
    for name, length in (("start", start), ("stop", stop), ("step", step)):
        check_finite(f"grid {name}", length, LENGTH)
    if stop < start:
        return []
    span = (stop - start) / step + 1.0e-9
    if not span < _MAX_GRID_POINTS:
        raise ValueError(f"grid from {start!r} to {stop!r} in steps of {step!r} "
                         f"exceeds {_MAX_GRID_POINTS} points")
    grid = [start + i * step for i in range(int(span) + 1)]
    if any(b <= prev for prev, b in zip(grid, grid[1:])):
        raise ValueError(f"grid step {step!r} is below the float spacing of its points")
    return grid
