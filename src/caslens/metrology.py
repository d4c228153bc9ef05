"""Combination of random and systematic measurement errors.

Systematic components at confidence beta combine as

    delta_s = min( sum_j |c_j|,  k_beta(J) * sqrt(sum_j c_j^2) )

where k_beta(J) is a tabulated coefficient for J components (the shipped
table carries the single attested entry k_0.95(3) = 1.1).  The random and
systematic parts then merge by a regime rule driven by

    r = delta_s / s_mean

with s_mean the scatter (standard deviation) of the mean measurement:

    r < 0.8   random dominates      delta_t = delta_r
    r > 8     systematic dominates  delta_t = delta_s
    else      blend                 delta_t = q_beta(r) * (delta_r + delta_s)

The boundaries r = 0.8 and r = 8 belong to the blend regime.  Blend
coefficients q_beta(r) are user-supplied through a table; at beta = 0.95
they lie in [0.71, 0.81].  No coefficient is ever interpolated or guessed:
a lookup miss is a configuration error.

All magnitudes here are in the caller's units (absolute or relative alike);
every rule is homogeneous of degree one, so the choice does not matter as
long as it is consistent.  Relative totals are computed only against a
measured value the caller supplies explicitly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .config import _lines
from .exceptions import DegenerateBudgetError, TableLookupError

#: Regime thresholds for r = delta_s / s_mean; both edges fall in the blend.
RANDOM_DOMINATES_BELOW = 0.8
SYSTEMATIC_DOMINATES_ABOVE = 8.0

#: Allowed range for blend coefficients at confidence 0.95.
Q_RANGE_95 = (0.71, 0.81)

#: The one attested combination coefficient: three components at 95%.
DEFAULT_K_TABLE: Mapping[tuple[int, float], float] = {(3, 0.95): 1.1}

#: Relative slack when matching a tabulated r value.
_R_MATCH_RTOL = 1.0e-6


class Rule(Enum):
    RANDOM_DOMINATES = "random-dominates"
    SYSTEMATIC_DOMINATES = "systematic-dominates"
    BLEND = "blend"


def combine_systematic(components: Sequence[float], k: float) -> float:
    """Combine systematic error components at a common confidence level.

    Returns min(sum, k * root-sum-square).
    """
    values = [float(c) for c in components]
    if not values:
        raise ValueError("at least one systematic component is required")
    if any(v < 0.0 for v in values):
        raise ValueError("systematic components must be non-negative")
    if not k > 0.0:
        raise ValueError(f"combination coefficient k must be positive, got {k!r}")
    linear = sum(values)
    quadratic = k * math.sqrt(sum(v * v for v in values))
    return min(linear, quadratic)


def select_rule(delta_s: float, s_mean: float) -> tuple[float, Rule]:
    """Pick the combination regime from r = delta_s / s_mean."""
    if delta_s < 0.0:
        raise ValueError("systematic error must be non-negative")
    if not s_mean > 0.0:
        raise DegenerateBudgetError(
            f"scatter of the mean must be positive, got {s_mean!r}"
        )
    r = delta_s / s_mean
    if r < RANDOM_DOMINATES_BELOW:
        return r, Rule.RANDOM_DOMINATES
    if r > SYSTEMATIC_DOMINATES_ABOVE:
        return r, Rule.SYSTEMATIC_DOMINATES
    return r, Rule.BLEND


@dataclass(frozen=True)
class ErrorBudget:
    """Inputs for a total-error combination.

    random_error           total random error delta_r at confidence beta
    systematic_components  individual systematic magnitudes
    variance_of_mean       scatter s_mean of the mean measurement
    beta                   confidence level shared by all entries
    k_table                (J, beta) -> k lookup; the attested default
                           entry (3, 0.95) -> 1.1 is always present
    q_table                (r, beta) -> q lookup for the blend regime
    """

    random_error: float
    systematic_components: tuple[float, ...]
    variance_of_mean: float
    beta: float = 0.95
    k_table: Mapping[tuple[int, float], float] = field(default_factory=dict)
    q_table: Mapping[tuple[float, float], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.random_error < math.inf:
            raise ValueError(
                f"random error must be non-negative and finite, got {self.random_error!r}"
            )
        components = tuple(float(c) for c in self.systematic_components)
        if not components:
            raise ValueError("at least one systematic component is required")
        if not all(0.0 <= c < math.inf for c in components):
            raise ValueError("systematic components must be non-negative and finite")
        if not math.isfinite(self.variance_of_mean):
            raise ValueError(
                f"scatter of the mean must be finite, got {self.variance_of_mean!r}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {self.beta!r}")
        object.__setattr__(self, "systematic_components", components)
        merged = dict(DEFAULT_K_TABLE)
        merged.update(self.k_table)
        for (count, beta), k in merged.items():
            if count < 1 or not 0.0 < k < math.inf:
                raise ValueError(f"invalid k table entry ({count}, {beta}) -> {k}")
        object.__setattr__(self, "k_table", merged)
        q_table = dict(self.q_table)
        for (r, beta), q in q_table.items():
            if not 0.0 <= r < math.inf:
                raise ValueError(f"invalid q table key r={r!r}")
            if not 0.0 < q <= 1.0:
                raise ValueError(f"blend coefficient q={q!r} outside (0, 1]")
            if beta == 0.95 and not Q_RANGE_95[0] <= q <= Q_RANGE_95[1]:
                raise ValueError(
                    f"q={q!r} at beta=0.95 outside the attested range {Q_RANGE_95}"
                )
        object.__setattr__(self, "q_table", q_table)


@dataclass(frozen=True)
class CombinedError:
    """Total error delta_t with the applied regime and its ingredients."""

    total: float
    relative: float | None
    rule_applied: Rule
    r: float
    random_error: float
    systematic_error: float

    def __post_init__(self) -> None:
        for name, value in (("r", self.r), ("delta_t", self.total),
                            ("delta_t_relative", self.relative or 0.0)):
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} = {value!r}: the error budget leaves the float range")
        cap = self.random_error + self.systematic_error
        if self.total > cap:
            raise ValueError(
                f"combined error {self.total!r} exceeds delta_r + delta_s = {cap!r}"
            )


def _lookup_q(
    q_table: Mapping[tuple[float, float], float], r: float, beta: float
) -> float:
    best = None
    best_gap = math.inf
    for (r_entry, beta_entry), q in q_table.items():
        if beta_entry != beta:
            continue
        gap = abs(r_entry - r)
        if gap < best_gap:
            best, best_gap = q, gap
    if best is None or best_gap > _R_MATCH_RTOL * max(1.0, abs(r)):
        raise TableLookupError(
            f"no blend coefficient q for r={r:.6g} at beta={beta}; the blend "
            "regime requires an explicit q table entry"
        )
    return best


def total_error(budget: ErrorBudget, measured_value: float | None = None) -> CombinedError:
    """Combine an error budget into the total error delta_t.

    When ``measured_value`` is given the relative total |delta_t / value|
    is reported as well; the module never infers the measured value.
    """
    delta_r = budget.random_error
    components = budget.systematic_components
    count = len(components)
    if count == 1:
        # min(c, k*c) = c for any tabulated k >= 1; no coefficient needed.
        delta_s = components[0]
    else:
        key = (count, budget.beta)
        if key not in budget.k_table:
            raise TableLookupError(
                f"no combination coefficient k for J={count} at beta={budget.beta}; "
                "provide one in the k table"
            )
        delta_s = combine_systematic(components, budget.k_table[key])
    r, rule = select_rule(delta_s, budget.variance_of_mean)
    if rule is Rule.RANDOM_DOMINATES:
        total = delta_r
    elif rule is Rule.SYSTEMATIC_DOMINATES:
        total = delta_s
    else:
        q = _lookup_q(budget.q_table, r, budget.beta)
        total = q * (delta_r + delta_s)
    relative = None
    if measured_value is not None:
        if measured_value == 0.0:
            raise ValueError("relative error is undefined for a zero measured value")
        if not math.isfinite(measured_value):
            raise ValueError(f"measured value must be finite, got {measured_value!r}")
        relative = total / abs(measured_value)
    return CombinedError(
        total=total,
        relative=relative,
        rule_applied=rule,
        r=r,
        random_error=delta_r,
        systematic_error=delta_s,
    )


def _read_two_column_table(path: str | os.PathLike[str]) -> list[tuple[float, float]]:
    rows = []
    for where, line, raw in _lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{where}: expected two columns, got {raw!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return rows


def load_k_table(path: str | os.PathLike[str], beta: float) -> dict[tuple[int, float], float]:
    """Read a two-column (J, k) text table for a single confidence level."""
    table = {}
    for j_value, k in _read_two_column_table(path):
        if not (math.isfinite(j_value) and j_value >= 1 and j_value == int(j_value)):
            raise ValueError(f"{path}: component count must be a positive integer, "
                             f"got {j_value!r}")
        table[(int(j_value), beta)] = k
    return table


def load_q_table(path: str | os.PathLike[str], beta: float) -> dict[tuple[float, float], float]:
    """Read a two-column (r, q) text table for a single confidence level."""
    return {(r, beta): q for r, q in _read_two_column_table(path)}
