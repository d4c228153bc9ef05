"""Combination of random and systematic measurement errors.

Systematic components at confidence beta combine as

    delta_s = min( sum_j |c_j|,  k_beta(J) * sqrt(sum_j c_j^2) )

where k_beta(J) is a tabulated coefficient for J >= 2 components (the
shipped table carries the single attested entry k_0.95(3) = 1.1).  A single
component is its own systematic error, delta_s = c, and needs no k.  The
random and systematic parts then merge by a regime rule driven by

    r = delta_s / s_mean

with s_mean the scatter (standard deviation) of the mean measurement:

    r < 0.8   random dominates      delta_t = delta_r
    r > 8     systematic dominates  delta_t = delta_s
    else      blend                 delta_t = q_beta(r) * (delta_r + delta_s)

The boundaries r = 0.8 and r = 8 belong to the blend regime.  Blend
coefficients q_beta(r) are user-supplied through a table; at beta = 0.95
they lie in [0.71, 0.81].  A budget has one beta, so its tables map J -> k
and r -> q at that beta.  No coefficient is ever interpolated or guessed:
a k miss refuses the budget when it is built, and a q miss is a
configuration error when the blend regime needs it.

All magnitudes here are in the caller's units (absolute or relative alike);
every rule is homogeneous of degree one, so the choice does not matter as
long as it is consistent.  Relative totals are computed only against a
measured value the caller supplies explicitly.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from enum import Enum

from .config import _lines
from .exceptions import DegenerateBudgetError, TableLookupError, _Record

#: Regime thresholds for r = delta_s / s_mean; both edges fall in the blend.
RANDOM_DOMINATES_BELOW = 0.8
SYSTEMATIC_DOMINATES_ABOVE = 8.0

#: Allowed range for blend coefficients at confidence 0.95.
Q_RANGE_95 = (0.71, 0.81)

#: The one attested combination coefficient: three components at 95%.
DEFAULT_K_TABLE: Mapping[int, float] = {3: 1.1}

#: Relative slack when matching a tabulated r value.
_R_MATCH_RTOL = 1.0e-6


class Rule(Enum):
    RANDOM_DOMINATES = "random-dominates"
    SYSTEMATIC_DOMINATES = "systematic-dominates"
    BLEND = "blend"


class ErrorBudget(_Record):
    """Inputs for a total-error combination.

    random_error           total random error delta_r at confidence beta
    systematic_components  individual systematic magnitudes
    variance_of_mean       scatter s_mean of the mean measurement
    beta                   confidence level shared by all entries
    k_table                J -> k at beta; at beta = 0.95 the attested
                           default entry 3 -> 1.1 is always present
    q_table                r -> q at beta, for the blend regime

    A table left as None is empty; the budget keeps its own copy of each.
    Every rule of a budget is checked here, once: a budget of J >= 2
    components needs k for J, and the scatter of the mean is positive.
    ``total_error`` only combines.
    """

    __slots__ = ("random_error", "systematic_components", "variance_of_mean", "beta",
                 "k_table", "q_table")

    def __init__(self, random_error: float, systematic_components: tuple[float, ...],
                 variance_of_mean: float, beta: float = 0.95,
                 k_table: Mapping[int, float] | None = None,
                 q_table: Mapping[float, float] | None = None) -> None:
        object.__setattr__(self, "random_error", random_error)
        object.__setattr__(self, "variance_of_mean", variance_of_mean)
        object.__setattr__(self, "beta", beta)
        if not 0.0 <= random_error < math.inf:
            raise ValueError(
                f"random error must be non-negative and finite, got {random_error!r}"
            )
        components = tuple(float(c) for c in systematic_components)
        if not components:
            raise ValueError("at least one systematic component is required")
        if not all(0.0 <= c < math.inf for c in components):
            raise ValueError("systematic components must be non-negative and finite")
        if not math.isfinite(variance_of_mean):
            raise ValueError(
                f"scatter of the mean must be finite, got {variance_of_mean!r}"
            )
        if not 0.0 < beta < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {beta!r}")
        object.__setattr__(self, "systematic_components", components)
        merged_k = dict(DEFAULT_K_TABLE) if beta == 0.95 else {}
        if k_table is not None:
            merged_k.update(k_table)
        for j, k in merged_k.items():
            if j < 1 or not 0.0 < k < math.inf:
                raise ValueError(f"invalid k table entry ({j}, {beta}) -> {k}")
        object.__setattr__(self, "k_table", merged_k)
        own_q = {} if q_table is None else dict(q_table)
        for r, q in own_q.items():
            if not 0.0 <= r < math.inf:
                raise ValueError(f"invalid q table key r={r!r}")
            if not 0.0 < q <= 1.0:
                raise ValueError(f"blend coefficient q={q!r} outside (0, 1]")
            if beta == 0.95 and not Q_RANGE_95[0] <= q <= Q_RANGE_95[1]:
                raise ValueError(
                    f"q={q!r} at beta=0.95 outside the attested range {Q_RANGE_95}"
                )
        object.__setattr__(self, "q_table", own_q)
        count = len(components)
        if count > 1 and count not in merged_k:
            raise TableLookupError(
                f"no combination coefficient k for J={count} at beta={beta}; "
                "provide one in the k table"
            )
        if not variance_of_mean > 0.0:
            raise DegenerateBudgetError(
                f"scatter of the mean must be positive, got {variance_of_mean!r}"
            )


class CombinedError(_Record):
    """Total error delta_t with the applied regime and its ingredients."""

    __slots__ = ("total", "relative", "rule_applied", "r", "random_error",
                 "systematic_error")

    def __init__(self, total: float, relative: float | None, rule_applied: Rule, r: float,
                 random_error: float, systematic_error: float) -> None:
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "relative", relative)
        object.__setattr__(self, "rule_applied", rule_applied)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "random_error", random_error)
        object.__setattr__(self, "systematic_error", systematic_error)
        for name, value in (("r", r), ("delta_t", total),
                            ("delta_t_relative", relative or 0.0)):
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} = {value!r}: the error budget leaves the float range")
        cap = random_error + systematic_error
        if total > cap:
            raise ValueError(
                f"combined error {total!r} exceeds delta_r + delta_s = {cap!r}"
            )


def _lookup_q(q_table: Mapping[float, float], r: float, beta: float) -> float:
    best = None
    best_gap = math.inf
    for r_entry, q in q_table.items():
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
    if len(components) == 1:
        # One component is its own systematic error; the rule takes no k.
        delta_s = components[0]
    else:
        k = budget.k_table[len(components)]
        delta_s = min(sum(components), k * math.sqrt(sum(c * c for c in components)))
    r = delta_s / budget.variance_of_mean
    if r < RANDOM_DOMINATES_BELOW:
        rule, total = Rule.RANDOM_DOMINATES, delta_r
    elif r > SYSTEMATIC_DOMINATES_ABOVE:
        rule, total = Rule.SYSTEMATIC_DOMINATES, delta_s
    else:
        rule = Rule.BLEND
        total = _lookup_q(budget.q_table, r, budget.beta) * (delta_r + delta_s)
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


def load_k_table(path: str | os.PathLike[str]) -> dict[int, float]:
    """Read a two-column (J, k) text table for a single confidence level."""
    table = {}
    for j_value, k in _read_two_column_table(path):
        if not (math.isfinite(j_value) and j_value >= 1 and j_value == int(j_value)):
            raise ValueError(f"{path}: component count must be a positive integer, "
                             f"got {j_value!r}")
        table[int(j_value)] = k
    return table


def load_q_table(path: str | os.PathLike[str]) -> dict[float, float]:
    """Read a two-column (r, q) text table for a single confidence level."""
    return dict(_read_two_column_table(path))
