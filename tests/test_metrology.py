"""Random/systematic error combination rules and coefficient tables."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from caslens import (
    CombinedError,
    DegenerateBudgetError,
    ErrorBudget,
    Rule,
    TableLookupError,
    load_k_table,
    load_q_table,
    total_error,
)


def _delta_s(components, k):
    """delta_s of a budget of ``components`` with k for their count; the scatter
    of 1e300 keeps r in the random regime, which needs no q."""
    budget = ErrorBudget(random_error=0.0, systematic_components=tuple(components),
                         variance_of_mean=1.0e300, k_table={len(components): k})
    return total_error(budget).systematic_error


def _regime(delta_s, s_mean):
    """(r, rule) of a one-component budget whose q table holds its r."""
    combined = total_error(ErrorBudget(random_error=0.0, systematic_components=(delta_s,),
                                       variance_of_mean=s_mean,
                                       q_table={delta_s / s_mean: 0.75}))
    return combined.r, combined.rule_applied


def test_combine_two_components_reference():
    assert _delta_s([3.0, 4.0], 1.1) == pytest.approx(5.5)


def test_combine_single_component_takes_sum_branch():
    assert _delta_s([2.7], 1.3) == 2.7


def test_combine_quadratic_branch_can_win():
    # three equal components: sum 3, k * rms = 1.1 * sqrt(3) ~ 1.905
    assert _delta_s([1.0, 1.0, 1.0], 1.1) == pytest.approx(
        1.1 * math.sqrt(3.0))


def test_combine_validation():
    # Each refusal comes when the budget is built.
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.0, systematic_components=(), variance_of_mean=1.0)
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.0, systematic_components=(1.0, -2.0),
                    variance_of_mean=1.0, k_table={2: 1.1})
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.0, systematic_components=(1.0,),
                    variance_of_mean=1.0, k_table={1: 0.0})
    # A component count follows load_k_table's rule: a whole number >= 1.
    with pytest.raises(ValueError, match="component count must be a positive integer"):
        ErrorBudget(random_error=0.1, systematic_components=(1.0,),
                    variance_of_mean=1.0, k_table={2.5: 1.0})


@given(
    components=st.lists(st.floats(min_value=0.0, max_value=1.0e6), min_size=1,
                        max_size=8),
    k=st.floats(min_value=0.5, max_value=3.0),
)
def test_combine_never_exceeds_either_bound(components, k):
    combined = _delta_s(components, k)
    if len(components) == 1:
        # One component is its own systematic error, whatever k is.
        assert combined == components[0]
        return
    linear = sum(components)
    quadratic = k * math.sqrt(sum(c * c for c in components))
    assert combined <= linear * (1.0 + 1.0e-12)
    assert combined <= quadratic * (1.0 + 1.0e-12)
    assert combined == min(linear, quadratic)


def test_select_rule_regimes_and_boundaries():
    assert _regime(0.5, 1.0) == (0.5, Rule.RANDOM_DOMINATES)
    assert _regime(10.0, 1.0) == (10.0, Rule.SYSTEMATIC_DOMINATES)
    assert _regime(1.0, 1.0) == (1.0, Rule.BLEND)
    # both threshold values belong to the blend regime
    assert _regime(0.8, 1.0)[1] is Rule.BLEND
    assert _regime(8.0, 1.0)[1] is Rule.BLEND


def test_select_rule_degenerate_scatter():
    # A budget without a positive scatter of the mean is refused when built.
    for s_mean in (0.0, -1.0):
        with pytest.raises(DegenerateBudgetError, match="scatter of the mean must be positive"):
            ErrorBudget(random_error=0.1, systematic_components=(1.0,),
                        variance_of_mean=s_mean)
    # A negative delta_s cannot be formed: its component is refused when built.
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.1, systematic_components=(-1.0,), variance_of_mean=1.0)


def test_systematic_dominates_instance():
    # relative systematic error of 0.19% carried through unchanged
    budget = ErrorBudget(random_error=0.05, systematic_components=(0.19,),
                         variance_of_mean=0.02)
    combined = total_error(budget, measured_value=100.0)
    assert combined.rule_applied is Rule.SYSTEMATIC_DOMINATES
    assert combined.r == pytest.approx(9.5)
    assert combined.total == pytest.approx(0.19)
    assert combined.relative == pytest.approx(0.0019)


def test_random_dominates_instance():
    budget = ErrorBudget(random_error=0.04, systematic_components=(0.004,),
                         variance_of_mean=0.1)
    combined = total_error(budget, measured_value=100.0)
    assert combined.rule_applied is Rule.RANDOM_DOMINATES
    assert combined.total == pytest.approx(0.04)
    assert combined.relative == pytest.approx(4.0e-4)


def test_blend_instance():
    budget = ErrorBudget(random_error=1.0, systematic_components=(1.0,),
                         variance_of_mean=1.0,
                         q_table={1.0: 0.71})
    combined = total_error(budget)
    assert combined.rule_applied is Rule.BLEND
    assert combined.total == pytest.approx(1.42)
    assert combined.relative is None


def test_blend_without_q_entry_is_an_explicit_error():
    budget = ErrorBudget(random_error=1.0, systematic_components=(1.0,),
                         variance_of_mean=1.0)
    with pytest.raises(TableLookupError):
        total_error(budget)


def test_blend_q_lookup_is_nearest_within_tolerance_only():
    near = ErrorBudget(random_error=1.0, systematic_components=(1.0,),
                       variance_of_mean=1.0,
                       q_table={1.0000005: 0.75})
    assert total_error(near).total == pytest.approx(1.5)
    far = ErrorBudget(random_error=1.0, systematic_components=(1.0,),
                      variance_of_mean=1.0,
                      q_table={1.01: 0.75})
    with pytest.raises(TableLookupError):
        total_error(far)


def test_multi_component_budget_needs_k_entry():
    with pytest.raises(TableLookupError):
        ErrorBudget(random_error=0.1, systematic_components=(3.0, 4.0),
                    variance_of_mean=0.1)
    provided = ErrorBudget(random_error=0.1, systematic_components=(3.0, 4.0),
                           variance_of_mean=0.1,
                           k_table={2: 1.2})
    combined = total_error(provided)
    assert combined.systematic_error == pytest.approx(6.0)  # min(7, 1.2*5)


def test_default_k_entry_for_three_components():
    budget = ErrorBudget(random_error=0.1, systematic_components=(3.0, 4.0, 0.0),
                         variance_of_mean=0.1)
    combined = total_error(budget)
    assert combined.systematic_error == pytest.approx(5.5)  # min(7, 1.1*5)
    # The attested entry holds at beta = 0.95 only.
    with pytest.raises(TableLookupError, match="J=3 at beta=0.9;"):
        ErrorBudget(random_error=0.1, systematic_components=(3.0, 4.0, 0.0),
                    variance_of_mean=0.1, beta=0.9)


def test_relative_error_requires_nonzero_value():
    budget = ErrorBudget(random_error=0.05, systematic_components=(0.19,),
                         variance_of_mean=0.02)
    with pytest.raises(ValueError):
        total_error(budget, measured_value=0.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        ErrorBudget(random_error=-0.1, systematic_components=(1.0,),
                    variance_of_mean=1.0)
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.1, systematic_components=(),
                    variance_of_mean=1.0)
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.1, systematic_components=(1.0,),
                    variance_of_mean=1.0, beta=1.5)
    # blend coefficients at 95% confidence must stay inside [0.71, 0.81]
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.1, systematic_components=(1.0,),
                    variance_of_mean=1.0, q_table={1.0: 0.5})
    with pytest.raises(ValueError):
        ErrorBudget(random_error=0.1, systematic_components=(1.0,),
                    variance_of_mean=1.0, beta=0.9, q_table={1.0: 1.5})
    # A whole-number component count is kept as an int, as load_k_table keeps it.
    budget = ErrorBudget(random_error=0.1, systematic_components=(1.0,),
                         variance_of_mean=1.0, k_table={2.0: 1.2})
    assert [(j, type(j)) for j in budget.k_table] == [(3, int), (2, int)]


@pytest.mark.parametrize("fields, message", [
    ({"random_error": -1.0}, "random_error=-1.0 lies outside the served range [0, inf)"),
    ({"systematic_components": (1.0, -2.0)},
     "systematic_components[1]=-2.0 lies outside the served range [0, inf)"),
    ({"beta": 1.5}, "beta=1.5 lies outside the served range (0, 1)"),
    ({"k_table": {2: 0.0}}, "k_table[2]=0.0 lies outside the served range (0, inf)"),
    ({"q_table": {-1.0: 0.75}}, "q_table key r=-1.0 lies outside the served range [0, inf)"),
    ({"q_table": {1.0: 0.5}}, "q_table[1.0]=0.5 lies outside the served range [0.71, 0.81]"),
    ({"beta": 0.9, "q_table": {1.0: 1.5}},
     "q_table[1.0]=1.5 lies outside the served range (0, 1]"),
], ids=["random-error", "component", "beta", "k", "r", "q-at-0.95", "q-at-0.9"])
def test_budget_refusals_share_the_domain_format(fields, message):
    valid = dict(random_error=0.1, systematic_components=(1.0, 2.0), variance_of_mean=1.0,
                 k_table={2: 1.2})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ErrorBudget(**{**valid, **fields})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_budget_fields_are_rejected(bad):
    valid = dict(random_error=0.1, systematic_components=(0.1, 0.2),
                 variance_of_mean=1.0, k_table={2: 1.2})
    for field, value in (("random_error", bad),
                         ("systematic_components", (0.1, bad)),
                         ("variance_of_mean", bad),
                         ("k_table", {2: bad}),
                         ("q_table", {bad: 0.75})):
        with pytest.raises(ValueError):
            ErrorBudget(**{**valid, field: value})
    with pytest.raises(ValueError):
        total_error(ErrorBudget(**valid), measured_value=bad)


def test_combined_error_never_exceeds_plain_sum():
    with pytest.raises(ValueError):
        CombinedError(total=3.0, relative=None, rule_applied=Rule.BLEND,
                      r=1.0, random_error=1.0, systematic_error=1.0)


@given(scale=st.floats(min_value=1.0e-3, max_value=1.0e3))
def test_total_error_is_scale_equivariant(scale):
    base = ErrorBudget(random_error=0.7, systematic_components=(0.4, 0.3),
                       variance_of_mean=0.25,
                       k_table={2: 1.2},
                       q_table={2.4: 0.76})
    scaled = ErrorBudget(random_error=0.7 * scale,
                         systematic_components=(0.4 * scale, 0.3 * scale),
                         variance_of_mean=0.25 * scale,
                         k_table={2: 1.2},
                         q_table={2.4: 0.76})
    combined = total_error(base)
    combined_scaled = total_error(scaled)
    assert combined_scaled.rule_applied is combined.rule_applied
    assert_allclose(combined_scaled.total, combined.total * scale, rtol=1.0e-9)
    assert_allclose(combined_scaled.r, combined.r, rtol=1.0e-9)


def test_load_tables_round_trip(tmp_path):
    k_path = tmp_path / "k.txt"
    k_path.write_text("# J  k\n2 1.15\n3 1.1\n4 1.12\n", encoding="utf-8")
    k_table = load_k_table(k_path)
    assert k_table == {2: 1.15, 3: 1.1, 4: 1.12}

    q_path = tmp_path / "q.txt"
    q_path.write_text("0.8 0.81\n8.0 0.71  # endpoints\n", encoding="utf-8")
    q_table = load_q_table(q_path)
    assert q_table == {0.8: 0.81, 8.0: 0.71}


def test_load_table_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_k_table(bad)
    nonint = tmp_path / "nonint.txt"
    nonint.write_text("2.5 1.1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_k_table(nonint)
    notnum = tmp_path / "notnum.txt"
    notnum.write_text("a b\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_q_table(notnum)


@pytest.mark.parametrize("count", ["inf", "nan", "1e400"])
def test_load_k_table_refuses_a_non_finite_component_count(tmp_path, count):
    path = tmp_path / "k.txt"
    path.write_text(f"{count} 1.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="component count must be a positive integer"):
        load_k_table(path)
