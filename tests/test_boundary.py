"""The domain boundary: every public entry refuses NaN, +-inf and values
outside its domain with a ValueError, before any series or quadrature runs."""

import math
import time

import pytest

import caslens

from caslens import (
    ErrorBudget,
    LensProfile,
    force,
    force_bubble,
    force_general,
    force_perfect_full,
    force_pit,
    free_energy_pp_oracle,
    ratio_curve,
    tau,
    total_error,
    validate_spec,
)

R = 0.15
PERFECT = LensProfile.perfect(R)
BUBBLE = LensProfile.bubble(R, 0.25, 0.5e-6)
PIT = LensProfile.pit(R, 0.12, 1.0e-6)
POINT = {"a": 1.0e-6, "T": 300.0}

#: Bad values beyond NaN and +-inf, by the domain of the argument.
POSITIVE = (0.0, -1.0)
NON_NEGATIVE = (-1.0,)
AT_POINT = {"a": POSITIVE, "T": NON_NEGATIVE}
BUDGET = {"random_error": 0.05, "systematic_components": (0.19,), "variance_of_mean": 0.02,
          "beta": 0.95}


def ratio_curve_ending_at(profile, a, T):
    """ratio_curve on a two-point grid whose last point is a."""
    return ratio_curve(profile, (0.5e-6, a), T)


# label: (entry, a valid call's keyword arguments, {argument: its domain})
ENTRIES = {
    "LensProfile.perfect": (LensProfile.perfect, {"R": R, "D": R},
                            {"R": POSITIVE, "D": POSITIVE}),
    "LensProfile.bubble": (LensProfile.bubble, {"R": R, "R1": 0.25, "D1": 0.5e-6, "D": R},
                           dict.fromkeys(("R", "R1", "D1", "D"), POSITIVE)),
    "LensProfile.pit": (LensProfile.pit, {"R": R, "R1": 0.12, "D1": 1.0e-6, "D": R},
                        dict.fromkeys(("R", "R1", "D1", "D"), POSITIVE)),
    "force-quadrature": (force, {"profile": PIT, **POINT, "method": "quadrature",
                                 "tol": 1.0e-9}, {**AT_POINT, "tol": POSITIVE}),
    "force-full": (force, {"profile": PERFECT, **POINT, "method": "full"}, AT_POINT),
    "force-full-bubble": (force, {"profile": BUBBLE, **POINT, "method": "full"}, AT_POINT),
    "force-full-pit": (force, {"profile": PIT, **POINT, "method": "full"}, AT_POINT),
    "force-simplified": (force, {"profile": PERFECT, **POINT, "method": "simplified"},
                         AT_POINT),
    "force-bubble": (force, {"profile": BUBBLE, **POINT, "method": "bubble"}, AT_POINT),
    "force-pit": (force, {"profile": PIT, **POINT, "method": "pit"}, AT_POINT),
    "force_perfect_full": (force_perfect_full, {**POINT, "R": R, "D": R},
                           {**AT_POINT, "R": POSITIVE, "D": POSITIVE}),
    "force_bubble": (force_bubble, {**POINT, "R": R, "R1": 0.25, "D1": 0.5e-6},
                     {**AT_POINT, "R": POSITIVE, "R1": NON_NEGATIVE, "D1": NON_NEGATIVE}),
    "force_pit": (force_pit, {**POINT, "R": R, "R1": 0.12, "D1": 1.0e-6},
                  {**AT_POINT, "R": POSITIVE, "R1": NON_NEGATIVE, "D1": NON_NEGATIVE}),
    "force_general": (force_general, {"profile": BUBBLE, **POINT, "quad_tol": 1.0e-9},
                      {**AT_POINT, "quad_tol": POSITIVE}),
    "ratio_curve": (ratio_curve_ending_at, {"profile": PIT, **POINT}, AT_POINT),
    "validate_spec": (validate_spec, {"profile": BUBBLE, "curvature_tolerance": 5.0e-4},
                      {"curvature_tolerance": POSITIVE}),
    "tau": (tau, {"z": 1.0e-6, "T": 300.0}, {"z": POSITIVE, "T": NON_NEGATIVE}),
    "free_energy_pp_oracle": (free_energy_pp_oracle, {"z": 1.0e-6, "T": 300.0, "l_max": 100},
                              {"z": POSITIVE, "T": POSITIVE, "l_max": (0, -1, 1.5)}),
    "ErrorBudget": (ErrorBudget, BUDGET, {"random_error": NON_NEGATIVE,
                                          "variance_of_mean": POSITIVE,
                                          "beta": (0.0, 1.0, -1.0)}),
    "total_error": (total_error, {"budget": ErrorBudget(**BUDGET), "measured_value": 100.0},
                    {"measured_value": (0.0,)}),
}


@pytest.mark.parametrize("label", ENTRIES)
def test_valid_call_succeeds(label):
    entry, valid, _domains = ENTRIES[label]
    entry(**valid)


@pytest.mark.parametrize("label, name, bad", [
    (label, name, bad)
    for label, (_entry, _valid, domains) in ENTRIES.items()
    for name, domain in domains.items()
    for bad in (math.nan, math.inf, -math.inf) + domain
])
def test_out_of_domain_argument_is_a_value_error(label, name, bad):
    entry, valid, _domains = ENTRIES[label]
    start = time.process_time()
    with pytest.raises(ValueError):
        entry(**{**valid, name: bad})
    assert time.process_time() - start < 0.05


def test_every_exported_name_resolves():
    assert len(set(caslens.__all__)) == len(caslens.__all__)
    missing = [name for name in caslens.__all__ if not hasattr(caslens, name)]
    assert missing == []
    namespace = {}
    exec("from caslens import *", namespace)
    assert set(caslens.__all__) <= namespace.keys()
