"""Acceptance gate: end-to-end checks at fixed tolerances.

Each check prints one summary line (kept visible under output capture).
One check is an expected failure by construction: the tabulated pit
closed form is not the surface integral of the pit height profile, so
the quadrature comparison for pits cannot meet the shared tolerance.
That check keeps its original tolerance and is marked strict xfail with
the analysis in its docstring; every other check must pass.
"""

import math
import time

import numpy as np
import pytest

from caslens import (
    ErrorBudget,
    LensProfile,
    Rule,
    ZETA3,
    derive_geometry,
    force,
    force_bubble,
    force_general,
    force_perfect_full,
    force_pit,
    free_energy_pp,
    free_energy_pp_oracle,
    pressure_pp,
    tau,
    total_error,
)
from caslens.cli import main
from caslens.constants import LIGHT_SPEED, REDUCED_PLANCK

#: Benchmark checkpoints: separation in um -> (wide bubble, narrow bubble,
#: pit) force ratios, each to be reproduced within +/- 0.002.
BENCHMARK_CHECKPOINTS = {
    "1.00": (1.458, 0.429, 0.314),
    "1.50": (1.361, 0.507, 0.409),
    "2.00": (1.287, 0.580, 0.496),
    "2.50": (1.233, 0.641, 0.570),
    "3.00": (1.193, 0.689, 0.627),
}

BENCHMARK_R = 0.15
BUBBLE_WIDE = (0.25, 0.5e-6)     # R1, D1 of the shallow wide bubble case
BUBBLE_NARROW = (0.05, 1.0e-6)   # R1, D1 of the deeper narrow bubble case
PIT_CASE = (0.12, 1.0e-6)        # R1, D1 of the pit case


def temperature_for_tau(z, target):
    return target / tau(z, 1.0)


def report(capsys, line):
    with capsys.disabled():
        print(line)


def test_acceptance_1_benchmark_ratio_table(tmp_path, capsys):
    """The bundled three-case ratio table reproduces its checkpoints."""
    out = tmp_path / "benchmark.csv"
    started = time.perf_counter()
    assert main(["reproduce-fig2", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a_um,ratio_line1,ratio_line2,ratio_line3"
    assert len(lines) == 42
    table = {}
    for line in lines[1:]:
        a_um, *ratios = line.split(",")
        table[a_um] = tuple(float(item) for item in ratios)
    checked = 0
    for a_um, expected in BENCHMARK_CHECKPOINTS.items():
        for got, want in zip(table[a_um], expected):
            assert got == pytest.approx(want, abs=2.0e-3)
            checked += 1
    assert checked == 15
    assert elapsed < 1.0
    report(capsys,
           f"ACCEPTANCE 1 (benchmark ratio table): PASS — 15/15 checkpoints "
           f"within 0.002, 41 rows in {elapsed:.2f}s")


def test_acceptance_2_geometry_worked_examples(capsys):
    """Derived footprint, sagitta and offset match to two significant figures."""
    cases = [
        (LensProfile.bubble(BENCHMARK_R, *BUBBLE_WIDE),
         ("1.0e-03", "8.3e-07", "3.3e-07")),
        (LensProfile.bubble(BENCHMARK_R, *BUBBLE_NARROW),
         ("6.3e-04", "3.3e-07", "6.7e-07")),
        (LensProfile.pit(BENCHMARK_R, *PIT_CASE),
         ("9.8e-04", "8.0e-07", "1.8e-06")),
    ]
    for profile, (diameter_2sf, sagitta_2sf, offset_2sf) in cases:
        geometry = derive_geometry(profile)
        assert f"{2.0 * geometry.r:.1e}" == diameter_2sf
        assert f"{geometry.d:.1e}" == sagitta_2sf
        assert f"{geometry.offset:.1e}" == offset_2sf
    report(capsys,
           "ACCEPTANCE 2 (imperfection geometry): PASS — footprint diameter, "
           "sagitta and centre offset match all three worked examples to "
           "two significant figures")


def test_acceptance_3_series_vs_brute_force(capsys):
    """Closed series equals the brute-force thermal sum to 1e-9."""
    rng = np.random.default_rng(20240819)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(0.5e-6, 5.0e-6)
        target = rng.uniform(0.5, 20.0)
        T = temperature_for_tau(z, target)
        series = free_energy_pp(z, T).value
        brute = free_energy_pp_oracle(z, T).value
        worst = max(worst, abs(series / brute - 1.0))
        assert abs(series / brute - 1.0) <= 1.0e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(capsys,
           f"ACCEPTANCE 3 (series vs brute force): PASS — 50 random points, "
           f"worst relative difference {worst:.2e} <= 1e-9 in {elapsed:.2f}s")


def test_acceptance_4_quadrature_vs_closed_forms(capsys):
    """Direct quadrature of the height profiles matches the closed forms.

    Perfect lens to 1e-6, both bubble cases to 1e-3.  The pit case is
    checked separately (expected failure) because its tabulated closed
    form is not the integral of the pit height profile.
    """
    grid = np.linspace(1.0e-6, 3.0e-6, 20)
    worst_perfect = 0.0
    worst_bubble = 0.0

    perfect = LensProfile.perfect(BENCHMARK_R)
    for a in grid:
        quad = force_general(perfect, a, 300.0).magnitude
        closed = force_perfect_full(a, 300.0, BENCHMARK_R).magnitude
        worst_perfect = max(worst_perfect, abs(quad / closed - 1.0))
    assert worst_perfect <= 1.0e-6

    for R1, D1 in (BUBBLE_WIDE, BUBBLE_NARROW):
        profile = LensProfile.bubble(BENCHMARK_R, R1, D1)
        for a in grid:
            quad = force_general(profile, a, 300.0).magnitude
            closed = force_bubble(a, 300.0, BENCHMARK_R, R1, D1).magnitude
            worst_bubble = max(worst_bubble, abs(quad / closed - 1.0))
    assert worst_bubble <= 1.0e-3

    report(capsys,
           f"ACCEPTANCE 4 (quadrature vs closed forms): PASS — perfect "
           f"{worst_perfect:.2e} <= 1e-6, bubbles {worst_bubble:.2e} <= 1e-3 "
           f"over 20 separations; pit checked separately below")


@pytest.mark.xfail(
    strict=True,
    reason="the tabulated pit closed form weights the pit cap 2*pi*R1 at the "
           "deepest gap a + D1, but the surface integral of the pit height "
           "profile is dominated by the rim circle at the minimum gap a and "
           "evaluates to 2*pi*(R + R1)*Fpp(a) - 2*pi*R1*Fpp(a + D1); the two "
           "disagree at order R1/R (about a factor five at R1/R = 0.8), so "
           "no faithful quadrature can match the closed form to 1e-3",
)
def test_acceptance_4_pit_quadrature_vs_closed_form(capsys):
    """Expected failure: the pit closed form is not the profile integral.

    ``force_general`` integrates the actual pit height profile, which the
    area measure concentrates at the rim circle where the gap equals a.
    Integration by parts gives 2 pi (R + R1) Fpp(a) - 2 pi R1 Fpp(a + D1)
    up to O((a + D1)/R) corrections — verified directly in the unit tests,
    where the same machinery also reproduces the bubble closed form.  The
    tabulated pit curve instead uses 2 pi (R - R1) Fpp(a) + 2 pi R1
    Fpp(a + D1), which weights the cap by its deepest gap.  The gap
    between the two is of order R1/R, a factor of a few here, so this
    check keeps its 1e-3 tolerance and is expected to fail.
    """
    R1, D1 = PIT_CASE
    profile = LensProfile.pit(BENCHMARK_R, R1, D1)
    grid = np.linspace(1.0e-6, 3.0e-6, 20)
    worst = 0.0
    for a in grid:
        quad = force_general(profile, a, 300.0).magnitude
        closed = force_pit(a, 300.0, BENCHMARK_R, R1, D1).magnitude
        worst = max(worst, abs(quad / closed - 1.0))
    report(capsys,
           f"ACCEPTANCE 4 (pit quadrature vs closed form): FAIL expected — "
           f"profile integral differs from the tabulated closed form by "
           f"{worst:.2f} relative (tolerance 1e-3); the closed form is not "
           f"the integral of the pit profile (see docstring)")
    assert worst <= 1.0e-3


def test_acceptance_5_limiting_behaviour(capsys):
    """High-temperature bracket, zero-temperature limit, pressure identity."""
    z = 1.0e-6

    # Strong thermal regime: the bracket collapses onto its floor.
    bracket = free_energy_pp(z, temperature_for_tau(z, 10.0)).bracket
    high_t_rel = abs(bracket / (ZETA3 / 2.0) - 1.0)
    assert high_t_rel <= 1.0e-3

    # Near-zero temperature: the brute-force sum approaches the
    # zero-temperature result -pi^2 hbar c / (720 z^3) to 0.5%.
    T_cold = temperature_for_tau(z, 1.0e-2)
    brute = free_energy_pp_oracle(z, T_cold).value
    zero_t = -math.pi**2 * REDUCED_PLANCK * LIGHT_SPEED / (720.0 * z**3)
    cold_rel = abs(brute / zero_t - 1.0)
    assert cold_rel <= 5.0e-3

    # Pressure equals the negative separation derivative of the free energy.
    worst_fd = 0.0
    for z_i in np.linspace(0.8e-6, 3.0e-6, 10):
        h = 1.0e-4 * z_i
        derivative = -(free_energy_pp(z_i + h, 300.0).value
                       - free_energy_pp(z_i - h, 300.0).value) / (2.0 * h)
        worst_fd = max(worst_fd, abs(pressure_pp(z_i, 300.0) / derivative - 1.0))
    assert worst_fd <= 1.0e-6

    report(capsys,
           f"ACCEPTANCE 5 (limiting behaviour): PASS — bracket floor "
           f"{high_t_rel:.2e} <= 1e-3, zero-temperature limit {cold_rel:.2e} "
           f"<= 5e-3, pressure vs finite difference {worst_fd:.2e} <= 1e-6")


def test_acceptance_6_closed_form_degeneracies(capsys):
    """Degenerate imperfections collapse onto the perfect-lens force."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        R = rng.uniform(0.05, 0.3)
        a = rng.uniform(0.5e-6, 5.0e-6)
        T = rng.uniform(50.0, 600.0)
        D1 = rng.uniform(0.1e-6, 2.0e-6)
        R1 = rng.uniform(0.01, 0.3)
        reference = force(LensProfile.perfect(R), a, T).magnitude
        for degenerate in (
            force_bubble(a, T, R, R, D1),      # bubble spanning the whole cap
            force_bubble(a, T, R, R1, 0.0),    # bubble of zero depth
            force_pit(a, T, R, 0.0, D1),       # pit of zero footprint
        ):
            worst = max(worst, abs(degenerate.magnitude / reference - 1.0))
            assert abs(degenerate.magnitude / reference - 1.0) <= 1.0e-12
    report(capsys,
           f"ACCEPTANCE 6 (closed-form degeneracies): PASS — 20 random "
           f"parameter sets, worst relative difference {worst:.2e} <= 1e-12")


def test_acceptance_7_error_combination_rules(capsys):
    """Systematic combination, regime selection and the worked budget."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        count = int(rng.integers(1, 7))
        components = list(rng.uniform(0.01, 10.0, count))
        k = float(rng.uniform(1.0, 2.0))
        # A scatter of 1e300 keeps r in the random regime, which needs no q.
        combined = total_error(ErrorBudget(
            random_error=0.0, systematic_components=tuple(components),
            variance_of_mean=1.0e300, k_table={count: k})).systematic_error
        linear = sum(abs(c) for c in components)
        quadratic = k * math.sqrt(sum(c * c for c in components))
        assert combined == min(linear, quadratic)

    def rule_at(r):
        # A one-component budget at s_mean = 1 whose q table holds r.
        return total_error(ErrorBudget(random_error=0.0, systematic_components=(r,),
                                       variance_of_mean=1.0,
                                       q_table={r: 0.75})).rule_applied

    # Both regime edges belong to the blend regime.
    assert rule_at(0.8) is Rule.BLEND
    assert rule_at(8.0) is Rule.BLEND
    assert rule_at(0.79) is Rule.RANDOM_DOMINATES
    assert rule_at(8.01) is Rule.SYSTEMATIC_DOMINATES

    # Worked budget: a single dominant systematic component produces a
    # 0.19% relative total on a measured value of 100.
    budget = ErrorBudget(
        random_error=0.05,
        systematic_components=(0.19,),
        variance_of_mean=0.02,
    )
    combined = total_error(budget, measured_value=100.0)
    assert combined.rule_applied is Rule.SYSTEMATIC_DOMINATES
    assert combined.r == pytest.approx(9.5, rel=1.0e-12)
    assert combined.total == pytest.approx(0.19, rel=1.0e-12)
    assert combined.relative == pytest.approx(1.9e-3, rel=1.0e-12)

    report(capsys,
           "ACCEPTANCE 7 (error combination): PASS — 100 random budgets "
           "follow min(linear, k*quadratic), both regime edges blend, and "
           "the worked budget yields the 0.19% relative total")
