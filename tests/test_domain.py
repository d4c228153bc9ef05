"""The served domain: lengths in [1e-12, 1e5] m, temperatures in [0, 1e9] K,
tolerances in (0, inf) and an error budget's quantities, checked once by
``check_finite``.

On its corners and inside it every entry gives a finite result that meets
its invariants, or refuses the call with a ValueError in bounded time;
outside it, every entry refuses.  The corner tests show that the float-range
special cases the domain replaced cannot be reached any more.
"""

import functools
import math
import re
import tempfile
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from caslens import (
    CombinedError,
    ErrorBudget,
    ForceResult,
    FreeEnergyAreal,
    ImperfectionGeometry,
    LensProfile,
    RatioCurve,
    SpecReport,
    build_grid,
    derive_geometry,
    force,
    free_energy_pp,
    free_energy_pp_oracle,
    lateral_extent,
    load_k_table,
    load_q_table,
    parse_length,
    pressure_pp,
)
from caslens.cli import main
from caslens.exceptions import (CONFIDENCE, LENGTH, LENGTH_OR_ZERO, MAGNITUDE, TEMPERATURE,
                                TOLERANCE, NumericalError, check_finite)
from caslens.plates import _E, _F, _P, _plate_kernel
from caslens.quadrature import MIN_REL_TOL
from test_boundary import ENTRIES

LENGTH_MIN, LENGTH_MAX = LENGTH[:2]
TEMPERATURE_MAX = TEMPERATURE[1]
#: Above the largest gap pfa forms, a + D1 + D with D <= R.
GAP_MAX = 3.0 * LENGTH_MAX
#: The entries that may raise NumericalError: the quadratures, and the
#: thermal-sum oracle, whose ConvergenceError reports a sum cut at l_max.
NUMERICAL = ("force-quadrature", "force_general", "free_energy_pp_oracle")
#: The tolerance argument of each quadrature entry, which may raise
#: NumericalError only when asked for less than MIN_REL_TOL, the tightest
#: tolerance any panel is held to.
QUADRATURE_TOL = {"force-quadrature": "tol", "force_general": "quad_tol"}


def test_check_finite_names_the_quantity_the_value_and_the_range():
    assert check_finite("separation a", LENGTH_MIN, LENGTH) == LENGTH_MIN
    assert check_finite("rho", 0.0, LENGTH_OR_ZERO) == 0.0
    assert check_finite("temperature", 0.0, TEMPERATURE) == 0.0
    for name, x, domain, text in [
        ("separation a", 0.0, LENGTH, "[1e-12, 1e5] m"),
        ("rho", 5.0e-324, LENGTH_OR_ZERO, "0 or [1e-12, 1e5] m"),
        ("temperature", 1.0e9 * (1.0 + 1.0e-15), TEMPERATURE, "[0, 1e9] K"),
        ("--tol", math.inf, TOLERANCE, "(0, inf)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"{name}={x!r} lies outside "
                                                       f"the served range {text}")):
            check_finite(name, x, domain)


# --- the deleted special cases, unreachable on the domain corners -------------

@pytest.mark.parametrize("z", [LENGTH_MIN, LENGTH_MAX, GAP_MAX])
@pytest.mark.parametrize("T", [0.0, 5.0e-324, TEMPERATURE_MAX])
def test_kernel_products_stay_in_the_float_range(z, T):
    # -pi^2 hbar c / (divisor z^power) * factor, which plates once guarded
    # with a try/except ArithmeticError, is finite and negative at every
    # corner, the private path's largest gap included.
    F, P, E = (_plate_kernel(z, T, want)[want] for want in (_F, _P, _E))
    for value in (F, P, E):
        assert -math.inf < value < 0.0
    if z <= LENGTH_MAX:
        assert (free_energy_pp(z, T).value, pressure_pp(z, T)) == (F, P)


@pytest.mark.parametrize("z, T", [
    (LENGTH_MIN, TEMPERATURE_MAX),    # the largest prefactor k_B T/(4 pi z^2)
    (LENGTH_MAX, TEMPERATURE_MAX),
    (LENGTH_MAX, 2.0e-9),             # tau = 1.1 at the far corner
])
def test_oracle_prefactor_stays_in_the_float_range(z, T):
    # The oracle's prefactor once needed a ZeroDivisionError path and a range
    # check: on the domain z*z >= 1e-24, and a tau that does not round away
    # keeps T z >= 1e-20 m K, so the prefactor lies within [1e-60, 1e10].
    oracle = free_energy_pp_oracle(z, T).value
    assert -math.inf < oracle < 0.0
    assert abs(oracle / free_energy_pp(z, T).value - 1.0) <= 1.0e-9


@pytest.mark.parametrize("R, D", [
    (LENGTH_MIN, LENGTH_MIN), (LENGTH_MAX, LENGTH_MIN), (LENGTH_MAX, LENGTH_MAX),
])
def test_every_quadrature_lens_has_lateral_extent(R, D):
    # Every profile has D <= R, so D (2R - D) >= D R >= 1e-24 m^2: its
    # "no lateral extent" refusal has nothing left to refuse.
    profile = LensProfile.perfect(R, D)
    assert lateral_extent(profile) >= LENGTH_MIN
    assert 0.0 < force(profile, LENGTH_MIN, TEMPERATURE_MAX, "quadrature").magnitude < math.inf


@pytest.mark.parametrize("method, a", [
    ("full", LENGTH_MIN), ("full", LENGTH_MAX), ("simplified", LENGTH_MIN),
])
@pytest.mark.parametrize("T", [0.0, TEMPERATURE_MAX])
def test_term_sums_cannot_overflow(method, a, T):
    # The largest coefficients (2R = 2e5 m) times the largest |F_pp| give a
    # finite force, so neither sum needs an overflow refusal; this also serves
    # a + D = 2e5 m, beyond the largest served length, as a gap.
    result = force(LensProfile.perfect(LENGTH_MAX), a, T, method)
    assert 0.0 < result.magnitude < math.inf


# --- a property over every entry ----------------------------------------------

@functools.cache
def _inside(domain):
    """The corners of ``domain`` and log-uniform values inside it."""
    low, high, zero, _text = domain
    log_uniform = st.floats(math.log(max(low, 1.0e-300)), math.log(high)).map(
        lambda u: min(max(math.exp(u), low), high))
    return st.one_of(st.sampled_from([low, high] + [0.0] * zero), log_uniform)


@functools.cache
def _outside(domain):
    """Values just outside ``domain``, far outside it, and not numbers."""
    low, high, zero, _text = domain
    return st.sampled_from([math.nextafter(low, -math.inf), math.nextafter(high, math.inf),
                            -1.0, math.nan, math.inf, -math.inf]
                           + [1.0e300] * (high < 1.0e300) + [0.0] * (not zero and low > 0.0))


@functools.cache
def _values(domain):
    return st.one_of(_inside(domain), _outside(domain))


def _domain_of(label, name):
    if name == "T":
        return TEMPERATURE
    if name in ("tol", "quad_tol", "curvature_tolerance", "variance_of_mean"):
        return TOLERANCE
    if name == "random_error":
        return MAGNITUDE
    if name == "beta":
        return CONFIDENCE
    if label in ("force_bubble", "force_pit") and name in ("R1", "D1"):
        return LENGTH_OR_ZERO
    return LENGTH


def _profile_of(kind, R, D, R1, D1):
    if kind == "perfect":
        return LensProfile.perfect(R, D)
    return getattr(LensProfile, kind)(R, R1, D1, D)


@functools.cache
def _log_factor(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


#: A served profile's R, D, R1 and D1, a choice of each draw (D = R when R
#: is finite).
_SERVED = {"R": 0.15, "D": 0.15, "R1": 0.12, "D1": 1.0e-6}
#: Each length of a drawn profile: the served value, a value inside the
#: domain, or (twice as often) a value relative to an earlier length.
_CHOICES = st.sampled_from([0, 1, 2, 2])


@st.composite
def _profiles(draw, kind, outside=None):
    """A drawn (kind, R, D, R1, D1), built inside the timed call.  Each is
    the served value, a corner or interior value, or (D, D1 and R1) a value
    relative to R or D1, so that served profiles stay common; only the one
    named by ``outside`` lies outside the domain."""
    drawn = {}
    for name, relative in (("R", None), ("D", ("R", 1.0e-9, 2.0)),
                           ("D1", ("R", 1.0e-12, 0.999e-3)), ("R1", ("D1", 0.5, 1.0e9))):
        if name == outside:
            drawn[name] = draw(_outside(LENGTH))
            continue
        choice = draw(_CHOICES)
        if choice == 0:
            finite_r = name == "D" and math.isfinite(drawn["R"])
            drawn[name] = drawn["R"] if finite_r else _SERVED[name]
        elif choice == 1 or relative is None or not math.isfinite(drawn[relative[0]]):
            drawn[name] = draw(_inside(LENGTH))
        else:  # relative to R or D1, kept inside LENGTH
            scaled = drawn[relative[0]] * draw(_log_factor(*relative[1:]))
            drawn[name] = min(max(scaled, LENGTH_MIN), LENGTH_MAX)
    return kind, drawn["R"], drawn["D"], drawn["R1"], drawn["D1"]


def _check_result(result, args):
    if isinstance(result, ForceResult):
        assert 0.0 < result.magnitude < math.inf
    elif isinstance(result, FreeEnergyAreal):
        assert -math.inf < result.value < 0.0
    elif isinstance(result, RatioCurve):
        assert all(0.0 < x < math.inf for x in result.ratios)
    elif isinstance(result, ImperfectionGeometry):
        assert 0.0 < result.r < math.inf and 0.0 <= result.d < math.inf
        assert 0.0 <= result.offset < math.inf
    elif isinstance(result, SpecReport):
        assert len(result.checks) == 2
    elif isinstance(result, LensProfile):
        assert LENGTH_MIN <= result.R <= LENGTH_MAX and 0.0 < result.D <= result.R
    elif isinstance(result, list):  # build_grid
        assert len(result) <= 100_000
        # The end point is included within 1e-9 of a step.
        assert all(LENGTH_MIN <= x <= args["stop"] + 2.0e-9 * args["step"] for x in result)
        assert all(b > prev for prev, b in zip(result, result[1:]))
    elif isinstance(result, ErrorBudget):
        assert result.variance_of_mean > 0.0
        assert all(type(j) is int and j >= 1 for j in result.k_table)
    elif isinstance(result, CombinedError):
        assert 0.0 <= result.total <= result.random_error + result.systematic_error < math.inf
        assert 0.0 <= result.relative < math.inf
    elif isinstance(result, dict):  # a coefficient table
        assert all(math.isfinite(v) for v in result.values())
    else:  # tau, lateral_extent
        assert 0.0 <= result < math.inf


def _call_within_the_domain_contract(label, entry, kwargs, outside=False):
    """Call entry(**kwargs): a finite result that meets its invariants, or a
    ValueError within 50 ms of CPU time; NumericalError only for the
    NUMERICAL entries, and from a quadrature only for a tolerance below
    MIN_REL_TOL.  With an argument ``outside`` the domain, only the
    ValueError will do."""
    start = time.process_time()
    try:
        if "profile" in kwargs and isinstance(kwargs["profile"], tuple):
            kwargs = {**kwargs, "profile": _profile_of(*kwargs["profile"])}
        result = entry(**kwargs)
    except ValueError:
        assert time.process_time() - start < 0.05
        return
    except NumericalError:
        assert label in NUMERICAL and not outside
        tol = QUADRATURE_TOL.get(label)
        assert tol is None or kwargs[tol] < MIN_REL_TOL, f"{label} failed on {kwargs}"
        return
    assert not outside, f"{label} served {kwargs} with {result!r}"
    _check_result(result, kwargs)


def _fields(kind):
    """The lengths of a ``kind`` profile."""
    return ["R", "D"] if kind == "perfect" else list(_SERVED)


@functools.cache
def _valid_or_inside(valid, domain):
    return st.one_of(st.just(valid), _inside(domain))


#: total_error's measured value, served at any finite value but 0, of either
#: sign: values inside, and values outside.
_MEASURED_VALUE = (st.one_of(_inside(TOLERANCE), _inside(TOLERANCE).map(lambda x: -x)),
                   st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@st.composite
def _arguments(draw, label):
    _entry, valid, domains = ENTRIES[label]
    kwargs = dict(valid)
    profile = valid.get("profile")
    # In half the draws one argument, or one length of the profile, lies
    # outside its domain; the others stay inside.
    fields = _fields(profile.kind.value) if isinstance(profile, LensProfile) else []
    names = [*domains, *fields]
    outside = draw(st.sampled_from([None] * len(names) + names))
    for name in domains:
        if name == "measured_value":
            inside, beyond = _MEASURED_VALUE
        else:
            domain = _domain_of(label, name)
            inside, beyond = _valid_or_inside(valid[name], domain), _outside(domain)
        kwargs[name] = draw(beyond if name == outside else inside)
    if fields:
        kwargs["profile"] = draw(_profiles(profile.kind.value, outside))
    return kwargs, outside is not None


_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("label", ENTRIES)
def test_every_entry_serves_or_refuses_its_domain(label):
    entry = ENTRIES[label][0]

    @_SETTINGS
    @given(_arguments(label))
    def check(arguments):
        _call_within_the_domain_contract(label, entry, *arguments)

    check()


@_SETTINGS
@given(kind=st.sampled_from(["perfect", "bubble", "pit"]), data=st.data())
def test_lens_geometry_serves_or_refuses_its_domain(kind, data):
    outside = data.draw(st.sampled_from([None, None, *_fields(kind)]))
    profile = data.draw(_profiles(kind, outside))
    _call_within_the_domain_contract("lateral_extent", lateral_extent, {"profile": profile},
                                     outside is not None)
    if kind != "perfect":
        _call_within_the_domain_contract("derive_geometry", derive_geometry,
                                         {"profile": profile}, outside is not None)


@_SETTINGS
@given(start=_values(LENGTH), stop=_values(LENGTH), step=_values(LENGTH))
def test_build_grid_serves_or_refuses_its_domain(start, stop, step):
    outside = not all(LENGTH_MIN <= x <= LENGTH_MAX for x in (start, stop, step))
    _call_within_the_domain_contract("build_grid", build_grid,
                                     {"start": start, "stop": stop, "step": step}, outside)


_TABLE_KEYS = ["1", "3", "0", "-1", "1.5", "1e308", "nan", "inf", "1e400", "0.8", "8"]


@_SETTINGS
@given(rows=st.lists(st.tuples(st.sampled_from(_TABLE_KEYS),
                               st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=3))
def test_coefficient_tables_load_or_refuse(rows):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.txt"
        path.write_text("".join(f"{key} {value!r}\n" for key, value in rows), encoding="utf-8")
        for loader in (load_k_table, load_q_table):
            _call_within_the_domain_contract(loader.__name__, loader,
                                             {"path": path})


@pytest.mark.parametrize("T", [0.0, TEMPERATURE_MAX])
def test_the_largest_lens_is_served_at_the_largest_separation(T):
    result = force(LensProfile.perfect(LENGTH_MAX), LENGTH_MAX, T, "full")
    assert 0.0 < result.magnitude < math.inf


# --- the command line, at the corners and outside them ------------------------

#: Command-line values at the corners of the domain or inside it, and outside it.
_LENGTHS = (["1e-12", "1e5", "1e5m", "100nm", "0.5um", "1um", "3um", "1mm", "5cm", "12cm",
             "15cm", "25cm", "1m"],
            ["0", "5e-324", "9.99e-13", "100000.00000000001", "1e300",
             "1.7976931348623157e308m", "-1um", "nan", "1e400"])
_TEMPERATURES = (["0", "1e9", "300", "1", "1e-300", "5e-324"],
                 ["1000000000.0000001", "-1", "nan", "1e400"])
_TOLERANCES = (["1e-9", "1e-13", "1e-16", "5e-324", "1.7976931348623157e308"],
               ["0", "nan", "-1", "1e400"])
_BUDGET_VALUES = (["0", "0.05", "0.19", "1", "1e-300", "5e-324", "1e308",
                   "1.7976931348623157e308"], ["-1", "nan", "inf"])
_COMMANDS = ("fpp", "pressure", "force", "ratio", "combine-errors", "validate-lens")
_NOT_FINITE = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)


def _pick(rng, values):
    """A value inside the domain, or in one draw of six one outside it."""
    inside, outside = values
    return rng.choice(outside if rng.random() < 1.0 / 6.0 else inside)


def _grid_argv(rng, few):
    if few or rng.random() < 0.5:
        return ["--a-list", ",".join(_pick(rng, _LENGTHS) for _ in range(rng.randint(1, 2)))]
    while True:
        start, stop, step = (_pick(rng, _LENGTHS) for _ in range(3))
        try:
            count = (parse_length(stop) - parse_length(start)) / parse_length(step)
        except (ValueError, ZeroDivisionError):  # refused before any point is built
            count = 0.0
        # A served grid of many points costs time and shows nothing new.
        if not 200.0 < count < 100_000.0:
            return ["--a-start", start, "--a-stop", stop, "--a-step", step]


def _profile_argv(rng, kinds):
    kind = rng.choice(kinds)
    argv = ["--profile", kind, "--R", _pick(rng, (["1e5", "1m", "15cm", "5cm", "1e-12"],
                                                  _LENGTHS[1]))]
    if kind != "perfect":
        # Mostly a footprint and depth of the kind the paper treats.
        argv += ["--R1", _pick(rng, (["25cm", "12cm", "1mm"], _LENGTHS[0] + _LENGTHS[1])),
                 "--D1", _pick(rng, (["0.5um", "1um", "50nm"], _LENGTHS[0] + _LENGTHS[1]))]
    if rng.random() < 0.3:
        argv += ["--D", _pick(rng, _LENGTHS)]
    return argv


def _cli_argv(rng, command, directory):
    if command == "combine-errors":
        budget = directory / f"budget{rng.random()}.cfg"
        components = ", ".join(_pick(rng, _BUDGET_VALUES) for _ in range(rng.randint(1, 3)))
        budget.write_text(f"random_error = {_pick(rng, _BUDGET_VALUES)}\n"
                          f"systematic_components = {components}\n"
                          f"variance_of_mean = {_pick(rng, _BUDGET_VALUES)}\n",
                          encoding="utf-8")
        argv = [command, "--budget", str(budget)]
        if rng.random() < 0.7:
            argv += ["--value", _pick(rng, _BUDGET_VALUES)]
        if rng.random() < 0.3:
            table = directory / f"q{rng.random()}.txt"
            table.write_text(f"{_pick(rng, _BUDGET_VALUES)} {rng.choice(['0.75', '0.8'])}\n",
                             encoding="utf-8")
            argv += ["--q-table", str(table)]
        return argv
    if command == "validate-lens":
        argv = [command] + _profile_argv(rng, ("perfect", "bubble", "pit"))
        return argv + (["--delta-R", _pick(rng, _TOLERANCES)] if rng.random() < 0.5 else [])
    argv = [command]
    if rng.random() < 0.8:
        argv += ["--T", _pick(rng, _TEMPERATURES)]
    if command in ("fpp", "pressure"):
        return argv + _grid_argv(rng, few=False)
    if command == "ratio":
        return argv + _grid_argv(rng, few=False) + _profile_argv(rng, ("bubble", "pit"))
    method = rng.choice(["quadrature", "full", "full", "simplified", "bubble", "pit", None])
    argv += _grid_argv(rng, few=method == "quadrature")
    argv += _profile_argv(rng, ("perfect", "bubble", "pit"))
    if method is not None:
        argv += ["--method", method]
    if rng.random() < 0.3:
        argv += ["--tol", _pick(rng, _TOLERANCES)]
    return argv


def test_cli_fuzz_at_the_domain_corners(tmp_path, capsys):
    rng = Random(20261019)
    # Two lens corners that once overflowed or printed inf, then the draws.
    runs = [["reproduce-fig2"],
            ["validate-lens", "--profile", "bubble", "--R", "1.7976931348623157e308m",
             "--R1", "3um", "--D1", "1e300"],
            ["validate-lens", "--profile", "bubble", "--R", "3um",
             "--R1", "1.7976931348623157e308m", "--D1", "5e-324", "--D", "5e-324"]]
    runs += [_cli_argv(rng, rng.choice(_COMMANDS), tmp_path) for _ in range(250)]
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        context = f"{argv}: exit {code}, stderr {captured.err!r}"
        assert code in (0, 1) or (code == 2 and "quadrature" in argv and "--tol" in argv
                                  and float(argv[argv.index("--tol") + 1]) < MIN_REL_TOL), context
        assert not _NOT_FINITE.search(captured.out), f"{context}, stdout {captured.out!r}"
        if code == 1:
            [line] = captured.err.splitlines()
            assert line.startswith("error: "), context
