"""Command-line interface.

Subcommands:

    fpp             parallel-plate free energy per unit area over a grid
    pressure        parallel-plate pressure over a grid
    force           plate-lens force by a chosen method over a grid
    ratio           imperfect/perfect force ratio over a grid
    reproduce-fig2  the bundled three-case benchmark ratio table
    combine-errors  total measurement error from a budget file
    validate-lens   check an imperfection against the optical limits

CSV output is deterministic: comma separated, LF line endings, UTF-8,
numbers in scientific notation with 12 significant digits.  Exit codes:
0 success, 1 usage/configuration error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Sequence

from . import config as cfg
from .exceptions import TEMPERATURE, TOLERANCE, NumericalError, check_finite
from .lens import (DEFAULT_CURVATURE_TOLERANCE, LensKind, LensProfile, derive_geometry,
                   validate_spec)
from .metrology import ErrorBudget, load_k_table, load_q_table, total_error
from .pfa import ForceMethod, force, ratio_curve
from .plates import free_energy_pp, pressure_pp

DEFAULT_TEMPERATURE = 300.0

#: Hard-coded benchmark: three imperfection cases on a R = 15 cm lens at
#: 300 K, separations 1.0 um to 3.0 um in 0.05 um steps.
_BENCHMARK_R = 0.15
_BENCHMARK_CASES = (
    ("ratio_line1", LensKind.BUBBLE, 0.25, 0.5e-6),
    ("ratio_line2", LensKind.BUBBLE, 0.05, 1.0e-6),
    ("ratio_line3", LensKind.PIT, 0.12, 1.0e-6),
)


class UsageError(ValueError):
    """A command line or configuration the commands cannot run; exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _write_csv(path: str, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Write CSV atomically: any failure leaves no partial file behind."""
    lines = [header] + [",".join(row) for row in rows]
    payload = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(payload)
        return
    import tempfile  # only a file output needs it, so stdout runs skip its import

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".caslens-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _number(name: str, text: str) -> float:
    """float(text), or a UsageError naming ``name`` and the text."""
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _merge_config(args: argparse.Namespace) -> None:
    """Fill each flag left unset from the ``--config`` file, if one is
    given: its hyphenated key (``a-list``) wins over its underscored one
    (``a_list``).  Keys that name no unset flag are ignored."""
    if getattr(args, "config", None) is None:
        return
    settings = cfg.parse_kv_file(args.config)
    flags = vars(args)
    for name, value in flags.items():
        if value is None:
            flags[name] = settings.get(name.replace("_", "-"), settings.get(name))


def _grid(args: argparse.Namespace) -> list[float]:
    if args.a_list:
        return [cfg.parse_length(item) for item in args.a_list.split(",") if item.strip()]
    if args.a_start is None:
        raise UsageError("a separation grid requires --a-start or --a-list")
    start_m = cfg.parse_length(args.a_start)
    stop_m = cfg.parse_length(args.a_stop) if args.a_stop is not None else start_m
    if args.a_step is None:
        if stop_m > start_m:
            raise UsageError("--a-step is required when --a-stop exceeds --a-start")
        step_m = 1.0
    else:
        step_m = cfg.parse_length(args.a_step)
    return cfg.build_grid(start_m, stop_m, step_m)


def _temperature(args: argparse.Namespace) -> float:
    if args.T is None:
        return DEFAULT_TEMPERATURE
    return check_finite("temperature", cfg.parse_temperature(args.T), TEMPERATURE)


def _profile(args: argparse.Namespace) -> LensProfile:
    kind_name = "perfect" if args.profile is None else args.profile
    try:
        kind = LensKind(kind_name)
    except ValueError:
        raise UsageError(f"unknown profile kind {kind_name!r}") from None
    if args.R is None:
        raise UsageError("--R is required")
    R = cfg.parse_length(args.R)
    D = cfg.parse_length(args.D) if args.D is not None else R
    R1 = D1 = None
    if kind is not LensKind.PERFECT:
        if args.R1 is None or args.D1 is None:
            raise UsageError(f"a {kind.value} profile requires --R1 and --D1")
        R1 = cfg.parse_length(args.R1)
        D1 = cfg.parse_length(args.D1)
    return LensProfile(kind, R, D, R1, D1)


#: The CSV header and the kernel (z, T) -> value of each plate command.
_PLATE_COLUMNS = {
    "fpp": ("z_m,fpp_J_per_m2", lambda z, T: free_energy_pp(z, T).value),
    "pressure": ("z_m,pressure_N_per_m2", pressure_pp),
}


def _cmd_plates(args: argparse.Namespace) -> int:
    header, kernel = _PLATE_COLUMNS[args.command]
    T = _temperature(args)
    rows = [(_fmt(z), _fmt(kernel(z, T))) for z in _grid(args)]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_force(args: argparse.Namespace) -> int:
    T = _temperature(args)
    grid = _grid(args)
    profile = _profile(args)
    tol = (None if args.tol is None
           else check_finite("--tol", _number("--tol", args.tol), TOLERANCE))
    warnings_seen: list[str] = []
    rows = []
    for a in grid:
        result = force(profile, a, T, args.method, tol=tol)
        if result.warning and result.warning not in warnings_seen:
            warnings_seen.append(result.warning)
        rows.append((_fmt(a), _fmt(result.magnitude), result.method.value))
    for warning in warnings_seen:
        print(f"warning: {warning}", file=sys.stderr)
    _write_csv(args.out, "a_m,F_N,method", rows)
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    T = _temperature(args)
    grid = _grid(args)
    curve = ratio_curve(_profile(args), grid, T)
    rows = [(_fmt(a), _fmt(rho)) for a, rho in zip(curve.separations, curve.ratios)]
    _write_csv(args.out, "a_m,ratio", rows)
    return 0


def _cmd_reproduce_fig2(args: argparse.Namespace) -> int:
    grid = cfg.build_grid(1.0e-6, 3.0e-6, 0.05e-6)
    columns = []
    for _name, kind, R1, D1 in _BENCHMARK_CASES:
        profile = LensProfile(kind, _BENCHMARK_R, _BENCHMARK_R, R1, D1)
        columns.append(ratio_curve(profile, grid, DEFAULT_TEMPERATURE).ratios)
    header = "a_um," + ",".join(name for name, *_ in _BENCHMARK_CASES)
    rows = []
    for i, a in enumerate(grid):
        rows.append((f"{a * 1.0e6:.2f}",) + tuple(_fmt(col[i]) for col in columns))
    _write_csv(args.out, header, rows)
    return 0


def _cmd_combine_errors(args: argparse.Namespace) -> int:
    settings = cfg.parse_kv_file(args.budget)
    for key in ("random_error", "systematic_components", "variance_of_mean"):
        if key not in settings:
            raise UsageError(f"budget file {args.budget} is missing {key!r}")

    def number(key: str, text: str) -> float:
        return _number(f"budget file {args.budget}: {key}", text)

    beta = number("beta", settings.get("beta", "0.95"))
    components = tuple(
        number("systematic_components", item)
        for item in settings["systematic_components"].split(",") if item.strip()
    )
    k_table = load_k_table(args.k_table) if args.k_table else {}
    q_table = load_q_table(args.q_table) if args.q_table else {}
    budget = ErrorBudget(
        random_error=number("random_error", settings["random_error"]),
        systematic_components=components,
        variance_of_mean=number("variance_of_mean", settings["variance_of_mean"]),
        beta=beta,
        k_table=k_table,
        q_table=q_table,
    )
    measured = args.value
    if measured is None and "measured_value" in settings:
        measured = number("measured_value", settings["measured_value"])
    combined = total_error(budget, measured)
    print(f"r = {combined.r:.6g}")
    print(f"rule = {combined.rule_applied.value}")
    print(f"delta_r = {combined.random_error:.6g}")
    print(f"delta_s = {combined.systematic_error:.6g}")
    print(f"delta_t = {combined.total:.6g}")
    if combined.relative is not None:
        print(f"delta_t_relative = {combined.relative:.6g}")
    return 0


def _cmd_validate_lens(args: argparse.Namespace) -> int:
    profile = _profile(args)
    report = validate_spec(profile, DEFAULT_CURVATURE_TOLERANCE if args.delta_R is None
                           else cfg.parse_length(args.delta_R))
    if profile.kind is not LensKind.PERFECT:
        geometry = derive_geometry(profile)
        print(f"footprint radius r = {geometry.r:.6e} m")
        print(f"sagitta d = {geometry.d:.6e} m")
        print(f"offset = {geometry.offset:.6e} m")
    for check in report.checks:
        state = "PASS" if check.passed else "FAIL"
        print(f"check {check.name}: {state} ({check.detail})")
    print(f"overall: {'PASS' if report.all_passed else 'FAIL'}")
    return 0


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-",
                        help="output path ('-' writes to stdout)")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a-start", help="grid start separation, e.g. 1um")
    parser.add_argument("--a-stop", help="grid end separation (inclusive)")
    parser.add_argument("--a-step", help="grid step")
    parser.add_argument("--a-list", help="comma-separated explicit separations")
    parser.add_argument("--T", help="temperature in kelvin (default 300)")
    parser.add_argument("--config", help="key = value configuration file; "
                                         "command-line flags win")


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=[k.value for k in LensKind],
                        help="lens profile kind (default perfect)")
    parser.add_argument("--R", help="lens curvature radius, e.g. 15cm")
    parser.add_argument("--R1", help="imperfection curvature radius")
    parser.add_argument("--D1", help="imperfection depth")
    parser.add_argument("--D", help="lens thickness (default: R, a hemisphere)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="caslens",
                     description="Thermal Casimir force between a plane "
                                 "plate and a centimeter-size spherical lens")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("fpp", "parallel-plate free energy per unit area"),
                            ("pressure", "parallel-plate pressure")):
        p = sub.add_parser(name, help=help_text)
        _add_grid(p)
        _add_out(p)
        p.set_defaults(func=_cmd_plates)

    p = sub.add_parser("force", help="plate-lens force over a separation grid")
    _add_grid(p)
    _add_profile(p)
    p.add_argument("--method",
                   choices=[m.value for m in ForceMethod],
                   help="force formula (default matches the profile kind)")
    p.add_argument("--tol", help="relative quadrature tolerance")
    _add_out(p)
    p.set_defaults(func=_cmd_force)

    p = sub.add_parser("ratio", help="imperfect/perfect force ratio")
    _add_grid(p)
    _add_profile(p)
    _add_out(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("reproduce-fig2",
                       help="benchmark ratio table for the three bundled "
                            "imperfection cases")
    _add_out(p)
    p.set_defaults(func=_cmd_reproduce_fig2)

    p = sub.add_parser("combine-errors", help="combine an error budget")
    p.add_argument("--budget", required=True, help="budget key = value file")
    p.add_argument("--k-table", help="two-column (J, k) coefficient file")
    p.add_argument("--q-table", help="two-column (r, q) coefficient file")
    p.add_argument("--value", type=float,
                   help="measured value for the relative total")
    p.set_defaults(func=_cmd_combine_errors)

    p = sub.add_parser("validate-lens", help="check a lens imperfection "
                                             "against the optical limits")
    p.add_argument("--config", help="key = value configuration file")
    _add_profile(p)
    p.add_argument("--delta-R", help="curvature measurement tolerance "
                                     "(default 0.05cm)")
    p.set_defaults(func=_cmd_validate_lens)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
