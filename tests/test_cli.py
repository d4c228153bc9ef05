"""End-to-end command-line behaviour: CSV output, exit codes, overrides."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import caslens
from caslens import free_energy_pp, pressure_pp
from caslens.constants import LIGHT_SPEED, REDUCED_PLANCK
from caslens.cli import main


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_fpp_writes_expected_csv(tmp_path):
    out = tmp_path / "fpp.csv"
    assert main(["fpp", "--a-list", "1um", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == "z_m,fpp_J_per_m2"
    assert rows == [["1.00000000000e-06",
                     f"{free_energy_pp(1.0e-6, 300.0).value:.11e}"]]


def test_pressure_writes_expected_csv(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["pressure", "--a-list", "1.5um", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == "z_m,pressure_N_per_m2"
    assert rows[0][1] == f"{pressure_pp(1.5e-6, 300.0):.11e}"


def test_output_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["force", "--profile", "bubble", "--R", "15cm", "--R1", "25cm",
            "--D1", "0.5um", "--a-list", "1um,2um,3um"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_unit_round_trip(tmp_path):
    outputs = []
    for spelling in ("1000nm", "1um", "0.001mm"):
        out = tmp_path / f"{spelling}.csv"
        assert main(["fpp", "--a-list", spelling, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_quadrature_and_full_methods_agree_on_perfect(tmp_path):
    values = {}
    for method in ("quadrature", "full"):
        out = tmp_path / f"{method}.csv"
        assert main(["force", "--R", "15cm", "--method", method,
                     "--a-list", "1um", "--out", str(out)]) == 0
        _header, rows = read_rows(out)
        values[method] = float(rows[0][1])
        assert rows[0][2] == method
    assert abs(values["quadrature"] / values["full"] - 1.0) < 1.0e-6


def test_default_method_follows_profile(tmp_path):
    out = tmp_path / "force.csv"
    assert main(["force", "--profile", "pit", "--R", "15cm", "--R1", "12cm",
                 "--D1", "1um", "--a-list", "1um", "--out", str(out)]) == 0
    _header, rows = read_rows(out)
    assert rows[0][2] == "pit"


def test_method_profile_mismatch_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["force", "--profile", "bubble", "--R", "15cm", "--R1", "25cm",
                 "--D1", "0.5um", "--method", "pit", "--a-list", "1um",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "pit" in capsys.readouterr().err


def test_simplified_warning_deduplicated(tmp_path, capsys):
    out = tmp_path / "warn.csv"
    code = main(["force", "--R", "15cm", "--method", "simplified",
                 "--a-list", "2mm,2mm", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1


@pytest.mark.parametrize("imperfection", [
    pytest.param(["--profile", "bubble", "--R1", "25cm", "--D1", "0.5um"], id="bubble"),
    pytest.param(["--profile", "pit", "--R1", "12cm", "--D1", "1um"], id="pit"),
])
def test_closed_bubble_and_pit_forms_follow_the_a_over_r_rule(tmp_path, capsys, imperfection):
    out = tmp_path / "x.csv"
    argv = ["force", "--R", "15cm", *imperfection, "--out", str(out)]
    assert main(argv + ["--a-list", "1cm,20cm"]) == 1
    assert not out.exists()
    assert "error: a=0.2 is not small against R=0.15" in capsys.readouterr().err
    assert main(argv + ["--a-list", "1cm,1cm"]) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert f"the {imperfection[1]} PFA form degrades" in err


def test_ratio_benchmark_value(tmp_path):
    out = tmp_path / "ratio.csv"
    assert main(["ratio", "--profile", "bubble", "--R", "15cm", "--R1", "25cm",
                 "--D1", "0.5um", "--a-list", "1um", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == "a_m,ratio"
    assert float(rows[0][1]) == pytest.approx(1.458, abs=2.0e-3)


def test_ratio_requires_imperfection(tmp_path):
    out = tmp_path / "ratio.csv"
    code = main(["ratio", "--R", "15cm", "--a-list", "1um", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_benchmark_table_to_stdout(capsys):
    assert main(["reproduce-fig2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a_um,ratio_line1,ratio_line2,ratio_line3"
    assert len(lines) == 42
    assert lines[1].startswith("1.00,")
    assert lines[-1].startswith("3.00,")


def test_combine_errors_report(tmp_path, capsys):
    budget = tmp_path / "budget.cfg"
    budget.write_text(
        "random_error = 0.05\n"
        "systematic_components = 0.1, 0.12, 0.08\n"
        "variance_of_mean = 0.01\n"
        "measured_value = 100\n",
        encoding="utf-8",
    )
    assert main(["combine-errors", "--budget", str(budget)]) == 0
    out = capsys.readouterr().out
    assert "rule = systematic-dominates" in out
    assert "delta_t_relative" in out


def test_combine_errors_flag_overrides_budget_value(tmp_path, capsys):
    budget = tmp_path / "budget.cfg"
    budget.write_text(
        "random_error = 0.05\n"
        "systematic_components = 0.19\n"
        "variance_of_mean = 0.02\n"
        "measured_value = 50\n",
        encoding="utf-8",
    )
    assert main(["combine-errors", "--budget", str(budget),
                 "--value", "100"]) == 0
    out = capsys.readouterr().out
    assert "delta_t_relative = 0.0019" in out


def test_combine_errors_blend_without_q_table_fails(tmp_path, capsys):
    budget = tmp_path / "budget.cfg"
    budget.write_text(
        "random_error = 0.05\n"
        "systematic_components = 0.05\n"
        "variance_of_mean = 0.05\n",
        encoding="utf-8",
    )
    code = main(["combine-errors", "--budget", str(budget)])
    assert code == 1
    assert "q" in capsys.readouterr().err


def test_combine_errors_with_q_table(tmp_path, capsys):
    budget = tmp_path / "budget.cfg"
    budget.write_text(
        "random_error = 1.0\n"
        "systematic_components = 1.0\n"
        "variance_of_mean = 1.0\n",
        encoding="utf-8",
    )
    q_table = tmp_path / "q.txt"
    q_table.write_text("1.0 0.71\n", encoding="utf-8")
    assert main(["combine-errors", "--budget", str(budget),
                 "--q-table", str(q_table)]) == 0
    out = capsys.readouterr().out
    assert "rule = blend" in out
    assert "delta_t = 1.42" in out


def test_validate_lens_report(capsys):
    assert main(["validate-lens", "--profile", "bubble", "--R", "15cm",
                 "--R1", "25cm", "--D1", "0.5um"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "footprint radius" in out


def test_validate_lens_flags_bad_footprint(capsys):
    assert main(["validate-lens", "--profile", "bubble", "--R", "15cm",
                 "--R1", "1mm", "--D1", "50nm"]) == 0
    out = capsys.readouterr().out
    assert "check footprint-diameter: FAIL" in out
    assert "overall: FAIL" in out


def test_low_temperature_nanometre_gap_exit_code(capsys):
    # tau = 5.5e-9: the dual series serves it, and F_pp is the T = 0 value.
    z = 1.0e-9
    code = main(["fpp", "--a-list", "1nm", "--T", "0.01"])
    assert code == 0
    expected = -math.pi**2 * REDUCED_PLANCK * LIGHT_SPEED / (720.0 * z**3)
    assert abs(free_energy_pp(z, 0.01).value / expected - 1.0) <= 1.0e-12
    out = capsys.readouterr().out.splitlines()
    assert out == ["z_m,fpp_J_per_m2", f"{z:.11e},{expected:.11e}"]


def test_low_temperature_force_exit_code(capsys):
    # tau = 5.5e-4, on the dual side of the plate kernel.
    code = main(["force", "--profile", "perfect", "--R", "15cm",
                 "--a-list", "0.1um", "--T", "1"])
    assert code == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "a_m,F_N,method"
    magnitude = float(row.split(",")[1])
    assert math.isfinite(magnitude) and magnitude > 0.0


def test_unattainable_quadrature_tolerance_exit_code(capsys):
    # The rule's error estimate cannot fall below ~1e-14 relative.
    code = main(["force", "--method", "quadrature", "--profile", "perfect",
                 "--R", "15cm", "--a-list", "1um", "--tol", "1e-16"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["quadrature", "full"])
@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_bad_tolerance_is_usage_error(capsys, method, tol):
    code = main(["force", "--method", method, "--R", "15cm", "--a-list", "1um",
                 "--tol", tol])
    assert code == 1
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv, separation", [
    (["fpp", "--a-list", "1e-300", "--T", "0"], "1e-300"),
    (["pressure", "--a-list", "1e-200", "--T", "0"], "1e-200"),
    (["force", "--R", "15cm", "--a-list", "1e-120", "--T", "0"], "1e-120"),
    (["fpp", "--a-list", "1e200", "--T", "0"], "1e+200"),
    (["pressure", "--a-list", "1e100", "--T", "0"], "1e+100"),
    (["pressure", "--a-list", "1e200", "--T", "300"], "1e+200"),
    (["fpp", "--a-list", "1e200", "--T", "300"], "1e+200"),
])
def test_separation_outside_the_float_range_is_usage_error(capsys, argv, separation):
    # Refused by the domain check, before F_pp or P_pp can leave the float range.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: separation {'a' if argv[0] == 'force' else 'z'}={separation} lies outside "
        "the served range [1e-12, 1e5] m"]


@pytest.mark.parametrize("method, thickness", [
    ("quadrature", "5e-324"),   # D (2R - D) rounds to 0: no lateral extent
    ("full", "1e-300"),         # D + a rounds to a: the by-parts terms cancel
    ("full", "1e-16"),          # the terms cancel beyond the accuracy bound
])
def test_vanishing_lens_thickness_is_usage_error(capsys, method, thickness):
    code = main(["force", "--method", method, "--R", "15cm", "--D", thickness,
                 "--a-list", "1um"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: lens thickness D=") and thickness in line


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_combine_errors_rejects_non_finite_value(tmp_path, capsys, value):
    budget = tmp_path / "budget.cfg"
    budget.write_text(
        "random_error = 0.05\n"
        "systematic_components = 0.19\n"
        "variance_of_mean = 0.02\n",
        encoding="utf-8",
    )
    code = main(["combine-errors", "--budget", str(budget), "--value", value])
    assert code == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "delta_t_relative" not in captured.out


@pytest.mark.parametrize("key, value", [
    ("random_error", "abc"),
    ("variance_of_mean", "abc"),
    ("beta", "abc"),
    ("measured_value", "abc"),
    ("systematic_components", "0.1,abc"),
])
def test_combine_errors_names_the_budget_value_that_is_not_a_number(tmp_path, capsys, key,
                                                                    value):
    budget = tmp_path / "budget.cfg"
    settings = {"random_error": "0.05", "systematic_components": "0.19",
                "variance_of_mean": "0.02", key: value}
    budget.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    assert main(["combine-errors", "--budget", str(budget)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: budget file {budget}: {key}: could not convert string to float: 'abc'"]


def test_combine_errors_refuses_a_budget_that_leaves_the_float_range(tmp_path, capsys):
    # delta_s = 3e308 overflows to inf, and so would r, delta_t and the relative.
    budget = tmp_path / "budget.cfg"
    budget.write_text(
        "random_error = 0.05\n"
        "systematic_components = 1e308, 1e308, 1e308\n"
        "variance_of_mean = 1e-300\n",
        encoding="utf-8",
    )
    code = main(["combine-errors", "--budget", str(budget), "--value", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: r = inf: the error budget leaves the float range"]


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from caslens.cli import main
from caslens.plates import free_energy_pp_oracle
assert main(["reproduce-fig2"]) == 0
for profile in (["perfect"], ["bubble", "--R1", "25cm", "--D1", "0.5um"],
                ["pit", "--R1", "12cm", "--D1", "1um"]):
    assert main(["force", "--method", "quadrature", "--R", "15cm",
                 "--a-list", "1um", "--profile", *profile]) == 0
assert free_energy_pp_oracle(1.0e-6, 300.0).value < 0.0
"""


def _python(code):
    env = dict(os.environ)
    src = str(Path(caslens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_runs_without_scipy():
    done = _python(_WITHOUT_SCIPY)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("a_um,ratio_line1,ratio_line2,ratio_line3\n")
    assert done.stdout.count("quadrature") == 3


def test_import_does_not_load_scipy():
    done = _python("import sys, caslens.cli; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_io_failure_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["fpp", "--a-list", "1um", "--out", str(missing_dir)])
    assert code == 3


def test_usage_errors(capsys):
    assert main(["force", "--a-list", "1um"]) == 1          # missing --R
    assert main(["no-such-command"]) == 1
    assert main(["fpp", "--a-list", "1um", "--bogus"]) == 1
    assert main(["fpp"]) == 1                                # no grid given
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["no-such-command"],                        # refused by argparse
    ["fpp", "--a-list", "1um", "--bogus"],      # refused by argparse
    ["force", "--a-list", "1um"],               # UsageError: missing --R
    ["fpp"],                                    # UsageError: no grid given
])
def test_usage_error_prints_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv, config, refusal", [
    pytest.param(["fpp", "--a-start", "1um", "--a-stop", "2um"], None,
                 "error: --a-step is required when --a-stop exceeds --a-start", id="no-step"),
    pytest.param(["force", "--a-list", "1um"], "profile = foo\nR = 15cm\n",
                 "error: unknown profile kind 'foo'", id="config-profile"),
    pytest.param(["force", "--profile", "bubble", "--R", "15cm", "--a-list", "1um"], None,
                 "error: a bubble profile requires --R1 and --D1", id="no-R1-D1"),
    pytest.param(["force", "--method", "quadrature", "--R", "15cm", "--a-list", "1um",
                  "--tol", "1e-3x"], None,
                 "error: --tol: could not convert string to float: '1e-3x'", id="tol-flag"),
    pytest.param(["force", "--method", "quadrature", "--R", "15cm", "--a-list", "1um"],
                 "tol = 1e-3x\n",
                 "error: --tol: could not convert string to float: '1e-3x'", id="tol-config"),
    pytest.param(["force", "--method", "quadrature", "--profile", "bubble", "--R", "15cm",
                  "--R1", "25cm", "--D1", "0.5um", "--D", "1e-9m", "--a-list", "1um"], None,
                 "error: footprint r=0.0004999997499999375 does not fit inside the lens "
                 "extent 1.732050804682126e-05", id="quadrature-footprint"),
    pytest.param(["ratio", "--R", "15cm", "--a-list", "1um"], None,
                 "error: ratio curves require a bubble or pit profile", id="ratio-perfect"),
    # Shape refusals of LensProfile, which every command meets.
    pytest.param(["validate-lens", "--profile", "pit", "--R", "1mm", "--R1", "0.9mm",
                  "--D1", "0.9um", "--D", "1e-9m"], None,
                 "error: footprint r=4.023916003099469e-05 does not fit inside the lens "
                 "extent 1.4142132088196602e-06", id="validate-lens-footprint"),
    pytest.param(["ratio", "--profile", "bubble", "--R", "15cm", "--R1", "0.1um",
                  "--D1", "1um", "--a-list", "1um,2um"], None,
                 "error: R1=1e-07, D1=1e-06 give no footprint (requires D1 < 2 R1)",
                 id="ratio-no-footprint"),
    pytest.param(["force", "--method", "full", "--R", "15cm", "--D", "20cm",
                  "--a-list", "1um"], None,
                 "error: lens thickness D=0.2 exceeds R=0.15", id="full-D-beyond-R"),
])
def test_refusal_prints_the_one_error_line_that_names_it(tmp_path, capsys, argv, config,
                                                          refusal):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [refusal]


def test_combine_errors_names_the_budget_key_that_is_missing(tmp_path, capsys):
    budget = tmp_path / "budget.cfg"
    budget.write_text("random_error = 0.05\nsystematic_components = 0.19\n", encoding="utf-8")
    assert main(["combine-errors", "--budget", str(budget)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: budget file {budget} is missing 'variance_of_mean'"]


def test_grid_start_alone_is_a_one_point_grid(capsys):
    assert main(["fpp", "--a-list", "1um"]) == 0
    listed = capsys.readouterr().out
    assert main(["fpp", "--a-start", "1um"]) == 0
    out = capsys.readouterr().out
    assert out == listed and len(out.splitlines()) == 2


def test_ratio_on_an_empty_grid_prints_the_header_only(capsys):
    assert main(["ratio", "--profile", "pit", "--R", "15cm", "--R1", "12cm", "--D1", "1um",
                 "--a-start", "2um", "--a-stop", "1um", "--a-step", "1um"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("a_m,ratio\n", "")


@pytest.mark.parametrize("stop, step, refusal", [
    # 2e14 points, and a point count that would overflow to inf: both steps
    # lie outside the domain, which is checked first
    pytest.param("3um", "1e-20", "error: grid step=1e-20 lies outside the served range "
                 "[1e-12, 1e5] m", id="3um-1e-20"),
    pytest.param("1m", "5e-324", "error: grid step=5e-324 lies outside the served range "
                 "[1e-12, 1e5] m", id="1m-5e-324"),
    # 1e12 points inside the domain: refused before any point is built
    ("1m", "1e-12", "error: grid from 1e-06 to 1.0 in steps of 1e-12 exceeds 100000 points"),
])
def test_oversized_grid_is_usage_error(capsys, stop, step, refusal):
    start = time.process_time()
    code = main(["fpp", "--a-start", "1um", "--a-stop", stop, "--a-step", step])
    elapsed = time.process_time() - start
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [refusal]
    assert elapsed < 0.05


def test_error_paths_leave_no_partial_file(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = main(["ratio", "--profile", "bubble", "--R", "15cm", "--R1", "25cm",
                 "--D1", "0.5um", "--a-list", "1um,20cm", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "R = 15cm\n"
        "T = 600\n"
        "a-list = 1um\n",
        encoding="utf-8",
    )
    from_config = tmp_path / "config.csv"
    assert main(["fpp", "--config", str(config), "--T", "300",
                 "--out", str(from_config)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(["fpp", "--a-list", "1um", "--T", "300",
                 "--out", str(direct)]) == 0
    assert from_config.read_bytes() == direct.read_bytes()


def test_config_file_accepts_underscore_keys(tmp_path, capsys):
    listed = tmp_path / "list.cfg"
    listed.write_text("a_list = 1um,2um\n", encoding="utf-8")
    ranged = tmp_path / "range.cfg"
    ranged.write_text("a_start = 1um\na_stop = 2um\na_step = 1um\n", encoding="utf-8")
    assert main(["fpp", "--a-list", "1um,2um"]) == 0
    direct = capsys.readouterr().out
    for config in (listed, ranged):
        assert main(["fpp", "--config", str(config)]) == 0
        assert capsys.readouterr().out == direct
    lens = tmp_path / "lens.cfg"
    lens.write_text("profile = bubble\nR = 15cm\nR1 = 25cm\nD1 = 0.5um\n"
                    "delta_R = 0.1um\n", encoding="utf-8")
    assert main(["validate-lens", "--config", str(lens)]) == 0
    out = capsys.readouterr().out
    assert "curvature tolerance 1.0e-07 m" in out
    assert "overall: FAIL" in out


def test_config_file_hyphenated_key_wins_over_underscored(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("a_list = 2um\na-list = 1um\n", encoding="utf-8")
    assert main(["fpp", "--a-list", "1um"]) == 0
    direct = capsys.readouterr().out
    assert main(["fpp", "--config", str(config)]) == 0
    assert capsys.readouterr().out == direct


def test_config_file_ignores_keys_that_name_no_unset_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("a-list = 1um\nout = x.csv\nconfig = y\ncommand = pressure\n"
                      "delta-R = 1um\n", encoding="utf-8")
    assert main(["fpp", "--a-list", "1um"]) == 0
    direct = capsys.readouterr().out
    assert main(["fpp", "--config", str(config)]) == 0
    assert capsys.readouterr().out == direct
    assert not (tmp_path / "x.csv").exists()


def test_missing_config_file_is_read_before_any_value_is_checked(tmp_path, capsys):
    code = main(["fpp", "--config", str(tmp_path / "missing.cfg"), "--T", "-5",
                 "--a-list", "1um"])
    assert code == 3
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_zero_length_grid_yields_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["force", "--R", "15cm", "--a-start", "2um", "--a-stop", "1um",
                 "--a-step", "0.5um", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "a_m,F_N,method\n"


def test_grid_step_below_the_float_spacing_is_usage_error(capsys):
    # A step of 1e-20 m lies outside the domain, which is checked first.
    code = main(["fpp", "--a-start", "1m", "--a-stop", "1.0000000000000002m",
                 "--a-step", "1e-20"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: grid step=1e-20 lies outside the served range [1e-12, 1e5] m"]


@pytest.mark.parametrize("count", ["inf", "nan", "1e400"])
def test_k_table_with_a_non_finite_component_count_is_usage_error(tmp_path, capsys, count):
    budget = tmp_path / "budget.cfg"
    budget.write_text("random_error = 0.05\nsystematic_components = 0.19\n"
                      "variance_of_mean = 0.02\n", encoding="utf-8")
    table = tmp_path / "k.txt"
    table.write_text(f"{count} 1.1\n", encoding="utf-8")
    code = main(["combine-errors", "--budget", str(budget), "--k-table", str(table)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "component count must be a positive integer" in line
