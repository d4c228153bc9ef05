"""Unit parsing, key-value files and separation grids."""

import re
import time

import pytest

from caslens import build_grid, parse_kv_file, parse_length, parse_temperature


def test_parse_length_units():
    assert parse_length("1000 nm") == pytest.approx(1.0e-6, rel=1.0e-15)
    assert parse_length("1um") == pytest.approx(1.0e-6, rel=1.0e-15)
    assert parse_length("0.001mm") == pytest.approx(1.0e-6, rel=1.0e-15)
    assert parse_length("15cm") == pytest.approx(0.15, rel=1.0e-15)
    assert parse_length("2.5e-6") == 2.5e-6          # bare numbers are metres
    assert parse_length("1.5 m") == 1.5
    assert parse_length("+2um") == pytest.approx(2.0e-6)


def test_parse_length_errors():
    for bad, message in [
        ("", "cannot parse length ''"),
        ("abc", "cannot parse length 'abc'"),
        ("1..2um", "cannot parse length '1..2um'"),
        ("1 parsec", "unknown length unit 'parsec' in '1 parsec'"),
        ("300K", "unknown length unit 'K' in '300K'"),
        ("1e999um", "length '1e999um' is not finite"),
        ("1e999", "length '1e999' is not finite"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_length(bad)


def test_parse_temperature():
    assert parse_temperature("300") == 300.0
    assert parse_temperature("300K") == 300.0
    assert parse_temperature("300 K") == 300.0
    for bad, message in [
        ("warm", "cannot parse temperature 'warm'"),
        ("300C", "unknown temperature unit 'C' in '300C'"),
        ("1um", "unknown temperature unit 'um' in '1um'"),
        ("1e999K", "temperature '1e999K' is not finite"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_temperature(bad)


def test_parse_kv_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# benchmark case\n"
        "R = 15cm\n"
        "R1= 25cm   # wide bubble\n"
        "D1 = 0.5um\n"
        "\n"
        "T = 300\n",
        encoding="utf-8",
    )
    settings = parse_kv_file(path)
    assert settings == {"R": "15cm", "R1": "25cm", "D1": "0.5um", "T": "300"}


def test_parse_kv_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("R 15cm\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_kv_file(path)
    path.write_text("R =\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_kv_file(path)


def test_build_grid_inclusive_endpoints():
    grid = build_grid(1.0e-6, 3.0e-6, 0.05e-6)
    assert len(grid) == 41
    assert grid[0] == 1.0e-6
    assert grid[-1] == pytest.approx(3.0e-6, rel=1.0e-12)
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_build_grid_corner_cases():
    assert build_grid(2.0e-6, 1.0e-6, 0.5e-6) == []     # empty when stop < start
    assert build_grid(1.0e-6, 1.0e-6, 0.5e-6) == [1.0e-6]
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0e-6, 0.5e-6)
    with pytest.raises(ValueError):
        build_grid(1.0e-6, 2.0e-6, 0.0)


OUTSIDE = "lies outside the served range \\[1e-12, 1e5\\] m"


@pytest.mark.parametrize("start, stop, step, refusal", [
    # 100 001 points, but the stop already lies outside the domain
    pytest.param(1.0, 100_001.0, 1.0, f"grid stop=100001.0 {OUTSIDE}", id="1.0-100001.0-1.0"),
    # 2e14 points, but the step already lies outside the domain
    pytest.param(1.0e-6, 3.0e-6, 1.0e-20, f"grid step=1e-20 {OUTSIDE}", id="1e-06-3e-06-1e-20"),
    # the count would overflow to inf; the step lies outside the domain
    pytest.param(1.0e-6, 1.0, 5.0e-324, f"grid step=5e-324 {OUTSIDE}", id="1e-06-1.0-5e-324"),
    # inside the domain: 100 001 points, and the most the domain allows, 1e17
    (1.0, 100_000.0, 0.99999, "exceeds 100000 points"),
    (1.0e-12, 1.0e5, 1.0e-12, "exceeds 100000 points"),
])
def test_build_grid_refuses_too_many_points(start, stop, step, refusal):
    began = time.process_time()
    with pytest.raises(ValueError, match=refusal):
        build_grid(start, stop, step)
    assert time.process_time() - began < 0.05


def test_build_grid_serves_the_largest_grid():
    assert len(build_grid(1.0, 100_000.0, 1.0)) == 100_000


@pytest.mark.parametrize("start, stop, step, refusal", [
    # 22 205 points, 2 of them distinct; the step lies outside the domain
    pytest.param(1.0, 1.0000000000000002, 1.0e-20, f"grid step=1e-20 {OUTSIDE}",
                 id="1.0-1.0000000000000002-1e-20"),
    # each step rounds to 0 or 1 spacing; the step lies outside the domain
    pytest.param(1.0, 1.0 + 1.0e-12, 1.5e-16, f"grid step=1.5e-16 {OUTSIDE}",
                 id="1.0-1.000000000001-1.5e-16"),
    # inside the domain: the float spacing just below 1e5 m is 1.5e-11 m
    (1.0e5 - 5.0e-8, 1.0e5, 1.0e-12, "grid step 1e-12 is below the float spacing"),
])
def test_build_grid_refuses_a_step_below_the_float_spacing(start, stop, step, refusal):
    with pytest.raises(ValueError, match=refusal):
        build_grid(start, stop, step)


def test_build_grid_keeps_the_fig2_grid():
    assert build_grid(1.0e-6, 3.0e-6, 0.05e-6) == [1.0e-6 + i * 0.05e-6 for i in range(41)]
