"""The four benchmark workloads: seeded inputs, one operation, output checks.

Each workload turns a seed into a pool of plain-data inputs (``inputs``),
binds the pool to caslens calls (``bind``) and checks the outputs the timed
loop recorded (``check``).  Inputs never depend on caslens, so two seeds can
be compared without importing it.  Every call into caslens goes through a
module attribute (``plates.free_energy_pp``) so that a traced run can wrap
it.
"""

from __future__ import annotations

import functools
import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_FIG2 = HERE / "golden" / "reproduce-fig2.csv"

# CODATA / SI values, kept here so the T = 0 checks do not read the
# constants under test.
HBAR = 1.054571817e-34
LIGHT_SPEED = 299792458.0
BOLTZMANN = 1.380649e-23
TAU_PER_METRE_KELVIN = 4.0 * math.pi * BOLTZMANN / (HBAR * LIGHT_SPEED)

#: The three bundled Fig. 2 cases (kind, R1, D1) on R = 15 cm at 300 K.
FIG2_CASES = (("bubble", 0.25, 0.5e-6), ("bubble", 0.05, 1.0e-6), ("pit", 0.12, 1.0e-6))
FIG2_R = 0.15
#: The 41-point 1-3 um grid, built exactly as the CLI builds it.
FIG2_GRID = tuple(1.0e-6 + i * 0.05e-6 for i in range(41))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * math.exp(rng.random() * math.log(hi / lo))


def _depth(rng: random.Random) -> float:
    return _log_uniform(rng, 0.3e-6, 2.0e-6)


def _defect_radius(rng: random.Random, kind: str, R: float, D1: float) -> float:
    """Imperfection radius R1 for depth D1 whose footprint 2r is log-uniform
    on [0.2, 1.1] mm, inside the optical-quality window.  Pits also keep
    R1 = (r^2 + D1^2) / (2 D1) below 0.9 R."""
    top = 1.1e-3
    if kind == "pit":
        top = min(top, 2.0 * math.sqrt(1.8 * R * D1 - D1 * D1))
    r = 0.5 * _log_uniform(rng, 0.2e-3, top)
    return (r * r + D1 * D1) / (2.0 * D1)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports caslens from src/."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class CheckFailed(Exception):
    """An output that differs from what it should be."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rel(x: float, ref: float) -> float:
    return abs(x / ref - 1.0)


@functools.cache
def _golden_columns() -> list[list[float]]:
    rows = [line.split(",") for line in GOLDEN_FIG2.read_text().splitlines()[1:]]
    return [[float(row[c]) for row in rows] for c in (1, 2, 3)]


def _profile(lens, kind: str, R: float, R1: float | None, D1: float | None):
    if kind == "perfect":
        return lens.LensProfile.perfect(R)
    factory = lens.LensProfile.bubble if kind == "bubble" else lens.LensProfile.pit
    return factory(R, R1, D1)


def _pit_by_parts(plates, a: float, T: float, R: float, R1: float, D1: float) -> float:
    """Leading-order surface integral of the pit height profile:
    2 pi (R + R1) F_pp(a) - 2 pi R1 F_pp(a + D1)."""
    near = plates.free_energy_pp(a, T).value
    far = plates.free_energy_pp(a + D1, T).value
    return 2.0 * math.pi * ((R + R1) * near - R1 * far)


class Workload:
    name = ""
    #: Highest percentile the tail latency may report (see run.tail_percentile).
    tail_cap = 99.0
    #: Operations run untimed before the first timed one.
    warmup = 8
    #: Run length (s) per pass over the pool in a traced run; it keeps the
    #: span count of a traced run near 150 000 at most.
    trace_pass_seconds = 5.0
    #: Whether the timed operations run as child processes.
    child_processes = False

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def bind(self, pool: list, in_process: bool) -> tuple[list, object]:
        """Return the bound pool and ``execute(bound_item) -> output``."""
        raise NotImplementedError

    def check(self, pool: list, outputs: list) -> dict[int, str]:
        """Map each pool index whose recorded output is wrong to a reason.
        Indices whose output is None never ran (or raised) and are skipped."""
        bad = {}
        for i, (item, out) in enumerate(zip(pool, outputs)):
            if out is None:
                continue
            try:
                self.check_one(i, item, out)
            except Exception as exc:  # a reference that fails is a failed check too
                bad[i] = f"{item!r}: {type(exc).__name__}: {exc}"
        return bad

    def check_one(self, i: int, item, out) -> None:
        """Raise when ``out`` is not the right output for pool entry ``i``."""
        raise NotImplementedError

    def kind(self, item) -> str:
        return self.name

    def trace_passes(self, seconds: float) -> int:
        return max(1, int(seconds // self.trace_pass_seconds))

    def _rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")


class PlateKernel(Workload):
    """free_energy_pp + pressure_pp at one (z, T) point per operation.

    Nearly all time is in ``plates``, with a tail of several hundred series
    terms at small tau; it bypasses ``pfa``, ``lens`` and the import cost."""

    name = "plate-kernel"
    warmup = 256
    TAU_LO, TAU_HI = 1.2e-3, 1.0e2
    STRATA = 4096
    ZERO_T = 64
    #: Every this many pool entries (a seeded subset, as the pool is
    #: shuffled) is checked against the brute-force oracle when tau >= 0.1.
    ORACLE_EVERY = 256

    def inputs(self, seed):
        # One tau per log-stratum keeps the summed term count, and so the
        # pool's cost, nearly the same for every seed.
        rng = self._rng(seed)
        span = math.log(self.TAU_HI / self.TAU_LO)
        pool = []
        for i in range(self.STRATA):
            tau = self.TAU_LO * math.exp(span * (i + rng.random()) / self.STRATA)
            z = _log_uniform(rng, 0.2e-6, 10.0e-6)
            pool.append((z, tau / (TAU_PER_METRE_KELVIN * z)))
        pool += [(_log_uniform(rng, 0.2e-6, 10.0e-6), 0.0) for _ in range(self.ZERO_T)]
        rng.shuffle(pool)
        return pool

    def bind(self, pool, in_process):
        from caslens import plates

        def execute(item):
            z, T = item
            return plates.free_energy_pp(z, T).value, plates.pressure_pp(z, T)

        return pool, execute

    def check_one(self, i, item, out):
        from caslens import plates

        (z, T), (f, p) = item, out
        _expect(math.isfinite(f) and math.isfinite(p) and f < 0.0 and p < 0.0,
                f"non-finite or non-negative output {out!r}")
        if T == 0.0:
            f0 = -math.pi**2 * HBAR * LIGHT_SPEED / (720.0 * z**3)
            p0 = -math.pi**2 * HBAR * LIGHT_SPEED / (240.0 * z**4)
            _expect(_rel(f, f0) <= 1e-12 and _rel(p, p0) <= 1e-12,
                    f"T = 0 result {out!r} differs from ({f0!r}, {p0!r})")
        elif i % self.ORACLE_EVERY == 0 and TAU_PER_METRE_KELVIN * z * T >= 0.1:
            ref = plates.free_energy_pp_oracle(z, T).value
            _expect(_rel(f, ref) <= 1e-9, f"series {f!r} differs from the oracle {ref!r}")


class RatioCurves(Workload):
    """validate_spec, derive_geometry and a 41-point ratio_curve per operation.

    The closed-form ``pfa`` path with its validation and dispatch overhead,
    on seeded bubbles and pits near the paper's lens plus the Fig. 2 cases."""

    name = "ratio-curves"
    trace_pass_seconds = 10.0
    SEEDED = 256

    def inputs(self, seed):
        # T and D1, which set the kernel cost, run over fixed ladders (D1 in a
        # low-discrepancy order on [0.3, 2] um), so every seed carries the
        # same cost; the seed draws the kind, R, the footprint and the order.
        rng = self._rng(seed)
        pool = []
        for i in range(self.SEEDED):
            T = 1.0 + 299.0 * i / (self.SEEDED - 1)
            D1 = 0.3e-6 * (2.0 / 0.3) ** (i * 0.6180339887498949 % 1.0)
            kind = rng.choice(("bubble", "pit"))
            R = rng.uniform(0.14, 0.16)
            pool.append((kind, R, _defect_radius(rng, kind, R, D1), D1, T, None))
        pool += [(kind, FIG2_R, R1, D1, 300.0, column)
                 for column, (kind, R1, D1) in enumerate(FIG2_CASES)]
        rng.shuffle(pool)
        return pool

    def bind(self, pool, in_process):
        from caslens import lens, pfa

        bound = [(_profile(lens, kind, R, R1, D1), T) for kind, R, R1, D1, T, _ in pool]

        def execute(item):
            profile, T = item
            report = lens.validate_spec(profile)
            geometry = lens.derive_geometry(profile)
            curve = pfa.ratio_curve(profile, FIG2_GRID, T)
            return report.all_passed, geometry.r, curve.ratios

        return bound, execute

    def check_one(self, i, item, out):
        (_, _, R1, D1, _, column), (passed, r, ratios) = item, out
        _expect(passed, "profile generated inside the spec window failed validate_spec")
        _expect(_rel(r, math.sqrt(2.0 * R1 * D1 - D1 * D1)) <= 1e-12, f"footprint radius {r!r}")
        _expect(len(ratios) == len(FIG2_GRID)
                and all(math.isfinite(x) and x > 0.0 for x in ratios),
                "ratio curve has a missing, non-finite or non-positive ratio")
        if column is not None:
            worst = max(_rel(x, g) for x, g in zip(ratios, _golden_columns()[column]))
            _expect(worst <= 1e-9, f"Fig. 2 case differs from the golden table by {worst:.2e}")


class ForceQuadrature(Workload):
    """One force_general or force_perfect_full force per operation.

    The ``pfa`` quadrature and ``lens.profile_height``, with the kernel at
    large tau only: a kernel change that trades large-tau speed for
    small-tau speed shows here and not in plate-kernel."""

    name = "force-quadrature"
    trace_pass_seconds = 20.0
    STRATA = 96
    A_LO, A_HI = 0.5e-6, 5.0e-6
    T = 300.0

    def inputs(self, seed):
        # Every a-stratum carries one case of each kind, so the pool's cost
        # does not depend on how the seed pairs kinds with separations.
        rng = self._rng(seed)
        span = math.log(self.A_HI / self.A_LO)
        pool = []
        for i in range(self.STRATA):
            a = self.A_LO * math.exp(span * (i + rng.random()) / self.STRATA)
            for kind in ("perfect", "bubble", "pit"):
                R = rng.uniform(0.14, 0.16)
                R1 = D1 = None
                if kind != "perfect":
                    D1 = _depth(rng)
                    R1 = _defect_radius(rng, kind, R, D1)
                methods = ("quadrature", "full") if kind == "perfect" else ("quadrature",)
                pool += [(method, kind, R, R1, D1, a) for method in methods]
        rng.shuffle(pool)
        return pool

    def bind(self, pool, in_process):
        from caslens import lens, pfa

        T = self.T
        bound = [(method, _profile(lens, kind, R, R1, D1), a)
                 for method, kind, R, R1, D1, a in pool]

        def execute(item):
            method, profile, a = item
            if method == "full":
                return pfa.force_perfect_full(a, T, profile.R).value
            return pfa.force_general(profile, a, T).value

        return bound, execute

    def check_one(self, i, item, force):
        from caslens import pfa, plates

        method, kind, R, R1, D1, a = item
        T = self.T
        _expect(math.isfinite(force) and force < 0.0,
                f"force {force!r} is not finite and attractive")
        if method == "full":
            # Full and simplified perfect forms differ at order a/R.
            ref, tol = 2.0 * math.pi * R * plates.free_energy_pp(a, T).value, 1e-4
        elif kind == "perfect":
            ref, tol = pfa.force_perfect_full(a, T, R).value, 1e-6
        elif kind == "bubble":
            ref, tol = pfa.force_bubble(a, T, R, R1, D1).value, 1e-3
        else:
            ref, tol = _pit_by_parts(plates, a, T, R, R1, D1), 1e-4
        _expect(_rel(force, ref) <= tol,
                f"{method} {kind} force {force!r} differs from {ref!r} by more than {tol}")


# --- cli-batch --------------------------------------------------------------

CLI_KINDS = ("reproduce-fig2", "fpp", "pressure", "force-closed",
             "force-quadrature", "ratio", "combine-errors", "validate-lens")

#: Budget fixtures with the rule and delta_t their values imply.
BUDGETS = {
    "budget-systematic.cfg": ("systematic-dominates",
                              1.1 * math.sqrt(0.1**2 + 0.12**2 + 0.08**2)),
    "budget-random.cfg": ("random-dominates", 0.3),
    "budget-single.cfg": ("systematic-dominates", 0.19),
    "budget-blend.cfg": ("blend", 0.71 * 2.0),
}
FIXTURES = "perfbench/fixtures"


def _lens_args(rng: random.Random, kinds: tuple[str, ...]) -> list[str]:
    kind = rng.choice(kinds)
    R_cm = round(rng.uniform(14.0, 16.0), 2)
    args = ["--profile", kind, "--R", f"{R_cm:g}cm"]
    if kind != "perfect":
        D1 = _depth(rng)
        R1 = _defect_radius(rng, kind, R_cm / 100.0, D1)
        args += ["--R1", f"{R1:.6g}m", "--D1", f"{D1 * 1e6:.4g}um"]
    return args


def _a_list(rng: random.Random, count: int) -> list[str]:
    values = sorted(round(rng.uniform(0.5, 5.0), 3) for _ in range(count))
    return ["--a-list", ",".join(f"{a:g}um" for a in values)]


def _temperature(rng: random.Random) -> list[str]:
    return ["--T", f"{round(rng.uniform(1.0, 300.0), 1):g}"]


def _cli_argv(rng: random.Random, kind: str) -> tuple[str, ...]:
    if kind == "reproduce-fig2":
        argv = ["reproduce-fig2"]
    elif kind in ("fpp", "pressure"):
        start, step, n = rng.randint(50, 200), rng.randint(10, 25), rng.randint(6, 12)
        argv = [kind, "--a-start", f"{start / 100:g}um",
                "--a-stop", f"{(start + (n - 1) * step) / 100:g}um",
                "--a-step", f"{step / 100:g}um"] + _temperature(rng)
    elif kind == "force-closed":
        argv = ["force"] + _lens_args(rng, ("bubble", "pit")) + _a_list(rng, 4) + _temperature(rng)
    elif kind == "force-quadrature":
        argv = (["force", "--method", "quadrature"]
                + _lens_args(rng, ("perfect", "bubble", "pit")) + _a_list(rng, 3))
    elif kind == "ratio":
        argv = (["ratio"] + _lens_args(rng, ("bubble", "pit"))
                + ["--a-start", "1um", "--a-stop", "3um", "--a-step", "0.05um"]
                + _temperature(rng))
    elif kind == "combine-errors":
        budget = rng.choice(sorted(BUDGETS))
        argv = ["combine-errors", "--budget", f"{FIXTURES}/{budget}"]
        if BUDGETS[budget][0] == "blend":
            argv += ["--q-table", f"{FIXTURES}/q-blend.txt"]
        argv += ["--value", f"{rng.uniform(50.0, 200.0):.6g}"]
    else:
        argv = ["validate-lens"] + _lens_args(rng, ("bubble", "pit"))
        if rng.random() < 0.25:
            # A footprint below the 30 um floor, so the report says FAIL.
            D1 = _log_uniform(rng, 0.05e-6, 0.2e-6)
            r = 0.5 * _log_uniform(rng, 8.0e-6, 25.0e-6)
            argv[5:] = ["--R1", f"{(r * r + D1 * D1) / (2 * D1):.6g}m",
                        "--D1", f"{D1 * 1e6:.4g}um"]
    return tuple(argv)


def _flags(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[:1]!r} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _report_values(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _check_cli(kind: str, argv, stdout: str, caslens) -> None:
    """Raise CheckFailed when a command's stdout is wrong."""
    cfg, pfa, plates, lens = caslens.config, caslens.pfa, caslens.plates, caslens.lens
    flags = _flags(argv)
    T = cfg.parse_temperature(flags.get("--T", "300"))
    fmt = "{:.11e}".format

    def profile():
        get = lambda key: cfg.parse_length(flags[key]) if key in flags else None
        return _profile(lens, flags["--profile"], get("--R"), get("--R1"), get("--D1"))

    def grid():
        start, stop, step = (cfg.parse_length(flags[key])
                             for key in ("--a-start", "--a-stop", "--a-step"))
        points = cfg.build_grid(start, stop, step)
        _expect(len(points) == round((stop - start) / step) + 1, "grid length")
        return points

    if kind == "reproduce-fig2":
        _expect(stdout == GOLDEN_FIG2.read_text(), "CSV differs from the golden file")
    elif kind in ("fpp", "pressure"):
        header = "z_m,fpp_J_per_m2" if kind == "fpp" else "z_m,pressure_N_per_m2"
        rows, points = _csv_rows(stdout, header), grid()
        _expect(len(rows) == len(points), f"{len(rows)} rows for {len(points)} points")
        for (z_text, value), z in zip(rows, points):
            ref = plates.free_energy_pp(z, T).value if kind == "fpp" else plates.pressure_pp(z, T)
            _expect((z_text, value) == (fmt(z), fmt(ref)) and ref < 0.0, f"row {z_text}")
    elif kind in ("force-closed", "force-quadrature"):
        prof = profile()
        points = [cfg.parse_length(x) for x in flags["--a-list"].split(",")]
        rows = _csv_rows(stdout, "a_m,F_N,method")
        _expect(len(rows) == len(points), f"{len(rows)} rows for {len(points)} points")
        for (a_text, force, method), a in zip(rows, points):
            _expect(a_text == fmt(a), f"separation {a_text}")
            if kind == "force-closed":
                closed = pfa.force_bubble if prof.kind.value == "bubble" else pfa.force_pit
                ref = closed(a, T, prof.R, prof.R1, prof.D1).magnitude
                _expect((force, method) == (fmt(ref), prof.kind.value), f"row {a_text}")
                continue
            if prof.kind.value == "perfect":
                ref, tol = pfa.force_perfect_full(a, T, prof.R).magnitude, 1e-6
            elif prof.kind.value == "bubble":
                ref, tol = pfa.force_bubble(a, T, prof.R, prof.R1, prof.D1).magnitude, 1e-3
            else:
                ref, tol = -_pit_by_parts(plates, a, T, prof.R, prof.R1, prof.D1), 1e-4
            _expect(method == "quadrature" and _rel(float(force), ref) <= tol, f"row {a_text}")
    elif kind == "ratio":
        curve = pfa.ratio_curve(profile(), grid(), T)
        expected = [[fmt(a), fmt(x)] for a, x in zip(curve.separations, curve.ratios)]
        _expect(_csv_rows(stdout, "a_m,ratio") == expected, "ratios")
        _expect(all(x > 0.0 for x in curve.ratios), "non-positive ratio")
    elif kind == "combine-errors":
        rule, total = BUDGETS[Path(flags["--budget"]).name]
        values = _report_values(stdout)
        value = float(flags["--value"])
        _expect(values["rule"] == rule, f"rule {values['rule']}")
        _expect(_rel(float(values["delta_t"]), total) <= 1e-5, "delta_t")
        _expect(_rel(float(values["delta_t_relative"]), total / value) <= 1e-5, "relative")
    else:
        R1, D1 = cfg.parse_length(flags["--R1"]), cfg.parse_length(flags["--D1"])
        r = math.sqrt(2.0 * R1 * D1 - D1 * D1)
        values = _report_values(stdout)
        _expect(_rel(float(values["footprint radius r"].split()[0]), r) <= 1e-6, "footprint radius")
        spec_ok = 30e-6 <= 2.0 * r <= 1.2e-3 and D1 < 5e-4
        overall = stdout.splitlines()[-1]
        _expect(overall == f"overall: {'PASS' if spec_ok else 'FAIL'}", overall)


class CliBatch(Workload):
    """One real ``caslens`` subcommand per operation, each its own process.

    Interpreter start and ``import caslens`` are nearly all of each command,
    so this is the process layer; kernel and PFA compute barely show."""

    name = "cli-batch"
    tail_cap = 90.0
    warmup = 1
    child_processes = True
    CYCLES = 8
    trace_pass_seconds = 10.0

    def inputs(self, seed):
        # Each cycle runs every command kind once, in a seeded order.
        rng = self._rng(seed)
        pool = []
        for _ in range(self.CYCLES):
            order = list(CLI_KINDS)
            rng.shuffle(order)
            pool += [(kind, _cli_argv(rng, kind)) for kind in order]
        return pool

    def bind(self, pool, in_process):
        if in_process:
            import caslens.cli as cli

            def execute(item):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(item[1]))
                return code, out.getvalue()

            return pool, execute

        env = child_env()

        def execute(item):
            done = subprocess.run([sys.executable, "-m", "caslens.cli", *item[1]],
                                  cwd=HERE.parent, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, timeout=120)
            return done.returncode, done.stdout

        return pool, execute

    def check_one(self, i, item, out):
        import caslens

        (kind, argv), (code, stdout) = item, out
        _expect(code == 0, f"exit code {code}")
        _check_cli(kind, argv, stdout, caslens)

    def kind(self, item):
        return item[0]


WORKLOADS = {w.name: w for w in (CliBatch(), PlateKernel(), RatioCurves(), ForceQuadrature())}
