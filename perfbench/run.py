#!/usr/bin/env python3
"""Layered benchmark for caslens.

Run from the repository root:

    python3 perfbench/run.py --workload plate-kernel --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload in a closed
loop with one client.  ``--trace 1`` runs a fixed seeded operation list
twice, untraced and then with spans around every layer, and reports the
per-layer metrics.  Both check every output.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it record the environment and the details of the run, which
are also written to ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer
from workloads import CLI_KINDS, WORKLOADS, Workload, child_env

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
#: Fresh interpreters timed per traced run for process.import_ms.
IMPORT_PROBES = 3
#: Latencies kept per run; beyond it a uniform reservoir sample is kept, so
#: memory does not grow with speed.
RESERVOIR = 1 << 20

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "ok_frac": "frac", "peak_rss_mb": "MB"}
PER_LAYER = (
    ["process.import_ms", "process.modules_loaded", "process.scipy_loaded",
     "cli.main_ms"] + [f"cli.main_ms.{kind}" for kind in CLI_KINDS]
    + ["cli.self_ms", "config.calls", "config.self_ms",
       "plates.calls", "plates.self_ms", "plates.terms", "plates.call_p50_us",
       "pfa.closed.calls", "pfa.quad.calls", "pfa.self_ms", "pfa.kernel_calls_per_force",
       "lens.calls", "lens.self_ms", "metrology.calls", "metrology.self_ms",
       "trace.overhead_frac"])

IMPORT_PROBE = """\
import json, sys, time
before = len(sys.modules)
start = time.perf_counter()
import caslens
elapsed = time.perf_counter() - start
print(json.dumps({"import_s": elapsed, "modules": len(sys.modules) - before,
                  "scipy": "scipy" in sys.modules, "file": caslens.__file__}))
"""


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Run:
    n: int
    wall_s: float
    latencies_ns: array
    outputs: list
    executed: list
    errors: dict
    mismatched: set


def prepare(workload: Workload, seed: int, in_process: bool):
    """Everything before the first timed operation: import, inputs, warm-up."""
    pool = workload.inputs(seed)
    bound, execute = workload.bind(pool, in_process)
    for item in bound[:workload.warmup]:
        execute(item)
    return pool, bound, execute


def run_loop(execute, bound: list, *, seconds: float | None = None,
             count: int | None = None, seed: int = 0) -> Run:
    """Closed loop over the pool, one operation at a time, until ``seconds``
    have passed or ``count`` operations are done.  The first output of each
    pool entry is kept for the check; a later output that differs marks the
    entry as mismatched."""
    size = len(bound)
    outputs: list = [None] * size
    executed = [0] * size
    errors: dict[int, str] = {}
    mismatched: set[int] = set()
    latencies = array("d", bytes(8 * RESERVOIR))
    reservoir = random.Random(seed)
    ns = time.perf_counter_ns
    start = ns()
    deadline = start + int(seconds * 1e9) if seconds is not None else None
    n = i = 0
    while True:
        item = bound[i]
        t0 = ns()
        try:
            out = execute(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            errors.setdefault(i, f"{type(exc).__name__}: {exc}")
        t1 = ns()
        if n < RESERVOIR:
            latencies[n] = t1 - t0
        else:
            slot = reservoir.randrange(n + 1)
            if slot < RESERVOIR:
                latencies[slot] = t1 - t0
        executed[i] += 1
        if out is not None:
            if outputs[i] is None:
                outputs[i] = out
            elif out != outputs[i]:
                mismatched.add(i)
        n += 1
        i = i + 1 if i + 1 < size else 0
        if (n >= count) if deadline is None else (t1 >= deadline):
            break
    return Run(n, (ns() - start) / 1e9, latencies, outputs, executed, errors, mismatched)


def failures(workload: Workload, pool: list, run: Run) -> tuple[int, dict[int, str]]:
    """Failed operations (raised, changed output or failed the check) and a
    reason per failing pool entry."""
    bad = workload.check(pool, run.outputs)
    bad.update({i: "output changed between runs of the same input" for i in run.mismatched})
    bad.update(run.errors)
    return sum(run.executed[i] for i in bad), bad


def median_ms_by_kind(workload: Workload, pool: list, run: Run) -> dict[str, float]:
    """Median latency per operation kind of a run that kept every latency."""
    by_kind: dict[str, list[float]] = {}
    for k in range(min(run.n, RESERVOIR)):
        by_kind.setdefault(workload.kind(pool[k % len(pool)]), []).append(
            run.latencies_ns[k] / 1e6)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def quantile(ordered, pct: float) -> float:
    """Linearly interpolated percentile of an ascending sequence."""
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int, cap: float) -> float:
    """The highest percentile with at least ten samples beyond it, capped at
    the workload's ``tail_cap`` (so runs of different length report the same
    percentile) and never below the median."""
    if n <= 11:
        return 50.0
    return max(50.0, min(cap, 100.0 * (n - 11) / (n - 1)))


def setup_probe(workload: Workload, seed: int) -> float:
    """Seconds from spawning a fresh process to its first timed operation."""
    start = clock()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
         "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


def import_probe() -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout))
    if not Path(samples[0]["file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"caslens imported from {samples[0]['file']}, not src/")
    return {"process.import_ms": statistics.median(s["import_s"] for s in samples) * 1e3,
            "process.modules_loaded": samples[0]["modules"],
            "process.scipy_loaded": int(samples[0]["scipy"])}


def measure(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics from an untraced, time-bounded run."""
    pool, bound, execute = prepare(workload, seed, in_process=False)
    run = run_loop(execute, bound, seconds=seconds, seed=seed)
    who = resource.RUSAGE_CHILDREN if workload.child_processes else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    failed, bad = failures(workload, pool, run)
    setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    ordered = sorted(run.latencies_ns[:min(run.n, RESERVOIR)])
    tail_pct = tail_percentile(run.n, workload.tail_cap)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run.n / run.wall_s,
        "latency_p50_ms": quantile(ordered, 50.0) / 1e6,
        "latency_tail_ms": quantile(ordered, tail_pct) / 1e6,
        "ok_frac": 1.0 - failed / run.n,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {"samples": run.n, "timed_s": run.wall_s, "tail_percentile": tail_pct,
              "failed_frac": failed / run.n, "setup_samples_s": setups,
              "failures": dict(list(bad.items())[:5])}
    if workload.child_processes:
        report["p50_ms_by_kind"] = median_ms_by_kind(workload, pool, run)
    return run.n, failed, metrics, report


def trace(workload: Workload, seed: int, seconds: float):
    """Per-layer metrics from a fixed operation list run untraced, then traced."""
    pool, bound, execute = prepare(workload, seed, in_process=True)
    count = len(bound) * workload.trace_passes(seconds)
    plain = run_loop(execute, bound, count=count)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(tracer.operation(execute), bound, count=count)
    finally:
        tracer.uninstall()
    failed, bad = failures(workload, pool, plain)
    changed = {i for i, (x, y) in enumerate(zip(plain.outputs, traced.outputs)) if x != y}
    failed += sum(traced.executed[i] for i in changed | set(bad))

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(tracer.summary())
    metrics.update(import_probe())
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    if workload.child_processes:
        metrics["cli.main_ms"] = quantile(sorted(plain.latencies_ns[:plain.n]), 50.0) / 1e6
        for kind, value in median_ms_by_kind(workload, pool, plain).items():
            metrics[f"cli.main_ms.{kind}"] = value

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path, {"workload": workload.name, "seed": seed, "ops": traced.n})
    report = {"ops_each_run": count, "untraced_s": plain.wall_s, "traced_s": traced.wall_s,
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "outputs_changed_by_tracing": len(changed),
              "failures": dict(list(bad.items())[:5])}
    return plain.n + traced.n, failed, metrics, report


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(),
            "python": platform.python_version(), "scipy": scipy,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform()}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for marker, per_layer_unit in (("_ms", "ms"), ("_us", "us"), ("_frac", "frac")):
        if marker in name:
            return per_layer_unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "caslens" / "__init__.py").is_file():
        print(f"error: no caslens source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        prepare(workload, args.seed, in_process=False)
        print(repr(clock()))
        return 0

    env = environment(args)
    if args.trace:
        attempted, failed, metrics, report = trace(workload, args.seed, args.seconds)
    else:
        attempted, failed, metrics, report = measure(workload, args.seed, args.seconds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "report": report, "result": result}, indent=1))
    print("env " + json.dumps(env))
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
