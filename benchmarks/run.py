#!/usr/bin/env python3
"""spinsync benchmark: one workload per invocation (or all three), outputs checked.

    python3 benchmarks/run.py --workload {tongue,steady_cli,dynamics,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`.  `--workload all` runs the three workloads one after another, each
printing its own result line.  Each measurement runs in a fresh worker
process with BLAS and OpenMP pinned to one thread, one call at a time from
a single client (a closed loop), with `--jobs` unset.

--trace 0 measures for S seconds and reports the end-to-end metrics.
Set-up time is measured separately: several fresh processes each import
the package and complete the workload's first call at its smallest size,
and the median counts.

Times are calibrated CPU seconds of the worker process: each unit's CPU
times are scaled by the calibration slices timed right before and right
after the unit, each set-up probe's by the slices it times after its call
(see calibration.py).  Raw CPU and wall-clock figures are printed for
information.

--trace 1 runs a fixed input set twice, untraced and traced, and reports
per-layer calls and self time from spans recorded around the calls into
each package module, with trace coverage and overhead.  It also times a
short run at the default BLAS thread count, for information only.

Every output is checked against a dense reference built in this directory
(see check.py).  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
`attempted` counts points (grid points, steady calls, dynamics samples),
`failed` the points with an output that fails a check.  A point the program
refuses with a stated reason is not a wrong output: refusals lower
ok_fraction and are listed by cause, and those the reference solves
uniquely are counted as check.false_failure in the traced run.
The exit code is 1 when a check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads
from calibration import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 5
# Unit caps keep checking time bounded when the program gets much faster.
MAX_UNITS = {"tongue": 1000, "steady_cli": 400, "dynamics": 2000}
# The traced run and its untraced twin process this fixed input set, so
# per-layer counts repeat exactly and totals compare across versions.
TRACE_UNITS = {"tongue": 20, "steady_cli": 40, "dynamics": 4}
PROBE_UNITS = {"tongue": 4, "steady_cli": 8, "dynamics": 1}
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHILD_TIMEOUT = 170.0

# Per-layer self times in the result are those every workload exercises,
# so none of them reads zero by construction; the printed table and the
# trace file carry every function.
ALL_WORKLOAD_FUNCTIONS = (
    "liouvillian.build_generator", "operators.validate_density_matrix",
    "phasespace.s_rel", "correlations.negativity", "first_order.coherences",
    "cli.build_parser", "cli.load_config", "cli.main",
)


class BenchmarkError(RuntimeError):
    """The benchmark could not run the program at all."""


def _child_env(pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    if pinned:
        env.update(PINNED)
    return env


def _worker(plan: dict, plan_path: Path, pinned: bool = True) -> subprocess.CompletedProcess:
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(WORKER), str(plan_path)],
                          env=_child_env(pinned), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(args, base: dict, workdir: Path) -> list[dict]:
    """Fresh process to first completed call, SETUP_PROBES times: CPU, wall, scale."""
    times = []
    for i in range(SETUP_PROBES):
        unit = workloads.make_unit(args.workload, args.seed, workloads.SETUP_STREAM + i,
                                   base, workdir, small=True)
        plan = {"mode": "setup", "src": str(ROOT / "src"), "workdir": str(workdir),
                "call": unit["calls"][0]}
        start = time.perf_counter()
        proc = _worker(plan, workdir / f"setup-{i}.plan.json")
        done = json.loads(proc.stdout.strip().splitlines()[-1])
        if done["rc"] not in ((0, 2) if args.workload == "steady_cli" else (0,)):
            raise BenchmarkError(f"set-up call exited {done['rc']}")
        times.append({"cpu": done["cpu"], "wall": done["done"] - start,
                      "scale": scale([done["cal"]])})
    return times


def run_worker(args, base: dict, workdir: Path, name: str, *, seconds, max_units: int,
               trace: bool = False, pinned: bool = True, small: bool = False):
    """One worker run, then the check of all its outputs.

    small=True runs every unit at the set-up probe's minimal size.
    """
    rundir = workdir / name
    rundir.mkdir()
    plan = {"mode": "run", "src": str(ROOT / "src"), "root": str(ROOT),
            "workload": args.workload, "seed": args.seed, "workdir": str(rundir),
            "seconds": seconds, "max_units": max_units, "trace": trace, "small": small,
            "trace_file": str(workdir / f"{name}.trace.json.gz"),
            "result": str(workdir / f"{name}.result.json")}
    _worker(plan, workdir / f"{name}.plan.json", pinned)
    result = json.loads(Path(plan["result"]).read_text())
    units = result["units"]
    if not units:
        raise BenchmarkError("worker completed no unit")
    inputs = [workloads.make_unit(args.workload, args.seed, u["index"], base, rundir, small)
              for u in units]
    if args.workload == "tongue":
        steps = workloads.SETUP_TONGUE_STEPS if small else workloads.TONGUE_STEPS
        report = check.check_tongue(args.seed, base, units, inputs, steps)
    elif args.workload == "steady_cli":
        report = check.check_steady(units, inputs)
    else:
        report = check.check_dynamics(units, inputs)
    shutil.rmtree(rundir)
    return result, report


def _latencies(workload: str, unit: dict, key: str = "cpu_s") -> list[float]:
    # The workload's own call; tongue's regress fits ride in the unit time.
    calls = unit["calls"] if workload == "steady_cli" else unit["calls"][:1]
    return [c[key] for c in calls]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _slices(result: dict) -> list[float]:
    return [s for u in result["units"] for s in u["calibration_s"]]


def end_to_end(workload: str, result: dict, report, setup: list[dict]) -> dict:
    """The gated metrics, in calibrated CPU seconds."""
    units = result["units"]
    factors = [scale(u["calibration_s"]) for u in units]
    unit_s = [f * u["cpu_s"] for f, u in zip(factors, units)]
    calls = [f * c for f, u in zip(factors, units) for c in _latencies(workload, u)]
    return {
        "unit_s": (statistics.median(unit_s), "s"),
        "points_per_s": (statistics.median(u["points"] / t for u, t in zip(units, unit_s)),
                         "1/s"),
        "call_ms_p50": (1e3 * statistics.median(calls), "ms"),
        "call_ms_p90": (1e3 * _percentile(calls, 0.9), "ms"),
        "setup_s": (statistics.median(p["cpu"] * p["scale"] for p in setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "ok_fraction": (report.solved / report.attempted, "ratio"),
    }


def raw_times(workload: str, result: dict, setup: list[dict]) -> dict:
    """Uncalibrated CPU and wall-clock times, printed for information only."""
    units = result["units"]
    info = {"calibration_slice_s": statistics.median(_slices(result))}
    for clock, key in (("cpu", "cpu_s"), ("wall", "seconds")):
        calls = [c for u in units for c in _latencies(workload, u, key)]
        info.update({
            f"{clock}_unit_s": statistics.median(u[key] for u in units),
            f"{clock}_call_ms_p50": 1e3 * statistics.median(calls),
            f"{clock}_call_ms_p90": 1e3 * _percentile(calls, 0.9),
            f"{clock}_setup_s": statistics.median(p[clock] for p in setup),
        })
    return info


def per_layer(trace: dict, traced: dict, untraced: dict, report) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, with the untraced twin for overhead."""
    summary = tracing.summarize(trace)
    f = scale(_slices(traced))
    metrics = {}
    for layer, row in summary["layers"].items():
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_s"] = (f * row["self_s"], "s")
    for name in tracing.LISTED:
        row = summary["functions"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        if name in ALL_WORKLOAD_FUNCTIONS:
            metrics[f"{name}.self_s"] = (f * row["self_s"], "s")
    # Failures counted where they are raised, at the layer boundary.
    by_cause = {"non_unique": 0, "residual": 0, "invalid_state": 0, "other": 0}
    exception_cause = {"NonUniqueSteadyStateError": "non_unique",
                       "LinearSolveError": "residual", "InvalidStateError": "invalid_state"}
    oracle_failures = 0
    for (name, exc), n in summary["errors"].items():
        if name == "liouvillian.steady_state":
            by_cause[exception_cause.get(exc, "other")] += n
        elif name == "first_order.coherences":
            oracle_failures += n
    for cause, n in by_cause.items():
        metrics[f"liouvillian.steady_state.failures.{cause}"] = (n, "count")
    metrics["first_order.coherences.failures"] = (oracle_failures, "count")
    traced_units = traced["units"]
    common = min(len(traced_units), len(untraced["units"]))
    unit_s = sum(u["cpu_s"] for u in traced_units)
    metrics["trace.coverage"] = (summary["root_s"] / unit_s, "ratio")
    traced_s = f * statistics.median(u["cpu_s"] for u in traced_units[:common])
    untraced_s = scale(_slices(untraced)) * statistics.median(
        u["cpu_s"] for u in untraced["units"][:common])
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    metrics["trace.absent"] = (len(summary["absent"]), "count")
    metrics["check.false_failure"] = (report.false_failure, "count")
    return metrics, summary


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _print_report(name: str, result: dict, report) -> None:
    units = result["units"]
    refused = ", ".join(f"{c} {n}" for c, n in sorted(report.refused.items())) or "none"
    print(f"# {name}: {len(units)} units, {result['measured_s']:.2f} s measured, "
          f"BLAS threads {result['blas_threads']}")
    print(f"#   points {report.attempted}, solved {report.solved}, refused by cause: "
          f"{refused}; false failures {report.false_failure}; wrong outputs {report.wrong}")
    for message in report.errors:
        print(f"#   CHECK FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tongue", "steady_cli", "dynamics", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    needed = (ROOT / "src" / "spinsync" / "__init__.py", ROOT / "configs" / "reversed_cycles.json")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a spinsync checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    # One after another, each with its own result line; the worst exit code wins.
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": w}))
             for w in ("tongue", "steady_cli", "dynamics")]
    return max(codes)


def run_workload(args) -> int:
    """Run, check and report one workload; returns the exit code."""
    base = workloads.load_base(ROOT)
    out = HERE / "out"
    workdir = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print("# environment " + json.dumps(environment()))
        reports = []
        if not args.trace:
            setup = measure_setup(args, base, workdir)
            result, report = run_worker(args, base, workdir, "run", seconds=args.seconds,
                                        max_units=MAX_UNITS[args.workload])
            _print_report("run", result, report)
            reports.append(report)
            values = end_to_end(args.workload, result, report, setup)
            print("# set-up probes, CPU s: "
                  + ", ".join(f"{p['cpu']:.4f}" for p in setup) + "; wall s: "
                  + ", ".join(f"{p['wall']:.4f}" for p in setup) + "; scale: "
                  + ", ".join(f"{p['scale']:.4f}" for p in setup))
            samples = sum(len(_latencies(args.workload, u)) for u in result["units"])
            print(f"# latency samples: {samples}")
            for name, value in raw_times(args.workload, result, setup).items():
                print(f"# informational, not gated: {name} = {value!r}")
        else:
            units = TRACE_UNITS[args.workload]
            limit = 3.0 * args.seconds
            untraced, report_u = run_worker(args, base, workdir, "untraced",
                                            seconds=limit, max_units=units)
            traced, report_t = run_worker(args, base, workdir, "traced", seconds=limit,
                                          max_units=units, trace=True)
            probe, report_p = run_worker(args, base, workdir, "default-threads",
                                         seconds=limit, max_units=PROBE_UNITS[args.workload],
                                         pinned=False)
            for name, result, report in (("untraced", untraced, report_u),
                                         ("traced", traced, report_t),
                                         ("default-threads", probe, report_p)):
                _print_report(name, result, report)
                reports.append(report)
            trace_path = out / f"trace-{args.workload}-{args.seed}.json.gz"
            shutil.copyfile(workdir / "traced.trace.json.gz", trace_path)
            values, summary = per_layer(tracing.load(str(trace_path)), traced, untraced,
                                        report_t)
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
            f = scale(_slices(traced))
            print(f"# {'function':<42} {'calls':>9} {'self s':>10} (calibrated)")
            for name in sorted(set(summary["functions"]) | set(tracing.LISTED)):
                row = summary["functions"].get(name)
                if row is None:
                    print(f"# {name:<42} {'absent':>9}")
                else:
                    print(f"# {name:<42} {row['calls']:>9} {f * row['self_s']:>10.4f}")
            probe_s = statistics.median(u["seconds"] for u in probe["units"])
            pinned_s = statistics.median(u["seconds"] for u in untraced["units"])
            print(f"# informational, not gated: median unit wall {probe_s:.4f} s at default "
                  f"BLAS threads {probe['blas_threads']} vs {pinned_s:.4f} s pinned to 1")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in values.items():
        print(f"# {name} = {value!r} {unit}")
    attempted = sum(r.attempted for r in reports)
    # A unit-level failure (say, a regress fit) can add to its failed rows.
    wrong = min(sum(r.wrong for r in reports), attempted)
    correct = wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
