"""One workload in a fresh process: runs CLI calls in-process and times them.

    python3 worker.py PLAN.json

The plan names the workload, seed, source tree and limits.  In "setup" mode
the worker runs a single given call and prints the monotonic clock and its
own CPU time when it completes: process start to first completed call.
In "run" mode it generates unit after unit from the seed, times each CLI
call, and writes timings, exit codes and captured output to the plan's
result file; with tracing on it also writes the spans.  Checking is left to
the parent, so neither the checker's time nor its memory lands here.

Both modes also time slices of the fixed calibration job (calibration.py)
next to the program's work: after the set-up call, and after every unit
for about a fifth of the unit's time.  The parent scales each unit's times
by the slices timed right before and right after it (see run.py).
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CAL_SHARE = 0.2
SETUP_CAL_SLICES = 5


def _import_cli(src: str):
    sys.path.insert(0, src)
    from spinsync import cli

    expected = Path(src).resolve() / "spinsync"
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"spinsync imported from {cli.__file__}, not {expected}")
    return cli


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _call(module, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start, cpu = time.perf_counter(), time.process_time()
        rc = module.main(argv)
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu
    return {"rc": rc, "seconds": seconds, "cpu_s": cpu, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def setup(plan: dict) -> None:
    cli = _import_cli(plan["src"])
    result = _call(cli, plan["call"])
    done, cpu = time.perf_counter(), time.process_time()
    import calibration  # after the clock: its imports are not the program's

    workdir = Path(plan["workdir"])
    calibration.slice_s("setup", workdir)  # warm-up: first-call costs belong to no slice
    cal = statistics.median(calibration.slice_s("setup", workdir)
                            for _ in range(SETUP_CAL_SLICES))
    print(json.dumps({"done": done, "cpu": cpu, "cal": cal, "rc": result["rc"]}))


def run(plan: dict) -> None:
    cli = _import_cli(plan["src"])
    import resource

    import calibration
    import workloads

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = Path(plan["workdir"])
    base = workloads.load_base(Path(plan["root"]))
    units = []
    measured = 0.0
    job = plan["workload"]
    calibration.slice_s(job, workdir)  # warm-up: first-call costs belong to no slice
    before = [calibration.slice_s(job, workdir)]
    for k in range(plan["max_units"]):
        if plan["seconds"] is not None and measured >= plan["seconds"]:
            break
        unit = workloads.make_unit(plan["workload"], plan["seed"], k, base, workdir,
                                   small=plan["small"])
        if tracer is not None:
            tracer.unit = k
        calls = [_call(cli, argv) for argv in unit["calls"]]
        seconds = sum(c["seconds"] for c in calls)
        cpu_s = sum(c["cpu_s"] for c in calls)
        measured += seconds
        # About CAL_SHARE of the unit's time right after it; the unit keeps
        # the slices on both sides of it.
        after = [calibration.slice_s(job, workdir) for _ in range(
            max(1, round(CAL_SHARE * cpu_s / statistics.median(before))))]
        units.append({"index": k, "seconds": seconds, "cpu_s": cpu_s,
                      "points": unit["points"], "calls": calls,
                      "calibration_s": before + after})
        before = after
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(plan["trace_file"])
    report = {
        "units": units,
        "measured_s": measured,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": _blas_threads(),
    }
    with open(plan["result"], "w") as fh:
        json.dump(report, fh)


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    (setup if plan["mode"] == "setup" else run)(plan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
