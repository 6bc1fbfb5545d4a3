"""Fixed calibration jobs that track how fast the machine is right now.

On the shared 2-core baseline VM the speed of identical work drifts by up
to a factor of two over minutes, as other guests come and go, in CPU time
as much as in wall-clock time.  Ten runs of raw times therefore spread far
wider than any useful bound.  The worker times slices of a job next to the
program's work, and run.py scales each unit's CPU time by CAL_NOMINAL_S
over the median of the slices timed right before and right after it: a
calibrated time reads as seconds on a machine where one slice takes
CAL_NOMINAL_S.

A slice does the kind of work the workload does, with the benchmark's own
code, never the program's, so a change to the program's speed shows in
full.  The machine's slow and fast spells do not speed up all code alike,
so the closer the kind of work, the better the slice tracks:

- solve (tongue, steady_cli, and every set-up probe): the reference solver
  and measures of reference.py on fixed points, which is dense linear
  algebra on 81x81 complex matrices called from Python, then argparse and
  a JSON round trip of a 9x9 state through a file, as in a CLI call;
- step (dynamics): products of a fixed 81x81 unitary matrix with a vector,
  one call at a time from a Python loop, as in time stepping.

In two ten-minute traces the 20-second medians of each workload's kind of
work spread by 0.16 to 0.30 (quartile distance over median; 1.5x to 2x
from fastest to slowest), and their ratios to the matching job by 0.015
to 0.03 (1.13x to 1.15x).  In one fast spell the solve job sped up 2x
while dynamics sped up 1.4x, which is why dynamics has a job of its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np

import reference as ref

# One slice on the baseline VM in its usual state.
CAL_NOMINAL_S = 0.030
CLI_ROUNDS = 6
STEPS = 5000
POINTS = [{"gamma_g_a": 100.0, "gamma_d_a": 1.0, "gamma_g_b": 1.0, "gamma_d_b": 100.0,
           "epsilon": eps, "delta": delta}
          for eps, delta in ((0.02, -0.8), (0.04, -0.3), (0.06, 0.1), (0.08, 0.5),
                             (0.1, 0.9))]


def _cli_round(path: Path, state: np.ndarray) -> None:
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("steady", "sweep", "scan", "dynamics", "regress"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out")
        cmd.add_argument("--steps", type=int, default=101)
    parser.parse_args(["steady", "--config", str(path), "--out", str(path)])
    text = json.dumps({"state": [[float(z.real), float(z.imag)] for z in state.reshape(-1)]},
                      indent=2)
    path.write_text(text + "\n")
    json.loads(path.read_text())


def _solve(workdir: Path) -> None:
    for point in POINTS:
        rho = ref.steady_references([point])[0].rho
        ref.measures(rho, 64)
    for _ in range(CLI_ROUNDS):
        _cli_round(workdir / "calibration.json", rho)


@functools.cache
def _unitary() -> np.ndarray:
    # Unitary, so repeated products neither overflow nor turn subnormal.
    return np.linalg.qr(np.random.default_rng(0).standard_normal((81, 162)).view(complex))[0]


def _step(workdir: Path) -> None:
    matrix = _unitary()
    vec = matrix[0]
    for _ in range(STEPS):
        vec = matrix @ vec


JOBS = {"tongue": _solve, "steady_cli": _solve, "dynamics": _step, "setup": _solve}


def slice_s(job: str, workdir: Path) -> float:
    """CPU seconds of one slice of a job; the solve job writes a file in workdir."""
    start = time.process_time()
    JOBS[job](workdir)
    return time.process_time() - start


def scale(slices: list[float]) -> float:
    """Factor from CPU seconds to calibrated seconds, given nearby slices."""
    return CAL_NOMINAL_S / statistics.median(slices)
