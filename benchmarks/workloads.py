"""Seeded inputs of the three workloads.

Unit k of a run draws from its own generator, seeded with (seed, k), so the
checker can rebuild any unit without knowing how many units ran.  Inputs are
written to config files before the unit is timed; the program only ever
sees those files.

- tongue: one unit is an 11x11 Arnold-tongue sweep of the reversed-cycle
  config over the paper's ranges, epsilon in [0, 0.1] and delta in [-1, 1],
  followed by the two `regress` fits.  The seed shifts the delta grid by up
  to half a step for the whole run and draws omega_ref per unit; omega_ref
  changes the generator but no steady-state quantity.  Many points differ
  in two parameters only, which a batched, affine or sector-reduced engine
  exploits.
- steady_cli: one unit is a block of 25 `steady` calls, each on an
  independent wide-range point.  Nothing is shared between calls, so
  per-call fixed costs and solver robustness at extreme scales dominate.
  The points the program rejects stay in the draw; they are counted, never
  filtered.
- dynamics: one unit is the FIG2 transient (reversed cycles, t_max = 5, 11
  samples) with a seeded omega_ref.  Time integration dominates and no
  steady solve runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("tongue", "steady_cli", "dynamics")
# Units are short, so that the calibration slices run between them sample
# the machine's speed every fraction of a second (see calibration.py).
BASE_CONFIG = "reversed_cycles.json"

TONGUE_STEPS = (11, 11)
TONGUE_EPS = (0.0, 0.1)
TONGUE_DELTA = (-1.0, 1.0)
STEADY_BLOCK = 25
DYNAMICS_T_MAX = 5.0
DYNAMICS_SAMPLES = 11
# The set-up probe runs the first call of a workload at its smallest size.
SETUP_TONGUE_STEPS = (2, 2)
SETUP_DYNAMICS_T_MAX = 0.05
SETUP_STREAM = 1 << 30


def load_base(root: Path) -> dict:
    with open(root / "configs" / BASE_CONFIG) as fh:
        return json.load(fh)


def _write(path: Path, config: dict) -> str:
    with open(path, "w") as fh:
        json.dump(config, fh)
    return str(path)


def tongue_grid(seed: int, steps: tuple[int, int] = TONGUE_STEPS) -> tuple[list, list]:
    """Run-wide (epsilon, delta) axes: the paper's ranges, delta shifted by the seed."""
    d_step = (TONGUE_DELTA[1] - TONGUE_DELTA[0]) / (steps[1] - 1)
    shift = float(np.random.default_rng([seed]).uniform(-0.5, 0.5)) * d_step
    return ([float(e) for e in np.linspace(*TONGUE_EPS, steps[0])],
            [float(d) for d in np.linspace(TONGUE_DELTA[0] + shift,
                                           TONGUE_DELTA[1] + shift, steps[1])])


def tongue_unit(seed: int, k: int, base: dict, workdir: Path,
                steps: tuple[int, int] = TONGUE_STEPS) -> dict:
    rng = np.random.default_rng([seed, k])
    config = dict(base, omega_ref=float(rng.uniform(-1.0, 1.0)))
    eps, delta = tongue_grid(seed, steps)
    cfg = _write(workdir / f"tongue-{k}.json", config)
    out = str(workdir / f"tongue-{k}.csv")
    sweep = ["sweep", "--config", cfg, "--out", out,
             "--eps-min", repr(eps[0]), "--eps-max", repr(eps[-1]),
             "--eps-steps", str(steps[0]),
             "--delta-min", repr(delta[0]), "--delta-max", repr(delta[-1]),
             "--delta-steps", str(steps[1])]
    regress = [["regress", "--in", out, "--x", x, "--y", "max_s_rel"]
               for x in ("negativity", "mutual_info")]
    return {"configs": [config], "calls": [sweep, *regress], "outs": [out],
            "points": steps[0] * steps[1]}


def steady_point(rng: np.random.Generator) -> dict:
    """One wide-range point; rates are ratios to gamma_d_a = 1."""
    rates = {name: float(10.0 ** rng.uniform(-3.0, 3.0))
             for name in ("gamma_g_a", "gamma_g_b", "gamma_d_b")}
    if rng.random() < 0.1:
        rates[str(rng.choice(sorted(rates)))] = 0.0
    config = {
        "gamma_d_a": 1.0,
        **rates,
        "epsilon": float(rng.uniform(0.0, 0.3)),
        "delta": float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0)),
        "omega_ref": float(rng.uniform(-1e3, 1e3)),
    }
    # A minority with non-default node counts: far more distinct specs than
    # the program's quadrature-table cache holds.
    if rng.random() < 0.15:
        config.update(n_theta=int(rng.integers(8, 49)), n_phi=int(rng.integers(8, 49)),
                      n_phi_out=int(rng.integers(16, 129)))
    return config


def steady_unit(seed: int, k: int, workdir: Path, size: int = STEADY_BLOCK) -> dict:
    rng = np.random.default_rng([seed, k])
    configs, calls, outs = [], [], []
    for i in range(size):
        config = steady_point(rng)
        cfg = _write(workdir / f"steady-{k}-{i}.json", config)
        out = str(workdir / f"steady-{k}-{i}.out.json")
        configs.append(config)
        calls.append(["steady", "--config", cfg, "--out", out])
        outs.append(out)
    return {"configs": configs, "calls": calls, "outs": outs, "points": size}


def dynamics_unit(seed: int, k: int, base: dict, workdir: Path,
                  t_max: float = DYNAMICS_T_MAX) -> dict:
    rng = np.random.default_rng([seed, k])
    config = dict(base, omega_ref=float(rng.uniform(-10.0, 10.0)))
    cfg = _write(workdir / f"dynamics-{k}.json", config)
    out = str(workdir / f"dynamics-{k}.csv")
    call = ["dynamics", "--config", cfg, "--t-max", repr(t_max),
            "--samples", str(DYNAMICS_SAMPLES), "--out", out]
    return {"configs": [config], "calls": [call], "outs": [out],
            "points": DYNAMICS_SAMPLES, "t_max": t_max}


def make_unit(workload: str, seed: int, k: int, base: dict, workdir: Path,
              small: bool = False) -> dict:
    """Inputs of unit k; small=True gives the set-up probe's minimal first call."""
    if workload == "tongue":
        return tongue_unit(seed, k, base, workdir,
                           SETUP_TONGUE_STEPS if small else TONGUE_STEPS)
    if workload == "steady_cli":
        return steady_unit(seed, k, workdir, 1 if small else STEADY_BLOCK)
    if workload == "dynamics":
        return dynamics_unit(seed, k, base, workdir,
                             SETUP_DYNAMICS_T_MAX if small else DYNAMICS_T_MAX)
    raise ValueError(f"unknown workload {workload!r}")
