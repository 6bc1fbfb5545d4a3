"""Checks every output of a run against the dense reference.

A point the program solves ("ok") must match the reference state and
measures within a tolerance scaled by the reference's conditioning, satisfy
the density-matrix invariants, and, at weak coupling, stay within the
first-order oracle's O(epsilon^2) envelope.  A point the program refuses is
not wrong output; its cause is counted from the status text, and it is a
false failure when the reference solves it uniquely.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from workloads import DYNAMICS_SAMPLES, TONGUE_STEPS, tongue_grid

MAX_ERRORS_KEPT = 20
RANK_THRESHOLD = 1e-3
ORACLE_WEAK = 0.1       # epsilon over the smallest rate
ORACLE_SREL_C = 0.25    # second-order envelope coefficients, about 3x and
ORACLE_NEG_C = 5.0      # 2x the largest deviation seen over wide draws
DYNAMICS_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-8
ORACLE_REL_TOL = 1e-9


@dataclass
class Report:
    """Outcome of checking one run."""

    attempted: int = 0
    solved: int = 0
    false_failure: int = 0
    refused: Counter = field(default_factory=Counter)
    failed_points: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, where: str, message: str, points: int = 1) -> None:
        """Record a wrong output at `where`, which covers `points` points."""
        self.failed_points[where] = max(points, self.failed_points.get(where, 0))
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{where}: {message}")

    @property
    def wrong(self) -> int:
        """Points with at least one wrong output."""
        return sum(self.failed_points.values())


def causes(status: str) -> list[str]:
    """Failure causes named in a status text."""
    found = []
    for part in status.split(";"):
        text = part.strip().lower()
        if not text:
            continue
        if text.startswith("oracle"):
            found.append("oracle")
        elif "not unique" in text:
            found.append("non_unique")
        elif "residual" in text:
            found.append("residual")
        elif any(word in text for word in ("hermitian", "trace", "semidefinite",
                                           "eigenvalue", "square")):
            found.append("invalid_state")
        elif text.startswith("solve"):
            found.append("other")
    return found or ["other"]


def _quadrature_tol(n_theta: int) -> float:
    # Gauss-Legendre in theta converges geometrically; the largest error
    # seen is 9e-9 at the minimum of 8 nodes and 2e-10 at 9.
    return max(1e-6 * 0.1 ** (n_theta - 8), 1e-13)


def _state_tol(sol: ref.SteadyReference) -> float:
    return 1e-10 + 1e-14 * sol.condition


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _quad(point: dict) -> dict:
    return {**ref.QUAD_DEFAULTS, **{k: int(point[k]) for k in ref.QUAD_DEFAULTS if k in point}}


def _scale(point: dict) -> float:
    return float(np.max(np.abs(ref.generators([point])[0])))


def check_measures(report: Report, where: str, point: dict, sol: ref.SteadyReference,
                   meas: ref.Measures, scale: float, rec: dict) -> None:
    """Compare one solved record with the reference solution of its point.

    meas holds the reference measures on the point's output grid and scale
    is max|L|, which sets the program's own residual tolerance.
    """
    quad = _quad(point)
    n_out = quad["n_phi_out"]
    tol = _state_tol(sol)
    s_tol = tol + _quadrature_tol(quad["n_theta"])
    peak = float(np.max(meas.s_rel_values))
    if not _close(rec["max_s_rel"], peak, s_tol):
        report.fail(where, f"max_s_rel {rec['max_s_rel']!r} vs reference {peak!r}")
    j = rec["phi_at_max"] * n_out / (2.0 * math.pi)
    if not (math.isfinite(j) and abs(j - round(j)) < 1e-6
            and meas.s_rel_values[int(round(j)) % n_out] >= peak - 2.0 * s_tol):
        report.fail(where, f"phi_at_max {rec['phi_at_max']!r} is not a grid maximum")
    if not _close(rec["negativity"], meas.negativity, 50.0 * tol):
        report.fail(where, f"negativity {rec['negativity']!r} vs {meas.negativity!r}")
    if not _close(rec["purity"], meas.purity, 20.0 * tol):
        report.fail(where, f"purity {rec['purity']!r} vs {meas.purity!r}")
    mi_tol = 100.0 * tol * (1.0 + abs(math.log(tol)))
    if not _close(rec["mutual_info"], meas.mutual_info, mi_tol):
        report.fail(where, f"mutual_info {rec['mutual_info']!r} vs {meas.mutual_info!r}")
    if meas.dominant_gap > 1e3 * tol:
        slack = 1e-3 + 1e3 * tol / meas.dominant_gap
        ranks = {int(np.sum(meas.schmidt > RANK_THRESHOLD * f * meas.schmidt[0]))
                 for f in (1.0 - slack, 1.0 + slack)}
        if int(rec["schmidt_rank"]) not in ranks:
            report.fail(where, f"schmidt_rank {rec['schmidt_rank']} vs {sorted(ranks)}")
    fo, neg_fo, _ = ref.oracle(point)
    for name, want in (("s_rel_fo", fo), ("negativity_fo", neg_fo)):
        if not _close(rec[name], want, ORACLE_REL_TOL * abs(want) + 1e-15):
            report.fail(where, f"{name} {rec[name]!r} vs oracle {want!r}")
    rates = ref.coefficients(point)[:4]
    eps = float(point.get("epsilon", 0.0))
    if rates.min() > 0.0 and eps / rates.min() <= ORACLE_WEAK:
        y2 = (eps / rates.min()) ** 2
        grid = fo * (1.0 - math.cos(math.pi / n_out))
        if abs(rec["max_s_rel"] - fo) > grid + ORACLE_SREL_C * y2 + s_tol:
            report.fail(where, f"max_s_rel {rec['max_s_rel']!r} outside the "
                        f"first-order envelope around {fo!r}")
        if abs(rec["negativity"] - neg_fo) > ORACLE_NEG_C * y2 + 50.0 * tol:
            report.fail(where, f"negativity {rec['negativity']!r} outside the "
                        f"first-order envelope around {neg_fo!r}")
    if not (0.0 <= rec["residual"] <= 1e-10 * (1.0 + scale)):
        report.fail(where, f"residual {rec['residual']!r} above 1e-10 (1 + max|L|)")


def check_state(report: Report, where: str, point: dict, sol: ref.SteadyReference,
                rho: np.ndarray) -> None:
    """Density-matrix invariants, stationarity, and agreement with the reference."""
    tol = _state_tol(sol) if sol.unique else 1e-10
    gen = ref.generators([point])[0]
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        report.fail(where, "state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        report.fail(where, f"trace {np.trace(rho)!r}")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -max(1e-10, tol):
        report.fail(where, "state is not positive semidefinite")
    stationarity = float(np.linalg.norm(gen @ rho.reshape(-1)))
    if stationarity > 1e-9 * (1.0 + float(np.max(np.abs(gen)))):
        report.fail(where, f"reference residual {stationarity:.3e}")
    if sol.unique and np.max(np.abs(rho - sol.rho)) > tol:
        report.fail(where, f"state differs from the reference by "
                    f"{np.max(np.abs(rho - sol.rho)):.3e} > {tol:.3e}")


def _refusal(report: Report, sol: ref.SteadyReference, status: str) -> None:
    report.refused.update(causes(status))
    if sol.unique:
        report.false_failure += 1


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: str) -> list[dict]:
    """Rows by column name, numbers parsed; columns this checker ignores may be added."""
    with open(path, newline="") as fh:
        return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _fit(xs: np.ndarray, ys: np.ndarray) -> dict:
    dx, dy = xs - xs.mean(), ys - ys.mean()
    slope = float(dx @ dy / (dx @ dx))
    intercept = float(ys.mean() - slope * xs.mean())
    ss_tot = float(dy @ dy)
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - float(np.sum((ys - slope * xs - intercept) ** 2)) / ss_tot
    return {"slope": slope, "intercept": intercept, "r_squared": r2, "n_points": len(xs)}


def _check_regress(report: Report, where: str, rows: list[dict], x: str,
                   call: dict) -> None:
    xs = np.array([float(r[x]) for r in rows])
    ys = np.array([float(r["max_s_rel"]) for r in rows])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        if call["rc"] != 1:
            report.fail(where, f"regress on non-finite data exited {call['rc']}, not 1")
        return
    if call["rc"] != 0:
        report.fail(where, f"regress exited {call['rc']}: {call['stderr'].strip()}")
        return
    got = json.loads(call["stdout"])
    for key, want in _fit(xs, ys).items():
        if not _close(float(got[key]), want, 1e-9 * (1.0 + abs(want))):
            report.fail(where, f"regress {key} {got[key]!r} vs {want!r}")


def check_tongue(seed: int, base: dict, units: list[dict], unit_inputs: list[dict],
                 steps: tuple[int, int] = TONGUE_STEPS) -> Report:
    report = Report()
    eps_axis, delta_axis = tongue_grid(seed, steps)
    grid = [(e, d) for e in eps_axis for d in delta_axis]
    # Steady states do not depend on omega_ref (the state commutes with the
    # total Sz), so one reference at omega_ref = 0 serves every unit's draw.
    points = [dict(base, epsilon=e, delta=d, omega_ref=0.0) for e, d in grid]
    sols = ref.steady_references(points)
    n_out = _quad(base)["n_phi_out"]
    meas = [ref.measures(sol.rho, n_out) if sol.unique else None for sol in sols]
    scales = [_scale(p) for p in points]
    for unit, inputs in zip(units, unit_inputs):
        where = f"tongue unit {unit['index']}"
        sweep = unit["calls"][0]
        report.attempted += len(grid)
        if sweep["rc"] != 0:
            report.fail(where, f"sweep exited {sweep['rc']}: {sweep['stderr'].strip()}",
                        len(grid))
            continue
        rows = _read_csv(inputs["outs"][0])
        if len(rows) != len(grid):
            report.fail(where, f"{len(rows)} rows, expected {len(grid)}", len(grid))
            continue
        omega_ref = float(inputs["configs"][0].get("omega_ref", 0.0))
        for i, (rec, (e, d), sol, point) in enumerate(zip(rows, grid, sols, points)):
            at = f"{where} row {i}"
            if not (_close(rec["epsilon"], e, 1e-11 * (1 + abs(e)))
                    and _close(rec["delta"], d, 1e-11 * (1 + abs(d)))):
                report.fail(at, f"grid point ({rec['epsilon']}, {rec['delta']}) "
                            f"vs ({e}, {d})")
                continue
            if rec["status"] != "ok":
                _refusal(report, sol, rec["status"])
                continue
            report.solved += 1
            if not sol.unique:
                continue
            # The omega_ref term adds at most 2|omega_ref| to max|L|.
            check_measures(report, at, point, sol, meas[i],
                           scales[i] + 2.0 * abs(omega_ref), rec)
        for call, x in zip(unit["calls"][1:], ("negativity", "mutual_info")):
            _check_regress(report, f"{where} regress {x}", rows, x, call)
    return report


def check_steady(units: list[dict], unit_inputs: list[dict]) -> Report:
    report = Report()
    points, calls, outs = [], [], []
    for unit, inputs in zip(units, unit_inputs):
        points += inputs["configs"]
        calls += unit["calls"]
        outs += inputs["outs"]
    sols = ref.steady_references(points)
    for i, (point, call, out, sol) in enumerate(zip(points, calls, outs, sols)):
        where = f"steady call {i}"
        report.attempted += 1
        if call["rc"] == 2:
            prefix = "steady solve failed: "
            text = call["stderr"].strip()
            if not text.startswith(prefix):
                report.fail(where, f"exit 2 without a failure note: {text!r}")
            _refusal(report, sol, text[len(prefix):])
            continue
        if call["rc"] != 0:
            report.fail(where, f"exited {call['rc']}: {call['stderr'].strip()}")
            continue
        with open(out) as fh:
            payload = json.load(fh)
        rec = payload["record"]
        if rec["status"] != "ok":
            report.fail(where, f"exit 0 with status {rec['status']!r}")
            continue
        report.solved += 1
        rho = np.array([complex(re, im) for re, im in payload["state"]]).reshape(9, 9)
        check_state(report, where, point, sol, rho)
        if not (_close(rec["epsilon"], point["epsilon"], 0.0)
                and _close(rec["delta"], point["delta"], 0.0)):
            report.fail(where, "record is for another point")
        if sol.unique:
            check_measures(report, where, point, sol,
                           ref.measures(sol.rho, _quad(point)["n_phi_out"]), _scale(point), rec)
    return report


def check_dynamics(units: list[dict], unit_inputs: list[dict]) -> Report:
    report = Report()
    rho0 = np.zeros((9, 9), dtype=complex)
    rho0[4, 4] = 1.0
    for unit, inputs in zip(units, unit_inputs):
        where = f"dynamics unit {unit['index']}"
        call = unit["calls"][0]
        report.attempted += DYNAMICS_SAMPLES
        if call["rc"] != 0:
            report.fail(where, f"exited {call['rc']}: {call['stderr'].strip()}",
                        DYNAMICS_SAMPLES)
            continue
        point = inputs["configs"][0]
        rows = _read_csv(inputs["outs"][0])
        times = np.linspace(0.0, inputs["t_max"], DYNAMICS_SAMPLES)
        if len(rows) != len(times):
            report.fail(where, f"{len(rows)} rows, expected {len(times)}",
                        DYNAMICS_SAMPLES)
            continue
        n_out = _quad(point)["n_phi_out"]
        for got, t, state in zip(rows, times, ref.propagate(point, rho0, times)):
            at = f"{where} t={t:g}"
            report.solved += 1
            want = {
                "t": t,
                "s_rel_peak": float(np.max(ref.s_rel_grid(state, n_out)[1])),
                "negativity": ref.measures(state, n_out).negativity,
            }
            for key, value in want.items():
                if not _close(got[key], value, DYNAMICS_TOL):
                    report.fail(at, f"{key} {got[key]!r} vs reference {value!r}")
            oracle = ref.oracle(point, t)[0]
            if not _close(got["s_rel_peak_oracle"], oracle,
                          ORACLE_REL_TOL * abs(oracle) + 1e-15):
                report.fail(at, f"s_rel_peak_oracle {got['s_rel_peak_oracle']!r} "
                            f"vs {oracle!r}")
            if not 0.0 <= got["trace_error"] <= TRACE_DRIFT_TOL:
                report.fail(at, f"trace_error {got['trace_error']!r}")
    return report
