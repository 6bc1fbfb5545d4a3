"""Smoke tests of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q

Each workload runs once at its smallest size through the real worker and
checker; the checker must reject perturbed outputs; the metric names the
runner emits must be exactly those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import check
import reference as ref
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
FIG2 = {"gamma_g_a": 100.0, "gamma_d_a": 1.0, "gamma_g_b": 1.0, "gamma_d_b": 100.0,
        "epsilon": 0.1, "delta": 0.0}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, tmp_path: Path, trace: bool = False):
    args = argparse.Namespace(workload=workload, seed=7)
    base = workloads.load_base(ROOT)
    return run.run_worker(args, base, tmp_path, "smoke", seconds=None, max_units=2,
                          trace=trace, small=True)


def test_declared_workloads_are_the_runners():
    assert [w["name"] for w in declared()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_checks_clean(workload, tmp_path):
    result, report = tiny_run(workload, tmp_path)
    assert len(result["units"]) == 2
    assert report.attempted > 0
    assert report.wrong == 0, report.errors
    names = {m["name"] for m in declared()["end_to_end"]}
    setup = [{"cpu": 0.5, "wall": 0.6, "scale": 1.0}]
    assert set(run.end_to_end(workload, result, report, setup)) == names


def test_traced_run_emits_declared_per_layer_metrics(tmp_path):
    traced, report = tiny_run("steady_cli", tmp_path, trace=True)
    trace = tracing.load(str(tmp_path / "smoke.trace.json.gz"))
    metrics, summary = run.per_layer(trace, traced, traced, report)
    assert set(metrics) == {m["name"] for m in declared()["per_layer"]}
    assert summary["functions"]["liouvillian.build_generator"]["calls"] >= 1
    assert 0.0 < metrics["trace.coverage"][0] <= 1.0


def test_missing_function_is_reported_absent():
    trace = {"names": ["cli.main"], "spans": [[0, 0, 10, -1, 0]], "errors": []}
    summary = tracing.summarize(trace)
    assert "operators.solve_linear" in summary["absent"]
    assert summary["layers"]["cli"]["calls"] == 1


def solved_fig2():
    sol = ref.steady_references([FIG2])[0]
    meas = ref.measures(sol.rho, 64)
    fo, neg_fo, _ = ref.oracle(FIG2)
    j = int(np.argmax(meas.s_rel_values))
    rec = {"max_s_rel": float(meas.s_rel_values[j]), "phi_at_max": 2 * np.pi * j / 64,
           "negativity": meas.negativity, "mutual_info": meas.mutual_info,
           "purity": meas.purity, "schmidt_rank": 2, "s_rel_fo": fo,
           "negativity_fo": neg_fo, "residual": 1e-15}
    return sol, meas, rec


def test_checker_accepts_the_reference_itself():
    sol, meas, rec = solved_fig2()
    report = check.Report()
    check.check_state(report, "fig2", FIG2, sol, sol.rho)
    check.check_measures(report, "fig2", FIG2, sol, meas, check._scale(FIG2), rec)
    assert report.wrong == 0, report.errors


def test_checker_rejects_perturbed_state():
    sol, _, _ = solved_fig2()
    rho = sol.rho.copy()
    rho[4, 2] += 1e-6
    rho[2, 4] += 1e-6
    report = check.Report()
    check.check_state(report, "fig2", FIG2, sol, rho)
    assert report.wrong > 0
    assert any("differs from the reference" in e for e in report.errors)


@pytest.mark.parametrize("field, delta", [("max_s_rel", 1e-6), ("negativity", 1e-6),
                                          ("mutual_info", 1e-5), ("schmidt_rank", -1)])
def test_checker_rejects_perturbed_measure(field, delta):
    sol, meas, rec = solved_fig2()
    rec[field] += delta
    report = check.Report()
    check.check_measures(report, "fig2", FIG2, sol, meas, check._scale(FIG2), rec)
    assert report.wrong > 0


def test_refusal_of_a_solvable_point_is_a_false_failure():
    sol, _, _ = solved_fig2()
    report = check.Report()
    check._refusal(report, sol, "solve: steady state is not unique: two smallest ...")
    assert report.false_failure == 1
    assert report.refused == {"non_unique": 1}
    assert report.wrong == 0


def test_inputs_repeat_for_a_seed(tmp_path):
    first = workloads.make_unit("steady_cli", 3, 5, {}, tmp_path)
    again = workloads.make_unit("steady_cli", 3, 5, {}, tmp_path)
    other = workloads.make_unit("steady_cli", 4, 5, {}, tmp_path)
    assert first["configs"] == again["configs"] != other["configs"]
