import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_peak_memory_kb, wide_range_params

import spinsync
from spinsync import SystemParams, negativity
from spinsync import cli
from spinsync.cli import build_parser, main
from spinsync.first_order import NO_STEADY_STATE
from spinsync.sweep import DYNAMICS_CSV_HEADER, SWEEP_CSV_HEADER, evaluate_point

FIG2_CONFIG = {
    "gamma_g_a": 100.0,
    "gamma_d_a": 1.0,
    "gamma_g_b": 1.0,
    "gamma_d_b": 100.0,
    "epsilon": 0.1,
    "delta": 0.0,
}
BALANCED_CONFIG = {"epsilon": 0.1}
# Subprocesses import the package from where this process found it.
PACKAGE_ENV = {**os.environ, "PYTHONPATH": str(Path(spinsync.__file__).resolve().parent.parent)}


def write_json(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=refuse_constant)


def read_summary(capsys):
    """The one-line JSON summary a successful run writes to stderr; stdout stays empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    return strict_loads(captured.err)


class TestSteady:
    def test_prints_record_and_state(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        assert main(["steady", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        record = payload["record"]
        assert list(record) == SWEEP_CSV_HEADER.split(",")
        assert record["status"] == "ok"
        assert record["schmidt_rank"] == 2
        state = np.array([complex(re, im) for re, im in payload["state"]]).reshape(9, 9)
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
        assert negativity(state) == pytest.approx(record["negativity"], abs=1e-12)

    def test_writes_to_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "steady.json"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert len(payload["state"]) == 81

    @staticmethod
    def oracle_json(record, rho) -> str:
        # A non-finite float of the record, an undefined oracle, is null.
        payload = {
            "record": {key: None if isinstance(value, float) and not math.isfinite(value)
                       else value for key, value in dataclasses.asdict(record).items()},
            "state": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)],
        }
        return json.dumps(payload, indent=2, allow_nan=False)

    def test_output_is_json_dumps_byte_for_byte(self, tmp_path):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "steady.json"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        record, rho = evaluate_point(SystemParams(**FIG2_CONFIG))
        assert out.read_text() == self.oracle_json(record, rho) + "\n"

    def test_signed_zeros_and_extreme_exponents(self):
        record, rho = evaluate_point(SystemParams(**FIG2_CONFIG))
        rho = rho.copy()
        rho.imag[rho.imag == 0.0] = -0.0
        rho.real[0, 1], rho.imag[1, 0] = 1e-300, -1.5e16
        text = cli._steady_json(record, rho)
        assert "-0.0" in text and "1e-300" in text
        assert text == self.oracle_json(record, rho)

    def test_wide_range_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            record, rho = evaluate_point(wide_range_params(rng))
            if rho is not None:
                assert cli._steady_json(record, rho) == self.oracle_json(record, rho)

    def test_solver_failure_exits_two(self, tmp_path, capsys):
        # without any gain the dark levels leave a degenerate kernel
        cfg = write_json(tmp_path, dict(BALANCED_CONFIG, gamma_g_a=0.0, gamma_g_b=0.0))
        assert main(["steady", "--config", cfg]) == 2
        assert "steady solve failed" in capsys.readouterr().err

    def test_undefined_oracle_alone_exits_zero(self, tmp_path, capsys):
        # delta = 0 and gamma_g_a = gamma_d_b = 0 make the oracle's lam_minus
        # vanish, while the exchange and gamma_g_b leave one steady state:
        # the state is written and the status names the oracle.
        config = {"gamma_g_a": 0, "gamma_d_b": 0, "gamma_g_b": 1, "epsilon": 0.1}
        cfg = write_json(tmp_path, config)
        assert main(["steady", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        record = strict_loads(captured.out)["record"]
        assert record["status"] == f"oracle: {NO_STEADY_STATE}"
        assert record["s_rel_fo"] is None and record["negativity_fo"] is None
        assert record["residual"] <= 1e-12 and record["schmidt_rank"] == 3
        record, rho = evaluate_point(SystemParams(**config))
        assert captured.out == self.oracle_json(record, rho) + "\n"

    def test_overflowing_rates_print_only_the_failure(self, tmp_path):
        # Rates near the float maximum overflow the oracle's decay rates
        # and the generator.  In a process with the default warning
        # filters, stderr holds the failure line and no RuntimeWarning.
        cfg = write_json(tmp_path, {"gamma_g_a": 1e308, "gamma_d_a": 1e308, "gamma_g_b": 1e308,
                                    "gamma_d_b": 1e308, "epsilon": 1.0})
        proc = subprocess.run([sys.executable, "-m", "spinsync.cli", "steady", "--config", cfg],
                              capture_output=True, text=True, env=PACKAGE_ENV)
        assert proc.returncode == 2
        assert proc.stderr == (
            "steady solve failed: solve: generator has non-finite entries: the parameters "
            "overflow double precision\n")


class TestConfigHandling:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["steady", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparsable_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["steady", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["steady", "--config", str(path)]) == 1

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, dict(BALANCED_CONFIG, coupling=0.1))
        assert main(["steady", "--config", cfg]) == 1
        assert "unknown config keys: coupling" in capsys.readouterr().err

    def test_non_numeric_value(self, tmp_path):
        cfg = write_json(tmp_path, {"epsilon": True})
        assert main(["steady", "--config", cfg]) == 1

    def test_invalid_parameter_value(self, tmp_path, capsys):
        cfg = write_json(tmp_path, {"gamma_g_a": -1.0})
        assert main(["steady", "--config", cfg]) == 1
        assert "gamma_g_a" in capsys.readouterr().err

    @pytest.mark.parametrize("digits, message", [
        (400, "config key epsilon is too large for a float\n"),
        (5000, "config {path} is not valid JSON: Exceeds the limit"),
    ])
    def test_huge_integer_literal(self, tmp_path, capsys, digits, message):
        # JSON integers are exact: 401 digits exceed the float range, and
        # 5001 exceed the digits Python converts from text.
        path = tmp_path / "config.json"
        path.write_text('{"epsilon": 1' + "0" * digits + "}")
        assert main(["steady", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path))

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100000)
        assert main(["steady", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config {path} is nested too deeply to parse\n"

    def test_quadrature_keys_are_honored(self, tmp_path):
        cfg = write_json(tmp_path, dict(BALANCED_CONFIG, n_theta=7))
        assert main(["steady", "--config", cfg]) == 1

    @pytest.mark.parametrize("text", ['{"n_theta": 32.7}', '{"n_phi_out": 2.5}'])
    def test_fractional_node_count_is_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["steady", "--config", str(path)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"n_theta": 1e400}', '{"n_phi": NaN}'])
    def test_non_finite_node_count_is_rejected(self, tmp_path, capsys, text):
        # 1e400 parses as infinity; int() of it would raise OverflowError.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["steady", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: config key n_")

    @pytest.mark.parametrize("text, got", [('{"n_phi_out": 1e15}', 10**15),
                                           ('{"n_phi_out": 65537}', 65537)])
    def test_oversized_output_grid_is_rejected(self, tmp_path, capsys, text, got):
        # Without the cap, 1e15 nodes die allocating the profile.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["steady", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: n_phi_out must be <= 65536, got {got}\n"

    def test_largest_output_grid_is_accepted(self, tmp_path):
        cfg = write_json(tmp_path, dict(BALANCED_CONFIG, n_phi_out=65536))
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 0

    def test_integral_float_node_count_is_accepted(self, tmp_path):
        cfg = write_json(tmp_path, dict(BALANCED_CONFIG, n_theta=32.0, n_phi_out=64.0))
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 0


class TestArgumentErrors:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        assert main(["steady", "--config", cfg, "--frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["steady"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "steady" in capsys.readouterr().out
        assert main(["sweep", "--help"]) == 0

    def test_parser_is_built_once_and_reused(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "steady.json"
        assert main(["steady", "--frobnicate"]) == 1
        assert main(["--help"]) == 0
        assert "steady" in capsys.readouterr().out
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["record"]["status"] == "ok"
        assert len(built) == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinsync.cli", "--help"],
            capture_output=True,
            text=True,
            env=PACKAGE_ENV,
        )
        assert proc.returncode == 0
        assert "spinsync" in proc.stdout


def test_runs_on_numpy_alone(tmp_path):
    # scipy is a test dependency only; importing scipy.linalg costs about
    # 0.3 s of every command's start-up on a 2-core Xeon VM.  numpy.ma,
    # which np.unique imports, some 10 ms.
    config = write_json(tmp_path, FIG2_CONFIG)
    script = (
        "import sys\n"
        "from spinsync.cli import main\n"
        f"assert main(['steady', '--config', {config!r}, '--out', 'state.json']) == 0\n"
        f"assert main(['sweep', '--config', {config!r}, '--eps-steps', '2',"
        " '--delta-steps', '2', '--out', 'sweep.csv']) == 0\n"
        f"assert main(['dynamics', '--config', {config!r}, '--t-max', '0.01',"
        " '--samples', '2', '--out', 'dyn.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=PACKAGE_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "state.json").exists()


def test_sweep_csvs_do_not_depend_on_blas_threads(tmp_path):
    # The same 11 x 11 sweep and default balanced cut, run in processes
    # with one and with two OpenBLAS threads, write the same bytes.
    fig2 = write_json(tmp_path, FIG2_CONFIG)
    balanced = write_json(tmp_path, BALANCED_CONFIG, name="balanced.json")
    outputs = {}
    for threads in ("1", "2"):
        sweep_csv, cut_csv = tmp_path / f"sweep-{threads}.csv", tmp_path / f"cut-{threads}.csv"
        script = (
            "from spinsync.cli import main\n"
            f"assert main(['sweep', '--config', {fig2!r}, '--eps-steps', '11',"
            f" '--delta-steps', '11', '--out', {str(sweep_csv)!r}]) == 0\n"
            f"assert main(['scan-balanced', '--config', {balanced!r},"
            f" '--out', {str(cut_csv)!r}]) == 0\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**PACKAGE_ENV, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = (sweep_csv.read_bytes(), cut_csv.read_bytes())
    assert outputs["1"] == outputs["2"]
    assert [len(out.splitlines()) for out in outputs["1"]] == [1 + 121, 1 + 101]


class TestSweepCommands:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--config", cfg, "--out", str(out),
            "--eps-steps", "2", "--delta-steps", "3",
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * 3

    def test_sweep_is_deterministic(self, tmp_path):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        argv = ["sweep", "--config", cfg, "--eps-steps", "2", "--delta-steps", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_option_is_removed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "a.csv"
        argv = ["sweep", "--config", cfg, "--eps-steps", "2", "--delta-steps", "2",
                "--out", str(out), "--jobs", "4"]
        assert main(argv) == 1
        assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_bad_grid(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        argv = [
            "sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"),
            "--eps-steps", "1",
        ]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps-min", "-0.1"], "error: epsilon must be finite and >= 0, got -0.1"),
            (["--eps-min", "0.2"], "error: invalid epsilon range [0.2, 0.1]"),
            (["--delta-max", "inf"], "error: invalid delta range [-1.0, inf]"),
            (["--delta-min", "nan"], "error: invalid delta range [nan, 1.0]"),
            # Refused before any axis is built, so at once.
            (["--eps-steps", "100000", "--delta-steps", "100000"],
             "error: a grid of 10000000000 points is larger than MAX_GRID_POINTS = 1000000"),
        ],
    )
    def test_sweep_refusal_lines(self, tmp_path, capsys, flags, message):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--config", cfg, "--out", str(out), "--eps-steps", "2",
                "--delta-steps", "2", *flags]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gdb-min", "0"], "error: invalid ratio range (0.0, 199.0)"),
            (["--gdb-max", "0.5"], "error: invalid ratio range (1.0, 0.5)"),
            (["--steps", "1"], "error: need at least 2 steps"),
            (["--steps", "1000000000000"],
             "error: a grid of 1000000000000 points is larger than MAX_GRID_POINTS = 1000000"),
        ],
    )
    def test_scan_balanced_refusal_lines(self, tmp_path, capsys, flags, message):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert main(["scan-balanced", "--config", cfg, "--out", str(out), *flags]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_scan_balanced_writes_csv(self, tmp_path):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        out = tmp_path / "cut.csv"
        argv = ["scan-balanced", "--config", cfg, "--out", str(out), "--steps", "4"]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 5

    def test_scan_balanced_rejects_unbalanced_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        argv = ["scan-balanced", "--config", cfg, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err


class TestDynamicsCommand:
    def test_writes_csv(self, tmp_path):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        out = tmp_path / "dyn.csv"
        argv = ["dynamics", "--config", cfg, "--t-max", "2.0", "--samples", "5", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == DYNAMICS_CSV_HEADER
        assert len(lines) == 6

    def test_undefined_oracle_writes_nan_and_exits_zero(self, tmp_path, capsys):
        # gamma_g_a = gamma_d_b = delta = 0 make the oracle's lam_minus vanish.
        config = {"gamma_g_a": 0, "gamma_d_b": 0, "epsilon": 0.1}
        out = tmp_path / "dyn.csv"
        argv = ["dynamics", "--config", write_json(tmp_path, config), "--t-max", "0.05",
                "--samples", "3", "--out", str(out)]
        assert main(argv) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["s_rel_peak_oracle"] for row in rows] == ["nan"] * 3
        summary = read_summary(capsys)
        assert summary["samples"] == 3 and summary["max_oracle_rel_dev"] is None

    @pytest.mark.parametrize("config, t_max, samples, expected", [
        (FIG2_CONFIG, 5.0, 11, 0.03523824242545934),
        (FIG2_CONFIG, 0.05, 3, 0.0005314627966592047),
        ({"gamma_g_a": 0, "gamma_d_b": 0, "epsilon": 0.1}, 0.05, 3, None),
    ], ids=["fig2", "quiet-first-sample", "undefined-oracle"])
    def test_oracle_deviation_is_the_row_loop(self, tmp_path, capsys, config, t_max,
                                              samples, expected):
        # The summary takes the deviation from the table's columns; it equals
        # the loop over the rows, which skips quiet and undefined oracles.
        argv = ["dynamics", "--config", write_json(tmp_path, config), "--t-max", str(t_max),
                "--samples", str(samples), "--out", str(tmp_path / "dyn.csv")]
        assert main(argv) == 0
        value = read_summary(capsys)["max_oracle_rel_dev"]
        rows = spinsync.dynamics_trace(SystemParams(**config), t_max=t_max, samples=samples)
        assert rows[0].s_rel_peak_oracle == 0.0 or math.isnan(rows[0].s_rel_peak_oracle)
        assert value == max((abs(r.s_rel_peak - r.s_rel_peak_oracle) / abs(r.s_rel_peak_oracle)
                             for r in rows if abs(r.s_rel_peak_oracle) > 1e-12), default=None)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_rejects_negative_horizon(self, tmp_path, capsys):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        out = tmp_path / "x.csv"
        for t_max in ("-1.0", "inf", "nan"):
            argv = ["dynamics", "--config", cfg, "--t-max", t_max, "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 1
            assert capsys.readouterr().err == "error: t_max must be finite and >= 0\n"
            assert not out.exists()

    @pytest.mark.parametrize("rates, t_max, count", [
        (1e300, "1", "1e+303"),
        (1e300, "1e10", "inf"),
        (None, "1e10", "1e+15"),
    ], ids=["huge_rates", "overflowing_count", "long_horizon"])
    def test_step_count_beyond_the_bound_is_an_error_line(self, tmp_path, capsys, rates,
                                                          t_max, count):
        # All four rates at 1e300 make dt = 1e-303; at t_max = 1e10 the
        # count overflows.  FIG2's dt = 1e-5 to t_max = 1e10 is finite and
        # too long.  Each exits 1 at once, with one line and no output file.
        config = FIG2_CONFIG if rates is None else {
            name: rates for name in ("gamma_g_a", "gamma_d_a", "gamma_g_b", "gamma_d_b")}
        out = tmp_path / "x.csv"
        argv = ["dynamics", "--config", write_json(tmp_path, config), "--t-max", t_max,
                "--out", str(out)]
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: evolving to t = {float(t_max):g} takes {count} RK4 steps")
        assert err.endswith("more than MAX_STEPS = 1e+08\n") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_horizon_writes_one_row(self, tmp_path, capsys):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        out = tmp_path / "dyn.csv"
        argv = ["dynamics", "--config", cfg, "--t-max", "0", "--samples", "11", "--out", str(out)]
        assert main(argv) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["t"] for row in rows] == ["0"]
        assert read_summary(capsys)["samples"] == 1

    @pytest.mark.parametrize("samples", ["0", "100001", "1000000000000"])
    def test_sample_count_beyond_the_bound_is_an_error_line(self, tmp_path, capsys, samples):
        # Refused before anything is allocated, so at once.
        out = tmp_path / "x.csv"
        argv = ["dynamics", "--config", write_json(tmp_path, FIG2_CONFIG), "--t-max", "5",
                "--samples", samples, "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: samples must be between 1 and MAX_SAMPLES = 100000, got {samples}\n")
        assert not out.exists()


class TestPeakMemory:
    """Peak resident memory through the CLI, each run in a fresh process.

    The growth from a small run to a large one is what the program holds
    per sample or per point; the interpreter and numpy account for the
    rest, about 33 MB.
    """

    def test_dynamics_holds_samples_by_sector(self, tmp_path):
        # 20001 samples from |0,0> hold 19 complex entries each, 304 bytes;
        # 9x9 matrices held per sample grew the peak by 58 MB, and one
        # DynamicsRow per sample by 13 MB, where writing from columns takes 8 MB.
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        peaks = [cli_peak_memory_kb(["dynamics", "--config", cfg, "--t-max", "2",
                                     "--samples", samples, "--out", str(tmp_path / "d.csv")])
                 for samples in ("11", "20001")]
        assert peaks[1] - peaks[0] < 10.5 * 1024

    def test_sweep_writes_its_csv_in_blocks(self, tmp_path):
        # 201x201 points against 11x11; formatting the whole CSV at once
        # grew the peak by 40 MB.
        cfg = write_json(tmp_path, FIG2_CONFIG)
        peaks = [cli_peak_memory_kb(["sweep", "--config", cfg, "--eps-steps", steps,
                                     "--delta-steps", steps, "--out", str(tmp_path / "s.csv")])
                 for steps in ("11", "201")]
        assert peaks[1] - peaks[0] < 20 * 1024


@pytest.mark.parametrize(
    "command, flags",
    [
        ("steady", []),
        ("sweep", ["--eps-steps", "2", "--delta-steps", "2"]),
        ("scan-balanced", ["--steps", "2"]),
        ("dynamics", ["--t-max", "1.0", "--samples", "2"]),
    ],
)
def test_unwritable_out_path_is_an_error_line(tmp_path, capsys, command, flags):
    # An --out under a missing directory is reported on one line, exit 1.
    cfg = write_json(tmp_path, BALANCED_CONFIG)
    out = tmp_path / "missing" / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")
    assert captured.err.count("\n") == 1 and str(out) in captured.err


class TestRunSummaries:
    """sweep, scan-balanced and dynamics summarize each run on stderr."""

    def test_sweep_fits_its_ok_rows(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv"),
                "--eps-steps", "3", "--delta-steps", "3"]
        assert main(argv) == 0
        summary = read_summary(capsys)
        assert list(summary) == ["points", "failed", "seconds", "fits"]
        assert summary["points"] == 9 and summary["failed"] == 0
        assert summary["seconds"] > 0.0
        ok = [r for r in spinsync.arnold_sweep(SystemParams(**FIG2_CONFIG), steps=(3, 3))
              if r.status == "ok"]
        peaks = [r.max_s_rel for r in ok]
        assert summary["fits"] == {
            "negativity": dataclasses.asdict(
                spinsync.linear_regression([r.negativity for r in ok], peaks)),
            "mutual_info": dataclasses.asdict(
                spinsync.linear_regression([r.mutual_info for r in ok], peaks)),
        }

    @pytest.mark.parametrize("config, flags, failed, error", [
        ({"gamma_g_a": 0, "gamma_g_b": 0, "epsilon": 0.1}, [], 9, "need at least 2 points"),
        (FIG2_CONFIG, ["--eps-min", "0", "--eps-max", "0"], 0,
         "degenerate regression: xs are all equal"),
    ], ids=["all-refused", "uncoupled"])
    def test_refused_fit_is_reported(self, tmp_path, capsys, config, flags, failed, error):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", write_json(tmp_path, config), "--out", str(out),
                "--eps-steps", "3", "--delta-steps", "3", *flags]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 9
        summary = read_summary(capsys)
        assert summary["points"] == 9 and summary["failed"] == failed
        assert summary["fits"] == {"negativity": {"error": error},
                                   "mutual_info": {"error": error}}

    def test_scan_balanced_rank_drop(self, tmp_path, capsys):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        argv = ["scan-balanced", "--config", cfg, "--out", str(tmp_path / "cut.csv"),
                "--steps", "3"]
        assert main(argv) == 0
        summary = read_summary(capsys)
        assert list(summary) == ["points", "failed", "seconds", "rank_drops"]
        assert summary["points"] == 3 and summary["failed"] == 0
        # The grid is 1, sqrt(199), 199: rank 3, 3, 2.
        (drop,) = summary["rank_drops"]
        assert drop == {"after_gamma_d_b": float(np.geomspace(1.0, 199.0, 3)[1]), "to_rank": 2}
        assert round(drop["after_gamma_d_b"], 1) == 14.1

    def test_dynamics_oracle_deviation(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        argv = ["dynamics", "--config", cfg, "--t-max", "0.05", "--samples", "3",
                "--out", str(tmp_path / "dyn.csv")]
        assert main(argv) == 0
        summary = read_summary(capsys)
        assert list(summary) == ["samples", "seconds", "max_oracle_rel_dev"]
        assert summary["samples"] == 3
        # The sample at t = 0 is quiet, its oracle peak 0; the other two count.
        rows = spinsync.dynamics_trace(SystemParams(**FIG2_CONFIG), t_max=0.05, samples=3)
        assert rows[0].s_rel_peak_oracle == 0.0
        assert summary["max_oracle_rel_dev"] == max(
            abs(r.s_rel_peak - r.s_rel_peak_oracle) / r.s_rel_peak_oracle for r in rows[1:])
        assert 0.0 < summary["max_oracle_rel_dev"] < 0.05

    def test_summary_line_of_the_module_entry_point(self, tmp_path):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spinsync.cli", "sweep", "--config", cfg,
             "--out", str(out), "--eps-steps", "2", "--delta-steps", "2"],
            capture_output=True, text=True, env=PACKAGE_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        summary = strict_loads(line)
        assert summary["points"] == 4 and summary["failed"] == 0
        assert summary["fits"]["negativity"]["n_points"] == 4
        assert len(out.read_text().splitlines()) == 1 + 4


class TestRegressCommand:
    @pytest.fixture
    def sweep_csv(self, tmp_path):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--config", cfg, "--out", str(out),
            "--eps-steps", "3", "--delta-steps", "2",
        ]
        assert main(argv) == 0
        return str(out)

    def test_fits_columns(self, sweep_csv, capsys):
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "negativity"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"slope", "intercept", "r_squared", "n_points", "degenerate_variance"}
        assert result["n_points"] == 6
        assert result["slope"] > 0.0

    def test_non_finite_fit_is_null(self, sweep_csv, capsys, monkeypatch):
        fit = spinsync.RegressionResult(slope=math.nan, intercept=math.inf, r_squared=0.5,
                                        n_points=6)
        monkeypatch.setattr(cli, "linear_regression", lambda xs, ys: fit)
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "negativity"]) == 0
        result = strict_loads(capsys.readouterr().out)
        assert result["slope"] is None and result["intercept"] is None
        assert result["r_squared"] == 0.5

    def test_missing_column(self, sweep_csv, capsys):
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "nope"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "none.csv")
        assert main(["regress", "--in", missing, "--x", "a", "--y", "b"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_numeric_column(self, sweep_csv, capsys):
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "status"]) == 1
        assert "non-numeric" in capsys.readouterr().err

    def test_degenerate_xs(self, tmp_path, capsys):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "line.csv"
        argv = [
            "sweep", "--config", cfg, "--out", str(out),
            "--eps-steps", "2", "--delta-min", "0", "--delta-max", "0",
            "--delta-steps", "2",
        ]
        assert main(argv) == 0
        assert main(["regress", "--in", str(out), "--x", "delta", "--y", "negativity"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [",".join(["0.1"] * 2), ",".join(["0.1"] * 13)],
                             ids=["short", "long"])
    def test_ragged_row_is_refused(self, sweep_csv, capsys, row):
        lines = Path(sweep_csv).read_text().splitlines()
        lines.insert(3, row)
        Path(sweep_csv).write_text("\n".join(lines) + "\n")
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "negativity"]) == 1
        fields = len(row.split(","))
        assert capsys.readouterr().err == (
            f"line 4 of {sweep_csv} has {fields} fields, the header 12\n")

    def test_blank_lines_are_skipped(self, sweep_csv, capsys):
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "negativity"]) == 0
        want = capsys.readouterr().out
        lines = Path(sweep_csv).read_text().splitlines()
        Path(sweep_csv).write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        assert main(["regress", "--in", sweep_csv, "--x", "epsilon", "--y", "negativity"]) == 0
        assert capsys.readouterr().out == want

    def test_refused_rows_are_refused(self, tmp_path, capsys):
        # A refused point's measures are nan in the CSV.  The sweep's summary
        # fits its ok rows alone; regress reads every row and exits 1.
        cfg = write_json(tmp_path, {"gamma_g_a": 0, "gamma_d_b": 100})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--eps-steps", "3", "--delta-steps", "3",
                     "--out", str(out)]) == 0
        summary = read_summary(capsys)
        assert summary["failed"] == 3 and summary["fits"]["negativity"]["n_points"] == 6
        assert main(["regress", "--in", str(out), "--x", "negativity", "--y", "max_s_rel"]) == 1
        assert capsys.readouterr() == ("", "error: regression inputs must be finite\n")

    def test_same_fit_as_reading_every_column(self, sweep_csv, capsys):
        with open(sweep_csv) as fh:
            rows = list(csv.DictReader(fh))
        want = spinsync.linear_regression(
            np.array([float(r["delta"]) for r in rows]),
            np.array([float(r["mutual_info"]) for r in rows]))
        assert main(["regress", "--in", sweep_csv, "--x", "delta", "--y", "mutual_info"]) == 0
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(want)


class TestReadme:
    """The README's config table and CSV headers against the code."""

    TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def section(self, title):
        start = self.TEXT.index(f"\n### {title}\n")
        return self.TEXT[start:self.TEXT.index("\n#", start + 1)]

    def test_config_table_lists_exactly_the_config_keys(self):
        cells = [line.split("|")[1] for line in self.section("Config format").splitlines()
                 if line.startswith("| `")]
        keys = [key for cell in cells for key in re.findall(r"`(\w+)`", cell)]
        assert keys == list(cli.PARAM_KEYS + cli.QUAD_KEYS)

    def test_csv_header_blocks_are_the_headers(self):
        # A header wrapped over lines reads as its lines joined.
        blocks = re.findall(r"```\n(.*?)```", self.section("CSV columns"), re.S)
        assert ["".join(block.split()) for block in blocks] == [SWEEP_CSV_HEADER,
                                                                DYNAMICS_CSV_HEADER]
