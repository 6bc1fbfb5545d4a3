import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import wide_range_params

import spinsync
from spinsync import SystemParams, negativity
from spinsync import cli
from spinsync.cli import build_parser, main
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
        payload = {
            "record": dataclasses.asdict(record),
            "state": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)],
        }
        return json.dumps(payload, indent=2)

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
    # 0.3 s of every command's start-up on a 2-core Xeon VM.
    config = write_json(tmp_path, FIG2_CONFIG)
    script = (
        "import sys\n"
        "from spinsync.cli import main\n"
        f"assert main(['steady', '--config', {config!r}, '--out', 'state.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
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
        ],
    )
    def test_sweep_refusal_lines(self, tmp_path, capsys, flags, message):
        cfg = write_json(tmp_path, FIG2_CONFIG)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--config", cfg, "--out", str(out), "--eps-steps", "2",
                "--delta-steps", "2", *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gdb-min", "0"], "error: invalid ratio range (0.0, 199.0)"),
            (["--gdb-max", "0.5"], "error: invalid ratio range (1.0, 0.5)"),
            (["--steps", "1"], "error: need at least 2 steps"),
        ],
    )
    def test_scan_balanced_refusal_lines(self, tmp_path, capsys, flags, message):
        cfg = write_json(tmp_path, BALANCED_CONFIG)
        out = tmp_path / "x.csv"
        assert main(["scan-balanced", "--config", cfg, "--out", str(out), *flags]) == 1
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

    def test_same_fit_as_reading_every_column(self, sweep_csv, capsys):
        with open(sweep_csv) as fh:
            rows = list(csv.DictReader(fh))
        want = spinsync.linear_regression(
            np.array([float(r["delta"]) for r in rows]),
            np.array([float(r["mutual_info"]) for r in rows]))
        assert main(["regress", "--in", sweep_csv, "--x", "delta", "--y", "mutual_info"]) == 0
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(want)
