"""The scripts in scripts/, each run on a small input in its own process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import spinsync
from spinsync.sweep import DYNAMICS_CSV_HEADER, SWEEP_CSV_HEADER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# Subprocesses import the package from where this process found it.
PACKAGE_ENV = {**os.environ, "PYTHONPATH": str(Path(spinsync.__file__).resolve().parent.parent)}


def run_script(name, flags, out):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *flags, "--out", str(out)],
                          capture_output=True, text=True, env=PACKAGE_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), out.read_text().splitlines()


def test_arnold_tongue(tmp_path):
    out = tmp_path / "tongue.csv"
    printed, lines = run_script("run_arnold_tongue.py",
                                ["--eps-steps", "3", "--delta-steps", "3"], out)
    assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 10
    assert re.fullmatch(rf"9 points in \S+s \(0 failed\) -> {re.escape(str(out))}", printed[0])
    assert printed[1].startswith("peak S_rel vs negativity:  slope ")
    assert printed[2].startswith("peak S_rel vs mutual info: slope ")
    assert len(printed) == 3


def test_balanced_cut(tmp_path):
    out = tmp_path / "cut.csv"
    printed, lines = run_script("run_balanced_cut.py", ["--steps", "3"], out)
    assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 4
    assert printed == [
        f"3 points -> {out}",
        "ratio       1: negativity 0.1759, rank 3",
        "ratio     199: negativity 0.0875, rank 2",
        "rank drops to 2 after ratio 14.1",
    ]


def test_dynamics(tmp_path):
    out = tmp_path / "dynamics.csv"
    printed, lines = run_script("run_dynamics.py", ["--t-max", "0.05", "--samples", "3"], out)
    assert lines[0] == DYNAMICS_CSV_HEADER and len(lines) == 4
    assert printed[0] == f"3 samples -> {out}"
    assert printed[1].startswith("t =  0.00  peak ") and printed[1].endswith("quiet")
    for line, t in zip(printed[2:], ("0.03", "0.05")):
        assert re.fullmatch(rf"t =  {t}  peak \+\S+  analytic \+\S+  rel err \S+%", line)
    assert len(printed) == 4

