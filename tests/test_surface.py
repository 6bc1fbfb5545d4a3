"""The package's surface: every top-level function is run by a command or pinned here.

A fresh interpreter profiles every Python call from before `import
spinsync.cli` on, then runs each command through cli.main: steady on the
reversed cycles and on a refused point, a 5x5 sweep, a 5-step balanced
scan, a short dynamics trace and regress.  The top-level functions of the
package's modules that none of this reaches must be exactly UNREACHED, the
library API kept although no command runs it.  A function that no command
runs is either deleted, moved into tests/ as an oracle, or added here on
purpose.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinsync

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("operators", "liouvillian", "phasespace", "correlations", "first_order",
           "sweep", "cli")

# Each unreached function with its role: a "view" of the sector engine, an
# independent "oracle" on 9x9 states (3x3 for p_single), or a private
# "helper" of one of them.
UNREACHED = {
    "correlations.mutual_information": "oracle",
    "correlations.negativity": "oracle",
    "correlations.purity": "oracle",
    "correlations.schmidt_analysis": "oracle",
    "correlations.von_neumann_entropy": "oracle",
    "liouvillian.build_generator": "view",
    "liouvillian.steady_state": "view",
    "operators._split_pair": "helper",
    "operators.hermitian_eigenvalues": "oracle",
    "operators.partial_trace": "oracle",
    "operators.partial_transpose": "oracle",
    "phasespace.max_s_rel": "view",
    "phasespace.p_single": "oracle",
    "phasespace.s_rel": "view",
    "sweep.arnold_sweep": "view",
    "sweep.balanced_cut_scan": "view",
    "sweep.dynamics_trace": "view",
    "sweep.write_dynamics_csv": "view",
    "sweep.write_sweep_csv": "view",
}

_SCRIPT = """
import inspect, json, sys
reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

sys.setprofile(profile)
import spinsync.cli
codes = [spinsync.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
unreached = []
for name in json.loads(sys.argv[2]):
    module = sys.modules["spinsync." + name]
    for attr, obj in vars(module).items():
        function = inspect.unwrap(obj) if callable(obj) else obj
        if (inspect.isfunction(function) and function.__module__ == module.__name__
                and function.__code__ not in reached):
            unreached.append(name + "." + attr)
print(json.dumps({"codes": codes, "unreached": unreached}))
"""


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("surface")
    refused = tmp / "refused.json"
    refused.write_text('{"gamma_g_a": 0, "gamma_g_b": 0, "epsilon": 0.1}')
    fig2, balanced = (str(ROOT / "configs" / name)
                      for name in ("reversed_cycles.json", "balanced_pair.json"))
    sweep_csv = str(tmp / "sweep.csv")
    commands = [
        ["steady", "--config", fig2, "--out", str(tmp / "steady.json")],
        ["steady", "--config", str(refused)],
        ["sweep", "--config", fig2, "--eps-steps", "5", "--delta-steps", "5",
         "--out", sweep_csv],
        ["scan-balanced", "--config", balanced, "--steps", "5",
         "--out", str(tmp / "scan.csv")],
        ["dynamics", "--config", fig2, "--t-max", "0.1", "--samples", "3",
         "--out", str(tmp / "dynamics.csv")],
        ["regress", "--in", sweep_csv, "--x", "negativity", "--y", "max_s_rel"],
    ]
    package_root = str(Path(spinsync.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(commands), json.dumps(MODULES)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 2, 0, 0, 0, 0], proc.stderr
    return result["unreached"]


def test_every_unreached_function_is_pinned(unreached):
    assert sorted(unreached) == sorted(UNREACHED)


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_docstring_states_the_role(name):
    module, attr = name.split(".")
    function = getattr(getattr(spinsync, module), attr)
    role = UNREACHED[name]
    if role == "helper":
        assert attr.startswith("_")
        return
    first_line = function.__doc__.splitlines()[0]
    if role == "view":
        assert "a view of the sector engine" in first_line, first_line
    else:
        assert re.search(r"an independent \dx\d oracle\.$", first_line), first_line
