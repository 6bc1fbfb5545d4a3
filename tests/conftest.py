"""Shared fixtures: the reference parameter points and the expensive sweeps.

The full tongue sweep and the dynamics trace are session-scoped so the
module tests and the acceptance suite share one computation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import spinsync
from spinsync import (
    QuadratureSpec,
    SystemParams,
    arnold_sweep,
    balanced_cut_scan,
    dynamics_trace,
    steady_state,
)
from spinsync.operators import M_VALUES

# Reversed limit cycles: gain of A and damping of B 100x stronger, the
# configuration that locks best.
FIG2 = SystemParams(
    gamma_g_a=100.0,
    gamma_d_a=1.0,
    gamma_g_b=1.0,
    gamma_d_b=100.0,
    epsilon=0.1,
    delta=0.0,
)

BALANCED = SystemParams(epsilon=0.1)


def wide_range_params(rng: np.random.Generator) -> SystemParams:
    """A point drawn like the wide-range single-point benchmark's.

    Rates from 1e-3 to 1e3 with one of them zero in a tenth of the points,
    |delta| up to 1e6, omega_ref up to 1e3.
    """
    rates = {name: float(10.0 ** rng.uniform(-3.0, 3.0))
             for name in ("gamma_g_a", "gamma_g_b", "gamma_d_b")}
    if rng.random() < 0.1:
        rates[str(rng.choice(sorted(rates)))] = 0.0
    return SystemParams(
        gamma_d_a=1.0,
        **rates,
        epsilon=float(rng.uniform(0.0, 0.3)),
        delta=float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0)),
        omega_ref=float(rng.uniform(-1e3, 1e3)),
    )


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-sampled full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_sector_state(rng: np.random.Generator) -> np.ndarray:
    """A 9x9 density matrix that commutes with Sz_A + Sz_B.

    Each block of joint indices with equal M = m_A + m_B gets a random PSD
    block of random rank and weight from 1e-6 to 1, or none in a fifth of
    the blocks, so pure, rank-deficient and mixed states all occur.
    """
    m_total = np.add.outer(M_VALUES, M_VALUES).reshape(-1)
    rho = np.zeros((9, 9), dtype=complex)
    for m in range(-2, 3):
        members = np.flatnonzero(m_total == m)
        if rng.random() < 0.2:
            continue
        rank = int(rng.integers(1, len(members) + 1))
        a = (rng.normal(size=(len(members), rank))
             + 1j * rng.normal(size=(len(members), rank)))
        rho[np.ix_(members, members)] = 10.0 ** rng.uniform(-6.0, 0.0) * (a @ a.conj().T)
    if not rho.any():
        rho[4, 4] = 1.0
    return rho / np.trace(rho).real


@st.composite
def sector_density_matrices(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_sector_state(np.random.default_rng(seed))


@st.composite
def density_matrices(draw, dim: int = 9):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_density(np.random.default_rng(seed), dim)


@st.composite
def system_params(draw, max_epsilon: float = 0.3):
    rate = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
    return SystemParams(
        gamma_g_a=draw(rate),
        gamma_d_a=draw(rate),
        gamma_g_b=draw(rate),
        gamma_d_b=draw(rate),
        epsilon=draw(st.floats(min_value=0.0, max_value=max_epsilon)),
        delta=draw(st.floats(min_value=-2.0, max_value=2.0)),
    )


@st.composite
def extreme_params(draw):
    """Any zero pattern of the rates and exchange, far from the reference scales.

    gamma_g_a, gamma_g_b, gamma_d_b and epsilon are each zero or 1e-6 to
    1e6 times gamma_d_a = 1; |delta| and |omega_ref| are zero or 1e-3 to
    1e8.
    """
    def scale(low: float, high: float) -> float:
        if draw(st.booleans()):
            return 0.0
        return 10.0 ** draw(st.floats(min_value=low, max_value=high))

    def signed() -> float:
        return draw(st.sampled_from([-1.0, 1.0])) * scale(-3.0, 8.0)

    return SystemParams(
        gamma_g_a=scale(-6.0, 6.0),
        gamma_g_b=scale(-6.0, 6.0),
        gamma_d_b=scale(-6.0, 6.0),
        epsilon=scale(-6.0, 6.0),
        delta=signed(),
        omega_ref=signed(),
    )


# Run in a fresh interpreter: spinsync.cli.main on the argv after -c, then
# this process's peak resident set, VmHWM, in kB.
_PEAK_SCRIPT = (
    "import sys\n"
    "from spinsync.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    "sys.exit(code)\n"
)


def cli_peak_memory_kb(argv: list[str]) -> int:
    """Peak resident memory, VmHWM in kB, of spinsync.cli.main(argv) in a fresh process.

    The process runs at one OpenBLAS thread and reads VmHWM from its own
    /proc/self/status after main returns; getrusage's ru_maxrss is not used,
    as it can carry a high-water mark across exec.  Skips the calling test
    where /proc/self/status is missing.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    package_root = str(Path(spinsync.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.fixture(scope="session")
def fig2_params() -> SystemParams:
    return FIG2


@pytest.fixture(scope="session")
def fig2_steady() -> np.ndarray:
    return steady_state(FIG2)


@pytest.fixture(scope="session")
def quad() -> QuadratureSpec:
    return QuadratureSpec()


@pytest.fixture(scope="session")
def arnold():
    """Default 101x101 tongue sweep, single worker, with its wall time."""
    start = time.perf_counter()
    records = arnold_sweep(FIG2)
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def balanced_cut():
    return balanced_cut_scan(BALANCED)


@pytest.fixture(scope="session")
def fig2_dynamics():
    return dynamics_trace(FIG2, t_max=5.0, samples=11)


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line acceptance verdicts where capture cannot hide them."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
