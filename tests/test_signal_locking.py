"""Which cycles lock to what: an external signal against a partner spin.

The abstract's first claim is that two limit cycles can phase-lock to each
other even where neither can lock to an external semi-classical signal.
The signal side is one spin 1 with the same gain and damping channels and
H = Delta Sz + eps_s Sy in the frame of the signal (oracles.py).  At first
order the signal drives only rho[+1,0] = -sqrt(2) eps_s / gamma_d and
rho[0,-1] = +sqrt(2) eps_s / gamma_g, at Delta = 0, and the first Fourier
mode of p_single is proportional to their sum.  So it cancels when gamma_g
= gamma_d, at every detuning: the interference blockade of a spin 1
(Roulet and Bruder, Phys. Rev. Lett. 121, 053601 (2018)), which leaves a
peak of second order in eps_s.  The pair side comes from the engine at
epsilon = 0.1: a balanced A locks to a damping-dominated B as strongly as
the reversed cycles of FIG2 do, while two cycles that a signal does lock,
both gain-dominated, barely lock to each other.
"""

import numpy as np
import pytest

from conftest import BALANCED, FIG2
from oracles import single_spin_steady_state
from spinsync import SystemParams, max_s_rel, p_single
from spinsync.sweep import evaluate_point

SQ2 = np.sqrt(2.0)


def signal_peak(gamma_g: float, gamma_d: float, delta: float, eps_s: float) -> float:
    """The peak of the single-spin phase distribution locked by the signal."""
    return max_s_rel(p_single(single_spin_steady_state(gamma_g, gamma_d, delta, eps_s)))[1]


@pytest.mark.parametrize("gamma_g, gamma_d", [(3.0, 3.0), (3.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
def test_signal_drives_the_closed_form_coherences(gamma_g, gamma_d):
    rho = single_spin_steady_state(gamma_g, gamma_d, 0.0, 0.01)
    # Index 0, 1, 2 is m = +1, 0, -1.
    assert rho[0, 1] == pytest.approx(-SQ2 * 0.01 / gamma_d, rel=1e-3)
    assert rho[1, 2] == pytest.approx(SQ2 * 0.01 / gamma_g, rel=1e-3)


def test_balanced_cycle_is_blockaded_at_second_order():
    assert signal_peak(3.0, 3.0, 0.0, 0.01) == pytest.approx(3.54e-6, rel=1e-3)
    assert signal_peak(3.0, 3.0, 0.0, 0.001) == pytest.approx(3.54e-8, rel=1e-3)


@pytest.mark.parametrize("delta", [0.0, 0.7, 5.0])
@pytest.mark.parametrize("rate", [3.0, 1.0])
def test_blockade_holds_at_every_detuning(rate, delta):
    # A tenth of the signal gives a hundredth of the peak.
    ratio = signal_peak(rate, rate, delta, 0.01) / signal_peak(rate, rate, delta, 0.001)
    assert ratio == pytest.approx(100.0, rel=1e-2)


@pytest.mark.parametrize("gamma_g, gamma_d", [(3.0, 1.0), (1.0, 3.0)])
def test_unbalanced_cycle_locks_at_first_order(gamma_g, gamma_d):
    assert signal_peak(gamma_g, gamma_d, 0.0, 0.01) == pytest.approx(2.49e-3, rel=1e-3)
    assert signal_peak(gamma_g, gamma_d, 0.0, 0.001) == pytest.approx(2.50e-4, rel=1e-3)


@pytest.mark.parametrize(
    "params, peak",
    [
        (SystemParams(gamma_d_b=100.0, epsilon=0.1), 0.020588),
        (FIG2, 0.021007),
        (BALANCED, 7.37e-4),
        (SystemParams(gamma_g_a=100.0, gamma_g_b=100.0, epsilon=0.1), 3.12e-7),
    ],
    ids=["balanced_a_damped_b", "reversed_cycles", "two_balanced", "two_gain_dominated"],
)
def test_pair_locking(params, peak):
    record = evaluate_point(params)[0]
    assert record.status == "ok"
    assert record.max_s_rel == pytest.approx(peak, rel=1e-3)


def test_balanced_a_locks_as_first_order_predicts():
    # The cycle that no signal locks, with a damping-dominated partner.
    record = evaluate_point(SystemParams(gamma_d_b=100.0, epsilon=0.1))[0]
    assert record.s_rel_fo == pytest.approx(0.021652, rel=1e-4)
