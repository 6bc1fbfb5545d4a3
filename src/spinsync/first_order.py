"""Closed-form first-order treatment of the weak exchange coupling.

Expanding the state as rho_0 + epsilon*mu, the coupling drives exactly two
matrix elements of mu: the coherences mu_plus = <+1,-1|mu|0,0> and
mu_minus = <-1,+1|mu|0,0>.  Each obeys a scalar ODE with constant drive
(+1 and -1 respectively) and a complex decay rate, solved here in closed
form.  These coherences give the synchronization amplitude and a
negativity estimate, the independent cross-checks of the full numerics
that every sweep row and dynamics sample carries.  first_order_stack, the
one entry point, evaluates them for a stack of points at one time or an
array of times; pass STEADY (or omit the time) for the long-time limit.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .liouvillian import SystemParams, as_weights

# 9*pi/128: overlap coefficient turning the coherence sum into the peak of
# the relative-phase distribution.
SREL_COEFF = 9.0 * np.pi / 128.0

STEADY = None

NO_STEADY_STATE = "coherences have no steady state: zero decay rate"


class FirstOrderStack(NamedTuple):
    """The closed forms of a stack; defined is False where a decay rate vanishes.

    There s_rel_peak and negativity are nan (NO_STEADY_STATE).
    """

    lam_plus: np.ndarray
    lam_minus: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    s_rel_peak: np.ndarray
    negativity: np.ndarray
    defined: np.ndarray


# Rates near the float maximum overflow and a vanishing rate divides by
# zero, both silently: the steady solve refuses the first, defined marks
# the second.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def first_order_stack(points: Sequence[SystemParams] | np.ndarray,
                      t: complex | np.ndarray | None = STEADY) -> FirstOrderStack:
    """Decay rates, coherences, S_rel peak and negativity of a stack of points.

    points is a sequence of SystemParams or their (n, 7) weights (see
    liouvillian.as_weights), and t, a real or complex time or an array of
    times, broadcasts against them.  The mu are in units of 1/gamma_d_a.
    The coherences solve mu_plus' = 1 - lam_plus*mu_plus and mu_minus' =
    -1 - lam_minus*mu_minus from 0; t=STEADY gives their limits 1/lam_plus
    and -1/lam_minus.  The peak over phi is SREL_COEFF*epsilon*|mu_plus +
    conj(mu_minus)|, the negativity epsilon*(|mu_plus| + |mu_minus|),
    both nan at every t where a decay rate vanishes.
    """
    gamma_g_a, gamma_d_a, gamma_g_b, gamma_d_b, epsilon, delta = as_weights(points).T[:6]
    lam_plus = 0.5 * (gamma_d_a + gamma_g_b) + 1j * delta
    lam_minus = 0.5 * (gamma_g_a + gamma_d_b) - 1j * delta
    if t is STEADY:
        mu_plus, mu_minus = 1.0 / lam_plus, -1.0 / lam_minus
    else:
        mu_plus = (1.0 - np.exp(-lam_plus * t)) / lam_plus
        mu_minus = -(1.0 - np.exp(-lam_minus * t)) / lam_minus
    defined = (lam_plus != 0) & (lam_minus != 0)
    return FirstOrderStack(
        lam_plus, lam_minus, mu_plus, mu_minus,
        np.where(defined, SREL_COEFF * epsilon * np.abs(mu_plus + np.conj(mu_minus)), np.nan),
        np.where(defined, epsilon * (np.abs(mu_plus) + np.abs(mu_minus)), np.nan),
        defined,
    )
