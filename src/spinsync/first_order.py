"""Closed-form first-order treatment of the weak exchange coupling.

Expanding the state as rho_0 + epsilon*mu, the coupling drives exactly two
matrix elements of mu: the coherences mu_plus = <+1,-1|mu|0,0> and
mu_minus = <-1,+1|mu|0,0>.  Each obeys a scalar ODE with constant drive
(+1 and -1 respectively) and a complex decay rate, solved here in closed
form.  These coherences give the synchronization amplitude, a negativity
estimate, and a pure-state approximation of the steady state, all used as
independent cross-checks of the full numerics.  first_order_stack
evaluates them for a stack of points, and the other functions are views
of it.  Pass STEADY (or omit the time) for the long-time limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .liouvillian import SystemParams, as_weights
from .operators import PAIR_DIM, joint_index

# 9*pi/128: overlap coefficient turning the coherence sum into the peak of
# the relative-phase distribution.
SREL_COEFF = 9.0 * np.pi / 128.0

STEADY = None

NO_STEADY_STATE = "coherences have no steady state: zero decay rate"


@dataclass(frozen=True)
class CoherencePair:
    """Driven first-order coherences, in units of inverse gamma_d_a."""

    mu_plus: complex
    mu_minus: complex


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
def first_order_stack(weights: np.ndarray, t: complex | np.ndarray | None = STEADY
                      ) -> FirstOrderStack:
    """Decay rates, coherences, S_rel peak and negativity of (n, 7) weights.

    weights holds one point a row in SystemParams field order, and t, a
    real or complex time or an array of times, broadcasts against them.
    The coherences solve mu_plus' = 1 - lam_plus*mu_plus and mu_minus' =
    -1 - lam_minus*mu_minus from 0; t=STEADY gives their limits 1/lam_plus
    and -1/lam_minus.  The peak over phi is SREL_COEFF*epsilon*|mu_plus +
    conj(mu_minus)|, the negativity epsilon*(|mu_plus| + |mu_minus|),
    both nan at every t where a decay rate vanishes.
    """
    gamma_g_a, gamma_d_a, gamma_g_b, gamma_d_b, epsilon, delta = weights.T[:6]
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


def _one_point(params: SystemParams, t: complex | None) -> FirstOrderStack:
    stack = first_order_stack(as_weights([params]), t)
    if not stack.defined[0]:
        raise ValueError(NO_STEADY_STATE)
    return stack


def decay_rates(params: SystemParams) -> tuple[complex, complex]:
    """Complex decay rates of the two driven coherences."""
    stack = first_order_stack(as_weights([params]))
    return complex(stack.lam_plus[0]), complex(stack.lam_minus[0])


def coherences(params: SystemParams, t: complex | None = STEADY) -> CoherencePair:
    """The driven coherences at time t; a vanishing decay rate is refused at every t."""
    stack = _one_point(params, t)
    return CoherencePair(complex(stack.mu_plus[0]), complex(stack.mu_minus[0]))


def s_rel_first_order(
    params: SystemParams, phi: float, t: float | None = STEADY
) -> float:
    """First-order relative-phase distribution value at phi."""
    mu = coherences(params, t)
    amplitude = mu.mu_plus + np.conj(mu.mu_minus)
    return SREL_COEFF * params.epsilon * np.real(np.exp(1j * phi) * amplitude)


def s_rel_peak_first_order(params: SystemParams, t: float | None = STEADY) -> float:
    """First-order peak over phi, SREL_COEFF*epsilon*|mu_plus + conj(mu_minus)|."""
    return float(_one_point(params, t).s_rel_peak[0])


def negativity_first_order(params: SystemParams, t: float | None = STEADY) -> float:
    """First-order negativity epsilon*(|mu_plus| + |mu_minus|)."""
    return float(_one_point(params, t).negativity[0])


def first_order_state(params: SystemParams, t: float | None = STEADY) -> np.ndarray:
    """Normalized pure-state approximation: |0,0> plus the driven coherences."""
    mu = coherences(params, t)
    psi = np.zeros(PAIR_DIM, dtype=complex)
    psi[joint_index(0, 0)] = 1.0
    psi[joint_index(1, -1)] = params.epsilon * mu.mu_plus
    psi[joint_index(-1, 1)] = params.epsilon * mu.mu_minus
    return psi / np.linalg.norm(psi)
