"""Closed-form first-order treatment of the weak exchange coupling.

Expanding the state as rho_0 + epsilon*mu, the coupling drives exactly two
matrix elements of mu: the coherences mu_plus = <+1,-1|mu|0,0> and
mu_minus = <-1,+1|mu|0,0>.  Each obeys a scalar ODE with constant drive
(+1 and -1 respectively) and a complex decay rate, solved here in closed
form.  These coherences give the synchronization amplitude, a negativity
estimate, and a pure-state approximation of the steady state, all used as
independent cross-checks of the full numerics.

Pass STEADY (or omit the time) for the long-time limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liouvillian import SystemParams
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


def decay_rates(params: SystemParams) -> tuple[complex, complex]:
    """Complex decay rates of the two driven coherences."""
    lam_plus = 0.5 * (params.gamma_d_a + params.gamma_g_b) + 1j * params.delta
    lam_minus = 0.5 * (params.gamma_g_a + params.gamma_d_b) - 1j * params.delta
    return lam_plus, lam_minus


def coherences(params: SystemParams, t: float | None = STEADY) -> CoherencePair:
    """Solve mu_plus' = 1 - lam_plus*mu_plus, mu_minus' = -1 - lam_minus*mu_minus.

    Both start from 0; t=STEADY returns the long-time limits 1/lam_plus and
    -1/lam_minus.  A vanishing decay rate leaves no steady state and is
    rejected outright.
    """
    lam_plus, lam_minus = decay_rates(params)
    if lam_plus == 0 or lam_minus == 0:
        raise ValueError(NO_STEADY_STATE)
    if t is STEADY:
        return CoherencePair(mu_plus=1.0 / lam_plus, mu_minus=-1.0 / lam_minus)
    return CoherencePair(
        mu_plus=(1.0 - np.exp(-lam_plus * t)) / lam_plus,
        mu_minus=-(1.0 - np.exp(-lam_minus * t)) / lam_minus,
    )


def s_rel_first_order(
    params: SystemParams, phi: float, t: float | None = STEADY
) -> float:
    """First-order relative-phase distribution value at phi."""
    mu = coherences(params, t)
    amplitude = mu.mu_plus + np.conj(mu.mu_minus)
    return SREL_COEFF * params.epsilon * np.real(np.exp(1j * phi) * amplitude)


def s_rel_peak_first_order(params: SystemParams, t: float | None = STEADY) -> float:
    """First-order peak over phi, SREL_COEFF*epsilon*|mu_plus + conj(mu_minus)|."""
    mu = coherences(params, t)
    return float(SREL_COEFF * params.epsilon * abs(mu.mu_plus + np.conj(mu.mu_minus)))


def negativity_first_order(params: SystemParams, t: float | None = STEADY) -> float:
    """First-order negativity epsilon*(|mu_plus| + |mu_minus|)."""
    mu = coherences(params, t)
    return params.epsilon * (abs(mu.mu_plus) + abs(mu.mu_minus))


def _divide(numerator: float, re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # numerator / (re + i im) elementwise, by Smith's algorithm written as
    # Python's complex division writes it, so each value has the bits that
    # coherences gives it.  Both branches are computed and one is kept.
    by_re = np.abs(re) >= np.abs(im)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio_re, ratio_im = im / re, re / im
        denom_re, denom_im = re + im * ratio_re, re * ratio_im + im
        out_re = np.where(by_re, (numerator + 0.0 * ratio_re) / denom_re,
                          (numerator * ratio_im + 0.0) / denom_im)
        out_im = np.where(by_re, (0.0 - numerator * ratio_re) / denom_re,
                          (0.0 * ratio_im - numerator) / denom_im)
    return out_re, out_im


def peak_and_negativity_first_order(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady s_rel_peak_first_order and negativity_first_order of a stack.

    weights is (n, 7), one row per point in SystemParams field order.
    Returns the two values (n, 2), bitwise those of the single-point
    functions, and a mask (n) of the points where they are defined; where a
    decay rate vanishes (NO_STEADY_STATE) the values are nan.
    """
    gamma_g_a, gamma_d_a, gamma_g_b, gamma_d_b, epsilon, delta = weights.T[:6]
    # decay_rates, with lam_minus's imaginary part 0 - delta as Python
    # forms it.
    plus = 0.5 * (gamma_d_a + gamma_g_b), delta
    minus = 0.5 * (gamma_g_a + gamma_d_b), 0.0 - delta
    defined = ((plus[0] != 0.0) | (plus[1] != 0.0)) & ((minus[0] != 0.0) | (minus[1] != 0.0))
    mu_plus, mu_minus = _divide(1.0, *plus), _divide(-1.0, *minus)
    values = np.stack([
        SREL_COEFF * epsilon * np.hypot(mu_plus[0] + mu_minus[0], mu_plus[1] - mu_minus[1]),
        epsilon * (np.hypot(*mu_plus) + np.hypot(*mu_minus)),
    ], axis=-1)
    values[~defined] = np.nan
    return values, defined


def first_order_state(params: SystemParams, t: float | None = STEADY) -> np.ndarray:
    """Normalized pure-state approximation: |0,0> plus the driven coherences."""
    mu = coherences(params, t)
    psi = np.zeros(PAIR_DIM, dtype=complex)
    psi[joint_index(0, 0)] = 1.0
    psi[joint_index(1, -1)] = params.epsilon * mu.mu_plus
    psi[joint_index(-1, 1)] = params.epsilon * mu.mu_minus
    return psi / np.linalg.norm(psi)
