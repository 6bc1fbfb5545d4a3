"""Spin-1 coherent states, Husimi Q functions, and phase distributions.

The synchronization measure is the distribution of the relative phase
phi = phi_A - phi_B built from the joint Q function: integrate Q over both
polar angles and the common phase phi_B at fixed relative phase, subtract
the uniform background 1/(2 pi).  All integrals are deterministic
quadratures: Gauss-Legendre in each theta (the integrands are trigonometric
polynomials of degree <= 3, converged to machine precision well below the
32-node default) and a uniform rule in phi_B (Fourier modes up to |k| = 4,
exact for >= 8 nodes).

The quadrature is evaluated in full, over every (theta_A, theta_B, phi_B)
node; the implementation only reorders the summation by grouping the
node-independent factors per site, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import PAIR_DIM, SINGLE_DIM

HUSIMI_NORM = 3.0 / (4.0 * np.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the phase-space integrals.

    n_theta: Gauss-Legendre nodes per polar axis; n_phi: uniform nodes for
    the integrated common phase; n_phi_out: size of the output phase grid.
    """

    n_theta: int = 32
    n_phi: int = 32
    n_phi_out: int = 64

    def __post_init__(self):
        if self.n_theta < 8:
            raise ValueError("n_theta must be >= 8 to resolve the integrands")
        if self.n_phi < 8:
            raise ValueError("n_phi must be >= 8 for exactness")
        if self.n_phi_out < 1:
            raise ValueError("n_phi_out must be >= 1")


@dataclass(frozen=True)
class PhaseDistribution:
    """Density offset values on a uniform phase grid over [0, 2 pi).

    values has the grid as its last axis, after any stack axes.
    """

    phis: np.ndarray
    values: np.ndarray


def coherent_state(theta: float, phi: float) -> np.ndarray:
    """Amplitudes of the spin-1 coherent state on the (m=+1, 0, -1) basis."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * np.pi:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    return np.array(
        [c * c, np.sqrt(2.0) * np.exp(1j * phi) * s * c, np.exp(2j * phi) * s * s]
    )


def _check_square(rho: np.ndarray, dim: int) -> None:
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")


def husimi_single(rho: np.ndarray, theta: float, phi: float) -> float:
    """Q(theta, phi) = (3/4pi) <theta,phi|rho|theta,phi> for one spin."""
    _check_square(rho, SINGLE_DIM)
    amp = coherent_state(theta, phi)
    return HUSIMI_NORM * float(np.real(amp.conj() @ rho @ amp))


def husimi_joint(
    rho: np.ndarray, theta_a: float, theta_b: float, phi_a: float, phi_b: float
) -> float:
    """Joint Q function (3/4pi)^2 <a| x <b| rho |a> x |b> for the pair."""
    _check_square(rho, PAIR_DIM)
    amp = np.kron(coherent_state(theta_a, phi_a), coherent_state(theta_b, phi_b))
    return HUSIMI_NORM**2 * float(np.real(amp.conj() @ rho @ amp))


# Basis index k carries the phase factor e^{i k phi} in coherent_state.
_PHASE_ORDER = np.arange(SINGLE_DIM)


def _phase_factors(phis: np.ndarray) -> np.ndarray:
    # out[p, a, c] = exp(i (c - a) phi_p): the phase carried by
    # conj(amp_a) amp_c of a coherent state at phi_p.
    k = _PHASE_ORDER[None, :] - _PHASE_ORDER[:, None]
    return np.exp(1j * np.multiply.outer(phis, k))


@lru_cache(maxsize=8)
def _quadrature_tables(quad: QuadratureSpec):
    """State-independent tables for the phase-space integrals.

    theta_overlap[a, c] = integral sin(theta) r_a(theta) r_c(theta) dtheta
    via Gauss-Legendre, where r are the coherent amplitudes at phi = 0;
    common_phase[a, c, b, d] = uniform-rule sum over phi_B of the combined
    A and B phase factors, including the 2 pi / n_phi weights.
    """
    x, w = np.polynomial.legendre.leggauss(quad.n_theta)
    thetas = 0.5 * np.pi * (x + 1.0)
    weights = 0.5 * np.pi * w * np.sin(thetas)
    half = 0.5 * thetas
    c, s = np.cos(half), np.sin(half)
    radial = np.stack([c * c, np.sqrt(2.0) * s * c, s * s], axis=1)
    theta_overlap = np.einsum("t,ta,tc->ac", weights, radial, radial)

    phi_nodes = 2.0 * np.pi * np.arange(quad.n_phi) / quad.n_phi
    node_phase = _phase_factors(phi_nodes)
    common_phase = (2.0 * np.pi / quad.n_phi) * np.einsum(
        "jac,jbd->acbd", node_phase, node_phase
    )

    out_phis = 2.0 * np.pi * np.arange(quad.n_phi_out) / quad.n_phi_out
    out_phase = _phase_factors(out_phis)
    return theta_overlap, common_phase, out_phis, out_phase


def s_rel(rho: np.ndarray, quad: QuadratureSpec = QuadratureSpec()) -> PhaseDistribution:
    """Relative-phase distribution offset of a two-spin state.

    For each output phi, integrates the joint Q at angles
    (phi_A, phi_B) = (phi + phi_B, phi_B) over theta_A, theta_B, phi_B and
    subtracts 1/(2 pi).  Requires Hermitian input but not positivity, so
    synthetic first-order states can be probed directly.  rho may also be a
    stack (..., 9, 9); the values are then (..., n_phi_out).
    """
    if rho.shape[-2:] != (PAIR_DIM, PAIR_DIM):
        raise ValueError(f"expected a 9x9 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), initial=0.0) > 1e-8:
        raise ValueError("state must be Hermitian")
    theta_overlap, common_phase, out_phis, out_phase = _quadrature_tables(quad)

    r4 = rho.reshape(rho.shape[:-2] + (SINGLE_DIM,) * 4)
    # Sum theta_A, theta_B, phi_B node contributions for each output phi; the
    # A-side factor splits as e^{i(c-a)(phi + phi_B)}, handled by out_phase.
    site_summed = np.einsum("ac,bd,acbd,...abcd->...ac", theta_overlap,
                            theta_overlap, common_phase, r4)
    values = HUSIMI_NORM**2 * np.real(
        np.einsum("pac,...ac->...p", out_phase, site_summed)
    ) - 1.0 / (2.0 * np.pi)
    return PhaseDistribution(phis=out_phis, values=values)


def p_single(rho: np.ndarray, quad: QuadratureSpec = QuadratureSpec()) -> PhaseDistribution:
    """Marginal phase distribution offset of a single spin."""
    _check_square(rho, SINGLE_DIM)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("state must be Hermitian")
    theta_overlap, _, out_phis, out_phase = _quadrature_tables(quad)
    values = HUSIMI_NORM * np.real(
        np.einsum("pac,ac,ac->p", out_phase, theta_overlap, rho)
    ) - 1.0 / (2.0 * np.pi)
    return PhaseDistribution(phis=out_phis, values=values)


TIE_RTOL = 1e-12


def max_s_rel_stack(dist: PhaseDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum of each profile in dist.values (..., n); see max_s_rel."""
    if dist.values.shape[-1] == 0:
        raise ValueError("distribution is empty")
    values = dist.values.reshape(-1, dist.values.shape[-1])
    rows = np.arange(len(values))
    idx = np.argmax(values, axis=-1)
    # The grid ascends, so the first tied node has the smallest phi; a NaN
    # maximum ties with nothing and is returned as it stands.
    floor = values[rows, idx] - TIE_RTOL * np.max(np.abs(values), axis=-1)
    tied = values >= floor[:, None]
    idx = np.where(tied.any(axis=-1), tied.argmax(axis=-1), idx)
    shape = dist.values.shape[:-1]
    return dist.phis[idx].reshape(shape), values[rows, idx].reshape(shape)


def max_s_rel(dist: PhaseDistribution) -> tuple[float, float]:
    """Grid maximum of a phase distribution; ties go to the smallest phi.

    Values within TIE_RTOL * max|values| of the maximum count as tied, so
    peaks that are equal in exact arithmetic, such as the mirror pair
    phi and 2 pi - phi of a symmetric profile, do not hinge on roundoff.
    """
    phi, peak = max_s_rel_stack(dist)
    return float(phi), float(peak)
