"""Numerical quadrature of the phase-space integrals: the oracle for the closed form.

Gauss-Legendre in each polar angle (the integrands are trigonometric
polynomials of degree <= 3, converged to machine precision well below 32
nodes) and a uniform rule in the common phase phi_B (Fourier modes up to
|k| = 4, exact for >= 8 nodes).  The quadrature is evaluated in full, over
every (theta_A, theta_B, phi_B) node; the summation is only reordered by
grouping the node-independent factors per site, which is exact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from spinsync.phasespace import HUSIMI_NORM, QuadratureSpec


def _phase_factors(phis: np.ndarray) -> np.ndarray:
    # out[p, a, c] = exp(i (c - a) phi_p): the phase carried by
    # conj(amp_a) amp_c of a coherent state at phi_p.
    order = np.arange(3)
    k = order[None, :] - order[:, None]
    return np.exp(1j * np.multiply.outer(phis, k))


@lru_cache(maxsize=8)
def quadrature_tables(quad: QuadratureSpec):
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


def quadrature_s_rel(rho: np.ndarray, quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(phis, values) of S_rel by quadrature; rho is 9x9 or a stack of them."""
    theta_overlap, common_phase, out_phis, out_phase = quadrature_tables(quad)
    r4 = rho.reshape(rho.shape[:-2] + (3,) * 4)
    # Sum theta_A, theta_B, phi_B node contributions for each output phi; the
    # A-side factor splits as e^{i(c-a)(phi + phi_B)}, handled by out_phase.
    site_summed = np.einsum("ac,bd,acbd,...abcd->...ac", theta_overlap,
                            theta_overlap, common_phase, r4)
    values = HUSIMI_NORM**2 * np.real(
        np.einsum("pac,...ac->...p", out_phase, site_summed)
    ) - 1.0 / (2.0 * np.pi)
    return out_phis, values


def quadrature_p_single(rho: np.ndarray, quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(phis, values) of the single-spin marginal by quadrature; rho is 3x3."""
    theta_overlap, _, out_phis, out_phase = quadrature_tables(quad)
    values = HUSIMI_NORM * np.real(
        np.einsum("pac,ac,ac->p", out_phase, theta_overlap, rho)
    ) - 1.0 / (2.0 * np.pi)
    return out_phis, values
