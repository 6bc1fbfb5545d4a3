"""Spin-1 coherent states, Husimi Q functions, and phase distributions.

The synchronization measure is the distribution of the relative phase
phi = phi_A - phi_B built from the joint Q function: integrate Q over both
polar angles and the common phase phi_B at fixed relative phase, subtract
the uniform background 1/(2 pi).  The integrals are done in closed form.
The coherent amplitudes factor into a polar part r_a(theta) and a phase
e^{i a phi}, so the polar integrals leave the overlaps
integral sin(theta) r_a r_c dtheta, and the phi_B integral keeps only the
entries <a,b|rho|c,d> with c - a = b - d.  What is left is a trigonometric
polynomial in phi with five Fourier modes, |k| <= 2, linear in the 19
entries of the k = 0 sector of rho; the single-spin marginal p_single is
the same polynomial for one site.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import PAIR_DIM, SECTOR_ENTRIES, SINGLE_DIM

HUSIMI_NORM = 3.0 / (4.0 * np.pi)

# The largest output phase grid.  Every profile is evaluated on the whole
# grid, so memory grows with it: a sweep chunk of 128 points peaks at about
# 3 KiB per node, some 190 MB at this cap.
MAX_PHI_OUT = 2**16


@dataclass(frozen=True)
class QuadratureSpec:
    """Output grid of the phase distributions.

    n_phi_out is the size of the uniform output phase grid, from 1 to
    MAX_PHI_OUT.  n_theta and n_phi are node counts for a numerical
    quadrature of the integrals.  The integrals are exact, so these two
    change no output; they are kept and validated so that existing configs
    load and are checked as before.
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
        if self.n_phi_out > MAX_PHI_OUT:
            raise ValueError(f"n_phi_out must be <= {MAX_PHI_OUT}, got {self.n_phi_out}")


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


# _THETA_OVERLAP[a, c] = integral_0^pi sin(theta) r_a(theta) r_c(theta) dtheta
# for the coherent-state amplitudes at phi = 0,
# r = (cos^2, sqrt(2) sin cos, sin^2) of theta / 2.
_EDGE = np.sqrt(2.0) * np.pi / 8.0
_THETA_OVERLAP = np.array([
    [2.0 / 3.0, _EDGE, 1.0 / 3.0],
    [_EDGE, 2.0 / 3.0, _EDGE],
    [1.0 / 3.0, _EDGE, 2.0 / 3.0],
])

# Modes k = -2..2 of the relative-phase profile.
_MODES = np.arange(-2, 3)


def _s_rel_mode_matrix() -> np.ndarray:
    # Row k + 2 maps a sector state x to c_k.  <a,b|rho|c,d> sits at vec
    # index 9 (3a + b) + 3c + d, and after the phi_B integral only the
    # entries with c - a = b - d survive, each carrying e^{i (c - a) phi}.
    # Those are the entries with a + b = c + d: the k = 0 sector, whose
    # 19 columns are kept.
    out = np.zeros((len(_MODES), PAIR_DIM, PAIR_DIM))
    for a, b, c, d in np.ndindex(3, 3, 3, 3):
        if c - a == b - d:
            out[c - a + 2, 3 * a + b, 3 * c + d] = (
                _THETA_OVERLAP[a, c] * _THETA_OVERLAP[b, d])
    out = 2.0 * np.pi * HUSIMI_NORM**2 * out.reshape(len(_MODES), -1)
    return out[:, SECTOR_ENTRIES]


_S_REL_MODES = _s_rel_mode_matrix()


@functools.lru_cache(maxsize=4)
def _output_grid(n_phi_out: int) -> tuple[np.ndarray, np.ndarray]:
    # The uniform output grid and its waves e^{i k phi}, built once per
    # grid size and shared, read-only, by every profile on that grid.
    phis = 2.0 * np.pi * np.arange(n_phi_out) / n_phi_out
    waves = np.exp(1j * np.multiply.outer(phis, _MODES))
    phis.flags.writeable = waves.flags.writeable = False
    return phis, waves


def _on_grid(modes: np.ndarray, n_phi_out: int) -> PhaseDistribution:
    # sum_k modes[..., k] e^{i k phi} - 1/(2 pi) on the uniform output grid;
    # the modes come in conjugate pairs, so the sum is real.
    phis, waves = _output_grid(n_phi_out)
    values = np.real(np.einsum("pk,...k->...p", waves, modes)) - 1.0 / (2.0 * np.pi)
    return PhaseDistribution(phis=phis, values=values)


def s_rel(rho: np.ndarray, quad: QuadratureSpec = QuadratureSpec()) -> PhaseDistribution:
    """Relative-phase distribution offset of a two-spin state.

    For each output phi, the joint Q at angles (phi_A, phi_B) =
    (phi + phi_B, phi_B) integrated over theta_A, theta_B and phi_B, minus
    1/(2 pi): five Fourier modes, a fixed linear map of the 19 k = 0
    entries of rho (the others drop out of the integral), evaluated on the
    n_phi_out grid.  Requires Hermitian input but not positivity, so
    synthetic first-order states can be probed directly.  rho may also be a
    stack (..., 9, 9); the values are then (..., n_phi_out).
    """
    if rho.shape[-2:] != (PAIR_DIM, PAIR_DIM):
        raise ValueError(f"expected a 9x9 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), initial=0.0) > 1e-8:
        raise ValueError("state must be Hermitian")
    flat = rho.reshape(rho.shape[:-2] + (PAIR_DIM**2,))
    return sector_s_rel(flat[..., SECTOR_ENTRIES], quad)


def sector_s_rel(x: np.ndarray, quad: QuadratureSpec = QuadratureSpec()) -> PhaseDistribution:
    """s_rel of sector states x (..., 19); see operators.SECTOR_ENTRIES."""
    # einsum rather than a matmul: every state of a stack gets the bits it
    # gets alone.
    modes = np.einsum("kn,...n->...k", _S_REL_MODES, x)
    return _on_grid(modes, quad.n_phi_out)


def p_single(rho: np.ndarray, quad: QuadratureSpec = QuadratureSpec()) -> PhaseDistribution:
    """Marginal phase distribution offset of a single spin."""
    _check_square(rho, SINGLE_DIM)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("state must be Hermitian")
    # Mode k collects the entries rho[a, a + k], the k-th diagonal.
    weighted = _THETA_OVERLAP * rho
    modes = HUSIMI_NORM * np.array([np.trace(weighted, offset=k) for k in _MODES])
    return _on_grid(modes, quad.n_phi_out)


TIE_RTOL = 1e-12
# The absolute floor of the tie band: a few ulps of the uniform background
# 1/(2 pi), which every value carries before it is subtracted.
TIE_ATOL = 4 * np.spacing(1.0 / (2.0 * np.pi))


def max_s_rel_stack(dist: PhaseDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum of each profile in dist.values (..., n); see max_s_rel."""
    if dist.values.shape[-1] == 0:
        raise ValueError("distribution is empty")
    values = dist.values.reshape(-1, dist.values.shape[-1])
    rows = np.arange(len(values))
    idx = np.argmax(values, axis=-1)
    # The grid ascends, so the first tied node has the smallest phi; a NaN
    # maximum ties with nothing and is returned as it stands.
    band = np.maximum(TIE_RTOL * np.max(np.abs(values), axis=-1), TIE_ATOL)
    floor = values[rows, idx] - band
    tied = values >= floor[:, None]
    idx = np.where(tied.any(axis=-1), tied.argmax(axis=-1), idx)
    shape = dist.values.shape[:-1]
    return dist.phis[idx].reshape(shape), values[rows, idx].reshape(shape)


def max_s_rel(dist: PhaseDistribution) -> tuple[float, float]:
    """Grid maximum of a phase distribution; ties go to the smallest phi.

    Values within TIE_RTOL * max|values|, and at least TIE_ATOL, of the
    maximum count as tied, so peaks that are equal in exact arithmetic,
    such as the mirror pair phi and 2 pi - phi of a symmetric profile, do
    not hinge on roundoff; nor does the phase of a profile that is flat in
    exact arithmetic, which is 0.
    """
    phi, peak = max_s_rel_stack(dist)
    return float(phi), float(peak)
