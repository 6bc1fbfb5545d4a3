"""Entanglement and correlation measures on two-spin density matrices.

Entropies use the natural logarithm throughout.

The single-state functions accept any 9x9 state.  The sector_* functions
measure stacks of k = 0 sector states x (n, 19), as the steady-state
engine returns them, on the 3x3 blocks of operators.M_BLOCKS and
operators.PARTIAL_TRANSPOSE_BLOCKS, with no 9x9 eigensolver:
- the M blocks' spectrum is the state's, so one stacked eigh of them gives
  S(AB) and the dominant eigenvector, which lies in one block;
- the partial-transpose blocks' spectrum gives the negativity;
- rho_A and rho_B are diagonal, so their entropies come from the nine
  populations, and the purity is sum |x|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    PARTIAL_TRANSPOSE_BLOCKS,
    InvalidStateError,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    sector_populations,
    state_blocks,
)

EIGENVALUE_FLOOR = -1e-8


def negativity(rho: np.ndarray, site: str = "A") -> float:
    """Entanglement negativity (sum |eig(rho^T_site)| - 1) / 2, clipped at 0."""
    eig = hermitian_eigenvalues(partial_transpose(rho, site))
    return max(0.0, 0.5 * (float(np.sum(np.abs(eig))) - 1.0))


def _entropy_terms(p: np.ndarray) -> np.ndarray:
    # -p ln p of probabilities clipped at 0, with 0 ln 0 = 0.
    p = np.maximum(p, 0.0)
    return -p * np.log(np.where(p > 0.0, p, 1.0))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr rho ln rho in nats; eigenvalues below -1e-8 are rejected."""
    eig = hermitian_eigenvalues(rho)
    if eig[0] < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"eigenvalue {eig[0]:.3e} below tolerance {EIGENVALUE_FLOOR:.1e}"
        )
    return float(np.sum(_entropy_terms(eig)))


def mutual_information(rho: np.ndarray) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), clipped at 0 against roundoff."""
    value = (von_neumann_entropy(partial_trace(rho, "A"))
             + von_neumann_entropy(partial_trace(rho, "B"))
             - von_neumann_entropy(rho))
    return max(0.0, value)


def purity(rho: np.ndarray) -> float:
    """Tr rho^2."""
    return float(np.trace(rho @ rho).real)


@dataclass(frozen=True)
class SchmidtAnalysis:
    """Schmidt structure of the dominant eigenvector of a two-spin state."""

    coefficients: np.ndarray
    rank: int
    dominant_weight: float
    purity: float
    mixed_warning: bool


PURITY_WARNING_THRESHOLD = 0.9
DEFAULT_RANK_THRESHOLD = 1e-3


def _check_rank_threshold(rank_threshold: float) -> None:
    if not 0.0 < rank_threshold < 1.0:
        raise ValueError("rank_threshold must lie in (0, 1)")


def schmidt_analysis(
    rho: np.ndarray, rank_threshold: float = DEFAULT_RANK_THRESHOLD
) -> SchmidtAnalysis:
    """Schmidt decomposition of the leading eigenvector of rho.

    The eigenvector is reshaped to a 3x3 amplitude matrix (row index = spin A)
    and singular values give the Schmidt coefficients, descending.  The rank
    counts coefficients strictly above rank_threshold times the largest one.
    A mixed_warning flags states whose purity is below 0.9, where a
    single-vector analysis stops being representative.
    """
    _check_rank_threshold(rank_threshold)
    eig, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    coeffs = np.linalg.svd(vecs[:, -1].reshape(3, 3), compute_uv=False)
    pur = purity(rho)
    return SchmidtAnalysis(
        coefficients=coeffs,
        rank=int(np.sum(coeffs > rank_threshold * coeffs[0])),
        dominant_weight=float(eig[-1]),
        purity=pur,
        mixed_warning=bool(pur < PURITY_WARNING_THRESHOLD),
    )


def _block_sum(values: np.ndarray) -> np.ndarray:
    # Sum of each state's (5, 3) block values, as one contiguous row: numpy
    # adds a row in an order that does not depend on the number of rows,
    # which a sum over two axes does not promise.
    return np.sum(values.reshape(len(values), 15), axis=-1)


def sector_negativity(x: np.ndarray) -> np.ndarray:
    """Negativity of each sector state x (n, 19), from the partial-transpose blocks."""
    eig = np.linalg.eigvalsh(state_blocks(x, PARTIAL_TRANSPOSE_BLOCKS))
    value = 0.5 * (_block_sum(np.abs(eig)) - 1.0)
    return np.where(value > 0.0, value, 0.0)


def sector_mutual_information(x: np.ndarray, block_eigenvalues: np.ndarray) -> np.ndarray:
    """I(A:B) of each sector state x (n, 19), clipped at 0.

    block_eigenvalues (n, 5, 3) are the eigenvalues of the state's M
    blocks; their zero padding adds nothing to S(AB).
    """
    populations = sector_populations(x)
    local = _entropy_terms(np.concatenate(
        [populations.sum(axis=-1), populations.sum(axis=-2)], axis=-1))
    total = _entropy_terms(block_eigenvalues)
    value = np.sum(local, axis=-1) - _block_sum(total)
    return np.where(value > 0.0, value, 0.0)


def sector_purity(x: np.ndarray) -> np.ndarray:
    """Tr rho^2 = sum |x|^2 of each sector state x (n, 19)."""
    return np.sum(x.real**2 + x.imag**2, axis=-1)


def sector_schmidt(
    block_eigenvalues: np.ndarray,
    block_eigenvectors: np.ndarray,
    rank_threshold: float = DEFAULT_RANK_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients, rank and dominant weight of sector states.

    From the eigh of each state's M blocks, eigenvalues (n, 5, 3) and
    eigenvectors (n, 5, 3, 3), returns coefficients (n, 3), descending,
    ranks (n) and the leading eigenvalues (n); see schmidt_analysis.  The
    dominant eigenvector lies in one M block, so its amplitude matrix holds
    at most one entry per row and per column, and its singular values are
    the absolute values of its components.  An eigenvalue tied exactly
    across blocks goes to the first of them in the order M = 2, 1, 0, -1, -2.
    """
    _check_rank_threshold(rank_threshold)
    tops = block_eigenvalues[..., -1]
    block = np.argmax(tops, axis=-1)
    rows = np.arange(len(block))
    coeffs = -np.sort(-np.abs(block_eigenvectors[rows, block, :, -1]), axis=-1)
    ranks = np.sum(coeffs > rank_threshold * coeffs[:, :1], axis=-1)
    return coeffs, ranks, tops[rows, block]
