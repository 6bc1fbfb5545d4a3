"""Entanglement and correlation measures on two-spin density matrices.

Entropies use the natural logarithm throughout.

The single-state functions accept any 9x9 state.  The sector_* functions
measure stacks of k = 0 sector states x (n, 19), as the steady-state
engine returns them, on the blocks of operators.M_BLOCKS and
operators.PARTIAL_TRANSPOSE_BLOCKS, of sizes 1, 2, 3, 2, 1, with no 9x9
eigensolver; only the 3x3 blocks go to LAPACK (see
operators.block_eigenvalues):
- the nine eigenvalues of the M blocks are the state's spectrum, which
  gives S(AB), and the dominant eigenvector lies in one block;
- the nine eigenvalues of the partial-transpose blocks give the negativity;
- rho_A and rho_B are diagonal, so their entropies come from the nine
  populations, and the purity is sum |x|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    BLOCK_TOPS,
    PARTIAL_TRANSPOSE_BLOCKS,
    InvalidStateError,
    block_eigenvalues,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    sector_populations,
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


def sector_negativity(x: np.ndarray) -> np.ndarray:
    """Negativity of each sector state x (n, 19), from the partial-transpose blocks."""
    eigenvalues = block_eigenvalues(x, PARTIAL_TRANSPOSE_BLOCKS)
    value = 0.5 * (np.abs(eigenvalues).sum(axis=-1) - 1.0)
    return np.where(value > 0.0, value, 0.0)


def sector_mutual_information(x: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """I(A:B) of each sector state x (n, 19), clipped at 0.

    eigenvalues (n, 9) are the state's spectrum, from its M blocks (see
    operators.block_eigenvalues).
    """
    populations = sector_populations(x)
    local = _entropy_terms(np.concatenate(
        [populations.sum(axis=-1), populations.sum(axis=-2)], axis=-1))
    value = local.sum(axis=-1) - _entropy_terms(eigenvalues).sum(axis=-1)
    return np.where(value > 0.0, value, 0.0)


def sector_purity(x: np.ndarray) -> np.ndarray:
    """Tr rho^2 = sum |x|^2 of each sector state x (n, 19)."""
    return np.sum(x.real**2 + x.imag**2, axis=-1)


def sector_schmidt(
    eigenvalues: np.ndarray,
    pair_ratios: np.ndarray,
    center_vectors: np.ndarray,
    rank_threshold: float = DEFAULT_RANK_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients, rank and dominant weight of sector states.

    From operators.m_block_eigensystem of each state, its spectrum (n, 9),
    the Schmidt ratios (n, 2) of its 2x2 blocks and the eigenvectors (n, 3,
    3) of its 3x3 block, returns coefficients (n, 3), descending, ranks (n)
    and the leading eigenvalues (n); see schmidt_analysis.  The dominant
    eigenvector lies in one M block, so its amplitude matrix holds at most
    one entry per row and per column, and its singular values are the
    absolute values of its components: (1, 0, 0) for a 1x1 block, (1, t,
    0) / sqrt(1 + t^2) for a 2x2 block of ratio t, and the sorted moduli of
    the eigenvector for the 3x3 block.  An eigenvalue tied exactly across
    blocks goes to the first of them in the order M = 2, 1, 0, -1, -2.
    """
    _check_rank_threshold(rank_threshold)
    tops = eigenvalues[:, BLOCK_TOPS]
    block = tops.argmax(axis=-1)
    rows = np.arange(len(block))
    # Each block's candidate, in the order of BLOCK_TOPS.
    norm = 1.0 / np.sqrt(1.0 + pair_ratios**2)
    candidates = np.zeros((len(block), 5, 3))
    candidates[:, ::4, 0] = 1.0
    candidates[:, 1::2, 0] = norm
    candidates[:, 1::2, 1] = pair_ratios * norm
    candidates[:, 2] = np.sort(np.abs(center_vectors[:, :, -1]), axis=-1)[:, ::-1]
    coeffs = candidates[rows, block]
    ranks = (coeffs > rank_threshold * coeffs[:, :1]).sum(axis=-1)
    return coeffs, ranks, tops[rows, block]
