"""Entanglement and correlation measures on two-spin density matrices.

Entropies use the natural logarithm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    InvalidStateError,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)

EIGENVALUE_FLOOR = -1e-8

# Each measure is written once, for a stack of states (..., 9, 9), and the
# single-state functions evaluate it on one state.


def negativity_stack(rhos: np.ndarray, site: str = "A") -> np.ndarray:
    """Negativity of each state of a stack (..., 9, 9)."""
    eig = hermitian_eigenvalues(partial_transpose(rhos, site))
    value = 0.5 * (np.sum(np.abs(eig), axis=-1) - 1.0)
    return np.where(value > 0.0, value, 0.0)


def negativity(rho: np.ndarray, site: str = "A") -> float:
    """Entanglement negativity (sum |eig(rho^T_site)| - 1) / 2, clipped at 0."""
    return float(negativity_stack(rho, site))


def von_neumann_entropy_stack(rhos: np.ndarray) -> np.ndarray:
    """-Tr rho ln rho of each state of a stack (..., n, n), in nats."""
    eig = hermitian_eigenvalues(rhos)
    lowest = eig[..., 0]
    if np.any(lowest < EIGENVALUE_FLOOR):
        raise InvalidStateError(
            f"eigenvalue {np.min(lowest):.3e} below tolerance {EIGENVALUE_FLOOR:.1e}"
        )
    p = np.maximum(eig, 0.0)
    positive = p > 0.0
    terms = (p * np.log(np.where(positive, p, 1.0))).reshape(-1, p.shape[-1])
    # The positive eigenvalues are a suffix of the ascending spectrum.  Each
    # state's terms are summed as a row of their own length, so the rounding
    # of the sum does not depend on how many eigenvalues are zero.
    counts = positive.sum(axis=-1).reshape(-1)
    total = np.empty(len(counts))
    for count in set(counts.tolist()):
        rows = counts == count
        total[rows] = np.sum(terms[rows, p.shape[-1] - count:], axis=-1)
    return -total.reshape(lowest.shape)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr rho ln rho in nats; eigenvalues below -1e-8 are rejected."""
    return float(von_neumann_entropy_stack(rho))


def mutual_information_stack(rhos: np.ndarray) -> np.ndarray:
    """I(A:B) of each state of a stack (..., 9, 9), clipped at 0."""
    total = von_neumann_entropy_stack(rhos)
    s_a, s_b = von_neumann_entropy_stack(
        np.stack([partial_trace(rhos, "A"), partial_trace(rhos, "B")])
    )
    value = s_a + s_b - total
    return np.where(value > 0.0, value, 0.0)


def mutual_information(rho: np.ndarray) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), clipped at 0 against roundoff."""
    return float(mutual_information_stack(rho))


def purity_stack(rhos: np.ndarray) -> np.ndarray:
    """Tr rho^2 of each state of a stack (..., n, n)."""
    return np.trace(rhos @ rhos, axis1=-2, axis2=-1).real


def purity(rho: np.ndarray) -> float:
    """Tr rho^2."""
    return float(purity_stack(rho))


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


def schmidt_stack(
    rhos: np.ndarray, rank_threshold: float = DEFAULT_RANK_THRESHOLD
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients, rank and dominant weight of each state of a stack.

    For rhos of shape (..., 9, 9) returns coefficients (..., 3), descending,
    ranks (...) and the leading eigenvalues (...); see schmidt_analysis.
    """
    if not 0.0 < rank_threshold < 1.0:
        raise ValueError("rank_threshold must lie in (0, 1)")
    eig, vecs = np.linalg.eigh(0.5 * (rhos + np.swapaxes(rhos, -1, -2).conj()))
    dominant = vecs[..., :, -1]
    coeffs = np.linalg.svd(dominant.reshape(dominant.shape[:-1] + (3, 3)),
                           compute_uv=False)
    ranks = np.sum(coeffs > rank_threshold * coeffs[..., :1], axis=-1)
    return coeffs, ranks, eig[..., -1]


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
    coeffs, rank, weight = schmidt_stack(rho, rank_threshold)
    pur = purity(rho)
    return SchmidtAnalysis(
        coefficients=coeffs,
        rank=int(rank),
        dominant_weight=float(weight),
        purity=pur,
        mixed_warning=bool(pur < PURITY_WARNING_THRESHOLD),
    )
