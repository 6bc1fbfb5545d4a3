"""Spin-1 operator algebra and density-matrix utilities for a pair of spins.

Basis convention: single-spin index 0, 1, 2 <-> m = +1, 0, -1, so Sz is
diagonal with descending entries.  Two-spin product states |m_A, m_B> live
at flat index 3*idx(m_A) + idx(m_B); |0,0> sits at index 4.  All matrices
are dense complex ndarrays in row-major layout.
"""

from __future__ import annotations

import numpy as np

M_VALUES = (1, 0, -1)

SINGLE_DIM = 3
PAIR_DIM = 9


class InvalidStateError(ValueError):
    """Input matrix violates a density-matrix invariant."""


class LinearSolveError(RuntimeError):
    """The residual of a linear solve exceeded the accepted tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def index_of_m(m: int) -> int:
    """Single-spin basis index of magnetic quantum number m in (+1, 0, -1)."""
    if m not in M_VALUES:
        raise ValueError(f"m must be one of {M_VALUES}, got {m}")
    return 1 - m


def joint_index(m_a: int, m_b: int) -> int:
    """Flat two-spin index of |m_A, m_B>."""
    return SINGLE_DIM * index_of_m(m_a) + index_of_m(m_b)


def spin1_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sz, Sp, Sm) for a single spin 1, hbar = 1."""
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    sp = np.zeros((3, 3), dtype=complex)
    sp[0, 1] = sp[1, 2] = np.sqrt(2.0)
    sm = sp.conj().T
    return sz, sp, sm


def embed(op: np.ndarray, site: str) -> np.ndarray:
    """Lift a 3x3 single-spin operator to the 9x9 pair space.

    site "A" gives op (x) I, site "B" gives I (x) op.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (3, 3):
        raise ValueError(f"expected a 3x3 operator, got shape {op.shape}")
    eye = np.eye(3, dtype=complex)
    if site == "A":
        return np.kron(op, eye)
    if site == "B":
        return np.kron(eye, op)
    raise ValueError(f"site must be 'A' or 'B', got {site!r}")


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[O]rho = O rho O^dag - {O^dag O, rho}/2."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if op.shape != rho.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dimension mismatch: op {op.shape}, rho {rho.shape}")
    odo = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced 3x3 state of the kept spin ('A' or 'B').

    rho may also be a stack (..., 9, 9); the result is then (..., 3, 3).
    """
    rho = np.asarray(rho, dtype=complex)
    r = _split_pair(rho)
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    if keep == "B":
        return np.einsum("...abad->...bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho: np.ndarray, site: str = "A") -> np.ndarray:
    """Transpose the indices of one spin: ((a,b),(a',b')) -> ((a',b),(a,b')).

    rho may also be a stack (..., 9, 9), transposed state by state.
    """
    rho = np.asarray(rho, dtype=complex)
    r = _split_pair(rho)
    if site == "A":
        return np.swapaxes(r, -4, -2).reshape(rho.shape)
    if site == "B":
        return np.swapaxes(r, -3, -1).reshape(rho.shape)
    raise ValueError(f"site must be 'A' or 'B', got {site!r}")


def _split_pair(rho: np.ndarray) -> np.ndarray:
    # (..., 9, 9) -> (..., a, b, a', b') with a, a' on spin A.
    if rho.shape[-2:] != (PAIR_DIM, PAIR_DIM):
        raise ValueError(f"expected a 9x9 matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (SINGLE_DIM,) * 4)


def hermitian_eigenvalues(matrix: np.ndarray, herm_tol: float = 1e-8) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    matrix may also be a stack (..., n, n); every member must be Hermitian.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dev = np.max(np.abs(matrix - np.swapaxes(matrix, -1, -2).conj()), initial=0.0)
    if dev > herm_tol:
        raise ValueError(f"matrix is not Hermitian: max|M - M^dag| = {dev:.3e}")
    return np.linalg.eigvalsh(matrix)


def density_matrix_errors(
    rhos: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    psd_tol: float = 1e-10,
) -> list[InvalidStateError | None]:
    """The first violated density-matrix invariant of each matrix in a stack.

    rhos is (m, n, n); entry i is None when rhos[i] is Hermitian, unit-trace
    and PSD, else the InvalidStateError that validate_density_matrix raises.
    """
    dev = np.max(np.abs(rhos - np.swapaxes(rhos, -1, -2).conj()), axis=(-2, -1))
    traces = np.trace(rhos, axis1=-2, axis2=-1)
    lowest = np.linalg.eigvalsh(rhos)[:, 0]
    errors: list[InvalidStateError | None] = []
    for d, tr, lo in zip(dev, traces, lowest):
        if d > herm_tol:
            errors.append(InvalidStateError(
                f"not Hermitian: max|rho - rho^dag| = {d:.3e}"))
        elif abs(tr - 1.0) > trace_tol:
            errors.append(InvalidStateError(
                f"trace {tr} deviates from 1 by {abs(tr - 1.0):.3e}"))
        elif lo < -psd_tol:
            errors.append(InvalidStateError(
                f"not positive semidefinite: min eigenvalue {lo:.3e}"))
        else:
            errors.append(None)
    return errors


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    psd_tol: float = 1e-10,
) -> None:
    """Raise InvalidStateError unless rho is Hermitian, unit-trace, and PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"not a square matrix: shape {rho.shape}")
    error = density_matrix_errors(rho[None], herm_tol, trace_tol, psd_tol)[0]
    if error is not None:
        raise error
