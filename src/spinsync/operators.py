"""Spin-1 operator algebra and density-matrix utilities for a pair of spins.

Basis convention: single-spin index 0, 1, 2 <-> m = +1, 0, -1, so Sz is
diagonal with descending entries.  Two-spin product states |m_A, m_B> live
at flat index 3*idx(m_A) + idx(m_B); |0,0> sits at index 4.  All matrices
are dense complex ndarrays in row-major layout.

A state that commutes with Sz_A + Sz_B, as every steady state and every
state reached from |0,0> does, is held by its 19 k = 0 entries (see
SECTOR_ENTRIES).  Such a state and its partial transpose are then
block-diagonal, with blocks of sizes 1, 2, 3, 2, 1 made of those entries
(M_BLOCKS, PARTIAL_TRANSPOSE_BLOCKS).
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


# The k = 0 sector of a pair state: the 19 entries rho_rc whose row and
# column carry the same total excitation M = m_A + m_B.  Every state the
# master equation reaches from |0,0><0,0| or relaxes to lies in it.
_M_TOTAL = np.array([m_a + m_b for m_a in M_VALUES for m_b in M_VALUES])
_M_DIFFERENCE = np.array([m_a - m_b for m_a in M_VALUES for m_b in M_VALUES])

SECTOR_ENTRIES = np.flatnonzero(np.equal.outer(_M_TOTAL, _M_TOTAL).reshape(-1))
"""Vec indices 9 r + c of the 19 k = 0 entries, ascending.

A sector state x of shape (..., 19) holds rho.reshape(..., 81)[...,
SECTOR_ENTRIES]; every other entry of rho is zero.
"""

_POSITION = np.full(PAIR_DIM**2, len(SECTOR_ENTRIES))
_POSITION[SECTOR_ENTRIES] = np.arange(len(SECTOR_ENTRIES))

# Positions in x of the diagonal rho_jj, and of rho_cr for each rho_rc.
_SECTOR_DIAGONAL = _POSITION[(PAIR_DIM + 1) * np.arange(PAIR_DIM)]
_SECTOR_ADJOINT = _POSITION[PAIR_DIM * (SECTOR_ENTRIES % PAIR_DIM) + SECTOR_ENTRIES // PAIR_DIM]


def _block_table(labels: np.ndarray, vec_index) -> np.ndarray:
    # (5, 3, 3) positions in x of the blocks of the joint indices sharing a
    # label, labels 2, 1, 0, -1, -2 in turn; blocks of size 1 and 2 are
    # padded with position 19, which state_blocks fills with zero.
    table = np.full((5, SINGLE_DIM, SINGLE_DIM), len(SECTOR_ENTRIES))
    for block, label in enumerate(range(2, -3, -1)):
        members = np.flatnonzero(labels == label)
        for i, row in enumerate(members):
            for j, col in enumerate(members):
                table[block, i, j] = _POSITION[vec_index(row, col)]
    return table


M_BLOCKS = _block_table(_M_TOTAL, lambda row, col: PAIR_DIM * row + col)
"""The blocks of rho: it is block-diagonal in M, sizes 1, 2, 3, 2, 1."""

PARTIAL_TRANSPOSE_BLOCKS = _block_table(
    _M_DIFFERENCE,
    # rho^{T_A} at ((a, b), (a', b')) is rho at ((a', b), (a, b')).
    lambda row, col: (PAIR_DIM * (SINGLE_DIM * (col // SINGLE_DIM) + row % SINGLE_DIM)
                      + SINGLE_DIM * (row // SINGLE_DIM) + col % SINGLE_DIM),
)
"""The blocks of rho^{T_A}: it is block-diagonal in m_A - m_B, sizes 1, 2, 3, 2, 1."""


def state_blocks(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The (..., 5, 3, 3) blocks of sector states x (..., 19) laid out by table."""
    padded = np.concatenate([x, np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)], axis=-1)
    return padded[..., table]


def sector_matrix(x: np.ndarray) -> np.ndarray:
    """The 9x9 matrices (..., 9, 9) of sector states x (..., 19)."""
    vec = np.zeros(x.shape[:-1] + (PAIR_DIM**2,), dtype=complex)
    vec[..., SECTOR_ENTRIES] = x
    return vec.reshape(x.shape[:-1] + (PAIR_DIM, PAIR_DIM))


def sector_trace(x: np.ndarray) -> np.ndarray:
    """Trace of each sector state x (..., 19).

    The nine populations are added in the order in which np.trace adds the
    diagonal of a 9x9 matrix, so a state gets the bits its matrix gets.
    """
    d = [x[..., j] for j in _SECTOR_DIAGONAL]
    return ((d[0] + d[4]) + (d[1] + d[5])) + ((d[2] + d[6]) + (d[3] + d[7])) + d[8]


def sector_populations(x: np.ndarray) -> np.ndarray:
    """Populations <m_A, m_B|rho|m_A, m_B> (..., 3, 3) of sector states x, real."""
    return x[..., _SECTOR_DIAGONAL].real.reshape(x.shape[:-1] + (SINGLE_DIM, SINGLE_DIM))


def _violation(
    dev: float, trace: complex, lowest: float,
    herm_tol: float, trace_tol: float, psd_tol: float,
) -> InvalidStateError | None:
    # The first violated density-matrix invariant, if any.
    if dev > herm_tol:
        return InvalidStateError(f"not Hermitian: max|rho - rho^dag| = {dev:.3e}")
    if abs(trace - 1.0) > trace_tol:
        return InvalidStateError(
            f"trace {trace} deviates from 1 by {abs(trace - 1.0):.3e}")
    if lowest < -psd_tol:
        return InvalidStateError(f"not positive semidefinite: min eigenvalue {lowest:.3e}")
    return None


def sector_state_errors(
    x: np.ndarray, block_eigenvalues: np.ndarray
) -> list[InvalidStateError | None]:
    """The first violated density-matrix invariant of each sector state.

    x is (m, 19) and block_eigenvalues (m, 5, 3) the eigenvalues of its
    M_BLOCKS, whose padding adds zeros; a state whose spectrum is positive
    thus reports 0 as its lowest eigenvalue, which passes as its own does.
    Entry i is None when x[i] passes validate_density_matrix at its default
    tolerances, else the InvalidStateError it raises for that matrix.
    """
    dev = np.max(np.abs(x - x[:, _SECTOR_ADJOINT].conj()), axis=-1)
    lowest = np.min(block_eigenvalues, axis=(-2, -1))
    return [_violation(d, tr, lo, 1e-10, 1e-10, 1e-10)
            for d, tr, lo in zip(dev, sector_trace(x), lowest)]


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
    error = _violation(
        np.max(np.abs(rho - rho.conj().T)), np.trace(rho),
        np.linalg.eigvalsh(rho)[0], herm_tol, trace_tol, psd_tol,
    )
    if error is not None:
        raise error
