"""Spin-1 operator algebra and density-matrix utilities for a pair of spins.

Basis convention: single-spin index 0, 1, 2 <-> m = +1, 0, -1, so Sz is
diagonal with descending entries.  Two-spin product states |m_A, m_B> live
at flat index 3*idx(m_A) + idx(m_B); |0,0> sits at index 4.  All matrices
are dense complex ndarrays in row-major layout.

The entries of rho fall into nine sectors of equal excitation difference
(EXCITATION_SECTORS, adjoint_index), on which the generator is built.  A
state that commutes with Sz_A + Sz_B, as every steady state and every
state reached from |0,0> does, is held by its 19 k = 0 entries (see
SECTOR_ENTRIES).  Such a state and its partial transpose are then
block-diagonal, with blocks of sizes 1, 2, 3, 2, 1 made of those entries
(M_BLOCKS, PARTIAL_TRANSPOSE_BLOCKS).  Their spectra need LAPACK for the
3x3 block only: the 1x1 blocks are populations, and the 2x2 blocks have
closed forms (block_eigenvalues, m_block_eigensystem).
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


def adjoint_index(vec_index: np.ndarray) -> np.ndarray:
    """Vec index 9 c + r of rho_cr for each rho_rc at vec index 9 r + c."""
    return PAIR_DIM * (vec_index % PAIR_DIM) + vec_index // PAIR_DIM


_M_TOTAL = np.array([m_a + m_b for m_a in M_VALUES for m_b in M_VALUES])
_M_DIFFERENCE = np.array([m_a - m_b for m_a in M_VALUES for m_b in M_VALUES])
_EXCITATION_DIFFERENCE = np.subtract.outer(_M_TOTAL, _M_TOTAL).reshape(-1)

EXCITATION_SECTORS = tuple(np.flatnonzero(_EXCITATION_DIFFERENCE == k)
                           for k in (0, 1, -1, 2, -2, 3, -3, 4, -4))
"""Vec indices, ascending, of each sector k = 0, +1, -1, ..., -4.

Entry rho_rc, at vec index 9 r + c, is in the sector of its excitation
difference k = M(r) - M(c), M = m_A + m_B.  The master equation conserves
M on both sides of rho, so its generator is block-diagonal over these
sectors, of sizes 19, 16, 16, 10, 10, 4, 4, 1, 1.
"""

SECTOR_ENTRIES = EXCITATION_SECTORS[0]
"""Vec indices 9 r + c of the 19 k = 0 entries, ascending.

A sector state x of shape (..., 19) holds rho.reshape(..., 81)[...,
SECTOR_ENTRIES]; every other entry of rho is zero.  The trace, and every
state the master equation reaches from |0,0><0,0| or relaxes to, lie here.
"""

_POSITION = np.full(PAIR_DIM**2, len(SECTOR_ENTRIES))
_POSITION[SECTOR_ENTRIES] = np.arange(len(SECTOR_ENTRIES))

# Positions in x of the diagonal rho_jj.
_SECTOR_DIAGONAL = _POSITION[(PAIR_DIM + 1) * np.arange(PAIR_DIM)]

SECTOR_ADJOINT = _POSITION[adjoint_index(SECTOR_ENTRIES)]
"""Position in a sector state x of rho_cr, for each rho_rc."""


# A block table lists the 17 positions in a sector state x of the blocks
# of the joint indices that share a label: entries 0-1 are the 1x1 blocks
# of labels 2 and -2; entries 2-7 are a, a', d, d', c, c' of the 2x2
# blocks [[a, c], [c*, d]] of labels 1 and -1; entries 8-16 are the 3x3
# block of label 0, row-major.  One fancy index gathers a whole table.
def _block_table(labels: np.ndarray, vec_index) -> np.ndarray:
    members = {label: np.flatnonzero(labels == label) for label in (2, 1, 0, -1, -2)}
    pairs = [members[1], members[-1]]
    entries = ([(members[2][0],) * 2, (members[-2][0],) * 2]
               + [(p[0], p[0]) for p in pairs] + [(p[1], p[1]) for p in pairs]
               + [(p[0], p[1]) for p in pairs]
               + [(row, col) for row in members[0] for col in members[0]])
    return np.array([_POSITION[vec_index(row, col)] for row, col in entries])


M_BLOCKS = _block_table(_M_TOTAL, lambda row, col: PAIR_DIM * row + col)
"""The blocks of rho: it is block-diagonal in M, sizes 1, 2, 3, 2, 1."""

PARTIAL_TRANSPOSE_BLOCKS = _block_table(
    _M_DIFFERENCE,
    # rho^{T_A} at ((a, b), (a', b')) is rho at ((a', b), (a, b')).
    lambda row, col: (PAIR_DIM * (SINGLE_DIM * (col // SINGLE_DIM) + row % SINGLE_DIM)
                      + SINGLE_DIM * (row // SINGLE_DIM) + col % SINGLE_DIM),
)
"""The blocks of rho^{T_A}: it is block-diagonal in m_A - m_B, sizes 1, 2, 3, 2, 1."""

BLOCK_TOPS = np.array([0, 4, 8, 5, 1])
"""Positions in a block spectrum of each block's largest eigenvalue, labels 2, 1, 0, -1, -2."""


def _small_blocks(entries: np.ndarray) -> tuple[list[np.ndarray], ...]:
    # The eigenvalues of the 1x1 and of the 2x2 blocks of a gathered table,
    # as the first three parts of its spectrum, with h = (a - d) / 2, |c|
    # and r = hypot(h, |c|) of the 2x2 blocks.
    diagonal = entries[:, :6].real
    c = entries[:, 6:8]
    modulus = np.hypot(c.real, c.imag)
    half_sum = 0.5 * (diagonal[:, 2:4] + diagonal[:, 4:6])
    half_gap = 0.5 * (diagonal[:, 2:4] - diagonal[:, 4:6])
    radius = np.hypot(half_gap, modulus)
    return [diagonal[:, :2], half_sum - radius, half_sum + radius], half_gap, modulus, radius


def block_eigenvalues(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The nine eigenvalues (n, 9) of the blocks of sector states x (n, 19).

    table is M_BLOCKS or PARTIAL_TRANSPOSE_BLOCKS; its blocks must be
    Hermitian, and their diagonals are read as real.  The spectrum holds the
    two 1x1 blocks, then the lower and the upper eigenvalues m -+ r of the
    two 2x2 blocks [[a, c], [c*, d]], m = (a + d) / 2 and r = hypot((a -
    d) / 2, |c|), then the 3x3 block's eigenvalues, ascending; BLOCK_TOPS
    picks the largest of each block.  Only the 3x3 blocks go to LAPACK, in
    one stacked eigvalsh.  A state's values do not depend on the stack.
    """
    entries = x[:, table]
    small = _small_blocks(entries)[0]
    center = np.linalg.eigvalsh(entries[:, 8:].reshape(-1, SINGLE_DIM, SINGLE_DIM))
    return np.concatenate(small + [center], axis=-1)


# The ratio's denominator is raised to the smallest subnormal only where it
# is zero, so that a degenerate 2x2 block gets the ratio 0.
_SMALLEST = np.nextafter(0.0, 1.0)


def m_block_eigensystem(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectrum, 2x2 Schmidt ratios and 3x3 eigenvectors of sector states x.

    The spectrum (n, 9) is block_eigenvalues(x, M_BLOCKS), from one stacked
    eigh of the M = 0 blocks, whose eigenvectors (n, 3, 3) come last.  The
    ratios (n, 2), for the blocks M = 1 and M = -1, are |c| / (r + |h|),
    h = (a - d) / 2: the smaller over the larger modulus of the two
    components of the block's top eigenvector, free of cancellation.  A
    degenerate block, r = 0, gets 0.
    """
    entries = x[:, M_BLOCKS]
    small, half_gap, modulus, radius = _small_blocks(entries)
    center, vectors = np.linalg.eigh(entries[:, 8:].reshape(-1, SINGLE_DIM, SINGLE_DIM))
    ratios = modulus / np.maximum(radius + np.abs(half_gap), _SMALLEST)
    return np.concatenate(small + [center], axis=-1), ratios, vectors


def sector_matrix(x: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """The 9x9 matrices (..., 9, 9) of states held by their parts in sectors.

    x (..., 19) is the k = 0 part and parts[k - 1] the part in sector +k, whose
    conjugate is the part in -k; a part with no columns, or none given, is zero.
    """
    vec = np.zeros(x.shape[:-1] + (PAIR_DIM**2,), dtype=complex)
    vec[..., SECTOR_ENTRIES] = x
    for sector, part in zip(EXCITATION_SECTORS[1::2], parts):
        if part.shape[-1]:
            vec[..., sector] = part
            vec[..., adjoint_index(sector)] = part.conj()
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
    x: np.ndarray, eigenvalues: np.ndarray
) -> dict[int, InvalidStateError]:
    """The first violated density-matrix invariant of each failing sector state.

    x is (n, 19) and eigenvalues (n, 9) its block spectrum (see
    block_eigenvalues).  The invariants are checked on the whole stack at
    once; the result maps the index of each state that fails
    validate_density_matrix at its default tolerances to the
    InvalidStateError it raises for that matrix.
    """
    tol = 1e-10
    dev = np.abs(x - x[:, SECTOR_ADJOINT].conj()).max(axis=-1)
    trace = sector_trace(x)
    lowest = eigenvalues.min(axis=-1)
    failing = (dev > tol) | (np.abs(trace - 1.0) > tol) | (lowest < -tol)
    return {i: _violation(dev[i], trace[i], lowest[i], tol, tol, tol)
            for i in failing.nonzero()[0].tolist()}


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
