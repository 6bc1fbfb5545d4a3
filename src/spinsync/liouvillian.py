"""Generator of the two-spin master equation, its steady state, and dynamics.

The density matrix is vectorized row-major, so vec(A rho B) = (A kron B^T)
vec(rho).  Each spin precesses at omega_j about Sz and is stabilized to the
m = 0 limit cycle by a gain channel (gamma_g/2) D[S+ Sz] pumping from below
and a damping channel (gamma_d/2) D[S- Sz] draining from above; the exchange
coupling i(eps/2)(Sp_A Sm_B - Sp_B Sm_A) is the only interaction.

Frequencies are parametrized as omega_A = omega_ref + delta, omega_B =
omega_ref; every steady-state quantity depends on delta only, which the test
suite checks by varying omega_ref.  All rates are in units of gamma_d_a.

The generator is linear in the seven parameters and is assembled from seven
basis superoperators built once.  Every term conserves the total excitation
m_A + m_B on each side of rho, so the generator is block-diagonal in the
excitation difference k between the row and the column of rho (nine sectors,
k = -4..4).  The trace, and with it the steady state, lives in the
19-dimensional k = 0 sector, so the steady path needs only that block B_0,
and omega_ref does not enter it.  The generator maps Hermitian matrices to
Hermitian matrices, so in a Hermitian basis of the sector (the nine
populations, then sqrt(2) times the real and the imaginary parts of the
five upper coherences) the block is the real matrix R = T^H B_0 T, with T
unitary (the coherence-vector form: Alicki and Lendi, Quantum Dynamical
Semigroups and Applications, Springer 1987).  The steady path forms no
complex block: it assembles R from its 64 nonzero entries, takes the
overflow check and the scale max|R| from them, and works in these real
coordinates y = T^H x throughout.  Whether the steady state is unique
depends only on which channels are on: it is when all four rates are
positive, or when the exchange and at least one gain are.  Then the
populations of |+1,+1> and |-1,-1> only decay, and the state spans the
kernel of the 17x17 block of the other coordinates; with its first
population row replaced by the trace row, one inverse X of that system
gives the state from its first column and, verified in the style of Rump,
a certified bound on its error against the exact generator's state; a
point is accepted when the verification holds and the bound is at most
STATE_TOL.  x = T y is Hermitian by construction.
steady_states solves a stack of points with stacked LAPACK calls and
returns each state as its 19 k = 0 entries, with the spectrum of its
blocks in M = m_A + m_B, which the density-matrix checks and the measures
share: closed forms for the blocks of sizes 1 and 2, one stacked eigh of
the 3x3 blocks.  The residual and density-matrix checks run on the whole
stack at once.  steady_state is that solve for a stack of one point, laid
out as a 9x9 matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .operators import (
    M_VALUES,
    SECTOR_ENTRIES,
    LinearSolveError,
    embed,
    m_block_eigensystem,
    sector_matrix,
    sector_state_errors,
    spin1_operators,
    validate_density_matrix,
)


class NonUniqueSteadyStateError(RuntimeError):
    """The generator kernel is not one-dimensional, or not resolvable in double precision."""


class IntegrationStepError(RuntimeError):
    """Fixed-step integration failed; a smaller step is required."""


@dataclass(frozen=True)
class SystemParams:
    """Full parameter point of the master equation, rates in units of gamma_d_a."""

    gamma_g_a: float = 1.0
    gamma_d_a: float = 1.0
    gamma_g_b: float = 1.0
    gamma_d_b: float = 1.0
    epsilon: float = 0.0
    delta: float = 0.0
    omega_ref: float = 0.0

    def __post_init__(self):
        rates = {
            "gamma_g_a": self.gamma_g_a,
            "gamma_d_a": self.gamma_d_a,
            "gamma_g_b": self.gamma_g_b,
            "gamma_d_b": self.gamma_d_b,
            "epsilon": self.epsilon,
        }
        for name, value in rates.items():
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.gamma_d_a <= 0.0:
            raise ValueError("gamma_d_a sets the unit scale and must be > 0")
        for name in ("delta", "omega_ref"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: times and the matching 9x9 states."""

    times: np.ndarray
    states: list[np.ndarray] = field(repr=False)
    trace_errors: np.ndarray = field(repr=False)


def _left(op: np.ndarray) -> np.ndarray:
    return np.kron(op, np.eye(9, dtype=complex))


def _right(op: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(9, dtype=complex), op.T)


def _commutator_super(ham: np.ndarray) -> np.ndarray:
    return -1j * (_left(ham) - _right(ham))


def _dissipator_super(op: np.ndarray) -> np.ndarray:
    odo = op.conj().T @ op
    return np.kron(op, op.conj()) - 0.5 * (_left(odo) + _right(odo))


def _basis_superoperators() -> np.ndarray:
    # One superoperator per SystemParams field, in field order: the four
    # (gamma/2) D[J] channels, the exchange, then the frequencies, written as
    # omega_A = omega_ref + delta so delta drives Sz_A and omega_ref drives
    # the total Sz.
    sz, sp, sm = spin1_operators()
    sz_a, sz_b = embed(sz, "A"), embed(sz, "B")
    exchange = 0.5j * (embed(sp, "A") @ embed(sm, "B") - embed(sp, "B") @ embed(sm, "A"))
    return np.stack([
        0.5 * _dissipator_super(embed(sp @ sz, "A")),
        0.5 * _dissipator_super(embed(sm @ sz, "A")),
        0.5 * _dissipator_super(embed(sp @ sz, "B")),
        0.5 * _dissipator_super(embed(sm @ sz, "B")),
        _commutator_super(exchange),
        _commutator_super(sz_a),
        _commutator_super(sz_a + sz_b),
    ])


_BASIS = _basis_superoperators()


def _weights(params: SystemParams) -> tuple[float, ...]:
    return (
        params.gamma_g_a, params.gamma_d_a, params.gamma_g_b, params.gamma_d_b,
        params.epsilon, params.delta, params.omega_ref,
    )


def _combine(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # sum_j weights[..., j] * basis[j] for a flattened basis (7, n),
    # accumulated in field order and elementwise, so a stack of points gets
    # the same bits as one point.
    out = weights[..., 0, None] * basis[0]
    for j in range(1, len(basis)):
        out += weights[..., j, None] * basis[j]
    return out


def build_generator(params: SystemParams) -> np.ndarray:
    """Assemble the 81x81 matrix L with vec(rho_dot) = L @ vec(rho).

    L is linear in the seven parameters, so it is the combination of seven
    fixed basis superoperators built once at import, weighted by the fields
    of params in order.
    """
    return _combine(np.array(_weights(params)), _BASIS.reshape(7, -1)).reshape(81, 81)


def _excitation_sectors() -> tuple[np.ndarray, ...]:
    # Entry (r, c) of rho, at vec index 9 r + c, carries the excitation
    # difference M(r) - M(c) with M = m_A + m_B.  Sectors are ordered
    # k = 0, +1, -1, +2, -2, ..., -4.
    m_total = np.array([m_a + m_b for m_a in M_VALUES for m_b in M_VALUES])
    diff = (m_total[:, None] - m_total[None, :]).reshape(-1)
    order = [0] + [sign * k for k in range(1, 5) for sign in (1, -1)]
    return tuple(np.flatnonzero(diff == k) for k in order)


EXCITATION_SECTORS = _excitation_sectors()
"""Vec indices of each excitation-difference sector, k = 0 first.

The generator conserves m_A + m_B on both sides of rho, so it never links
entries with different k: it is block-diagonal over these sectors, of sizes
19, 16, 16, 10, 10, 4, 4, 1, 1.  The trace, and hence the steady state,
lives in k = 0.
"""


# The seven basis superoperators restricted to the k = 0 sector, (7, 19, 19).
_K0_BLOCKS = _BASIS[:, EXCITATION_SECTORS[0]][:, :, EXCITATION_SECTORS[0]]

# The nine populations come first in the real coordinates y, and their sum
# is the trace.
_POPULATIONS = 9


def _hermitian_basis() -> np.ndarray:
    """The unitary T (19, 19) from real coordinates y to k = 0 sector states x = T y.

    Its columns are the populations |r><r|, then (|r><c| + |c><r|) / sqrt(2)
    and i (|r><c| - |c><r|) / sqrt(2) for the five upper coherences r < c in
    the order of operators.SECTOR_ENTRIES: y holds the nine populations,
    then sqrt(2) Re and sqrt(2) Im of those coherences.  A sector state is
    Hermitian exactly when its y is real, and a generator block B maps
    Hermitian states to Hermitian states, so R = T^H B T is real.
    """
    row, col = np.divmod(SECTOR_ENTRIES, 9)
    upper = np.flatnonzero(row < col)
    lower = np.searchsorted(SECTOR_ENTRIES, 9 * col[upper] + row[upper])
    half = math.sqrt(0.5)
    basis = np.zeros((19, 19), dtype=complex)
    basis[row == col, :_POPULATIONS] = np.eye(_POPULATIONS)
    basis[upper, np.arange(9, 14)] = basis[lower, np.arange(9, 14)] = half
    basis[upper, np.arange(14, 19)] = 1j * half
    basis[lower, np.arange(14, 19)] = -1j * half
    return basis


_HERMITIAN_BASIS = _hermitian_basis()

# T^H B T of each basis block, flattened to (7, 361).  einsum sums in a
# fixed order, where a BLAS product at import could depend on the BLAS build
# and its thread count.  Its imaginary part is zero; R is assembled from
# the 64 entries, at _REAL_ENTRIES, that are nonzero in some basis block:
# every other entry of R is zero at every point.
_REAL_FORM = np.einsum("ki,jkl,lm->jim", _HERMITIAN_BASIS.conj(), _K0_BLOCKS,
                       _HERMITIAN_BASIS).real.reshape(7, -1)
_REAL_ENTRIES = np.flatnonzero(np.any(_REAL_FORM != 0.0, axis=0))
_REAL_BASIS = _REAL_FORM[:, _REAL_ENTRIES]

# Rows 0 and 8 of R hold only -(gamma_d_a + gamma_d_b) and -(gamma_g_a +
# gamma_g_b) on their diagonal, negative wherever the structural rule holds,
# so the populations y[0] and y[8] vanish in the steady state.  It lives in
# the recurrent class of the other 17 coordinates (Baumgartner and
# Narnhofer, Rev. Math. Phys. 24, 1250001 (2012)), whose block R_rr holds
# 58 of the 64 entries, _RECURRENT_FROM, at its flat positions _RECURRENT_AT.
_RECURRENT = np.setdiff1d(np.arange(19), (0, _POPULATIONS - 1))
_RECURRENT_POPULATIONS = _POPULATIONS - 2
_RECURRENT_AT, _RECURRENT_FROM = np.intersect1d(
    np.arange(19 * 19).reshape(19, 19)[np.ix_(_RECURRENT, _RECURRENT)], _REAL_ENTRIES,
    return_indices=True)[1:]

STATE_TOL = 1e-8
"""Largest certified error max|y - y_exact| of an accepted steady state."""

# gamma covers, relative to the absolute values of the terms, the roundings
# of assembling S, each entry at most four same-signed terms of a basis
# within 2 eps of exact (4 eps), of X S and S y (17 eps), and of the bounds'
# row sums and products (34 eps): twice these first-order bounds (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3).
_GAMMA = 128 * np.finfo(float).eps

_NOT_UNIQUE = "steady state is not unique to double precision: "


@dataclass(frozen=True)
class SteadyStates:
    """Steady states of a stack of points, in input order.

    errors[i] is None when point i has a unique steady state, held by its
    19 k = 0 entries sectors[i] (see operators.SECTOR_ENTRIES), with
    residual residuals[i] and certified error error_bounds[i], a bound on
    max|y - y_exact| against the state of the exact generator.  Otherwise
    errors[i] is the exception steady_state raises for that point,
    sectors[i] is zero and residuals[i] and error_bounds[i] are nan.
    eigenvalues (n, 9), pair_ratios (n, 2) and center_vectors (n, 3, 3)
    are operators.m_block_eigensystem of each state: its whole spectrum,
    by blocks in M = m_A + m_B, the Schmidt ratios of its 2x2 blocks and
    the eigenvectors of its 3x3 block, which the density-matrix checks and
    the measures share.  They are zero for a refused point.
    """

    sectors: np.ndarray = field(repr=False)
    residuals: np.ndarray
    error_bounds: np.ndarray
    errors: tuple[Exception | None, ...]
    eigenvalues: np.ndarray = field(repr=False)
    pair_ratios: np.ndarray = field(repr=False)
    center_vectors: np.ndarray = field(repr=False)

    @property
    def states(self) -> np.ndarray:
        """The states as 9x9 matrices, (n, 9, 9)."""
        return sector_matrix(self.sectors)


def check_weights(weights: np.ndarray) -> None:
    """Refuse (n, 7) weights as SystemParams refuses the first invalid row."""
    valid = (np.all(np.isfinite(weights), axis=-1)
             & np.all(weights[:, :5] >= 0.0, axis=-1) & (weights[:, 1] > 0.0))
    bad = np.flatnonzero(~valid)
    if len(bad):
        SystemParams(*weights[bad[0]].tolist())


def as_weights(points: Sequence[SystemParams] | np.ndarray) -> np.ndarray:
    """The (n, 7) weights of a sequence of points, one row of fields each.

    An array is taken as weights already; its rows must be valid points.
    """
    if isinstance(points, np.ndarray):
        return points
    # The reshape keeps the field axis of an empty stack.
    return np.array([_weights(p) for p in points], dtype=float).reshape(len(points), 7)


def steady_states(points: Sequence[SystemParams] | np.ndarray) -> SteadyStates:
    """Unique steady states of a stack of points, solved together.

    points is a sequence of SystemParams or their (n, 7) weights (see
    as_weights).  Every point gets the same result, bit for bit, as it gets
    alone; a point that is refused or fails does not affect the others.
    LAPACK fails a whole stack when one member fails (a singular matrix,
    say), so such a stack is solved again in halves until the failure is
    pinned on its point, which is refused.  A point whose real k = 0 block
    R overflows to non-finite entries is refused before any LAPACK call.
    An empty stack gives empty arrays.  See steady_state for the method.
    """
    weights = as_weights(points)
    try:
        return _solve_stack(weights)
    except np.linalg.LinAlgError as exc:
        if len(weights) == 1:
            # Only the inverse raises: eigh sees verified, finite states.
            error = NonUniqueSteadyStateError(
                f"{_NOT_UNIQUE}its recurrent block has no inverse to verify ({exc})")
            return SteadyStates(np.zeros((1, 19), dtype=complex), np.full(1, np.nan),
                                np.full(1, np.nan), (error,), np.zeros((1, 9)),
                                np.zeros((1, 2)), np.zeros((1, 3, 3), dtype=complex))
        halves = [steady_states(weights[:len(weights) // 2]),
                  steady_states(weights[len(weights) // 2:])]
        return SteadyStates(*[
            halves[0].errors + halves[1].errors if f.name == "errors"
            else np.concatenate([getattr(h, f.name) for h in halves])
            for f in fields(SteadyStates)])


def _real_entries(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real k = 0 block entries of a stack of points, from their (n, 7) weights.

    Returns the 64 entries of _REAL_BASIS, (n, 64), combined elementwise
    as in build_generator; whether all of a point's entries are finite; and
    their largest magnitude max|R|.  The steady path forms no complex
    block.  omega_ref does not enter R.
    """
    # Finite parameters near the float maximum overflow the block; the
    # caller refuses such points before LAPACK sees them.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _combine(weights, _REAL_BASIS)
    return entries, np.all(np.isfinite(entries), axis=-1), np.max(np.abs(entries), axis=-1)


def _structurally_unique(weights: np.ndarray) -> np.ndarray:
    """Which points of (n, 7) weights have a one-dimensional generator kernel.

    That depends only on which channels are on: all four rates positive, or
    a positive exchange and at least one positive gain.  gamma_d_a > 0
    always holds.  tests/exact.py checks the rule with exact ranks of all
    nine sector blocks over every zero pattern of the other four.
    """
    gain_a, _, gain_b, damping_b, exchange = (weights[:, j] > 0.0 for j in range(5))
    return (gain_a & gain_b & damping_b) | (exchange & (gain_a | gain_b))


def _structural_refusal(weights: np.ndarray) -> NonUniqueSteadyStateError:
    """The refusal of one point whose zero parameters leave a larger kernel."""
    if weights[0] == 0.0 and weights[2] == 0.0:
        reason = "both gains are zero"
    else:
        # Here epsilon is zero and so is one of gamma_g_a, gamma_g_b, gamma_d_b.
        zero = [f.name for f, w in zip(fields(SystemParams), weights[:5]) if w == 0.0]
        reason = f"{', '.join(zero[:-1])} and {zero[-1]} are zero"
    return NonUniqueSteadyStateError(f"steady state is not unique: {reason}")


def _verified_states(entries: np.ndarray, scale: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve and verify the recurrent blocks R_rr of a stack from its _real_entries.

    The population rows of R_rr sum to zero, so the first is redundant:
    S is R_rr with c times the trace row [1]*7 + [0]*10 in its place, c =
    scale = max|R|, so that no row of S is small beside the others, and
    the state y solves S y = c e_0.  With X = inv(S), y = c X e_0 and r =
    S y - c e_0 its computed residual, and gamma = _GAMMA,

        e = max |fl(X S) - I| 1 + gamma |X| (|S| 1)

    bounds ||I - X S_exact||_inf for the exact S of the point, so e < 1
    proves S_exact nonsingular, and

        bound = max |X| (|r| + gamma (|S| |y| + c e_0)) / (1 - e)

    bounds max|y - y_exact| (Rump, Acta Numerica 19, 287 (2010)).
    Returns y (n, 17), R_rr y (n, 17), e and bound, which are not finite
    where X is not.
    """
    flat = np.zeros((len(entries), 17 * 17))
    flat[:, _RECURRENT_AT] = entries[:, _RECURRENT_FROM]
    recurrent = flat.reshape(-1, 17, 17)
    square = recurrent.copy()
    square[:, 0, :_RECURRENT_POPULATIONS] = scale[:, None]
    square[:, 0, _RECURRENT_POPULATIONS:] = 0.0
    inverse = np.linalg.inv(square)
    y = scale[:, None] * inverse[:, :, 0]
    # A nearly singular S may give X overflowing entries, which the
    # verification refuses.  Row sums are matrix-vector products.
    with np.errstate(over="ignore", invalid="ignore"):
        # R_rr y serves the residual check and, with its first row
        # replaced by the trace, the residual r of the bound.
        image = (recurrent @ y[..., None])[..., 0]
        residual = image.copy()
        residual[:, 0] = scale * np.sum(y[:, :_RECURRENT_POPULATIONS], axis=-1) - scale
        # |S| 1 and |r| + gamma (|S| |y| + c e_0), then |X| times both.
        terms = np.abs(square) @ np.stack([np.ones_like(y), np.abs(y)], axis=-1)
        terms[..., 1] = np.abs(residual) + _GAMMA * terms[..., 1]
        terms[:, 0, 1] += _GAMMA * scale
        weighted = np.abs(inverse) @ terms
        defect = inverse @ square
        defect.reshape(-1, 17 * 17)[:, ::18] -= 1.0
        e = np.max(np.abs(defect) @ np.ones(17) + _GAMMA * weighted[..., 0], axis=-1)
        bound = np.max(weighted[..., 1], axis=-1) / (1.0 - e)
    return y, image, e, bound


def _solve_stack(weights: np.ndarray) -> SteadyStates:
    entries, finite, max_entry = _real_entries(weights)
    structural = _structurally_unique(weights)

    errors: list[Exception | None] = [None] * len(weights)
    for i in np.flatnonzero(~finite):
        errors[i] = ValueError("generator has non-finite entries: the parameters "
                               "overflow double precision")
    for i in np.flatnonzero(finite & ~structural):
        errors[i] = _structural_refusal(weights[i])
    candidate = np.flatnonzero(finite & structural)
    y, image, contraction, bound = _verified_states(entries[candidate], max_entry[candidate])
    # Written so that a nan contraction or bound is refused too.  The checks
    # below see a refused point as the zero state.
    verified = contraction < 1.0
    refused = ~(verified & (bound <= STATE_TOL))
    y[refused] = image[refused] = 0.0

    # The transient populations y[0] and y[8] are exactly zero.
    full = np.zeros((len(y), 19))
    full[:, _RECURRENT] = y
    # Hermitian by construction, from the same two real coordinates for a
    # coherence and its adjoint.  Each part of an entry has one nonzero term,
    # so BLAS can only pick the sign of a zero; adding 0.0 makes it +0.
    x = full @ _HERMITIAN_BASIS.T + 0.0

    # ||R y|| over all 64 entries of R: rows 0 and 8 and columns 0 and 8
    # meet only the zero transient populations.
    residual = np.linalg.norm(image, axis=-1)
    tol = 1e-10 * (1.0 + max_entry[candidate])
    spectra = m_block_eigensystem(x)
    # The whole stack is checked at once, and an exception is built only
    # for a point that fails; the verification is reported first, then
    # the residual.  Written so that a nan residual is refused too.
    failed = sector_state_errors(x, spectra[0])
    for j in (~(residual <= tol)).nonzero()[0].tolist():
        failed[j] = LinearSolveError(
            f"steady-state residual {residual[j]:.3e} exceeds {tol[j]:.3e}",
            float(residual[j]),
        )
    for j in refused.nonzero()[0].tolist():
        failed[j] = NonUniqueSteadyStateError(
            f"{_NOT_UNIQUE}the inverse of its recurrent block fails verification, "
            f"||I - X S|| <= {contraction[j]:.3e} is not below 1" if not verified[j] else
            f"{_NOT_UNIQUE}certified error {bound[j]:.3e} exceeds STATE_TOL = {STATE_TOL:g}"
        )
    for j, error in failed.items():
        errors[candidate[j]] = error

    solved = np.array([e is None for e in errors], dtype=bool)
    kept = solved[candidate]

    def scatter(values: np.ndarray, fill: float) -> np.ndarray:
        out = np.full((len(weights),) + values.shape[1:], fill, dtype=values.dtype)
        out[solved] = values[kept]
        return out

    return SteadyStates(scatter(x, 0.0), scatter(residual, np.nan), scatter(bound, np.nan),
                        tuple(errors), *[scatter(values, 0.0) for values in spectra])


def steady_state(
    params: SystemParams, *, return_residual: bool = False
) -> np.ndarray | tuple[np.ndarray, float]:
    """Unique steady state of the generator, as a valid 9x9 density matrix.

    NonUniqueSteadyStateError refuses a point whose zero parameters leave a
    larger kernel, naming them: both gains zero, or no exchange and another
    rate zero.  Its text starts "steady state is not unique to double
    precision: " for a point whose square recurrent system S (see the
    module docstring) has no inverse, whose inverse X fails the
    verification ||I - X S|| < 1, or whose certified error exceeds
    STATE_TOL (see _verified_states).  The residual ||R y|| = ||B_0 x|| is
    checked against tolerance 1e-10 (1 + max|R|), and the density-matrix
    checks take the lowest eigenvalue from the nine eigenvalues of the
    blocks of rho in M = m_A + m_B (operators.m_block_eigensystem); a
    point that fails both reports the residual.  A point whose R overflows
    to non-finite entries is refused with ValueError.  This is
    steady_states on a stack of one point, whose 19 entries are laid out
    as the 9x9 matrix here; every other sector of rho is zero.
    """
    batch = steady_states([params])
    if batch.errors[0] is not None:
        raise batch.errors[0]
    rho = batch.states[0]
    if return_residual:
        return rho, float(batch.residuals[0])
    return rho


def default_time_step(params: SystemParams) -> float:
    """Conservative fixed step: stiffness is set by the largest rate present."""
    scale = max(
        params.gamma_g_a,
        params.gamma_d_a,
        params.gamma_g_b,
        params.gamma_d_b,
        abs(params.delta),
        abs(params.omega_ref + params.delta),
        abs(params.omega_ref),
        params.epsilon,
        1.0,
    )
    return 1e-3 / scale

def _rk4_step_matrix(gen: np.ndarray, h: float) -> np.ndarray:
    # Classical RK4 applied to the linear system vec' = L vec collapses to a
    # fixed one-step matrix: sum of (hL)^k / k! for k = 0..4.
    dim = gen.shape[0]
    step = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 5):
        term = (h / k) * (gen @ term)
        step = step + term
    return step


MAX_TRACE_DRIFT = 1e-6
MAX_STATE_NORM = 1e3


def evolve(
    params: SystemParams,
    rho0: np.ndarray,
    t_max: float,
    dt: float | None = None,
    samples: int = 11,
) -> Trajectory:
    """Fixed-step RK4 integration of the master equation from rho0.

    States are re-Hermitized at the sample points.  dt is an upper bound on
    the step; the actual step evenly divides the sampling interval.  A trace
    drift beyond 1e-6 or a norm blow-up aborts with IntegrationStepError.
    """
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError("t_max must be finite and >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    validate_density_matrix(rho0, herm_tol=1e-8, trace_tol=1e-8, psd_tol=1e-8)
    if dt is None:
        dt = default_time_step(params)
    if dt <= 0.0:
        raise ValueError("dt must be > 0")

    if t_max == 0.0 or samples == 1:
        times = np.array([0.0])
        rho = 0.5 * (rho0 + rho0.conj().T)
        return Trajectory(
            times=times,
            states=[rho],
            trace_errors=np.array([abs(np.trace(rho).real - 1.0)]),
        )

    times = np.linspace(0.0, t_max, samples)
    seg = times[1] - times[0]
    n_sub = max(1, int(np.ceil(seg / dt - 1e-12)))
    h = seg / n_sub

    gen = build_generator(params)
    step = _rk4_step_matrix(gen, h)

    vec = rho0.reshape(-1).astype(complex)
    states = []
    trace_errors = np.empty(samples)

    def record(index: int, v: np.ndarray) -> None:
        rho = v.reshape(9, 9)
        rho = 0.5 * (rho + rho.conj().T)
        states.append(rho)
        trace_errors[index] = abs(np.trace(rho).real - 1.0)

    record(0, vec)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, samples):
            for _ in range(n_sub):
                vec = step @ vec
            if not np.all(np.isfinite(vec)) or np.max(np.abs(vec)) > MAX_STATE_NORM:
                raise IntegrationStepError(
                    f"state norm blew up by t = {times[i]:.3g}; "
                    f"use a smaller step than dt = {h:.3e}"
                )
            record(i, vec)
            if trace_errors[i] > MAX_TRACE_DRIFT:
                raise IntegrationStepError(
                    f"trace drift {trace_errors[i]:.3e} at t = {times[i]:.3g} "
                    f"exceeds {MAX_TRACE_DRIFT:.1e}; use a smaller step than dt = {h:.3e}"
                )

    return Trajectory(times=times, states=states, trace_errors=trace_errors)
