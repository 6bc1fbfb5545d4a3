"""Generator of the two-spin master equation, its steady state, and dynamics.

The density matrix is vectorized row-major, so vec(A rho B) = (A kron B^T)
vec(rho).  Each spin precesses at omega_j about Sz and is stabilized to the
m = 0 limit cycle by a gain channel (gamma_g/2) D[S+ Sz] pumping from below
and a damping channel (gamma_d/2) D[S- Sz] draining from above; the exchange
coupling i(eps/2)(Sp_A Sm_B - Sp_B Sm_A) is the only interaction.

Frequencies are parametrized as omega_A = omega_ref + delta, omega_B =
omega_ref; every steady-state quantity depends on delta only, which the test
suite checks by varying omega_ref.  All rates are in units of gamma_d_a.

Every term conserves the total excitation m_A + m_B on each side of rho, so
the generator is block-diagonal in the excitation difference k between the
row and the column of rho (nine sectors, k = -4..4, laid out in
operators.EXCITATION_SECTORS).  It maps rho^dag to L(rho)^dag, so the
block of sector -k is the conjugate of the block of +k.
The generator is linear in the seven parameters, and the module holds it
as one table: the seven basis superoperators restricted to each sector k =
0..4, gathered at import from the 9x9 operators.  evolve steps each sector
with its own block; only build_generator forms the 81x81 matrix.

The trace, and with it the steady state, lives in the 19-dimensional k = 0
sector, so the steady path needs only that block B_0, and omega_ref does
not enter it.  In a Hermitian basis of the sector (the nine populations,
then sqrt(2) times the real and the imaginary parts of the five upper
coherences) the block is the real matrix R = T^H B_0 T, with T unitary (the
coherence-vector form: Alicki and Lendi, Quantum Dynamical Semigroups and
Applications, Springer 1987).  The steady path forms no complex block: it
assembles R from its 64 nonzero entries, takes the overflow check and the
scale max|R| from them, and works in these real coordinates y = T^H x
throughout.  Whether the steady state is unique depends only on which
channels are on: it is when all four rates are positive, or when the
exchange and at least one gain are.  Then the populations of |+1,+1> and
|-1,-1> only decay, and the state spans the kernel of the 17x17 block of
the other coordinates; with its first population row replaced by the trace
row, one inverse X of that system gives the state from its first column
and, verified in the style of Rump, a certified bound on its error against
the exact generator's state; a point is accepted when the verification
holds and the bound is at most STATE_TOL.  A system that LAPACK finds
singular gets a nan inverse, which fails the verification.  x = T y is
Hermitian by construction.  steady_states solves a stack of points with stacked LAPACK
calls and returns each state as its 19 k = 0 entries, with the spectrum of
its blocks in M = m_A + m_B, which the density-matrix checks and the
measures share: closed forms for the blocks of sizes 1 and 2, one stacked
eigh of the 3x3 blocks.  steady_state is that solve for a stack of one
point, laid out as a 9x9 matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .operators import (
    EXCITATION_SECTORS,
    SECTOR_ADJOINT,
    SECTOR_ENTRIES,
    LinearSolveError,
    adjoint_index,
    embed,
    m_block_eigensystem,
    sector_matrix,
    sector_state_errors,
    sector_trace,
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
        for name in ("gamma_g_a", "gamma_d_a", "gamma_g_b", "gamma_d_b", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.gamma_d_a <= 0.0:
            raise ValueError("gamma_d_a sets the unit scale and must be > 0")
        for name in ("delta", "omega_ref"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


PARAM_KEYS = tuple(f.name for f in fields(SystemParams))
"""The names of the seven parameters in field order: the columns of a weights array."""
_weights = attrgetter(*PARAM_KEYS)


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: times, each sample's parts in sectors, trace errors.

    sectors[k] (samples, n_k) is the part over _SECTORS[k], k = 0..4; the part
    in -k is its adjoint.  A sector where rho0 is zero has no columns.
    """

    times: np.ndarray
    sectors: tuple[np.ndarray, ...] = field(repr=False)
    trace_errors: np.ndarray = field(repr=False)

    @property
    def states(self) -> np.ndarray:
        """The samples as 9x9 matrices, (samples, 9, 9)."""
        return sector_matrix(*self.sectors)


# The sectors k = 0..4 of operators.EXCITATION_SECTORS.  _ADJOINTS[k][j] is
# the vec index of rho[c, r] for the rho[r, c] at _SECTORS[k][j], in sector
# -k for k > 0.
_SECTORS = EXCITATION_SECTORS[:1] + EXCITATION_SECTORS[1::2]
_ADJOINTS = tuple(map(adjoint_index, _SECTORS))


def _sector_basis() -> tuple[np.ndarray, ...]:
    """The seven basis superoperators on each sector k = 0..4, (7, n_k, n_k) each.

    One superoperator per SystemParams field, in field order: the four
    (gamma/2) D[J] channels, the exchange, then the frequencies, written as
    omega_A = omega_ref + delta so delta drives Sz_A and omega_ref drives
    the total Sz.  Each block is gathered from the 9x9 operators.
    """
    sz, sp, sm = spin1_operators()
    sz_a, sz_b = embed(sz, "A"), embed(sz, "B")
    exchange = 0.5j * (embed(sp, "A") @ embed(sm, "B") - embed(sp, "B") @ embed(sm, "A"))
    jumps = [embed(sp @ sz, "A"), embed(sm @ sz, "A"), embed(sp @ sz, "B"), embed(sm @ sz, "B")]
    eye = np.eye(9, dtype=complex)

    def blocks(sector: np.ndarray) -> np.ndarray:
        row, col = np.divmod(sector, 9)

        def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            # rho -> a rho b is the matrix a kron b^T, whose entry (i, j)
            # at vec indices 9 r + c is a[r_i, r_j] b[c_j, c_i].
            return a[row[:, None], row] * b[col, col[:, None]]

        def commutator(ham: np.ndarray) -> np.ndarray:
            return -1j * (sandwich(ham, eye) - sandwich(eye, ham))

        def dissipator(jump: np.ndarray) -> np.ndarray:
            jdj = jump.conj().T @ jump
            return sandwich(jump, jump.conj().T) - 0.5 * (sandwich(jdj, eye) + sandwich(eye, jdj))

        return np.stack([0.5 * dissipator(jump) for jump in jumps]
                        + [commutator(ham) for ham in (exchange, sz_a, sz_a + sz_b)])

    return tuple(blocks(sector) for sector in _SECTORS)


_SECTOR_BASIS = _sector_basis()


def _combine(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # sum_j weights[..., j] * basis[j] for a flattened basis (7, n),
    # accumulated in field order and elementwise, so a stack of points gets
    # the same bits as one point.
    out = weights[..., 0, None] * basis[0]
    for j in range(1, len(basis)):
        out += weights[..., j, None] * basis[j]
    return out


def _sector_block(params: SystemParams, k: int) -> np.ndarray:
    """The generator's block on sector k = 0..4, over the indices _SECTORS[k]."""
    basis = _SECTOR_BASIS[k]
    return _combine(np.array(_weights(params)), basis.reshape(7, -1)).reshape(basis.shape[1:])


def build_generator(params: SystemParams) -> np.ndarray:
    """The 81x81 matrix L with vec(rho_dot) = L @ vec(rho); a view of the sector engine.

    Each k >= 0 block of L combines that sector's seven basis blocks,
    weighted by the fields of params in order, and the block of sector -k
    is its conjugate at the adjoint indices.  The engine never forms L.
    """
    gen = np.zeros((81, 81), dtype=complex)
    for k, (sector, adjoint) in enumerate(zip(_SECTORS, _ADJOINTS)):
        block = _sector_block(params, k)
        gen[np.ix_(sector, sector)] = block
        if k:
            # Adding 0.0 turns the -0 imaginary parts that conj makes into +0.
            gen[np.ix_(adjoint, adjoint)] = block.conj() + 0.0
    return gen


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
    lower = SECTOR_ADJOINT[upper]
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
_REAL_FORM = np.einsum("jil,lm->jim", np.einsum("ki,jkl->jil", _HERMITIAN_BASIS.conj(),
                                                 _SECTOR_BASIS[0]),
                       _HERMITIAN_BASIS).real.reshape(7, -1)
_REAL_ENTRIES = np.flatnonzero(np.any(_REAL_FORM != 0.0, axis=0))
_REAL_BASIS = _REAL_FORM[:, _REAL_ENTRIES]

# Rows 0 and 8 of R hold only -(gamma_d_a + gamma_d_b) and -(gamma_g_a +
# gamma_g_b) on their diagonal, negative wherever the structural rule holds,
# so the populations y[0] and y[8] vanish in the steady state.  It lives in
# the recurrent class of the other 17 coordinates (Baumgartner and
# Narnhofer, Rev. Math. Phys. 24, 1250001 (2012)), whose block R_rr holds
# 58 of the 64 entries, _RECURRENT_FROM, at its flat positions _RECURRENT_AT.
# They are found by index arithmetic: np.setdiff1d and np.intersect1d give
# the same arrays but import numpy.ma, some 10 ms of CPU at every start-up
# on a 2-core Xeon VM.
_RECURRENT = np.delete(np.arange(19), (0, _POPULATIONS - 1))
_RECURRENT_POPULATIONS = _POPULATIONS - 2


def _recurrent_entries() -> tuple[np.ndarray, np.ndarray]:
    """(_RECURRENT_AT, _RECURRENT_FROM): where R_rr's entries sit, and which they are."""
    position = np.full(19, -1)
    position[_RECURRENT] = np.arange(len(_RECURRENT))
    row, col = (position[i] for i in np.divmod(_REAL_ENTRIES, 19))
    inside = np.flatnonzero((row >= 0) & (col >= 0))
    return row[inside] * len(_RECURRENT) + col[inside], inside


_RECURRENT_AT, _RECURRENT_FROM = _recurrent_entries()

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
        zero = [name for name, w in zip(PARAM_KEYS, weights[:5]) if w == 0.0]
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
    where X is not.  LAPACK refuses a whole stack for one singular member;
    then the stack is inverted again one system at a time, and a system
    LAPACK finds singular gets a nan X, which fails the verification.
    """
    flat = np.zeros((len(entries), 17 * 17))
    flat[:, _RECURRENT_AT] = entries[:, _RECURRENT_FROM]
    recurrent = flat.reshape(-1, 17, 17)
    square = recurrent.copy()
    square[:, 0, :_RECURRENT_POPULATIONS] = scale[:, None]
    square[:, 0, _RECURRENT_POPULATIONS:] = 0.0
    try:
        inverse = np.linalg.inv(square)
    except np.linalg.LinAlgError:
        inverse = np.full_like(square, np.nan)
        for i, system in enumerate(square):
            try:
                inverse[i] = np.linalg.inv(system)
            except np.linalg.LinAlgError:
                pass
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


def steady_states(points: Sequence[SystemParams] | np.ndarray) -> SteadyStates:
    """Unique steady states of a stack of points, solved together.

    points is a sequence of SystemParams or their (n, 7) weights (see
    as_weights).  Every point gets the same result, bit for bit, as it gets
    alone; a point that is refused or fails does not affect the others.  A
    point whose real k = 0 block R overflows to non-finite entries is
    refused before any LAPACK call, and one whose recurrent system LAPACK
    finds singular fails the verification (see _verified_states).  An
    empty stack gives empty arrays.  See steady_state for the method.
    """
    weights = as_weights(points)
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
    # meet only the zero transient populations.  Scaled exactly by the
    # power of two of max|R|, the entries' squares cannot overflow.
    exponent = np.frexp(max_entry[candidate])[1]
    residual = np.ldexp(np.linalg.norm(np.ldexp(image, -exponent[:, None]), axis=-1), exponent)
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


def steady_state(params: SystemParams) -> np.ndarray:
    """Unique steady state as a valid 9x9 density matrix; a view of the sector engine.

    NonUniqueSteadyStateError refuses a point whose zero parameters leave a
    larger kernel, naming them: both gains zero, or no exchange and another
    rate zero.  Its text starts "steady state is not unique to double
    precision: " for a point whose inverse X of its square recurrent system
    S (see the module docstring) fails the verification ||I - X S|| < 1,
    as a system that LAPACK finds singular does, or whose certified error
    exceeds STATE_TOL (see _verified_states).  The residual ||R y|| = ||B_0
    x|| is checked against tolerance 1e-10 (1 + max|R|), and the
    density-matrix checks take the lowest eigenvalue from the nine
    eigenvalues of the blocks of rho in M = m_A + m_B
    (operators.m_block_eigensystem); a point that fails both reports the
    residual.  A point whose R overflows
    to non-finite entries is refused with ValueError.  This is
    steady_states on a stack of one point, whose 19 entries are laid out
    as the 9x9 matrix here; every other sector of rho is zero.
    """
    batch = steady_states([params])
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return batch.states[0]


def default_time_step(params: SystemParams) -> float:
    """Conservative fixed step: stiffness is set by the largest rate present."""
    scale = max(params.gamma_g_a, params.gamma_d_a, params.gamma_g_b, params.gamma_d_b,
                abs(params.delta), abs(params.omega_ref + params.delta), abs(params.omega_ref),
                params.epsilon, 1.0)
    return 1e-3 / scale


def _rk4_step_matrix(gen: np.ndarray, h: float) -> np.ndarray:
    # Classical RK4 applied to the linear system vec' = L vec collapses to a
    # fixed one-step matrix: sum of (hL)^k / k! for k = 0..4.
    step = term = np.eye(len(gen), dtype=complex)
    for k in range(1, 5):
        term = (h / k) * (gen @ term)
        step = step + term
    return step


MAX_TRACE_DRIFT = 1e-6
MAX_STATE_NORM = 1e3
MAX_STEPS = 1e8
"""Most RK4 steps one evolve call may take; a longer run is refused up front."""

# Every sample is kept: spinsync dynamics peaks at 40 MB with 20001 samples
# and at 72 MB with this many, about 0.4 KB a sample with its measures.
MAX_SAMPLES = 10**5
"""Most samples one evolve call may keep; more are refused up front."""


def evolve(params: SystemParams, rho0: np.ndarray, t_max: float, dt: float | None = None,
           samples: int = 11) -> Trajectory:
    """Fixed-step RK4 integration of the master equation from rho0.

    rho0 is Hermitized first, exactly so, as L preserves Hermiticity.  Each
    sector k = 0..4 where rho0 is nonzero is stepped with its own block's
    RK4 step matrix; the part in sector -k is the adjoint of the part in +k,
    and a sector where rho0 is zero stays exactly zero.  Samples are kept
    by sectors, the k = 0 part Hermitized entry by entry as its 9x9 matrix
    would be; t_max = 0 gives one sample.  dt is an upper bound on the step;
    the actual step evenly divides the sampling interval.  More than
    MAX_SAMPLES samples or MAX_STEPS steps are refused with ValueError
    before anything is allocated, and a trace drift beyond 1e-6 or a norm
    blow-up aborts with IntegrationStepError.
    """
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError("t_max must be finite and >= 0")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and MAX_SAMPLES = {MAX_SAMPLES}, "
                         f"got {samples}")
    validate_density_matrix(rho0, herm_tol=1e-8, trace_tol=1e-8, psd_tol=1e-8)
    if dt is None:
        dt = default_time_step(params)
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    samples = samples if t_max > 0.0 else 1

    # Counted in Python floats, before anything is allocated, so that an
    # overflowing count is refused like a large one.
    seg, dt = (float(t_max) / (samples - 1) if samples > 1 else 0.0), float(dt)
    n_sub = max(1.0, np.ceil(seg / dt - 1e-12))
    if not n_sub * (samples - 1) <= MAX_STEPS:
        raise ValueError(f"evolving to t = {t_max:g} takes {n_sub * (samples - 1):.3g} "
                         f"RK4 steps of dt <= {dt:.3e}, more than MAX_STEPS = {MAX_STEPS:g}")
    n_sub = int(n_sub)
    h = seg / n_sub
    times = np.linspace(0.0, t_max, samples)

    vec = rho0.reshape(-1)
    parts = {k: vec[sector] for k, sector in enumerate(_SECTORS) if np.any(vec[sector])}
    steps = {k: _rk4_step_matrix(_sector_block(params, k), h) for k in parts}
    sectors = tuple(np.empty((samples, len(sector) if k in parts else 0), dtype=complex)
                    for k, sector in enumerate(_SECTORS))
    trace_errors = np.empty(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(samples):
            for k, step in steps.items():
                part = parts[k]
                for _ in range(n_sub if i else 0):
                    part = step @ part
                # Written so that a nan entry fails the test too.
                if not np.max(np.abs(part)) <= MAX_STATE_NORM:
                    raise IntegrationStepError(f"state norm blew up by t = {times[i]:.3g}; "
                                               f"use a smaller step than dt = {h:.3e}")
                parts[k] = part
            for k, part in parts.items():
                sectors[k][i] = 0.5 * (part + part[SECTOR_ADJOINT].conj()) if k == 0 else part
            trace_errors[i] = abs(sector_trace(sectors[0][i]).real - 1.0)
            if trace_errors[i] > MAX_TRACE_DRIFT:
                raise IntegrationStepError(
                    f"trace drift {trace_errors[i]:.3e} at t = {times[i]:.3g} "
                    f"exceeds {MAX_TRACE_DRIFT:.1e}; use a smaller step than dt = {h:.3e}"
                )

    return Trajectory(times=times, sectors=sectors, trace_errors=trace_errors)
