"""Float reference implementations that the tests check the engine against.

Each one computes what the engine computes by another route, most of them
by the dense or per-point method that the engine replaced:
- phase space: spin-1 coherent states and Husimi Q functions, and the
  numerical quadrature of the phase-space integrals that phasespace does
  in closed form;
- the first-order oracle's profile at a phase and its pure-state
  approximation, built on first_order_stack;
- the generator: the Lindblad dissipator and the master equation in matrix
  form, and the dense kron construction of the seven 81x81 basis
  superoperators with RK4 on the whole generator;
- the steady state: the dense 81x81 least-squares solve, the old sigma_2
  conditioning rule, and the per-point solve, measures and sweep record
  that came before the stacked engine;
- a single spin 1 driven by an external signal, the other side of the
  abstract's contrast, as a dense 9x9 generator.

tests/exact.py holds the exact rational references, and conftest.py the
parameter draws.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import lstsq

from spinsync import STEADY, QuadratureSpec, SystemParams, build_generator
from spinsync import liouvillian, sweep
from spinsync.first_order import NO_STEADY_STATE, SREL_COEFF, first_order_stack
from spinsync.liouvillian import EXCITATION_SECTORS, NonUniqueSteadyStateError, _weights
from spinsync.operators import (
    M_VALUES,
    PAIR_DIM,
    SINGLE_DIM,
    InvalidStateError,
    LinearSolveError,
    embed,
    joint_index,
    partial_trace,
    partial_transpose,
    spin1_operators,
)
from spinsync.phasespace import HUSIMI_NORM, TIE_ATOL, TIE_RTOL

# Phase space: coherent states and Husimi Q functions.


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


# Phase space: numerical quadrature of the phase-space integrals.  Gauss-
# Legendre in each polar angle (the integrands are trigonometric polynomials
# of degree <= 3, converged to machine precision well below 32 nodes) and a
# uniform rule in the common phase phi_B (Fourier modes up to |k| = 4, exact
# for >= 8 nodes).  The quadrature is evaluated in full, over every
# (theta_A, theta_B, phi_B) node; the summation is only reordered by
# grouping the node-independent factors per site, which is exact.


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


# The first-order oracle at one point, from first_order_stack.


def s_rel_first_order(params: SystemParams, phi: float, t: float | None = STEADY) -> float:
    """First-order relative-phase distribution value at phi; nan where the oracle is undefined."""
    stack = first_order_stack([params], t)
    if not stack.defined[0]:
        return math.nan
    amplitude = stack.mu_plus[0] + np.conj(stack.mu_minus[0])
    return SREL_COEFF * params.epsilon * np.real(np.exp(1j * phi) * amplitude)


def first_order_state(params: SystemParams, t: float | None = STEADY) -> np.ndarray:
    """Normalized pure-state approximation: |0,0> plus the driven coherences."""
    stack = first_order_stack([params], t)
    if not stack.defined[0]:
        raise ValueError(NO_STEADY_STATE)
    psi = np.zeros(PAIR_DIM, dtype=complex)
    psi[joint_index(0, 0)] = 1.0
    psi[joint_index(1, -1)] = params.epsilon * stack.mu_plus[0]
    psi[joint_index(-1, 1)] = params.epsilon * stack.mu_minus[0]
    return psi / np.linalg.norm(psi)


# The generator: the dissipator and the master equation in matrix form.


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[O]rho = O rho O^dag - {O^dag O, rho}/2."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if op.shape != rho.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dimension mismatch: op {op.shape}, rho {rho.shape}")
    odo = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo)


def direct_rhs(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    # Same master equation assembled in matrix form, bypassing the
    # row-major vectorization the generator relies on.
    sz, sp, sm = spin1_operators()
    ham = (params.omega_ref + params.delta) * embed(sz, "A")
    ham = ham + params.omega_ref * embed(sz, "B")
    ham = ham + 0.5j * params.epsilon * (
        embed(sp, "A") @ embed(sm, "B") - embed(sp, "B") @ embed(sm, "A")
    )
    out = -1j * (ham @ rho - rho @ ham)
    out = out + 0.5 * params.gamma_g_a * dissipator(embed(sp @ sz, "A"), rho)
    out = out + 0.5 * params.gamma_d_a * dissipator(embed(sm @ sz, "A"), rho)
    out = out + 0.5 * params.gamma_g_b * dissipator(embed(sp @ sz, "B"), rho)
    out = out + 0.5 * params.gamma_d_b * dissipator(embed(sm @ sz, "B"), rho)
    return out


# The dense kron construction of the seven 81x81 basis superoperators, as the
# engine built them before its table of sector blocks: the differential
# oracle of that table and of build_generator.  The superoperators act on
# row-major vec(rho) of any dimension.

def _left(op: np.ndarray) -> np.ndarray:
    return np.kron(op, np.eye(len(op), dtype=complex))


def _right(op: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(len(op), dtype=complex), op.T)


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


KRON_BASIS = _basis_superoperators()


def kron_generator(params: SystemParams) -> np.ndarray:
    """The 81x81 generator combined from KRON_BASIS, as build_generator combined it."""
    return liouvillian._combine(np.array(_weights(params)),
                                KRON_BASIS.reshape(7, -1)).reshape(81, 81)


def dense_rk4_step_matrix(gen: np.ndarray, h: float) -> np.ndarray:
    # Classical RK4 applied to the linear system vec' = L vec collapses to a
    # fixed one-step matrix: sum of (hL)^k / k! for k = 0..4.
    dim = gen.shape[0]
    step = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 5):
        term = (h / k) * (gen @ term)
        step = step + term
    return step


def dense_rk4_states(params: SystemParams, rho0: np.ndarray, t_max: float, dt: float,
                     samples: int) -> np.ndarray:
    """RK4 on the whole 81x81 oracle generator, with evolve's step and sampling."""
    seg = t_max / (samples - 1)
    n_sub = max(1, int(np.ceil(seg / dt - 1e-12)))
    step = dense_rk4_step_matrix(kron_generator(params), seg / n_sub)
    vec = (0.5 * (rho0 + rho0.conj().T)).reshape(-1)
    states = []
    for i in range(samples):
        for _ in range(n_sub if i else 0):
            vec = step @ vec
        rho = vec.reshape(9, 9)
        states.append(0.5 * (rho + rho.conj().T))
    return np.array(states)


# The steady state: the structural rule, the old sigma_2 rule, the dense
# solve and the per-point path.


def trace_row() -> np.ndarray:
    """Row vector t with t @ vec(rho) = Tr rho."""
    return np.eye(9, dtype=complex).reshape(-1)


def excitation_difference(index: int) -> int:
    # vec index 9 r + c holds rho[r, c]; joint index 3 a + b holds
    # |M_VALUES[a], M_VALUES[b]>.
    row, col = divmod(index, 9)
    total = [M_VALUES[j // 3] + M_VALUES[j % 3] for j in (row, col)]
    return total[0] - total[1]


K0 = [i for i in range(81) if excitation_difference(i) == 0]


def rule_refusal(params: SystemParams) -> str | None:
    """The structural refusal text of params, None if its rates allow one steady state.

    Unique when all four rates are positive, or when epsilon and at least
    one gain are; gamma_d_a is always positive.
    """
    if params.gamma_g_a == 0.0 and params.gamma_g_b == 0.0:
        return "steady state is not unique: both gains are zero"
    if params.epsilon > 0.0 or min(params.gamma_g_a, params.gamma_g_b, params.gamma_d_b) > 0.0:
        return None
    zero = [name for name in ("gamma_g_a", "gamma_g_b", "gamma_d_b", "epsilon")
            if getattr(params, name) == 0.0]
    return f"steady state is not unique: {', '.join(zero[:-1])} and {zero[-1]} are zero"


EPS = np.finfo(float).eps

# The old conditioning rule, which the verified inverse replaced: sigma_2 of
# the k = 0 block must reach max(OLD_RATE_TOL * the sum of the rates,
# OLD_ROUNDING_TOL * sigma_1).  Where the old rule accepts a point the
# engine accepts it too.
OLD_RATE_TOL = 1e-9
OLD_ROUNDING_TOL = 1e3 * EPS

NOT_UNIQUE = "steady state is not unique to double precision: "


def conditioning_refusal(params: SystemParams, k0_block: np.ndarray) -> str | None:
    """The old rule's refusal text of a k = 0 block whose sigma_2 is below its bound."""
    singular = np.linalg.svd(k0_block, compute_uv=False)
    rates = params.gamma_g_a + params.gamma_d_a + params.gamma_g_b + params.gamma_d_b
    bound = max(OLD_RATE_TOL * rates, OLD_ROUNDING_TOL * singular[0])
    if singular[-2] >= bound:
        return None
    return f"{NOT_UNIQUE}sigma_2 {singular[-2]:.3e} of the k = 0 block is below {bound:.3e}"


def dense_steady_state(params: SystemParams) -> np.ndarray | None:
    """Reference solve on the full 81x81 generator, None if refused.

    Refused by the structural rule, a zero pattern that rule_refusal names,
    or by the old rule, a k = 0 block, cut from the dense generator, that
    conditioning_refusal refuses.
    The state comes from the augmented 82x81 least-squares system
    (generator rows plus the trace row), with no use of the sector
    structure.
    """
    gen = build_generator(params)
    if rule_refusal(params) or conditioning_refusal(params, gen[np.ix_(K0, K0)]):
        return None
    augmented = np.vstack([gen, trace_row()[None, :]])
    rhs = np.zeros(82, dtype=complex)
    rhs[-1] = 1.0
    vec = lstsq(augmented, rhs, lapack_driver="gelsy")[0]
    rho = vec.reshape(9, 9)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def dense_tolerance(params: SystemParams) -> float:
    """1e-10 + 1e-14 cond of the square k = 0 trace-row system that is solved."""
    square = build_generator(params)[np.ix_(K0, K0)]
    square[0] = trace_row()[K0]
    return 1e-10 + 1e-14 * np.linalg.cond(square)


def per_point_steady_state(params: SystemParams) -> tuple[np.ndarray, float]:
    """The steady state solved one point at a time, as before the stacked engine.

    The nine blocks cut from the full generator; the rule's refusals; one
    square 19x19 trace-row solve, the residual over the block and the
    density-matrix checks, all on 2-d arrays; the old rule decides
    conditioning.  Where the structural rule finds one steady state it
    also asserts that every k != 0 block is nonsingular far above
    rounding, so each call checks the rule numerically.
    """
    gen = build_generator(params)
    blocks = [gen[np.ix_(sector, sector)] for sector in EXCITATION_SECTORS]
    refusal = rule_refusal(params)
    if refusal is not None:
        raise NonUniqueSteadyStateError(refusal)
    smallest = min(np.linalg.svd(block, compute_uv=False)[-1] for block in blocks[1:])
    assert smallest >= OLD_ROUNDING_TOL * np.max(np.abs(gen)), params
    refusal = conditioning_refusal(params, blocks[0])
    if refusal is not None:
        raise NonUniqueSteadyStateError(refusal)
    sector, block = EXCITATION_SECTORS[0], blocks[0]
    square = block.copy()
    square[0] = trace_row()[sector]
    rhs = np.zeros(len(sector), dtype=complex)
    rhs[0] = 1.0
    vec = np.zeros(81, dtype=complex)
    vec[sector] = np.linalg.solve(square, rhs)
    rho = vec.reshape(9, 9)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = float(np.linalg.norm(block @ rho.reshape(-1)[sector]))
    tol = 1e-10 * (1.0 + float(np.max(np.abs(block))))
    if residual > tol:
        raise LinearSolveError(
            f"steady-state residual {residual:.3e} exceeds {tol:.3e}", residual
        )
    dev = np.max(np.abs(rho - rho.conj().T))
    if dev > 1e-10:
        raise InvalidStateError(f"not Hermitian: max|rho - rho^dag| = {dev:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise InvalidStateError(f"trace {tr} deviates from 1 by {abs(tr - 1.0):.3e}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -1e-10:
        raise InvalidStateError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
    return rho, residual


def per_point_entropy(rho: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(rho)
    if eig[0] < -1e-8:
        raise InvalidStateError(f"eigenvalue {eig[0]:.3e} below tolerance -1.0e-08")
    p = np.clip(eig, 0.0, None)
    nonzero = p[p > 0.0]
    return float(-np.sum(nonzero * np.log(nonzero)))


def per_point_measures(rho: np.ndarray, quad: QuadratureSpec) -> dict:
    """Every measure of one state, each on 2-d arrays as before the stacked engine."""
    out_phis, values = quadrature_s_rel(rho, quad)
    idx = int(np.argmax(values))
    tied = values >= values[idx] - max(TIE_RTOL * np.max(np.abs(values)), TIE_ATOL)
    if tied.any():
        idx = int(np.argmax(tied))
    eig_pt = np.linalg.eigvalsh(partial_transpose(rho, "A"))
    mutual = (per_point_entropy(partial_trace(rho, "A"))
              + per_point_entropy(partial_trace(rho, "B")) - per_point_entropy(rho))
    _, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    coeffs = np.linalg.svd(vecs[:, -1].reshape(3, 3), compute_uv=False)
    return dict(
        max_s_rel=float(values[idx]),
        phi_at_max=float(out_phis[idx]),
        negativity=max(0.0, 0.5 * (float(np.sum(np.abs(eig_pt))) - 1.0)),
        mutual_info=max(0.0, mutual),
        purity=float(np.trace(rho @ rho).real),
        schmidt_rank=int(np.sum(coeffs > 1e-3 * coeffs[0])),
    )


def per_point_record(params: SystemParams, quad: QuadratureSpec = QuadratureSpec()):
    """Sweep record of one point through the per-point path."""
    errors = []
    oracle = first_order_stack([params])
    s_rel_fo, negativity_fo = float(oracle.s_rel_peak[0]), float(oracle.negativity[0])
    if not oracle.defined[0]:
        errors.append(f"oracle: {NO_STEADY_STATE}")
    vals = dict.fromkeys(("max_s_rel", "phi_at_max", "negativity", "mutual_info",
                          "purity", "residual"), math.nan)
    vals["schmidt_rank"] = 0
    try:
        rho, residual = per_point_steady_state(params)
        vals.update(per_point_measures(rho, quad), residual=residual)
    except (NonUniqueSteadyStateError, LinearSolveError, InvalidStateError,
            ValueError) as exc:
        errors.append(f"solve: {exc}")
    return sweep.SweepRecord(
        epsilon=params.epsilon, delta=params.delta, s_rel_fo=s_rel_fo,
        negativity_fo=negativity_fo,
        status="ok" if not errors else "; ".join(errors), **vals,
    )


# One spin 1 locked by an external signal: the same gain and damping
# channels, and H = delta Sz + eps_s Sy in the frame of the signal.


def single_spin_generator(gamma_g: float, gamma_d: float, delta: float,
                          eps_s: float) -> np.ndarray:
    """The 9x9 generator of one driven spin 1, acting on row-major vec(rho)."""
    sz, sp, sm = spin1_operators()
    sy = (sp - sm) / 2j
    return (0.5 * gamma_g * _dissipator_super(sp @ sz)
            + 0.5 * gamma_d * _dissipator_super(sm @ sz)
            + _commutator_super(delta * sz + eps_s * sy))


def single_spin_steady_state(gamma_g: float, gamma_d: float, delta: float,
                             eps_s: float) -> np.ndarray:
    """The 3x3 steady state of one driven spin 1: the kernel of its generator, by eig."""
    values, vectors = np.linalg.eig(single_spin_generator(gamma_g, gamma_d, delta, eps_s))
    rho = vectors[:, np.argmin(np.abs(values))].reshape(3, 3)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)
