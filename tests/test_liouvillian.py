import collections
import dataclasses
import hashlib
import itertools
import time
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm, lstsq

from conftest import (
    BALANCED,
    FIG2,
    density_matrices,
    extreme_params,
    random_density,
    system_params,
    wide_range_params,
)
import exact
from quadrature import quadrature_s_rel
from spinsync import (
    IntegrationStepError,
    NonUniqueSteadyStateError,
    QuadratureSpec,
    SystemParams,
    arnold_sweep,
    balanced_cut_scan,
    build_generator,
    evolve,
    negativity_first_order,
    s_rel,
    s_rel_peak_first_order,
    steady_state,
)
from spinsync import liouvillian, sweep
from spinsync.liouvillian import (
    EXCITATION_SECTORS,
    STATE_TOL,
    _real_entries,
    _structurally_unique,
    _weights,
    default_time_step,
    steady_states,
)
from spinsync.operators import (
    M_VALUES,
    InvalidStateError,
    LinearSolveError,
    dissipator,
    embed,
    joint_index,
    partial_trace,
    partial_transpose,
    sector_matrix,
    spin1_operators,
)
from spinsync.phasespace import TIE_ATOL, TIE_RTOL


def both_zero_density() -> np.ndarray:
    rho = np.zeros((9, 9), dtype=complex)
    rho[joint_index(0, 0), joint_index(0, 0)] = 1.0
    return rho


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
# oracle of that table and of build_generator.

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


def trace_row() -> np.ndarray:
    """Row vector t with t @ vec(rho) = Tr rho."""
    return np.eye(9, dtype=complex).reshape(-1)


def excitation_difference(index: int) -> int:
    # vec index 9 r + c holds rho[r, c]; joint index 3 a + b holds
    # |M_VALUES[a], M_VALUES[b]>.
    row, col = divmod(index, 9)
    total = [M_VALUES[j // 3] + M_VALUES[j % 3] for j in (row, col)]
    return total[0] - total[1]


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


K0 = [i for i in range(81) if excitation_difference(i) == 0]


def pair_summed_form(blocks: np.ndarray) -> np.ndarray:
    """T^H B T of k = 0 blocks B (..., 19, 19), each entry summed in conjugate pairs.

    Column j of T holds first_coefficient[j] at sector position first[j]
    and second_coefficient[j] at second[j]: a population alone (its second
    coefficient is 0), then the sqrt(2) real and imaginary parts of the
    upper coherences, conjugate on a coherence and on its adjoint.  For a
    block with B[P a, P b] = conj(B[a, b]), P the swap of rho_rc and rho_cr,
    as every generator block satisfies bit for bit, each entry of the
    result is z + conj(z), so its imaginary part is exactly zero.
    """
    row, col = np.divmod(np.array(K0), 9)
    position = {index: j for j, index in enumerate(K0)}
    populations = np.flatnonzero(row == col)
    upper = np.flatnonzero(row < col)
    lower = np.array([position[9 * c + r] for r, c in zip(row[upper], col[upper])])
    first = np.concatenate([populations, upper, upper])
    second = np.concatenate([populations, lower, lower])
    half = math.sqrt(0.5)
    first_coefficient = np.array([1.0] * 9 + [half] * 5 + [1j * half] * 5)
    second_coefficient = np.array([0.0] * 9 + [half] * 5 + [-1j * half] * 5)
    columns = (blocks[..., :, first] * first_coefficient
               + blocks[..., :, second] * second_coefficient)
    return (first_coefficient.conj()[:, None] * columns[..., first, :]
            + second_coefficient.conj()[:, None] * columns[..., second, :])


def real_block(entries: np.ndarray) -> np.ndarray:
    """The real k = 0 block R (n, 19, 19) of a stack from its _real_entries."""
    flat = np.zeros((len(entries), 19 * 19))
    flat[:, liouvillian._REAL_ENTRIES] = entries
    return flat.reshape(-1, 19, 19)


def k0_singular_values(params: SystemParams) -> np.ndarray:
    """Singular values of the complex k = 0 block B_0, cut from the dense generator."""
    return np.linalg.svd(build_generator(params)[np.ix_(K0, K0)], compute_uv=False)


def state_bound(params: SystemParams) -> float:
    """10 eps cond(B_0), cond = sigma_1 / sigma_2: how far the engine's state may lie
    from the complex per-point solve's, entry by entry."""
    singular = k0_singular_values(params)
    return 10.0 * EPS * singular[0] / singular[-2]


def assert_old_rule_agrees(got: str, want: str, params: SystemParams) -> None:
    """The engine's status or refusal text got against the old rule's want.

    They are equal, except where the old rule refuses a point for its
    sigma_2: there the engine may accept the point, leaving only the rest
    of the status ("ok" if nothing), or refuse it as not unique to double
    precision.
    """
    if got == want:
        return
    head, sigma_2, _ = want.partition(f"{NOT_UNIQUE}sigma_2 ")
    assert sigma_2, (got, want, params)
    accepted = head.removesuffix("solve: ").removesuffix("; ") or "ok"
    assert got == accepted or got.startswith(head + NOT_UNIQUE), (got, want, params)


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
    s_rel_fo = negativity_fo = math.nan
    try:
        s_rel_fo = s_rel_peak_first_order(params)
        negativity_fo = negativity_first_order(params)
    except ValueError as exc:
        errors.append(f"oracle: {exc}")
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


def assert_records_match_per_point(records, points):
    """Each record against the per-point path's, within the real engine's rounding.

    Statuses as assert_old_rule_agrees; the oracle columns exactly.  Where
    both paths solve the point, the Schmidt rank is equal, the measures lie
    within 1e-12 + state_bound, the residual within 10 eps sigma_1(B_0),
    and phi_at_max is equal, or the reference phase ties with the record's
    peak within that tolerance: a profile flatter than the state's error
    has no phase to pin.
    """
    close = ("max_s_rel", "negativity", "mutual_info", "purity")
    assert len(records) == len(points)
    for record, params in zip(records, points):
        reference = per_point_record(params)
        assert_old_rule_agrees(record.status, reference.status, params)
        for name in ("s_rel_fo", "negativity_fo"):
            got, want = getattr(record, name), getattr(reference, name)
            assert got == want or (got != got and want != want), (name, params)
        if "solve: " in record.status:
            assert record.schmidt_rank == 0, params
            for name in close + ("phi_at_max", "residual"):
                assert math.isnan(getattr(record, name)), (name, params)
            continue
        if "solve: " in reference.status:
            # Only the engine accepts the point: TestVerifiedInverse checks
            # such states against exact arithmetic.
            continue
        assert record.schmidt_rank == reference.schmidt_rank, params
        tol = 1e-12 + state_bound(params)
        for name in close:
            got, want = getattr(record, name), getattr(reference, name)
            assert abs(got - want) <= tol, (name, params)
        assert abs(record.residual - reference.residual) <= (
            10.0 * EPS * k0_singular_values(params)[0]), params
        if record.phi_at_max != reference.phi_at_max:
            profile = s_rel(steady_state(params))
            [at] = np.flatnonzero(np.abs(profile.phis - reference.phi_at_max) <= 1e-12)
            assert profile.values[at] >= record.max_s_rel - tol, params


def degenerate_params(rng: np.random.Generator) -> SystemParams:
    """A point on or near a degenerate kernel, one of three kinds.

    Both gains zeroed; spin B's gain and the exchange zeroed with omega_ref
    = 1, which leaves spin B a rotating two-state kernel; or an uncoupled
    point with one rate scaled so that it spans about 1e-10 to 1e-8 of the
    sum of the rates, around the old rule's OLD_RATE_TOL.
    """
    kind = rng.integers(3)
    if kind == 0:
        return dataclasses.replace(wide_range_params(rng), gamma_g_a=0.0, gamma_g_b=0.0)
    if kind == 1:
        return dataclasses.replace(wide_range_params(rng), gamma_g_b=0.0, epsilon=0.0,
                                   omega_ref=1.0)
    params = SystemParams(
        gamma_g_a=float(10.0 ** rng.uniform(-1.0, 1.0)),
        gamma_g_b=float(10.0 ** rng.uniform(-1.0, 1.0)),
        gamma_d_b=float(10.0 ** rng.uniform(-1.0, 1.0)),
        delta=float(rng.uniform(-10.0, 10.0)),
        omega_ref=float(rng.uniform(-10.0, 10.0)),
    )
    rates = params.gamma_g_a + params.gamma_d_a + params.gamma_g_b + params.gamma_d_b
    rate = str(rng.choice(["gamma_g_a", "gamma_g_b", "gamma_d_b"]))
    return dataclasses.replace(
        params, **{rate: float(rates * 10.0 ** rng.uniform(-10.0, -8.0))})


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams()
        assert p.gamma_g_a == p.gamma_d_a == p.gamma_g_b == p.gamma_d_b == 1.0
        assert p.epsilon == 0.0 and p.delta == 0.0 and p.omega_ref == 0.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemParams().epsilon = 0.5  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma_g_a": -0.1},
            {"epsilon": -1e-9},
            {"gamma_d_b": float("nan")},
            {"gamma_d_a": 0.0},
            {"delta": float("inf")},
            {"omega_ref": float("nan")},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
    def test_accepts_numpy_scalars(self, kind):
        p = SystemParams(gamma_g_a=kind(3), gamma_d_a=kind(1), gamma_g_b=kind(2),
                         gamma_d_b=kind(5), epsilon=kind(0), delta=kind(-2),
                         omega_ref=kind(4))
        assert steady_state(p).shape == (9, 9)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"gamma_g_b": np.float64(-0.5)}, "gamma_g_b must be finite and >= 0, got -0.5"),
            ({"epsilon": np.float32("nan")}, "epsilon must be finite and >= 0, got nan"),
            ({"gamma_d_a": np.int64(0)}, "gamma_d_a sets the unit scale and must be > 0"),
            ({"delta": np.float64("-inf")}, "delta must be finite"),
            ({"omega_ref": np.float32("inf")}, "omega_ref must be finite"),
        ],
    )
    def test_rejection_messages_for_numpy_scalars(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            SystemParams(**kwargs)
        assert str(raised.value) == message


class TestSectorTable:
    """The import-time table of basis blocks against the dense kron oracle."""

    def test_table_equals_the_kron_oracle_bitwise(self):
        # All seven channels on each sector k = 0..4, bit for bit.
        sectors = liouvillian._SECTORS
        assert [len(sector) for sector in sectors] == [19, 16, 10, 4, 1]
        for k, (sector, basis) in enumerate(zip(sectors, liouvillian._SECTOR_BASIS)):
            assert {excitation_difference(i) for i in sector} == {k}
            assert basis.shape == (7, len(sector), len(sector))
            assert basis.tobytes() == KRON_BASIS[:, sector][:, :, sector].tobytes(), k

    def test_adjoint_indices_hold_sector_minus_k(self):
        for k, (sector, adjoint) in enumerate(zip(liouvillian._SECTORS, liouvillian._ADJOINTS)):
            assert {excitation_difference(i) for i in adjoint} == {-k}
            assert np.array_equal(np.sort(adjoint), EXCITATION_SECTORS[2 * k] if k else sector)

    @settings(max_examples=50, deadline=None)
    @given(system_params(), st.floats(min_value=-10.0, max_value=10.0))
    def test_build_generator_equals_the_kron_oracle_bitwise(self, params, omega):
        params = dataclasses.replace(params, omega_ref=omega)
        assert build_generator(params).tobytes() == kron_generator(params).tobytes()

    def test_real_basis_bytes_are_unchanged(self):
        # The steady path's 64 real entries per channel, taken from the k = 0
        # block of the table, have the bytes they had when they were cut
        # from the dense kron basis.
        digest = hashlib.sha256(liouvillian._REAL_BASIS.tobytes()).hexdigest()
        assert digest == "1124d96dbdcfe22e7f58f9ba856ce06df80d9689896bb82b2a86da7ef9de4ad3"

    def test_no_engine_path_forms_the_whole_generator(self, monkeypatch):
        def refuse(params):
            raise AssertionError("the 81x81 generator was formed")

        monkeypatch.setattr(liouvillian, "build_generator", refuse)
        rho0 = random_density(np.random.default_rng(3), 9)
        evolve(FIG2, rho0, t_max=0.01, samples=2)
        sweep.dynamics_trace(FIG2, t_max=0.01, samples=2)
        steady_states([FIG2, BALANCED])
        sweep.evaluate_point(FIG2)


class TestGenerator:
    def test_shape(self):
        assert build_generator(FIG2).shape == (81, 81)

    def test_uncoupled_dark_state_is_annihilated(self):
        params = SystemParams(gamma_g_a=3.0, gamma_d_b=0.2, delta=0.7, omega_ref=2.0)
        gen = build_generator(params)
        assert np.max(np.abs(gen @ both_zero_density().reshape(-1))) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(system_params())
    def test_trace_row_annihilates_generator(self, params):
        gen = build_generator(params)
        assert np.max(np.abs(trace_row() @ gen)) <= 1e-12

    def test_locking_coherence_decay_element(self):
        # The |+1,-1><0,0| coherence decays at (gamma_d_a + gamma_g_b) / 2
        # and rotates at the detuning, untouched by the coupling strength.
        params = dataclasses.replace(FIG2, delta=0.3)
        gen = build_generator(params)
        idx = 9 * joint_index(1, -1) + joint_index(0, 0)
        assert gen[idx, idx] == pytest.approx(-1.0 - 0.3j, abs=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(system_params(), density_matrices())
    def test_matches_matrix_form_rhs(self, params, rho):
        gen = build_generator(params)
        via_super = (gen @ rho.reshape(-1)).reshape(9, 9)
        scale = 1.0 + np.max(np.abs(via_super))
        assert np.max(np.abs(via_super - direct_rhs(params, rho))) <= 1e-11 * scale


class TestExcitationSectors:
    def test_sectors_partition_the_vec_indices(self):
        sizes = [len(sector) for sector in EXCITATION_SECTORS]
        assert sizes == [19, 16, 16, 10, 10, 4, 4, 1, 1]
        assert sum(sizes) == 81
        merged = np.sort(np.concatenate(EXCITATION_SECTORS))
        assert np.array_equal(merged, np.arange(81))
        for k, sector in zip((0, 1, -1, 2, -2, 3, -3, 4, -4), EXCITATION_SECTORS):
            assert {excitation_difference(i) for i in sector} == {k}

    def test_trace_lives_in_sector_zero(self):
        assert set(np.flatnonzero(trace_row())) <= set(EXCITATION_SECTORS[0])

    @settings(max_examples=25, deadline=None)
    @given(system_params(), st.floats(min_value=-10.0, max_value=10.0))
    def test_generator_never_links_sectors(self, params, omega):
        gen = build_generator(dataclasses.replace(params, omega_ref=omega))
        k = np.array([excitation_difference(i) for i in range(81)])
        assert np.all(gen[k[:, None] != k[None, :]] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(system_params(), st.floats(min_value=-10.0, max_value=10.0))
    def test_minus_k_block_is_conjugate_of_plus_k_block(self, params, omega):
        # L(rho^dag) = L(rho)^dag: under the index swap rho_rc <-> rho_cr the
        # block of sector -k is the complex conjugate of the block of +k, so
        # the two share their singular values.
        gen = build_generator(dataclasses.replace(params, omega_ref=omega))
        scale = np.max(np.abs(gen))
        for plus, minus in zip(EXCITATION_SECTORS[1::2], EXCITATION_SECTORS[2::2]):
            swapped = 9 * (plus % 9) + plus // 9
            assert np.array_equal(np.sort(swapped), minus)
            block = gen[np.ix_(plus, plus)]
            assert np.array_equal(gen[np.ix_(swapped, swapped)], block.conj())
            assert np.max(np.abs(
                np.linalg.svd(gen[np.ix_(minus, minus)], compute_uv=False)
                - np.linalg.svd(block, compute_uv=False)
            )) <= 1e-13 * scale

    def test_hermitian_basis_is_unitary(self):
        # T^H T = I to the rounding of 1/sqrt(2), and x = T y is Hermitian,
        # bit for bit, for every real y.
        t = liouvillian._HERMITIAN_BASIS
        assert np.max(np.abs(t.conj().T @ t - np.eye(19))) <= 2 * EPS
        assert np.count_nonzero(t) == 9 + 4 * 5
        y = np.random.default_rng(31).standard_normal((50, 19))
        x = sector_matrix(y @ t.T)
        assert np.array_equal(x, np.swapaxes(x, -1, -2).conj())
        assert np.array_equal(np.diagonal(x, axis1=-2, axis2=-1), y[:, :9])

    def test_real_basis_has_exactly_zero_imaginary_part(self):
        # T^H B T of each basis block, summed in conjugate pairs, is real
        # bit for bit.  The engine's einsum of the same product has its real
        # part bit for bit and an imaginary part within a few eps, and
        # _REAL_BASIS is that real part on its 64 nonzero columns.
        blocks = liouvillian._SECTOR_BASIS[0]
        form = pair_summed_form(blocks)
        assert np.all(form.imag == 0.0)
        t = liouvillian._HERMITIAN_BASIS
        product = np.einsum("ki,jkl,lm->jim", t.conj(), blocks, t)
        assert product.real.tobytes() == form.real.tobytes()
        assert np.max(np.abs(product.imag)) <= 4 * EPS * np.max(np.abs(form.real))
        flat = form.real.reshape(7, -1)
        entries = liouvillian._REAL_ENTRIES
        assert np.count_nonzero(np.any(flat != 0.0, axis=0)) == 64
        assert liouvillian._REAL_BASIS.shape == (7, 64) == flat[:, entries].shape
        assert liouvillian._REAL_BASIS.tobytes() == flat[:, entries].tobytes()
        assert not np.any(np.delete(flat, entries, axis=1))

    def test_real_block_is_the_generator_block_in_hermitian_coordinates(self):
        # The stack mixes signs of delta and omega_ref, a zero rate and
        # FIG2.  R matches T^H B_0 T of build_generator's k = 0 block to a
        # few ulps of max|B_0| and has B_0's singular values; the scale is
        # max|R|, bitwise.
        points = [
            FIG2,
            SystemParams(gamma_g_a=0.3, gamma_d_b=7.0, epsilon=0.2, delta=-0.8,
                         omega_ref=-2.5),
            SystemParams(gamma_g_b=0.0, epsilon=0.05, delta=1.5, omega_ref=-1e3),
            SystemParams(gamma_g_a=2.0, gamma_d_b=0.0, delta=-3e5, omega_ref=40.0),
            dataclasses.replace(BALANCED, delta=-0.1, omega_ref=0.7),
        ]
        weights = np.array([_weights(p) for p in points], dtype=float)
        entries, finite, scale = _real_entries(weights)
        assert entries.shape == (5, 64) and np.all(finite)
        block = real_block(entries)
        assert block.dtype == np.float64
        t = liouvillian._HERMITIAN_BASIS
        for i, params in enumerate(points):
            assert scale[i].tobytes() == np.max(np.abs(block[i])).tobytes()
            k0 = build_generator(params)[np.ix_(K0, K0)]
            k0_scale = np.max(np.abs(k0))
            assert np.max(np.abs(block[i] - t.conj().T @ k0 @ t)) <= 4 * EPS * k0_scale
            assert np.max(np.abs(np.linalg.svd(block[i], compute_uv=False)
                                 - np.linalg.svd(k0, compute_uv=False))) <= 50 * EPS * k0_scale

    def test_transient_rows_hold_only_their_diagonal(self):
        # Rows 0 and 8 of R, the |+1,+1> and |-1,-1> populations, are fed by
        # no other coordinate in any basis block.  The recurrent block of
        # the other 17 coordinates holds 58 of the 64 entries: all but the
        # two diagonal ones and four in columns 0 and 8.  The engine's R_rr
        # is R with those rows and columns deleted.
        form = liouvillian._REAL_FORM.reshape(7, 19, 19)
        for row in (0, 8):
            assert not np.any(np.delete(form[:, row], row, axis=-1)), row
        row, col = np.divmod(liouvillian._REAL_ENTRIES, 19)
        transient = np.isin(row, (0, 8)) | np.isin(col, (0, 8))
        assert np.count_nonzero(~transient) == 58 == len(liouvillian._RECURRENT_FROM)
        weights = np.array([_weights(p) for p in (FIG2, BALANCED, SystemParams(
            gamma_g_a=0.3, gamma_d_b=7.0, epsilon=0.2, delta=-0.8))])
        entries, _, scale = _real_entries(weights)
        recurrent = np.ascontiguousarray(
            np.delete(np.delete(real_block(entries), (0, 8), axis=1), (0, 8), axis=2))
        y, image = liouvillian._verified_states(entries, scale)[:2]
        assert np.array_equal(image, (recurrent @ y[..., None])[..., 0])

    def test_assembly_sums_same_signed_terms(self):
        # What _GAMMA assumes of assembling S: each entry of R sums at most
        # four terms of one sign from the rates and the exchange, which are
        # nonnegative; delta enters entries of its own, and omega_ref none.
        # Every basis entry lies within 2 eps of its exact value +-1/2, +-1,
        # +-sqrt(2) or +-2, and fl(sqrt(2)) within eps / 2 of sqrt(2).
        basis = liouvillian._REAL_BASIS
        on = basis[:5] != 0.0
        assert np.all(np.all(basis[:5] >= 0.0, axis=0) | np.all(basis[:5] <= 0.0, axis=0))
        assert np.count_nonzero(on, axis=0).max() == 4
        assert not np.any(on & (basis[5] != 0.0)) and not np.any(basis[6])
        magnitude = np.abs(basis[basis != 0.0])
        values = np.array([0.5, 1.0, math.sqrt(2.0), 2.0])
        nearest = values[np.argmin(np.abs(magnitude[:, None] - values), axis=1)]
        assert np.all(np.abs(magnitude - nearest) <= 1.5 * EPS * nearest)

    def test_scale_and_overflow_mask_from_the_assembled_entries(self):
        # The mask from R's entries alone refuses every point whose k = 0
        # block B_0 of the whole generator overflows: it equals
        # isfinite(B_0) & isfinite(R).  omega_ref does not enter either
        # block, so omega_ref = -1.7e308 is finite there; the last named
        # point has a finite B_0 and an overflowing R.  The seeded batch
        # draws every weight near the float maximum, a third of them zero.
        rng = np.random.default_rng(5150)
        points = [wide_range_params(rng) for _ in range(500)] + [
            SystemParams(delta=1e308), SystemParams(omega_ref=-1.7e308),
            SystemParams(gamma_g_a=1e308, delta=1e308),
            SystemParams(epsilon=1.7e308, gamma_d_b=1e308),
        ]
        near = rng.uniform(0.1, 1.79, (2000, 7)) * 1e308
        near[:, 5:] *= rng.choice([-1.0, 1.0], (2000, 2))
        near[rng.random((2000, 7)) < 1 / 3] = 0.0
        near[:, 1] = np.maximum(near[:, 1], 1.0)
        points += [SystemParams(*w) for w in near.tolist()]
        entries, finite, _ = _real_entries(np.array([_weights(p) for p in points]))
        with np.errstate(over="ignore", invalid="ignore"):
            complex_finite = np.array([np.all(np.isfinite(build_generator(p)[np.ix_(K0, K0)]))
                                       for p in points])
        assert finite.tolist() == (complex_finite & np.all(np.isfinite(entries), axis=-1)).tolist()
        assert np.all(finite[:500]) and finite[500:504].tolist() == [False, True, False, False]
        assert 0 < np.count_nonzero(finite[504:]) < np.count_nonzero(complex_finite[504:]) < 2000

    def test_overflowing_point_is_refused_with_its_text(self):
        batch = steady_states([SystemParams(delta=1e308), FIG2])
        assert repr(batch.errors[0]) == (
            "ValueError('generator has non-finite entries: the parameters "
            "overflow double precision')")
        assert batch.errors[1] is None
        assert np.array_equal(batch.states[1], steady_state(FIG2))

    def test_overflowing_real_block_is_refused_with_the_overflow_text(self):
        # max|R| can reach twice max|B_0|: here B_0 is finite and R is not,
        # and LAPACK never sees the point.
        params = SystemParams(epsilon=1.7e308, gamma_d_b=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isfinite(build_generator(params)[np.ix_(K0, K0)]))
        entries, finite, _ = _real_entries(np.array([_weights(params)]))
        assert not finite[0] and not np.all(np.isfinite(entries))
        batch = steady_states([params, FIG2])
        assert repr(batch.errors[0]) == (
            "ValueError('generator has non-finite entries: the parameters "
            "overflow double precision')")
        assert batch.errors[1] is None

    def test_huge_uniform_rates_are_solved_or_refused_without_warnings(self):
        # All four rates s and epsilon = 0.1 s.  From s = 1e171 on, the
        # squares of R y's entries overflow, so the residual norm is taken
        # on entries scaled by the power of two of max|R|.  A refusal may
        # come only from the overflow mask or the verification, never from
        # the residual.
        scales = 10.0 ** np.arange(150.0, 301.0)
        points = [SystemParams(s, s, s, s, 0.1 * s) for s in scales]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = steady_states(points)
        for s, error, residual in zip(scales, batch.errors, batch.residuals):
            if error is None:
                assert np.isfinite(residual), s
            else:
                assert isinstance(error, (ValueError, NonUniqueSteadyStateError)), (s, error)
                assert "overflow" in str(error) or "verification" in str(error) or (
                    "certified error" in str(error)), (s, error)

    def test_huge_omega_ref_gives_the_omega_ref_zero_state(self):
        # The whole generator overflows at omega_ref = 1e308, its k = 0
        # block does not: the state is bitwise that of omega_ref = 0.
        for params in (SystemParams(), FIG2, dataclasses.replace(BALANCED, delta=0.3)):
            batch = steady_states([dataclasses.replace(params, omega_ref=1e308), params])
            assert batch.errors == (None, None)
            assert batch.sectors[0].tobytes() == batch.sectors[1].tobytes()
            assert batch.residuals[0].tobytes() == batch.residuals[1].tobytes()


class TestExactRule:
    """The structural rule against exact kernel dimensions over Q(i)."""

    def test_float_basis_within_one_ulp_of_exact(self):
        want = np.zeros((7, 81, 81), dtype=complex)
        for j, basis in enumerate(exact.BASIS):
            for (row, col), (re, im) in basis.items():
                assert float(re) == re and float(im) == im
                want[j, row, col] = complex(float(re), float(im))
        # The table holds the basis on the sectors k = 0..4.  In the exact
        # basis the blocks of -k are their conjugates at the adjoint
        # indices, and every other entry is zero.
        inside = np.zeros((81, 81), dtype=bool)
        for sector, adjoint, basis in zip(liouvillian._SECTORS, liouvillian._ADJOINTS,
                                          liouvillian._SECTOR_BASIS):
            block = want[:, sector][:, :, sector]
            for got, part in ((basis.real, block.real), (basis.imag, block.imag)):
                assert np.all(np.abs(got - part) <= np.spacing(np.abs(part)))
            assert np.array_equal(want[:, adjoint][:, :, adjoint], block.conj())
            inside[np.ix_(sector, sector)] = inside[np.ix_(adjoint, adjoint)] = True
        assert not np.any(want[:, ~inside])

    def test_engine_state_matches_the_exact_state(self):
        # FIG2 and four wide-range draws, solved exactly over Q(i) from the
        # same float weights: the engine is within eps cond(B_0).
        rng = np.random.default_rng(4242)
        points = [FIG2] + [wide_range_params(rng) for _ in range(4)]
        batch = steady_states(points)
        assert batch.errors == (None,) * 5
        for params, x in zip(points, batch.sectors):
            want = np.array(exact.steady_state(_weights(params)))
            singular = k0_singular_values(params)
            assert np.max(np.abs(x - want)) <= EPS * singular[0] / singular[-2], params

    def test_transient_populations_only_decay(self):
        # Over every zero pattern: in the exact generator, the |+1,+1> and
        # |-1,-1> populations (vec indices 0 and 80) feed only themselves,
        # at -(gamma_d_a + gamma_d_b) and -(gamma_g_a + gamma_g_b), and
        # the engine's R carries these two rates to the basis's rounding.
        rows = []
        for pattern in itertools.product((0.0, 1.0), repeat=4):
            sizes = (2.0 ** -10, 3.0, 0.75, 2.0 ** 10)
            g_a, g_b, d_b, eps = (on * size for on, size in zip(pattern, sizes))
            rows.append([g_a, 1.5, g_b, d_b, eps, -2.5, 1.25])
        weights = np.array(rows)
        block = real_block(_real_entries(weights)[0])
        for w, r in zip(rows, block):
            gen = exact.generator(w)
            for index, rate in ((0, w[1] + w[3]), (80, w[0] + w[2])):
                assert {key: value for key, value in gen.items() if key[0] == index} == (
                    {(index, index): (-Fraction(rate), Fraction(0))} if rate else {}), w
            for got, rate in ((r[0, 0], w[1] + w[3]), (r[8, 8], w[0] + w[2])):
                assert abs(got + rate) <= 2 * EPS * rate, w

    @pytest.mark.parametrize(
        "pattern", list(itertools.product((0, 1), repeat=4)),
        ids=lambda on: "-".join(name if bit else f"no_{name}" for name, bit in zip(
            ("gain_a", "gain_b", "damping_b", "exchange"), on)),
    )
    def test_kernel_is_one_dimensional_exactly_where_the_rule_says(self, pattern):
        # pattern switches gamma_g_a, gamma_g_b, gamma_d_b and epsilon on or
        # off.  Those on cycle through 2^-10, 1 and 2^10 across four
        # detunings, and omega_ref alternates between 0 and 5/4.
        sizes = (2.0 ** -10, 1.0, 2.0 ** 10)
        for i, delta in enumerate((0.0, 0.375, -2.5, 7.0)):
            g_a, g_b, d_b, eps = (sizes[(i + j) % 3] * on for j, on in enumerate(pattern))
            weights = np.array([[g_a, 1.0, g_b, d_b, eps, delta, 1.25 * (i % 2)]])
            dimension = exact.kernel_dimension(weights[0].tolist())
            assert (dimension == 1) == _structurally_unique(weights)[0], (weights, dimension)


class TestSteadyState:
    def test_uncoupled_pair_parks_on_both_zero(self):
        params = SystemParams(gamma_g_a=5.0, gamma_d_b=0.5, delta=0.4)
        assert_allclose(steady_state(params), both_zero_density(), atol=1e-10)

    def test_is_valid_density_matrix(self, fig2_steady):
        assert_allclose(fig2_steady, fig2_steady.conj().T, atol=1e-12)
        assert np.trace(fig2_steady).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(fig2_steady)) >= -1e-10

    def test_residual_is_reported_and_small(self, fig2_params, fig2_steady):
        rho, residual = steady_state(fig2_params, return_residual=True)
        assert_allclose(rho, fig2_steady, atol=1e-12)
        gen = build_generator(fig2_params)
        assert residual <= 1e-10 * (1.0 + np.max(np.abs(gen)))

    def test_reference_frequency_drops_out(self, fig2_params, fig2_steady):
        rotated = steady_state(dataclasses.replace(fig2_params, omega_ref=5.0))
        assert np.max(np.abs(rotated - fig2_steady)) <= 1e-9

    def test_commutes_with_total_sz(self, fig2_steady):
        sz = spin1_operators()[0]
        sz_tot = embed(sz, "A") + embed(sz, "B")
        comm = sz_tot @ fig2_steady - fig2_steady @ sz_tot
        assert np.max(np.abs(comm)) <= 1e-10

    def test_missing_gain_channel_degenerates(self):
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(SystemParams(gamma_g_b=0.0))

    def test_empty_stack(self):
        batch = steady_states([])
        assert batch.states.shape == (0, 9, 9)
        assert batch.sectors.shape == (0, 19)
        assert batch.residuals.shape == (0,)
        assert batch.errors == ()
        table, chunk = sweep._evaluate_chunk([], QuadratureSpec())
        assert table.records() == [] and chunk.errors == ()

    @pytest.mark.parametrize(
        "params, text",
        [
            (SystemParams(gamma_g_a=0.0, gamma_g_b=0.0, epsilon=0.1), "both gains are zero"),
            (SystemParams(gamma_g_a=0.0, gamma_g_b=0.0), "both gains are zero"),
            (SystemParams(gamma_g_b=0.0, omega_ref=1.0), "gamma_g_b and epsilon are zero"),
            (SystemParams(gamma_d_b=0.0), "gamma_d_b and epsilon are zero"),
            (SystemParams(gamma_g_a=0.0, gamma_d_b=0.0),
             "gamma_g_a, gamma_d_b and epsilon are zero"),
        ],
    )
    def test_refusal_names_the_zero_parameters(self, params, text):
        with pytest.raises(NonUniqueSteadyStateError) as raised:
            steady_state(params)
        assert str(raised.value) == f"steady state is not unique: {text}"

    @settings(max_examples=15, deadline=None)
    @given(system_params())
    def test_random_points_satisfy_fixed_point_equation(self, params):
        rho = steady_state(params)
        gen = build_generator(params)
        assert np.max(np.abs(gen @ rho.reshape(-1))) <= 1e-10 * (1.0 + np.max(np.abs(gen)))


class TestDenseOracle:
    """The sector solve against the dense 81x81 solve it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(system_params())
    def test_same_state_as_dense_solve(self, params):
        reference = dense_steady_state(params)
        assert reference is not None
        assert np.max(np.abs(steady_state(params) - reference)) <= 1e-12

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(gamma_g_b=0.0),
            # Rotating coherences leave spin B a kernel of exactly two states.
            SystemParams(gamma_g_b=0.0, omega_ref=1.0),
            SystemParams(gamma_g_a=0.0, gamma_g_b=0.0),
        ],
        ids=["gamma_g_b_zero", "gamma_g_b_zero_rotating", "all_gains_zero"],
    )
    def test_same_refusal_as_dense_solve(self, params):
        assert dense_steady_state(params) is None
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(params)

    def test_wide_range_draws_match_dense_solve(self):
        # Drawn like the wide-range single-point benchmark: rates from 1e-3
        # to 1e3 with one of them zero in a tenth of the points, |delta| up
        # to 1e6, omega_ref up to 1e3.  Every point that the dense solve
        # accepts is accepted, with a state within the conditioning of the
        # square k = 0 system that it solves; the structural refusals are
        # the same; a point that only the old rule refuses may go either way.
        rng = np.random.default_rng(20121)
        outcomes = collections.Counter()
        for _ in range(300):
            params = wide_range_params(rng)
            reference = dense_steady_state(params)
            [error] = steady_states([params]).errors
            assert_old_rule_agrees(
                "ok" if error is None else str(error),
                "ok" if reference is not None else
                rule_refusal(params) or conditioning_refusal(params, build_generator(
                    params)[np.ix_(K0, K0)]), params)
            outcomes[(reference is not None, error is None)] += 1
            if reference is not None:
                assert np.max(np.abs(steady_state(params) - reference)) <= (
                    dense_tolerance(params)), params
        # Both refusals and points that only the engine accepts occur.
        assert outcomes[False, False] and outcomes[False, True]

    @settings(max_examples=60, deadline=None)
    @given(extreme_params())
    def test_extreme_draws_match_dense_solve(self, params):
        # Every zero pattern, rates from 1e-6 to 1e6, |delta| and omega_ref
        # up to 1e8.  A point that the dense solve accepts is accepted, as a
        # density matrix within the conditioning of the dense state, and
        # omega_ref leaves every outcome unchanged.  The dense solve is
        # taken at omega_ref = 0: near omega_ref = 1e7 its least-squares
        # rank decision, relative to max|L|, drops the k = 0 state's small
        # singular directions.
        unrotated = dataclasses.replace(params, omega_ref=0.0)
        batch = steady_states([params, unrotated])
        reference = dense_steady_state(unrotated)
        assert repr(batch.errors[0]) == repr(batch.errors[1])
        if reference is not None:
            assert batch.errors[0] is None, params
        elif rule_refusal(params) is not None:
            assert str(batch.errors[0]) == rule_refusal(params)
        if batch.errors[0] is not None:
            assert str(batch.errors[0]).startswith("steady state is not unique"), params
            return
        rho = batch.states[0]
        if reference is not None:
            assert np.max(np.abs(rho - reference)) <= dense_tolerance(params)
        assert np.array_equal(batch.sectors[0], batch.sectors[1])
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


class TestPerPointOracle:
    """The stacked engine against the per-point path it replaced."""

    def test_seeded_tongue(self):
        rng = np.random.default_rng(601)
        shift = float(rng.uniform(-0.5, 0.5)) * 0.2
        base = dataclasses.replace(FIG2, omega_ref=float(rng.uniform(-1.0, 1.0)))
        delta_range = (-1.0 + shift, 1.0 + shift)
        records = arnold_sweep(base, eps_range=(0.0, 0.1), delta_range=delta_range,
                               steps=(11, 11))
        points = [dataclasses.replace(base, epsilon=float(e), delta=float(d))
                  for e in np.linspace(0.0, 0.1, 11)
                  for d in np.linspace(*delta_range, 11)]
        assert_records_match_per_point(records, points)

    def test_balanced_cut(self):
        points = [dataclasses.replace(BALANCED, gamma_d_b=float(r))
                  for r in np.geomspace(1.0, 199.0, 101)]
        assert_records_match_per_point(balanced_cut_scan(BALANCED), points)

    def test_wide_range_draws(self):
        rng = np.random.default_rng(903)
        points = [wide_range_params(rng) for _ in range(300)]
        records = sweep._run_points(points, QuadratureSpec()).records()
        assert_records_match_per_point(records, points)
        refused = sum(r.status.startswith("solve:") for r in records)
        assert 0 < refused < 300

    def test_refusals_raise_what_the_per_point_path_raises(self):
        # The same exception type and text where the per-point path raises,
        # unless only the old rule refuses (see assert_old_rule_agrees); a
        # state that both accept within state_bound, its residual within
        # 10 eps sigma_1(B_0).
        rng = np.random.default_rng(77)
        seen = set()
        for _ in range(300):
            params = wide_range_params(rng)
            [error] = steady_states([params]).errors
            try:
                rho, residual = per_point_steady_state(params)
            except (NonUniqueSteadyStateError, LinearSolveError,
                    InvalidStateError) as exc:
                assert_old_rule_agrees("ok" if error is None else str(error), str(exc), params)
                assert error is None or type(error) is type(exc), params
                seen.add(type(exc))
                continue
            assert error is None, params
            got, got_residual = steady_state(params, return_residual=True)
            assert np.max(np.abs(got - rho)) <= state_bound(params), params
            assert abs(got_residual - residual) <= (
                10.0 * EPS * k0_singular_values(params)[0]), params
        assert NonUniqueSteadyStateError in seen

    def test_degenerate_refusals(self):
        # Two rates zeroed: both gains, which the rule refuses whatever
        # epsilon, or spin B's gain and damping, which gain A and the
        # exchange still hold to one steady state.  Every status, refusal
        # text included, is the per-point path's, unless only the old rule
        # refuses the point.
        rng = np.random.default_rng(4242)
        points = []
        for _ in range(300):
            zeroed = ("gamma_g_a", "gamma_g_b") if rng.random() < 0.5 else (
                "gamma_g_b", "gamma_d_b")
            points.append(dataclasses.replace(
                wide_range_params(rng), **dict.fromkeys(zeroed, 0.0)))
        records = sweep._run_points(points, QuadratureSpec()).records()
        for record, params in zip(records, points):
            assert_old_rule_agrees(record.status, per_point_record(params).status, params)
        statuses = {r.status for r in records}
        assert "solve: steady state is not unique: both gains are zero" in statuses
        assert "ok" in statuses


def count_linalg(monkeypatch) -> dict[str, list[tuple[tuple[int, ...], np.dtype]]]:
    """Record the shape and dtype of every np.linalg inv, solve, cholesky and svd call."""
    calls = {}
    for name in ("inv", "solve", "cholesky", "svd"):
        calls[name] = []

        def recording(a, *args, _fn=getattr(np.linalg, name), _seen=calls[name], **kwargs):
            _seen.append((a.shape, a.dtype))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def stack_outcomes(points, size: int) -> list[tuple[bytes, bytes, bytes, str]]:
    """State, residual and bound bytes and error repr of each point, in stacks of size."""
    out = []
    for start in range(0, len(points), size):
        batch = steady_states(points[start:start + size])
        out += [(rho.tobytes(), residual.tobytes(), bound.tobytes(), repr(error))
                for rho, residual, bound, error in zip(
                    batch.states, batch.residuals, batch.error_bounds, batch.errors)]
    return out


def old_rule_accepts(points) -> np.ndarray:
    """Whether the old rule accepts each point: the structural rule, then
    conditioning_refusal's bound on the singular values of the real k = 0
    block R, which has those of B_0."""
    weights = np.array([_weights(p) for p in points])
    singular = np.linalg.svd(real_block(_real_entries(weights)[0]), compute_uv=False)
    bound = np.maximum(OLD_RATE_TOL * np.sum(weights[:, :4], axis=-1),
                       OLD_ROUNDING_TOL * singular[:, 0])
    return _structurally_unique(weights) & (singular[:, -2] >= bound)


class TestKernelCertificate:
    """One verified inverse per stack decides, solves and certifies.

    Its decisions against the old rule: every point that the old rule
    accepts is accepted.
    """

    def test_reference_points_take_one_inverse(self, monkeypatch):
        calls = count_linalg(monkeypatch)
        assert steady_states([FIG2, BALANCED]).errors == (None, None)
        assert calls == {"inv": [((2, 17, 17), np.float64)], "solve": [], "cholesky": [],
                         "svd": []}

    def test_seeded_tongue_takes_one_inverse(self, monkeypatch):
        rng = np.random.default_rng(602)
        base = dataclasses.replace(FIG2, omega_ref=float(rng.uniform(-1.0, 1.0)))
        shift = float(rng.uniform(-0.1, 0.1))
        points = [dataclasses.replace(base, epsilon=float(e), delta=float(d))
                  for e in np.linspace(0.0, 0.1, 11)
                  for d in np.linspace(-1.0 + shift, 1.0 + shift, 11)]
        calls = count_linalg(monkeypatch)
        outcomes = stack_outcomes(points, sweep.CHUNK_SIZE)
        assert calls["inv"] == [((121, 17, 17), np.float64)]
        assert calls["solve"] == calls["cholesky"] == calls["svd"] == []
        assert all(error == "None" for *_, error in outcomes)

    def test_one_inverse_per_tongue_chunk(self, monkeypatch):
        # A 121-point tongue is one chunk.  The steady path assembles only
        # the 64 nonzero entries of the real k = 0 block, in one combine of
        # the real basis, and no complex block.  It inverts one real
        # float64 stack of recurrent systems and takes no SVD, Cholesky
        # factorization or other solve.
        weights = sweep._grid(FIG2, epsilon=np.linspace(0.0, 0.1, 11),
                              delta=np.linspace(-1.0, 1.0, 11))
        calls = count_linalg(monkeypatch)
        assembled = []
        combine = liouvillian._combine

        def recording_combine(weights, basis):
            assembled.append((basis.shape, basis.dtype))
            return combine(weights, basis)

        monkeypatch.setattr(liouvillian, "_combine", recording_combine)
        records = sweep._run_points(weights, QuadratureSpec()).records()
        assert all(r.status == "ok" for r in records)
        assert assembled == [((7, 64), np.float64)]
        assert calls == {"inv": [((121, 17, 17), np.float64)], "solve": [], "cholesky": [],
                         "svd": []}

    def test_old_rule_accepts_a_subset(self):
        # Wide-range draws like the single-point benchmark's, and points on
        # or near a degenerate kernel; alone and in chunks, which give the
        # same bits and texts.  The engine accepts every point that the old
        # rule accepts, and more; the structural refusals are its own.
        rng = np.random.default_rng(1010)
        points = ([wide_range_params(rng) for _ in range(3000)]
                  + [degenerate_params(rng) for _ in range(600)])
        alone = stack_outcomes(points, 1)
        assert stack_outcomes(points, sweep.CHUNK_SIZE) == alone
        branches = collections.Counter()
        for old, params, (*_, error) in zip(old_rule_accepts(points), points, alone):
            structural = rule_refusal(params)
            branches[("old ok" if old else "rule" if structural else "sigma_2",
                      "ok" if error == "None" else
                      "double precision" if NOT_UNIQUE in error else error)] += 1
            if structural:
                assert error == repr(NonUniqueSteadyStateError(structural)), params
        rule = [key for key in branches if key[0] == "rule"]
        assert rule and all(outcome.startswith("NonUnique") for _, outcome in rule)
        assert {key for key in branches if key[0] != "rule"} == {
            ("old ok", "ok"), ("sigma_2", "ok"), ("sigma_2", "double precision")}
        assert branches["sigma_2", "ok"] > branches["sigma_2", "double precision"]

    def test_nine_block_rule_accepts_a_subset(self):
        # The per-point path cuts all nine blocks from the dense generator,
        # restates the rules and checks its k != 0 blocks.  Where it
        # refuses, the engine refuses with the same type and text, unless
        # only the old rule refuses (see assert_old_rule_agrees); a state
        # that both accept lies within state_bound of the per-point one.
        rng = np.random.default_rng(2020)
        points = ([wide_range_params(rng) for _ in range(3000)]
                  + [degenerate_params(rng) for _ in range(600)])
        batch = steady_states(points)
        for params, state, error in zip(points, batch.states, batch.errors):
            try:
                rho, _ = per_point_steady_state(params)
            except (NonUniqueSteadyStateError, LinearSolveError,
                    InvalidStateError) as exc:
                assert error is None or type(error) is type(exc), params
                assert_old_rule_agrees("ok" if error is None else str(error), str(exc), params)
                continue
            assert error is None, params
            assert np.max(np.abs(state - rho)) <= state_bound(params), params


def seeded_extreme_params(rng: np.random.Generator) -> SystemParams:
    """A seeded draw like extreme_params: each of gamma_g_a, gamma_g_b,
    gamma_d_b and epsilon zero or 1e-6 to 1e6, |delta| zero or 1e-3 to 1e8."""
    def scale(low: float, high: float) -> float:
        return 0.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(low, high))

    rates = [scale(-6.0, 6.0) for _ in range(4)]
    return SystemParams(gamma_g_a=rates[0], gamma_g_b=rates[1], gamma_d_b=rates[2],
                        epsilon=rates[3], delta=float(rng.choice([-1.0, 1.0])) * scale(-3.0, 8.0))


def verified_sectors(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 19 k = 0 entries of the solution of each point's recurrent system,
    accepted or not, with its verification bound e and certified error."""
    entries, _, scale = _real_entries(np.array([_weights(p) for p in points]))
    y, _, e, bound = liouvillian._verified_states(entries, scale)
    full = np.zeros((len(y), 19))
    full[:, liouvillian._RECURRENT] = y
    return full @ liouvillian._HERMITIAN_BASIS.T, e, bound


class TestVerifiedInverse:
    """The certified error against exact arithmetic, and the refusals it makes."""

    def test_certified_error_bounds_the_exact_error(self):
        # max|x - x_exact| over the 19 k = 0 entries, against the certified
        # bound of the solution, plus eps for rounding x = T y and the exact
        # state to floats, wherever the verification holds.  gamma_g_a =
        # 1e-12, which the old rule refused; seeded wide-range and extreme
        # draws with one steady state; draws that only the engine accepts;
        # and the largest certified errors of 2000 seeded wide-range draws,
        # some of them above STATE_TOL.
        rng = np.random.default_rng(903)
        wide = [wide_range_params(rng) for _ in range(2000)]
        _, e, bound = verified_sectors(wide)
        accepted = np.array([error is None for error in steady_states(wide).errors])
        gained = np.flatnonzero(accepted & ~old_rule_accepts(wide))[:4]
        verified = np.flatnonzero((e < 1.0) & (bound < 1e-6))
        largest = verified[np.argsort(bound[verified])[-4:]]
        assert len(gained) == 4 and bound[largest[-1]] > STATE_TOL
        extreme = [p for p in (seeded_extreme_params(rng) for _ in range(20))
                   if rule_refusal(p) is None][:7]
        points = ([SystemParams(gamma_g_a=1e-12)] + wide[:4] + extreme
                  + [wide[i] for i in (*gained, *largest)])
        x, e, bound = verified_sectors(points)
        tested = np.flatnonzero(e < 1.0)
        assert len(tested) >= 18 and tested[0] == 0
        for i in tested:
            want = np.array(exact.steady_state(_weights(points[i])))
            assert np.max(np.abs(x[i] - want)) <= bound[i] + EPS, (points[i], bound[i])
        assert bound[0] <= 1e-12

    @pytest.mark.parametrize("params, text", [
        # LAPACK finds the square recurrent system exactly singular: its
        # inverse is nan, which fails the verification.
        (SystemParams(gamma_g_a=1.8608356419093795e-06, gamma_g_b=0.0003270143868586035,
                      gamma_d_b=0.0, epsilon=6.45583110407614e-06, delta=19532466.295144875),
         "the inverse of its recurrent block fails verification, ||I - X S|| <= nan "
         "is not below 1"),
        (SystemParams(gamma_g_a=0.029417467502893997, gamma_g_b=0.0,
                      gamma_d_b=0.313344184191642, epsilon=0.03699464156086478,
                      delta=585013.2674741718),
         "the inverse of its recurrent block fails verification, ||I - X S|| <= "),
        (SystemParams(gamma_g_a=0.0, gamma_g_b=0.0038172250211073516,
                      gamma_d_b=0.07629411398910771, epsilon=0.19212924522174984,
                      delta=8615.865631887576),
         "certified error "),
    ], ids=["singular", "unverified", "above_state_tol"])
    def test_refusals_name_the_verification_or_the_certified_error(self, params, text):
        # A point whose system LAPACK finds singular, then seed-903
        # wide-range draws 211 and 951.  Each is refused with a nan bound in
        # a stack with FIG2, which keeps its bits.
        batch = steady_states([params, FIG2])
        error = batch.errors[0]
        assert isinstance(error, NonUniqueSteadyStateError)
        assert str(error).startswith(NOT_UNIQUE + text)
        assert batch.errors[1] is None and math.isnan(batch.error_bounds[0])
        assert batch.sectors[1].tobytes() == steady_states([FIG2]).sectors[0].tobytes()
        _, e, bound = verified_sectors([params])
        if text.startswith("the inverse"):
            assert not e[0] < 1.0 and f"{e[0]:.3e} is not below 1" in str(error)
        elif text.startswith("certified"):
            assert e[0] < 1.0 and STATE_TOL < bound[0] < 1e-6
            assert str(error).endswith(f"{bound[0]:.3e} exceeds STATE_TOL = 1e-08")

    def test_accepted_states_have_zero_transient_populations(self):
        # Exactly zero at |+1,+1><+1,+1| and |-1,-1><-1,-1|, on a tongue
        # and on wide-range draws; each accepted state has its certified
        # error, at most STATE_TOL, and each refused one a nan.
        rng = np.random.default_rng(4040)
        points = [wide_range_params(rng) for _ in range(1000)]
        points += [dataclasses.replace(FIG2, epsilon=float(e), delta=float(d))
                   for e in np.linspace(0.0, 0.1, 11) for d in np.linspace(-1.0, 1.0, 11)]
        batch = steady_states(points)
        accepted = np.array([error is None for error in batch.errors])
        assert 0 < np.count_nonzero(~accepted) < 100
        states = batch.states[accepted]
        assert np.all(states[:, 0, 0] == 0.0) and np.all(states[:, 8, 8] == 0.0)
        assert np.all(batch.error_bounds[accepted] <= STATE_TOL)
        assert np.all(np.isnan(batch.error_bounds[~accepted]))


class TestEvolve:
    def test_zero_time_returns_initial_state(self):
        rho0 = both_zero_density()
        traj = evolve(FIG2, rho0, t_max=0.0)
        assert traj.times.shape == (1,)
        assert traj.times[0] == 0.0
        assert_allclose(traj.states[0], rho0, atol=1e-15)

    def test_sample_times_are_uniform(self):
        traj = evolve(SystemParams(), both_zero_density(), t_max=2.0, dt=1e-2, samples=3)
        assert_allclose(traj.times, [0.0, 1.0, 2.0], atol=1e-15)
        assert len(traj.states) == 3

    def test_uncoupled_dark_state_is_stationary(self):
        params = SystemParams(gamma_g_a=2.0, delta=0.5)
        traj = evolve(params, both_zero_density(), t_max=3.0, dt=1e-3, samples=4)
        for state in traj.states:
            assert np.max(np.abs(state - both_zero_density())) <= 1e-12

    def test_steady_state_is_fixed_point(self, fig2_params, fig2_steady):
        traj = evolve(fig2_params, fig2_steady, t_max=1.0, dt=1e-3, samples=5)
        for state in traj.states:
            assert np.max(np.abs(state - fig2_steady)) <= 1e-9

    def test_relaxes_to_steady_state(self, fig2_params, fig2_steady):
        rho0 = np.eye(9, dtype=complex) / 9.0
        traj = evolve(fig2_params, rho0, t_max=50.0, dt=1e-3, samples=6)
        assert np.max(np.abs(traj.states[-1] - fig2_steady)) <= 1e-6
        assert np.max(traj.trace_errors) <= 1e-8

    def test_matches_exponential_propagator(self):
        params = SystemParams(gamma_g_a=1.3, gamma_d_b=0.6, epsilon=0.1, delta=0.4)
        rho0 = random_density(np.random.default_rng(31), 9)
        traj = evolve(params, rho0, t_max=1.0, dt=1e-3, samples=2)
        exact = (expm(build_generator(params)) @ rho0.reshape(-1)).reshape(9, 9)
        exact = 0.5 * (exact + exact.conj().T)
        assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(density_matrices())
    def test_samples_stay_physical(self, rho0):
        params = SystemParams(gamma_g_a=2.0, gamma_d_b=0.5, epsilon=0.2, delta=0.3)
        traj = evolve(params, rho0, t_max=0.5, dt=1e-3, samples=3)
        for state in traj.states:
            assert np.max(np.abs(state - state.conj().T)) <= 1e-12
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-8)
            assert np.min(np.linalg.eigvalsh(state)) >= -1e-8

    @pytest.mark.parametrize("initial", ["random", "zero_zero"])
    def test_sectors_agree_with_dense_rk4(self, initial):
        # A random Hermitian rho0 occupies all five k >= 0 sectors, |0,0>
        # only k = 0.  Stepping each sector with its own block agrees with
        # RK4 on the whole 81x81 oracle generator to rounding.
        params = SystemParams(gamma_g_a=1.3, gamma_d_b=0.6, epsilon=0.1, delta=0.4,
                              omega_ref=2.5)
        if initial == "random":
            rho0 = random_density(np.random.default_rng(17), 9)
            assert all(np.all(rho0.reshape(-1)[sector] != 0.0)
                       for sector in liouvillian._SECTORS)
        else:
            rho0 = both_zero_density()
        traj = evolve(params, rho0, t_max=1.0, dt=1e-3, samples=4)
        want = dense_rk4_states(params, rho0, 1.0, 1e-3, 4)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(np.array(traj.states) - want)) <= 1e-12 * scale
        assert np.max(np.abs(traj.trace_errors - np.abs(np.trace(
            want, axis1=1, axis2=2).real - 1.0))) <= 1e-12

    def test_all_five_sectors_round_trip_through_states(self):
        # A random Hermitian rho0 occupies every sector.  Each +k part sits
        # at its sector of the 9x9 states bit for bit, its conjugate at the
        # adjoint entries, and the first sample is rho0.
        params = SystemParams(gamma_g_a=1.3, gamma_d_b=0.6, epsilon=0.1, delta=0.4,
                              omega_ref=2.5)
        rho0 = random_density(np.random.default_rng(23), 9)
        traj = evolve(params, rho0, t_max=0.5, dt=1e-3, samples=3)
        flat = traj.states.reshape(3, 81)
        for sector, adjoint, part in zip(liouvillian._SECTORS, liouvillian._ADJOINTS,
                                         traj.sectors):
            assert part.shape == (3, len(sector)) and np.all(part[0] != 0.0)
            assert flat[:, sector].tobytes() == part.tobytes()
            assert np.array_equal(flat[:, adjoint], part.conj())
        assert np.array_equal(traj.states[0], 0.5 * (rho0 + rho0.conj().T))
        assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))

    def test_step_count_is_bounded(self, monkeypatch):
        # MAX_STEPS steps are taken, one more is refused before the first.
        monkeypatch.setattr(liouvillian, "MAX_STEPS", 1000)
        evolve(BALANCED, both_zero_density(), t_max=1.0, dt=1e-3, samples=3)
        with pytest.raises(ValueError, match=r"takes 1\.01e\+03 RK4 steps of dt <= 9\.9"):
            evolve(BALANCED, both_zero_density(), t_max=1.0, dt=0.99e-3, samples=3)

    def test_sample_count_is_bounded(self, monkeypatch):
        # MAX_SAMPLES samples are kept, one more is refused before the first step.
        monkeypatch.setattr(liouvillian, "MAX_SAMPLES", 5)
        assert len(evolve(BALANCED, both_zero_density(), t_max=0.01, samples=5).states) == 5
        with pytest.raises(ValueError, match=(
                r"samples must be between 1 and MAX_SAMPLES = 5, got 6")):
            evolve(BALANCED, both_zero_density(), t_max=0.01, samples=6)

    @pytest.mark.parametrize("t_max", [1.0, 1e10])
    def test_huge_step_count_is_refused_at_once(self, t_max):
        # All four rates at 1e300 give dt = 1e-303: 1e303 steps to t = 1,
        # and a count that overflows to inf at t = 1e10.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=(
                r"RK4 steps of dt <= 1\.000e-303, more than MAX_STEPS = 1e\+08")) as raised:
            evolve(SystemParams(1e300, 1e300, 1e300, 1e300), both_zero_density(), t_max=t_max)
        assert time.perf_counter() - start < 1.0
        assert f"takes {'1e+303' if t_max == 1.0 else 'inf'} RK4 steps" in str(raised.value)

    def test_oversized_step_aborts(self):
        with pytest.raises(IntegrationStepError):
            evolve(FIG2, both_zero_density(), t_max=5.0, dt=0.05, samples=11)

    def test_rejects_invalid_initial_state(self):
        with pytest.raises(InvalidStateError):
            evolve(FIG2, np.eye(9, dtype=complex), t_max=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_max": -1.0}, {"t_max": 1.0, "samples": 0}, {"t_max": 1.0, "dt": 0.0}],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            evolve(FIG2, both_zero_density(), **kwargs)


def test_default_time_step_tracks_fastest_scale():
    assert default_time_step(SystemParams()) == pytest.approx(1e-3)
    assert default_time_step(FIG2) == pytest.approx(1e-5)
    slow = SystemParams(delta=200.0)
    assert default_time_step(slow) == pytest.approx(1e-3 / 200.0)
