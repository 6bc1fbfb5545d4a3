"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single PASS/FAIL line (echoed in the terminal summary via
conftest) with the measured values, then asserts every clause at its stated
tolerance.  Clauses are never weakened to make a run green: a red line here
means the model genuinely disagrees with the claimed number.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BALANCED, FIG2, density_matrices, system_params
from spinsync import (
    QuadratureSpec,
    SystemParams,
    linear_regression,
    max_s_rel,
    mutual_information,
    negativity,
    p_single,
    purity,
    s_rel,
    schmidt_analysis,
    steady_state,
)
from spinsync.sweep import evaluate_point
from spinsync.operators import embed, joint_index, partial_trace, spin1_operators

RESULTS: list[str] = []

SREL_AMP = 9.0 * np.pi / 128.0
PEAK_REFERENCE = 0.021870
NEGATIVITY_REFERENCE = 0.101


def record(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)


def both_zero() -> np.ndarray:
    rho = np.zeros((9, 9), dtype=complex)
    rho[joint_index(0, 0), joint_index(0, 0)] = 1.0
    return rho


def test_criterion_1_uncoupled_fixed_point(quad):
    """Without coupling each pair parks on |0,0> with a flat phase profile."""
    cases = [
        SystemParams(),
        SystemParams(gamma_g_a=100.0, gamma_d_b=100.0),
        SystemParams(gamma_g_a=3.0, gamma_d_a=0.7, gamma_g_b=0.2, gamma_d_b=5.0, delta=0.9),
    ]
    worst_state = worst_flat = 0.0
    for params in cases:
        rho = steady_state(params)
        worst_state = max(worst_state, float(np.max(np.abs(rho - both_zero()))))
        worst_flat = max(worst_flat, float(np.max(np.abs(s_rel(rho, quad).values))))
    ok = worst_state <= 1e-10 and worst_flat <= 1e-10
    record(1, ok, f"state deviation {worst_state:.2e} <= 1e-10, "
                  f"flatness {worst_flat:.2e} <= 1e-10")
    assert worst_state <= 1e-10
    assert worst_flat <= 1e-10


def test_criterion_2_reference_locked_point(quad):
    """Reversed-cycle point: peak size and position, purity, negativity, speed."""
    start = time.perf_counter()
    rec = evaluate_point(FIG2, quad)[0]
    elapsed = time.perf_counter() - start

    peak_ok = rec.max_s_rel == pytest.approx(PEAK_REFERENCE, rel=0.05)
    phi_ok = rec.phi_at_max == 0.0
    purity_ok = rec.purity >= 0.99
    neg_ok = rec.negativity == pytest.approx(NEGATIVITY_REFERENCE, rel=0.05)
    time_ok = elapsed < 1.0

    detail = (
        f"peak {rec.max_s_rel:.6f} vs {PEAK_REFERENCE} "
        f"({abs(rec.max_s_rel / PEAK_REFERENCE - 1.0):.1%}, {'ok' if peak_ok else 'FAIL'}); "
        f"phi {rec.phi_at_max} ({'ok' if phi_ok else 'FAIL'}); "
        f"purity {rec.purity:.4f} >= 0.99 ({'ok' if purity_ok else 'FAIL'}); "
        f"negativity {rec.negativity:.5f} vs {NEGATIVITY_REFERENCE} "
        f"({abs(rec.negativity / NEGATIVITY_REFERENCE - 1.0):.1%}, {'ok' if neg_ok else 'FAIL'}); "
        f"runtime {elapsed:.3f}s < 1s ({'ok' if time_ok else 'FAIL'})"
    )
    record(2, all((peak_ok, phi_ok, purity_ok, neg_ok, time_ok)), detail)

    assert peak_ok, detail
    assert phi_ok, detail
    assert time_ok, detail
    assert purity_ok, detail
    assert neg_ok, detail


def test_criterion_3_first_order_coefficient(quad):
    """The quadrature pins the 9*pi/128 coherent-state coefficient."""
    eps_mu = 0.05
    rho = both_zero()
    rho[joint_index(1, -1), joint_index(0, 0)] = eps_mu
    rho[joint_index(0, 0), joint_index(1, -1)] = eps_mu
    _, amplitude = max_s_rel(s_rel(rho, quad))
    expected = SREL_AMP * eps_mu
    deviation = abs(amplitude / expected - 1.0)
    ok = deviation <= 1e-6
    record(3, ok, f"amplitude {amplitude:.9f} vs {expected:.9f} "
                  f"(relative deviation {deviation:.2e} <= 1e-6)")
    assert deviation <= 1e-6


def test_criterion_4_tongue_regressions(arnold):
    """Synchronization strength is a linear readout of the entanglement."""
    records, elapsed = arnold
    xs_neg = [r.negativity for r in records]
    xs_mi = [r.mutual_info for r in records]
    ys = [r.max_s_rel for r in records]

    vs_neg = linear_regression(xs_neg, ys)
    vs_mi = linear_regression(xs_mi, ys)

    slope_ok = 0.20 <= vs_neg.slope <= 0.26
    intercept_ok = abs(vs_neg.intercept) <= 1e-3
    r2_ok = vs_neg.r_squared >= 0.98
    mi_ok = vs_mi.slope > 0.0 and vs_mi.r_squared >= 0.9
    time_ok = elapsed < 60.0

    detail = (
        f"vs negativity: slope {vs_neg.slope:.4f} in [0.20, 0.26] "
        f"({'ok' if slope_ok else 'FAIL'}), intercept {vs_neg.intercept:.2e} "
        f"({'ok' if intercept_ok else 'FAIL'}), R2 {vs_neg.r_squared:.4f} >= 0.98 "
        f"({'ok' if r2_ok else 'FAIL'}); vs mutual info: slope {vs_mi.slope:.4f}, "
        f"R2 {vs_mi.r_squared:.4f} ({'ok' if mi_ok else 'FAIL'}); "
        f"sweep {elapsed:.1f}s < 60s ({'ok' if time_ok else 'FAIL'})"
    )
    record(4, all((slope_ok, intercept_ok, r2_ok, mi_ok, time_ok)), detail)

    assert slope_ok, detail
    assert intercept_ok, detail
    assert r2_ok, detail
    assert mi_ok, detail
    assert time_ok, detail


def test_criterion_5_identical_cycles_entangle_without_locking(quad):
    """Equal rates: no phase preference, yet strong entanglement at rank 3."""
    rec = evaluate_point(BALANCED, quad)[0]

    flat_ok = rec.max_s_rel <= 1e-3
    neg_ok = rec.negativity >= 0.18
    rank_ok = rec.schmidt_rank == 3

    detail = (
        f"max |S_rel| {rec.max_s_rel:.2e} <= 1e-3 ({'ok' if flat_ok else 'FAIL'}); "
        f"negativity {rec.negativity:.4f} >= 0.18 ({'ok' if neg_ok else 'FAIL'}); "
        f"Schmidt rank {rec.schmidt_rank} == 3 ({'ok' if rank_ok else 'FAIL'})"
    )
    record(5, all((flat_ok, neg_ok, rank_ok)), detail)

    assert flat_ok, detail
    assert rank_ok, detail
    assert neg_ok, detail


def test_criterion_6_balanced_cut_halves_the_correlations(balanced_cut):
    """Establishing phase locking cuts entanglement and correlations in half."""
    first, last = balanced_cut[0], balanced_cut[-1]
    neg_ratio = first.negativity / last.negativity
    mi_ratio = first.mutual_info / last.mutual_info
    ranks = [r.schmidt_rank for r in balanced_cut]

    neg_ok = neg_ratio == pytest.approx(2.0, rel=0.10)
    mi_ok = mi_ratio == pytest.approx(2.0, rel=0.10)
    rank_ok = (
        ranks[0] == 3
        and ranks[-1] == 2
        and all(a >= b for a, b in zip(ranks, ranks[1:]))
    )

    detail = (
        f"negativity ratio {neg_ratio:.4f} ~ 2 ({'ok' if neg_ok else 'FAIL'}); "
        f"mutual-info ratio {mi_ratio:.4f} ~ 2 ({'ok' if mi_ok else 'FAIL'}); "
        f"rank path 3->2 monotone ({'ok' if rank_ok else 'FAIL'})"
    )
    record(6, all((neg_ok, mi_ok, rank_ok)), detail)

    assert neg_ok, detail
    assert mi_ok, detail
    assert rank_ok, detail


def test_criterion_7_transient_locking_matches_oracle(fig2_dynamics):
    """The RK4 transient follows the two-exponential buildup of the peak."""
    by_time = {row.t: row for row in fig2_dynamics}
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        row = by_time[t]
        worst = max(worst, abs(row.s_rel_peak / row.s_rel_peak_oracle - 1.0))
    drift = max(row.trace_error for row in fig2_dynamics)

    dev_ok = worst <= 0.05
    drift_ok = drift <= 1e-8
    record(7, dev_ok and drift_ok,
           f"worst oracle deviation {worst:.2%} <= 5%, trace drift {drift:.2e} <= 1e-8")
    assert dev_ok
    assert drift_ok


class TestCriterion8SymmetrySuite:
    """Property-based invariances of the steady state and the quadrature."""

    checked = {"omega": 0, "symmetry": 0, "doubling": 0}

    @settings(max_examples=15, deadline=None)
    @given(omega=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_reference_frequency_invariance(self, omega, fig2_steady):
        rho = steady_state(dataclasses.replace(FIG2, omega_ref=omega))
        assert np.max(np.abs(rho - fig2_steady)) <= 1e-9
        self.checked["omega"] += 1

    @settings(max_examples=15, deadline=None)
    @given(params=system_params())
    def test_excitation_conservation_and_flat_marginals(self, params, quad):
        rho = steady_state(params)
        sz = spin1_operators()[0]
        sz_tot = embed(sz, "A") + embed(sz, "B")
        assert np.max(np.abs(sz_tot @ rho - rho @ sz_tot)) <= 1e-10
        for site in ("A", "B"):
            dist = p_single(partial_trace(rho, site), quad)
            assert np.max(np.abs(dist.values)) <= 1e-8
        self.checked["symmetry"] += 1

    @settings(max_examples=10, deadline=None)
    @given(rho=density_matrices())
    def test_quadrature_node_doubling(self, rho, quad):
        dense = QuadratureSpec(n_theta=64, n_phi=64, n_phi_out=64)
        diff = np.max(np.abs(s_rel(rho, quad).values - s_rel(rho, dense).values))
        assert diff <= 1e-12
        self.checked["doubling"] += 1

    def test_suite_report(self):
        counts = dict(self.checked)
        ok = all(v > 0 for v in counts.values())
        record(8, ok, f"invariance examples passed: {counts['omega']} frequency shifts, "
                      f"{counts['symmetry']} conservation/marginal points, "
                      f"{counts['doubling']} quadrature doublings")
        assert ok


def test_criterion_9_oracle_error_shrinks_quadratically():
    """Halving the coupling cuts the numerics-oracle gap by far more than half."""
    def deviation(eps: float) -> float:
        rec = evaluate_point(dataclasses.replace(FIG2, epsilon=eps))[0]
        return abs(rec.max_s_rel - rec.s_rel_fo)

    dev_strong = deviation(0.1)
    dev_weak = deviation(0.05)
    ratio = dev_strong / dev_weak
    ok = ratio >= 3.0
    record(9, ok, f"deviation {dev_strong:.3e} at eps=0.1 vs {dev_weak:.3e} at "
                  f"eps=0.05, ratio {ratio:.2f} >= 3")
    assert ok
