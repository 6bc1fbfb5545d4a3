import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import BALANCED, FIG2, wide_range_params
from spinsync import (
    STEADY,
    SystemParams,
    coherences,
    decay_rates,
    first_order_state,
    negativity,
    negativity_first_order,
    s_rel_first_order,
    s_rel_peak_first_order,
)
from spinsync.first_order import SREL_COEFF, first_order_stack
from spinsync.liouvillian import as_weights
from spinsync.operators import joint_index

DETUNED = SystemParams(
    gamma_g_a=2.0, gamma_d_a=1.0, gamma_g_b=0.8, gamma_d_b=1.4, epsilon=0.08, delta=0.6
)


def srel_holomorphic(params: SystemParams, phi: float, t: complex) -> complex:
    """Analytic-in-t continuation of s_rel_first_order, real on the real axis.

    Re[f(t)] is not analytic, so the conjugated half is rebuilt by Schwarz
    reflection, conj(g(conj t)), which lets a complex-step derivative probe
    the real function to machine precision.
    """
    mu = coherences(params, t)
    mirror = coherences(params, np.conj(t))
    direct = np.exp(1j * phi) * (mu.mu_plus + np.conj(mirror.mu_minus))
    reflected = np.conj(np.exp(1j * phi) * (mirror.mu_plus + np.conj(mu.mu_minus)))
    return SREL_COEFF * params.epsilon * 0.5 * (direct + reflected)


class TestDecayRates:
    def test_reference_point(self):
        lam_plus, lam_minus = decay_rates(FIG2)
        assert lam_plus == pytest.approx(1.0, abs=1e-15)
        assert lam_minus == pytest.approx(100.0, abs=1e-13)

    def test_detuning_enters_with_opposite_signs(self):
        lam_plus, lam_minus = decay_rates(DETUNED)
        assert lam_plus == pytest.approx(0.9 + 0.6j, abs=1e-15)
        assert lam_minus == pytest.approx(1.7 - 0.6j, abs=1e-15)


class TestCoherences:
    def test_start_from_zero(self):
        mu = coherences(FIG2, t=0.0)
        assert mu.mu_plus == 0.0
        assert mu.mu_minus == 0.0

    def test_steady_limit_at_reference_point(self):
        mu = coherences(FIG2)
        assert mu.mu_plus == pytest.approx(1.0, abs=1e-15)
        assert mu.mu_minus == pytest.approx(-0.01, abs=1e-17)

    def test_long_time_limit_matches_steady(self):
        late = coherences(DETUNED, t=80.0)
        steady = coherences(DETUNED, t=STEADY)
        assert late.mu_plus == pytest.approx(steady.mu_plus, abs=1e-14)
        assert late.mu_minus == pytest.approx(steady.mu_minus, abs=1e-14)

    def test_identical_oscillators_cancel(self):
        mu = coherences(BALANCED)
        assert mu.mu_plus + np.conj(mu.mu_minus) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_resonant_coherences_stay_signed_and_bounded(self, t):
        mu = coherences(dataclasses.replace(DETUNED, delta=0.0), t=t)
        assert abs(mu.mu_plus.imag) <= 1e-16 and abs(mu.mu_minus.imag) <= 1e-16
        assert 0.0 <= mu.mu_plus.real <= 1.0 / 0.9 + 1e-12
        assert -1.0 / 1.7 - 1e-12 <= mu.mu_minus.real <= 0.0

    def test_detuning_reversal_conjugates(self):
        mu = coherences(DETUNED, t=0.7)
        flipped = coherences(dataclasses.replace(DETUNED, delta=-0.6), t=0.7)
        assert flipped.mu_plus == pytest.approx(np.conj(mu.mu_plus), abs=1e-15)
        assert flipped.mu_minus == pytest.approx(np.conj(mu.mu_minus), abs=1e-15)

    def test_zero_decay_rate_rejected(self):
        undamped = SystemParams(gamma_g_a=0.0, gamma_d_b=0.0)
        with pytest.raises(ValueError):
            coherences(undamped)
        with pytest.raises(ValueError):
            coherences(undamped, t=1.0)


class TestSRelFirstOrder:
    def test_reference_point_peak(self):
        assert s_rel_first_order(FIG2, 0.0) == pytest.approx(0.021870, rel=1e-4)

    def test_closed_form_at_reference_point(self):
        expected = SREL_COEFF * 0.1 * (1.0 - 0.01)
        assert s_rel_first_order(FIG2, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_identical_oscillators_stay_flat(self):
        for phi in np.linspace(0.0, 2.0 * np.pi, 9):
            assert s_rel_first_order(BALANCED, phi) == pytest.approx(0.0, abs=1e-15)

    def test_antiphase_is_the_negative(self):
        for phi in (0.0, 0.4, 2.2):
            assert s_rel_first_order(DETUNED, phi + np.pi) == pytest.approx(
                -s_rel_first_order(DETUNED, phi), abs=1e-15
            )

    def test_peak_sits_at_zero_phase_when_drive_dominates(self):
        phis = np.linspace(0.0, 2.0 * np.pi, 129)
        values = [s_rel_first_order(FIG2, p) for p in phis]
        assert int(np.argmax(values)) in (0, 128)

    def test_scales_linearly_in_coupling(self):
        weak = dataclasses.replace(DETUNED, epsilon=0.01)
        strong = dataclasses.replace(DETUNED, epsilon=0.05)
        assert s_rel_first_order(strong, 1.3) == pytest.approx(
            5.0 * s_rel_first_order(weak, 1.3), rel=1e-13
        )

    def test_transient_growth_rate(self):
        # d/dt s_rel = coeff * eps * (e^{-(gda+ggb)t/2} - e^{-(gga+gdb)t/2}) cos(phi - delta*t),
        # checked against a complex-step derivative of the analytic continuation
        h = 1e-5
        for t in (0.3, 1.2):
            for phi in (0.0, 1.1):
                anchor = srel_holomorphic(DETUNED, phi, t)
                assert anchor.imag == pytest.approx(0.0, abs=1e-15)
                assert anchor.real == pytest.approx(s_rel_first_order(DETUNED, phi, t), abs=1e-15)
                derivative = srel_holomorphic(DETUNED, phi, t + 1j * h).imag / h
                expected = (
                    SREL_COEFF
                    * DETUNED.epsilon
                    * (np.exp(-0.9 * t) - np.exp(-1.7 * t))
                    * np.cos(phi - 0.6 * t)
                )
                assert derivative == pytest.approx(expected, abs=1e-12)


class TestSRelPeakFirstOrder:
    @pytest.mark.parametrize("t", [STEADY, 0.0, 0.7, 3.0])
    def test_is_the_maximum_over_phi(self, t):
        phis = np.linspace(0.0, 2.0 * np.pi, 4097)
        values = [s_rel_first_order(DETUNED, p, t) for p in phis]
        assert s_rel_peak_first_order(DETUNED, t) == pytest.approx(max(values), rel=1e-6)
        assert s_rel_peak_first_order(DETUNED, t) >= max(values) - 1e-15


class TestNegativityFirstOrder:
    def test_reference_point(self):
        assert negativity_first_order(FIG2) == pytest.approx(0.101, abs=1e-15)

    def test_identical_oscillators(self):
        assert negativity_first_order(BALANCED) == pytest.approx(0.2, abs=1e-15)

    def test_uncoupled_pair(self):
        assert negativity_first_order(dataclasses.replace(FIG2, epsilon=0.0)) == 0.0

    def test_vanishes_at_zero_time(self):
        assert negativity_first_order(FIG2, t=0.0) == 0.0

    @pytest.mark.parametrize("params", [FIG2, BALANCED, DETUNED])
    def test_matches_exact_negativity_of_its_own_state(self, params):
        psi = first_order_state(params)
        exact = negativity(np.outer(psi, psi.conj()))
        assert negativity_first_order(params) == pytest.approx(exact, rel=0.05)


class TestStackedOracle:
    """first_order_stack's peak and negativity against the single-point functions."""

    def test_bitwise_the_single_point_values(self):
        # Wide-range draws, the same draws with exact, signed-zero, tiny and
        # huge detunings, and both zero-rate refusals.
        rng = np.random.default_rng(808)
        points = [wide_range_params(rng) for _ in range(2000)]
        points += [dataclasses.replace(p, delta=d) for p, d in zip(
            points[:500], [0.0, -0.0, 5e-324, -1e-300, 1e300] * 100)]
        points += [SystemParams(gamma_g_a=0.0, gamma_d_b=0.0),
                   SystemParams(gamma_d_a=5e-324, gamma_g_b=0.0),
                   dataclasses.replace(DETUNED, gamma_g_a=0.0, gamma_d_b=0.0)]
        stack = first_order_stack(as_weights(points))
        for params, peak, neg, ok in zip(points, stack.s_rel_peak, stack.negativity,
                                         stack.defined):
            try:
                want = (s_rel_peak_first_order(params), negativity_first_order(params))
            except ValueError:
                assert not ok and np.isnan(peak) and np.isnan(neg)
                continue
            assert ok and np.array([peak, neg]).tobytes() == np.array(want).tobytes(), params
        assert 0 < np.count_nonzero(~stack.defined) < len(points)

    def test_undefined_oracle_is_nan_at_steady_and_at_every_time(self):
        # gamma_g_a = gamma_d_b = delta = 0 makes lam_minus vanish.
        undefined = as_weights([SystemParams(gamma_g_a=0.0, gamma_d_b=0.0)])
        steady = first_order_stack(undefined)
        assert not steady.defined[0]
        assert np.isnan(steady.s_rel_peak[0]) and np.isnan(steady.negativity[0])
        times = np.linspace(0.0, 5.0, 11)
        trace = first_order_stack(undefined, times)
        assert trace.s_rel_peak.shape == trace.negativity.shape == (11,)
        assert np.all(np.isnan(trace.s_rel_peak)) and np.all(np.isnan(trace.negativity))
        # A defined point gets each time's single-point values, bit for bit.
        trace = first_order_stack(as_weights([DETUNED]), times)
        want = [(s_rel_peak_first_order(DETUNED, t), negativity_first_order(DETUNED, t))
                for t in times.tolist()]
        got = np.stack([trace.s_rel_peak, trace.negativity], axis=-1)
        assert got.tobytes() == np.array(want).tobytes()

    def test_empty_stack(self):
        stack = first_order_stack(np.empty((0, 7)))
        assert stack.s_rel_peak.shape == stack.negativity.shape == stack.defined.shape == (0,)


class TestFirstOrderState:
    def test_uncoupled_limit(self):
        psi = first_order_state(dataclasses.replace(FIG2, epsilon=0.0))
        expected = np.zeros(9)
        expected[joint_index(0, 0)] = 1.0
        assert_allclose(psi, expected, atol=1e-15)

    def test_reference_point_components(self):
        psi = first_order_state(FIG2)
        norm = np.sqrt(1.0 + 0.1**2 + 0.001**2)
        assert psi[joint_index(0, 0)] == pytest.approx(1.0 / norm, abs=1e-15)
        assert psi[joint_index(1, -1)] == pytest.approx(0.1 / norm, abs=1e-15)
        assert psi[joint_index(-1, 1)] == pytest.approx(-0.001 / norm, abs=1e-15)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)

    def test_tracks_dominant_steady_eigenvector(self, fig2_steady):
        psi = first_order_state(FIG2)
        _, vecs = np.linalg.eigh(fig2_steady)
        overlap = abs(np.vdot(vecs[:, -1], psi))
        assert overlap >= 0.999
