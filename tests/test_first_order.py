import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import BALANCED, FIG2, wide_range_params
from oracles import first_order_state, s_rel_first_order
from spinsync import STEADY, SystemParams, first_order_stack, negativity
from spinsync.first_order import SREL_COEFF
from spinsync.liouvillian import as_weights
from spinsync.operators import joint_index

DETUNED = SystemParams(
    gamma_g_a=2.0, gamma_d_a=1.0, gamma_g_b=0.8, gamma_d_b=1.4, epsilon=0.08, delta=0.6
)


def coherences(params: SystemParams, t: complex | None = STEADY) -> tuple[complex, complex]:
    """(mu_plus, mu_minus) of one point at time t."""
    stack = first_order_stack([params], t)
    return complex(stack.mu_plus[0]), complex(stack.mu_minus[0])


def peak_and_negativity(params: SystemParams, t: float | None = STEADY) -> tuple[float, float]:
    """The first-order S_rel peak and negativity of one point at time t."""
    stack = first_order_stack([params], t)
    return float(stack.s_rel_peak[0]), float(stack.negativity[0])


def srel_holomorphic(params: SystemParams, phi: float, t: complex) -> complex:
    """Analytic-in-t continuation of s_rel_first_order, real on the real axis.

    Re[f(t)] is not analytic, so the conjugated half is rebuilt by Schwarz
    reflection, conj(g(conj t)), which lets a complex-step derivative probe
    the real function to machine precision.
    """
    mu_plus, mu_minus = coherences(params, t)
    mirror_plus, mirror_minus = coherences(params, np.conj(t))
    direct = np.exp(1j * phi) * (mu_plus + np.conj(mirror_minus))
    reflected = np.conj(np.exp(1j * phi) * (mirror_plus + np.conj(mu_minus)))
    return SREL_COEFF * params.epsilon * 0.5 * (direct + reflected)


class TestDecayRates:
    def test_reference_point(self):
        stack = first_order_stack([FIG2])
        lam_plus, lam_minus = stack.lam_plus[0], stack.lam_minus[0]
        assert lam_plus == pytest.approx(1.0, abs=1e-15)
        assert lam_minus == pytest.approx(100.0, abs=1e-13)

    def test_detuning_enters_with_opposite_signs(self):
        stack = first_order_stack([DETUNED])
        lam_plus, lam_minus = stack.lam_plus[0], stack.lam_minus[0]
        assert lam_plus == pytest.approx(0.9 + 0.6j, abs=1e-15)
        assert lam_minus == pytest.approx(1.7 - 0.6j, abs=1e-15)


class TestCoherences:
    def test_start_from_zero(self):
        mu_plus, mu_minus = coherences(FIG2, t=0.0)
        assert mu_plus == 0.0
        assert mu_minus == 0.0

    def test_steady_limit_at_reference_point(self):
        mu_plus, mu_minus = coherences(FIG2)
        assert mu_plus == pytest.approx(1.0, abs=1e-15)
        assert mu_minus == pytest.approx(-0.01, abs=1e-17)

    def test_long_time_limit_matches_steady(self):
        late = coherences(DETUNED, t=80.0)
        steady = coherences(DETUNED, t=STEADY)
        assert late[0] == pytest.approx(steady[0], abs=1e-14)
        assert late[1] == pytest.approx(steady[1], abs=1e-14)

    def test_identical_oscillators_cancel(self):
        mu_plus, mu_minus = coherences(BALANCED)
        assert mu_plus + np.conj(mu_minus) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_resonant_coherences_stay_signed_and_bounded(self, t):
        mu_plus, mu_minus = coherences(dataclasses.replace(DETUNED, delta=0.0), t=t)
        assert abs(mu_plus.imag) <= 1e-16 and abs(mu_minus.imag) <= 1e-16
        assert 0.0 <= mu_plus.real <= 1.0 / 0.9 + 1e-12
        assert -1.0 / 1.7 - 1e-12 <= mu_minus.real <= 0.0

    def test_detuning_reversal_conjugates(self):
        mu_plus, mu_minus = coherences(DETUNED, t=0.7)
        flipped = coherences(dataclasses.replace(DETUNED, delta=-0.6), t=0.7)
        assert flipped[0] == pytest.approx(np.conj(mu_plus), abs=1e-15)
        assert flipped[1] == pytest.approx(np.conj(mu_minus), abs=1e-15)

    def test_zero_decay_rate_is_undefined(self):
        undamped = SystemParams(gamma_g_a=0.0, gamma_d_b=0.0)
        for t in (STEADY, 1.0):
            stack = first_order_stack([undamped], t)
            assert not stack.defined[0]
            assert np.isnan(stack.s_rel_peak[0]) and np.isnan(stack.negativity[0])


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
        peak = peak_and_negativity(DETUNED, t)[0]
        assert peak == pytest.approx(max(values), rel=1e-6)
        assert peak >= max(values) - 1e-15


class TestNegativityFirstOrder:
    def test_reference_point(self):
        assert peak_and_negativity(FIG2)[1] == pytest.approx(0.101, abs=1e-15)

    def test_identical_oscillators(self):
        assert peak_and_negativity(BALANCED)[1] == pytest.approx(0.2, abs=1e-15)

    def test_uncoupled_pair(self):
        assert peak_and_negativity(dataclasses.replace(FIG2, epsilon=0.0))[1] == 0.0

    def test_vanishes_at_zero_time(self):
        assert peak_and_negativity(FIG2, t=0.0)[1] == 0.0

    @pytest.mark.parametrize("params", [FIG2, BALANCED, DETUNED])
    def test_matches_exact_negativity_of_its_own_state(self, params):
        psi = first_order_state(params)
        exact = negativity(np.outer(psi, psi.conj()))
        assert peak_and_negativity(params)[1] == pytest.approx(exact, rel=0.05)


class TestStackedOracle:
    """first_order_stack on a sequence of points, on their weights, and on each point alone."""

    def test_bitwise_the_single_point_values(self):
        # Wide-range draws, the same draws with exact, signed-zero, tiny and
        # huge detunings, and both zero-rate refusals, at STEADY and at an
        # array of times.
        rng = np.random.default_rng(808)
        points = [wide_range_params(rng) for _ in range(2000)]
        points += [dataclasses.replace(p, delta=d) for p, d in zip(
            points[:500], [0.0, -0.0, 5e-324, -1e-300, 1e300] * 100)]
        points += [SystemParams(gamma_g_a=0.0, gamma_d_b=0.0),
                   SystemParams(gamma_d_a=5e-324, gamma_g_b=0.0),
                   dataclasses.replace(DETUNED, gamma_g_a=0.0, gamma_d_b=0.0)]
        times = np.linspace(0.0, 5.0, 11)
        for t, column in ((STEADY, STEADY), (times, times[:, None])):
            stack = first_order_stack(points, column)
            for field, array in zip(stack._fields, first_order_stack(as_weights(points),
                                                                     column)):
                assert array.tobytes() == getattr(stack, field).tobytes(), field
            for i, params in enumerate(points):
                alone = first_order_stack([params], t)
                for field, values in zip(stack._fields, alone):
                    got = np.broadcast_to(getattr(stack, field), stack.s_rel_peak.shape)[..., i]
                    want = np.broadcast_to(values, alone.s_rel_peak.shape)
                    assert got.tobytes() == want.tobytes(), (field, params)
            undefined = ~stack.defined
            assert np.all(np.isnan(stack.s_rel_peak[..., undefined]))
            assert np.all(np.isnan(stack.negativity[..., undefined]))
            assert 0 < np.count_nonzero(undefined) < len(points)

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
        want = [peak_and_negativity(DETUNED, t) for t in times.tolist()]
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
