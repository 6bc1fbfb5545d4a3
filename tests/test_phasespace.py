import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import density_matrices, random_density
from quadrature import quadrature_p_single, quadrature_s_rel
from spinsync import (
    PhaseDistribution,
    QuadratureSpec,
    coherent_state,
    first_order_state,
    husimi_joint,
    husimi_single,
    max_s_rel,
    p_single,
    s_rel,
    s_rel_first_order,
)
from spinsync.operators import joint_index, partial_trace, spin1_operators
from spinsync.phasespace import HUSIMI_NORM, TIE_ATOL, max_s_rel_stack

SREL_AMP = 9.0 * np.pi / 128.0

# Node counts from the smallest at which Gauss-Legendre is converged to
# roundoff up to well past the default, phi_B rules of both parities, and
# output grids from a single phase up to the default.
N_THETA = (12, 32, 64)
N_PHI = (8, 13, 32)
N_PHI_OUT = (1, 7, 64)


def hermitian_locked_state(eps_mu_plus: complex, eps_mu_minus: complex = 0.0) -> np.ndarray:
    """|0,0><0,0| dressed with the two exchange coherences and their adjoints."""
    rho = np.zeros((9, 9), dtype=complex)
    rho[joint_index(0, 0), joint_index(0, 0)] = 1.0
    rho[joint_index(1, -1), joint_index(0, 0)] = eps_mu_plus
    rho[joint_index(0, 0), joint_index(1, -1)] = np.conj(eps_mu_plus)
    rho[joint_index(-1, 1), joint_index(0, 0)] = eps_mu_minus
    rho[joint_index(0, 0), joint_index(-1, 1)] = np.conj(eps_mu_minus)
    return rho


class TestQuadratureSpec:
    def test_defaults(self):
        quad = QuadratureSpec()
        assert (quad.n_theta, quad.n_phi, quad.n_phi_out) == (32, 32, 64)

    @pytest.mark.parametrize(
        "kwargs", [{"n_theta": 7}, {"n_phi": 4}, {"n_phi_out": 0}]
    )
    def test_rejects_too_few_nodes(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestCoherentState:
    def test_poles(self):
        assert_allclose(coherent_state(0.0, 1.2), [1.0, 0.0, 0.0], atol=1e-15)
        south = coherent_state(np.pi, 0.7)
        assert_allclose(south[:2], [0.0, 0.0], atol=1e-15)
        assert south[2] == pytest.approx(np.exp(2j * 0.7), abs=1e-15)

    def test_equator(self):
        amp = coherent_state(np.pi / 2.0, 0.0)
        assert_allclose(amp, [0.5, np.sqrt(0.5), 0.5], atol=1e-12)

    def test_normalized_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            theta = rng.uniform(0.0, np.pi)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            assert np.linalg.norm(coherent_state(theta, phi)) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (3.5, 0.0), (0.5, -0.1), (0.5, 7.0)])
    def test_rejects_out_of_range_angles(self, theta, phi):
        with pytest.raises(ValueError):
            coherent_state(theta, phi)


class TestHusimiSingle:
    def test_peak_of_top_state(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert husimi_single(rho, 0.0, 0.0) == pytest.approx(HUSIMI_NORM, abs=1e-14)
        assert husimi_single(rho, np.pi, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_limit_cycle_state_is_phase_symmetric(self):
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        for theta in (0.3, 1.1, 2.4):
            expected = HUSIMI_NORM * 0.5 * np.sin(theta) ** 2
            for phi in (0.0, 1.0, 4.0):
                assert husimi_single(rho, theta, phi) == pytest.approx(expected, abs=1e-13)

    def test_normalization(self):
        rho = random_density(np.random.default_rng(5), 3)
        x, w = leggauss(16)
        thetas = 0.5 * np.pi * (x + 1.0)
        phis = 2.0 * np.pi * np.arange(9) / 9.0
        total = sum(
            0.5 * np.pi * wt * np.sin(t) * (2.0 * np.pi / 9.0) * husimi_single(rho, t, p)
            for t, wt in zip(thetas, w)
            for p in phis
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            husimi_single(np.eye(9) / 9.0, 0.5, 0.5)


class TestHusimiJoint:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(9)
        rho_a, rho_b = random_density(rng, 3), random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        for angles in ((0.4, 1.0, 2.0, 5.0), (1.3, 2.8, 0.0, 3.1)):
            ta, tb, pa, pb = angles
            expected = husimi_single(rho_a, ta, pa) * husimi_single(rho_b, tb, pb)
            assert husimi_joint(joint, ta, tb, pa, pb) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        rho = random_density(np.random.default_rng(13), 9)
        x, w = leggauss(10)
        thetas = 0.5 * np.pi * (x + 1.0)
        tw = 0.5 * np.pi * w * np.sin(thetas)
        phis = 2.0 * np.pi * np.arange(9) / 9.0
        pw = 2.0 * np.pi / 9.0
        total = 0.0
        for ta, wa in zip(thetas, tw):
            for tb, wb in zip(thetas, tw):
                for pa in phis:
                    for pb in phis:
                        total += wa * wb * pw * pw * husimi_joint(rho, ta, tb, pa, pb)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            husimi_joint(np.eye(3) / 3.0, 0.5, 0.5, 0.5, 0.5)


class TestSRel:
    def test_grid_layout(self, quad):
        dist = s_rel(hermitian_locked_state(0.0), quad)
        assert len(dist.phis) == quad.n_phi_out
        assert_allclose(dist.phis, 2.0 * np.pi * np.arange(64) / 64.0, atol=1e-15)

    def test_grid_is_shared_read_only(self, quad):
        # Every profile on one grid size shares its phases, so no caller
        # can change them for the next.
        first = s_rel(hermitian_locked_state(0.0), quad)
        second = p_single(np.eye(3) / 3.0, quad)
        assert first.phis is second.phis
        with pytest.raises(ValueError):
            first.phis[0] = 1.0
        assert second.phis[0] == 0.0

    def test_unlocked_state_is_flat(self, quad):
        dist = s_rel(hermitian_locked_state(0.0), quad)
        assert np.max(np.abs(dist.values)) <= 1e-13

    def test_any_diagonal_state_is_flat(self, quad):
        rng = np.random.default_rng(21)
        probs = rng.dirichlet(np.ones(9))
        dist = s_rel(np.diag(probs).astype(complex), quad)
        assert np.max(np.abs(dist.values)) <= 1e-13

    def test_single_coherence_gives_cosine(self, quad):
        dist = s_rel(hermitian_locked_state(0.05), quad)
        assert_allclose(dist.values, SREL_AMP * 0.05 * np.cos(dist.phis), atol=1e-12)

    def test_counter_coherence_gives_shifted_cosine(self, quad):
        # the mu_minus channel enters through its conjugate
        dist = s_rel(hermitian_locked_state(0.0, 0.03j), quad)
        expected = SREL_AMP * np.real(np.exp(1j * dist.phis) * np.conj(0.03j))
        assert_allclose(dist.values, expected, atol=1e-12)

    def test_integrates_to_zero(self, quad, fig2_steady):
        dist = s_rel(fig2_steady, quad)
        assert abs(np.mean(dist.values) * 2.0 * np.pi) <= 1e-10

    def test_node_doubling_is_converged(self, fig2_steady, quad):
        dense = QuadratureSpec(n_theta=64, n_phi=64, n_phi_out=64)
        assert_allclose(
            s_rel(fig2_steady, quad).values, s_rel(fig2_steady, dense).values, atol=1e-12
        )

    def test_phi_rule_is_exact_at_eight_nodes(self, fig2_steady, quad):
        sparse = QuadratureSpec(n_theta=32, n_phi=8, n_phi_out=64)
        assert_allclose(
            s_rel(fig2_steady, quad).values, s_rel(fig2_steady, sparse).values, atol=1e-13
        )

    def test_common_rotation_invariance(self, fig2_steady, quad):
        sz, _, _ = spin1_operators()
        u = np.kron(expm(-0.37j * sz), expm(-0.37j * sz))
        rotated = u @ fig2_steady @ u.conj().T
        assert_allclose(s_rel(rotated, quad).values, s_rel(fig2_steady, quad).values, atol=1e-10)

    def test_single_site_rotation_shifts_the_grid(self, fig2_steady, quad):
        sz, _, _ = spin1_operators()
        shift = 5
        alpha = 2.0 * np.pi * shift / quad.n_phi_out
        u = np.kron(expm(-1j * alpha * sz), np.eye(3))
        rotated = u @ fig2_steady @ u.conj().T
        assert_allclose(
            s_rel(rotated, quad).values,
            np.roll(s_rel(fig2_steady, quad).values, shift),
            atol=1e-10,
        )

    def test_oracle_proximity_at_reference_point(self, fig2_params, fig2_steady, quad):
        phi, value = max_s_rel(s_rel(fig2_steady, quad))
        oracle = s_rel_first_order(fig2_params, 0.0)
        assert phi == 0.0
        assert value == pytest.approx(oracle, rel=0.05)

    def test_first_order_state_reproduces_oracle_curve(self, fig2_params, quad):
        # agreement is limited by the eps^2 weight the normalized state
        # carries outside the |0,0> component
        psi = first_order_state(fig2_params)
        dist = s_rel(np.outer(psi, psi.conj()), quad)
        expected = [s_rel_first_order(fig2_params, p) for p in dist.phis]
        assert_allclose(dist.values, expected, atol=5e-4)

    def test_rejects_non_hermitian(self):
        rho = np.zeros((9, 9), dtype=complex)
        rho[4, 4] = 1.0
        rho[2, 4] = 0.1
        with pytest.raises(ValueError):
            s_rel(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            s_rel(np.eye(3, dtype=complex) / 3.0)


class TestClosedFormAgainstQuadrature:
    """The closed-form integrals equal the numerical quadrature they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        rho=density_matrices(),
        n_theta=st.sampled_from(N_THETA),
        n_phi=st.sampled_from(N_PHI),
        n_phi_out=st.sampled_from(N_PHI_OUT),
    )
    def test_single_states(self, rho, n_theta, n_phi, n_phi_out):
        quad = QuadratureSpec(n_theta=n_theta, n_phi=n_phi, n_phi_out=n_phi_out)
        dist = s_rel(rho, quad)
        phis, values = quadrature_s_rel(rho, quad)
        assert np.array_equal(dist.phis, phis)
        assert np.max(np.abs(dist.values - values)) <= 1e-13
        for site in ("A", "B"):
            marginal = partial_trace(rho, site)
            dist = p_single(marginal, quad)
            phis, values = quadrature_p_single(marginal, quad)
            assert np.array_equal(dist.phis, phis)
            assert np.max(np.abs(dist.values - values)) <= 1e-13

    @pytest.mark.parametrize("n_phi_out", N_PHI_OUT)
    @pytest.mark.parametrize("n_phi", N_PHI)
    @pytest.mark.parametrize("n_theta", N_THETA)
    def test_stack(self, n_theta, n_phi, n_phi_out):
        rng = np.random.default_rng(41)
        rhos = np.array([random_density(rng, 9) for _ in range(16)])
        quad = QuadratureSpec(n_theta=n_theta, n_phi=n_phi, n_phi_out=n_phi_out)
        values = s_rel(rhos, quad).values
        assert values.shape == (16, n_phi_out)
        assert np.max(np.abs(values - quadrature_s_rel(rhos, quad)[1])) <= 1e-13


class TestPSingle:
    def test_limit_cycle_marginal_is_flat(self, quad):
        dist = p_single(np.diag([0.2, 0.5, 0.3]).astype(complex), quad)
        assert np.max(np.abs(dist.values)) <= 1e-13

    def test_coherent_state_peaks_at_its_phase(self, quad):
        phi0 = 2.0 * np.pi * 10.0 / 64.0
        amp = coherent_state(np.pi / 2.0, phi0)
        dist = p_single(np.outer(amp, amp.conj()), quad)
        peak_phi, peak_value = max_s_rel(dist)
        assert peak_phi == pytest.approx(phi0, abs=1e-14)
        assert peak_value > 0.0

    def test_integrates_to_zero(self, quad):
        rho = random_density(np.random.default_rng(29), 3)
        dist = p_single(rho, quad)
        assert abs(np.mean(dist.values) * 2.0 * np.pi) <= 1e-10

    def test_steady_state_marginals_are_flat(self, fig2_steady, quad):
        for site in ("A", "B"):
            dist = p_single(partial_trace(fig2_steady, site), quad)
            assert np.max(np.abs(dist.values)) <= 1e-8

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            p_single(np.eye(9, dtype=complex) / 9.0)


class TestMaxSRel:
    def test_flat_distribution_returns_first_node(self):
        phis = 2.0 * np.pi * np.arange(64) / 64.0
        assert max_s_rel(PhaseDistribution(phis, np.zeros(64))) == (0.0, 0.0)

    def test_cosine_peaks_at_zero(self):
        phis = 2.0 * np.pi * np.arange(64) / 64.0
        phi, value = max_s_rel(PhaseDistribution(phis, 0.1 * np.cos(phis)))
        assert (phi, value) == (0.0, pytest.approx(0.1))

    def test_shifted_cosine_peaks_on_grid(self):
        phis = 2.0 * np.pi * np.arange(64) / 64.0
        shifted = 0.1 * np.cos(phis - phis[16])
        phi, value = max_s_rel(PhaseDistribution(phis, shifted))
        assert phi == pytest.approx(phis[16], abs=1e-14)
        assert value == pytest.approx(0.1, abs=1e-14)

    def test_mirrored_peaks_tie_to_smaller_phi(self):
        # A profile symmetric under phi -> 2 pi - phi has equal peaks at
        # phis[7] and phis[57]; roundoff that lifts the later one by an ulp
        # must not move the reported phase.
        phis = 2.0 * np.pi * np.arange(64) / 64.0
        values = np.exp(8.0 * np.cos(phis - phis[7])) + np.exp(8.0 * np.cos(phis + phis[7]))
        values[57] = np.nextafter(values[7], np.inf)
        phi, value = max_s_rel(PhaseDistribution(phis, values))
        assert int(np.argmax(values)) == 57
        assert phi == phis[7]
        assert value == values[7]

    def test_flat_profile_with_roundoff_noise_peaks_at_zero(self):
        # A profile flat in exact arithmetic, perturbed by up to two ulps of
        # the background 1/(2 pi) that every value carries: its phase is
        # 0, in every row of a stack, whatever the noise.
        phis = 2.0 * np.pi * np.arange(64) / 64.0
        ulp = np.spacing(1.0 / (2.0 * np.pi))
        noise = np.random.default_rng(18).integers(-2, 3, size=(50, 64)) * ulp
        noise[:, 0] = -2 * ulp
        phi, value = max_s_rel_stack(PhaseDistribution(phis, noise))
        assert np.all(phi == 0.0)
        assert np.array_equal(value, noise[:, 0])
        assert 2 * ulp < TIE_ATOL

    def test_structure_above_the_floor_is_resolved(self):
        # The peak stands 5e-15 above its neighbours, far above TIE_ATOL.
        phis = 2.0 * np.pi * np.arange(64) / 64.0
        phi, _ = max_s_rel(PhaseDistribution(phis, 1e-12 * np.cos(phis - phis[16])))
        assert phi == phis[16]

    def test_empty_distribution_raises(self):
        with pytest.raises(ValueError):
            max_s_rel(PhaseDistribution(np.array([]), np.array([])))
