import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from conftest import BALANCED, density_matrices, random_density, random_unitary
from spinsync import (
    SystemParams,
    first_order_state,
    mutual_information,
    negativity,
    purity,
    s_rel,
    schmidt_analysis,
    steady_state,
    von_neumann_entropy,
)
from spinsync.correlations import (
    PURITY_WARNING_THRESHOLD,
    mutual_information_stack,
    negativity_stack,
    purity_stack,
    schmidt_stack,
    von_neumann_entropy_stack,
)
from spinsync.operators import InvalidStateError, joint_index

LN2 = np.log(2.0)
LN3 = np.log(3.0)


def pure_state(*weighted_kets: tuple[complex, int]) -> np.ndarray:
    psi = np.zeros(9, dtype=complex)
    for weight, index in weighted_kets:
        psi[index] = weight
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def bell_like() -> np.ndarray:
    return pure_state((1.0, joint_index(0, 0)), (1.0, joint_index(1, -1)))


def tilted_pair() -> np.ndarray:
    # Schmidt coefficients (1, 0.1, 0.1) / sqrt(1.02)
    return pure_state(
        (1.0, joint_index(0, 0)),
        (0.1, joint_index(1, -1)),
        (-0.1, joint_index(-1, 1)),
    )


class TestNegativity:
    def test_product_state_is_unentangled(self):
        rng = np.random.default_rng(41)
        joint = np.kron(random_density(rng, 3), random_density(rng, 3))
        assert negativity(joint) <= 1e-12

    def test_maximally_entangled_pair_of_levels(self):
        assert negativity(bell_like()) == pytest.approx(0.5, abs=1e-12)

    def test_tilted_pair_value(self):
        # pure state: ((sum of Schmidt coefficients)^2 - 1) / 2
        expected = (1.2**2 / 1.02 - 1.0) / 2.0
        assert negativity(tilted_pair()) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(density_matrices())
    def test_site_choice_is_irrelevant(self, rho):
        assert negativity(rho, "A") == pytest.approx(negativity(rho, "B"), abs=1e-11)

    def test_never_negative(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            joint = np.kron(random_density(rng, 3), random_density(rng, 3))
            assert negativity(joint) >= 0.0


class TestVonNeumannEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert von_neumann_entropy(bell_like()) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_single_spin(self):
        assert von_neumann_entropy(np.eye(3, dtype=complex) / 3.0) == pytest.approx(LN3, abs=1e-12)

    def test_equal_mixture_of_two_levels(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(LN2, abs=1e-12)

    def test_tiny_negative_eigenvalues_are_clamped(self):
        rho = np.diag([1.0 + 1e-12, -1e-12, 0.0]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_genuinely_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([0.6, 0.5, -0.1]).astype(complex))


class TestMutualInformation:
    def test_product_state_carries_none(self):
        rng = np.random.default_rng(47)
        joint = np.kron(random_density(rng, 3), random_density(rng, 3))
        assert mutual_information(joint) <= 1e-10

    def test_maximally_entangled_pair_of_levels(self):
        assert mutual_information(bell_like()) == pytest.approx(2.0 * LN2, abs=1e-10)

    def test_tilted_pair_value(self):
        probs = np.array([1.0, 0.01, 0.01]) / 1.02
        expected = -2.0 * float(np.sum(probs * np.log(probs)))
        assert mutual_information(tilted_pair()) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.2202, abs=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(density_matrices())
    def test_bounds(self, rho):
        info = mutual_information(rho)
        assert 0.0 <= info <= 2.0 * LN3 + 1e-9

    def test_pure_state_doubles_local_entropy(self):
        rng = np.random.default_rng(53)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        rho = np.outer(psi, psi.conj()) / np.linalg.norm(psi) ** 2
        local = von_neumann_entropy(np.einsum("abcb->ac", rho.reshape(3, 3, 3, 3)))
        assert mutual_information(rho) == pytest.approx(2.0 * local, abs=1e-10)


class TestPurity:
    def test_pure_state(self):
        assert purity(bell_like()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(np.eye(9, dtype=complex) / 9.0) == pytest.approx(1.0 / 9.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(density_matrices())
    def test_bounds(self, rho):
        assert 1.0 / 9.0 - 1e-12 <= purity(rho) <= 1.0 + 1e-12


class TestSchmidtAnalysis:
    def test_product_state_has_rank_one(self):
        analysis = schmidt_analysis(pure_state((1.0, joint_index(1, -1))))
        assert analysis.rank == 1
        assert_allclose(analysis.coefficients, [1.0, 0.0, 0.0], atol=1e-12)
        assert analysis.dominant_weight == pytest.approx(1.0, abs=1e-12)
        assert not analysis.mixed_warning

    def test_bell_like_has_rank_two(self):
        analysis = schmidt_analysis(bell_like())
        assert analysis.rank == 2
        assert_allclose(analysis.coefficients, [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-12)

    def test_coefficients_are_normalized_and_sorted(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            analysis = schmidt_analysis(random_density(rng, 9))
            coeffs = analysis.coefficients
            assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(coeffs) <= 1e-15)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(61)
        rho = tilted_pair()
        u = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        rotated = u @ rho @ u.conj().T
        assert_allclose(
            schmidt_analysis(rotated).coefficients,
            schmidt_analysis(rho).coefficients,
            atol=1e-10,
        )

    def test_reference_point_matches_perturbative_vector(self, fig2_params, fig2_steady):
        analysis = schmidt_analysis(fig2_steady)
        psi = first_order_state(fig2_params)
        expected = np.sort(np.abs(psi[[joint_index(0, 0), joint_index(1, -1), joint_index(-1, 1)]]))[::-1]
        assert analysis.rank == 2
        assert_allclose(analysis.coefficients, expected, atol=2e-3)
        assert analysis.dominant_weight > 0.95
        assert not analysis.mixed_warning

    def test_balanced_point_keeps_rank_three(self):
        analysis = schmidt_analysis(steady_state(BALANCED))
        assert analysis.rank == 3
        assert not analysis.mixed_warning

    def test_threshold_controls_rank(self):
        rho = tilted_pair()
        assert schmidt_analysis(rho, rank_threshold=0.5).rank == 1
        assert schmidt_analysis(rho, rank_threshold=0.05).rank == 3

    def test_mixed_warning_on_flat_state(self):
        analysis = schmidt_analysis(np.eye(9, dtype=complex) / 9.0)
        assert analysis.mixed_warning
        assert analysis.purity < PURITY_WARNING_THRESHOLD

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError):
            schmidt_analysis(bell_like(), rank_threshold=threshold)


def test_entanglement_measures_agree_on_ordering(fig2_steady):
    # the balanced pair is more entangled than the reversed pair on
    # every measure at equal coupling
    balanced = steady_state(BALANCED)
    assert negativity(balanced) > negativity(fig2_steady)
    assert mutual_information(balanced) > mutual_information(fig2_steady)


def test_stacked_measures_equal_single_state_calls():
    # Pure states have exact zero eigenvalues, so the entropy sums run over
    # rows of different lengths within one stack.
    rng = np.random.default_rng(41)
    states = np.array([random_density(rng, 9), bell_like(), tilted_pair(),
                       pure_state((1.0, joint_index(0, 0))), random_density(rng, 9)])
    pairs = [
        (negativity_stack, negativity),
        (von_neumann_entropy_stack, von_neumann_entropy),
        (mutual_information_stack, mutual_information),
        (purity_stack, purity),
        (lambda rhos: schmidt_stack(rhos)[1], lambda rho: schmidt_analysis(rho).rank),
        (lambda rhos: s_rel(rhos).values, lambda rho: s_rel(rho).values.tolist()),
    ]
    for stacked, single in pairs:
        assert stacked(states).tolist() == [single(rho) for rho in states]
        assert stacked(states[1:3]).tolist() == [single(rho) for rho in states[1:3]]
