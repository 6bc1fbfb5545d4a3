import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    BALANCED,
    FIG2,
    density_matrices,
    random_density,
    random_unitary,
    sector_density_matrices,
)
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
    sector_mutual_information,
    sector_negativity,
    sector_purity,
    sector_schmidt,
)
from spinsync.liouvillian import steady_states
from spinsync.operators import (
    BLOCK_TOPS,
    SECTOR_ENTRIES,
    InvalidStateError,
    joint_index,
    m_block_eigensystem,
)
from spinsync.phasespace import sector_s_rel

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


def sector_entries(states: np.ndarray) -> np.ndarray:
    return states.reshape(len(states), 81)[:, SECTOR_ENTRIES]


def block_spectra(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return m_block_eigensystem(x)


def assert_block_forms_match_single_state_calls(states, x, spectra):
    """The sector forms of a stack against the 9x9 single-state functions.

    Both take eigenvalues of the same Hermitian matrix, 3x3 blocks against
    9x9, so the values agree to a few ulps of the O(1) measures: 1e-12.
    Schmidt coefficients also move by the roundoff over the gap between the
    two largest eigenvalues, so they are compared where that gap is at
    least 1e-3.  Ranks must be equal.
    """
    coeffs, ranks, weights = sector_schmidt(*spectra)
    stacked = [sector_negativity(x), sector_mutual_information(x, spectra[0]),
               sector_purity(x), weights]
    singles = [negativity, mutual_information, purity,
               lambda rho: schmidt_analysis(rho).dominant_weight]
    for got, single in zip(stacked, singles):
        assert_allclose(got, [single(rho) for rho in states], rtol=0.0, atol=1e-12)
    assert sector_s_rel(x).values.tolist() == s_rel(states).values.tolist()
    for rho, coefficients, rank in zip(states, coeffs, ranks):
        analysis = schmidt_analysis(rho)
        assert rank == analysis.rank
        top = np.linalg.eigvalsh(rho)[-2:]
        if top[1] - top[0] >= 1e-3:
            assert_allclose(coefficients, analysis.coefficients, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(sector_density_matrices(), min_size=1, max_size=5))
def test_stacked_measures_equal_single_state_calls(states):
    # k = 0 states of every rank; pure blocks have exact zero eigenvalues.
    states = np.array(states)
    x = sector_entries(states)
    assert np.array_equal(states.reshape(len(states), 81)[:, np.setdiff1d(
        np.arange(81), SECTOR_ENTRIES)], np.zeros((len(states), 81 - 19)))
    assert_block_forms_match_single_state_calls(states, x, block_spectra(x))


def test_block_forms_on_sweep_states():
    # A seeded tongue, the balanced cut and FIG2, measured on the engine's
    # own spectra.
    rng = np.random.default_rng(97)
    points = [
        dataclasses.replace(FIG2, epsilon=float(e), delta=float(d),
                            omega_ref=float(rng.uniform(-1.0, 1.0)))
        for e in np.linspace(0.0, 0.1, 6) for d in np.linspace(-1.0, 1.0, 7)
    ] + [dataclasses.replace(BALANCED, gamma_d_b=float(r))
         for r in np.geomspace(1.0, 199.0, 11)]
    batch = steady_states(points)
    assert batch.errors == (None,) * len(points)
    assert_block_forms_match_single_state_calls(
        batch.states, batch.sectors,
        (batch.eigenvalues, batch.pair_ratios, batch.center_vectors))


class TestSectorSchmidtTies:
    """The dominant eigenvalue tied exactly across two M blocks."""

    @staticmethod
    def mixture(*weighted_states):
        return sum(weight * state for weight, state in weighted_states)

    @staticmethod
    def spectra(ties):
        # One state per (first, second, entangled): blocks first < second,
        # counted in the order M = 2, 1, 0, -1, -2, share the top
        # eigenvalue 0.5.  The top eigenvector of block entangled (1, 2 or
        # 3; the 1x1 blocks 0 and 4 hold product vectors only) has Schmidt
        # coefficients (0.8, 0.6, 0), those of the other blocks are
        # products.  The other eigenvalues are below 0.5.
        values = np.tile(np.linspace(0.0, 0.2, 9), (len(ties), 1))
        ratios = np.zeros((len(ties), 2))
        vectors = np.tile(np.eye(3, dtype=complex), (len(ties), 1, 1))
        for i, (first, second, entangled) in enumerate(ties):
            values[i, BLOCK_TOPS[[first, second]]] = 0.5
            if entangled == 2:
                vectors[i, :, -1] = [0.6, 0.8j, 0.0]
            else:
                ratios[i, {1: 0, 3: 1}[entangled]] = 0.75
        return values, ratios, vectors

    def test_first_block_in_fixed_order_wins(self):
        # Blocks are ordered M = 2, 1, 0, -1, -2; the earlier tied block
        # gives the Schmidt vector, wherever the state sits in the stack.
        ties = [(1, 2, 1), (0, 2, 2), (2, 3, 2), (3, 4, 3), (1, 3, 3), (1, 3, 1)]
        coeffs, ranks, weights = sector_schmidt(*self.spectra(ties))
        assert ranks.tolist() == [2, 1, 2, 2, 1, 2]
        entangled, product = [0.8, 0.6, 0.0], [1.0, 0.0, 0.0]
        assert_allclose(coeffs, [entangled, product, entangled, entangled, product,
                                 entangled], rtol=0.0, atol=1e-15)
        assert weights.tolist() == [0.5] * 6
        assert sector_schmidt(*self.spectra(ties[::-1]))[1].tolist() == [2, 1, 2, 2, 1, 2][::-1]

    def test_tie_in_a_state(self):
        # |+1,+1> and |0,0> with equal weights: diagonal blocks, whose
        # eigenvalues are exact, tie at 0.5.
        rho = self.mixture((0.5, pure_state((1.0, joint_index(1, 1)))),
                           (0.5, pure_state((1.0, joint_index(0, 0)))))
        spectra = block_spectra(sector_entries(rho[None]))
        assert spectra[0][0, BLOCK_TOPS[0]] == spectra[0][0, BLOCK_TOPS[2]] == 0.5
        coeffs, ranks, weights = sector_schmidt(*spectra)
        assert ranks.tolist() == [1] and weights.tolist() == [0.5]

    @pytest.mark.parametrize("split", [1e-3, -1e-3])
    def test_untied_neighbours_agree_with_schmidt_analysis(self, split):
        # Moving a weight of 1e-3 either way breaks the tie; the block that
        # holds the larger eigenvalue then wins, as in the 9x9 analysis.
        up = pure_state((1.0, joint_index(1, 1)))
        rho = self.mixture((0.5 + split, up), (0.5 - split, bell_like()))
        x = sector_entries(rho[None])
        coeffs, ranks, weights = sector_schmidt(*block_spectra(x))
        analysis = schmidt_analysis(rho)
        assert ranks[0] == analysis.rank == (1 if split > 0 else 2)
        assert_allclose(coeffs[0], analysis.coefficients, atol=1e-12)
        assert weights[0] == pytest.approx(analysis.dominant_weight, abs=1e-12)


class TestDominantBlock:
    """The dominant eigenvector in a 2x2 or a 1x1 block, against the 9x9 analysis."""

    # Steady states whose dominant eigenvector lies in the block M = 1 or
    # M = -1, with ranks 2 and, for the last, 1.
    PAIR_DOMINATED = [
        (SystemParams(gamma_g_a=1.2, gamma_g_b=500.0, gamma_d_b=0.007, epsilon=20.0,
                      delta=-1.1), 1),
        (SystemParams(gamma_g_a=0.0014, gamma_g_b=11.0, gamma_d_b=330.0, epsilon=7.8,
                      delta=2.3), 1),
        (SystemParams(gamma_g_a=320.0, gamma_g_b=0.0017, gamma_d_b=1.5, epsilon=0.4,
                      delta=-2.6), -1),
        (SystemParams(gamma_g_a=1.25, gamma_g_b=0.005, gamma_d_b=5.5, epsilon=5.2,
                      delta=0.68), -1),
        (SystemParams(gamma_g_a=700.0, gamma_g_b=0.0011, gamma_d_b=9.0, epsilon=0.026,
                      delta=0.44), -1),
    ]

    @staticmethod
    def assert_matches_schmidt_analysis(states, spectra):
        coeffs, ranks, weights = sector_schmidt(*spectra)
        for rho, coefficients, rank, weight in zip(states, coeffs, ranks, weights):
            analysis = schmidt_analysis(rho)
            assert rank == analysis.rank
            assert_allclose(coefficients, analysis.coefficients, rtol=0.0, atol=1e-12)
            assert weight == pytest.approx(analysis.dominant_weight, abs=1e-12)
        return ranks

    def test_steady_states_dominated_by_a_pair_block(self):
        points, labels = zip(*self.PAIR_DOMINATED)
        batch = steady_states(points)
        assert all(e is None for e in batch.errors)
        block = batch.eigenvalues[:, BLOCK_TOPS].argmax(axis=-1)
        assert block.tolist() == [{1: 1, -1: 3}[label] for label in labels]
        spectra = (batch.eigenvalues, batch.pair_ratios, batch.center_vectors)
        ranks = self.assert_matches_schmidt_analysis(batch.states, spectra)
        assert ranks.tolist() == [2, 2, 2, 2, 1]
        # No channel moves weight into M = +-2: gain lifts m = -1 to 0,
        # damping lowers m = +1 to 0, and the exchange keeps M.  So no
        # steady state has its dominant eigenvector in a 1x1 block, and
        # that case is driven with states built by hand below.
        assert np.abs(batch.eigenvalues[:, :2]).max() < 1e-14

    @pytest.mark.parametrize("single, pair", [((1, 1), (1, 0)), ((-1, -1), (-1, 0))])
    @pytest.mark.parametrize("split", [1e-3, -1e-3])
    def test_single_block_dominated_states(self, single, pair, split):
        # 0.5 + split on a 1x1 block, the rest on an entangled vector of
        # the 2x2 block next to it.
        kets = joint_index(*pair), joint_index(*pair[::-1])
        rho = ((0.5 + split) * pure_state((1.0, joint_index(*single)))
               + (0.5 - split) * pure_state((0.8, kets[0]), (0.6, kets[1])))
        ranks = self.assert_matches_schmidt_analysis(
            rho[None], block_spectra(sector_entries(rho[None])))
        assert ranks.tolist() == [1 if split > 0 else 2]

    @pytest.mark.parametrize("single, pair, rank", [(0, 1, 1), (-1, -1, 2)])
    def test_tie_between_a_single_and_a_pair_block(self, single, pair, rank):
        # Weight 0.5 on |+1,+1> (or |-1,-1>), and the block M = 1 (or
        # M = -1) filled with 0.25, whose eigenvalues are exactly 0 and 0.5.
        # The block first in the order M = 2, 1, 0, -1, -2 wins: |+1,+1>
        # over the pair, the pair over |-1,-1>.
        rho = np.zeros((9, 9), dtype=complex)
        corner = joint_index(1, 1) if single == 0 else joint_index(-1, -1)
        rho[corner, corner] = 0.5
        members = ([joint_index(1, 0), joint_index(0, 1)] if pair == 1
                   else [joint_index(0, -1), joint_index(-1, 0)])
        rho[np.ix_(members, members)] = 0.25
        spectra = block_spectra(sector_entries(rho[None]))
        tops = spectra[0][0, BLOCK_TOPS]
        assert tops.tolist().count(0.5) == 2
        coeffs, ranks, weights = sector_schmidt(*spectra)
        assert ranks.tolist() == [rank] and weights.tolist() == [0.5]
        expected = [1.0, 0.0, 0.0] if rank == 1 else [np.sqrt(0.5)] * 2 + [0.0]
        assert_allclose(coeffs[0], expected, rtol=0.0, atol=1e-15)
