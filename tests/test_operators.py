import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from conftest import (
    density_matrices,
    random_density,
    random_sector_state,
    random_unitary,
    sector_density_matrices,
)
from spinsync.liouvillian import EXCITATION_SECTORS
from spinsync.operators import (
    M_BLOCKS,
    PAIR_DIM,
    PARTIAL_TRANSPOSE_BLOCKS,
    SECTOR_ENTRIES,
    SINGLE_DIM,
    InvalidStateError,
    block_eigenvalues,
    dissipator,
    embed,
    hermitian_eigenvalues,
    index_of_m,
    joint_index,
    m_block_eigensystem,
    partial_trace,
    partial_transpose,
    sector_matrix,
    sector_populations,
    sector_state_errors,
    sector_trace,
    spin1_operators,
    validate_density_matrix,
)

SQ2 = np.sqrt(2.0)


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def proj(index: int, dim: int) -> np.ndarray:
    v = ket(index, dim)
    return np.outer(v, v.conj())


class TestBasisIndexing:
    def test_index_of_m(self):
        assert index_of_m(1) == 0
        assert index_of_m(0) == 1
        assert index_of_m(-1) == 2

    def test_index_of_m_rejects_bad_values(self):
        for bad in (2, -2, 5):
            with pytest.raises(ValueError):
                index_of_m(bad)

    def test_joint_index_row_major(self):
        assert joint_index(0, 0) == 4
        assert joint_index(1, -1) == 2
        assert joint_index(-1, 1) == 6
        assert joint_index(1, 1) == 0
        assert joint_index(-1, -1) == 8

    def test_joint_index_covers_all_nine(self):
        seen = {joint_index(ma, mb) for ma in (1, 0, -1) for mb in (1, 0, -1)}
        assert seen == set(range(PAIR_DIM))


class TestSpinOperators:
    def test_sz_is_diagonal_in_m(self):
        sz, _, _ = spin1_operators()
        assert_allclose(sz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)

    def test_ladder_actions(self):
        _, sp, sm = spin1_operators()
        up, zero, down = (ket(i, SINGLE_DIM) for i in range(3))
        assert_allclose(sp @ zero, SQ2 * up, atol=1e-15)
        assert_allclose(sp @ down, SQ2 * zero, atol=1e-15)
        assert_allclose(sp @ up, 0.0 * up, atol=1e-15)
        assert_allclose(sm @ up, SQ2 * zero, atol=1e-15)
        assert_allclose(sm @ zero, SQ2 * down, atol=1e-15)
        assert_allclose(sm @ down, 0.0 * down, atol=1e-15)

    def test_ladder_adjointness(self):
        _, sp, sm = spin1_operators()
        assert_allclose(sm, sp.conj().T, atol=1e-15)

    def test_su2_commutators(self):
        sz, sp, sm = spin1_operators()
        assert_allclose(sp @ sm - sm @ sp, 2.0 * sz, atol=1e-14)
        assert_allclose(sz @ sp - sp @ sz, sp, atol=1e-14)
        assert_allclose(sz @ sm - sm @ sz, -sm, atol=1e-14)

    def test_casimir_is_two(self):
        # S(S+1) = 2 for spin 1
        sz, sp, sm = spin1_operators()
        total = sz @ sz + 0.5 * (sp @ sm + sm @ sp)
        assert_allclose(total, 2.0 * np.eye(SINGLE_DIM), atol=1e-14)


class TestEmbed:
    def test_shapes_and_placement(self):
        sz, _, _ = spin1_operators()
        za = embed(sz, "A")
        zb = embed(sz, "B")
        assert za.shape == (PAIR_DIM, PAIR_DIM)
        assert_allclose(za, np.kron(sz, np.eye(3)), atol=1e-15)
        assert_allclose(zb, np.kron(np.eye(3), sz), atol=1e-15)

    def test_opposite_sites_commute(self):
        _, sp, sm = spin1_operators()
        a = embed(sp, "A")
        b = embed(sm, "B")
        assert_allclose(a @ b, b @ a, atol=1e-14)

    def test_exchange_action_on_both_zero(self):
        # S_A^+ S_B^- |0,0> = 2 |+1,-1>
        _, sp, sm = spin1_operators()
        state = ket(joint_index(0, 0), PAIR_DIM)
        out = embed(sp, "A") @ embed(sm, "B") @ state
        assert_allclose(out, 2.0 * ket(joint_index(1, -1), PAIR_DIM), atol=1e-14)

    def test_rejects_bad_site_and_shape(self):
        sz, _, _ = spin1_operators()
        with pytest.raises(ValueError):
            embed(sz, "C")
        with pytest.raises(ValueError):
            embed(np.eye(9), "A")


class TestDissipator:
    def test_dark_state_of_damping_channel(self):
        sz, _, sm = spin1_operators()
        assert_allclose(dissipator(sm @ sz, proj(1, 3)), np.zeros((3, 3)), atol=1e-15)

    def test_damping_channel_moves_top_to_middle(self):
        sz, _, sm = spin1_operators()
        out = dissipator(sm @ sz, proj(0, 3))
        assert_allclose(out, 2.0 * proj(1, 3) - 2.0 * proj(0, 3), atol=1e-14)

    def test_gain_channel_moves_bottom_to_middle(self):
        sz, sp, _ = spin1_operators()
        out = dissipator(sp @ sz, proj(2, 3))
        assert_allclose(out, 2.0 * proj(1, 3) - 2.0 * proj(2, 3), atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(density_matrices(dim=3))
    def test_traceless_and_hermiticity_preserving(self, rho):
        sz, _, sm = spin1_operators()
        out = dissipator(sm @ sz, rho)
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_dimension_mismatch_raises(self):
        _, _, sm = spin1_operators()
        with pytest.raises(ValueError):
            dissipator(sm, np.eye(9) / 9.0)


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(7)
        rho_a = random_density(rng, 3)
        rho_b = random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert_allclose(partial_trace(joint, "A"), rho_a, atol=1e-13)
        assert_allclose(partial_trace(joint, "B"), rho_b, atol=1e-13)

    def test_bell_like_reductions_are_mixed(self):
        psi = (ket(joint_index(0, 0), 9) + ket(joint_index(1, -1), 9)) / SQ2
        rho = np.outer(psi, psi.conj())
        expect_a = np.diag([0.5, 0.5, 0.0])
        expect_b = np.diag([0.0, 0.5, 0.5])
        assert_allclose(partial_trace(rho, "A"), expect_a, atol=1e-14)
        assert_allclose(partial_trace(rho, "B"), expect_b, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(density_matrices())
    def test_preserves_trace(self, rho):
        for keep in ("A", "B"):
            reduced = partial_trace(rho, keep)
            assert abs(np.trace(reduced) - 1.0) <= 1e-12

    def test_rejects_bad_site(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(9) / 9.0, "X")


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 9)
        for site in ("A", "B"):
            assert_allclose(partial_transpose(partial_transpose(rho, site), site), rho, atol=1e-14)

    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(13)
        joint = np.kron(random_density(rng, 3), random_density(rng, 3))
        eigs = hermitian_eigenvalues(partial_transpose(joint, "A"))
        assert eigs[0] >= -1e-12

    def test_bell_like_witness(self):
        psi = (ket(joint_index(0, 0), 9) + ket(joint_index(1, -1), 9)) / SQ2
        rho = np.outer(psi, psi.conj())
        eigs = hermitian_eigenvalues(partial_transpose(rho, "A"))
        assert eigs[0] == pytest.approx(-0.5, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(density_matrices())
    def test_site_spectra_agree(self, rho):
        ea = hermitian_eigenvalues(partial_transpose(rho, "A"))
        eb = hermitian_eigenvalues(partial_transpose(rho, "B"))
        assert_allclose(ea, eb, atol=1e-11)


class TestHermitianEigenvalues:
    def test_sorted_ascending(self):
        assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0], atol=1e-14)

    def test_off_diagonal_block(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert_allclose(hermitian_eigenvalues(m), [-1.0, 1.0], atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 9)
        assert np.sum(hermitian_eigenvalues(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 9)
        u = random_unitary(rng, 9)
        rotated = u @ rho @ u.conj().T
        assert_allclose(hermitian_eigenvalues(rotated), hermitian_eigenvalues(rho), atol=1e-10)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eigenvalues(m)


class TestValidateDensityMatrix:
    def test_accepts_valid_state(self):
        rng = np.random.default_rng(23)
        validate_density_matrix(random_density(rng, 9))

    def test_rejects_non_hermitian(self):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(3, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.7, 0.5, -0.2]).astype(complex)
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

    def test_tolerance_is_configurable(self):
        rho = np.diag([0.5 + 5e-7, 0.5, -5e-7]).astype(complex)
        validate_density_matrix(rho, trace_tol=1e-5, psd_tol=1e-5)
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho, trace_tol=1e-5, psd_tol=1e-8)


def block_diagonal(entries: np.ndarray, labels: list[int]) -> np.ndarray:
    """The 9x9 Hermitian matrix with a block table's entries on each label's joint indices."""
    out = np.zeros((9, 9), dtype=complex)
    members = {label: [j for j in range(9) if labels[j] == label] for label in range(-2, 3)}
    for k, label in enumerate((2, -2)):
        out[members[label][0], members[label][0]] = entries[k]
    for k, label in enumerate((1, -1)):
        first, second = members[label]
        out[first, first], out[second, second] = entries[2 + k], entries[4 + k]
        out[first, second], out[second, first] = entries[6 + k], entries[6 + k].conjugate()
    out[np.ix_(members[0], members[0])] = entries[8:].reshape(3, 3)
    return out


class TestSectorLayout:
    """The 19 k = 0 entries and their 3x3 blocks against the 9x9 matrix."""

    M_TOTAL = [m_a + m_b for m_a in (1, 0, -1) for m_b in (1, 0, -1)]
    M_DIFFERENCE = [m_a - m_b for m_a in (1, 0, -1) for m_b in (1, 0, -1)]

    def test_entries_are_the_excitation_conserving_ones(self):
        rows, cols = np.divmod(SECTOR_ENTRIES, 9)
        assert len(SECTOR_ENTRIES) == 19
        # The engine's k = 0 block acts on x in this order: one layout.
        assert SECTOR_ENTRIES is EXCITATION_SECTORS[0]
        assert all(self.M_TOTAL[r] == self.M_TOTAL[c] for r, c in zip(rows, cols))

    @settings(max_examples=30, deadline=None)
    @given(sector_density_matrices())
    def test_blocks_rebuild_the_state_and_its_partial_transpose(self, rho):
        # Hermitian bit for bit, so that each 2x2 block's lower corner is
        # the conjugate of the upper one the table holds.
        rho = 0.5 * (rho + rho.conj().T)
        x = rho.reshape(-1)[SECTOR_ENTRIES]
        assert np.array_equal(sector_matrix(x), rho)
        assert np.array_equal(block_diagonal(x[M_BLOCKS], self.M_TOTAL), rho)
        assert np.array_equal(block_diagonal(x[PARTIAL_TRANSPOSE_BLOCKS], self.M_DIFFERENCE),
                              partial_transpose(rho, "A"))
        for table in (M_BLOCKS, PARTIAL_TRANSPOSE_BLOCKS):
            assert len(set(table.tolist())) == 17

    def test_trace_and_populations_match_the_matrix(self):
        rng = np.random.default_rng(17)
        states = np.array([random_sector_state(rng) for _ in range(50)])
        x = states.reshape(50, 81)[:, SECTOR_ENTRIES] * rng.uniform(0.5, 2.0, size=(50, 1))
        matrices = sector_matrix(x)
        # Bitwise: the engine normalizes by this trace and keeps the state
        # bytes of the 9x9 path.
        assert sector_trace(x).tobytes() == np.trace(matrices, axis1=-2, axis2=-1).tobytes()
        assert np.array_equal(sector_populations(x).reshape(50, 9),
                              np.diagonal(matrices, axis1=-2, axis2=-1).real)

    def test_errors_match_validate_density_matrix(self):
        good = random_sector_state(np.random.default_rng(19))
        negative = good.copy()
        negative[4, 4] -= 0.5
        negative /= np.trace(negative).real
        states = [good, 2.0 * good, negative]
        x = np.array(states).reshape(3, 81)[:, SECTOR_ENTRIES]
        errors = sector_state_errors(x, block_eigenvalues(x, M_BLOCKS))
        assert sorted(errors) == [1, 2]
        for rho, error in zip(states[1:], (errors[1], errors[2])):
            with pytest.raises(InvalidStateError) as raised:
                validate_density_matrix(rho)
            assert type(error) is InvalidStateError and str(error) == str(raised.value)


def pair_state(a: float, d: float, c: complex) -> np.ndarray:
    """A sector state with the M = 1 block [[a, c], [c*, d]], mirrored at M = -1."""
    x = np.zeros((1, 19), dtype=complex)
    x[0, M_BLOCKS[[2, 4, 6]]] = a, d, c
    x[0, M_BLOCKS[[3, 5, 7]]] = d, a, np.conj(c)
    return x


class TestClosedForms:
    """The 2x2 blocks' eigenvalues and Schmidt ratios against LAPACK."""

    EPS = np.finfo(float).eps

    # (a, d, c): degenerate; |c| >> |h| and |c| << |h| down to ratios of
    # 1e-300; whole blocks at 1e-300; complex phases.
    BLOCKS = [
        (0.3, 0.3, 0.0),
        (0.0, 0.0, 0.0),
        (0.25 + 1e-300, 0.25, 0.4),
        (0.25, 0.25, 1e-300),
        (0.7, 0.1, 1e-300j),
        (0.7, 0.1, (1e-17 - 2e-17j)),
        (0.2, 0.2 + 1e-17, 0.3 - 0.1j),
        (3e-300, 1e-300, 1e-300),
        (1e-300, 1e-300, 1e-300j),
        (0.4, 0.0, -0.2 + 0.2j),
    ]

    @pytest.mark.parametrize("a, d, c", BLOCKS)
    def test_match_eigh(self, a, d, c):
        x = pair_state(a, d, c)
        spectrum, ratios, _ = m_block_eigensystem(x)
        assert np.array_equal(spectrum, block_eigenvalues(x, M_BLOCKS))
        values, vectors = np.linalg.eigh(np.array([[a, c], [np.conj(c), d]]))
        scale = max(abs(a), abs(d), abs(c))
        for k in (0, 1):
            # Lower and upper eigenvalues of the block and of its mirror.
            assert_allclose(spectrum[0, [2 + k, 4 + k]], values, rtol=0.0,
                            atol=4 * self.EPS * scale)
            # Where the two eigenvalues agree to roundoff, any unit vector
            # is an eigenvector to roundoff, and LAPACK's is arbitrary.
            if values[1] - values[0] > 1e-8 * scale:
                top = np.sort(np.abs(vectors[:, -1]))[::-1]
                coefficients = np.array([1.0, ratios[0, k]]) / np.hypot(1.0, ratios[0, k])
                assert_allclose(coefficients, top, rtol=0.0, atol=4 * self.EPS)
        assert 0.0 <= ratios.min() and ratios.max() <= 1.0

    def test_near_degenerate_block_keeps_its_exact_vector(self):
        # [[a, c], [c, a]] has the top eigenvector (1, 1) / sqrt(2) however
        # small c is, though a +- c rounds to a.
        x = pair_state(0.25, 0.25, 1e-300)
        spectrum, ratios, _ = m_block_eigensystem(x)
        assert spectrum[0, 2:6].tolist() == [0.25] * 4
        assert ratios.tolist() == [[1.0, 1.0]]

    def test_degenerate_block_is_a_product(self):
        assert m_block_eigensystem(pair_state(0.3, 0.3, 0.0))[1].tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("c", [1e-9, 1e-150, 1e-300])
    def test_small_ratio_has_no_cancellation(self, c):
        # r - |h| would lose every digit of |c|^2 / (2 |h|); the ratio keeps
        # them.
        ratios = m_block_eigensystem(pair_state(1.0, 0.0, c))[1]
        assert_allclose(ratios, c, rtol=4 * self.EPS)

    @pytest.mark.parametrize("excess", [0.9997e-10, 1.0003e-10])
    def test_eigenvalue_straddling_the_psd_tolerance(self, excess):
        # The blocks M = 1 and M = -1 are both [[0.25, c], [c, 0.25]], with
        # the eigenvalue 0.25 - c = -excess.  The decision and the text
        # match validate_density_matrix on the 9x9 matrix.
        c = 0.25 + excess
        rho = np.zeros((9, 9), dtype=complex)
        for m in (1, -1):
            members = [joint_index(m, 0), joint_index(0, m)]
            rho[np.ix_(members, members)] = [[0.25, c], [c, 0.25]]
        x = rho.reshape(1, 81)[:, SECTOR_ENTRIES]
        errors = sector_state_errors(x, block_eigenvalues(x, M_BLOCKS))
        if excess < 1e-10:
            validate_density_matrix(rho)
            assert errors == {}
        else:
            with pytest.raises(InvalidStateError, match="positive semidefinite") as raised:
                validate_density_matrix(rho)
            assert list(errors) == [0] and str(errors[0]) == str(raised.value)
