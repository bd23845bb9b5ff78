import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanid.linalg import (
    DensityOperator,
    _fix_column_phases,
    maximally_mixed,
    operator_norm,
    partial_trace,
    psd_power,
    pure_state,
    random_unitary,
    spectral_decomposition,
    state_fidelity,
    tensor_product,
    trace_norm,
)

from conftest import (
    kron_oracle,
    partial_trace_oracle,
    rand_complex,
    rand_density_mat,
    singular_values_oracle,
)

seeds = st.integers(min_value=0, max_value=10**6)


class TestTensorProduct:
    def test_identity_factors(self):
        np.testing.assert_allclose(
            tensor_product(np.eye(2), np.eye(3)), np.eye(6), atol=0
        )

    def test_diagonal_with_identity(self):
        out = tensor_product(np.diag([2.0, 5.0]), np.eye(2))
        np.testing.assert_allclose(out, np.diag([2.0, 2.0, 5.0, 5.0]), atol=0)

    def test_matches_four_index_oracle(self):
        rng = np.random.default_rng(11)
        a, b = rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)
        np.testing.assert_allclose(tensor_product(a, b), kron_oracle(a, b), atol=1e-14)


class TestPartialTrace:
    def test_factorized_second(self):
        rng = np.random.default_rng(1)
        a, b = rand_complex(rng, 3, 3), rand_complex(rng, 2, 2)
        out = partial_trace(tensor_product(a, b), (3, 2), "second")
        np.testing.assert_allclose(out, np.trace(b) * a, atol=1e-12)

    def test_maximally_entangled_marginal(self):
        omega = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        proj = np.outer(omega, omega)
        np.testing.assert_allclose(
            partial_trace(proj, (2, 2), "first"), np.eye(2) / 2, atol=1e-15
        )

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_matches_index_sum_oracle(self, which):
        rng = np.random.default_rng(7)
        m = rand_complex(rng, 4, 4)
        np.testing.assert_allclose(
            partial_trace(m, (2, 2), which), partial_trace_oracle(m, 2, 2, which), atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), (2, 2), "first")
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), "both")

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_kron_then_trace_recovers_factor(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_complex(rng, 2, 2), rand_complex(rng, 3, 3)
        out = partial_trace(tensor_product(a, b), (2, 3), "second")
        assert np.max(np.abs(out - np.trace(b) * a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


class TestNorms:
    def test_trace_norm_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_trace_norm_of_density_operator_is_one(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            assert trace_norm(rand_density_mat(rng, d)) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_matches_svd_oracle(self):
        rng = np.random.default_rng(9)
        m = rand_complex(rng, 3, 3)
        assert trace_norm(m) == pytest.approx(np.sum(singular_values_oracle(m)), abs=1e-12)

    def test_trace_norm_requires_square(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((3, 2)))

    def test_operator_norm_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-15)

    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-14)

    def test_operator_norm_rectangular_matches_oracle(self):
        rng = np.random.default_rng(13)
        m = rand_complex(rng, 3, 2)
        assert operator_norm(m) == pytest.approx(singular_values_oracle(m)[0], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_norm_inequalities(self, seed):
        rng = np.random.default_rng(seed)
        m = rand_complex(rng, 3, 3)
        assert trace_norm(m) >= operator_norm(m) - 1e-12
        assert trace_norm(m) >= abs(np.trace(m)) - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_trace_norm_submultiplicative_against_operator_norm(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
        assert trace_norm(a @ b) <= operator_norm(a) * trace_norm(b) + 1e-10


class TestPsdPower:
    def test_diag_square_root(self):
        np.testing.assert_allclose(
            psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_square_root_squares_back(self):
        rng = np.random.default_rng(23)
        m = rand_density_mat(rng, 4)
        root = psd_power(m, 0.5)
        assert operator_norm(root @ root - m) <= 1e-9 * operator_norm(m)

    def test_singular_matrix_rejected_for_negative_power(self):
        with pytest.raises(ValueError):
            psd_power(np.diag([1.0, 0.0]), -1.0)
        with pytest.raises(ValueError):  # negative exponents are not supported at all
            psd_power(np.eye(2), -1.0)


class TestStateFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(3)
        rho = DensityOperator(rand_density_mat(rng, 3))
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        z0 = pure_state(np.array([1.0, 0.0]))
        z1 = pure_state(np.array([0.0, 1.0]))
        assert state_fidelity(z0, z1) == pytest.approx(0.0, abs=1e-14)

    def test_commuting_closed_form(self):
        # eigenvalue overlap (sum_i sqrt(lam_i mu_i))^2 = (sqrt(1/2))^2 = 0.5
        assert state_fidelity(maximally_mixed(2), pure_state(np.array([1.0, 0.0]))) == pytest.approx(
            0.5, abs=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        r1 = DensityOperator(rand_density_mat(rng, 3))
        r2 = DensityOperator(rand_density_mat(rng, 3))
        assert abs(state_fidelity(r1, r2) - state_fidelity(r2, r1)) <= 1e-10

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(17)
        r1 = DensityOperator(rand_density_mat(rng, 3))
        r2 = DensityOperator(rand_density_mat(rng, 3))
        assert state_fidelity(r1, DensityOperator(r1.mat.copy())) > 1.0 - 1e-10
        if trace_norm(r1.mat - r2.mat) > 1e-8:
            assert state_fidelity(r1, r2) < 1.0 - 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(maximally_mixed(2), maximally_mixed(3))


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unitarity(self, d):
        u = random_unitary(d, seed=d)
        assert operator_norm(u.conj().T @ u - np.eye(d)) <= 1e-10

    def test_deterministic_per_seed(self):
        a, b = random_unitary(4, seed=99), random_unitary(4, seed=99)
        assert np.array_equal(a, b)
        assert not np.allclose(a, random_unitary(4, seed=100))

    def test_scalar_case(self):
        u = random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            random_unitary(2, seed=-1)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_clips_numerical_noise(self):
        rho = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]))
        vals = np.linalg.eigvalsh(rho.mat)
        assert vals[0] >= 0.0

    def test_spectrum_reconstructs(self):
        rng = np.random.default_rng(31)
        m = rand_density_mat(rng, 4)
        spec = spectral_decomposition(m)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert operator_norm(recon - m) <= 1e-9 * operator_norm(m)
        assert operator_norm(
            spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(4)
        ) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-15)

    def test_spectrum_phase_fix_is_deterministic(self):
        rng = np.random.default_rng(37)
        m = rand_density_mat(rng, 3)
        a = spectral_decomposition(m)
        b = spectral_decomposition(m.copy())
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for j in range(3):
            col = a.eigenvectors[:, j]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert abs(pivot.imag) <= 1e-12 and pivot.real > 0


def _fix_column_phases_loop(vectors):
    """Column-by-column phase fix: the definition _fix_column_phases vectorizes."""
    out = np.array(vectors, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


class TestFixColumnPhases:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 16, 36])
    def test_bit_identical_to_column_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            m = rand_complex(rng, n, n)
            vecs = np.linalg.eigh(m + m.conj().T)[1]
            # small complex integers times a real scale: many tied pivots
            ties = (rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))) * rng.standard_normal()
            for v in (vecs, ties, rng.standard_normal((n, n))):
                assert np.array_equal(_fix_column_phases(v), _fix_column_phases_loop(v))

    def test_zero_column_and_tied_pivots(self):
        v = np.array([[0.0, 1j, 2.0, -3.0], [0.0, -1.0, -2j, 3j], [0.0, 0.5, 1.0, 1.0]])
        got = _fix_column_phases(v)
        assert np.array_equal(got, _fix_column_phases_loop(v))
        assert np.array_equal(got[:, 0], np.zeros(3))
        # ties go to the first largest entry, which becomes real positive
        assert np.array_equal(got[0, 1:], np.array([1.0, 2.0, 3.0]))
