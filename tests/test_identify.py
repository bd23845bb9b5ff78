import numpy as np
import pytest

from chanid.channel import (
    ChoiMatrix,
    choi,
    depolarizing_channel,
    from_choi,
    identity_channel,
    random_channel,
    tensor_with_identity,
    unitary_channel,
    zero_map,
)
from chanid.identify import (
    NotAdmissibleError,
    ReferenceState,
    RNOperator,
    _apply_rn_matrix,
    apply_rn,
    consistency_residual,
    forward_map,
    make_reference,
    omega,
    reconstruct,
    rn_operator,
    v_isometry,
)
from chanid.linalg import (
    DensityOperator,
    Spectrum,
    maximally_mixed,
    operator_norm,
    partial_trace,
    random_unitary,
    tensor_product,
    trace_norm,
)

from conftest import choi_from_w_oracle, rand_density_mat, rho_inv_sqrt, v_isometry_oracle


def rand_reference(rng, d, min_eig=0.05):
    return make_reference(DensityOperator(rand_density_mat(rng, d, min_eig=min_eig)))


class TestMakeReference:
    def test_maximally_mixed_spectrum(self):
        ref = make_reference(maximally_mixed(3))
        np.testing.assert_allclose(ref.spectrum.eigenvalues, [1 / 3] * 3, atol=1e-14)
        assert ref.min_eig == pytest.approx(1 / 3, abs=1e-14)

    def test_diagonal_case(self):
        ref = make_reference(DensityOperator(np.diag([0.9, 0.1])))
        np.testing.assert_allclose(ref.spectrum.eigenvalues, [0.1, 0.9], atol=1e-14)
        assert ref.min_eig == pytest.approx(0.1, abs=1e-14)

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotAdmissibleError):
            make_reference(DensityOperator(np.diag([1.0, 0.0])))

    def test_cutoff_is_configurable(self):
        rho = DensityOperator(np.diag([0.999, 0.001]))
        make_reference(rho, cutoff=1e-4)
        with pytest.raises(NotAdmissibleError):
            make_reference(rho, cutoff=0.01)

    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_cutoff_must_be_finite_and_non_negative(self, cutoff):
        # NaN admits every state and a negative cutoff admits min eig 1e-300
        rho = DensityOperator(np.diag([1.0 - 1e-300, 1e-300]))
        with pytest.raises(ValueError, match="cutoff"):
            make_reference(rho, cutoff=cutoff)

    def test_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(0)
        ref = rand_reference(rng, 4)
        assert np.sum(ref.spectrum.eigenvalues) == pytest.approx(1.0, abs=1e-10)


class TestOmega:
    def test_maximally_mixed_gives_maximally_entangled(self):
        vector = omega(make_reference(maximally_mixed(2)))
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(vector, expected, atol=1e-14)

    def test_schmidt_form_for_diagonal_reference(self):
        vector = omega(make_reference(DensityOperator(np.diag([0.3, 0.7]))))
        expected = np.zeros(4)
        expected[0] = np.sqrt(0.3)
        expected[3] = np.sqrt(0.7)
        np.testing.assert_allclose(vector, expected, atol=1e-14)

    def test_unit_norm_and_marginals(self):
        rng = np.random.default_rng(1)
        ref = rand_reference(rng, 3)
        vector = omega(ref)
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        # both marginals reproduce the reference state itself
        proj = np.outer(vector, vector.conj())
        for which in ("first", "second"):
            marg = partial_trace(proj, (3, 3), which)
            assert operator_norm(marg - ref.rho.mat) <= 1e-12
        # in the eigenbasis both marginals are diag(p)
        phi = ref.spectrum.eigenvectors
        diag = phi.conj().T @ partial_trace(proj, (3, 3), "second") @ phi
        np.testing.assert_allclose(diag, np.diag(ref.spectrum.eigenvalues), atol=1e-12)


class TestForwardMap:
    def test_identity_returns_probe_projector(self):
        rng = np.random.default_rng(2)
        ref = rand_reference(rng, 3)
        w = forward_map(identity_channel(3), ref)
        vector = omega(ref)
        np.testing.assert_allclose(w.mat, np.outer(vector, vector.conj()), atol=1e-12)

    def test_fully_depolarizing_on_maximally_mixed(self):
        ref = make_reference(maximally_mixed(2))
        w = forward_map(depolarizing_channel(1.0, 2), ref)
        np.testing.assert_allclose(w.mat, np.eye(4) / 4, atol=1e-12)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        t = random_channel(2, 3, 2, seed=4)
        ref = rand_reference(rng, 2)
        w = forward_map(t, ref).mat
        p = ref.spectrum.eigenvalues
        phi = ref.spectrum.eigenvectors
        rot = tensor_product(np.eye(3), phi)
        w_eig = rot.conj().T @ w @ rot  # ancilla slot in the eigenbasis
        for i in range(2):
            for j in range(2):
                block = t.apply_matrix(np.outer(phi[:, i], phi[:, j].conj()))
                expected = np.sqrt(p[i] * p[j]) * block
                np.testing.assert_allclose(
                    w_eig.reshape(3, 2, 3, 2)[:, i, :, j], expected, atol=1e-12
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_map(identity_channel(3), make_reference(maximally_mixed(2)))

    def test_map_that_is_not_trace_preserving_rejected(self):
        # the probe output's unit trace is the one check the probe keeps
        with pytest.raises(ValueError, match="trace"):
            forward_map(zero_map(2, 2), make_reference(maximally_mixed(2)))


class TestVIsometry:
    def test_isometry_contract(self):
        rng = np.random.default_rng(4)
        for d1, d2 in [(2, 2), (3, 2), (2, 4)]:
            v = v_isometry(rand_reference(rng, d1), d2)
            assert v.shape == (d1 * d2 * d1, d2)
            assert operator_norm(v.conj().T @ v - np.eye(d2)) <= 1e-10

    def test_index_positions_for_maximally_mixed_qubit(self):
        v = v_isometry(make_reference(maximally_mixed(2)), 2)
        expected = np.zeros((8, 2))
        for i in range(2):
            for mu in range(2):
                expected[i * 4 + mu * 2 + i, mu] = 1 / np.sqrt(2)
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_trivial_input_dimension(self):
        ref = make_reference(DensityOperator(np.array([[1.0]])))
        np.testing.assert_allclose(v_isometry(ref, 3), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("d1, d2", [(1, 3), (2, 2), (3, 2), (2, 4)])
    def test_matches_double_loop_oracle(self, d1, d2):
        rng = np.random.default_rng(5)
        ref = rand_reference(rng, d1)
        p, phi = ref.spectrum.eigenvalues, ref.spectrum.eigenvectors
        v = v_isometry(ref, d2)
        assert np.max(np.abs(v - v_isometry_oracle(p, phi, d2))) <= 1e-15
        # the output basis of the paper's construction drops out of V
        rotated = v_isometry_oracle(p, phi, d2, basis=random_unitary(d2, seed=42))
        assert np.max(np.abs(v - rotated)) <= 1e-15


class TestRNOperator:
    def test_identity_channel_maximally_mixed(self):
        d = 2
        ref = make_reference(maximally_mixed(d))
        f = rn_operator(identity_channel(d), ref)
        phi = ref.spectrum.eigenvectors
        unnorm = sum(tensor_product(phi[:, i], phi[:, i]) for i in range(d))
        np.testing.assert_allclose(f.mat, d * np.outer(unnorm, unnorm.conj()), atol=1e-10)

    def test_unitary_covariance(self):
        d = 3
        u = random_unitary(d, seed=7)
        ref = make_reference(maximally_mixed(d))
        f = rn_operator(unitary_channel(u), ref)
        f_id = rn_operator(identity_channel(d), ref).mat
        lift = tensor_product(u, np.eye(d))
        np.testing.assert_allclose(f.mat, lift @ f_id @ lift.conj().T, atol=1e-9)

    def test_positive_and_normalized_against_reference(self):
        rng = np.random.default_rng(8)
        t = random_channel(3, 2, 3, seed=9)
        ref = rand_reference(rng, 3)
        f = rn_operator(t, ref)
        assert np.linalg.eigvalsh(f.mat)[0] >= -1e-9
        lift = tensor_product(np.eye(2), ref.rho.mat)
        assert np.trace(lift @ f.mat @ lift).real == pytest.approx(1.0, abs=1e-9)


    def test_near_hermitian_operator_rejected(self):
        f = rn_operator(random_channel(2, 2, 2, seed=9), make_reference(maximally_mixed(2))).mat
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 1e-9, -1e-9  # defect 2e-9 > 1e-9
        RNOperator(f)
        with pytest.raises(ValueError, match="operator must be Hermitian"):
            RNOperator(f + skew)


class TestApplyRN:
    def test_reproduces_channel_action(self):
        rng = np.random.default_rng(9)
        for k in range(10):
            d1, d2 = [(2, 2), (3, 2), (2, 3)][k % 3]
            t = random_channel(d1, d2, min(d1 * d2, k + 1), seed=500 + k)
            ref = rand_reference(rng, d1)
            v = v_isometry(ref, d2)
            f = rn_operator(t, ref)
            sigma = DensityOperator(rand_density_mat(rng, d1))
            np.testing.assert_allclose(
                apply_rn(v, f, sigma), t.apply_matrix(sigma.mat), atol=1e-9
            )

    def test_zero_operator_gives_zero_map(self):
        rng = np.random.default_rng(10)
        ref = rand_reference(rng, 2)
        v = v_isometry(ref, 2)
        f = RNOperator(np.zeros((4, 4)))
        out = apply_rn(v, f, DensityOperator(rand_density_mat(rng, 2)))
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)

    def test_arbitrary_positive_operator_yields_cp_map(self):
        rng = np.random.default_rng(11)
        ref = rand_reference(rng, 2)
        v = v_isometry(ref, 2)
        f_mat = rand_density_mat(rng, 4) * 3.0
        c = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                c += tensor_product(_apply_rn_matrix(v, f_mat, unit), unit)
        assert np.linalg.eigvalsh((c + c.conj().T) / 2)[0] >= -1e-9

    def test_shape_validation(self):
        rng = np.random.default_rng(12)
        ref = rand_reference(rng, 2)
        v = v_isometry(ref, 2)
        with pytest.raises(ValueError):
            apply_rn(v, RNOperator(np.zeros((6, 6))), DensityOperator(np.eye(2) / 2))


class TestReconstruct:
    def test_identity_round_trip(self):
        rng = np.random.default_rng(13)
        ref = rand_reference(rng, 2)
        result = reconstruct(forward_map(identity_channel(2), ref), ref, 2)
        assert result.tp_residual <= 1e-9
        assert trace_norm(choi(result.cp_map).mat - choi(identity_channel(2)).mat) <= 1e-9

    def test_round_trip_matches_block_extraction_oracle(self):
        rng = np.random.default_rng(14)
        for k in range(10):
            d1, d2 = [(2, 2), (3, 2), (2, 3)][k % 3]
            t = random_channel(d1, d2, min(d1 * d2, 2 + k % 3), seed=600 + k)
            ref = rand_reference(rng, d1)
            w = forward_map(t, ref)
            rec = reconstruct(w, ref, d2)
            oracle = choi_from_w_oracle(
                w.mat, ref.spectrum.eigenvalues, ref.spectrum.eigenvectors, d2
            )
            assert trace_norm(choi(rec.cp_map).mat - oracle) <= 1e-8
            assert trace_norm(choi(rec.cp_map).mat - choi(t).mat) <= 1e-8

    def test_maximally_mixed_reference_matches_choi_inversion(self):
        for k in range(10):
            t = random_channel(2, 2, 2 + k % 3, seed=700 + k)
            ref = make_reference(maximally_mixed(2))
            w = forward_map(t, ref)
            rec = reconstruct(w, ref, 2)
            direct = from_choi(ChoiMatrix(dim_in=2, dim_out=2, mat=2 * w.mat))
            assert trace_norm(choi(rec.cp_map).mat - choi(direct).mat) <= 1e-9

    def test_clip_magnitude_reported(self):
        rng = np.random.default_rng(15)
        ref = rand_reference(rng, 2, min_eig=0.2)
        w = forward_map(random_channel(2, 2, 2, seed=16), ref)
        noise = rand_density_mat(rng, 4) - np.eye(4) / 4
        perturbed = w.mat + 5e-9 * noise  # probe outputs are rank deficient
        assert np.linalg.eigvalsh(perturbed)[0] < 0
        rec = reconstruct(perturbed, ref, 2)
        assert rec.clip_magnitude > 0.0

    def test_strongly_non_psd_input_rejected(self):
        rng = np.random.default_rng(15)
        ref = rand_reference(rng, 2, min_eig=0.2)
        w = forward_map(random_channel(2, 2, 2, seed=16), ref)
        noise = rand_density_mat(rng, 4) - np.eye(4) / 4
        from chanid.channel import NotCompletelyPositiveError

        with pytest.raises(NotCompletelyPositiveError):
            reconstruct(w.mat + 0.05 * noise, ref, 2)

    def test_result_map_is_cp(self):
        rng = np.random.default_rng(16)
        ref = rand_reference(rng, 2, min_eig=0.15)
        w = forward_map(random_channel(2, 2, 3, seed=17), ref)
        noisy = DensityOperator(0.9 * w.mat + 0.1 * np.eye(4) / 4)
        rec = reconstruct(noisy, ref, 2)
        assert np.linalg.eigvalsh(choi(rec.cp_map).mat)[0] >= -1e-8

    def test_raw_array_with_wrong_trace_rejected(self):
        ref = make_reference(maximally_mixed(2))
        w = forward_map(random_channel(2, 2, 2, seed=24), ref)
        with pytest.raises(ValueError, match="trace"):
            reconstruct(1.01 * w.mat, ref, 2)

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("min_eig", [1e-6, 1e-8, 1e-9, 3e-10, 1.5e-10])
    def test_noiseless_round_trip_at_conditioning_edge(self, d, min_eig):
        # double-precision error amplified by ||rho^-1|| = 1/min_eig, and
        # every min_eig above the admissibility cutoff must round-trip with
        # the true Kraus rank
        t = random_channel(d, d, d, seed=25 + d)
        u = random_unitary(d, seed=35 + d)
        p = np.array([min_eig] + [(1.0 - min_eig) / (d - 1)] * (d - 1))
        rho = (u * p) @ u.conj().T
        ref = make_reference(DensityOperator((rho + rho.conj().T) / 2))
        rec = reconstruct(forward_map(t, ref), ref, d)
        assert np.max(np.abs(choi(rec.cp_map).mat - choi(t).mat)) <= 1e-12 / min_eig
        assert len(rec.cp_map.kraus) == d


class TestConsistencyResidual:
    def test_noiseless_forward_maps(self):
        rng = np.random.default_rng(17)
        for k in range(5):
            t = random_channel(2, 3, 2, seed=800 + k)
            ref = rand_reference(rng, 2)
            assert consistency_residual(forward_map(t, ref), ref, 3) <= 1e-9

    def test_uniform_state_with_maximally_mixed_reference(self):
        ref = make_reference(maximally_mixed(2))
        w = DensityOperator(np.eye(6) / 6)
        assert consistency_residual(w, ref, 3) <= 1e-12

    def test_increasing_in_depolarizing_strength(self):
        ref = make_reference(DensityOperator(np.diag([0.3, 0.7])))
        w = forward_map(random_channel(2, 2, 2, seed=18), ref)
        residuals = []
        for eps in (0.0, 0.01, 0.05, 0.1):
            mixed = DensityOperator((1 - eps) * w.mat + eps * np.eye(4) / 4)
            residuals.append(consistency_residual(mixed, ref, 2))
        assert residuals[0] <= 1e-9
        for a, b in zip(residuals, residuals[1:]):
            assert b > a


class TestIdentificationInvariants:
    def test_round_trip_over_ensemble(self):
        rng = np.random.default_rng(18)
        for k in range(20):
            d1, d2 = [(2, 2), (2, 3), (3, 2), (3, 3)][k % 4]
            rank = max(1 + k % (d1 * d2), -(-d1 // d2))
            t = random_channel(d1, d2, rank, seed=900 + k)
            ref = rand_reference(rng, d1, min_eig=0.02)
            rec = reconstruct(forward_map(t, ref), ref, d2)
            assert trace_norm(choi(rec.cp_map).mat - choi(t).mat) <= 1e-8
            assert rec.tp_residual <= 1e-8

    def test_injectivity_witness(self):
        rng = np.random.default_rng(19)
        ref = rand_reference(rng, 2, min_eig=0.1)
        t1 = random_channel(2, 2, 2, seed=20)
        t2 = random_channel(2, 2, 2, seed=21)
        choi_dist = trace_norm(choi(t1).mat - choi(t2).mat)
        assert choi_dist > 1e-6
        w_dist = trace_norm(forward_map(t1, ref).mat - forward_map(t2, ref).mat)
        assert w_dist > 1e-9
        rec1 = reconstruct(forward_map(t1, ref), ref, 2)
        rec2 = reconstruct(forward_map(t2, ref), ref, 2)
        recovered = trace_norm(choi(rec1.cp_map).mat - choi(rec2.cp_map).mat)
        assert recovered == pytest.approx(choi_dist, abs=1e-7)

    def test_rescaled_probe_equals_eigenbasis_choi_state(self):
        # (1 x rho^-1/2) w (1 x rho^-1/2) / d1 == (T x id)(|Om_phi><Om_phi|)
        rng = np.random.default_rng(20)
        for k in range(5):
            t = random_channel(2, 3, 2, seed=1000 + k)
            ref = rand_reference(rng, 2, min_eig=0.05)
            w = forward_map(t, ref).mat
            lift = tensor_product(np.eye(3), rho_inv_sqrt(ref))
            rewritten = lift @ w @ lift / 2
            phi = ref.spectrum.eigenvectors
            om = sum(tensor_product(phi[:, i], phi[:, i]) for i in range(2)) / np.sqrt(2)
            direct = tensor_with_identity(t, 2).apply_matrix(np.outer(om, om.conj()))
            assert operator_norm(rewritten - direct) <= 1e-9

    def test_consistency_zero_iff_trace_preserving(self):
        rng = np.random.default_rng(21)
        ref = make_reference(DensityOperator(np.diag([0.25, 0.75])))
        w_clean = forward_map(random_channel(2, 2, 2, seed=22), ref)
        cases = [w_clean.mat]
        cases.append(0.95 * w_clean.mat + 0.05 * np.eye(4) / 4)
        cases.append(0.8 * w_clean.mat + 0.2 * rand_density_mat(rng, 4))
        for mat in cases:
            w = DensityOperator(mat)
            rec = reconstruct(w, ref, 2)
            cons_zero = rec.consistency_residual <= 1e-9
            tp_zero = rec.tp_residual <= 1e-8
            assert cons_zero == tp_zero

    def test_degenerate_eigenbasis_does_not_change_reconstruction(self):
        # for a degenerate reference any orthonormal eigenbasis must lead
        # back to the same channel, even though the probe state itself
        # depends on the basis choice
        rho = maximally_mixed(2)
        ref_a = make_reference(rho)
        rotated = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
        spec_b = Spectrum(eigenvalues=np.array([0.5, 0.5]), eigenvectors=rotated)
        ref_b = ReferenceState(dim=2, rho=rho, spectrum=spec_b, min_eig=0.5)
        t = random_channel(2, 2, 3, seed=23)
        rec_a = reconstruct(forward_map(t, ref_a), ref_a, 2)
        rec_b = reconstruct(forward_map(t, ref_b), ref_b, 2)
        assert trace_norm(choi(rec_a.cp_map).mat - choi(t).mat) <= 1e-8
        assert trace_norm(choi(rec_b.cp_map).mat - choi(t).mat) <= 1e-8
