import numpy as np
import pytest

from chanid.channel import (
    ChoiMatrix,
    KrausChannel,
    choi,
    compose,
    depolarizing_channel,
    from_choi,
    identity_channel,
    random_channel,
    tensor_with_identity,
    unitary_channel,
    zero_map,
)
from chanid.harness import NoiseSpec, apply_noise
from chanid.identify import (
    NotAdmissibleError,
    ReferenceState,
    RNOperator,
    _apply_rn_matrix,
    _probe_matrices,
    _probe_outputs,
    _reconstruct_stack,
    _reference_arrays,
    apply_rn,
    forward_map,
    make_reference,
    reconstruct,
    rn_operator,
    v_isometry,
)
from chanid.linalg import (
    DensityOperator,
    maximally_mixed,
    random_unitary,
    spectral_decomposition,
)
from chanid.metrics import channel_fidelity, worst_case_bound

from conftest import (
    choi_elementwise_oracle,
    choi_from_w_oracle,
    choi_gram_oracle,
    noise_clipped_state,
    partial_trace_oracle,
    rand_density_mat,
    rho_inv_sqrt,
    singular_values_oracle,
    v_isometry_oracle,
)


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


class TestOneReferencePath:
    """A ReferenceState is derived from rho and its cutoff by _reference_arrays,
    the core that decomposes and admits the round trip's stacks of references:
    item i of a stack has the bits of make_reference of the i-th state."""

    @staticmethod
    def assert_same_bits(ref, stacked, i):
        spec, min_eig, x, x_inv = stacked
        assert ref.dim == x.shape[-1]
        assert ref.min_eig == min_eig[i]
        for own, item in [
            (ref.spectrum.eigenvalues, spec.eigenvalues[i]),
            (ref.spectrum.eigenvectors, spec.eigenvectors[i]),
            (ref.x, x[i]),
            (ref.x_inv, x_inv[i]),
        ]:
            assert own.tobytes() == item.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_make_reference_has_the_bits_of_the_stacked_core(self, d):
        rng = np.random.default_rng(60 + d)
        rhos = [DensityOperator(rand_density_mat(rng, d, min_eig=0.05 / d)) for _ in range(5)]
        stacked = _reference_arrays(np.array([rho.mat for rho in rhos]))
        for i, rho in enumerate(rhos):
            self.assert_same_bits(make_reference(rho), stacked, i)

    def test_degenerate_reference_has_the_bits_of_the_stacked_core(self):
        rhos = [maximally_mixed(3), DensityOperator(rand_density_mat(np.random.default_rng(66), 3))]
        stacked = _reference_arrays(np.array([rho.mat for rho in rhos]))
        ref = make_reference(rhos[0])
        self.assert_same_bits(ref, stacked, 0)
        assert (ref.spectrum.eigenvalues == 1 / 3).all()  # one eigenvalue of multiplicity 3

    def test_subnormal_min_eig_overflows_its_inverse(self):
        rho = DensityOperator(np.diag([5e-324, 1.0]))
        with pytest.raises(NotAdmissibleError, match="overflows a double"):
            make_reference(rho, cutoff=0)
        with pytest.raises(NotAdmissibleError, match="overflows a double"):
            _reference_arrays(np.array([np.eye(2) / 2, rho.mat]), 0.0)

    def test_direct_construction_admits_the_min_eig(self):
        rho = DensityOperator(np.diag([0.999, 0.001]))
        assert ReferenceState(rho, 1e-4).min_eig == make_reference(rho, 1e-4).min_eig
        with pytest.raises(NotAdmissibleError, match="<= cutoff"):
            ReferenceState(rho, 0.01)
        with pytest.raises(NotAdmissibleError, match="<= cutoff"):
            ReferenceState(rho, 0.001)

    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), -1.0])
    def test_direct_construction_checks_the_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite and non-negative"):
            ReferenceState(maximally_mixed(2), cutoff)

    def test_plain_array_is_checked_as_a_density_operator(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        for ref in (make_reference(rho), ReferenceState(rho), make_reference([[0.3, 0], [0, 0.7]])):
            assert isinstance(ref.rho, DensityOperator)
            self.assert_same_bits(ref, _reference_arrays(rho[None]), 0)
        for bad, message in [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
            (np.eye(2), "is not 1 within"),
            (np.diag([1.5, -0.5]), "not PSD"),
            (np.ones(2) / 2, "must be square"),
        ]:
            with pytest.raises(ValueError, match=message):
                make_reference(bad)

    def test_derived_fields_are_not_arguments(self):
        # a dim, spectrum or min_eig given by hand could disagree with rho
        rho = maximally_mixed(2)
        for name, value in [("dim", 3), ("spectrum", spectral_decomposition(rho.mat)), ("min_eig", 0.9)]:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                ReferenceState(rho=rho, cutoff=0.1, **{name: value})
        ref = ReferenceState(rho, 0.1)
        assert (ref.dim, ref.min_eig, ref.cutoff) == (2, 0.5, 0.1)


class TestOmega:
    def test_maximally_mixed_gives_maximally_entangled(self):
        vector = make_reference(maximally_mixed(2)).x.reshape(-1)
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(vector, expected, atol=1e-14)

    def test_schmidt_form_for_diagonal_reference(self):
        vector = make_reference(DensityOperator(np.diag([0.3, 0.7]))).x.reshape(-1)
        expected = np.zeros(4)
        expected[0] = np.sqrt(0.3)
        expected[3] = np.sqrt(0.7)
        np.testing.assert_allclose(vector, expected, atol=1e-14)

    def test_unit_norm_and_marginals(self):
        rng = np.random.default_rng(1)
        ref = rand_reference(rng, 3)
        vector = ref.x.reshape(-1)
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        # both marginals reproduce the reference state itself
        proj = np.outer(vector, vector.conj())
        for which in ("first", "second"):
            marg = partial_trace_oracle(proj, 3, 3, which)
            assert np.linalg.norm(marg - ref.rho.mat, 2) <= 1e-12
        # in the eigenbasis both marginals are diag(p)
        phi = ref.spectrum.eigenvectors
        diag = phi.conj().T @ partial_trace_oracle(proj, 3, 3, "second") @ phi
        np.testing.assert_allclose(diag, np.diag(ref.spectrum.eigenvalues), atol=1e-12)


class TestForwardMap:
    def test_identity_returns_probe_projector(self):
        rng = np.random.default_rng(2)
        ref = rand_reference(rng, 3)
        w = forward_map(identity_channel(3), ref)
        vector = ref.x.reshape(-1)
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
        rot = np.kron(np.eye(3), phi)
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


def _gram_cases():
    """(id, map, reference) for the Gram-product tests: each (d1, d2) at Kraus
    rank 1 and d1·d2, a composed map with more Kraus columns than Choi rows,
    and a from_choi map whose factor has cut (zero) columns."""
    rng = np.random.default_rng(31)
    cases = []
    for d1, d2 in [(1, 3), (2, 3), (3, 2), (3, 3)]:
        for rank in sorted({r for r in (1, d1 * d2) if d2 * r >= d1}):
            t = random_channel(d1, d2, rank, seed=40 + 10 * d1 + d2 + rank)
            cases.append((f"d1={d1}-d2={d2}-rank={rank}", t, rand_reference(rng, d1)))
    wide = compose(depolarizing_channel(0.05, 3), random_channel(3, 3, 3, seed=9))
    assert wide._factor.shape == (9, 30)
    cut = from_choi(choi(random_channel(3, 3, 2, seed=12)))
    assert cut._factor.shape == (9, 9) and (~cut._factor.any(axis=0)).sum() == 7
    cases += [("wide-30-of-9", wide, rand_reference(rng, 3)), ("cut-columns", cut, rand_reference(rng, 3))]
    return cases


GRAM_CASES = _gram_cases()


class TestGramOfTheLiftedFactor:
    """forward_map and rn_operator are Gram products of the lifted Choi factor:
    they equal the Kronecker congruences (1 ⊗ X) C (1 ⊗ X)† and
    (1 ⊗ X⁻†) C (1 ⊗ X⁻†)† of the elementwise Choi matrix C, to rounding."""

    @staticmethod
    def _congruence_oracle(t, lift):
        big = np.kron(np.eye(t.dim_out), lift)
        return big @ choi_elementwise_oracle(t) @ big.conj().T

    @pytest.mark.parametrize("t, ref", [c[1:] for c in GRAM_CASES], ids=[c[0] for c in GRAM_CASES])
    def test_forward_map_matches_the_kronecker_congruence(self, t, ref):
        expected = self._congruence_oracle(t, ref.x)
        got = forward_map(t, ref).mat
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("t, ref", [c[1:] for c in GRAM_CASES], ids=[c[0] for c in GRAM_CASES])
    def test_rn_operator_matches_the_kronecker_congruence(self, t, ref):
        expected = self._congruence_oracle(t, np.linalg.inv(ref.x).conj().T)
        got = rn_operator(t, ref).mat
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestVIsometry:
    def test_isometry_contract(self):
        rng = np.random.default_rng(4)
        for d1, d2 in [(2, 2), (3, 2), (2, 4)]:
            v = v_isometry(rand_reference(rng, d1), d2)
            assert v.shape == (d1 * d2 * d1, d2)
            assert np.linalg.norm(v.conj().T @ v - np.eye(d2), 2) <= 1e-10

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
        unnorm = sum(np.kron(phi[:, i], phi[:, i]) for i in range(d))
        np.testing.assert_allclose(f.mat, d * np.outer(unnorm, unnorm.conj()), atol=1e-10)

    def test_unitary_covariance(self):
        d = 3
        u = random_unitary(d, seed=7)
        ref = make_reference(maximally_mixed(d))
        f = rn_operator(unitary_channel(u), ref)
        f_id = rn_operator(identity_channel(d), ref).mat
        lift = np.kron(u, np.eye(d))
        np.testing.assert_allclose(f.mat, lift @ f_id @ lift.conj().T, atol=1e-9)

    def test_positive_and_normalized_against_reference(self):
        rng = np.random.default_rng(8)
        t = random_channel(3, 2, 3, seed=9)
        ref = rand_reference(rng, 3)
        f = rn_operator(t, ref)
        assert np.linalg.eigvalsh(f.mat)[0] >= -1e-9
        lift = np.kron(np.eye(2), ref.rho.mat)
        assert np.trace(lift @ f.mat @ lift).real == pytest.approx(1.0, abs=1e-9)


    def test_near_hermitian_operator_rejected(self):
        f = rn_operator(random_channel(2, 2, 2, seed=9), make_reference(maximally_mixed(2))).mat
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 1e-9, -1e-9  # defect 2e-9 > 1e-9
        RNOperator(f)
        with pytest.raises(ValueError, match="operator must be Hermitian"):
            RNOperator(f + skew)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_is_rejected_before_any_decomposition(self, bad, monkeypatch):
        f = rn_operator(random_channel(2, 2, 2, seed=9), make_reference(maximally_mixed(2))).mat.copy()
        f[0, 1] = bad
        calls = []
        for routine in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, routine)
            monkeypatch.setattr(np.linalg, routine, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="operator entries must be finite") as info:
            RNOperator(f)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert calls == []


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

    def test_matches_the_kronecker_form_without_building_it(self, monkeypatch):
        rng = np.random.default_rng(14)
        cases = []
        for d1, d2 in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
            ref = rand_reference(rng, d1)
            v = v_isometry(ref, d2)
            f = RNOperator(rand_density_mat(rng, d1 * d2) * 2.0)
            sigma = DensityOperator(rand_density_mat(rng, d1))
            cases.append((v, f, sigma, v.conj().T @ np.kron(sigma.mat, f.mat) @ v))
        krons = []
        real_kron = np.kron
        monkeypatch.setattr(np, "kron", lambda *a: krons.append(1) or real_kron(*a))
        for v, f, sigma, expected in cases:
            got = apply_rn(v, f, sigma)
            assert np.linalg.norm(got - expected, 2) <= 1e-15 * max(1.0, np.linalg.norm(expected, 2))
        assert krons == []

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
                c += np.kron(_apply_rn_matrix(v, f_mat, unit), unit)
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
        result = reconstruct(forward_map(identity_channel(2), ref), ref)
        assert result.tp_residual <= 1e-9
        assert np.linalg.norm(choi(result.cp_map).mat - choi(identity_channel(2)).mat, "nuc") <= 1e-9

    def test_round_trip_matches_block_extraction_oracle(self):
        rng = np.random.default_rng(14)
        for k in range(10):
            d1, d2 = [(2, 2), (3, 2), (2, 3)][k % 3]
            t = random_channel(d1, d2, min(d1 * d2, 2 + k % 3), seed=600 + k)
            ref = rand_reference(rng, d1)
            w = forward_map(t, ref)
            rec = reconstruct(w, ref)
            oracle = choi_from_w_oracle(
                w.mat, ref.spectrum.eigenvalues, ref.spectrum.eigenvectors, d2
            )
            assert np.linalg.norm(choi(rec.cp_map).mat - oracle, "nuc") <= 1e-8
            assert np.linalg.norm(choi(rec.cp_map).mat - choi(t).mat, "nuc") <= 1e-8

    def test_maximally_mixed_reference_matches_choi_inversion(self):
        for k in range(10):
            t = random_channel(2, 2, 2 + k % 3, seed=700 + k)
            ref = make_reference(maximally_mixed(2))
            w = forward_map(t, ref)
            rec = reconstruct(w, ref)
            direct = from_choi(ChoiMatrix(dim_in=2, dim_out=2, mat=2 * w.mat))
            assert np.linalg.norm(choi(rec.cp_map).mat - choi(direct).mat, "nuc") <= 1e-9

    def test_clip_magnitude_reported(self):
        rng = np.random.default_rng(15)
        ref = rand_reference(rng, 2, min_eig=0.2)
        w = forward_map(random_channel(2, 2, 2, seed=16), ref)
        noise = rand_density_mat(rng, 4) - np.eye(4) / 4
        perturbed = w.mat + 5e-9 * noise  # probe outputs are rank deficient
        assert np.linalg.eigvalsh(perturbed)[0] < 0
        rec = reconstruct(perturbed, ref)
        assert rec.clip_magnitude > 0.0

    def test_strongly_non_psd_input_rejected(self):
        rng = np.random.default_rng(15)
        ref = rand_reference(rng, 2, min_eig=0.2)
        w = forward_map(random_channel(2, 2, 2, seed=16), ref)
        noise = rand_density_mat(rng, 4) - np.eye(4) / 4
        from chanid.channel import NotCompletelyPositiveError

        with pytest.raises(NotCompletelyPositiveError):
            reconstruct(w.mat + 0.05 * noise, ref)

    def test_result_map_is_cp(self):
        rng = np.random.default_rng(16)
        ref = rand_reference(rng, 2, min_eig=0.15)
        w = forward_map(random_channel(2, 2, 3, seed=17), ref)
        noisy = DensityOperator(0.9 * w.mat + 0.1 * np.eye(4) / 4)
        rec = reconstruct(noisy, ref)
        assert np.linalg.eigvalsh(choi(rec.cp_map).mat)[0] >= -1e-8

    def test_raw_array_with_wrong_trace_rejected(self):
        ref = make_reference(maximally_mixed(2))
        w = forward_map(random_channel(2, 2, 2, seed=24), ref)
        with pytest.raises(ValueError, match="trace"):
            reconstruct(1.01 * w.mat, ref)

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
        rec = reconstruct(forward_map(t, ref), ref)
        assert np.max(np.abs(choi(rec.cp_map).mat - choi(t).mat)) <= 1e-12 / min_eig
        assert len(rec.cp_map.kraus) == d

    @pytest.mark.parametrize("d, rank", [(2, 1), (2, 4), (3, 9), (4, 4), (6, 6), (6, 36)])
    @pytest.mark.parametrize("floor", ["1e-3/d", "1e-8", "2e-10"])
    def test_rank_cutoff_on_w_keeps_the_true_rank(self, d, rank, floor):
        # the cutoff reads w's eigenvalues against ||w||_op: down to min eig
        # 2e-10 no true Choi eigenvalue falls under it, and the fidelity keeps
        # its few-ulp certificate relative to ||rho^-1||
        m = 1e-3 / d if floor == "1e-3/d" else float(floor)
        rng = np.random.default_rng(100 * d + rank)
        for k in range(12):
            t = random_channel(d, d, rank, seed=1000 * d + 10 * rank + k)
            u = random_unitary(d, seed=k)
            p = np.concatenate([[m], (1.0 - m) * rng.dirichlet(np.ones(d - 1))])
            rho = (u * p) @ u.conj().T
            ref = make_reference(DensityOperator((rho + rho.conj().T) / 2))
            rec = reconstruct(forward_map(t, ref), ref)
            assert len(rec.cp_map.kraus) == rank
            assert abs(1.0 - channel_fidelity(rec.cp_map, t)) * ref.min_eig <= 2e-15


class TestBuiltMapsCacheTheirChoi:
    """``from_choi`` and ``reconstruct`` cache F F† of their factor F as the map's
    Choi matrix instead of rebuilding it from the Kraus operators they cut;
    the two agree to rounding, and so do the TP defects."""

    def test_cached_choi_and_tp_defect_match_the_kraus_set(self):
        rng = np.random.default_rng(71)
        for d1 in range(1, 7):
            for d2 in range(1, 7):
                ref = make_reference(DensityOperator(rand_density_mat(rng, d1, 0.05 / d1)))
                for rank in sorted({r for r in (1, d1, d1 * d1) if d2 * r >= d1 and r <= d1 * d2}):
                    t = random_channel(d1, d2, rank, seed=1000 * d1 + 10 * d2 + rank)
                    w = forward_map(t, ref).mat
                    jittered = apply_noise(DensityOperator(w), NoiseSpec("hermitian_jitter", 0.05), seed=rank)
                    maps = [from_choi(choi(t))] + [reconstruct(x, ref).cp_map for x in (w, jittered)]
                    for m in maps:
                        c = choi(m).mat
                        assert np.linalg.norm(c - choi_gram_oracle(m), 2) <= 1e-13 * np.linalg.norm(c, 2)
                        rebuilt = KrausChannel(m.dim_in, m.dim_out, m.kraus)
                        assert abs(m.tp_defect - rebuilt.tp_defect) <= 1e-14


class TestConsistencyResidual:
    def test_noiseless_forward_maps(self):
        rng = np.random.default_rng(17)
        for k in range(5):
            t = random_channel(2, 3, 2, seed=800 + k)
            ref = rand_reference(rng, 2)
            assert reconstruct(forward_map(t, ref), ref).consistency_residual <= 1e-9

    def test_uniform_state_with_maximally_mixed_reference(self):
        ref = make_reference(maximally_mixed(2))
        w = DensityOperator(np.eye(6) / 6)
        assert reconstruct(w, ref).consistency_residual <= 1e-12

    def test_increasing_in_depolarizing_strength(self):
        ref = make_reference(DensityOperator(np.diag([0.3, 0.7])))
        w = forward_map(random_channel(2, 2, 2, seed=18), ref)
        residuals = []
        for eps in (0.0, 0.01, 0.05, 0.1):
            mixed = DensityOperator((1 - eps) * w.mat + eps * np.eye(4) / 4)
            residuals.append(reconstruct(mixed, ref).consistency_residual)
        assert residuals[0] <= 1e-9
        for a, b in zip(residuals, residuals[1:]):
            assert b > a

    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_the_residual_reconstruct_reports(self, d):
        # ||tr_out C - 1||_1 of the block-extraction Choi matrix of a noisy
        # (already PSD) w is the residual reconstruct reports for it
        rng = np.random.default_rng(40 + d)
        noises = (NoiseSpec("depolarize", 0.02), NoiseSpec("hermitian_jitter", 0.05))
        for k in range(12):
            ref = rand_reference(rng, d, min_eig=0.05 / d)
            t = random_channel(d, d, (1, d, d * d)[k % 3], seed=100 * d + k)
            w = apply_noise(forward_map(t, ref), noises[k % 2], seed=k)
            c = choi_from_w_oracle(w.mat, ref.spectrum.eigenvalues, ref.spectrum.eigenvectors, d)
            oracle = np.linalg.norm(partial_trace_oracle(c, d, d, "first") - np.eye(d), "nuc")
            assert abs(reconstruct(w, ref).consistency_residual - oracle) <= 1e-12 * max(1.0, oracle)


class TestMixedSignMarginal:
    """Maps whose tr_out C - 1 has its largest |eigenvalue| negative, next to
    positive ones: the TP defect is that |eigenvalue|, the consistency
    residual the sum of all of them."""

    # the probe output has unit trace: tr(rho sum A† A) = 1 with A = diag(sqrt m) u
    @pytest.mark.parametrize(
        "p, m, u",
        [((0.3, 0.7), (0.5, 0.85 / 0.7), np.eye(2)), ((1 / 3,) * 3, (0.5, 1.2, 1.3), random_unitary(3, 8))],
        ids=["d2", "d3"],
    )
    def test_residuals_match_the_singular_values(self, p, m, u):
        d = len(p)
        ref = make_reference(DensityOperator(np.diag(np.array(p, dtype=complex))))
        t = KrausChannel(dim_in=d, dim_out=d, kraus=(np.diag(np.sqrt(m)) @ u,))
        w = forward_map(t, ref)
        rec = reconstruct(w, ref)
        deviation = partial_trace_oracle(choi(rec.cp_map).mat, d, d, "first") - np.eye(d)
        assert rec.tp_residual == pytest.approx(singular_values_oracle(deviation)[0], abs=1e-13)
        assert rec.tp_residual == pytest.approx(0.5, abs=1e-12)
        deviation = partial_trace_oracle(choi(t).mat, d, d, "first") - np.eye(d)
        assert rec.consistency_residual == pytest.approx(np.sum(singular_values_oracle(deviation)), abs=1e-12)


class TestIdentificationInvariants:
    def test_round_trip_over_ensemble(self):
        rng = np.random.default_rng(18)
        for k in range(20):
            d1, d2 = [(2, 2), (2, 3), (3, 2), (3, 3)][k % 4]
            rank = max(1 + k % (d1 * d2), -(-d1 // d2))
            t = random_channel(d1, d2, rank, seed=900 + k)
            ref = rand_reference(rng, d1, min_eig=0.02)
            rec = reconstruct(forward_map(t, ref), ref)
            assert np.linalg.norm(choi(rec.cp_map).mat - choi(t).mat, "nuc") <= 1e-8
            assert rec.tp_residual <= 1e-8

    def test_injectivity_witness(self):
        rng = np.random.default_rng(19)
        ref = rand_reference(rng, 2, min_eig=0.1)
        t1 = random_channel(2, 2, 2, seed=20)
        t2 = random_channel(2, 2, 2, seed=21)
        choi_dist = np.linalg.norm(choi(t1).mat - choi(t2).mat, "nuc")
        assert choi_dist > 1e-6
        w_dist = np.linalg.norm(forward_map(t1, ref).mat - forward_map(t2, ref).mat, "nuc")
        assert w_dist > 1e-9
        rec1 = reconstruct(forward_map(t1, ref), ref)
        rec2 = reconstruct(forward_map(t2, ref), ref)
        recovered = np.linalg.norm(choi(rec1.cp_map).mat - choi(rec2.cp_map).mat, "nuc")
        assert recovered == pytest.approx(choi_dist, abs=1e-7)

    def test_rescaled_probe_equals_eigenbasis_choi_state(self):
        # (1 x rho^-1/2) w (1 x rho^-1/2) / d1 == (T x id)(|Om_phi><Om_phi|)
        rng = np.random.default_rng(20)
        for k in range(5):
            t = random_channel(2, 3, 2, seed=1000 + k)
            ref = rand_reference(rng, 2, min_eig=0.05)
            w = forward_map(t, ref).mat
            lift = np.kron(np.eye(3), rho_inv_sqrt(ref))
            rewritten = lift @ w @ lift / 2
            phi = ref.spectrum.eigenvectors
            om = sum(np.kron(phi[:, i], phi[:, i]) for i in range(2)) / np.sqrt(2)
            direct = tensor_with_identity(t, 2).apply_matrix(np.outer(om, om.conj()))
            assert np.linalg.norm(rewritten - direct, 2) <= 1e-9

    def test_consistency_zero_iff_trace_preserving(self):
        rng = np.random.default_rng(21)
        ref = make_reference(DensityOperator(np.diag([0.25, 0.75])))
        w_clean = forward_map(random_channel(2, 2, 2, seed=22), ref)
        cases = [w_clean.mat]
        cases.append(0.95 * w_clean.mat + 0.05 * np.eye(4) / 4)
        cases.append(0.8 * w_clean.mat + 0.2 * rand_density_mat(rng, 4))
        for mat in cases:
            w = DensityOperator(mat)
            rec = reconstruct(w, ref)
            cons_zero = rec.consistency_residual <= 1e-9
            tp_zero = rec.tp_residual <= 1e-8
            assert cons_zero == tp_zero

    def test_degenerate_eigenbasis_does_not_change_reconstruction(self):
        # for a degenerate reference any orthonormal eigenbasis must lead
        # back to the same channel, even though the probe state itself
        # depends on the basis choice; a ReferenceState always takes the
        # phase-fixed eigh basis, so the rotated one goes through the cores
        p = np.array([0.5, 0.5])
        rotated = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
        t = random_channel(2, 2, 3, seed=23)
        for vecs in (make_reference(maximally_mixed(2)).spectrum.eigenvectors, rotated):
            x, x_inv = _probe_matrices(p, vecs)
            w = _probe_outputs(t._factor, x)
            factor = _reconstruct_stack(w[None], x_inv[None])[0][0]
            assert np.linalg.norm(factor @ factor.conj().T - choi(t).mat, "nuc") <= 1e-8


class TestOneClip:
    """reconstruct is the one clip of a probe output: a DensityOperator keeps
    its matrix as given, so wrapping w first changes no bit of the result."""

    @staticmethod
    def assert_same_result(w, ref):
        a, b = reconstruct(DensityOperator(w), ref), reconstruct(w, ref)
        assert np.array(a.cp_map.kraus).tobytes() == np.array(b.cp_map.kraus).tobytes()
        assert (a.tp_residual, a.consistency_residual, a.clip_magnitude) == (
            b.tp_residual, b.consistency_residual, b.clip_magnitude
        )
        return b

    def test_noise_clipped_state(self):
        w = noise_clipped_state()
        vals = np.linalg.eigvalsh(w)
        rec = self.assert_same_result(w, make_reference(maximally_mixed(2)))
        assert rec.clip_magnitude == pytest.approx(-vals[vals < 0].sum(), rel=0, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_noiseless_rank_one_probe_outputs(self, d):
        ref = rand_reference(np.random.default_rng(40 + d), d, min_eig=0.05 / d)
        t = random_channel(d, d, 1, seed=d)
        w = forward_map(t, ref).mat
        assert np.linalg.eigvalsh(w)[0] < 0.0  # rounding puts some eigenvalues below 0: the clip runs
        rec = self.assert_same_result(w, ref)
        assert 0.0 < rec.clip_magnitude <= 1e-14
        assert len(rec.cp_map.kraus) == 1


class TestPlainArrayInput:
    """A plain array w is checked where it enters, as a DensityOperator is."""

    @staticmethod
    def probe_output():
        ref = make_reference(DensityOperator(np.diag([0.2, 0.8])))
        return forward_map(random_channel(2, 2, 4, seed=36), ref).mat.copy(), ref

    def test_non_hermitian_entry_is_rejected(self):
        w, ref = self.probe_output()
        w[0, 1] += 0.05j
        with pytest.raises(ValueError, match="state not Hermitian: defect"):
            reconstruct(w, ref)

    def test_nan_entry_is_rejected_before_any_decomposition(self):
        w, ref = self.probe_output()
        w[0, 1] = np.nan
        with pytest.raises(ValueError, match="state entries must be finite") as info:
            reconstruct(w, ref)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_the_exact_probe_output_is_accepted(self):
        w, ref = self.probe_output()
        assert reconstruct(w, ref).tp_residual <= 1e-12


class TestStateDimension:
    """reconstruct reads the output dimension from w, whose dimension must be a
    multiple of the reference's; every caller refuses one that is not with one text."""

    MESSAGE = "state dim 4 is not a multiple of reference dim 3"

    @pytest.mark.parametrize("wrap", [np.asarray, DensityOperator], ids=["array", "density-operator"])
    def test_reconstruct(self, wrap):
        with pytest.raises(ValueError) as info:
            reconstruct(wrap(np.eye(4, dtype=complex) / 4), make_reference(maximally_mixed(3)))
        assert str(info.value) == self.MESSAGE

    def test_worst_case_bound(self):
        w = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ValueError) as info:
            worst_case_bound(w, w, make_reference(maximally_mixed(3)))
        assert str(info.value) == self.MESSAGE


class TestTpResidualIsTheMapsTpDefect:
    """``tp_residual`` is read from the stacked marginal of the recovered factor,
    the map's ``tp_defect`` from the marginal of its own factor: the same float."""

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(), NoiseSpec("depolarize", 0.02), NoiseSpec("hermitian_jitter", 0.02)],
        ids=["none", "depolarize", "hermitian_jitter"],
    )
    def test_bit_for_bit(self, noise):
        rng = np.random.default_rng(51)
        for d1 in range(1, 7):
            for d2 in range(1, 7):
                t = random_channel(d1, d2, d1, seed=100 * d1 + d2)
                ref = rand_reference(rng, d1, min_eig=0.05 / d1)
                rec = reconstruct(apply_noise(forward_map(t, ref), noise, seed=d1 + 10 * d2), ref)
                assert rec.tp_residual == rec.cp_map.tp_defect, (d1, d2)
