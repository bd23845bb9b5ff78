import re
import warnings

import numpy as np
import pytest

from chanid.channel import (
    ChoiMatrix,
    KrausChannel,
    NotCompletelyPositiveError,
    amplitude_damping_channel,
    choi,
    compose,
    depolarizing_channel,
    from_choi,
    identity_channel,
    is_completely_dominated,
    random_channel,
    stinespring,
    tensor_channels,
    tensor_with_identity,
    unitary_channel,
    zero_map,
)
from chanid.identify import forward_map, make_reference, reconstruct
from chanid.linalg import DensityOperator, maximally_mixed, random_unitary

from chanid.serialize import channel_from_json, channel_to_json

from conftest import (
    apply_via_choi_oracle,
    choi_elementwise_oracle,
    choi_gram_oracle,
    kron_oracle,
    partial_trace_oracle,
    rand_complex,
    rand_density_mat,
    singular_values_oracle,
)


def rand_channels(n, d1=2, d2=2, rank=2, base_seed=0):
    return [random_channel(d1, d2, rank, base_seed + k) for k in range(n)]


class TestApply:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = DensityOperator(rand_density_mat(rng, 3))
        out = identity_channel(3).apply(rho)
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-15)

    def test_fully_depolarizing(self):
        rng = np.random.default_rng(1)
        rho = DensityOperator(rand_density_mat(rng, 2))
        out = depolarizing_channel(1.0, 2).apply(rho)
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_agrees_with_choi_contraction(self):
        rng = np.random.default_rng(2)
        t = random_channel(3, 2, 3, seed=5)
        rho = rand_density_mat(rng, 3)
        np.testing.assert_allclose(
            t.apply_matrix(rho), apply_via_choi_oracle(t, rho), atol=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity_channel(2).apply_matrix(np.eye(3))

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(3)
        for k, t in enumerate(rand_channels(10, d1=3, d2=2, rank=4)):
            rho = DensityOperator(rand_density_mat(rng, 3))
            out = t.apply(rho)
            assert abs(np.trace(out.mat) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.mat)[0] >= -1e-9


class TestDuality:
    def test_identity_dual(self):
        rng = np.random.default_rng(4)
        x = rand_complex(rng, 2, 2)
        np.testing.assert_allclose(identity_channel(2).dual_apply(x), x, atol=1e-15)

    def test_unitary_dual_is_inverse_conjugation(self):
        u = random_unitary(3, seed=6)
        t = unitary_channel(u)
        rng = np.random.default_rng(5)
        x = rand_complex(rng, 3, 3)
        np.testing.assert_allclose(t.dual_apply(x), u.conj().T @ x @ u, atol=1e-12)

    def test_trace_duality_identity(self):
        rng = np.random.default_rng(6)
        for k in range(20):
            t = random_channel(2, 3, 2, seed=100 + k)
            rho = rand_density_mat(rng, 2)
            x = rand_complex(rng, 3, 3)
            lhs = np.trace(t.apply_matrix(rho) @ x)
            rhs = np.trace(rho @ t.dual_apply(x))
            assert abs(lhs - rhs) <= 1e-10

    def test_dual_is_unital_for_channels(self):
        for t in rand_channels(8, d1=3, d2=2, rank=3, base_seed=40):
            assert np.linalg.norm(t.dual_apply(np.eye(2)) - np.eye(3), 2) <= 1e-9


class TestChoi:
    def test_identity_choi_structure(self):
        c = choi(identity_channel(2))
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i * 2 + i, j * 2 + j] = 1.0  # sum_ij |ii><jj|
        np.testing.assert_allclose(c.mat, expected, atol=1e-15)
        assert np.trace(c.mat) == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.matrix_rank(c.mat, tol=1e-10) == 1

    def test_trace_equals_input_dim(self):
        for t in rand_channels(5, d1=3, d2=2, rank=2, base_seed=60):
            assert np.trace(choi(t).mat).real == pytest.approx(3.0, abs=1e-10)

    def test_matches_elementwise_oracle(self):
        t = random_channel(2, 3, 4, seed=8)
        np.testing.assert_allclose(choi(t).mat, choi_elementwise_oracle(t), atol=1e-12)

    def test_trace_preserving_marginal_is_identity(self):
        for t in rand_channels(5, d1=3, d2=2, rank=3, base_seed=80):
            marg = partial_trace_oracle(choi(t).mat, 2, 3, "first")
            assert np.linalg.norm(marg - np.eye(3), 2) <= 1e-9

    def test_cached_matrix_equals_per_call_build(self):
        rng = np.random.default_rng(61)
        for d1 in range(1, 7):
            for d2 in range(1, 7):
                ranks = sorted({r for r in (1, 2, d1, d1 * d2) if d2 * r >= d1 and r <= d1 * d2})
                for rank in ranks:
                    t = random_channel(d1, d2, rank, seed=100 * d1 + 10 * d2 + rank)
                    np.testing.assert_array_equal(choi(t).mat, choi_gram_oracle(t))
                ops = tuple(0.7 * rand_complex(rng, d2, d1) for _ in range(2))
                for t in (zero_map(d1, d2), KrausChannel(dim_in=d1, dim_out=d2, kraus=ops)):
                    np.testing.assert_array_equal(choi(t).mat, choi_gram_oracle(t))

    def test_construction_runs_one_eigvalsh(self, monkeypatch):
        # the Choi matrix is hermitian_part output, Hermitian by definition:
        # only tp_defect (a d_in x d_in marginal) needs an eigvalsh
        ops = random_channel(3, 2, 2, seed=4).kraus
        eigvalsh, shapes = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, **k: shapes.append(np.shape(m)) or eigvalsh(m, **k))
        KrausChannel(dim_in=3, dim_out=2, kraus=ops)
        assert len(shapes) == 1 and shapes[0][-2:] == (3, 3)

    def test_near_hermitian_matrix_rejected_with_its_defect(self):
        c = choi(random_channel(2, 2, 2, seed=3)).mat
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 1e-9, -1e-9  # anti-Hermitian: m - m† = 2 skew
        with pytest.raises(ValueError, match=re.escape(f"Choi matrix not Hermitian: defect {2e-9:.3e}")):
            ChoiMatrix(dim_in=2, dim_out=2, mat=c + skew)

    def test_nan_entry_is_rejected_before_any_decomposition(self):
        c = choi(random_channel(2, 2, 2, seed=3)).mat.copy()
        c[0, 1] = np.nan
        with pytest.raises(ValueError, match="Choi matrix entries must be finite") as info:
            ChoiMatrix(dim_in=2, dim_out=2, mat=c)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_read_without_rebuilding(self):
        t = random_channel(3, 2, 2, seed=9)
        assert choi(t) is choi(t)

    def test_tp_defect_matches_dual_form(self):
        rng = np.random.default_rng(62)
        scaled = KrausChannel(
            dim_in=3, dim_out=2, kraus=tuple(1.3 * a for a in random_channel(3, 2, 3, seed=5).kraus)
        )
        loose = KrausChannel(dim_in=2, dim_out=4, kraus=(rand_complex(rng, 4, 2),))
        for t in (*rand_channels(5, d1=3, d2=2, rank=3, base_seed=63), scaled, loose, zero_map(2, 3)):
            dual = np.linalg.norm(t.dual_apply(np.eye(t.dim_out)) - np.eye(t.dim_in), 2)
            assert abs(t.tp_defect - dual) <= 1e-14 * max(1.0, dual)
        assert not scaled.trace_preserving

    def test_tp_defect_when_the_largest_deviation_is_negative(self):
        # sum A† A - 1 has eigenvalues (-0.5, 0.2), then (-0.5, 0.2, 0.3) in a
        # rotated basis: the defect is the largest |eigenvalue|, not the last
        a3 = np.diag(np.sqrt([0.5, 1.2, 1.3])) @ random_unitary(3, 7).conj().T
        for a in (np.diag(np.sqrt([0.5, 1.2])), a3):
            t = KrausChannel(dim_in=len(a), dim_out=len(a), kraus=(a,))
            deviation = partial_trace_oracle(choi(t).mat, t.dim_out, t.dim_in, "first") - np.eye(t.dim_in)
            assert t.tp_defect == pytest.approx(singular_values_oracle(deviation)[0], abs=1e-14)
            assert t.tp_defect == pytest.approx(0.5, abs=1e-14)


class TestFromChoi:
    def test_identity_round_trip(self):
        t = from_choi(choi(identity_channel(3)))
        assert len(t.kraus) == 1
        np.testing.assert_allclose(t.kraus[0], np.eye(3), atol=1e-12)

    def test_unitary_channel_has_single_kraus(self):
        u = random_unitary(2, seed=10)
        t = from_choi(choi(unitary_channel(u)))
        assert len(t.kraus) == 1

    def test_round_trip_as_maps(self):
        rng = np.random.default_rng(7)
        for k in range(10):
            t = random_channel(2, 3, 3, seed=200 + k)
            back = from_choi(choi(t))
            rho = rand_density_mat(rng, 2)
            np.testing.assert_allclose(
                back.apply_matrix(rho), t.apply_matrix(rho), atol=1e-9
            )
            assert np.linalg.norm(choi(back).mat - choi(t).mat, "nuc") <= 1e-8

    def test_kraus_set_is_minimal(self):
        t = random_channel(2, 2, 3, seed=11)
        back = from_choi(choi(t))
        vecs = np.stack([a.reshape(-1) for a in back.kraus])
        gram = vecs @ vecs.conj().T
        assert np.linalg.matrix_rank(gram, tol=1e-10) == len(back.kraus)

    def test_zero_map_keeps_one_zero_operator(self):
        back = from_choi(choi(zero_map(2, 3)))
        assert len(back.kraus) == 1 and not back.kraus[0].any()
        assert back.kraus[0].shape == (3, 2) and not choi(back).mat.any()

    def test_rejects_non_psd(self):
        bad = ChoiMatrix(dim_in=2, dim_out=2, mat=np.diag([1.0, 1.0, 1.0, -1.0]))
        with pytest.raises(NotCompletelyPositiveError):
            from_choi(bad)


class TestOneKrausCut:
    """from_choi and reconstruct cut Kraus operators in one place: one thin SVD
    of their factor's nonzero columns, so the zero columns of a rank-deficient
    factor add no operator."""

    @staticmethod
    def reconstructed(t):
        ref = make_reference(maximally_mixed(t.dim_in))
        return reconstruct(forward_map(t, ref), ref).cp_map

    @pytest.mark.parametrize("cut_from", ["from_choi", "reconstruct"])
    def test_one_svd_of_the_kept_columns(self, monkeypatch, cut_from):
        t = random_channel(3, 3, 3, seed=37)
        build = (lambda t: from_choi(choi(t))) if cut_from == "from_choi" else self.reconstructed
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: shapes.append(np.shape(m)) or svd(m, *a, **k))
        cut = build(t)
        assert shapes == [(9, 3)] and len(cut.kraus) == 3 and cut._factor.shape == (9, 9)
        c = choi(cut).mat
        assert np.linalg.norm(c - choi_gram_oracle(cut), 2) <= 1e-13 * np.linalg.norm(c, 2)


class TestTensorWithIdentity:
    def test_identity_stays_identity(self):
        t = tensor_with_identity(identity_channel(2), 3)
        rng = np.random.default_rng(8)
        x = rand_complex(rng, 6, 6)
        np.testing.assert_allclose(t.apply_matrix(x), x, atol=1e-14)

    def test_product_states_factorize(self):
        rng = np.random.default_rng(9)
        t = random_channel(2, 2, 2, seed=12)
        a, b = rand_density_mat(rng, 2), rand_density_mat(rng, 3)
        lhs = tensor_with_identity(t, 3).apply_matrix(np.kron(a, b))
        np.testing.assert_allclose(lhs, np.kron(t.apply_matrix(a), b), atol=1e-12)

    def test_entangled_input_matches_direct_kraus_sum(self):
        rng = np.random.default_rng(10)
        t = random_channel(2, 3, 2, seed=13)
        x = rand_complex(rng, 4, 4)
        direct = np.zeros((6, 6), dtype=complex)
        for a in t.kraus:
            lift = np.kron(a, np.eye(2))
            direct += lift @ x @ lift.conj().T
        np.testing.assert_allclose(
            tensor_with_identity(t, 2).apply_matrix(x), direct, atol=1e-12
        )


class TestTensorKrausOrder:
    """The tensor maps list their Kraus operators in a fixed order, each the
    four-index tensor product of its factors (first factor slow).  A product
    with the identity is exact; a product of two complex entries may round
    differently in a vectorized multiply."""

    @pytest.mark.parametrize("d_anc", [1, 2, 3])
    def test_tensor_with_identity_lifts_each_operator_in_place(self, d_anc):
        t = random_channel(2, 3, 3, seed=21)
        lifted = tensor_with_identity(t, d_anc)
        assert len(lifted.kraus) == len(t.kraus)
        for k, a in enumerate(t.kraus):
            np.testing.assert_array_equal(lifted.kraus[k], kron_oracle(a, np.eye(d_anc)))

    def test_tensor_channels_runs_the_second_factor_fast(self):
        a = random_channel(2, 3, 2, seed=22)
        b = random_channel(3, 2, 3, seed=23)
        pair = tensor_channels(a, b)
        assert (pair.dim_in, pair.dim_out, len(pair.kraus)) == (6, 6, 6)
        for i, x in enumerate(a.kraus):
            for j, y in enumerate(b.kraus):
                np.testing.assert_allclose(pair.kraus[i * len(b.kraus) + j], kron_oracle(x, y), rtol=0, atol=1e-14)


class TestStinespring:
    def test_identity_has_trivial_environment(self):
        v = stinespring(identity_channel(2))
        assert v.shape == (2, 2)  # environment dimension 2 // 2 = 1

    def test_unitary_dilation(self):
        u = random_unitary(3, seed=14)
        v = stinespring(unitary_channel(u))
        assert v.shape[0] // 3 == 1
        rng = np.random.default_rng(11)
        rho = rand_density_mat(rng, 3)
        out = v.conj().T @ np.kron(rho, np.eye(1)) @ v
        np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-12)

    def test_dilation_reproduces_channel(self):
        rng = np.random.default_rng(12)
        t = random_channel(3, 2, 4, seed=15)
        v = stinespring(t)
        for _ in range(20):
            rho = rand_density_mat(rng, 3)
            out = v.conj().T @ np.kron(rho, np.eye(v.shape[0] // 3)) @ v
            assert np.linalg.norm(out - t.apply_matrix(rho), 2) <= 1e-9

    def test_environment_dimension_is_choi_rank(self):
        t = random_channel(2, 2, 3, seed=16)
        assert stinespring(t).shape == (2 * 3, 2)


class TestCompleteDomination:
    def test_reflexive(self):
        for t in rand_channels(5, d1=2, d2=3, rank=2, base_seed=300):
            assert is_completely_dominated(t, t, 1.0)

    def test_zero_map_dominated_by_everything(self):
        t = random_channel(2, 2, 2, seed=17)
        assert is_completely_dominated(zero_map(2, 2), t, 0.5)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
    def test_depolarizing_not_dominated_by_identity(self, lam):
        dep = depolarizing_channel(1.0, 2)
        ident = identity_channel(2)
        assert not is_completely_dominated(dep, ident, lam)
        # eigenvalue oracle: lam*C_id - C_dep = 2*lam |Om><Om| - I/2 has
        # eigenvalue -1/2 on the complement of the entangled direction
        diff = lam * choi(ident).mat - choi(dep).mat
        assert np.linalg.eigvalsh(diff)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_transitivity_with_matching_factors(self):
        rng = np.random.default_rng(13)
        for k in range(10):
            base = rand_density_mat(rng, 4) * rng.uniform(0.2, 1.0)
            extra1 = rand_density_mat(rng, 4) * rng.uniform(0.0, 0.5)
            extra2 = rand_density_mat(rng, 4) * rng.uniform(0.0, 0.5)
            lam, mu = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
            s = from_choi(ChoiMatrix(2, 2, base))
            t = from_choi(ChoiMatrix(2, 2, base / lam + extra1))
            u = from_choi(ChoiMatrix(2, 2, (base / lam + extra1) / mu + extra2))
            assert is_completely_dominated(s, t, lam)
            assert is_completely_dominated(t, u, mu)
            assert is_completely_dominated(s, u, lam * mu)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_completely_dominated(identity_channel(2), identity_channel(3), 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        t = random_channel(2, 2, 2, seed=17)
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative") as info:
            is_completely_dominated(t, t, lam)
        assert not isinstance(info.value, np.linalg.LinAlgError)


class TestRandomChannel:
    def test_rank_one_square_is_unitary(self):
        t = random_channel(3, 3, 1, seed=18)
        assert len(t.kraus) == 1
        u = t.kraus[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(3), 2) <= 1e-10

    def test_exactly_trace_preserving(self):
        for k in range(10):
            t = random_channel(3, 2, 4, seed=400 + k)
            assert t.tp_defect <= 1e-10

    def test_choi_rank_matches_kraus_rank(self):
        for rank in (1, 2, 3, 4):
            t = random_channel(2, 2, rank, seed=19 + rank)
            vals = np.linalg.eigvalsh(choi(t).mat)
            assert int(np.sum(vals > 1e-9)) == rank

    def test_deterministic(self):
        a = random_channel(2, 2, 2, seed=77)
        b = random_channel(2, 2, 2, seed=77)
        for x, y in zip(a.kraus, b.kraus):
            assert np.array_equal(x, y)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_channel(2, 2, 5, seed=0)
        with pytest.raises(ValueError):
            random_channel(2, 2, 0, seed=0)

    def test_infeasible_isometry_rejected(self):
        with pytest.raises(ValueError):
            random_channel(3, 2, 1, seed=0)

    @pytest.mark.parametrize("d1, d2", [(0, 3), (3, 0), (-1, -1), (-2, 4)])
    def test_dimensions_checked_before_the_rank(self, d1, d2):
        # the rank range [1, d1·d2] and numpy's shape checks said nothing of the dimensions
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            random_channel(d1, d2, 1, seed=0)


class TestNamedChannels:
    def test_depolarizing_zero_is_identity_on_basis(self):
        t = depolarizing_channel(0.0, 3)
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3))
                unit[i, j] = 1.0
                np.testing.assert_allclose(t.apply_matrix(unit), unit, atol=1e-14)

    def test_full_damping_decays_to_ground(self):
        rng = np.random.default_rng(14)
        t = amplitude_damping_channel(1.0)
        rho = rand_density_mat(rng, 2)
        np.testing.assert_allclose(
            t.apply_matrix(rho), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_depolarizing_choi_spectrum(self):
        lam = 0.3
        vals = np.linalg.eigvalsh(choi(depolarizing_channel(lam, 2)).mat / 2)
        expected = np.sort([1 - 3 * lam / 4, lam / 4, lam / 4, lam / 4])
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_parameter_range_errors(self):
        with pytest.raises(ValueError):
            depolarizing_channel(1.5, 2)
        with pytest.raises(ValueError):
            amplitude_damping_channel(-0.1)
        with pytest.raises(ValueError):
            unitary_channel(np.ones((2, 2)))

    def test_unitary_with_nan_entry_is_rejected_before_any_decomposition(self):
        u = random_unitary(2, 5)
        u[1, 0] = np.nan
        with pytest.raises(ValueError, match="entries must be finite") as info:
            unitary_channel(u)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: KrausChannel(1, 1, (np.array([[1e200]]),)), "Choi matrix entries must be finite"),
            (lambda: unitary_channel(1e200 * np.eye(2)), "Choi matrix entries must be finite"),
            # a finite Choi matrix (largest entry 8.3e307) whose sum_k A_k† A_k + its adjoint is not
            (
                lambda: KrausChannel(2, 2, tuple(1e154 * a for a in random_channel(2, 2, 2, seed=1).kraus)),
                "TP defect ||sum_k A_k† A_k - 1||_op must be finite",
            ),
        ],
        ids=["kraus", "unitary", "kraus-marginal"],
    )
    def test_overflowing_products_are_refused_without_a_warning(self, build, message):
        # the entries are finite, their products are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                build()
        assert "\n" not in str(info.value)

    def test_unitary_channel_checks_unitarity_by_its_tp_defect(self):
        u = random_unitary(3, 6)
        assert unitary_channel(u).tp_defect <= 1e-10
        with pytest.raises(ValueError, match="not unitary"):
            unitary_channel(u * (1 + 1e-9))


class TestComposition:
    def test_composition_is_a_channel(self):
        a = random_channel(2, 3, 2, seed=20)
        b = random_channel(3, 2, 3, seed=21)
        c = compose(b, a)
        assert c.trace_preserving
        assert (c.dim_in, c.dim_out) == (2, 2)
        rng = np.random.default_rng(15)
        rho = rand_density_mat(rng, 2)
        np.testing.assert_allclose(
            c.apply_matrix(rho), b.apply_matrix(a.apply_matrix(rho)), atol=1e-12
        )

    def test_inner_dimension_checked(self):
        with pytest.raises(ValueError):
            compose(identity_channel(3), identity_channel(2))


def _wide_composite():
    # 2 x 5 Kraus operators for a Choi matrix with 4 rows
    return compose(depolarizing_channel(0.05, 2), random_channel(2, 2, 2, seed=6))


def _rank_one_reconstruction():
    t = random_channel(3, 3, 1, seed=30)
    ref = make_reference(maximally_mixed(3))
    return reconstruct(forward_map(t, ref), ref).cp_map


class TestOneKrausArray:
    """A map holds its Kraus operators once, as read-only views of one array."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_channel(2, 3, 3, seed=31),
            lambda: channel_from_json(channel_to_json(random_channel(3, 2, 2, seed=32))),
            _wide_composite,
        ],
        ids=["random_channel", "channel_from_json", "compose"],
    )
    def test_kraus_built_maps_share_the_factor(self, build):
        t = build()
        for k, a in enumerate(t.kraus):
            assert not a.flags.writeable
            assert np.shares_memory(a, t._factor)
            np.testing.assert_array_equal(t._factor[:, k], a.reshape(-1))

    @pytest.mark.parametrize(
        "build",
        [lambda: from_choi(choi(random_channel(2, 3, 4, seed=33))), _rank_one_reconstruction],
        ids=["from_choi", "reconstruct"],
    )
    def test_choi_built_maps_hold_one_array(self, build):
        t = build()
        base = t.kraus[0].base
        assert base is not None
        for a in t.kraus:
            assert not a.flags.writeable
            assert a.base is base

    def test_operators_cannot_be_written(self):
        t = random_channel(2, 2, 2, seed=34)
        with pytest.raises(ValueError, match="read-only"):
            t.kraus[0][0, 0] = 1.0

    def test_an_array_and_a_list_give_the_same_bits(self):
        # channel_from_json hands over one (r, d_out, d_in) array; user code often a list
        t = compose(depolarizing_channel(0.05, 3), random_channel(3, 3, 3, seed=9))
        ops = np.array(t.kraus)
        from_array, from_list = KrausChannel(3, 3, ops), KrausChannel(3, 3, list(ops))
        assert from_array._factor.tobytes() == from_list._factor.tobytes() == t._factor.tobytes()
        assert choi(from_array).mat.tobytes() == choi(from_list).mat.tobytes()
        assert not np.shares_memory(from_array._factor, ops) and ops.flags.writeable

    @pytest.mark.parametrize(
        "ops, message",
        [
            (np.zeros((0, 2, 2)), "at least one Kraus operator is required"),
            (np.zeros((3, 2, 1)), "Kraus operator shape (2, 1) != (2, 2)"),
            (np.eye(2), "Kraus operator shape (2,) != (2, 2)"),
            (np.full((2, 2, 2), np.nan), "Kraus entries must be finite"),
            (np.array([np.eye(2), [[np.inf, 0], [0, 1]]]), "Kraus entries must be finite"),
        ],
        ids=["none", "wrong-shape", "one-matrix", "nan", "inf"],
    )
    def test_an_array_and_a_list_are_refused_alike(self, ops, message):
        for kraus in (ops, list(ops)):
            with pytest.raises(ValueError) as info:
                KrausChannel(dim_in=2, dim_out=2, kraus=kraus)
            assert str(info.value) == message

    def test_construction_copies_the_callers_operators(self):
        ops = [np.eye(2, dtype=complex)]
        t = KrausChannel(dim_in=2, dim_out=2, kraus=ops)
        ops[0][0, 0] = 5.0
        np.testing.assert_array_equal(t.kraus[0], np.eye(2))

    @pytest.mark.parametrize("build", [_rank_one_reconstruction, _wide_composite], ids=["rank-one", "wide"])
    def test_apply_and_dual_equal_the_per_operator_sums(self, build):
        t = build()
        if build is _rank_one_reconstruction:
            assert len(t.kraus) == 1 and np.count_nonzero(~t._factor.any(axis=0)) == 8
        else:
            assert t._factor.shape[1] > t._factor.shape[0]
        rng = np.random.default_rng(35)
        x = rand_complex(rng, t.dim_in, t.dim_in)
        y = rand_complex(rng, t.dim_out, t.dim_out)
        want = sum(a @ x @ a.conj().T for a in t.kraus)
        want_dual = sum(a.conj().T @ y @ a for a in t.kraus)
        assert np.linalg.norm(t.apply_matrix(x) - want) <= 1e-14 * np.linalg.norm(want)
        assert np.linalg.norm(t.dual_apply(y) - want_dual) <= 1e-14 * np.linalg.norm(want_dual)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: KrausChannel(dim_in=0, dim_out=2, kraus=(np.zeros((2, 0)),)), ValueError,
         "dimensions must be positive"),
        (lambda: identity_channel(2).dual_apply(np.eye(3)), ValueError, "expected 2x2 input, got (3, 3)"),
        (lambda: tensor_with_identity(identity_channel(2), 0), ValueError, "ancilla dimension must be >= 1"),
        (lambda: unitary_channel(np.ones(3)), ValueError, "unitary must be square"),
        (lambda: is_completely_dominated(identity_channel(2), identity_channel(3), 1.0), ValueError,
         "dimension mismatch: (2,2) vs (3,3)"),
        (lambda: random_channel(2, 2, 5, seed=0), ValueError, "kraus_rank must be in [1, 4], got 5"),
        (lambda: random_channel(3, 2, 1, seed=0), ValueError,
         "need d2 * kraus_rank >= d1 for a channel, got d1=3, d2=2, kraus_rank=1"),
        (lambda: from_choi(ChoiMatrix(dim_in=1, dim_out=2, mat=np.diag([1.0, -1.0]))), NotCompletelyPositiveError,
         "Choi matrix has eigenvalue -1.000e+00 < -1.0e-08"),
    ],
    ids=["kraus-dims", "dual-apply-shape", "ancilla", "unitary-shape", "pair-shape", "rank-range", "rank-isometry",
         "not-cp"],
)
def test_refusals_are_one_line_of_their_type(call, error, message):
    # the pair and map shapes, and the non-CP refusal, are each checked by one function of this module
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message
