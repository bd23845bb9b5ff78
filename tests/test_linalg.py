import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanid import linalg
from chanid.channel import (
    CHOI_HERM_TOL,
    ChoiMatrix,
    KrausChannel,
    _marginal,
    choi,
    identity_channel,
    random_channel,
    tensor_channels,
    tensor_with_identity,
)
from chanid.harness import ExperimentConfig, NoiseSpec, RefSpec, run_roundtrip
from chanid.identify import RN_PSD_TOL, RNOperator, forward_map, make_reference, reconstruct, rn_operator
from chanid.metrics import NormInterval, channel_fidelity
from chanid.linalg import (
    CB_STARTS_SITE,
    CHANNEL_SITE,
    HERMITICITY_TOL,
    NOISE_SITE,
    PSD_ADMISSION_TOL,
    TRACE_TOL,
    UNITARY_SITE,
    DensityOperator,
    _draw,
    _fix_column_phases,
    _haar,
    _hermitian_norms,
    hermitian_part,
    maximally_mixed,
    pure_state,
    random_unitary,
    spectral_decomposition,
    state_fidelity,
)

from conftest import (
    draw_rule_generator,
    fidelity_sandwich_oracle,
    kron_oracle,
    noise_clipped_state,
    partial_trace_oracle,
    rand_complex,
    rand_density_mat,
    singular_values_oracle,
)

seeds = st.integers(min_value=0, max_value=10**6)


class TestTensorProduct:
    """Tensor products of channels are ``np.kron`` of their Kraus operators,
    first factor slow, as the module docstring's index convention states."""

    def test_identity_factors(self):
        pair = tensor_channels(identity_channel(2), identity_channel(3))
        assert len(pair.kraus) == 1
        np.testing.assert_allclose(pair.kraus[0], np.eye(6), atol=0)

    def test_diagonal_with_identity(self):
        lifted = tensor_with_identity(KrausChannel(2, 2, (np.diag([2.0, 5.0]),)), 2)
        np.testing.assert_allclose(lifted.kraus[0], np.diag([2.0, 2.0, 5.0, 5.0]), atol=0)

    def test_matches_four_index_oracle(self):
        rng = np.random.default_rng(11)
        a, b = rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)
        pair = tensor_channels(KrausChannel(2, 2, (a,)), KrausChannel(2, 2, (b,)))
        np.testing.assert_allclose(pair.kraus[0], kron_oracle(a, b), atol=1e-14)


class TestPartialTrace:
    """``channel._marginal(F, d1)`` is tr_out(F F†) for a factor F on
    H_out ⊗ H_in: the partial trace over the first, output factor, from
    which the TP defect and the consistency residual are read."""

    def test_factorized_factor(self):
        rng = np.random.default_rng(1)
        a, b = rand_complex(rng, 3, 2), rand_complex(rng, 2, 2)
        out = _marginal(np.kron(a, b), 2)
        np.testing.assert_allclose(out, np.trace(a @ a.conj().T) * (b @ b.conj().T), atol=1e-12)

    def test_maximally_entangled_marginal(self):
        omega = np.array([[1.0], [0.0], [0.0], [1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(_marginal(omega, 2), np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (2, 3)])
    def test_matches_index_sum_oracle(self, d1, d2):
        rng = np.random.default_rng(7)
        f = rand_complex(rng, d2 * d1, 4)
        np.testing.assert_allclose(
            _marginal(f, d1), partial_trace_oracle(f @ f.conj().T, d2, d1, "first"), atol=1e-13
        )

    def test_kraus_vectors_give_the_transposed_tp_sum(self):
        rng = np.random.default_rng(8)
        ops = tuple(rand_complex(rng, 3, 2) for _ in range(2))
        t = KrausChannel(2, 3, ops)
        np.testing.assert_allclose(_marginal(t._factor, 2), sum(a.conj().T @ a for a in ops).T, atol=1e-13)
        np.testing.assert_allclose(_marginal(random_channel(2, 3, 2, seed=3)._factor, 2), np.eye(2), atol=1e-14)

    def test_stack_matches_each_factor(self):
        rng = np.random.default_rng(9)
        stack = np.stack([rand_complex(rng, 6, 3) for _ in range(4)])
        out = _marginal(stack, 3)
        assert out.shape == (4, 3, 3)
        for f, m in zip(stack, out):
            np.testing.assert_allclose(m, _marginal(f, 3), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_kron_then_trace_recovers_factor(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_complex(rng, 2, 3), rand_complex(rng, 3, 2)
        out = _marginal(np.kron(a, b), 3)
        expected = np.trace(a @ a.conj().T) * (b @ b.conj().T)
        assert np.max(np.abs(out - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


class TestHermitianPart:
    """``hermitian_part`` adds m to a copy of its adjoint and halves the sum in place:
    the bits and dtype of (m + m†)/2, in a new C-ordered array."""

    @staticmethod
    def views(m):
        return [m, m.swapaxes(-1, -2), m[..., ::2, ::2], m[::-1], np.asfortranarray(m), m[0], m[0].T, m[1, 1:, 1:]]

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64, np.float32])
    def test_bits_of_the_formula(self, dtype):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 4, 6, 6)) * 10.0 ** rng.integers(-30, 30, (2, 4, 6, 6))
        m = (z[0] + 1j * z[1]) if np.issubdtype(dtype, np.complexfloating) else z[0]
        for view in self.views(m.astype(dtype)):
            got, want = hermitian_part(view), (view + view.conj().swapaxes(-1, -2)) / 2
            assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes() and not np.shares_memory(got, view)

    def test_signed_zeros_as_the_formula_gives_them(self):
        # the complex division by 2 turns a -0.0 real part to +0.0 where the imaginary part is +0.0
        m = np.array([[-0.0 + 1j, -0.0 - 0.0j], [-0.0 + 0.0j, complex(-0.0, -0.0)]])
        want = (m + m.conj().T) / 2
        assert hermitian_part(m).tobytes() == want.tobytes()
        assert hermitian_part(m.real).tobytes() == ((m.real + m.real.T) / 2).tobytes()

    def test_integer_matrix_as_the_formula_gives_it(self):
        m = np.arange(9).reshape(3, 3)
        assert hermitian_part(m).tobytes() == ((m + m.T) / 2).tobytes() and hermitian_part(m).dtype == np.float64


class TestNorms:
    """``linalg._hermitian_norms(h)`` is (||h||_op, ||h||_1) of a Hermitian
    matrix, or of each of a stack, from one ``eigvalsh``."""

    def test_trace_norm_identity(self):
        assert _hermitian_norms(np.eye(2))[1] == pytest.approx(2.0, abs=1e-14)

    def test_trace_norm_of_density_operator_is_one(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            assert _hermitian_norms(rand_density_mat(rng, d))[1] == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_matches_svd_oracle(self):
        rng = np.random.default_rng(9)
        m = hermitian_part(rand_complex(rng, 3, 3))
        assert _hermitian_norms(m)[1] == pytest.approx(np.sum(singular_values_oracle(m)), abs=1e-12)

    def test_operator_norm_identity(self):
        assert _hermitian_norms(np.eye(4))[0] == pytest.approx(1.0, abs=1e-15)

    def test_operator_norm_diagonal(self):
        assert _hermitian_norms(np.diag([3.0, -5.0]))[0] == pytest.approx(5.0, abs=1e-14)

    def test_operator_norm_matches_svd_oracle(self):
        rng = np.random.default_rng(13)
        m = hermitian_part(rand_complex(rng, 3, 3))
        assert _hermitian_norms(m)[0] == pytest.approx(singular_values_oracle(m)[0], abs=1e-12)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(14)
        stack = hermitian_part(np.stack([rand_complex(rng, 3, 3) for _ in range(4)]))
        op, tr = _hermitian_norms(stack)
        assert op.shape == tr.shape == (4,)
        for m, a, b in zip(stack, op, tr):
            assert (a, b) == pytest.approx(_hermitian_norms(m), abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_norm_inequalities(self, seed):
        rng = np.random.default_rng(seed)
        m = hermitian_part(rand_complex(rng, 3, 3))
        op, tr = _hermitian_norms(m)
        assert tr >= op - 1e-12
        assert tr >= abs(np.trace(m)) - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_trace_norm_submultiplicative_against_operator_norm(self, seed):
        rng = np.random.default_rng(seed)
        a, b = hermitian_part(rand_complex(rng, 3, 3)), hermitian_part(rand_complex(rng, 3, 3))
        assert _hermitian_norms(a @ b @ a)[1] <= _hermitian_norms(a)[0] ** 2 * _hermitian_norms(b)[1] + 1e-10


class TestStateFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(3)
        rho = DensityOperator(rand_density_mat(rng, 3))
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_is_the_normalized_projector(self):
        v = np.array([1.0, 2.0j, -0.5])
        np.testing.assert_array_equal(pure_state(v).mat, np.outer(v, v.conj()) / np.vdot(v, v).real)

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]], ids=["nan", "inf", "zero"])
    def test_pure_state_rejects_non_finite_or_zero_vector(self, v):
        with pytest.raises(ValueError, match="cannot normalize a vector of squared norm"):
            pure_state(np.array(v))

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
        if np.linalg.norm(r1.mat - r2.mat, "nuc") > 1e-8:
            assert state_fidelity(r1, r2) < 1.0 - 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(maximally_mixed(2), maximally_mixed(3))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_is_the_channel_fidelity_of_the_preparation_maps(self, d):
        # the map C -> H whose Kraus operators are the columns of r's eigen-factor prepares r
        def prepare(r):
            lam, vecs = np.linalg.eigh((r.mat + r.mat.conj().T) / 2)
            factor = vecs * np.sqrt(np.clip(lam, 0.0, None))
            return KrausChannel(dim_in=1, dim_out=d, kraus=tuple(factor.T[:, :, None]))

        rng = np.random.default_rng(80 + d)
        for _ in range(20):
            r1, r2 = (DensityOperator(rand_density_mat(rng, d)) for _ in range(2))
            assert state_fidelity(r1, r2) == channel_fidelity(prepare(r1), prepare(r2))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_the_sandwich_oracle_on_full_rank_pairs(self, d):
        rng = np.random.default_rng(90 + d)
        for _ in range(50):
            a, b = rand_density_mat(rng, d, 0.01 / d), rand_density_mat(rng, d, 0.01 / d)
            oracle = float(np.clip(fidelity_sandwich_oracle(a, b), 0.0, 1.0))
            assert abs(state_fidelity(DensityOperator(a), DensityOperator(b)) - oracle) <= 1e-12

    def test_matches_the_sandwich_oracle_on_a_rank_deficient_pair(self):
        # no eigenvalue floor: rounding on the rank-2 state's null space is
        # magnified by the square root, so the two forms agree to 1e-7 here
        rng = np.random.default_rng(99)
        q = np.linalg.qr(rand_complex(rng, 5, 5))[0]
        a = (q[:, :2] * [0.3, 0.7]) @ q[:, :2].conj().T
        b = rand_density_mat(rng, 5)
        for r1, r2 in ((a, b), (b, a)):
            oracle = fidelity_sandwich_oracle(r1, r2)
            assert 0.0 < oracle < 1.0
            assert abs(state_fidelity(DensityOperator(r1), DensityOperator(r2)) - oracle) <= 1e-7


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unitarity(self, d):
        u = random_unitary(d, seed=d)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d), 2) <= 1e-10

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

    @pytest.mark.parametrize("d, cols", [(1, 1), (4, 1), (4, 3), (6, 2), (9, 3), (36, 6)])
    def test_leading_columns_match_the_full_unitary(self, d, cols):
        seeds = [3, 11, 2**61 + 5]
        full = _haar(_draw(seeds, UNITARY_SITE, ("standard_normal", (d, 2, d)))[0])
        part = _haar(_draw(seeds, UNITARY_SITE, ("standard_normal", (cols, 2, d)))[0])
        assert part.shape == (len(seeds), d, cols)
        assert np.max(np.abs(part - full[:, :, :cols])) <= 1e-14
        gram = part.conj().swapaxes(-1, -2) @ part
        assert np.max(np.abs(gram - np.eye(cols))) <= 1e-14


class TestDrawRule:
    """Every seed's draws start at counter (0, 0, 0, site) of Philox(key=seed)
    and fill their arrays in order from that one stream."""

    SITES = (UNITARY_SITE, CHANNEL_SITE, NOISE_SITE, CB_STARTS_SITE)
    SEED = 7 + (3 << 64)
    # three doubles leave a part-used four-word Philox block behind
    FILLS = (("random", (3,)), ("standard_normal", (2, 3)), ("standard_exponential", (3,)))

    @staticmethod
    def _draws(g):
        return g.random(3), g.standard_normal((2, 3)), g.standard_exponential(3)

    def test_each_site_is_numpys_positioned_philox(self):
        for site in self.SITES:
            drawn = [rows[0] for rows in _draw([self.SEED], site, *self.FILLS)]
            expected = self._draws(draw_rule_generator(self.SEED, site))
            assert all(map(np.array_equal, drawn, expected))

    def test_sites_of_one_seed_draw_differently(self):
        draws = [_draw([self.SEED], site, ("standard_normal", (4,)))[0].tobytes() for site in self.SITES]
        assert len(set(draws)) == len(self.SITES)

    def test_repositioning_leaves_no_stale_state(self):
        first, second = 11, self.SEED
        after = [rows[1] for rows in _draw([first, second], NOISE_SITE, *self.FILLS)]
        alone = self._draws(draw_rule_generator(second, NOISE_SITE))
        assert all(map(np.array_equal, after, alone))

    def test_random_unitary_is_haar_on_average(self):
        # |U_00|^2 of a Haar unitary on C^3 is Beta(1, 2): mean 1/3, variance 1/18
        n = 2000
        mean = np.mean([abs(random_unitary(3, seed)[0, 0]) ** 2 for seed in range(n)])
        assert abs(mean - 1.0 / 3.0) <= 5.0 * np.sqrt(1.0 / 18.0 / n)

    def test_seeds_span_the_philox_key_range(self):
        assert random_channel(2, 2, 2, 2**128 - 1).trace_preserving
        assert np.array_equal(random_unitary(3, np.uint64(2**64 - 1)), random_unitary(3, 2**64 - 1))
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed must be non-negative"):
                random_channel(2, 2, 2, seed)


class TestHermiticityDefect:
    """||m - m†||_op is the largest |eigenvalue| of the Hermitian i(m - m†):
    one eigvalsh, never an SVD, for every type that checks its matrix."""

    @staticmethod
    def _skew(n, size):
        skew = np.zeros((n, n))
        skew[0, 1], skew[1, 0] = size, -size  # m - m† = 2 skew
        return skew

    def test_equals_the_largest_singular_value(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 4, 9):
            m = rand_complex(rng, n, n)
            diff = m - m.conj().T
            assert linalg._hermiticity_defect(m) == pytest.approx(singular_values_oracle(diff)[0], rel=1e-13)

    def test_near_hermitian_inputs_take_no_svd(self, monkeypatch):
        t = random_channel(2, 2, 2, seed=9)
        ref = make_reference(DensityOperator(np.diag([0.3, 0.7])))
        f = rn_operator(t, ref).mat
        w = hermitian_part(rand_density_mat(np.random.default_rng(5), 4))
        c = choi(t).mat
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        # each skew is inside its type's tolerance, so the check passes
        RNOperator(f + self._skew(4, 1e-10))
        DensityOperator(w + self._skew(4, 1e-13))
        ChoiMatrix(dim_in=2, dim_out=2, mat=c + self._skew(4, 1e-11))
        assert calls == []
        assert linalg._hermiticity_defect(f + self._skew(4, 1e-10)) == pytest.approx(2e-10, rel=1e-12)

    ENTRIES = {  # name in the message, how the value enters, Hermiticity tolerance, PSD tolerance or None
        "DensityOperator": ("density operator", DensityOperator, HERMITICITY_TOL, PSD_ADMISSION_TOL),
        "ChoiMatrix": ("Choi matrix", lambda m: ChoiMatrix(dim_in=2, dim_out=2, mat=m), CHOI_HERM_TOL, None),
        "RNOperator": ("RN operator", RNOperator, 1e-9, RN_PSD_TOL),
        "reconstruct": ("state", lambda m: reconstruct(m, make_reference(maximally_mixed(2))), HERMITICITY_TOL, None),
    }

    @pytest.mark.parametrize("entry, case", [
        (entry, case) for entry, (*_, psd_tol) in ENTRIES.items()
        for case in ["not-square", "nan", "hermitian-past", "hermitian-within", "overflow"]
        + ["psd-past", "psd-within", "psd-huge"] * (psd_tol is not None)
    ])
    def test_every_entry_point_admits_by_one_check(self, entry, case):
        # every operator entering the package is checked in one order, square, finite,
        # Hermitian, then PSD where its type requires it, each at its type's tolerance;
        # a refusal is one ValueError line naming the type, and no check warns
        name, enter, herm_tol, psd_tol = self.ENTRIES[entry]
        m = np.eye(4, dtype=complex) / 4
        if case == "not-square":
            m = m[:, :3]
        elif case == "nan":
            m[0, 1] = np.nan
        elif case.startswith("hermitian"):
            m = m + self._skew(4, (1.01 if case == "hermitian-past" else 0.99) * herm_tol / 2)
        elif case == "overflow":  # finite entries whose m - m† overflows: the defect is inf, not NaN
            m[0, 1], m[1, 0] = 1e308, -1e308
        elif case == "psd-huge":  # Hermitian, eigenvalues ±1e308: m + m† would overflow
            m[0, 1] = m[1, 0] = 1e308
        else:
            shift = (1.01 if case == "psd-past" else 0.99) * psd_tol
            m = np.diag([-shift, 0.25, 0.25, 0.5 + shift]).astype(complex)
        message = {"not-square": "must be", "nan": "entries must be finite", "hermitian-past": "not Hermitian: defect",
                   "overflow": "not Hermitian: defect inf", "psd-past": "not PSD: min eigenvalue",
                   "psd-huge": "not PSD: min eigenvalue -1.000e\\+308"}.get(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if case == "overflow":  # and no eigensolver sees the overflowed matrix
                assert linalg._hermiticity_defect(m) == np.inf
            if message is None:
                enter(m)
                return
            with pytest.raises(ValueError, match=f"^{name} {message}") as info:
                enter(m)
        assert info.type is ValueError and "\n" not in str(info.value)


    @pytest.mark.parametrize("name, enter", [
        ("density operator", DensityOperator),
        ("Choi matrix", lambda m: ChoiMatrix(dim_in=0, dim_out=0, mat=m)),
        ("RN operator", RNOperator),
    ], ids=["DensityOperator", "ChoiMatrix", "RNOperator"])
    def test_empty_operator_is_refused_at_entry(self, name, enter):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be square and nonempty, got shape (0, 0)")):
            enter(np.zeros((0, 0)))

    def test_entries_whose_sums_overflow_are_refused_without_a_warning(self):
        # finite, Hermitian within 1e-12 and PSD, but m + m† and the trace overflow a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("trace (inf+0j) is not 1 within 1e-10")):
                DensityOperator([[1e308, 1e-13], [0, 1e308]])


class TestValueTypesCompareByIdentity:
    """The frozen types that hold arrays compare and hash by identity: an
    array field has no single truth value and no hash, so a field-wise ==
    or hash() of them would raise."""

    @staticmethod
    def build(kind):
        t = random_channel(2, 2, 2, 1)
        ref = make_reference(maximally_mixed(2))
        return {
            "KrausChannel": lambda: t,
            "DensityOperator": lambda: maximally_mixed(2),
            "ChoiMatrix": lambda: choi(t),
            "ReferenceState": lambda: ref,
            "Spectrum": lambda: spectral_decomposition(np.diag([0.3, 0.7])),
            "RNOperator": lambda: rn_operator(t, ref),
            "ReconstructionResult": lambda: reconstruct(forward_map(t, ref), ref),
            "NormInterval": lambda: NormInterval(0.1, 0.2, np.ones(4) / 2, np.eye(2) / 2),
            "TrialTable": lambda: run_roundtrip(ExperimentConfig(2, 2, 2, RefSpec(), NoiseSpec(), 3, seed=1)),
        }[kind]()

    @pytest.mark.parametrize("kind", [
        "KrausChannel", "DensityOperator", "ChoiMatrix", "ReferenceState",
        "Spectrum", "RNOperator", "ReconstructionResult", "NormInterval", "TrialTable",
    ])
    def test_equal_values_built_twice_are_distinct_and_hashable(self, kind):
        a, b = self.build(kind), self.build(kind)
        assert type(a) is type(b)
        assert a == a and not (a == b) and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_exactly_hermitian_input_needs_no_svd(self, monkeypatch):
        # an exactly Hermitian matrix has defect 0 without a decomposition; any
        # other costs one eigvalsh, and neither an SVD
        m = hermitian_part(rand_density_mat(np.random.default_rng(5), 4))
        calls = []
        for routine in ("svd", "eigvalsh"):
            real = getattr(np.linalg, routine)
            spy = lambda *a, real=real, routine=routine, **k: calls.append(routine) or real(*a, **k)
            monkeypatch.setattr(np.linalg, routine, spy)
        DensityOperator(m)
        assert calls == ["eigvalsh"]  # the PSD check
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 1e-9, -1e-9  # anti-Hermitian: m - m† = 2 skew
        with pytest.raises(ValueError, match=re.escape(f"not Hermitian: defect {2e-9:.3e}")):
            DensityOperator(m + skew)
        assert calls == ["eigvalsh", "eigvalsh"]  # the defect

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_clips_numerical_noise(self):
        # the state keeps its noise; reconstruct clips it and reports its weight
        state = np.diag([1.0 + 5e-11, -5e-11])
        rho = DensityOperator(state)
        assert np.array_equal(rho.mat, state)
        rec = reconstruct(rho, make_reference(DensityOperator(np.eye(1))))
        assert rec.clip_magnitude == pytest.approx(-np.linalg.eigvalsh(state)[0], rel=0, abs=1e-15)
        assert rec.clip_magnitude == pytest.approx(5e-11, rel=1e-5)
        assert len(rec.cp_map.kraus) == 1  # the clipped direction is gone
        assert abs(np.trace(choi(rec.cp_map).mat) - 1.0) <= TRACE_TOL

    def test_clip_keeps_unit_trace(self):
        # zeroing the two eigenvalues of -0.9e-10 without renormalizing would
        # leave a trace of 1 + 1.8e-10, beyond TRACE_TOL
        state = noise_clipped_state()
        vals = np.linalg.eigvalsh(state)
        assert abs(np.trace(DensityOperator(state).mat) - 1.0) <= TRACE_TOL
        rec = reconstruct(DensityOperator(state), make_reference(maximally_mixed(2)))
        assert rec.clip_magnitude == pytest.approx(-vals[vals < 0].sum(), rel=0, abs=1e-15)
        assert rec.clip_magnitude == pytest.approx(1.8e-10, rel=1e-5)
        assert abs(np.trace(choi(rec.cp_map).mat) / 2 - 1.0) <= TRACE_TOL

    def test_keeps_its_matrix_as_given(self):
        rng = np.random.default_rng(11)
        noiseless = forward_map(random_channel(3, 3, 1, seed=2), make_reference(maximally_mixed(3))).mat
        for m in (rand_density_mat(rng, 4), noise_clipped_state(), noiseless, np.diag([0.25, 0.75])):
            kept = DensityOperator(m).mat
            assert kept.dtype == complex and kept.tobytes() == np.asarray(m, dtype=complex).tobytes()

    def test_one_eigvalsh_and_no_eigh_or_clip(self, monkeypatch):
        m = hermitian_part(noise_clipped_state())  # exactly Hermitian: no SVD for the defect
        calls = []
        for routine in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, routine)
            spy = lambda *a, real=real, routine=routine, **k: calls.append(routine) or real(*a, **k)
            monkeypatch.setattr(np.linalg, routine, spy)
        monkeypatch.setattr(linalg, "_clip_spectra", lambda *a: pytest.fail("DensityOperator clipped"))
        DensityOperator(m)
        assert calls == ["eigvalsh"]

    def test_spectrum_reconstructs(self):
        rng = np.random.default_rng(31)
        m = rand_density_mat(rng, 4)
        spec = spectral_decomposition(m)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(recon - m, 2) <= 1e-9 * np.linalg.norm(m, 2)
        assert np.linalg.norm(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(4), 2) <= 1e-10
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
        pivot = col[k : k + 1]  # a one-element array, divided as arrays are
        if abs(pivot[0]) > 0:
            out[:, j] = col * (np.abs(pivot) / pivot)
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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(38)
        m = rand_complex(rng, 30, 6).reshape(5, 6, 6)
        stack = np.linalg.eigh(m + m.conj().swapaxes(-1, -2))[1]
        fixed = _fix_column_phases(stack)
        for v, got in zip(stack, fixed):
            assert np.array_equal(got, _fix_column_phases_loop(v))

    def test_zero_column_and_tied_pivots(self):
        v = np.array([[0.0, 1j, 2.0, -3.0], [0.0, -1.0, -2j, 3j], [0.0, 0.5, 1.0, 1.0]])
        got = _fix_column_phases(v)
        assert np.array_equal(got, _fix_column_phases_loop(v))
        assert np.array_equal(got[:, 0], np.zeros(3))
        # ties go to the first largest entry, which becomes real positive
        assert np.array_equal(got[0, 1:], np.array([1.0, 2.0, 3.0]))


class TestClipSpectra:
    def test_rows_with_no_negative_eigenvalue_come_back_as_they_are(self):
        vals = np.array([[0.0, 0.25, 0.75], [-1e-12, 0.5, 0.5 + 1e-12], [0.1, 0.2, 0.7], [-0.2, 0.4, 0.8]])
        clipped, negative = linalg._clip_spectra(vals)
        for row in (0, 2):
            assert clipped[row].tobytes() == vals[row].tobytes()
            assert negative[row] == 0.0 and not np.signbit(negative[row])  # +0.0, not -0.0
        for row in (1, 3):
            kept = np.clip(vals[row], 0.0, None)
            assert clipped[row].tobytes() == (kept / np.sum(kept)).tobytes()
            assert negative[row] == -vals[row, 0]
