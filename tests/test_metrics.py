import re

import numpy as np
import pytest

from chanid.channel import (
    choi,
    compose,
    depolarizing_channel,
    identity_channel,
    random_channel,
    tensor_channels,
    unitary_channel,
    zero_map,
)
from chanid.identify import forward_map, make_reference
from chanid.linalg import (
    CB_STARTS_SITE,
    DensityOperator,
    maximally_mixed,
    random_unitary,
)
from chanid import metrics
from chanid.channel import KrausChannel
from chanid.metrics import (
    CB_SEED,
    CertificateError,
    cb_distance_interval,
    cb_norm_of_channel,
    cb_objective,
    channel_fidelity,
    fidelity_lower_bound,
    fvdg_gap,
    worst_case_bound,
)

from conftest import (
    cb_dual_kron_oracle,
    cb_lower_sequential_oracle,
    channel_fidelity_sqrt_oracle,
    cb_objective_kraus_oracle,
    draw_rule_generator,
    partial_trace_oracle,
    rand_complex,
    rand_density_mat,
    rand_state_vec,
    singular_values_oracle,
    unitary_pair_cb_distance_oracle,
)


class TestChannelFidelity:
    def test_self_fidelity_is_one(self):
        for k in range(5):
            t = random_channel(2, 3, 2, seed=k)
            assert channel_fidelity(t, t) == pytest.approx(1.0, abs=1e-10)

    def test_unitary_pair_overlap_formula(self):
        for k in range(10):
            d = 2 + k % 2
            u, v = random_unitary(d, seed=2 * k), random_unitary(d, seed=2 * k + 1)
            got = channel_fidelity(unitary_channel(u), unitary_channel(v))
            expected = abs(np.trace(u.conj().T @ v) / d) ** 2
            assert got == pytest.approx(expected, abs=1e-10)

    def test_identity_vs_fully_depolarizing_qubit(self):
        got = channel_fidelity(identity_channel(2), depolarizing_channel(1.0, 2))
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_and_bounded(self):
        for k in range(10):
            t1 = random_channel(2, 2, 2, seed=100 + k)
            t2 = random_channel(2, 2, 3, seed=200 + k)
            f12, f21 = channel_fidelity(t1, t2), channel_fidelity(t2, t1)
            assert abs(f12 - f21) <= 1e-10
            assert 0.0 <= f12 <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            channel_fidelity(identity_channel(2), identity_channel(3))


def _fidelity_cases(d1, d2):
    """Maps on the same dimensions: every Kraus rank, the zero map, and non-TP maps."""
    rng = np.random.default_rng(10 * d1 + d2)
    maps = [random_channel(d1, d2, r, seed=r) for r in range(1, d1 * d2 + 1) if d2 * r >= d1]
    maps.append(zero_map(d1, d2))
    for r in (1, d1 * d2):  # rescaled random Kraus sets: CP, not trace-preserving
        ops = tuple(0.7 * (rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1))) for _ in range(r))
        maps.append(KrausChannel(dim_in=d1, dim_out=d2, kraus=ops))
    return maps


class TestChannelFidelityFromKrausRows:
    """The fidelity (||F1† F2||_1 / d_in)² read from the maps' Choi factors
    (their Kraus rows, or C's eigen-factor for a Kraus set wider than C)
    agrees with the square-root formula on the Choi states."""

    @pytest.mark.parametrize("d1", [1, 2, 3])
    @pytest.mark.parametrize("d2", [1, 2, 3])
    def test_matches_square_root_oracle(self, d1, d2):
        maps = _fidelity_cases(d1, d2)
        assert any(not t.trace_preserving for t in maps)
        for t1 in maps:
            for t2 in maps:
                # both orders are covered: every pair is visited both ways
                assert abs(channel_fidelity(t1, t2) - channel_fidelity_sqrt_oracle(t1, t2)) <= 1e-12

    def test_more_kraus_operators_than_choi_size(self, monkeypatch):
        # 1 + d² Kraus operators for a d²-sized Choi matrix, 25 after composing
        t2 = compose(depolarizing_channel(0.3, 2), depolarizing_channel(0.1, 2))
        t1 = random_channel(2, 2, 3, seed=8)
        assert len(t2.kraus) > 4
        calls = []
        for routine in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, routine)
            spy = lambda m, *a, real=real, routine=routine, **k: calls.append((routine, m.shape)) or real(m, *a, **k)
            monkeypatch.setattr(np.linalg, routine, spy)
        got = channel_fidelity(t1, t2)
        monkeypatch.undo()
        # the wide map's factor is its Choi eigen-factor, so the SVD is of a 3x4 cross factor
        assert [call for call in calls if call[0] != "svd"] == [("eigh", (4, 4))]
        (svd_shape,) = [shape for routine, shape in calls if routine == "svd"]
        assert max(svd_shape[-2:]) <= 4
        assert abs(got - channel_fidelity_sqrt_oracle(t1, t2)) <= 1e-12

    def test_stacked_fidelities_match_one_pair_at_a_time(self):
        ts = [random_channel(2, 2, 2, seed=k) for k in range(600)]
        f1 = np.array([t._factor for t in ts[:300]])
        f2 = np.array([t._factor for t in ts[300:]])
        stacked = metrics._channel_fidelities(f1, f2, 2)
        assert stacked.tolist() == [channel_fidelity(a, b) for a, b in zip(ts[:300], ts[300:])]


class TestFvdgGap:
    def test_equal_channels(self):
        t = random_channel(2, 2, 2, seed=0)
        lhs, rhs = fvdg_gap(t, t)
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_unitaries_saturate(self):
        z = np.diag([1.0, -1.0])  # traceless, so the Choi states are orthogonal
        lhs, rhs = fvdg_gap(identity_channel(2), unitary_channel(z))
        assert lhs == pytest.approx(2.0, abs=1e-9)
        assert rhs == pytest.approx(2.0, abs=1e-9)

    def test_inequality_on_random_pairs(self):
        for k in range(100):
            d1, d2 = [(2, 2), (2, 3), (3, 2)][k % 3]
            t1 = random_channel(d1, d2, 2, seed=1000 + k)
            t2 = random_channel(d1, d2, 1 + k % 3 if d2 * (1 + k % 3) >= d1 else 2, seed=2000 + k)
            lhs, rhs = fvdg_gap(t1, t2)
            assert lhs <= rhs + 1e-9


class TestWorstCaseBound:
    def test_equal_states(self):
        rng = np.random.default_rng(1)
        ref = make_reference(DensityOperator(rand_density_mat(rng, 2, 0.1)))
        w = forward_map(random_channel(2, 2, 2, seed=3), ref)
        report = worst_case_bound(w, w, ref)
        assert report.bound == pytest.approx(1.0, abs=1e-12)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_coefficient_is_exactly_half(self):
        ref = make_reference(maximally_mixed(2))
        w1 = forward_map(random_channel(2, 2, 2, seed=4), ref)
        w2 = forward_map(random_channel(2, 2, 2, seed=5), ref)
        report = worst_case_bound(w1, w2, ref)
        assert report.rho_inv_norm / (2 * report.dim) == 0.5
        assert report.bound == max(0.0, 1.0 - report.trace_dist_w / 2) ** 2

    def test_fidelity_dominates_bound_on_random_triples(self):
        rng = np.random.default_rng(2)
        for k in range(30):
            d1, d2 = [(2, 2), (2, 3), (3, 2)][k % 3]
            ref = make_reference(DensityOperator(rand_density_mat(rng, d1, 0.05)))
            t1 = random_channel(d1, d2, 2, seed=3000 + k)
            t2 = random_channel(d1, d2, 2, seed=4000 + k)
            report = worst_case_bound(forward_map(t1, ref), forward_map(t2, ref), ref)
            assert report.fidelity >= report.bound - 1e-9

    def test_bound_monotone_in_inverse_norm(self):
        values = [fidelity_lower_bound(0.3, g, 2) for g in (2.0, 4.0, 10.0, 40.0, 200.0)]
        for a, b in zip(values, values[1:]):
            assert b <= a

    def test_bound_clamps_at_zero(self):
        assert fidelity_lower_bound(2.0, 100.0, 2) == 0.0


class TestBoundColumn:
    """The stacked bound core gives each row the bits of ``fidelity_lower_bound``,
    its one-row case, and of the bound's formula in Python floats."""

    # linear parts x whose x·x (numpy's ** 2) and x ** 2 (Python's, libm pow) differ in the last bit
    POW_TRAPS = (0.9763909917309034, 0.9721546425376258, 0.9819365275268099)

    def test_rows_equal_fidelity_lower_bound(self):
        linear = np.array(self.POW_TRAPS)
        assert all(a != b for a, b in zip((linear**2).tolist(), [x**2 for x in self.POW_TRAPS]))
        # at rho_inv_norm = 1 and d1 = 1 the linear part is 1 - t / 2, exactly x for t = 2(1 - x)
        trace_dist = np.array([2.0 * (1.0 - x) for x in self.POW_TRAPS] + [3.0, float("nan"), 0.0, 1e-3])
        assert (1.0 - trace_dist[:3] / 2.0).tolist() == list(self.POW_TRAPS)
        per_row = 1.0 / np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.01])
        for d1, rho_inv_norm in [(1, per_row), (1, 1.0), (3, 5.0)]:  # a reference per row, then a fixed one
            rows = list(zip(trace_dist.tolist(), np.broadcast_to(rho_inv_norm, trace_dist.shape).tolist()))
            got = [x.hex() for x in metrics._fidelity_lower_bounds(trace_dist, rho_inv_norm, d1)]
            assert got == [fidelity_lower_bound(t, r, d1).hex() for t, r in rows]
            assert got == [(max(0.0, 1.0 - r * t / (2.0 * d1)) ** 2).hex() for t, r in rows]
            assert got[3:5] == [(0.0).hex()] * 2  # vacuous (negative) linear part, NaN trace distance


class TestCbDistanceInterval:
    def test_equal_channels_collapse_to_zero(self):
        t = random_channel(2, 2, 2, seed=6)
        interval = cb_distance_interval(t, t, starts=4)
        assert interval.lower == pytest.approx(0.0, abs=1e-12)
        assert interval.upper == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_z_conjugation(self):
        z = np.diag([1.0, -1.0])
        interval = cb_distance_interval(identity_channel(2), unitary_channel(z), starts=8)
        oracle = unitary_pair_cb_distance_oracle(np.eye(2), z)
        assert oracle == pytest.approx(2.0, abs=1e-15)
        assert interval.lower >= 2.0 - 1e-6
        assert interval.upper == pytest.approx(2.0, abs=1e-9)

    def test_matches_unitary_oracle_on_random_pairs(self):
        for k in range(8):
            d = 2 + k % 2
            u, v = random_unitary(d, seed=100 + k), random_unitary(d, seed=300 + k)
            interval = cb_distance_interval(unitary_channel(u), unitary_channel(v), starts=12)
            oracle = unitary_pair_cb_distance_oracle(u, v)
            assert interval.lower <= oracle + 1e-9
            assert oracle <= interval.upper + 1e-9
            assert interval.lower >= oracle - 1e-6  # ascent finds the optimum
            assert interval.upper <= oracle * (1 + 1e-4)  # the dual closes the gap

    def test_upper_at_most_two_for_channel_pairs(self):
        for k in range(20):
            t1 = random_channel(2, 3, 2, seed=5000 + k)
            t2 = random_channel(2, 3, 3, seed=6000 + k)
            interval = cb_distance_interval(t1, t2, starts=2, max_iters=20)
            assert interval.upper <= 2.0 + 1e-9

    def test_probe_distance_within_interval(self):
        rng = np.random.default_rng(3)
        t1 = random_channel(2, 2, 2, seed=7)
        t2 = random_channel(2, 2, 2, seed=8)
        for _ in range(5):
            ref = make_reference(DensityOperator(rand_density_mat(rng, 2, 0.05)))
            dist = np.linalg.norm(forward_map(t1, ref).mat - forward_map(t2, ref).mat, "nuc")
            # the probe output w = (1 ⊗ X) C (1 ⊗ X)† is the stabilized output at vec X
            assert cb_objective(t1, t2, ref.x.reshape(-1)) == pytest.approx(dist, rel=0, abs=1e-14)
            interval = cb_distance_interval(t1, t2, starts=4)
            assert dist <= interval.lower <= interval.upper  # the probe is a feasible point

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"starts": -3}, "starts"),
            ({"max_iters": -1}, "max_iters"),
        ],
    )
    def test_negative_arguments_rejected(self, kwargs, message):
        t = random_channel(2, 2, 2, seed=11)
        with pytest.raises(ValueError, match=message):
            cb_distance_interval(t, t, **kwargs)

    @pytest.mark.parametrize("name, value", [("tol", 1e-10), ("seed", 0), ("extra_starts", ())])
    def test_retired_settings_are_refused(self, name, value):
        # the ascent stops at CB_TOL and its random starts are drawn at CB_SEED
        t = random_channel(2, 2, 2, seed=11)
        with pytest.raises(TypeError, match=name):
            cb_distance_interval(t, t, **{name: value})

    @pytest.mark.parametrize("starts", [1, 2, 5])
    def test_random_starts_are_the_first_draws_at_the_cb_seed(self, starts, monkeypatch):
        # so a run with fewer starts ascends the first of a default run's starts
        seen, ascend = [], metrics._ascend
        monkeypatch.setattr(metrics, "_ascend", lambda r, psis, *args: seen.append(psis) or ascend(r, psis, *args))
        t1, t2 = random_channel(2, 2, 2, seed=7), random_channel(2, 2, 2, seed=8)
        cb_distance_interval(t1, t2, starts=starts, max_iters=0)
        [psis] = seen
        assert len(psis) == 1 + starts  # the maximally entangled start comes first
        rng = draw_rule_generator(CB_SEED, CB_STARTS_SITE)
        for k in range(starts):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.array_equal(psis[1 + k], v / np.linalg.norm(v))

    def test_lower_reproducible_at_witness(self):
        t1 = random_channel(3, 2, 2, seed=9)
        t2 = random_channel(3, 2, 4, seed=10)
        interval = cb_distance_interval(t1, t2, starts=6)
        revalue = cb_objective(t1, t2, interval.argmax_state)
        assert revalue == interval.lower  # identical evaluation path


class TestCbChoiForm:
    """The Choi-form objective and the batched ascent against Kraus-form oracles."""

    DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]

    @pytest.mark.parametrize("d_in, d_out", DIMS)
    def test_objective_matches_kraus_oracle(self, d_in, d_out):
        rng = np.random.default_rng(10 * d_in + d_out)
        t1 = random_channel(d_in, d_out, 2 * d_in, seed=d_in + 7 * d_out)
        t2 = random_channel(d_in, d_out, d_in, seed=d_in + 7 * d_out + 1)
        scaled = KrausChannel(d_in, d_out, tuple(0.7 * a for a in t2.kraus))
        assert not scaled.trace_preserving
        for other in (t2, zero_map(d_in, d_out), scaled):
            for _ in range(5):
                psi = rand_state_vec(rng, d_in * d_in)
                expected = cb_objective_kraus_oracle(t1, other, psi)
                assert cb_objective(t1, other, psi) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d_in, d_out", DIMS)
    def test_lower_matches_sequential_oracle(self, d_in, d_out):
        t1 = random_channel(d_in, d_out, d_in, seed=40 + d_in + 7 * d_out)
        for t2 in (
            random_channel(d_in, d_out, d_in, seed=41 + d_in + 7 * d_out),
            compose(depolarizing_channel(0.05, d_out), t1),
        ):
            interval = cb_distance_interval(t1, t2, starts=4)
            expected, _, _ = cb_lower_sequential_oracle(t1, t2, starts=4)
            assert interval.lower == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_lower_matches_sequential_oracle_at_defaults(self, d):
        t1 = random_channel(d, d, d, seed=45 + d)
        t2 = random_channel(d, d, d, seed=46 + d)
        expected, _, _ = cb_lower_sequential_oracle(t1, t2)
        assert cb_distance_interval(t1, t2).lower == pytest.approx(expected, rel=1e-9)

    def test_no_random_starts(self):
        t1, t2 = random_channel(2, 2, 2, seed=50), random_channel(2, 2, 2, seed=51)
        interval = cb_distance_interval(t1, t2, starts=0)
        expected, _, _ = cb_lower_sequential_oracle(t1, t2, starts=0)
        assert interval.lower == pytest.approx(expected, rel=1e-9)

    def test_no_iterations_is_best_start_value(self):
        t1, t2 = random_channel(3, 2, 2, seed=52), random_channel(3, 2, 3, seed=53)
        interval = cb_distance_interval(t1, t2, starts=5, max_iters=0)
        expected, witness, _ = cb_lower_sequential_oracle(t1, t2, starts=5, max_iters=0)
        assert interval.lower == pytest.approx(expected, rel=1e-12)
        np.testing.assert_array_equal(interval.argmax_state, witness)

    def test_one_dimensional_input_is_trace_distance_of_outputs(self):
        # maps from C: the CB distance is the trace distance of the two prepared states
        rng = np.random.default_rng(54)
        rho1, rho2 = rand_density_mat(rng, 3), rand_density_mat(rng, 3)
        t1, t2 = (
            KrausChannel(1, 3, tuple(np.linalg.cholesky(r + 1e-15 * np.eye(3))[:, [k]] for k in range(3)))
            for r in (rho1, rho2)
        )
        interval = cb_distance_interval(t1, t2, starts=2)
        expected = np.linalg.norm(rho1 - rho2, "nuc")
        assert interval.lower == pytest.approx(expected, rel=1e-9)
        assert interval.upper == pytest.approx(expected, rel=1e-9)
        assert interval.argmax_state.shape == (1,)


def _bench_like_pair(d, kind, seed):
    t1 = random_channel(d, d, d, seed=seed)
    if kind == "far":
        return t1, random_channel(d, d, d, seed=seed + 1)
    return t1, compose(depolarizing_channel(0.05, d), t1)


def _assert_dual_certificate(t1, t2, interval):
    """The upper end re-checked from its dual state with the ``np.kron`` oracle:
    Y ± J >= 0 and upper = ||tr_out Y||_op (capped at 2 for a pair of
    channels), both up to rounding.  σ's eigenvalue floor of 1e-8 amplifies
    the rounding of Y by up to 1e8, so the check allows violations of 1e-8
    ||Y||_op, and upper may exceed ||tr_out Y||_op by d_out times that."""
    sigma = interval.dual_state
    assert sigma.shape == (t1.dim_in, t1.dim_in)
    assert np.array_equal(sigma, sigma.conj().T)
    assert abs(np.trace(sigma) - 1.0) <= 1e-12 and np.linalg.eigvalsh(sigma)[0] > 0.0
    top, least, y_norm = cb_dual_kron_oracle(t1, t2, sigma)
    slack = 1e-8 * max(y_norm, 1.0)
    assert least >= -slack
    if t1.trace_preserving and t2.trace_preserving:
        top = min(top, 2.0)
    assert abs(interval.upper - top) <= t1.dim_out * slack + 1e-12 * top


class TestCbDefaults:
    """The default start set (maximally entangled, few random vectors) and
    step cap against many more starts and a longer ascent."""

    # random_channel(3, 3, 3, seed) for these seeds: a far pair whose optimum
    # is rank-deficient (its witness has a singular value below 1e-2), where
    # the ascent crawls
    CRAWLING_SEEDS = (2246855968073182519, 2161267983452563252)
    # its lower end from 32 random starts and max_iters=20000
    CRAWLING_LONG_RUN = 1.7830085526987156

    def test_crawling_pair_reaches_long_run_value(self):
        t1, t2 = (random_channel(3, 3, 3, seed=s) for s in self.CRAWLING_SEEDS)
        interval = cb_distance_interval(t1, t2)
        assert np.linalg.svd(interval.argmax_state.reshape(3, 3), compute_uv=False)[-1] < 1e-2
        assert interval.lower >= self.CRAWLING_LONG_RUN * (1 - 1e-8)
        assert interval.upper >= self.CRAWLING_LONG_RUN
        assert interval.upper - interval.lower <= 1e-4 * interval.upper
        _assert_dual_certificate(t1, t2, interval)

    # random_channel(3, 3, 3, seed) pairs whose batch winner crawls: the
    # ascent from its truncation to the larger singular values ends higher
    FACE_SEEDS = [(881679701955453742, 1815972297528319056), (1985077510716937771, 2823634919410820676)]

    @pytest.mark.parametrize("seeds", FACE_SEEDS)
    def test_face_restart_lifts_a_crawling_witness(self, seeds, monkeypatch):
        t1, t2 = (random_channel(3, 3, 3, seed=s) for s in seeds)
        interval = cb_distance_interval(t1, t2)
        monkeypatch.setattr(metrics, "_face_start", lambda *args: None)
        batch_only = cb_distance_interval(t1, t2)
        assert interval.lower >= batch_only.lower * (1 + 1e-9)
        assert interval.upper - interval.lower <= 1e-4 * interval.upper
        _assert_dual_certificate(t1, t2, interval)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["far", "near"])
    @pytest.mark.parametrize("seed", [70, 72])
    def test_lower_not_below_many_starts(self, d, kind, seed):
        t1, t2 = _bench_like_pair(d, kind, seed)
        many = cb_distance_interval(t1, t2, starts=32, max_iters=500)
        default = cb_distance_interval(t1, t2)
        assert default.lower >= many.lower * (1 - 1e-9)
        # the two runs end at different witnesses, so at different dual states
        for interval in (default, many):
            _assert_dual_certificate(t1, t2, interval)
        assert default.upper >= many.lower and many.upper >= default.lower


class TestDualCertificate:
    """The upper end is Watrous's dual at the stored ``dual_state``,
    re-checked with the ``np.kron`` oracle on bench-like pairs, maps that are
    not trace-preserving, d_in != d_out and d_in = 1."""

    @staticmethod
    def _scaled(t):
        return KrausChannel(t.dim_in, t.dim_out, tuple(0.7 * a for a in t.kraus))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["far", "near"])
    @pytest.mark.parametrize("seed", [80, 81])
    def test_bench_like_pairs_certified_within_1e_4(self, d, kind, seed):
        t1, t2 = _bench_like_pair(d, kind, seed)
        interval = cb_distance_interval(t1, t2)
        _assert_dual_certificate(t1, t2, interval)
        assert interval.upper - interval.lower <= 1e-4 * interval.upper

    @pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_maps_that_are_not_trace_preserving(self, d_in, d_out):
        t1 = random_channel(d_in, d_out, d_in, seed=82 + d_in + 7 * d_out)
        t2 = random_channel(d_in, d_out, d_in + 1, seed=83 + d_in + 7 * d_out)
        for a, b in ((t1, self._scaled(t2)), (self._scaled(t2), t1), (t1, t2)):
            interval = cb_distance_interval(a, b)
            _assert_dual_certificate(a, b, interval)
            assert interval.upper - interval.lower <= 1e-4 * interval.upper

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(84)
        t1, t2 = (KrausChannel(1, 3, tuple(rand_complex(rng, 3, 1) for _ in range(2))) for _ in range(2))
        interval = cb_distance_interval(t1, t2)
        assert np.array_equal(interval.dual_state, np.ones((1, 1)))
        _assert_dual_certificate(t1, t2, interval)
        assert interval.upper == pytest.approx(interval.lower, rel=1e-12)

    def test_witness_state_gives_the_lower_end(self):
        # tr|S J S| at σ = conj(Ψ) Ψᵀ is the objective at the witness: the
        # dual reads the witness in the objective's convention
        t1, t2 = _bench_like_pair(3, "far", 85)
        interval = cb_distance_interval(t1, t2)
        psi = interval.argmax_state.reshape(3, 3)
        p, u = np.linalg.eigh(psi.conj() @ psi.T)
        s = np.kron(np.eye(3), (u * np.sqrt(np.clip(p, 0.0, None))) @ u.conj().T)
        j = choi(t1).mat - choi(t2).mat
        assert np.sum(np.abs(np.linalg.eigvalsh(s @ j @ s))) == pytest.approx(interval.lower, rel=1e-12)

    def test_equal_maps_have_zero_upper_end(self):
        t = random_channel(3, 2, 2, seed=86)
        interval = cb_distance_interval(t, t)
        assert interval.upper == 0.0 and interval.lower == 0.0


def _spy_on_decompositions(monkeypatch) -> list:
    calls = []
    for routine in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, routine)
        spy = lambda m, *a, real=real, routine=routine, **k: calls.append((routine, m.shape)) or real(m, *a, **k)
        monkeypatch.setattr(np.linalg, routine, spy)
    return calls


class TestUpperEndsFromMarginals:
    """Both upper ends are ||tr_out Y||_op read from the d_in × d_in marginal of
    a factor of Y: (1 ⊗ σ^{-1/2}) V·sqrt|mu| from M = S J S's one eigh for a
    pair, the map's own factor for one channel; checked against the explicit
    partial trace and the singular values of the rebuilt Y."""

    @staticmethod
    def _pairs():
        pairs = [_bench_like_pair(d, kind, seed) for d in (2, 3) for kind in ("far", "near") for seed in (80, 81)]
        for d1, d2 in [(2, 3), (3, 2)]:
            t1 = random_channel(d1, d2, d1, seed=82 + d1)
            t2 = random_channel(d1, d2, d1 + 1, seed=84 + d1)
            scaled = KrausChannel(d1, d2, tuple(0.7 * a for a in t2.kraus))  # not TP: no cap at 2
            pairs += [(t1, t2), (t1, scaled), (scaled, t1)]
        return pairs

    def test_uniform_dual_candidate_is_partial_trace_of_abs_j(self):
        # at σ = 1/d_in, Y = |J|: the Jordan bound is one candidate of the dual
        for t1, t2 in self._pairs():
            j = choi(t1).mat - choi(t2).mat
            vals, vecs = np.linalg.eigh(j)
            abs_j = (vecs * np.abs(vals)) @ vecs.conj().T
            expected = singular_values_oracle(partial_trace_oracle(abs_j, t1.dim_out, t1.dim_in, "first"))[0]
            sigma = np.eye(t1.dim_in, dtype=complex) / t1.dim_in
            upper, factor, _ = metrics._dual_candidate(j, sigma)
            assert abs(upper - expected) <= 1e-14 * expected
            assert np.allclose(factor @ factor.conj().T, abs_j, rtol=0, atol=1e-14)

    def test_channel_upper_matches_partial_trace_of_choi(self):
        t = random_channel(3, 3, 3, seed=86)
        wide = compose(depolarizing_channel(0.05, 3), t)
        assert wide._factor.shape == (9, 30)  # 30 Kraus columns, 9 rows
        channels = [t, wide, random_channel(2, 3, 2, seed=87), random_channel(3, 2, 3, seed=88),
                    tensor_channels(random_channel(2, 2, 2, seed=11), random_channel(3, 2, 3, seed=12))]
        for t in channels:
            expected = singular_values_oracle(partial_trace_oracle(choi(t).mat, t.dim_out, t.dim_in, "first"))[0]
            assert abs(cb_norm_of_channel(t).upper - expected) <= 1e-14 * expected

    def test_dual_decompositions_and_no_svd(self, monkeypatch):
        t1 = random_channel(3, 2, 3, seed=89)
        t2 = KrausChannel(3, 2, tuple(0.9 * a for a in random_channel(3, 2, 2, seed=90).kraus))
        j = choi(t1).mat - choi(t2).mat
        witness = rand_state_vec(np.random.default_rng(89), 9)
        calls = _spy_on_decompositions(monkeypatch)
        metrics._dual_upper(j, [witness], t1, t2)
        # per candidate: σ's eigh, M's one eigh, the marginal's eigvalsh; then
        # the two checks over the stack of the 1 + CB_DUAL_STEPS + 1 candidates
        count = metrics.CB_DUAL_STEPS + 2
        per_candidate = [("eigh", (3, 3)), ("eigh", (6, 6)), ("eigvalsh", (3, 3))]
        assert calls == per_candidate * count + [("eigvalsh", (count, 6, 6))] * 2
        calls.clear()
        cb_norm_of_channel(t1)  # the lower end is one objective value at the maximally entangled probe
        assert calls == [("eigvalsh", (1, 6, 6)), ("eigvalsh", (3, 3))]


class TestProbeVectorsAreCheckedWhereTheyEnter:
    @pytest.mark.parametrize(
        "scale, message",
        [
            (2.0, "expected 1 within 1e-9"),
            (1.0 + 2e-9, "expected 1 within 1e-9"),
            (0.0, "probe vector must be finite and nonzero"),
            (np.nan, "probe vector must be finite and nonzero"),
            (np.inf, "probe vector must be finite and nonzero"),
            (1e200, "probe vector must be finite and nonzero, with a finite norm"),
        ],
        ids=["norm-2", "just-outside", "zero", "nan", "inf", "norm-overflow"],
    )
    def test_cb_objective_refuses_a_probe_that_is_not_a_finite_unit_vector(self, scale, message, monkeypatch):
        t1, t2 = random_channel(2, 2, 2, seed=93), random_channel(2, 2, 2, seed=94)
        unit = rand_state_vec(np.random.default_rng(95), 4)
        psi = unit * scale if np.isfinite(scale) else np.concatenate([[scale], unit[1:]])
        calls = _spy_on_decompositions(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            cb_objective(t1, t2, psi)
        assert "\n" not in str(info.value)
        assert calls == []

    def test_cb_objective_refuses_a_probe_of_the_wrong_length(self):
        t = random_channel(2, 2, 2, seed=93)
        with pytest.raises(ValueError, match="probe vector has length 3, expected 4"):
            cb_objective(t, t, np.ones(3) / np.sqrt(3))

    def test_cb_objective_accepts_a_unit_norm_within_rounding(self):
        t1, t2 = random_channel(2, 2, 2, seed=93), random_channel(2, 2, 2, seed=94)
        psi = rand_state_vec(np.random.default_rng(95), 4)
        near = psi * (1.0 + 5e-10)
        assert cb_objective(t1, t2, near) == pytest.approx(cb_objective(t1, t2, psi), rel=2e-9)


class TestCertificate:
    def _pair(self):
        return random_channel(2, 2, 2, seed=60), random_channel(2, 2, 2, seed=61)

    def test_lower_above_upper_raises(self, monkeypatch):
        monkeypatch.setattr(metrics, "_dual_upper", lambda *args: (1e-3, np.eye(2) / 2))
        with pytest.raises(CertificateError, match="exceeds"):
            cb_distance_interval(*self._pair(), starts=2)

    def test_rounding_slack_is_tolerated(self, monkeypatch):
        t1, t2 = self._pair()
        lower = cb_distance_interval(t1, t2, starts=2).lower
        monkeypatch.setattr(metrics, "_dual_upper", lambda *args: (lower * (1 - 1e-13), np.eye(2) / 2))
        interval = cb_distance_interval(t1, t2, starts=2)
        assert interval.lower == lower and interval.upper == lower


class TestCbNormOfChannel:
    def test_identity_channel(self):
        interval = cb_norm_of_channel(identity_channel(3))
        assert interval.lower == pytest.approx(1.0, abs=1e-12)

    def test_random_channels(self):
        for k in range(10):
            t = random_channel(2, 3, 2 + k % 4, seed=7000 + k)
            interval = cb_norm_of_channel(t)
            assert interval.lower == pytest.approx(1.0, abs=1e-10)
            assert interval.upper == pytest.approx(1.0, abs=1e-9)

    def test_tensor_of_channels(self):
        a = random_channel(2, 2, 2, seed=11)
        b = random_channel(3, 2, 3, seed=12)
        interval = cb_norm_of_channel(tensor_channels(a, b))
        assert interval.lower == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_channel(self):
        half = depolarizing_channel(0.0, 2)
        bad = type(half)(dim_in=2, dim_out=2, kraus=(0.5 * np.eye(2),))
        with pytest.raises(ValueError):
            cb_norm_of_channel(bad)
