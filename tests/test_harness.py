import re
import tracemalloc
import warnings

import numpy as np
import pytest

import chanid.channel as channel
import chanid.harness as harness
import chanid.identify as identify
import chanid.linalg as linalg
from chanid.channel import random_channel
from chanid.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    NoiseSpec,
    RefSpec,
    SelfCheckError,
    TrialTable,
    apply_noise,
    config_from_json,
    records_to_csv,
    run_roundtrip,
    run_spectrum_sweep,
    write_records_csv,
)
from chanid.identify import forward_map, make_reference
from chanid.linalg import DensityOperator, maximally_mixed
from chanid.metrics import fidelity_lower_bound

from conftest import _oracle_reference, draw_rule_generator, rand_density_mat, roundtrip_loop_oracle, sweep_loop_oracle


def small_config(**overrides):
    base = dict(
        d1=2,
        d2=2,
        kraus_rank=2,
        ref_spec=RefSpec(kind="maximally_mixed"),
        noise=NoiseSpec(kind="none"),
        trials=4,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestApplyNoise:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(0)
        w = DensityOperator(rand_density_mat(rng, 4))
        out = apply_noise(w, NoiseSpec(kind="depolarize", eps=0.0), seed=1)
        assert np.array_equal(out.mat, w.mat)

    def test_full_depolarize_gives_uniform(self):
        rng = np.random.default_rng(1)
        w = DensityOperator(rand_density_mat(rng, 4))
        out = apply_noise(w, NoiseSpec(kind="depolarize", eps=1.0), seed=1)
        np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-14)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_depolarize_distance_bounded(self, eps):
        rng = np.random.default_rng(2)
        w = DensityOperator(rand_density_mat(rng, 6))
        out = apply_noise(w, NoiseSpec(kind="depolarize", eps=eps), seed=2)
        assert np.linalg.norm(out.mat - w.mat, "nuc") <= 2 * eps + 1e-9

    def test_jitter_output_is_state_and_deterministic(self):
        ref = make_reference(maximally_mixed(2))
        w = forward_map(random_channel(2, 2, 2, seed=3), ref)
        spec = NoiseSpec(kind="hermitian_jitter", eps=0.05)
        a = apply_noise(w, spec, seed=7)
        b = apply_noise(w, spec, seed=7)
        assert np.array_equal(a.mat, b.mat)
        assert np.linalg.eigvalsh(a.mat)[0] >= -1e-12
        assert np.trace(a.mat).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(a.mat - w.mat, "nuc") > 0

    def test_jitter_on_one_dimensional_state_is_identity(self):
        # the only traceless Hermitian matrix on a 1-dimensional space is 0
        w = forward_map(random_channel(1, 1, 1, seed=3), make_reference(maximally_mixed(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_noise(w, NoiseSpec(kind="hermitian_jitter", eps=0.01), seed=7)
        assert np.array_equal(out.mat, w.mat)

    @pytest.mark.parametrize("kind", ["none", "depolarize", "hermitian_jitter"])
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_every_model_checks_its_seed(self, kind, seed):
        w = forward_map(random_channel(2, 2, 2, seed=3), make_reference(maximally_mixed(2)))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            apply_noise(w, NoiseSpec(kind=kind, eps=0.0 if kind == "none" else 0.02), seed=seed)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="gaussian", eps=0.1)
        with pytest.raises(ValueError):
            NoiseSpec(kind="depolarize", eps=1.5)


class TestRunRoundtrip:
    def test_noiseless_records_are_clean(self):
        table = run_roundtrip(small_config(trials=6))
        assert table.trial_index.tolist() == list(range(6))
        assert np.all(table.fidelity >= 1.0 - 1e-8)
        assert np.all(table.consistency_residual <= 1e-8)
        assert np.all(table.tp_residual <= 1e-8)
        assert np.all(table.trace_dist_w <= 1e-12)
        assert table.bound_value.tolist() == pytest.approx([1.0] * 6, abs=1e-9)

    def test_deterministic_csv_bytes(self):
        cfg = small_config(
            ref_spec=RefSpec(kind="random_min_eig", min_eig=0.1),
            noise=NoiseSpec(kind="depolarize", eps=0.02),
        )
        a = records_to_csv(run_roundtrip(cfg))
        b = records_to_csv(run_roundtrip(cfg))
        assert a.encode() == b.encode()

    def test_different_seed_changes_output(self):
        a = records_to_csv(run_roundtrip(small_config(noise=NoiseSpec("depolarize", 0.1))))
        b = records_to_csv(
            run_roundtrip(small_config(noise=NoiseSpec("depolarize", 0.1), seed=12))
        )
        assert a != b

    def test_maximally_mixed_bound_uses_half_coefficient(self):
        cfg = small_config(noise=NoiseSpec(kind="depolarize", eps=0.01), trials=5)
        table = run_roundtrip(cfg)
        assert table.bound_value.tolist() == [max(0.0, 1.0 - t / 2) ** 2 for t in table.trace_dist_w.tolist()]
        assert np.all(table.fidelity >= table.bound_value - 1e-9)

    def test_spectrum_ref_spec(self):
        cfg = small_config(ref_spec=RefSpec(kind="spectrum", spectrum=(0.2, 0.8)))
        assert run_roundtrip(cfg).min_eig_rho.tolist() == pytest.approx([0.2] * cfg.trials, abs=1e-12)

    def test_random_min_eig_respects_floor(self):
        cfg = small_config(ref_spec=RefSpec(kind="random_min_eig", min_eig=0.15), trials=8)
        assert np.all(run_roundtrip(cfg).min_eig_rho >= 0.15 - 1e-9)

    def test_near_singular_reference_propagates(self):
        from chanid.identify import NotAdmissibleError

        cfg = small_config(ref_spec=RefSpec(kind="spectrum", spectrum=(1e-12, 1.0 - 1e-12)))
        with pytest.raises(NotAdmissibleError):
            run_roundtrip(cfg)


class TestFidelityPrecision:
    """Noiseless full-rank round trips recover F = 1 to a few ulps relative to
    the reference's conditioning: the fidelity read from the Choi factors
    does not square the spread of C's eigenvalues, as the K† C K sandwich did
    (the d = 5 maximally mixed case is the config where that lost 1.18e-13)."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ref", ["maximally_mixed", "random_min_eig"])
    def test_noiseless_full_rank_fidelity(self, d, ref):
        spec = RefSpec(ref) if ref == "maximally_mixed" else RefSpec(ref, min_eig=0.05 / d)
        table = run_roundtrip(ExperimentConfig(d, d, d * d, spec, NoiseSpec("none"), 20, seed=5025))
        assert np.max(np.abs(1.0 - table.fidelity) * table.min_eig_rho) <= 2e-15


class TestDepolarizedTraceDistance:
    """A depolarized trial's ``trace_dist_w`` is read from the r × r Gram of the
    lifted factor, not from w_noisy − w; it agrees with the sum of the
    |eigenvalues| of w_noisy − w, built by the public single-trial functions,
    to 16·D·u (u = 2⁻⁵³), and its bound to the bound's slope times that."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_agrees_with_the_eigenvalues_of_the_disturbance(self, d):
        u, dim, trials = 2.0**-53, d * d, 10
        for rank in sorted({1, d, d * d}):
            for eps in (0.02, 0.5, 1.0):
                for ref_spec in (RefSpec("random_min_eig", min_eig=0.05 / d), RefSpec("maximally_mixed")):
                    noise = NoiseSpec("depolarize", eps)
                    cfg = ExperimentConfig(d, d, rank, ref_spec, noise, trials, seed=97 * d + rank)
                    table = run_roundtrip(cfg)
                    for i in range(trials):
                        seed = cfg.seed + (i << 64)
                        t = random_channel(d, d, rank, seed)
                        ref = _oracle_reference(ref_spec, d, seed, (d, 2, d * rank))
                        w = forward_map(t, ref)
                        exact = np.sum(np.abs(np.linalg.eigvalsh(apply_noise(w, noise, seed).mat - w.mat)))
                        assert abs(table.trace_dist_w[i] - exact) <= 16 * dim * u, (rank, eps, ref_spec.kind, i)
                        slope = 1.0 / (ref.min_eig * d)  # |d bound / d t| <= ||rho^-1|| / d1
                        bound = fidelity_lower_bound(exact, 1.0 / ref.min_eig, d)
                        assert abs(table.bound_value[i] - bound) <= slope * 16 * dim * u + 4 * u


class TestRunSpectrumSweep:
    def test_grid_ordering_and_monotonicity(self):
        cfg = small_config(noise=NoiseSpec(kind="depolarize", eps=0.05), trials=1, seed=3)
        grid = [0.5, 0.25, 0.1, 0.05, 0.01]
        table = run_spectrum_sweep(cfg, grid)
        assert table.trial_index.tolist() == list(range(5))
        assert np.all(np.diff(1.0 / table.min_eig_rho) > 0)
        assert np.all(np.diff(table.bound_value) <= 1e-9)

    def test_grid_validation(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            run_spectrum_sweep(cfg, [0.6])  # exceeds 1/d1
        with pytest.raises(ValueError):
            run_spectrum_sweep(cfg, [0.0])
        with pytest.raises(ValueError):
            run_spectrum_sweep(cfg, [])

    def test_fixed_channel_across_grid(self):
        cfg = small_config(noise=NoiseSpec(kind="hermitian_jitter", eps=0.02), trials=1)
        assert run_spectrum_sweep(cfg, [0.5, 0.4]).noise_eps.tolist() == [0.02, 0.02]

    def test_rising_bound_names_the_first_pair_in_stable_descending_order(self, monkeypatch):
        # rows by min eig, stable: 0.5 (row 2), 0.25 (row 1), 0.25 (row 3), 0.1 (row 0);
        # the one rise is row 1 -> row 3, between equal min eigs in their row order
        cfg, grid = small_config(trials=1), [0.1, 0.25, 0.5, 0.25]
        monkeypatch.setattr(harness, "_fidelity_lower_bounds", lambda *a: [0.1, 0.3, 0.9, 0.4])
        message = "bound increased from 0.3 to 0.4 as min eigenvalue decreased 0.25 -> 0.25"
        with pytest.raises(SelfCheckError, match=f"^{re.escape(message)}$"):
            run_spectrum_sweep(cfg, grid)
        monkeypatch.setattr(harness, "_fidelity_lower_bounds", lambda *a: [0.1, 0.4, 0.9, 0.3])
        assert run_spectrum_sweep(cfg, grid).bound_value.tolist() == [0.1, 0.4, 0.9, 0.3]


NOISES = (NoiseSpec("none"), NoiseSpec("depolarize", 0.02), NoiseSpec("hermitian_jitter", 0.05))
DIMS = (1, 2, 3, 6)


def _refs(d1):
    spectrum = tuple(np.arange(1, d1 + 1) / (d1 * (d1 + 1) / 2))
    return (
        RefSpec(kind="maximally_mixed"),
        RefSpec(kind="spectrum", spectrum=spectrum),
        RefSpec(kind="random_min_eig", min_eig=0.05 / d1),
    )


def _rank(d1, d2):
    return min(d1 * d2, max(2, -(-d1 // d2)))


def _csv_lines(table):
    """The CSV's lines with their newlines: they join back to the text, and
    pytest reports a mismatch in a list of lines at once where its diff of two
    long strings can run for minutes."""
    return records_to_csv(table).splitlines(keepends=True)


def _per_chunk(d):
    """Trials in one of the harness's chunks at d1 = d2 = d."""
    return harness.CHUNK_ENTRIES // (d * d) ** 2


def _eps_across_the_margin(dim):
    """Depolarizing strengths from 1 down past the floor margin of a dim-sized output: the
    strengths whose floor eps/dim is a factor 10 above and below the margin among them."""
    edge = dim * identify._floor_margin(dim)
    return [1.0, 0.5, 0.02, 1e-6, 1e-9, 1e-11, 1e-13, 10.0 * edge, edge / 10.0]


class TestStackedTrialsMatchTheLoop:
    """Stacked chunks give the bytes of evaluating each trial alone."""

    @pytest.mark.parametrize("d1", DIMS)
    @pytest.mark.parametrize("d2", DIMS)
    def test_roundtrip_csv_bytes(self, d1, d2):
        for noise in NOISES:
            for ref_spec in _refs(d1):
                cfg = ExperimentConfig(d1, d2, _rank(d1, d2), ref_spec, noise, trials=4, seed=d1 + 7 * d2)
                assert _csv_lines(run_roundtrip(cfg)) == _csv_lines(roundtrip_loop_oracle(cfg))

    @pytest.mark.parametrize("d1", DIMS)
    @pytest.mark.parametrize("d2", DIMS)
    def test_sweep_csv_bytes(self, d1, d2):
        grid = [float(x) for x in np.geomspace(1.0 / d1, 1e-7, 5)]
        for noise in NOISES:
            cfg = ExperimentConfig(d1, d2, _rank(d1, d2), _refs(d1)[0], noise, trials=1, seed=3 * d1 + d2)
            assert _csv_lines(run_spectrum_sweep(cfg, grid)) == _csv_lines(sweep_loop_oracle(cfg, grid))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_csv_bytes_across_the_floor_margin(self, d):
        for eps in _eps_across_the_margin(d * d):
            noise = NoiseSpec("depolarize", eps)
            for rank in (1, d * d):
                cfg = ExperimentConfig(d, d, rank, _refs(d)[2], noise, trials=3, seed=5 * d + rank)
                assert _csv_lines(run_roundtrip(cfg)) == _csv_lines(roundtrip_loop_oracle(cfg))
            cfg = ExperimentConfig(d, d, d * d, _refs(d)[0], noise, trials=1, seed=d)
            grid = [1.0 / d, 1e-4, 1.2e-10]
            assert _csv_lines(run_spectrum_sweep(cfg, grid)) == _csv_lines(sweep_loop_oracle(cfg, grid))

    @pytest.mark.parametrize("noise", NOISES)
    def test_trials_spanning_several_chunks(self, noise):
        # three chunks, the last of one trial, at d1 = d2 = 6 and at d1 = d2 = 2
        for d in (6, 2):
            cfg = ExperimentConfig(d, d, d, _refs(d)[2], noise, trials=2 * _per_chunk(d) + 1, seed=17)
            assert _csv_lines(run_roundtrip(cfg)) == _csv_lines(roundtrip_loop_oracle(cfg))
        cfg = ExperimentConfig(6, 6, 6, _refs(6)[0], noise, trials=1, seed=19)
        grid = [float(x) for x in np.geomspace(1.0 / 6, 1e-8, 2 * _per_chunk(6) + 1)]
        assert _csv_lines(run_spectrum_sweep(cfg, grid)) == _csv_lines(sweep_loop_oracle(cfg, grid))

    @pytest.mark.parametrize(
        "noise", [NoiseSpec("depolarize", 0.02), NoiseSpec("hermitian_jitter", 0.02)], ids=["depolarize", "jitter"]
    )
    @pytest.mark.parametrize("d", [2, 6])
    def test_draws_do_not_depend_on_chunking(self, monkeypatch, d, noise):
        cfg = ExperimentConfig(d, d, d, _refs(d)[2], noise, trials=_per_chunk(d) + 3, seed=29)
        default = _csv_lines(run_roundtrip(cfg))
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", (d * d) ** 2)  # one trial a chunk
        assert len(harness._chunks(cfg, cfg.trials)) == cfg.trials
        assert _csv_lines(run_roundtrip(cfg)) == default

    def test_memory_does_not_grow_with_trials(self):
        def peak(trials):
            ref_spec, noise = RefSpec("random_min_eig", min_eig=0.01), NoiseSpec("depolarize", 0.02)
            cfg = ExperimentConfig(6, 6, 6, ref_spec, noise, trials, seed=1)
            tracemalloc.start()
            try:
                run_roundtrip(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # warm-up: first-call allocations of numpy and LAPACK
        assert peak(200) <= 1.25 * peak(20)


class TestCertifiedFloor:
    """A depolarized output's floor eps/D, above ``identify._floor_margin(D)``,
    sends its chunk to Cholesky without the deciding eigvalsh.  Every trial
    it certifies is plain by that eigvalsh too (the bytes on both sides of
    the margin are compared in TestStackedTrialsMatchTheLoop)."""

    def test_floor_is_eps_over_dim_under_depolarize_alone(self):
        assert NoiseSpec("depolarize", 0.02)._eigenvalue_floor(9) == 0.02 / 9
        assert NoiseSpec("hermitian_jitter", 0.02)._eigenvalue_floor(9) == 0.0
        assert NoiseSpec()._eigenvalue_floor(9) == 0.0

    def test_margin_is_derived_from_tau(self):
        for dim in range(1, 50):
            tau = identify._cholesky_threshold(dim)
            assert identify._floor_margin(dim) == 2.0 * tau + 16.0 * dim * 2.0**-53
        assert 1.35e-11 < 36 * identify._floor_margin(36) < 1.36e-11

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_every_certified_trial_is_plain_by_eigvalsh(self, monkeypatch, d):
        stacks = []
        stage = harness._reconstruct_stack
        monkeypatch.setattr(harness, "_reconstruct_stack", lambda w, *a: stacks.append((w, *a)) or stage(w, *a))
        dim = d * d
        for eps in _eps_across_the_margin(dim):
            for ref_spec in _refs(d):
                for rank in (1, d, d * d):
                    noise = NoiseSpec("depolarize", eps)
                    run_roundtrip(ExperimentConfig(d, d, rank, ref_spec, noise, trials=_per_chunk(d) + 2, seed=rank))
        monkeypatch.undo()
        tau, certified = identify._cholesky_threshold(dim), 0
        for w, _, floor in stacks:
            assert isinstance(floor, float)  # one scalar per chunk
            if floor > identify._floor_margin(dim):
                lam = np.linalg.eigvalsh(linalg.hermitian_part(w))
                assert (lam[:, 0] > tau * lam[:, -1]).all() and lam[:, 0].min() >= -identify.W_PSD_TOL
                certified += len(w)
        floors = {floor for _, _, floor in stacks}
        assert certified and min(floors) < identify._floor_margin(dim) < max(floors)

    @pytest.mark.parametrize("side, decided", [(10.0, 0), (0.1, 3)], ids=["above", "below"])
    def test_the_deciding_eigvalsh_runs_below_the_margin_alone(self, monkeypatch, side, decided):
        d = 6
        eps = side * d * d * identify._floor_margin(d * d)
        cfg = ExperimentConfig(d, d, d, _refs(d)[2], NoiseSpec("depolarize", eps), trials=3, seed=1)
        sizes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, *a: sizes.extend([m.shape[-1]] * len(m)) or real(m, *a))
        run_roundtrip(cfg)
        assert sizes.count(d * d) == decided


class TestStackedProductsKeepTheBitsOfSingleCalls:
    """The byte equality above rests on this: a stacked ``_lift``, ``_gram`` or
    Cholesky factor gives each item the bits of the single call (with single-threaded BLAS),
    at the harness's chunk sizes and on the non-contiguous transposed view
    of the Kraus draw that ``_kraus_factors`` returns."""

    @pytest.mark.parametrize("d, n", [(6, 1), (6, _per_chunk(6)), (3, _per_chunk(3)), (2, _per_chunk(2))])
    @pytest.mark.parametrize("full_rank", [False, True], ids=["rank-1", "rank-d2"])
    def test_each_item_equals_its_single_call(self, d, n, full_rank):
        rank = d * d if full_rank else 1
        cfg = ExperimentConfig(d, d, rank, RefSpec("random_min_eig", min_eig=0.05 / d), NoiseSpec(), n, seed=3)
        seeds = [cfg.seed + (i << 64) for i in range(n)]
        fills = ("standard_normal", (d, 2, d * rank)), ("standard_normal", (d, 2, d)), ("standard_exponential", (d,))
        z, *ref_draws = linalg._draw(seeds, linalg.CHANNEL_SITE, *fills)  # the trials' one stream, as run_roundtrip
        factor = channel._kraus_factors(z, d, rank)
        _, _, x, x_inv = harness._random_references(0.05 / d, *ref_draws)
        lifted = identify._lift(x, factor)
        w = linalg._gram(lifted)
        shared = identify._lift(x, factor[:1])  # a sweep's one channel against every reference
        u = identify._lift(x_inv, np.linalg.eigh(w)[1])  # the reconstruction's lifts: eigh's factor,
        chol = identify._lift(x_inv, np.linalg.cholesky(w)) if full_rank else None  # and Cholesky's
        for i in range(n):
            own = random_channel(d, d, rank, seed=seeds[i])._factor  # the layout a single call reads
            assert np.array_equal(own, factor[i])
            for f in (factor[i], own):
                assert np.array_equal(lifted[i], identify._lift(x[i], f))
            assert np.array_equal(shared[i], identify._lift(x[i], factor[0]))
            assert np.array_equal(w[i], linalg._gram(lifted[i]))
            assert np.array_equal(w[i], linalg._gram(identify._lift(x[i], own)))
            assert np.array_equal(u[i], identify._lift(x_inv[i], np.linalg.eigh(w[i])[1]))
            if full_rank:
                assert np.array_equal(chol[i], identify._lift(x_inv[i], np.linalg.cholesky(w[i])))


class TestSpectrumDraw:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_stacked_draw_equals_generator_dirichlet(self, d):
        seeds = [s + (i << 64) for i, s in enumerate(range(40 * d, 40 * d + 120))]
        expected = [draw_rule_generator(s, linalg.CHANNEL_SITE).dirichlet(np.ones(d)) for s in seeds]
        [e] = linalg._draw(seeds, linalg.CHANNEL_SITE, ("standard_exponential", (d,)))
        assert harness._flat_dirichlet(e).tobytes() == np.array(expected).tobytes()


class TestLapackCallsPerTrial:
    """The reconstruction takes one state-sized eigvalsh of each noisy output,
    which decides its factor: a Cholesky factor where nothing is clipped or
    cut and an eigh otherwise.  A depolarized output above the certified
    floor margin skips it: its floor eps/D proves the Cholesky choice.  The probe
    and depolarization build states without decomposing them, so under
    depolarize the Cholesky factor is the trial's only state-sized
    decomposition, and no eigvalsh or eigh of w runs: a depolarized output's trace
    distance is read from one r × r eigvalsh of the lifted factor's Gram matrix
    G†G.  A noiseless rank-deficient output adds the eigh that its clip and
    cut read, and none needs no trace distance.  Jitter also takes one eigh of
    each disturbed state to clip it, one eigvalsh of its random traceless
    direction (its operator norm, part of the model) and one of w_noisy − w
    (the trace distance), and its clipped outputs take the eigh path.  No
    other state-sized matrix, in particular no congruence output C, is
    decomposed, and none gets an SVD.  Both residuals are norms of the
    d1 × d1 marginal tr_out C − 1: when the rank cut on w keeps every column,
    as for every depolarized output, one eigvalsh of it gives both; when the
    cut drops columns, as for noiseless and jittered rank-deficient outputs,
    the cut factor's marginal takes a second one.  The fidelity stage makes
    one SVD of a (d1·d2) × rank matrix per trial and no eigendecomposition."""

    # rank 2 at d1 = d2 = 3: the r × r Grams are the only 2 × 2 matrices decomposed,
    # the marginals the only 3 × 3 ones given to eigvalsh.  Depolarized outputs never
    # clip and are full rank; noiseless ones have seven rounding-level eigenvalues,
    # some below 0 in every trial, all cut; every jittered state is clipped and cut
    @pytest.mark.parametrize(
        "noise, clips",
        [
            (NoiseSpec("depolarize", 0.02), False),
            (NoiseSpec("none"), True),
            (NoiseSpec("hermitian_jitter", 0.02), True),
        ],
        ids=["depolarize", "none", "jitter"],
    )
    def test_state_sized_decompositions_per_trial(self, monkeypatch, noise, clips):
        d, rank, trials = 3, 2, 5
        cfg = ExperimentConfig(d, d, rank, RefSpec("random_min_eig", min_eig=0.05 / d), noise, trials, seed=5)
        outputs, calls = {}, []
        for name in ("_probe_outputs", "_noisy"):
            stage = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, stage=stage, name=name: outputs.setdefault(name, stage(*a)))
        scoring = []
        score = harness._channel_fidelities
        monkeypatch.setattr(harness, "_channel_fidelities", lambda *a: scoring.append(len(calls)) or score(*a))
        for routine in ("eigh", "eigvalsh", "svd", "cholesky"):
            real = getattr(np.linalg, routine)
            spy = lambda m, *a, real=real, routine=routine, **k: calls.append((routine, np.copy(m))) or real(m, *a, **k)
            monkeypatch.setattr(np.linalg, routine, spy)
        run_roundtrip(cfg)
        monkeypatch.undo()
        (lifted, probe), noisy = outputs["_probe_outputs"], outputs["_noisy"]  # one chunk holds every trial
        n, jitter, plain = d * d, noise.kind == "hermitian_jitter", noise.kind == "depolarize"

        def square(routine, size):
            stacks = [m for r, m in calls if r == routine and m.shape[-2:] == (size, size)]
            return [m for stack in stacks for m in stack.reshape(-1, size, size)]

        eigh, eigvalsh, grams = square("eigh", n), square("eigvalsh", n), square("eigvalsh", rank)
        cholesky, marginals = square("cholesky", n), square("eigvalsh", d)
        assert len(eigh) == (2 * trials if jitter else 0 if plain else trials) and not square("svd", n)
        assert len(eigvalsh) == (3 * trials if jitter else 0 if plain else trials)
        assert len(cholesky) == (trials if plain else 0)
        assert len(grams) == (trials if plain else 0)
        assert len(marginals) == (trials if plain else 2 * trials)
        for i, (w, w_noisy) in enumerate(zip(probe, noisy)):
            if jitter:  # the disturbed state before its clip, then the rebuilt one, by the reconstruction
                assert (np.linalg.eigvalsh(eigh[i])[0] < 0.0) == clips
                assert np.array_equal(eigh[trials + i], w_noisy)
                direction, decided, distance = eigvalsh[i], eigvalsh[trials + i], eigvalsh[2 * trials + i]
                assert abs(np.trace(direction)) <= 1e-12 and np.array_equal(distance, w_noisy - w)
            else:
                assert (np.linalg.eigvalsh(w_noisy)[0] < 0.0) == clips
                decided = w_noisy if plain else eigvalsh[i]  # the floor decides a depolarized output
                assert np.array_equal((cholesky if plain else eigh)[i], w_noisy)
            assert np.array_equal(decided, w_noisy)
            if grams:
                assert np.array_equal(grams[i], linalg.hermitian_part(lifted[i].conj().T @ lifted[i]))
            if noise.kind != "none":
                assert not any(np.array_equal(m, w) for m in eigh + eigvalsh + cholesky)
        (start,) = scoring
        ((routine, cross),) = calls[start:]
        assert routine == "svd" and cross.shape == (trials, n, cfg.kraus_rank)


class TestReconstructionStaysInChoiForm:
    """The stages keep every map as a factor of its Choi matrix: no phase fix
    runs on a (d1·d2)-sized stack, no Choi matrix of a true channel is
    formed, and each chunk takes one (d1·d2)-row Gram product, the probe
    outputs G G† of the lifted true factors G = (1 ⊗ X) K."""

    @pytest.mark.parametrize("run", ["roundtrip", "sweep"])
    def test_no_kraus_form_on_choi_sized_stacks(self, monkeypatch, run):
        d = 3
        trials = _per_chunk(d) + 10  # two chunks
        cfg = ExperimentConfig(
            d, d, d, RefSpec("random_min_eig", min_eig=0.05 / d), NoiseSpec("depolarize", 0.02), trials, seed=5
        )
        phase_fixed, grams, lifted, drawn = [], [], [], []
        fix, gram, lift, draw = linalg._fix_column_phases, linalg._gram, identify._lift, channel._kraus_factors

        def fix_spy(vectors):
            phase_fixed.append(np.shape(vectors))
            return fix(vectors)

        def gram_spy(f):
            grams.append(f)
            return gram(f)

        for module in (linalg, channel):  # references are phase-fixed in linalg.spectral_decomposition
            monkeypatch.setattr(module, "_fix_column_phases", fix_spy)
        for module in (linalg, channel, identify):
            monkeypatch.setattr(module, "_gram", gram_spy)
        monkeypatch.setattr(identify, "_lift", lambda *a: lifted.append(lift(*a)) or lifted[-1])
        for module in (channel, harness):  # the sweep's factor comes through channel._random_factors
            monkeypatch.setattr(module, "_kraus_factors", lambda *a: drawn.append(draw(*a)) or drawn[-1])
        if run == "roundtrip":
            run_roundtrip(cfg)
        else:
            run_spectrum_sweep(cfg, [float(x) for x in np.geomspace(1.0 / d, 1e-6, trials)])
        assert phase_fixed and all(shape[-2:] == (d, d) for shape in phase_fixed)
        choi_sized = [f for f in grams if f.shape[-2] == d * d]
        assert [f.shape for f in choi_sized] == [(_per_chunk(d), d * d, d), (10, d * d, d)]  # (trials, d1·d2, rank) per chunk
        assert all(any(f is g for g in lifted) for f in choi_sized)
        true_factors = [k for stack in drawn for k in stack]  # one per trial for the roundtrip, 1 for the sweep
        assert len(true_factors) == (trials if run == "roundtrip" else 1)
        gram_items = [g for f in grams for g in f.reshape(-1, *f.shape[-2:])]
        assert not any(np.array_equal(g, k) for g in gram_items for k in true_factors)


def _rows(count=1, **columns):
    """A table of ``count`` equal rows: a noisy row 0.06 above its bound, with the
    given columns replaced."""
    row = dict(zip(CSV_COLUMNS, (3, 0.25, 0.02, 1e-17, 0.1, -1.5e-300, 0.96, 0.9)), **columns)
    return TrialTable(**{name: [value] * count for name, value in row.items()})


class TestCsvOutput:
    def test_header_and_formatting(self, tmp_path):
        table = run_roundtrip(small_config(trials=2))
        path = tmp_path / "out.csv"
        write_records_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        # floats carry 17 significant digits
        assert float(first[7]) == table.bound_value[0]

    def test_bound_violation_aborts(self):
        with pytest.raises(SelfCheckError):
            records_to_csv(_rows(min_eig_rho=0.5, fidelity=0.5, bound_value=0.9))

    def test_first_violating_row_is_named(self):
        table = TrialTable(
            trial_index=[5, 7, 9],
            min_eig_rho=[0.5] * 3,
            noise_eps=[0.0] * 3,
            trace_dist_w=[0.0] * 3,
            consistency_residual=[0.0] * 3,
            tp_residual=[0.0] * 3,
            fidelity=[0.95, 0.5, 0.25],
            bound_value=[0.9] * 3,
        )
        with pytest.raises(SelfCheckError, match=r"^trial 7: fidelity 0\.5 below bound 0\.9$"):
            records_to_csv(table)

    @pytest.mark.parametrize("min_eig", [1 / 2, 1 / 3, 1 / 4, 1 / 6, 1e-6])
    def test_tolerance_grows_with_conditioning_by_rounding_only(self, min_eig):
        # 1e-9 plus 4·u/min_eig: a loss of 2·u/min_eig more than 1e-9 passes, 1e-6 does not
        u = 2.0**-53
        records_to_csv(_rows(min_eig_rho=min_eig, fidelity=1.0 - (1e-9 + 2 * u / min_eig), bound_value=1.0))
        with pytest.raises(SelfCheckError, match="fidelity 0.999999 below bound 1.0"):
            records_to_csv(_rows(min_eig_rho=min_eig, fidelity=1.0 - 1e-6, bound_value=1.0))

    def test_columns_are_read_only_copies(self):
        columns = [np.array([x]) for x in (3, 0.25, 0.02, 1e-17, 0.1, -1.5e-300, 0.96, 0.9)]
        table = TrialTable(*columns)
        for column in columns:  # the caller's arrays stay writable, and the table keeps its copies
            column[0] = 0
        assert records_to_csv(table) == records_to_csv(_rows())
        for name in CSV_COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            run_roundtrip(small_config(trials=2)).fidelity[:] = 0.0

    @pytest.mark.parametrize(
        "columns, name, shape",
        [
            (([0, 1], [0.5]) + ([0.0, 0.0],) * 6, "min_eig_rho", "(1,)"),
            ((0, 0.5) + (0.0,) * 6, "trial_index", "()"),
            (([0, 1], [0.5, 0.5]) + ([0.0, 0.0],) * 5 + ([[0.0], [0.0]],), "bound_value", "(2, 1)"),
        ],
        ids=["ragged", "0-d", "2-d"],
    )
    def test_columns_must_be_1d_and_of_one_length(self, columns, name, shape):
        with pytest.raises(ValueError, match=rf"^column {name} has shape {re.escape(shape)}; each column must be 1-D"):
            TrialTable(*columns)

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, float("nan")], ids=["-0", "subnormal", "1e308", "nan"])
    def test_rows_equal_the_per_value_format(self, value):
        def per_value(table):
            return ",".join(
                [str(int(table.trial_index[0]))] + [format(float(getattr(table, c)[0]), ".17g") for c in CSV_COLUMNS[1:]]
            )

        for column in CSV_COLUMNS[1:]:
            table = _rows(2, **{column: value})
            # far outside the tolerance, a row fails where its fidelity drops below
            # its bound, or where a NaN makes the comparison false
            if not (table.fidelity[0] >= table.bound_value[0] and not np.isnan(table.min_eig_rho[0])):
                with pytest.raises(SelfCheckError):
                    records_to_csv(table)
                continue
            assert records_to_csv(table).splitlines()[1:] == [per_value(table)] * 2

    @pytest.mark.parametrize("fidelity, bound", [(float("nan"), 0.9), (0.95, float("nan"))], ids=["fidelity", "bound"])
    def test_nan_aborts(self, fidelity, bound):
        with pytest.raises(SelfCheckError):
            records_to_csv(_rows(min_eig_rho=0.5, fidelity=fidelity, bound_value=bound))


class TestConfig:
    @pytest.mark.parametrize(
        "ref_json, noise_json, ref_spec, noise",
        [
            ({"spectrum": [0.3, 0.7]}, {"hermitian_jitter": 0.02}, RefSpec("spectrum", (0.3, 0.7)),
             NoiseSpec("hermitian_jitter", 0.02)),
            ({"random_min_eig": 0.1}, {"depolarize": 0.5}, RefSpec("random_min_eig", min_eig=0.1),
             NoiseSpec("depolarize", 0.5)),
            ("maximally_mixed", "none", RefSpec("maximally_mixed"), NoiseSpec("none")),
        ],
        ids=["spectrum-jitter", "random-depolarize", "mixed-none"],
    )
    def test_json_literals_load_as_the_configs_they_name(self, ref_json, noise_json, ref_spec, noise):
        obj = {"d1": 2, "d2": 2, "kraus_rank": 2, "ref_spec": ref_json, "noise": noise_json, "trials": 4, "seed": 11}
        assert config_from_json(obj) == small_config(ref_spec=ref_spec, noise=noise)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(kraus_rank=9)
        with pytest.raises(ValueError):
            RefSpec(kind="spectrum", spectrum=(0.5, 0.6))
        with pytest.raises(ValueError):
            RefSpec(kind="spectrum", spectrum=(-0.2, 1.2))
        with pytest.raises(ValueError):
            small_config(ref_spec=RefSpec(kind="random_min_eig", min_eig=0.9))
        with pytest.raises(ValueError):
            config_from_json({"d1": 2, "d2": 2})

    def test_infeasible_rank_rejected_up_front(self):
        with pytest.raises(ValueError, match="d2 \\* kraus_rank >= d1"):
            small_config(d1=3, d2=1, kraus_rank=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            small_config(seed=-1)

    def test_seed_range_leaves_room_for_the_trial_index(self):
        # trial i draws with seed + i·2^64, inside the 128-bit Philox key
        cfg = small_config(seed=2**64 - 1, trials=2)
        assert records_to_csv(run_roundtrip(cfg)) == records_to_csv(roundtrip_loop_oracle(cfg))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            small_config(seed=2**64)

    @pytest.mark.parametrize(
        "ref_spec",
        [{"random_min_eig": float("nan")}, {"spectrum": [float("nan")] * 2}, {"spectrum": [0.5, 0.5 + 5e-10]}],
        ids=["nan-floor", "nan-spectrum", "sum-off-by-5e-10"],
    )
    def test_ref_spec_rejected_at_entry(self, ref_spec):
        # the stages build the references from these values without checking them again
        with pytest.raises(ValueError):
            config_from_json({"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 1, "ref_spec": ref_spec})

    def test_ref_spec_length_checked(self):
        with pytest.raises(ValueError):
            small_config(ref_spec=RefSpec(kind="spectrum", spectrum=(0.2, 0.3, 0.5)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RefSpec(kind="spectrum", spectrum=()), "spectrum ref_spec requires eigenvalues"),
        (lambda: RefSpec(kind="uniform"), "unknown ref_spec kind 'uniform'"),
        (lambda: small_config(d1=0), "dimensions must be positive"),
        (lambda: small_config(kraus_rank=5), "kraus_rank must be in [1, 4], got 5"),
        (lambda: small_config(d1=3, d2=1, kraus_rank=1),
         "need d2 * kraus_rank >= d1 for a channel, got d1=3, d2=1, kraus_rank=1"),
        (lambda: small_config(trials=0), "trials must be positive"),
        (lambda: NoiseSpec(kind="none", eps=0.3), "noise kind 'none' takes no strength, got 0.3"),
        (lambda: harness.ref_spec_from_json(42), "malformed ref_spec 42"),
        (lambda: harness.noise_from_json([0.1]), "malformed noise spec [0.1]"),
    ],
    ids=["empty-spectrum", "ref-kind", "dims", "rank-range", "rank-isometry", "trials", "none-strength",
         "ref-json", "noise-json"],
)
def test_config_refusals_are_one_value_error_line(call, message):
    # the config's map shape is channel's rule, the one random_channel applies
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message


def test_noise_none_at_strength_zero_is_no_noise():
    assert config_from_json({"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 1, "noise": {"none": 0}}).noise == NoiseSpec()
