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
    TrialRecord,
    apply_noise,
    config_from_json,
    config_to_json,
    records_to_csv,
    run_roundtrip,
    run_spectrum_sweep,
    write_records_csv,
)
from chanid.identify import forward_map, make_reference
from chanid.linalg import DensityOperator, maximally_mixed

from conftest import draw_rule_generator, rand_density_mat, roundtrip_loop_oracle, sweep_loop_oracle


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
        records = run_roundtrip(small_config(trials=6))
        assert len(records) == 6
        for r in records:
            assert r.fidelity >= 1.0 - 1e-8
            assert r.consistency_residual <= 1e-8
            assert r.tp_residual <= 1e-8
            assert r.trace_dist_w <= 1e-12
            assert r.bound_value == pytest.approx(1.0, abs=1e-9)

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
        for r in run_roundtrip(cfg):
            assert r.bound_value == max(0.0, 1.0 - r.trace_dist_w / 2) ** 2
            assert r.fidelity >= r.bound_value - 1e-9

    def test_spectrum_ref_spec(self):
        cfg = small_config(ref_spec=RefSpec(kind="spectrum", spectrum=(0.2, 0.8)))
        for r in run_roundtrip(cfg):
            assert r.min_eig_rho == pytest.approx(0.2, abs=1e-12)

    def test_random_min_eig_respects_floor(self):
        cfg = small_config(ref_spec=RefSpec(kind="random_min_eig", min_eig=0.15), trials=8)
        for r in run_roundtrip(cfg):
            assert r.min_eig_rho >= 0.15 - 1e-9

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
        records = run_roundtrip(ExperimentConfig(d, d, d * d, spec, NoiseSpec("none"), 20, seed=5025))
        assert max(abs(1.0 - r.fidelity) * r.min_eig_rho for r in records) <= 2e-15


class TestRunSpectrumSweep:
    def test_grid_ordering_and_monotonicity(self):
        cfg = small_config(noise=NoiseSpec(kind="depolarize", eps=0.05), trials=1, seed=3)
        grid = [0.5, 0.25, 0.1, 0.05, 0.01]
        records = run_spectrum_sweep(cfg, grid)
        assert len(records) == 5
        inv_norms = [1.0 / r.min_eig_rho for r in records]
        assert all(b > a for a, b in zip(inv_norms, inv_norms[1:]))
        bounds = [r.bound_value for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(bounds, bounds[1:]))

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
        records = run_spectrum_sweep(cfg, [0.5, 0.4])
        assert records[0].noise_eps == records[1].noise_eps == 0.02


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


def _csv_lines(records):
    """The CSV's lines with their newlines: they join back to the text, and
    pytest reports a mismatch in a list of lines at once where its diff of two
    long strings can run for minutes."""
    return records_to_csv(records).splitlines(keepends=True)


def _per_chunk(d):
    """Trials in one of the harness's chunks at d1 = d2 = d."""
    return harness.CHUNK_ENTRIES // (d * d) ** 2


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


class TestStackedProductsKeepTheBitsOfSingleCalls:
    """The byte equality above rests on this: a stacked ``_lift`` or ``_gram``
    gives each item the bits of the single call (with single-threaded BLAS),
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
        u = identify._lift(x_inv, np.linalg.eigh(w)[1])  # the reconstruction's lift
        for i in range(n):
            own = random_channel(d, d, rank, seed=seeds[i])._factor  # the layout a single call reads
            assert np.array_equal(own, factor[i])
            for f in (factor[i], own):
                assert np.array_equal(lifted[i], identify._lift(x[i], f))
            assert np.array_equal(shared[i], identify._lift(x[i], factor[0]))
            assert np.array_equal(w[i], linalg._gram(lifted[i]))
            assert np.array_equal(w[i], linalg._gram(identify._lift(x[i], own)))
            assert np.array_equal(u[i], identify._lift(x_inv[i], np.linalg.eigh(w[i])[1]))


class TestSpectrumDraw:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_stacked_draw_equals_generator_dirichlet(self, d):
        seeds = [s + (i << 64) for i, s in enumerate(range(40 * d, 40 * d + 120))]
        expected = [draw_rule_generator(s, linalg.CHANNEL_SITE).dirichlet(np.ones(d)) for s in seeds]
        [e] = linalg._draw(seeds, linalg.CHANNEL_SITE, ("standard_exponential", (d,)))
        assert harness._flat_dirichlet(e).tobytes() == np.array(expected).tobytes()


class TestLapackCallsPerTrial:
    """The probe and the noise build states without decomposing them: each
    noisy probe output gets one eigh, by the reconstruction, whether or not
    it has an eigenvalue below 0 to clip, and no eigvalsh; its trace
    distance to the noiseless output is one eigvalsh.  No other state-sized
    matrix, in particular no congruence output C, is decomposed, and none
    gets an SVD.  The fidelity stage makes one SVD of a (d1·d2) × rank
    matrix per trial and no eigendecomposition."""

    # depolarized outputs never clip; noiseless rank-3 outputs at d1 = d2 = 3
    # have six rounding-level eigenvalues, some below 0 in every trial
    @pytest.mark.parametrize(
        "noise, clips", [(NoiseSpec("depolarize", 0.02), False), (NoiseSpec("none"), True)], ids=["depolarize", "none"]
    )
    def test_eigh_of_w_and_eigvalsh_of_disturbance(self, monkeypatch, noise, clips):
        d, trials = 3, 5
        cfg = ExperimentConfig(d, d, d, RefSpec("random_min_eig", min_eig=0.05 / d), noise, trials, seed=5)
        states, calls = [], []
        for name in ("_probe_outputs", "_noisy"):
            stage = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, stage=stage: states.append(stage(*a)) or states[-1])
        scoring = []
        score = harness._channel_fidelities
        monkeypatch.setattr(harness, "_channel_fidelities", lambda *a: scoring.append(len(calls)) or score(*a))
        for routine in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, routine)
            spy = lambda m, *a, real=real, routine=routine, **k: calls.append((routine, np.copy(m))) or real(m, *a, **k)
            monkeypatch.setattr(np.linalg, routine, spy)
        run_roundtrip(cfg)
        monkeypatch.undo()
        probe, noisy = states  # one chunk holds every trial
        n = d * d

        def square(routine):
            stacks = [m for r, m in calls if r == routine and m.shape[-2:] == (n, n)]
            return [m for stack in stacks for m in stack.reshape(-1, n, n)]

        for w, w_noisy in zip(probe, noisy):
            assert sum(np.array_equal(m, w_noisy) for m in square("eigh")) == 1
            assert not any(np.array_equal(m, w_noisy) for m in square("eigvalsh"))
            assert (np.linalg.eigvalsh(w_noisy)[0] < 0.0) == clips
            assert any(np.array_equal(m, w_noisy - w) for m in square("eigvalsh"))
            if noise.kind != "none":
                assert not any(np.array_equal(m, w) for m in square("eigh") + square("eigvalsh"))
        assert len(square("eigh")) == len(square("eigvalsh")) == trials and not square("svd")
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


class TestCsvOutput:
    def test_header_and_formatting(self, tmp_path):
        records = run_roundtrip(small_config(trials=2))
        path = tmp_path / "out.csv"
        write_records_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        # floats carry 17 significant digits
        assert float(first[7]) == records[0].bound_value

    def test_bound_violation_aborts(self):
        bad = TrialRecord(
            trial_index=0,
            min_eig_rho=0.5,
            noise_eps=0.0,
            trace_dist_w=0.0,
            consistency_residual=0.0,
            tp_residual=0.0,
            fidelity=0.5,
            bound_value=0.9,
        )
        with pytest.raises(SelfCheckError):
            records_to_csv([bad])

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, float("nan")], ids=["-0", "subnormal", "1e308", "nan"])
    def test_rows_equal_the_per_value_format(self, value):
        def per_value(r):
            return ",".join([str(int(r.trial_index))] + [format(float(getattr(r, c)), ".17g") for c in CSV_COLUMNS[1:]])

        for column in CSV_COLUMNS[1:]:
            fields = dict(zip(CSV_COLUMNS, (3, 0.25, 0.02, 1e-17, 0.1, -1.5e-300, 0.96, 0.9)), **{column: value})
            record = TrialRecord(**fields)
            if not record.fidelity >= record.bound_value - 1e-9:  # a NaN fidelity or bound
                with pytest.raises(SelfCheckError):
                    records_to_csv([record])
                continue
            assert records_to_csv([record, record]).splitlines()[1:] == [per_value(record)] * 2

    @pytest.mark.parametrize("fidelity, bound", [(float("nan"), 0.9), (0.95, float("nan"))], ids=["fidelity", "bound"])
    def test_nan_aborts(self, fidelity, bound):
        with pytest.raises(SelfCheckError):
            records_to_csv([TrialRecord(0, 0.5, 0.0, 0.0, 0.0, 0.0, fidelity, bound)])


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config(
            ref_spec=RefSpec(kind="spectrum", spectrum=(0.3, 0.7)),
            noise=NoiseSpec(kind="hermitian_jitter", eps=0.02),
        )
        assert config_from_json(config_to_json(cfg)) == cfg

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
