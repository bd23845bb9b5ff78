import tracemalloc
import warnings

import numpy as np
import pytest

import chanid.harness as harness
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
from chanid.linalg import DensityOperator, maximally_mixed, trace_norm

from conftest import rand_density_mat, roundtrip_loop_oracle, sweep_loop_oracle


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
        assert trace_norm(out.mat - w.mat) <= 2 * eps + 1e-9

    def test_jitter_output_is_state_and_deterministic(self):
        ref = make_reference(maximally_mixed(2))
        w = forward_map(random_channel(2, 2, 2, seed=3), ref)
        spec = NoiseSpec(kind="hermitian_jitter", eps=0.05)
        a = apply_noise(w, spec, seed=7)
        b = apply_noise(w, spec, seed=7)
        assert np.array_equal(a.mat, b.mat)
        assert np.linalg.eigvalsh(a.mat)[0] >= -1e-12
        assert np.trace(a.mat).real == pytest.approx(1.0, abs=1e-10)
        assert trace_norm(a.mat - w.mat) > 0

    def test_jitter_on_one_dimensional_state_is_identity(self):
        # the only traceless Hermitian matrix on a 1-dimensional space is 0
        w = forward_map(random_channel(1, 1, 1, seed=3), make_reference(maximally_mixed(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_noise(w, NoiseSpec(kind="hermitian_jitter", eps=0.01), seed=7)
        assert np.array_equal(out.mat, w.mat)

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


class TestStackedTrialsMatchTheLoop:
    """Stacked chunks give the bytes of evaluating each trial alone."""

    @pytest.mark.parametrize("d1", DIMS)
    @pytest.mark.parametrize("d2", DIMS)
    def test_roundtrip_csv_bytes(self, d1, d2):
        for noise in NOISES:
            for ref_spec in _refs(d1):
                cfg = ExperimentConfig(d1, d2, _rank(d1, d2), ref_spec, noise, trials=4, seed=d1 + 7 * d2)
                assert records_to_csv(run_roundtrip(cfg)) == records_to_csv(roundtrip_loop_oracle(cfg))

    @pytest.mark.parametrize("d1", DIMS)
    @pytest.mark.parametrize("d2", DIMS)
    def test_sweep_csv_bytes(self, d1, d2):
        grid = [float(x) for x in np.geomspace(1.0 / d1, 1e-7, 5)]
        for noise in NOISES:
            cfg = ExperimentConfig(d1, d2, _rank(d1, d2), _refs(d1)[0], noise, trials=1, seed=3 * d1 + d2)
            expected = records_to_csv(sweep_loop_oracle(cfg, grid))
            assert records_to_csv(run_spectrum_sweep(cfg, grid)) == expected

    @pytest.mark.parametrize("noise", NOISES)
    def test_trials_spanning_several_chunks(self, noise):
        # 3 trials per chunk at d1 = d2 = 6, 256 at d1 = d2 = 2
        for d, trials in ((6, 10), (2, 300)):
            cfg = ExperimentConfig(d, d, d, _refs(d)[2], noise, trials=trials, seed=17)
            assert records_to_csv(run_roundtrip(cfg)) == records_to_csv(roundtrip_loop_oracle(cfg))
        cfg = ExperimentConfig(6, 6, 6, _refs(6)[0], noise, trials=1, seed=19)
        grid = [float(x) for x in np.geomspace(1.0 / 6, 1e-8, 8)]
        assert records_to_csv(run_spectrum_sweep(cfg, grid)) == records_to_csv(sweep_loop_oracle(cfg, grid))

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


class TestLapackCallsPerTrial:
    """The probe and the noise build states without decomposing them: each
    noisy probe output is decomposed once, by the reconstruction."""

    def test_one_eigh_of_w_and_one_state_sized_svd(self, monkeypatch):
        d, trials = 3, 5
        cfg = ExperimentConfig(
            d, d, d, RefSpec("random_min_eig", min_eig=0.05 / d), NoiseSpec("depolarize", 0.02), trials, seed=5
        )
        states, decomposed, svd_shapes = [], [], []
        for name in ("_probe_outputs", "_noisy"):
            stage = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, stage=stage: states.append(stage(*a)) or states[-1])
        eigh, svd = np.linalg.eigh, np.linalg.svd
        monkeypatch.setattr(np.linalg, "eigh", lambda m, *a, **k: decomposed.append(np.copy(m)) or eigh(m, *a, **k))
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: svd_shapes.append(np.shape(m)) or svd(m, *a, **k))
        run_roundtrip(cfg)
        probe, noisy = states  # one chunk holds every trial
        n = d * d
        square = [m for stack in decomposed if stack.shape[-2:] == (n, n) for m in stack.reshape(-1, n, n)]
        for w, w_noisy in zip(probe, noisy):
            assert sum(np.array_equal(m, w_noisy) for m in square) == 1
            assert not any(np.array_equal(m, w) for m in square)
        assert sum(int(np.prod(s[:-2])) for s in svd_shapes if s[-2:] == (n, n)) == trials


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
