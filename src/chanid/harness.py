"""Batch experiment drivers: noise-robustness round-trips and spectrum sweeps.

Every run is deterministic in (config, seed): per-trial seeds are derived
as ``master_seed * 1_000_003 + trial_index`` and all randomness flows from
them.  Emitted rows are self-checked against the analytic fidelity bound;
a violation is treated as a numerical failure, never silently written.

Trials run as stacked arrays, in chunks of at most ``CHUNK_ENTRIES``
complex entries per stacked matrix stage (256 trials at d1 = d2 = 2, 3 at
d1 = d2 = 6), so memory stays bounded whatever the trial count.  Each
stage (channel draw, probe, noise, reconstruction, fidelity) runs once per
chunk through the same private cores that ``random_channel``,
``forward_map``, ``apply_noise``, ``reconstruct`` and ``channel_fidelity``
run for one trial.  Stacked LAPACK calls and elementwise arithmetic give
the bits of single calls, so the CSV bytes equal those of evaluating the
trials one at a time with the public functions.

Values are checked where they enter: :class:`RefSpec`, :class:`NoiseSpec`,
:class:`ExperimentConfig` and the sweep grid.  The states the stages build
from them (references, probe outputs, disturbed outputs) are Hermitian and
of unit trace by construction and PSD up to rounding, and are not checked
again as density operators: the probe checks only its outputs' traces,
and the reconstruction, as for any input, checks the trace and the PSD
tolerance of w from its one eigendecomposition and clips what rounding
left below 0.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .channel import _choi_of_rows, _random_kraus
from .identify import _probe_outputs, _reconstruct_stack, _reference_arrays
from .linalg import TRACE_TOL, DensityOperator, _clip_eigenpairs, _random_unitaries, hermitian_part
from .metrics import _channel_fidelities, fidelity_lower_bound

TRIAL_SEED_STRIDE = 1_000_003
# Complex entries per stacked matrix stage: a chunk holds
# CHUNK_ENTRIES // (d1 * d2)**2 trials (at least one).
CHUNK_ENTRIES = 4096
CSV_COLUMNS = (
    "trial_index",
    "min_eig_rho",
    "noise_eps",
    "trace_dist_w",
    "consistency_residual",
    "tp_residual",
    "fidelity",
    "bound_value",
)


class SelfCheckError(RuntimeError):
    """An emitted record failed one of the harness's runtime guarantees."""


@dataclass(frozen=True)
class NoiseSpec:
    """Probe-output disturbance model; both models are artifact choices."""

    kind: str = "none"  # none | depolarize | hermitian_jitter
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "depolarize", "hermitian_jitter"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"noise strength must be in [0, 1], got {self.eps}")


@dataclass(frozen=True)
class RefSpec:
    """How the reference state is chosen for each trial."""

    kind: str = "maximally_mixed"  # maximally_mixed | spectrum | random_min_eig
    spectrum: tuple[float, ...] | None = None
    min_eig: float | None = None

    def __post_init__(self):
        if self.kind == "spectrum":
            if not self.spectrum:
                raise ValueError("spectrum ref_spec requires eigenvalues")
            vals = tuple(float(x) for x in self.spectrum)
            if not all(math.isfinite(x) and x > 0 for x in vals):
                raise ValueError("spectrum entries must be finite and positive")
            if abs(sum(vals) - 1.0) > TRACE_TOL:
                raise ValueError(f"spectrum sums to {sum(vals)}, expected 1 within {TRACE_TOL}")
            object.__setattr__(self, "spectrum", vals)
        elif self.kind == "random_min_eig":
            if self.min_eig is None or not (math.isfinite(self.min_eig) and self.min_eig > 0):
                raise ValueError("random_min_eig ref_spec requires a finite positive floor")
        elif self.kind != "maximally_mixed":
            raise ValueError(f"unknown ref_spec kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    d1: int
    d2: int
    kraus_rank: int
    ref_spec: RefSpec
    noise: NoiseSpec
    trials: int
    seed: int

    def __post_init__(self):
        if min(self.d1, self.d2, self.trials) < 1:
            raise ValueError("d1, d2 and trials must be positive")
        if not 1 <= self.kraus_rank <= self.d1 * self.d2:
            raise ValueError(f"kraus_rank must be in [1, {self.d1 * self.d2}]")
        if self.d2 * self.kraus_rank < self.d1:
            raise ValueError(f"need d2 * kraus_rank >= d1 = {self.d1} for a channel")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.ref_spec.kind == "spectrum" and len(self.ref_spec.spectrum) != self.d1:
            raise ValueError(f"spectrum has {len(self.ref_spec.spectrum)} entries, expected {self.d1}")
        if self.ref_spec.kind == "random_min_eig" and self.ref_spec.min_eig > 1.0 / self.d1:
            raise ValueError(f"min_eig floor {self.ref_spec.min_eig} exceeds 1/d1")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    min_eig_rho: float
    noise_eps: float
    trace_dist_w: float
    consistency_residual: float
    tp_residual: float
    fidelity: float
    bound_value: float


def ref_spec_to_json(spec: RefSpec):
    if spec.kind == "maximally_mixed":
        return "maximally_mixed"
    if spec.kind == "spectrum":
        return {"spectrum": list(spec.spectrum)}
    return {"random_min_eig": spec.min_eig}


def ref_spec_from_json(obj) -> RefSpec:
    if obj == "maximally_mixed":
        return RefSpec(kind="maximally_mixed")
    if isinstance(obj, dict) and "spectrum" in obj:
        return RefSpec(kind="spectrum", spectrum=tuple(obj["spectrum"]))
    if isinstance(obj, dict) and "random_min_eig" in obj:
        return RefSpec(kind="random_min_eig", min_eig=float(obj["random_min_eig"]))
    raise ValueError(f"malformed ref_spec {obj!r}")


def noise_to_json(spec: NoiseSpec):
    if spec.kind == "none":
        return "none"
    return {spec.kind: spec.eps}


def noise_from_json(obj) -> NoiseSpec:
    if obj == "none" or obj is None:
        return NoiseSpec(kind="none")
    if isinstance(obj, dict) and len(obj) == 1:
        kind, eps = next(iter(obj.items()))
        return NoiseSpec(kind=kind, eps=float(eps))
    raise ValueError(f"malformed noise spec {obj!r}")


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "d1": cfg.d1,
        "d2": cfg.d2,
        "kraus_rank": cfg.kraus_rank,
        "ref_spec": ref_spec_to_json(cfg.ref_spec),
        "noise": noise_to_json(cfg.noise),
        "trials": cfg.trials,
        "seed": cfg.seed,
    }


def config_from_json(obj: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            d1=int(obj["d1"]),
            d2=int(obj["d2"]),
            kraus_rank=int(obj["kraus_rank"]),
            ref_spec=ref_spec_from_json(obj.get("ref_spec", "maximally_mixed")),
            noise=noise_from_json(obj.get("noise", "none")),
            trials=int(obj["trials"]),
            seed=int(obj.get("seed", 0)),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed experiment config: {exc}") from exc


def apply_noise(w: DensityOperator, model: NoiseSpec, seed: int) -> DensityOperator:
    """Disturb a probe output.

    depolarize mixes toward the maximally mixed state; hermitian_jitter adds
    a seeded random traceless Hermitian direction of unit operator norm,
    then clips back to the PSD cone and renormalizes.
    """
    if model.kind == "none" or model.eps == 0.0:
        return w
    return DensityOperator._checked(_noisy(w.mat[None], model, [seed])[0])


def _noisy(w: np.ndarray, model: NoiseSpec, seeds) -> np.ndarray:
    """:func:`apply_noise` for a stack of states, one noise seed each."""
    if model.kind == "none" or model.eps == 0.0:
        return w
    d = w.shape[-1]
    if model.kind == "depolarize":
        return (1.0 - model.eps) * w + model.eps * np.eye(d) / d
    if d == 1:  # the only traceless Hermitian matrix is 0
        return w
    gens = [np.random.default_rng(seed) for seed in seeds]
    h = hermitian_part(np.array([g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for g in gens]))
    h -= (np.trace(h, axis1=-2, axis2=-1).real / d)[:, None, None] * np.eye(d)
    norm = np.linalg.svd(h, compute_uv=False)[:, :1, None]
    disturbed = hermitian_part(w + model.eps * h / norm)
    return _clip_eigenpairs(disturbed, *np.linalg.eigh(disturbed))[0]


def _trial_seeds(master_seed: int, trial_index: int) -> tuple[int, int, int]:
    rng = np.random.default_rng(master_seed * TRIAL_SEED_STRIDE + trial_index)
    a, b, c = rng.integers(0, 2**62, size=3)
    return int(a), int(b), int(c)


def _chunks(cfg: ExperimentConfig, total: int) -> list[range]:
    size = max(1, CHUNK_ENTRIES // (cfg.d1 * cfg.d2) ** 2)
    return [range(start, min(start + size, total)) for start in range(0, total, size)]


def _random_chois(cfg: ExperimentConfig, seeds) -> np.ndarray:
    """Choi matrices of ``random_channel(d1, d2, kraus_rank, seed)`` for each seed."""
    kraus = _random_kraus(cfg.d1, cfg.d2, cfg.kraus_rank, seeds)
    return _choi_of_rows(kraus.reshape(cfg.kraus_rank, len(seeds), cfg.d2 * cfg.d1))


def _random_references(floor: float, d1: int, seeds):
    """``(min_eig, x, x_inv)`` of a reference with spectrum floor + (1 - d1 floor) · Dirichlet
    and a Haar eigenbasis, for each seed."""
    gens = [np.random.default_rng(seed) for seed in seeds]
    draws = [(g.dirichlet(np.ones(d1)), int(g.integers(0, 2**62))) for g in gens]
    p = floor + (1.0 - d1 * floor) * np.array([dirichlet for dirichlet, _ in draws])
    u = _random_unitaries(d1, [useed for _, useed in draws])
    return _reference_arrays((u * p[:, None, :]) @ u.conj().swapaxes(-1, -2))


def _diagonal_references(spectra: np.ndarray):
    """``(min_eig, x, x_inv)`` of the reference diag(p) for each row p of spectra."""
    n, d1 = spectra.shape
    rho = np.zeros((n, d1, d1), dtype=complex)
    rho[:, np.arange(d1), np.arange(d1)] = spectra
    return _reference_arrays(rho)


def _trial_records(cfg: ExperimentConfig, indices: range, c, refs, noise_seeds) -> list[TrialRecord]:
    """Probe, perturb, reconstruct and score a chunk of trials, one stacked stage at a time.

    ``c`` holds the true Choi matrices and ``refs`` the references'
    ``(min_eig, x, x_inv)``; either may be a stack of one shared by every trial.
    """
    min_eig, x, x_inv = refs
    w = _probe_outputs(c, x, cfg.d2)
    noisy = _noisy(w, cfg.noise, noise_seeds)
    _, _, c_rec, tp_residual, consistency, _ = _reconstruct_stack(noisy, x_inv, min_eig, cfg.d2)
    trace_dist = np.sum(np.linalg.svd(noisy - w, compute_uv=False), axis=-1)
    fidelity = _channel_fidelities(c_rec, c, cfg.d1)
    eps = cfg.noise.eps if cfg.noise.kind != "none" else 0.0
    columns = zip(
        indices,
        np.broadcast_to(min_eig, trace_dist.shape).tolist(),
        trace_dist.tolist(),
        consistency.tolist(),
        tp_residual.tolist(),
        fidelity.tolist(),
    )
    return [
        TrialRecord(i, m, eps, t, cons, tp, f, fidelity_lower_bound(t, 1.0 / m, cfg.d1))
        for i, m, t, cons, tp, f in columns
    ]


def run_roundtrip(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Per trial: draw a channel and reference, probe, perturb, reconstruct."""
    spec = cfg.ref_spec
    spectrum = {"maximally_mixed": (1.0 / cfg.d1,) * cfg.d1, "spectrum": spec.spectrum}.get(spec.kind)
    fixed = None if spectrum is None else _diagonal_references(np.array([spectrum]))
    records = []
    for chunk in _chunks(cfg, cfg.trials):
        chan_seeds, ref_seeds, noise_seeds = zip(*(_trial_seeds(cfg.seed, i) for i in chunk))
        refs = _random_references(spec.min_eig, cfg.d1, ref_seeds) if fixed is None else fixed
        records += _trial_records(cfg, chunk, _random_chois(cfg, chan_seeds), refs, noise_seeds)
    return records


def run_spectrum_sweep(cfg: ExperimentConfig, min_eig_grid: list[float]) -> list[TrialRecord]:
    """Reconstruction quality versus the smallest reference eigenvalue.

    One fixed channel and one fixed noise draw are reused across the grid;
    grid value m gives the reference spectrum {m, (1-m)/(d1-1), ...}.  The
    emitted bound values must be non-increasing as m decreases (sorted
    check), otherwise a :class:`SelfCheckError` is raised.
    """
    if not min_eig_grid:
        raise ValueError("min_eig_grid must be nonempty")
    for m in min_eig_grid:
        if not 0.0 < m <= 1.0 / cfg.d1:
            raise ValueError(f"grid value {m} outside (0, 1/{cfg.d1}]")
    chan_seed, _, noise_seed = _trial_seeds(cfg.seed, 0)
    c = _random_chois(cfg, [chan_seed])
    m = np.array(min_eig_grid, dtype=float)[:, None]
    spectra = np.ones_like(m) if cfg.d1 == 1 else np.hstack([m] + [(1.0 - m) / (cfg.d1 - 1)] * (cfg.d1 - 1))
    records = []
    for chunk in _chunks(cfg, len(spectra)):
        refs = _diagonal_references(spectra[chunk.start : chunk.stop])
        records += _trial_records(cfg, chunk, c, refs, [noise_seed] * len(chunk))
    ordered = sorted(records, key=lambda r: -r.min_eig_rho)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.bound_value > prev.bound_value + 1e-9:
            raise SelfCheckError(
                f"bound increased from {prev.bound_value} to {nxt.bound_value} "
                f"as min eigenvalue decreased {prev.min_eig_rho} -> {nxt.min_eig_rho}"
            )
    return records


def _format_value(name: str, value) -> str:
    if name == "trial_index":
        return str(int(value))
    return format(float(value), ".17g")


def records_to_csv(records: list[TrialRecord]) -> str:
    """Fixed-header CSV with floats at 17 significant digits.

    Every row is checked against the analytic bound before being emitted.
    """
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        if not r.fidelity >= r.bound_value - 1e-9:
            raise SelfCheckError(
                f"trial {r.trial_index}: fidelity {r.fidelity} below bound {r.bound_value}"
            )
        buf.write(",".join(_format_value(c, getattr(r, c)) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def write_records_csv(records: list[TrialRecord], path) -> None:
    text = records_to_csv(records)
    with open(path, "w", newline="") as fh:
        fh.write(text)
