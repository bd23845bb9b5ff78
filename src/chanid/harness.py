"""Batch experiment drivers: noise-robustness round-trips and spectrum sweeps.

Every run is deterministic in (config, seed): per-trial seeds are derived
as ``master_seed * 1_000_003 + trial_index`` and all randomness flows from
them.  Emitted rows are self-checked against the analytic fidelity bound;
a violation is treated as a numerical failure, never silently written.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel, random_channel
from .identify import ReferenceState, forward_map, make_reference, reconstruct
from .linalg import (
    DensityOperator,
    clip_to_density,
    hermitian_part,
    operator_norm,
    random_unitary,
    trace_norm,
)
from .metrics import channel_fidelity, fidelity_lower_bound

TRIAL_SEED_STRIDE = 1_000_003
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
            if any(x <= 0 for x in vals):
                raise ValueError("spectrum entries must be positive")
            if abs(sum(vals) - 1.0) > 1e-9:
                raise ValueError(f"spectrum sums to {sum(vals)}, expected 1")
            object.__setattr__(self, "spectrum", vals)
        elif self.kind == "random_min_eig":
            if self.min_eig is None or self.min_eig <= 0:
                raise ValueError("random_min_eig ref_spec requires a positive floor")
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
    d = w.dim
    if model.kind == "depolarize":
        mixed = (1.0 - model.eps) * w.mat + model.eps * np.eye(d) / d
        return DensityOperator(mixed)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = hermitian_part(h)
    h -= np.trace(h).real / d * np.eye(d)
    norm = operator_norm(h)
    if norm == 0.0:  # d = 1: the only traceless Hermitian matrix is 0
        return w
    disturbed = w.mat + model.eps * h / norm
    clipped, _ = clip_to_density(disturbed)
    return DensityOperator(clipped)


def _trial_seeds(master_seed: int, trial_index: int) -> tuple[int, int, int]:
    rng = np.random.default_rng(master_seed * TRIAL_SEED_STRIDE + trial_index)
    a, b, c = rng.integers(0, 2**62, size=3)
    return int(a), int(b), int(c)


def _build_reference(spec: RefSpec, d1: int, seed: int) -> ReferenceState:
    if spec.kind == "maximally_mixed":
        return make_reference(DensityOperator(np.eye(d1) / d1))
    if spec.kind == "spectrum":
        return make_reference(DensityOperator(np.diag(np.array(spec.spectrum, dtype=complex))))
    rng = np.random.default_rng(seed)
    floor = spec.min_eig
    p = floor + (1.0 - d1 * floor) * rng.dirichlet(np.ones(d1))
    u = random_unitary(d1, int(rng.integers(0, 2**62)))
    rho = (u * p) @ u.conj().T
    return make_reference(DensityOperator(rho))


def _run_trial(
    cfg: ExperimentConfig, trial_index: int, t: KrausChannel, ref: ReferenceState, noise_seed: int
) -> TrialRecord:
    w = forward_map(t, ref)
    w_noisy = apply_noise(w, cfg.noise, noise_seed)
    rec = reconstruct(w_noisy, ref, cfg.d2)
    tdist = trace_norm(w_noisy.mat - w.mat)
    return TrialRecord(
        trial_index=trial_index,
        min_eig_rho=ref.min_eig,
        noise_eps=cfg.noise.eps if cfg.noise.kind != "none" else 0.0,
        trace_dist_w=tdist,
        consistency_residual=rec.consistency_residual,
        tp_residual=rec.tp_residual,
        fidelity=channel_fidelity(rec.cp_map, t),
        bound_value=fidelity_lower_bound(tdist, 1.0 / ref.min_eig, cfg.d1),
    )


def run_roundtrip(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Per trial: draw a channel and reference, probe, perturb, reconstruct."""
    records = []
    for i in range(cfg.trials):
        chan_seed, ref_seed, noise_seed = _trial_seeds(cfg.seed, i)
        t = random_channel(cfg.d1, cfg.d2, cfg.kraus_rank, chan_seed)
        ref = _build_reference(cfg.ref_spec, cfg.d1, ref_seed)
        records.append(_run_trial(cfg, i, t, ref, noise_seed))
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
    t = random_channel(cfg.d1, cfg.d2, cfg.kraus_rank, chan_seed)
    records = []
    for i, m in enumerate(min_eig_grid):
        if cfg.d1 == 1:
            spectrum = (1.0,)
        else:
            spectrum = (m,) + ((1.0 - m) / (cfg.d1 - 1),) * (cfg.d1 - 1)
        ref = _build_reference(RefSpec(kind="spectrum", spectrum=spectrum), cfg.d1, 0)
        records.append(_run_trial(cfg, i, t, ref, noise_seed))
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
        if r.fidelity < r.bound_value - 1e-9:
            raise SelfCheckError(
                f"trial {r.trial_index}: fidelity {r.fidelity} below bound {r.bound_value}"
            )
        buf.write(",".join(_format_value(c, getattr(r, c)) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def write_records_csv(records: list[TrialRecord], path) -> None:
    text = records_to_csv(records)
    with open(path, "w", newline="") as fh:
        fh.write(text)
