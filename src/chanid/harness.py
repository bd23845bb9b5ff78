"""Batch experiment drivers: noise-robustness round-trips and spectrum sweeps.

Every run is deterministic in (config, seed) by the package's one draw
rule, ``linalg._draw``.  Trial i of a run with seed s resets Philox(key =
s + i·2^64) once, at the channel site, and draws from that stream, in order,
its channel's normals (the channel is ``random_channel(d1, d2, kraus_rank,
s + i·2^64)``), then, for a ``random_min_eig`` reference, the eigenbasis
normals and the d1 exponentials of its Dirichlet spectrum.  Jitter noise
resets once more, at the noise site: it is ``apply_noise(w, noise, s +
i·2^64)``.  A sweep draws its channel and noise with seed s.  Emitted rows
are self-checked against the analytic fidelity bound; a violation is
treated as a numerical failure, never silently written.

Trials run as stacked arrays, in chunks of at most ``CHUNK_ENTRIES``
complex entries per stacked matrix stage (1024 trials at d1 = d2 = 2, 12 at
d1 = d2 = 6), so memory stays bounded whatever the trial count.  Each
stage (draw, probe, noise, reconstruction, fidelity) runs once per chunk
through the same private cores that ``random_channel``, ``forward_map``,
``apply_noise``, ``reconstruct`` and ``channel_fidelity`` run for one trial.
Stacked LAPACK calls, stacked matrix products and elementwise array
arithmetic give the bits of single calls, so the CSV bytes equal those of
evaluating the trials one at a time with the public functions, and do not
depend on the chunking.  No Choi matrix is formed: the probe output is
w = G G† with G = (1 ⊗ X) K, K the drawn Kraus vectors; one ``eigh`` of each
w gives the recovered factor F_rec; the fidelity is (||F_rec† K||_1 / d1)²;
and each norm of a Hermitian matrix is read from its eigenvalues.

Values are checked where they enter: :class:`RefSpec`, :class:`NoiseSpec`,
:class:`ExperimentConfig` and the sweep grid.  The states the stages build
from them (references, probe outputs, disturbed outputs) are Hermitian and
of unit trace by construction and PSD up to rounding, and are not checked
again as density operators: the probe checks only its outputs' traces,
and the reconstruction, as for any input, checks the trace and the PSD
tolerance of w from its eigenvalues and clips what rounding left below 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .channel import _kraus_factors, _random_factors
from .identify import _probe_outputs, _reconstruct_stack, _reference_arrays
from .linalg import CHANNEL_SITE, NOISE_SITE, TRACE_TOL, DensityOperator, _adjoint, _clip_spectra, _draw, _haar
from .linalg import _hermitian_norms, _seed, hermitian_part
from .metrics import _channel_fidelities, _fidelity_lower_bounds
from .serialize import _json_float, _json_floats, _json_int

# Complex entries per stacked matrix stage: a chunk holds
# CHUNK_ENTRIES // (d1 * d2)**2 trials (at least one).  Each chunk costs a
# fixed amount of Python and each entry memory; at 16384 entries (256 KiB a
# stage) the per-chunk cost is small up to d1 = d2 = 6.
CHUNK_ENTRIES = 16384


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
        object.__setattr__(self, "seed", operator.index(self.seed))  # the trials' draws take it unchecked
        if not 0 <= self.seed < 2**64:  # trial i draws with seed + i·2^64
            raise ValueError(f"seed must be non-negative and below 2**64, got {self.seed}")
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


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))
# One CSV row: the trial index, then each float as format(value, ".17g") writes it.
_CSV_ROW = "%d" + ",%.17g" * (len(CSV_COLUMNS) - 1) + "\n"
_csv_fields = operator.attrgetter(*CSV_COLUMNS)


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
        return RefSpec(kind="spectrum", spectrum=tuple(_json_floats(obj["spectrum"], "spectrum")))
    if isinstance(obj, dict) and "random_min_eig" in obj:
        return RefSpec(kind="random_min_eig", min_eig=_json_float(obj["random_min_eig"], "random_min_eig"))
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
        return NoiseSpec(kind=kind, eps=_json_float(eps, "noise strength"))
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
            d1=_json_int(obj["d1"], "d1"),
            d2=_json_int(obj["d2"], "d2"),
            kraus_rank=_json_int(obj["kraus_rank"], "kraus_rank"),
            ref_spec=ref_spec_from_json(obj.get("ref_spec", "maximally_mixed")),
            noise=noise_from_json(obj.get("noise", "none")),
            trials=_json_int(obj["trials"], "trials"),
            seed=_json_int(obj.get("seed", 0), "seed"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed experiment config: {exc}") from exc


def apply_noise(w: DensityOperator, model: NoiseSpec, seed: int) -> DensityOperator:
    """Disturb a probe output; every model checks ``seed`` as the draw rule does.

    depolarize mixes toward the maximally mixed state; hermitian_jitter adds
    a seeded random traceless Hermitian direction of unit operator norm,
    then clips back to the PSD cone and renormalizes.
    """
    return DensityOperator._checked(_noisy(w.mat[None], model, [_seed(seed)])[0])


def _noisy(w: np.ndarray, model: NoiseSpec, seeds) -> np.ndarray:
    """:func:`apply_noise` for a stack of states, one noise seed each."""
    if model.kind == "none" or model.eps == 0.0:
        return w
    d = w.shape[-1]
    if model.kind == "depolarize":
        return (1.0 - model.eps) * w + model.eps * np.eye(d) / d
    if d == 1:  # the only traceless Hermitian matrix is 0
        return w
    [z] = _draw(seeds, NOISE_SITE, ("standard_normal", (2, d, d)))
    h = hermitian_part(z[:, 0] + 1j * z[:, 1])
    h -= (np.trace(h, axis1=-2, axis2=-1).real / d)[:, None, None] * np.eye(d)
    disturbed = hermitian_part(w + model.eps * h / _hermitian_norms(h)[0][:, None, None])
    vals, vecs = np.linalg.eigh(disturbed)
    moved, lam = vals[:, 0] < 0.0, _clip_spectra(vals)[0]  # states with no eigenvalue below 0 stay as they are
    disturbed[moved] = hermitian_part((vecs[moved] * lam[moved][:, None, :]) @ _adjoint(vecs[moved]))
    return disturbed


def _chunks(cfg: ExperimentConfig, total: int) -> list[range]:
    size = max(1, CHUNK_ENTRIES // (cfg.d1 * cfg.d2) ** 2)
    return [range(start, min(start + size, total)) for start in range(0, total, size)]


def _flat_dirichlet(e: np.ndarray) -> np.ndarray:
    """``Generator.dirichlet(np.ones(d1))`` from the d1 standard exponentials it draws, one row of
    e each, scaled by 1 / (their sequential sum), the sum ``cumsum`` gives (``np.sum`` adds pairwise)."""
    return e * (1.0 / np.cumsum(e, axis=1)[:, -1:])


def _random_references(floor: float, z: np.ndarray, e: np.ndarray):
    """``_reference_arrays`` of a reference with spectrum floor + (1 - d1 floor) · Dirichlet
    and a Haar eigenbasis, for each trial's eigenbasis normals z and exponentials e."""
    p = floor + (1.0 - e.shape[1] * floor) * _flat_dirichlet(e)
    u = _haar(z)
    return _reference_arrays((u * p[:, None, :]) @ _adjoint(u))


def _diagonal_references(spectra: np.ndarray):
    """``_reference_arrays`` of the reference diag(p) for each row p of spectra."""
    n, d1 = spectra.shape
    rho = np.zeros((n, d1, d1), dtype=complex)
    rho[:, np.arange(d1), np.arange(d1)] = spectra
    return _reference_arrays(rho)


def _trial_records(cfg: ExperimentConfig, indices: range, factor, refs, noise_seeds) -> list[TrialRecord]:
    """Probe, perturb, reconstruct and score a chunk of trials, one stacked stage at a time.

    ``factor`` holds the true channels' Choi factors, as :func:`_kraus_factors`
    gives them, and ``refs`` the references' ``(spectrum, min_eig, x, x_inv)``
    from ``_reference_arrays``; either may be a stack of one shared by every
    trial.  The fidelity is scored from the true and the recovered factors,
    with one SVD of a (d1·d2) × rank matrix per trial.
    """
    _, min_eig, x, x_inv = refs
    w = _probe_outputs(factor, x)
    noisy = _noisy(w, cfg.noise, noise_seeds)
    factor_rec, tp_residual, consistency, _ = _reconstruct_stack(noisy, x_inv)
    trace_dist = _hermitian_norms(noisy - w)[1]
    fidelity = _channel_fidelities(factor_rec, factor, cfg.d1)
    eps = cfg.noise.eps if cfg.noise.kind != "none" else 0.0
    columns = zip(
        indices,
        np.broadcast_to(min_eig, trace_dist.shape).tolist(),
        [eps] * len(trace_dist),
        trace_dist.tolist(),
        consistency.tolist(),
        tp_residual.tolist(),
        fidelity.tolist(),
        _fidelity_lower_bounds(trace_dist, 1.0 / min_eig, cfg.d1),
    )
    return [TrialRecord(*row) for row in columns]


def run_roundtrip(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Per trial: draw a channel and reference, probe, perturb, reconstruct."""
    spec = cfg.ref_spec
    spectrum = {"maximally_mixed": (1.0 / cfg.d1,) * cfg.d1, "spectrum": spec.spectrum}.get(spec.kind)
    fixed = None if spectrum is None else _diagonal_references(np.array([spectrum]))
    channel_fill = ("standard_normal", (cfg.d1, 2, cfg.d2 * cfg.kraus_rank))  # random_channel's first draw
    ref_fills = () if fixed else (("standard_normal", (cfg.d1, 2, cfg.d1)), ("standard_exponential", (cfg.d1,)))
    records = []
    for chunk in _chunks(cfg, cfg.trials):
        seeds = [cfg.seed + (i << 64) for i in chunk]
        z, *ref_draws = _draw(seeds, CHANNEL_SITE, channel_fill, *ref_fills)
        refs = fixed or _random_references(spec.min_eig, *ref_draws)
        records += _trial_records(cfg, chunk, _kraus_factors(z, cfg.d2, cfg.kraus_rank), refs, seeds)
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
    factor = _random_factors(cfg.d1, cfg.d2, cfg.kraus_rank, [cfg.seed])
    m = np.array(min_eig_grid, dtype=float)[:, None]
    spectra = np.ones_like(m) if cfg.d1 == 1 else np.hstack([m] + [(1.0 - m) / (cfg.d1 - 1)] * (cfg.d1 - 1))
    records = []
    for chunk in _chunks(cfg, len(spectra)):
        refs = _diagonal_references(spectra[chunk.start : chunk.stop])
        records += _trial_records(cfg, chunk, factor, refs, [cfg.seed] * len(chunk))
    ordered = sorted(records, key=lambda r: -r.min_eig_rho)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.bound_value > prev.bound_value + 1e-9:
            raise SelfCheckError(
                f"bound increased from {prev.bound_value} to {nxt.bound_value} "
                f"as min eigenvalue decreased {prev.min_eig_rho} -> {nxt.min_eig_rho}"
            )
    return records


def records_to_csv(records: list[TrialRecord]) -> str:
    """Fixed-header CSV with floats at 17 significant digits.

    Every row is checked against the analytic bound before being emitted.
    """
    values = []
    for r in records:
        if not r.fidelity >= r.bound_value - 1e-9:
            raise SelfCheckError(
                f"trial {r.trial_index}: fidelity {r.fidelity} below bound {r.bound_value}"
            )
        values += _csv_fields(r)
    return ",".join(CSV_COLUMNS) + "\n" + _CSV_ROW * len(records) % tuple(values)


def write_records_csv(records: list[TrialRecord], path) -> None:
    text = records_to_csv(records)
    with open(path, "w", newline="") as fh:
        fh.write(text)
