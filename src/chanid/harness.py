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
w = G G† with G = (1 ⊗ X) K, K the drawn Kraus vectors.  Each noisy w is
factored by Cholesky where nothing is clipped or cut and by ``eigh``
otherwise; lifted by 1 ⊗ X⁻¹ the factor is the recovered F_rec.  One
``eigvalsh`` of each w picks its factor, trial by trial, except where the
noise model proves the answer: depolarizing by eps leaves no eigenvalue
below eps/D (:meth:`NoiseSpec._eigenvalue_floor`), and above
``identify._floor_margin`` that floor proves a chunk's outputs plain, so
they go to Cholesky without it, as the ``eigvalsh`` would send them.
The fidelity is (||F_rec† K||_1 / d1)².  Both residuals are norms of
tr_out C − 1: one d1 × d1 marginal and its ``eigvalsh`` give both where
the rank cut keeps every column, and the trials whose cut drops a column
add a second marginal, of the cut F_rec.  The noise model gives the trace
distance ||w_noisy − w||_1: 0 under none, from the r × r Gram G†G under
depolarization, and from the eigenvalues of w_noisy − w under jitter.  So
a trial depolarized above the margin takes one state-sized Cholesky factor
and no other state-sized decomposition; one below it, or without noise,
adds the deciding ``eigvalsh``, a clipped or cut w its ``eigh``, and
jitter also decomposes each disturbed state to clip it.  The chunks'
outputs are the columns of a :class:`TrialTable`; no later stage loops
per row.

Values are checked where they enter: :class:`RefSpec`, :class:`NoiseSpec`
(the one owner of the no-noise case: kind "none" takes no strength, so the
stages read ``eps`` alone), :class:`ExperimentConfig` (whose map shape is
``channel._check_map_shape``'s) and the sweep grid.  The states built from
them (references, probe outputs, disturbed outputs) are Hermitian and of
unit trace by construction and PSD up to rounding, and are not checked
again as density operators: the probe checks only its outputs' traces,
and the reconstruction, as for any input, checks the trace and the PSD
tolerance of w from its eigenvalues and clips what rounding left below 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .channel import _channel_fill, _check_map_shape, _kraus_factors, _random_factors
from .identify import _probe_outputs, _reconstruct_stack, _reference_arrays
from .linalg import CHANNEL_SITE, NOISE_SITE, TRACE_TOL, DensityOperator, _adjoint, _clip_spectra, _draw, _gram
from .linalg import _haar, _hermitian_norms, _seed, hermitian_part
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
        if self.kind == "none" and self.eps != 0.0:
            raise ValueError(f"noise kind 'none' takes no strength, got {self.eps}")

    def _eigenvalue_floor(self, dim: int) -> float:
        """A floor on every eigenvalue of a dim × dim probe output this model disturbs: eps/dim
        under depolarize, which mixes eps of the maximally mixed state in, and 0, no floor, otherwise."""
        return self.eps / dim if self.kind == "depolarize" else 0.0


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
        _check_map_shape(self.d1, self.d2, self.kraus_rank)
        if self.trials < 1:
            raise ValueError("trials must be positive")
        object.__setattr__(self, "seed", operator.index(self.seed))  # the trials' draws take it unchecked
        if not 0 <= self.seed < 2**64:  # trial i draws with seed + i·2^64
            raise ValueError(f"seed must be non-negative and below 2**64, got {self.seed}")
        if self.ref_spec.kind == "spectrum" and len(self.ref_spec.spectrum) != self.d1:
            raise ValueError(f"spectrum has {len(self.ref_spec.spectrum)} entries, expected {self.d1}")
        if self.ref_spec.kind == "random_min_eig" and self.ref_spec.min_eig > 1.0 / self.d1:
            raise ValueError(f"min_eig floor {self.ref_spec.min_eig} exceeds 1/d1")


@dataclass(frozen=True, eq=False)
class TrialTable:
    """A run's trials: one read-only 1-D array per CSV column, in CSV order, copied once."""

    trial_index: np.ndarray
    min_eig_rho: np.ndarray
    noise_eps: np.ndarray
    trace_dist_w: np.ndarray
    consistency_residual: np.ndarray
    tp_residual: np.ndarray
    fidelity: np.ndarray
    bound_value: np.ndarray

    def __post_init__(self):
        for name in CSV_COLUMNS:
            column = np.array(getattr(self, name))
            if column.ndim != 1 or len(column) != len(self.trial_index):
                raise ValueError(f"column {name} has shape {column.shape}; each column must be 1-D, all of one length")
            column.flags.writeable = False
            object.__setattr__(self, name, column)


CSV_COLUMNS = tuple(f.name for f in fields(TrialTable))
# One CSV row: the trial index, then each float as format(value, ".17g") writes it.
_CSV_ROW = "%d" + ",%.17g" * (len(CSV_COLUMNS) - 1) + "\n"


def ref_spec_from_json(obj) -> RefSpec:
    if obj == "maximally_mixed":
        return RefSpec(kind="maximally_mixed")
    if isinstance(obj, dict) and "spectrum" in obj:
        return RefSpec(kind="spectrum", spectrum=tuple(_json_floats(obj["spectrum"], "spectrum")))
    if isinstance(obj, dict) and "random_min_eig" in obj:
        return RefSpec(kind="random_min_eig", min_eig=_json_float(obj["random_min_eig"], "random_min_eig"))
    raise ValueError(f"malformed ref_spec {obj!r}")


def noise_from_json(obj) -> NoiseSpec:
    if obj == "none" or obj is None:
        return NoiseSpec(kind="none")
    if isinstance(obj, dict) and len(obj) == 1:
        kind, eps = next(iter(obj.items()))
        return NoiseSpec(kind=kind, eps=_json_float(eps, "noise strength"))
    raise ValueError(f"malformed noise spec {obj!r}")


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


def _sweep_config_from_json(obj) -> ExperimentConfig:
    """:func:`config_from_json` of the keys a sweep reads: d1, d2, kraus_rank, noise and seed.

    The grid gives a sweep its references and its number of rows, so a config's
    ``ref_spec`` and ``trials`` are not read, and do not refuse it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"malformed experiment config: a JSON object is needed, got {type(obj).__name__}")
    used = {key: obj[key] for key in ("d1", "d2", "kraus_rank", "noise", "seed") if key in obj}
    return config_from_json({**used, "trials": 1})


def apply_noise(w: DensityOperator, model: NoiseSpec, seed: int) -> DensityOperator:
    """Disturb a probe output; every model checks ``seed`` as the draw rule does.

    depolarize mixes toward the maximally mixed state; hermitian_jitter adds
    a seeded random traceless Hermitian direction of unit operator norm,
    then clips back to the PSD cone and renormalizes.
    """
    return DensityOperator._checked(_noisy(w.mat[None], model, [_seed(seed)])[0])


def _noisy(w: np.ndarray, model: NoiseSpec, seeds) -> np.ndarray:
    """:func:`apply_noise` for a stack of states, one noise seed each."""
    if model.eps == 0.0:
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


def _trace_distances(model: NoiseSpec, lifted: np.ndarray, w: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    """||w_noisy − w||_1 of each trial, from its noise model.  Depolarizing w = G G† (G = ``lifted``, D × r,
    r <= D) by eps moves it by eps·(1/D − w), and w's spectrum is the r eigenvalues mu of G†G and D − r zeros:
    eps·(sum |mu − 1/D| + (D − r)/D), one r × r ``eigvalsh``.  Jitter: one ``eigvalsh`` of w_noisy − w."""
    if model.eps == 0.0:
        return np.zeros(len(w))
    if model.kind == "hermitian_jitter":
        return _hermitian_norms(noisy - w)[1]
    dim, rank = lifted.shape[-2:]
    mu = np.linalg.eigvalsh(_gram(_adjoint(lifted)))
    return model.eps * (np.abs(mu - 1.0 / dim).sum(axis=-1) + (dim - rank) / dim)


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


def _trial_columns(cfg: ExperimentConfig, indices: range, factor, refs, noise_seeds) -> tuple:
    """Probe, perturb, reconstruct and score a chunk of trials, one stacked stage at a time.

    ``factor`` holds the true channels' Choi factors, as :func:`_kraus_factors`
    gives them, and ``refs`` the references' ``(spectrum, min_eig, x, x_inv)``
    from ``_reference_arrays``; either may be a stack of one shared by every
    trial.  The fidelity is scored from the true and the recovered factors,
    with one SVD of a (d1·d2) × rank matrix per trial.  Returns the CSV columns.
    """
    _, min_eig, x, x_inv = refs
    lifted, w = _probe_outputs(factor, x)
    noisy = _noisy(w, cfg.noise, noise_seeds)
    floor = cfg.noise._eigenvalue_floor(w.shape[-1])
    factor_rec, tp_residual, consistency, _ = _reconstruct_stack(noisy, x_inv, floor)
    trace_dist = _trace_distances(cfg.noise, lifted, w, noisy)
    fidelity = _channel_fidelities(factor_rec, factor, cfg.d1)
    return (
        np.arange(indices.start, indices.stop),
        np.broadcast_to(min_eig, trace_dist.shape),
        np.full(trace_dist.shape, cfg.noise.eps),
        trace_dist,
        consistency,
        tp_residual,
        fidelity,
        _fidelity_lower_bounds(trace_dist, 1.0 / min_eig, cfg.d1),
    )


def run_roundtrip(cfg: ExperimentConfig) -> TrialTable:
    """Per trial: draw a channel and reference, probe, perturb, reconstruct."""
    spec = cfg.ref_spec
    spectrum = {"maximally_mixed": (1.0 / cfg.d1,) * cfg.d1, "spectrum": spec.spectrum}.get(spec.kind)
    fixed = None if spectrum is None else _diagonal_references(np.array([spectrum]))
    channel_fill = _channel_fill(cfg.d1, cfg.d2, cfg.kraus_rank)
    ref_fills = () if fixed else (("standard_normal", (cfg.d1, 2, cfg.d1)), ("standard_exponential", (cfg.d1,)))
    chunks = []
    for chunk in _chunks(cfg, cfg.trials):
        seeds = [cfg.seed + (i << 64) for i in chunk]
        z, *ref_draws = _draw(seeds, CHANNEL_SITE, channel_fill, *ref_fills)
        refs = fixed or _random_references(spec.min_eig, *ref_draws)
        chunks.append(_trial_columns(cfg, chunk, _kraus_factors(z, cfg.d2, cfg.kraus_rank), refs, seeds))
    return TrialTable(*map(np.concatenate, zip(*chunks)))


def run_spectrum_sweep(cfg: ExperimentConfig, min_eig_grid: list[float]) -> TrialTable:
    """Reconstruction quality versus the smallest reference eigenvalue.

    One fixed channel and one fixed noise draw are reused across the grid;
    grid value m gives the reference spectrum {m, (1-m)/(d1-1), ...}.  The
    emitted bound values must be non-increasing as m decreases (stable
    sorted check), otherwise a :class:`SelfCheckError` is raised.
    """
    if not min_eig_grid:
        raise ValueError("min_eig_grid must be nonempty")
    for m in min_eig_grid:
        if not 0.0 < m <= 1.0 / cfg.d1:
            raise ValueError(f"grid value {m} outside (0, 1/{cfg.d1}]")
    factor = _random_factors(cfg.d1, cfg.d2, cfg.kraus_rank, [cfg.seed])
    m = np.array(min_eig_grid, dtype=float)[:, None]
    spectra = np.ones_like(m) if cfg.d1 == 1 else np.hstack([m] + [(1.0 - m) / (cfg.d1 - 1)] * (cfg.d1 - 1))
    chunks = []
    for chunk in _chunks(cfg, len(spectra)):
        refs = _diagonal_references(spectra[chunk.start : chunk.stop])
        chunks.append(_trial_columns(cfg, chunk, factor, refs, [cfg.seed] * len(chunk)))
    table = TrialTable(*map(np.concatenate, zip(*chunks)))
    order = np.argsort(-table.min_eig_rho, kind="stable")
    bound, min_eig = table.bound_value[order], table.min_eig_rho[order]
    rises = np.flatnonzero(bound[1:] > bound[:-1] + 1e-9)
    if rises.size:
        i = rises[0]
        raise SelfCheckError(
            f"bound increased from {bound[i]} to {bound[i + 1]} "
            f"as min eigenvalue decreased {min_eig[i]} -> {min_eig[i + 1]}"
        )
    return table


def records_to_csv(table: TrialTable) -> str:
    """Fixed-header CSV with floats at 17 significant digits.

    Every row is checked against the analytic bound before any is emitted.
    """
    # fidelity >= bound - (1e-9 + c·u/min_eig), u = 2^-53, times min_eig so that no row
    # divides.  The reconstruction's factor of w (Cholesky or eigh) is backward stable: it
    # factors w + E, ||E||_op a few u (tr w = 1).  The congruence by X⁻¹ scales E by
    # ||X⁻¹||² = 1/min_eig, and the fidelity of unnormalized Choi matrices loses the trace
    # weight it removes, over d1: noiseless full-rank sweeps (d <= 6, min eig to 1.2e-10)
    # lost tp_residual/d1, at most 1.67·u/min_eig with eigh factors, so c = 4.  Rounding
    # not scaled by 1/min_eig is under 1e-9.
    excess = (table.bound_value - table.fidelity - 1e-9) * table.min_eig_rho
    bad = np.flatnonzero(~(excess <= 4 * 2.0**-53))
    if bad.size:
        i = bad[0]
        raise SelfCheckError(
            f"trial {table.trial_index[i]}: fidelity {table.fidelity[i]} below bound {table.bound_value[i]}"
        )
    rows = np.column_stack([getattr(table, name) for name in CSV_COLUMNS])
    return ",".join(CSV_COLUMNS) + "\n" + _CSV_ROW * len(rows) % tuple(rows.ravel().tolist())


def write_records_csv(table: TrialTable, path) -> None:
    text = records_to_csv(table)
    with open(path, "w", newline="") as fh:
        fh.write(text)
