"""Distances and fidelities between channels.

The completely-bounded (diamond) distance between two channels is
estimated as a certified interval: the lower end is the best evaluated
value of the stabilized trace-norm objective over pure probe states
(a witness state is kept so the value can be re-checked), the upper end
is an analytic bound from the Jordan decomposition of the Choi-matrix
difference.  No claim of convergence to the exact norm is made; every
inequality consumed downstream only needs a valid interval.  Both ends use
only the Choi difference J: the stabilized output at a probe vec Ψ is
(1 ⊗ Ψᵀ) J (1 ⊗ Ψᵀ)†, its adjoint map back-lifts the sign matrix, and all
ascent starts run together as one batch of stacked eigendecompositions.

The objective is concave in σ = (Ψᵀ)†Ψᵀ: it equals max tr(JW) over
-1 ⊗ σ <= W <= 1 ⊗ σ (Watrous, "Simpler semidefinite programs for
completely bounded norms", 2012).  Every full-rank start therefore climbs
to the same maximum, and the default start set is small: the maximally
entangled vector, the d_in² computational-basis vectors and 2 seeded random
vectors.  The rank-1 basis starts reach rank-deficient optima, where the
ascent from full-rank starts crawls, in fewer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel, choi
from .identify import ReferenceState, reconstruct
from .linalg import (
    DensityOperator,
    fidelity_psd,
    hermitian_part,
    operator_norm,
    partial_trace,
    trace_norm,
)


# Defaults of cb_distance_interval (and of the ``cbdist`` command): random
# starts on top of the fixed ones, the step cap per start, the improvement
# below which a start stops, and the seed of the first random start.
CB_STARTS = 2
CB_MAX_ITERS = 1000
CB_TOL = 1e-10
CB_SEED = 0


class CertificateError(ArithmeticError):
    """A lower bound exceeds its certified upper bound beyond rounding."""


@dataclass(frozen=True)
class NormInterval:
    """Certified enclosure lower <= ||.||_cb <= upper with a witness state."""

    lower: float
    upper: float
    argmax_state: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class BoundReport:
    """Reconstruction fidelity together with its analytic lower bound."""

    fidelity: float
    bound: float
    trace_dist_w: float
    rho_inv_norm: float
    dim: int


def _check_same_dims(t1: KrausChannel, t2: KrausChannel):
    if (t1.dim_in, t1.dim_out) != (t2.dim_in, t2.dim_out):
        raise ValueError(
            f"dimension mismatch: ({t1.dim_in},{t1.dim_out}) vs ({t2.dim_in},{t2.dim_out})"
        )


def channel_fidelity(t1: KrausChannel, t2: KrausChannel) -> float:
    """Mixed-state fidelity between the Choi states C / d_in of two maps, in [0, 1].

    Equals 1 exactly when the maps coincide.
    """
    _check_same_dims(t1, t2)
    sigma1 = choi(t1).mat / t1.dim_in
    sigma2 = choi(t2).mat / t2.dim_in
    return float(np.clip(fidelity_psd(sigma1, sigma2), 0.0, 1.0))


def fvdg_gap(t1: KrausChannel, t2: KrausChannel) -> tuple[float, float]:
    """(2 - 2 sqrt(fidelity), trace distance of the Choi states).

    The first entry never exceeds the second (Fuchs / van de Graaf).
    """
    _check_same_dims(t1, t2)
    lhs = 2.0 - 2.0 * np.sqrt(channel_fidelity(t1, t2))
    rhs = trace_norm(choi(t1).mat - choi(t2).mat) / t1.dim_in
    return float(lhs), float(rhs)


def fidelity_lower_bound(trace_dist_w: float, rho_inv_norm: float, d1: int) -> float:
    """Analytic worst-case fidelity bound (1 - ||rho^-1|| d/2d1)^2, clamped.

    Clamping at zero before squaring keeps the bound valid where the
    linear estimate goes vacuous (parenthesis negative).
    """
    return float(max(0.0, 1.0 - rho_inv_norm * trace_dist_w / (2.0 * d1)) ** 2)


def worst_case_bound(
    w1: DensityOperator, w2: DensityOperator, ref: ReferenceState
) -> BoundReport:
    """Fidelity between the two reconstructed maps and its certified bound.

    The bound depends on the probe outputs only through their trace
    distance and on the reference only through 1 / (min eigenvalue).
    """
    if w1.dim != w2.dim:
        raise ValueError(f"dimension mismatch: {w1.dim} vs {w2.dim}")
    if w1.dim % ref.dim != 0:
        raise ValueError(f"state dim {w1.dim} is not a multiple of reference dim {ref.dim}")
    d1 = ref.dim
    d2 = w1.dim // d1
    rec1 = reconstruct(w1, ref, d2)
    rec2 = reconstruct(w2, ref, d2)
    fid = channel_fidelity(rec1.cp_map, rec2.cp_map)
    tdist = trace_norm(w1.mat - w2.mat)
    rho_inv_norm = 1.0 / ref.min_eig
    return BoundReport(
        fidelity=fid,
        bound=fidelity_lower_bound(tdist, rho_inv_norm, d1),
        trace_dist_w=tdist,
        rho_inv_norm=rho_inv_norm,
        dim=d1,
    )


def _realign(m: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """m[..., (a, b), (c, e)] -> out[..., (a, c), (b, e)] for dims (a, b, c, e)."""
    a, b, c, e = dims
    lead = m.shape[:-2]
    return m.reshape(*lead, a, b, c, e).swapaxes(-3, -2).reshape(*lead, a * c, b * e)


def _stabilized_outputs(r: np.ndarray, psis: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """(1 ⊗ Ψᵀ) J (1 ⊗ Ψᵀ)† for every row psi = vec Ψ of psis; r is J realigned."""
    proj = psis[:, :, None] * psis[:, None, :].conj()
    return hermitian_part(_realign(r @ _realign(proj, (d_in,) * 4), (d_out, d_out, d_in, d_in)))


def _objective_values(r: np.ndarray, psis: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.sum(np.abs(np.linalg.eigvalsh(_stabilized_outputs(r, psis, d_in, d_out))), axis=-1)


def cb_objective(t1: KrausChannel, t2: KrausChannel | None, psi: np.ndarray) -> float:
    """||((T1 - T2) ⊗ id)(|psi><psi|)||_1 for a unit probe vector psi.

    This is the exact function the interval optimizer maximizes, exposed so
    reported lower bounds can be re-checked at their witness states.
    """
    if t2 is not None:
        _check_same_dims(t1, t2)
    d_in, d_out = t1.dim_in, t1.dim_out
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d_in * d_in:
        raise ValueError(f"probe vector has length {psi.size}, expected {d_in * d_in}")
    j = choi(t1).mat if t2 is None else choi(t1).mat - choi(t2).mat
    r = _realign(j, (d_out, d_in, d_out, d_in))
    return float(_objective_values(r, psi[None], d_in, d_out)[0])


def _ascend(r: np.ndarray, psis: np.ndarray, d_in: int, d_out: int, max_iters: int, tol: float):
    """Alternating ascent from every row of psis at once; no value decreases.

    Each start alternates between the optimal Hermitian sign contraction
    for its current probe and the top eigenvector of the back-lifted sign
    matrix.  It accepts a candidate only if the value rises, and leaves the
    batch after the first iteration that improves it by less than ``tol``.
    One ``eigh`` of the candidates' stabilized outputs per step gives both
    their values and, for the accepted ones, the next step's sign matrices.
    """
    vals, vecs = np.linalg.eigh(_stabilized_outputs(r, psis, d_in, d_out))
    best_psi = psis.copy()
    best_val = np.sum(np.abs(vals), axis=-1)
    active = np.arange(len(psis))
    for _ in range(max_iters):
        if active.size == 0:
            break
        v = vecs[active]
        signs = (v * np.sign(vals[active])[:, None, :]) @ v.conj().swapaxes(-1, -2)
        # back-lift: the adjoint of the stabilized-output map, J ⊗ id's dual
        dual = _realign(r.conj().T @ _realign(signs, (d_out, d_in, d_out, d_in)), (d_in,) * 4)
        candidates = np.linalg.eigh(hermitian_part(dual))[1][:, :, -1]
        cand_vals, cand_vecs = np.linalg.eigh(_stabilized_outputs(r, candidates, d_in, d_out))
        values = np.sum(np.abs(cand_vals), axis=-1)
        improvement = values - best_val[active]
        rises = improvement > 0
        risen = active[rises]
        best_val[risen], best_psi[risen] = values[rises], candidates[rises]
        vals[risen], vecs[risen] = cand_vals[rises], cand_vecs[rises]
        active = active[improvement >= tol]
    return best_val, best_psi


def _choi_difference_upper(j: np.ndarray, t1: KrausChannel, t2: KrausChannel) -> float:
    """Diamond-norm upper bound ||tr_out |J| ||_op for J = C(T1) - C(T2).

    For pairs of trace-preserving channels the triangle inequality bound 2
    (each channel has CB-norm exactly 1) is also applied.
    """
    vals, vecs = np.linalg.eigh(hermitian_part(j))
    abs_c = (vecs * np.abs(vals)) @ vecs.conj().T
    upper = operator_norm(partial_trace(abs_c, (t1.dim_out, t1.dim_in), "first"))
    if t1.trace_preserving and t2.trace_preserving:
        upper = min(upper, 2.0)
    return float(upper)


def _certified(lower: float, upper: float, witness: np.ndarray) -> NormInterval:
    if lower > upper * (1.0 + 1e-12) + 1e-15:  # beyond rounding
        raise CertificateError(f"lower bound {lower!r} exceeds the certified upper bound {upper!r}")
    return NormInterval(lower=lower, upper=max(upper, lower), argmax_state=witness)


def _maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def cb_distance_interval(
    t1: KrausChannel,
    t2: KrausChannel,
    starts: int = CB_STARTS,
    max_iters: int = CB_MAX_ITERS,
    tol: float = CB_TOL,
    seed: int = CB_SEED,
    extra_starts: tuple[np.ndarray, ...] = (),
) -> NormInterval:
    """Certified interval around the CB-norm distance ||T1 - T2||_cb.

    The maximization runs over unit vectors of H_in ⊗ H_in (stabilization
    by the input dimension suffices for Hermiticity-preserving differences
    of maps, and pure inputs attain the supremum).  Starts are the
    maximally entangled vector, every computational basis vector, any
    ``extra_starts`` and ``starts`` seeded random vectors, in that order;
    all ascend together and the first with the highest value wins.  The
    objective is concave in σ = (Ψᵀ)†Ψᵀ, so few random starts are needed:
    full-rank starts climb to the same maximum, and the rank-1 basis starts
    reach rank-deficient optima faster.  A lower end above the upper end
    beyond rounding raises :class:`CertificateError`.
    """
    _check_same_dims(t1, t2)
    if starts < 0 or max_iters < 0:
        raise ValueError(f"starts and max_iters must be >= 0, got {starts} and {max_iters}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    d1, d2 = t1.dim_in, t1.dim_out
    rngs = (np.random.default_rng(seed + k) for k in range(starts))
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in extra_starts]
    vecs += [g.standard_normal(d1 * d1) + 1j * g.standard_normal(d1 * d1) for g in rngs]
    start_vecs = [_maximally_entangled(d1), *np.eye(d1 * d1, dtype=complex)]
    start_vecs += [v / np.linalg.norm(v) for v in vecs]

    j = choi(t1).mat - choi(t2).mat
    r = _realign(j, (d2, d1, d2, d1))
    values, psis = _ascend(r, np.array(start_vecs), d1, d2, max_iters, tol)
    best_psi = psis[np.argmax(values)]
    lower = float(_objective_values(r, best_psi[None], d1, d2)[0])
    return _certified(lower, _choi_difference_upper(j, t1, t2), best_psi)


def cb_norm_of_channel(t: KrausChannel) -> NormInterval:
    """CB-norm interval for a trace-preserving channel.

    Evaluating the objective at the maximally entangled probe certifies
    lower = 1 (channel outputs are states, trace norm one); the upper end
    is ||tr_out C||_op = ||T_dual(1)||_op, which equals the CB-norm for CP
    maps.
    """
    if not t.trace_preserving:
        raise ValueError(f"channel is not trace-preserving (defect {t.tp_defect:.3e})")
    omega_vec = _maximally_entangled(t.dim_in)
    lower = cb_objective(t, None, omega_vec)
    upper = operator_norm(partial_trace(choi(t).mat, (t.dim_out, t.dim_in), "first"))
    return _certified(lower, upper, omega_vec)
