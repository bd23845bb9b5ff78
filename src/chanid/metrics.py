"""Distances and fidelities between channels.

The channel fidelity is the fidelity of the Choi states C1/d_in and
C2/d_in.  Each map holds a factor F, C = F F†, and for any such factors
F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1² = ||F1† F2||_1² / d_in² (Jozsa,
"Fidelity for mixed quantum states", 1994): the singular values of one
r1×r2 matrix, so no product of Choi matrices squares their conditioning.

The completely-bounded (diamond) distance between two channels is
estimated as a certified interval.  The lower end is the best evaluated
value of the stabilized trace-norm objective over pure probe states (a
witness state is kept so the value can be re-checked).  The upper end is
Watrous's dual bound ||tr_out Y||_op for a Y with Y ± J >= 0, built from a
full-rank state σ on H_in (kept as the dual state, so the bound can be
re-checked too): with S = 1 ⊗ σ^{1/2} and M = S J S, Y = S⁻¹ |M| S⁻¹.
No claim of convergence to the exact norm is made; every inequality
consumed downstream only needs a valid interval.  Both ends read only
(J, d_in, cap): the Choi difference, the input dimension, and 2 for two
trace-preserving maps, else inf.  The stabilized output at a probe vec Ψ
is (1 ⊗ Ψᵀ) J (1 ⊗ Ψᵀ)†, and its adjoint map back-lifts the sign matrix.

The objective is concave in σ = (Ψᵀ)†Ψᵀ: it equals ||S J S||_1 = max tr(JW)
over -1 ⊗ σ <= W <= 1 ⊗ σ (Watrous, "Simpler semidefinite programs for
completely bounded norms", 2012).  Every full-rank start therefore climbs
to the same maximum, and the default start set is small: the maximally
entangled vector and 2 random vectors drawn at the fixed seed CB_SEED,
each ascending until a step improves it by less than CB_TOL.  Where the
optimal σ is rank-deficient the ascent crawls, so a witness with small
singular values ascends once more from its truncation.  The dual is tight
at the optimal σ, where tr_out |M| is proportional to σ, so the dual's σ
starts at the witness's and takes a few fixed-point steps
σ <- tr_out |M| / tr |M|, all chains in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel, _check_same_shape, _marginal, choi
from .identify import ReferenceState, _lift, reconstruct
from .linalg import CB_STARTS_SITE, DensityOperator, _adjoint, _channel_fidelities, _draw, _eigen_factors
from .linalg import _gram, _hermitian_norms, hermitian_part


# Defaults of cb_distance_interval (and of the ``cbdist`` command): random
# starts on top of the fixed one and the step cap per start.  Fixed: the
# improvement below which a start stops, and the seed the random starts are
# drawn from.
CB_STARTS = 2
CB_MAX_ITERS = 1000
CB_TOL = 1e-10
CB_SEED = 0
# The dual upper end's fixed-point steps after its witness candidate, and the
# floor ε that keeps each candidate state full rank.
CB_DUAL_STEPS = 5
CB_DUAL_FLOOR = 1e-8
# A witness with singular values below CB_FACE_CUT times its largest sits near
# a rank-deficient optimum, where the ascent crawls: it ascends once more from
# its truncation to the larger singular values.
CB_FACE_CUT = 1e-2


class CertificateError(ArithmeticError):
    """A lower bound exceeds its certified upper bound beyond rounding."""


@dataclass(frozen=True, eq=False)
class NormInterval:
    """Certified enclosure lower <= ||.||_cb <= upper.

    The lower end is the objective at the witness ``argmax_state``; the
    upper end is Watrous's dual bound ||tr_out Y||_op at the full-rank state
    ``dual_state`` σ on H_in (Y = S⁻¹ |S J S| S⁻¹, S = 1 ⊗ σ^{1/2}), so both
    ends can be re-checked.
    """

    lower: float
    upper: float
    argmax_state: np.ndarray = field(repr=False)
    dual_state: np.ndarray = field(repr=False)

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


def channel_fidelity(t1: KrausChannel, t2: KrausChannel) -> float:
    """Mixed-state fidelity between the Choi states C / d_in of two maps, in [0, 1].

    Equals 1 exactly when the maps coincide.  It is (||F1† F2||_1 / d_in)²
    from the factors F (C = F F†) the maps hold: their Kraus vectors, or
    the factor a map from ``from_choi`` or ``reconstruct`` was built from.  A
    Kraus set longer than C's size (compositions and tensor products
    multiply Kraus counts) is replaced by C's eigenvectors scaled by
    sqrt(eigenvalue), so no factor has more than d_in·d_out columns.
    """
    _check_same_shape(t1, t2)
    return float(_channel_fidelities(_narrow_factor(t1)[None], _narrow_factor(t2)[None], t1.dim_in)[0])


def _narrow_factor(t: KrausChannel) -> np.ndarray:
    f = t._factor
    return _eigen_factors(choi(t).mat) if f.shape[1] > f.shape[0] else f


def fvdg_gap(t1: KrausChannel, t2: KrausChannel) -> tuple[float, float]:
    """(2 - 2 sqrt(fidelity), trace distance of the Choi states).

    The first entry never exceeds the second (Fuchs / van de Graaf).
    """
    return _fidelity_and_fvdg_gap(t1, t2)[1:]


def _fidelity_and_fvdg_gap(t1: KrausChannel, t2: KrausChannel) -> tuple[float, float, float]:
    """:func:`channel_fidelity` and :func:`fvdg_gap` from one fidelity evaluation."""
    fid = channel_fidelity(t1, t2)  # checks the dimensions
    tdist = _hermitian_norms(choi(t1).mat - choi(t2).mat)[1] / t1.dim_in
    return fid, float(2.0 - 2.0 * np.sqrt(fid)), float(tdist)


def fidelity_lower_bound(trace_dist_w: float, rho_inv_norm: float, d1: int) -> float:
    """Analytic worst-case fidelity bound (1 - ||rho^-1|| d/2d1)^2, clamped.

    Clamping at zero before squaring keeps the bound valid where the
    linear estimate goes vacuous (parenthesis negative).
    """
    return _fidelity_lower_bounds(np.array([trace_dist_w], dtype=float), rho_inv_norm, d1)[0]


def _fidelity_lower_bounds(trace_dist: np.ndarray, rho_inv_norm, d1: int) -> list[float]:
    """:func:`fidelity_lower_bound` of each row: the linear part stacked, then
    ``max(0.0, v) ** 2`` in Python, whose pow can differ from numpy's x·x in the
    last bit, and whose max sends NaN to 0.0."""
    linear = 1.0 - rho_inv_norm * trace_dist / (2.0 * d1)
    return [max(0.0, v) ** 2 for v in linear.tolist()]


def worst_case_bound(
    w1: DensityOperator, w2: DensityOperator, ref: ReferenceState
) -> BoundReport:
    """Fidelity between the two reconstructed maps and its certified bound.

    The bound depends on the probe outputs only through their trace distance and
    on the reference only through 1 / (min eigenvalue).  :func:`channel_fidelity`
    refuses states of two dimensions, whose maps have two shapes.
    """
    rec1 = reconstruct(w1, ref)
    rec2 = reconstruct(w2, ref)
    fid = channel_fidelity(rec1.cp_map, rec2.cp_map)
    tdist = float(_hermitian_norms(hermitian_part(w1.mat - w2.mat))[1])
    rho_inv_norm = 1.0 / ref.min_eig
    return BoundReport(
        fidelity=fid,
        bound=fidelity_lower_bound(tdist, rho_inv_norm, ref.dim),
        trace_dist_w=tdist,
        rho_inv_norm=rho_inv_norm,
        dim=ref.dim,
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


def cb_objective(t1: KrausChannel, t2: KrausChannel, psi: np.ndarray) -> float:
    """||((T1 - T2) ⊗ id)(|psi><psi|)||_1 for a finite psi with | ||psi|| - 1 | <= 1e-9.

    This is the exact function the interval optimizer maximizes, exposed so
    reported lower bounds can be re-checked at their witness states.
    """
    _check_same_shape(t1, t2)
    d_in, d_out = t1.dim_in, t1.dim_out
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d_in * d_in:
        raise ValueError(f"probe vector has length {psi.size}, expected {d_in * d_in}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(psi))
    if not 0.0 < norm < np.inf:  # NaN too
        raise ValueError("probe vector must be finite and nonzero, with a finite norm")
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"probe vector has norm {norm!r}, expected 1 within 1e-9")
    r = _realign(choi(t1).mat - choi(t2).mat, (d_out, d_in, d_out, d_in))
    return float(_objective_values(r, psi[None], d_in, d_out)[0])


def _ascend(r: np.ndarray, psis: np.ndarray, d_in: int, d_out: int, max_iters: int):
    """Alternating ascent from every row of psis at once; no value decreases.

    Each start alternates between the optimal Hermitian sign contraction
    for its current probe and the top eigenvector of the back-lifted sign
    matrix.  It accepts a candidate only if the value rises, and leaves the
    batch after the first iteration that improves it by less than CB_TOL.
    One ``eigh`` of the candidates' stabilized outputs per step gives both
    their values and, for the accepted ones, the next step's sign matrices.
    The active rows' state is held apart from the batch and written back as a
    row leaves, so a step indexes nothing while every row rises and stays.
    """
    vals, vecs = np.linalg.eigh(_stabilized_outputs(r, psis, d_in, d_out))
    best_val, best_psi = np.sum(np.abs(vals), axis=-1), psis.copy()
    rows, value, psi = np.arange(len(psis)), best_val, best_psi  # the active rows, held apart
    r_adj = r.conj().T
    for _ in range(max_iters):
        if rows.size == 0:
            break
        signs = (vecs * np.sign(vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        # back-lift: the adjoint of the stabilized-output map, J ⊗ id's dual
        dual = _realign(r_adj @ _realign(signs, (d_out, d_in, d_out, d_in)), (d_in,) * 4)
        candidates = np.linalg.eigh(hermitian_part(dual))[1][:, :, -1]
        cand_vals, cand_vecs = np.linalg.eigh(_stabilized_outputs(r, candidates, d_in, d_out))
        values = np.sum(np.abs(cand_vals), axis=-1)
        improvement = values - value
        rises = improvement > 0
        if rises.all():
            value, psi, vals, vecs = values, candidates, cand_vals, cand_vecs
        else:
            value, psi = np.where(rises, values, value), np.where(rises[:, None], candidates, psi)
            vals, vecs = np.where(rises[:, None], cand_vals, vals), np.where(rises[:, None, None], cand_vecs, vecs)
        keep = improvement >= CB_TOL
        if not keep.all():
            best_val[rows], best_psi[rows] = value, psi
            rows, value, psi, vals, vecs = rows[keep], value[keep], psi[keep], vals[keep], vecs[keep]
    best_val[rows], best_psi[rows] = value, psi
    return best_val, best_psi


def _full_rank(sigma: np.ndarray) -> np.ndarray:
    """(σ + ε·1) / tr(σ + ε·1), ε = CB_DUAL_FLOOR: full-rank states near a stack of PSD σ of unit trace."""
    sigma = hermitian_part(sigma) + CB_DUAL_FLOOR * np.eye(sigma.shape[-1])
    return sigma / np.trace(sigma, axis1=-2, axis2=-1).real[:, None, None]


def _dual_candidates(j: np.ndarray, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates of the dual upper end at each full-rank state σ on H_in of a stack.

    With S = 1 ⊗ σ^{1/2} and M = S J S = V diag(mu) V†, Y = S⁻¹ |M| S⁻¹
    satisfies Y ± J = S⁻¹ (|M| ± M) S⁻¹ >= 0.  Returns Y's factors
    (1 ⊗ σ^{-1/2}) V·sqrt|mu|, whose marginals give ||tr_out Y||_op, and
    tr_out |M|, whose normalization is the next fixed-point σ, from one
    stacked ``eigh`` of the σ's and one of the M's.  At σ = 1/d_in, Y = |J|.
    """
    p, u = np.linalg.eigh(sigmas)
    root, inv_root = (u * np.sqrt(p)[:, None, :]) @ _adjoint(u), (u / np.sqrt(p)[:, None, :]) @ _adjoint(u)
    mu, v = np.linalg.eigh(hermitian_part(_lift(root, _adjoint(_lift(root, j)))))
    abs_factors = v * np.sqrt(np.abs(mu))[:, None, :]
    return _lift(inv_root, abs_factors), _marginal(abs_factors, sigmas.shape[-1])


def _face_start(psi: np.ndarray, d_in: int) -> np.ndarray | None:
    """psi = vec Ψ projected onto the right singular vectors of Ψ whose
    singular values are >= CB_FACE_CUT times the largest, renormalized, or
    None if none is smaller: one ``eigh`` of Ψ†Ψ."""
    big = psi.reshape(d_in, d_in)
    squares, right = np.linalg.eigh(_adjoint(big) @ big)
    kept = right[:, squares >= CB_FACE_CUT**2 * squares[-1]]
    if kept.shape[1] == d_in:
        return None
    face = (big @ kept @ _adjoint(kept)).reshape(-1)
    return face / np.linalg.norm(face)


def _dual_upper(j: np.ndarray, witnesses: list, d_in: int, cap: float) -> tuple[float, np.ndarray]:
    """Certified upper end of the CB norm of the map with Choi matrix J, and the state σ that gives it.

    Watrous's dual for a Hermiticity-preserving map: any Y with Y ± J >= 0
    bounds the CB norm by ||tr_out Y||_op.  The candidates σ are, for each
    witness Ψ, conj(Ψ) Ψᵀ made full rank and CB_DUAL_STEPS fixed-point steps
    σ <- tr_out |M| / tr |M| from it (for a trace-preserving pair tr_out |M|
    = 2 tr_out M₊), and last 1/d_in, whose bound is ||tr_out |J| ||_op; the
    chains step in lockstep, and one ``eigvalsh`` of the candidates' marginals
    gives their uppers.  Each candidate's Y = F F† is checked with one
    ``eigvalsh`` of Y - J and one of Y + J over the stack of candidates: a
    violation s > 0 adds d_out·s (tr_out of s·1).  The smallest certified
    value wins, the first on a tie, capped at ``cap`` (2 for a pair of
    trace-preserving channels, each of CB norm exactly 1; else inf).
    """
    d_out = len(j) // d_in
    psis = np.array([w.reshape(d_in, d_in) for w in witnesses])
    sigmas = np.concatenate([_full_rank(psis.conj() @ psis.swapaxes(-1, -2)), np.eye(d_in, dtype=complex)[None] / d_in])
    steps = np.array([CB_DUAL_STEPS] * len(witnesses) + [0])
    live, order, states, factors = np.arange(len(sigmas)), [], [], []
    for step in range(CB_DUAL_STEPS + 1):
        batch, abs_marginals = _dual_candidates(j, sigmas)
        order += [(chain, step) for chain in live]
        states.append(sigmas)
        factors.append(batch)
        totals = np.trace(abs_marginals, axis1=-2, axis2=-1).real
        going = (step < steps[live]) & (totals > 0.0)  # total 0: J = 0, every candidate gives 0
        if not going.any():
            break
        live = live[going]
        sigmas = _full_rank(abs_marginals[going] / totals[going, None, None])
    chain_major = sorted(range(len(order)), key=order.__getitem__)
    states, factors = np.concatenate(states)[chain_major], np.concatenate(factors)[chain_major]
    uppers = _hermitian_norms(_marginal(factors, d_in))[0]
    y = _gram(factors)
    least = np.minimum(np.linalg.eigvalsh(y - j)[:, 0], np.linalg.eigvalsh(y + j)[:, 0])
    certified = uppers + d_out * np.maximum(0.0, -least)
    best = int(np.argmin(certified))
    return min(float(certified[best]), cap), states[best]


def _certified(lower: float, upper: float, witness: np.ndarray, sigma: np.ndarray) -> NormInterval:
    if lower > upper * (1.0 + 1e-12) + 1e-15:  # beyond rounding
        raise CertificateError(f"lower bound {lower!r} exceeds the certified upper bound {upper!r}")
    return NormInterval(lower=lower, upper=max(upper, lower), argmax_state=witness, dual_state=sigma)


def _maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def cb_distance_interval(
    t1: KrausChannel, t2: KrausChannel, starts: int = CB_STARTS, max_iters: int = CB_MAX_ITERS
) -> NormInterval:
    """Certified interval around the CB-norm distance ||T1 - T2||_cb.

    The maximization runs over unit vectors of H_in ⊗ H_in (stabilization
    by the input dimension suffices for Hermiticity-preserving differences
    of maps, and pure inputs attain the supremum).  Starts are the maximally
    entangled vector and ``starts`` random vectors drawn one after another
    at the CB-starts site of CB_SEED, in that order; all ascend together and
    the first with the highest value wins (few are needed: the objective is
    concave in σ = (Ψᵀ)†Ψᵀ).  Towards a rank-deficient optimum the ascent
    crawls, so a winner with singular values below CB_FACE_CUT times its
    largest ascends once more from its truncation (:func:`_face_start`) and
    gives way to it if that ends higher.  The upper end is the dual bound
    built from the witnesses (:func:`_dual_upper`), which needs no
    trace-preservation.  A lower end above the upper end beyond rounding
    raises :class:`CertificateError`.
    """
    _check_same_shape(t1, t2)
    if starts < 0 or max_iters < 0:
        raise ValueError(f"starts and max_iters must be >= 0, got {starts} and {max_iters}")
    cap = 2.0 if t1.trace_preserving and t2.trace_preserving else np.inf
    return _cb_interval(choi(t1).mat - choi(t2).mat, t1.dim_in, cap, starts, max_iters)


def _cb_interval(j: np.ndarray, d1: int, cap: float, starts: int, max_iters: int) -> NormInterval:
    """The CB interval of the Hermiticity-preserving map with Choi matrix J, d_in = d1 and CB norm <= cap."""
    d2 = len(j) // d1
    [z] = _draw([CB_SEED], CB_STARTS_SITE, ("standard_normal", (starts, 2, d1 * d1)))
    start_vecs = [_maximally_entangled(d1)] + [v / np.linalg.norm(v) for v in z[0, :, 0] + 1j * z[0, :, 1]]
    r = _realign(j, (d2, d1, d2, d1))
    values, psis = _ascend(r, np.array(start_vecs), d1, d2, max_iters)
    witnesses = [psis[np.argmax(values)]]
    face = _face_start(witnesses[0], d1)
    if face is not None:
        face_value, face_psi = _ascend(r, face[None], d1, d2, max_iters)
        if face_value[0] > values.max():
            # the batch winner still seeds the dual: from the restart's
            # rank-deficient witness the σ fixed point crawls
            witnesses.insert(0, face_psi[0])
    best_psi = witnesses[0]
    lower = float(_objective_values(r, best_psi[None], d1, d2)[0])
    upper, sigma = _dual_upper(j, witnesses, d1, cap)
    return _certified(lower, upper, best_psi, sigma)


def cb_norm_of_channel(t: KrausChannel) -> NormInterval:
    """CB-norm interval for a trace-preserving channel.

    Evaluating the objective at the maximally entangled probe certifies
    lower = 1 (channel outputs are states, trace norm one); the upper end
    is ||tr_out C||_op = ||T_dual(1)||_op, which equals the CB-norm for CP
    maps, read from the eigenvalues of the marginal of the map's factor.
    It is the dual bound with J = C at σ = 1/d_in, where Y = |C| = C, so the
    dual state is 1/d_in.
    """
    if not t.trace_preserving:
        raise ValueError(f"channel is not trace-preserving (defect {t.tp_defect:.3e})")
    d_in, d_out = t.dim_in, t.dim_out
    omega_vec = _maximally_entangled(d_in)
    r = _realign(choi(t).mat, (d_out, d_in, d_out, d_in))
    lower = float(_objective_values(r, omega_vec[None], d_in, d_out)[0])
    upper = float(_hermitian_norms(_marginal(t._factor, d_in))[0])
    return _certified(lower, upper, omega_vec, np.eye(d_in, dtype=complex) / d_in)
