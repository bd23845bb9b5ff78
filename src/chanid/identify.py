"""Channel identification from entangled-probe outputs.

An invertible reference state rho = sum_i p_i |phi_i><phi_i| defines the
probe Omega = sum_i sqrt(p_i) phi_i ⊗ phi_i = vec X with the
complex-symmetric X = sum_i sqrt(p_i) phi_i phi_iᵀ.  Sending one half of
|Omega><Omega| through a channel T gives w = (T ⊗ id)(|Omega><Omega|) =
(1 ⊗ X) C (1 ⊗ X)† on H_out ⊗ H_in, with C the Choi matrix of T, so
recovery is the single congruence C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.  Both act
on factors: with C = K K†, w is the Gram product G G† of G = (1 ⊗ X) K, and
the inversion lifts a factor of w by 1 ⊗ X⁻¹.  Both take only the data and
rho: the output dimension d2 is the row count of a factor, or of w, over
d1 = dim rho.  One core, ``_reference_arrays``,
turns rho into (p, phi) by one phase-fixed ``eigh``, admits min_eig = p_0 above
the cutoff with 1/min_eig finite, and forms X and X⁻¹: a ``ReferenceState`` is
it on a stack of one, and the round trip runs it on its stacks.  The
paper's equivalent dilation form conjugates sigma ⊗ F, with
F = (1 ⊗ rho^{-1}) w (1 ⊗ rho^{-1}), by the fixed isometry
V[(a,mu,b),nu] = X[a,b] delta_{mu nu} (``v_isometry``, ``apply_rn``).
Applied to any bipartite state the inversion yields a CP map, a channel
exactly when the state satisfies a trace-preservation consistency
condition.  By Sylvester's law of inertia the congruence keeps w's rank
and the signs of its eigenvalues, so ``reconstruct`` decomposes w alone:
its PSD check, its clip and its rank cutoff read w's eigenvalues, and the
kept eigenvectors, scaled and pushed through 1 ⊗ X⁻¹, are a factor of C.
The cutoff is relative to ||w||_op and the PSD tolerance to ||w||_1 = 1;
accuracy is governed by ||rho^-1|| = 1/min_eig, and nothing is left to tune.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    KrausChannel,
    NotCompletelyPositiveError,
    _channel_of,
    _marginal_defects,
)
from .linalg import (
    DensityOperator,
    Spectrum,
    _check_finite_hermitian,
    _check_unit_traces,
    _clip_spectra,
    _gram,
    _hermiticity_defect,
    hermitian_part,
    spectral_decomposition,
)

ADMISSIBILITY_CUTOFF = 1e-10
RN_PSD_TOL = 1e-9
W_PSD_TOL = 1e-8  # w has unit trace, so this absolute tolerance is relative to ||w||_1
# Rank cutoff on w's eigenvalues in units of ||w||_op, the scale of w's
# rounding error; C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)† has the same rank.  A true
# eigenvalue below it (possible near the admissibility cutoff) moves w by
# under 1e-14·||w||_op, so C by under 1e-14·||w||_op/min_eig, inside the
# round-trip error 1e-12/min_eig.
CHOI_REL_TOL = 1e-14


class NotAdmissibleError(ValueError):
    """Reference state is too close to singular to invert."""


@dataclass(frozen=True, eq=False)
class ReferenceState:
    """Invertible reference state rho, admitted under ``cutoff``.

    Only ``rho`` and ``cutoff`` are given; a plain array ``rho`` is checked as
    a ``DensityOperator`` first.  The rest is derived from them by
    :func:`_reference_arrays`, the one path that decomposes and admits a
    reference, here for a stack of one.  ``spectrum`` holds the eigenvalues
    ascending with phase-fixed eigenvector columns, ``min_eig`` the smallest
    eigenvalue (above ``cutoff``; ||rho^-1|| = 1/min_eig is finite), and
    ``x`` (Omega = vec x) and ``x_inv`` the probe matrix and its inverse.
    """

    rho: DensityOperator | np.ndarray
    cutoff: float = ADMISSIBILITY_CUTOFF
    dim: int = field(init=False)
    spectrum: Spectrum = field(init=False, repr=False)
    min_eig: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    x_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.cutoff) and self.cutoff >= 0):
            raise ValueError(f"cutoff must be finite and non-negative, got {self.cutoff}")
        if not isinstance(self.rho, DensityOperator):
            object.__setattr__(self, "rho", DensityOperator(self.rho))
        spec, min_eig, x, x_inv = _reference_arrays(self.rho.mat[None], self.cutoff)
        spectrum = Spectrum(spec.eigenvalues[0], spec.eigenvectors[0])
        derived = (self.rho.dim, spectrum, float(min_eig[0]), x[0], x_inv[0])
        for name, value in zip(("dim", "spectrum", "min_eig", "x", "x_inv"), derived):
            object.__setattr__(self, name, value)


def _probe_matrices(p: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = sum_i sqrt(p_i) phi_i phi_iᵀ and X⁻¹ from eigenpairs, for one reference or a stack."""
    root = np.sqrt(p)[..., None, :]
    vecs_t = vecs.swapaxes(-1, -2)
    return (vecs * root) @ vecs_t, ((vecs / root) @ vecs_t).conj()


@dataclass(frozen=True, eq=False)
class RNOperator:
    """Positive operator on H_out ⊗ H_in representing a CP map relative to
    the reference dilation."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        if _hermiticity_defect(m) > 1e-9:
            raise ValueError("operator must be Hermitian")
        if float(np.linalg.eigvalsh(hermitian_part(m))[0]) < -RN_PSD_TOL:
            raise ValueError("operator must be positive semidefinite")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """CP map recovered from a bipartite state, with diagnostics.

    ``tp_residual`` is ||tr_out C - 1||_op of the recovered map's Choi
    matrix C (= ||sum A† A - 1||_op of its Kraus set, up to rounding);
    ``consistency_residual`` is ||tr_out C - 1||_1 of C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†
    before the rank cut, which measures how far the input state is from the
    image of a trace-preserving map (zero for a noiseless probe output);
    ``clip_magnitude`` is the total negative eigenvalue weight removed from
    the input before inversion.
    """

    cp_map: KrausChannel
    tp_residual: float
    consistency_residual: float
    clip_magnitude: float = 0.0


def make_reference(rho: DensityOperator | np.ndarray, cutoff: float = ADMISSIBILITY_CUTOFF) -> ReferenceState:
    """``ReferenceState(rho, cutoff)``: rho (a plain array is checked as a ``DensityOperator``)
    must have a min eigenvalue above the cutoff, which must be finite and non-negative;
    it bounds ||rho^-1||, the scale of every tolerance."""
    return ReferenceState(rho, cutoff)


def _admit(p: np.ndarray, cutoff: float) -> np.ndarray:
    """Smallest eigenvalues of a stack of ascending spectra p, each above
    cutoff and with a reciprocal ||rho^-1|| that a double holds."""
    min_eig = p[:, 0]
    if (min_eig <= cutoff).any():
        raise NotAdmissibleError(
            f"min eigenvalue {min_eig.min():.3e} <= cutoff {cutoff:.3e}: state not invertible"
        )
    with np.errstate(over="ignore"):
        overflow = np.isinf(1.0 / min_eig)
    if overflow.any():
        raise NotAdmissibleError(
            f"min eigenvalue {min_eig[overflow].min():.3e}: ||rho^-1|| overflows a double"
        )
    return min_eig


def _reference_arrays(rho: np.ndarray, cutoff: float = ADMISSIBILITY_CUTOFF) -> tuple:
    """``(spectrum, min_eig, x, x_inv)`` of each reference state of a stack: the one
    path that decomposes (phase-fixed), admits above cutoff and forms the probe
    matrices of a reference, for the round trip's stacks and a ``ReferenceState``."""
    spec = spectral_decomposition(rho)
    return spec, _admit(spec.eigenvalues, cutoff), *_probe_matrices(spec.eigenvalues, spec.eigenvectors)


def _lift(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(1 ⊗ x) f for a factor f on H_out ⊗ H_in: x acts on each d1-row block,
    d1 = x's size, so f's row count fixes the output dimension d2.

    Stacks of x and of f broadcast against each other.
    """
    d1 = x.shape[-1]
    out = x[..., None, :, :] @ f.reshape(*f.shape[:-2], -1, d1, f.shape[-1])
    return out.reshape(*out.shape[:-3], -1, f.shape[-1])


def forward_map(t: KrausChannel, ref: ReferenceState) -> DensityOperator:
    """Probe output w = (T ⊗ id)(|Omega><Omega|) = (1 ⊗ X) C (1 ⊗ X)† on H_out ⊗ H_in."""
    if t.dim_in != ref.dim:
        raise ValueError(f"channel input dim {t.dim_in} != reference dim {ref.dim}")
    return DensityOperator._checked(_probe_outputs(t._factor, ref.x))


def _probe_outputs(factor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`forward_map` from a Choi factor K, C = K K†, and a probe matrix,
    or from stacks of them: w = G G† with G = (1 ⊗ X) K.

    Only the unit trace is checked, which fails for a map that is not
    trace-preserving; the outputs are Hermitian by construction and PSD up
    to rounding.
    """
    w = _gram(_lift(x, factor))
    _check_unit_traces(w, "probe output trace")
    return w


def v_isometry(ref: ReferenceState, d2: int) -> np.ndarray:
    """Isometry V: H_out -> H_in ⊗ (H_out ⊗ H_in) encoding the reference.

    V psi = sum_{i,mu} sqrt(p_i) <f_mu|psi> phi_i ⊗ f_mu ⊗ phi_i for any
    orthonormal basis f of H_out; summing over mu leaves V[(a,mu,b),nu] =
    x[a,b] delta_{mu nu}, so V is returned as that (d1*d2*d1) x d2 matrix,
    with V†V = tr(x x†) = 1.
    """
    if d2 < 1:
        raise ValueError("output dimension must be >= 1")
    d1 = ref.dim
    return np.einsum("ab,mn->ambn", ref.x, np.eye(d2)).reshape(d1 * d2 * d1, d2)


def rn_operator(t: KrausChannel, ref: ReferenceState) -> RNOperator:
    """Positive operator F = (1 ⊗ rho^{-1}) w (1 ⊗ rho^{-1}) that represents
    the channel relative to the reference dilation.

    With w = (1 ⊗ X) C (1 ⊗ X)† and rho = X X†, rho^{-1} X = X⁻†, so F is
    (1 ⊗ X⁻†) C (1 ⊗ X⁻†)†: the Gram product of the lifted factor (1 ⊗ X⁻†) K.
    """
    if t.dim_in != ref.dim:
        raise ValueError(f"channel input dim {t.dim_in} != reference dim {ref.dim}")
    return RNOperator(mat=_gram(_lift(ref.x_inv.conj().T, t._factor)))


def _apply_rn_matrix(v: np.ndarray, f_mat: np.ndarray, sigma_mat: np.ndarray) -> np.ndarray:
    """V† (sigma ⊗ F) V, sigma acting on V's first factor and F on each of its d1 blocks."""
    d1, d2 = sigma_mat.shape[0], v.shape[1]
    lifted = (sigma_mat @ v.reshape(d1, -1)).reshape(d1, d2 * d1, d2)
    return v.conj().T @ (f_mat @ lifted).reshape(-1, d2)


def apply_rn(v: np.ndarray, f: RNOperator, sigma: DensityOperator) -> np.ndarray:
    """Evaluate the represented map at sigma: V† (sigma ⊗ F) V."""
    v = np.asarray(v)
    d1 = sigma.dim
    if v.ndim != 2 or v.shape[0] % d1 != 0:
        raise ValueError(f"isometry shape {v.shape} inconsistent with input dim {d1}")
    d2 = v.shape[1]
    if v.shape[0] != d1 * d2 * d1:
        raise ValueError(f"isometry shape {v.shape} is not ({d1}*{d2}*{d1}, {d2})")
    if f.mat.shape != (d2 * d1, d2 * d1):
        raise ValueError(f"operator shape {f.mat.shape} is not ({d2 * d1}, {d2 * d1})")
    return _apply_rn_matrix(v, f.mat, sigma.mat)


def reconstruct(w: DensityOperator | np.ndarray, ref: ReferenceState) -> ReconstructionResult:
    """Invert the probe map: the CP map with Choi matrix (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.

    For w produced by a noiseless probe this returns the true channel; for
    perturbed w it returns the (generally non-trace-preserving) CP map that
    the inversion formula defines, with residual diagnostics.  The output
    dimension is w's over ref.dim, which must divide it (checked here alone).
    w must have unit trace within ``linalg.TRACE_TOL``; a plain array w is
    checked here, as a ``DensityOperator`` is at construction, for finite
    entries and a Hermiticity defect within ``linalg.HERMITICITY_TOL``.  One
    ``eigh`` of w does the rest.  This is the one clip of w, array or
    ``DensityOperator``: eigenvalues in [-W_PSD_TOL, 0) are zeroed, the trace
    restored and their whole weight reported as ``clip_magnitude``; anything
    more negative raises :class:`NotCompletelyPositiveError`.  Eigenvalues up
    to CHOI_REL_TOL·||w||_op are dropped, and the map's Kraus operators are
    cut from the factor of C the kept ones give.
    """
    w_mat = w.mat if isinstance(w, DensityOperator) else np.asarray(w, dtype=complex)
    if w_mat.ndim != 2 or w_mat.shape[0] != w_mat.shape[1]:
        raise ValueError(f"state must be square, got shape {w_mat.shape}")
    if len(w_mat) % ref.dim != 0:
        raise ValueError(f"state dim {len(w_mat)} is not a multiple of reference dim {ref.dim}")
    if not isinstance(w, DensityOperator):
        _check_finite_hermitian(w_mat, "state")
    factor, tp, consistency, clipped = _reconstruct_stack(w_mat[None], ref.x_inv[None])
    return ReconstructionResult(
        cp_map=_channel_of(factor[0], ref.dim),
        tp_residual=float(tp[0]),
        consistency_residual=float(consistency[0]),
        clip_magnitude=float(clipped[0]),
    )


def _reconstruct_stack(w: np.ndarray, x_inv: np.ndarray) -> tuple:
    """:func:`reconstruct` for a stack of states w and of inverse probe matrices x_inv,
    the output dimension read from w's rows as :func:`_lift` reads it.

    Returns ``(factor, tp_residual, consistency_residual, clip_magnitude)``.
    One ``eigh`` of each w, w = U diag(lam) U†, gives the PSD check, the
    clip and the rank cutoff; the recovered map stays the factor
    F = (1 ⊗ X⁻¹) U diag(sqrt(lam·keep)) of its Choi matrix C = F F†, with
    zero columns where lam is cut, and no C-sized matrix is formed.  The
    residuals are read from d1 × d1 marginals: tr_out C from F, and
    X⁻¹ tr_out(w) X⁻† of the clipped w from the same factor before the cut.
    """
    d1 = x_inv.shape[-1]
    _check_unit_traces(w, "state trace")
    lam, u = np.linalg.eigh(hermitian_part(w))
    if lam[:, 0].min() < -W_PSD_TOL:
        raise NotCompletelyPositiveError(
            f"input state has eigenvalue {lam[:, 0].min():.3e} < -{W_PSD_TOL:.1e}"
        )
    lam, clipped = _clip_spectra(lam)
    full = _lift(x_inv, u * np.sqrt(lam)[:, None, :])
    factor = np.where((lam > CHOI_REL_TOL * lam[:, -1:])[:, None, :], full, 0.0)
    return factor, _marginal_defects(factor, d1)[0], _marginal_defects(full, d1)[1], clipped
