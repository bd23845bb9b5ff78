"""Channel identification from entangled-probe outputs.

An invertible reference state rho = sum_i p_i |phi_i><phi_i| defines the
probe Omega = sum_i sqrt(p_i) phi_i ⊗ phi_i = vec X with the
complex-symmetric X = sum_i sqrt(p_i) phi_i phi_iᵀ.  Sending one half of
|Omega><Omega| through a channel T gives w = (T ⊗ id)(|Omega><Omega|) =
(1 ⊗ X) C (1 ⊗ X)† on H_out ⊗ H_in, with C the Choi matrix of T, so
recovery is the single congruence C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.  The
paper's equivalent dilation form conjugates sigma ⊗ F, with
F = (1 ⊗ rho^{-1}) w (1 ⊗ rho^{-1}), by the fixed isometry
V[(a,mu,b),nu] = X[a,b] delta_{mu nu} (``v_isometry``, ``apply_rn``).
Applied to any bipartite state the inversion yields a CP map, a channel
exactly when the state satisfies a trace-preservation consistency
condition.  Its accuracy is governed by ||rho^-1|| = 1/min_eig, so the only
thresholds of ``reconstruct``, C's rank cutoff and PSD tolerance, are
worked out from ||rho^-1||·||w||_op; nothing is left to tune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChoiMatrix, KrausChannel, NotCompletelyPositiveError, choi, from_choi
from .linalg import (
    TRACE_TOL,
    DensityOperator,
    Spectrum,
    clip_eigenpairs,
    hermitian_part,
    operator_norm,
    partial_trace,
    tensor_product,
    trace_norm,
)

ADMISSIBILITY_CUTOFF = 1e-10
RN_PSD_TOL = 1e-9
W_PSD_TOL = 1e-8  # w has unit trace, so this absolute tolerance is relative to ||w||_1
# Rank cutoff and PSD tolerance of C in units of ||w||_op·||rho^-1||, the
# scale of C's rounding error.  In noiseless round trips (d1, d2 <= 6, min
# eig 1e-2..1e-8) C's rounding eigenvalues stayed below 5.1e-16 of that
# scale and its true ones above 4.4e-13, so 1e-14 sits ~20x above the noise.
# A true eigenvalue below it (possible near the admissibility cutoff) moves
# C by under 1e-14·||w||/min_eig, inside the round-trip error 1e-12/min_eig.
CHOI_REL_TOL = 1e-14


class NotAdmissibleError(ValueError):
    """Reference state is too close to singular to invert."""


@dataclass(frozen=True)
class ReferenceState:
    """Invertible reference state with cached spectral data.

    ``spectrum`` holds eigenvalues ascending with phase-fixed eigenvector
    columns; ``x`` (Omega = vec x) and ``x_inv`` are the probe matrix and
    its inverse.  ``cutoff`` is the admissibility cutoff the state was
    accepted under.
    """

    dim: int
    rho: DensityOperator
    spectrum: Spectrum
    min_eig: float
    cutoff: float = ADMISSIBILITY_CUTOFF
    rho_inv: np.ndarray = field(init=False, repr=False)
    rho_inv_sqrt: np.ndarray = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)
    x_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.min_eig <= 0:
            raise NotAdmissibleError(f"min eigenvalue {self.min_eig:.3e} is not positive")
        if math.isinf(1.0 / self.min_eig):
            raise NotAdmissibleError(
                f"min eigenvalue {self.min_eig:.3e}: ||rho^-1|| overflows a double"
            )
        p = self.spectrum.eigenvalues
        vecs = self.spectrum.eigenvectors
        object.__setattr__(self, "rho_inv", (vecs / p) @ vecs.conj().T)
        object.__setattr__(self, "rho_inv_sqrt", (vecs / np.sqrt(p)) @ vecs.conj().T)
        object.__setattr__(self, "x", (vecs * np.sqrt(p)) @ vecs.T)
        object.__setattr__(self, "x_inv", ((vecs / np.sqrt(p)) @ vecs.T).conj())


@dataclass(frozen=True)
class RNOperator:
    """Positive operator on H_out ⊗ H_in representing a CP map relative to
    the reference dilation."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        if operator_norm(m - m.conj().T) > 1e-9:
            raise ValueError("operator must be Hermitian")
        if float(np.linalg.eigvalsh(hermitian_part(m))[0]) < -RN_PSD_TOL:
            raise ValueError("operator must be positive semidefinite")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class ReconstructionResult:
    """CP map recovered from a bipartite state, with diagnostics.

    ``tp_residual`` is ||sum A† A - 1||_op of the recovered Kraus set;
    ``consistency_residual`` measures how far the input state is from the
    image of a trace-preserving map; ``clip_magnitude`` is the total
    negative eigenvalue weight removed from the input before inversion.
    """

    cp_map: KrausChannel
    tp_residual: float
    consistency_residual: float
    clip_magnitude: float = 0.0


def make_reference(rho: DensityOperator, cutoff: float = ADMISSIBILITY_CUTOFF) -> ReferenceState:
    """Build a reference state, rejecting spectra with min eigenvalue <= cutoff.

    The cutoff must be finite and non-negative: it bounds ||rho^-1||, which
    scales every reconstruction tolerance.
    """
    if not (np.isfinite(cutoff) and cutoff >= 0):
        raise ValueError(f"cutoff must be finite and non-negative, got {cutoff}")
    spec = rho.spectrum()
    min_eig = float(spec.eigenvalues[0])
    if min_eig <= cutoff:
        raise NotAdmissibleError(
            f"min eigenvalue {min_eig:.3e} <= cutoff {cutoff:.3e}: state not invertible"
        )
    return ReferenceState(dim=rho.dim, rho=rho, spectrum=spec, min_eig=min_eig, cutoff=cutoff)


def omega(ref: ReferenceState) -> np.ndarray:
    """Unit probe vector sum_i sqrt(p_i) phi_i ⊗ phi_i on H_in ⊗ H_in."""
    return ref.x.reshape(-1)


def _congruence(m: np.ndarray, x: np.ndarray, d2: int) -> np.ndarray:
    """(1 ⊗ x) m (1 ⊗ x)† for m on H_out ⊗ H_in, acting blockwise on H_in."""
    d1 = x.shape[0]
    blocks = m.reshape(d2, d1, d2, d1).transpose(0, 2, 1, 3)
    return (x @ blocks @ x.conj().T).transpose(0, 2, 1, 3).reshape(d2 * d1, d2 * d1)


def forward_map(t: KrausChannel, ref: ReferenceState) -> DensityOperator:
    """Probe output w = (T ⊗ id)(|Omega><Omega|) = (1 ⊗ X) C (1 ⊗ X)† on H_out ⊗ H_in."""
    if t.dim_in != ref.dim:
        raise ValueError(f"channel input dim {t.dim_in} != reference dim {ref.dim}")
    w = _congruence(choi(t).mat, ref.x, t.dim_out)
    return DensityOperator(hermitian_part(w))


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
    the channel relative to the reference dilation."""
    f = _congruence(forward_map(t, ref).mat, ref.rho_inv, t.dim_out)
    return RNOperator(mat=hermitian_part(f))


def _apply_rn_matrix(v: np.ndarray, f_mat: np.ndarray, sigma_mat: np.ndarray) -> np.ndarray:
    return v.conj().T @ tensor_product(sigma_mat, f_mat) @ v


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


def _marginal_defect(c: np.ndarray, d1: int, d2: int) -> float:
    """||tr_out C - 1||_1 for a Choi matrix C on H_out ⊗ H_in."""
    return trace_norm(partial_trace(c, (d2, d1), "first") - np.eye(d1))


def consistency_residual(w: DensityOperator | np.ndarray, ref: ReferenceState, d2: int) -> float:
    """Trace-norm defect ||tr_out C - 1||_1 of C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.

    Zero exactly when the recovered map is trace-preserving, which holds
    automatically for noiseless probe outputs.
    """
    w_mat = w.mat if isinstance(w, DensityOperator) else np.asarray(w)
    d1 = ref.dim
    if w_mat.shape != (d2 * d1, d2 * d1):
        raise ValueError(f"state shape {w_mat.shape} is not ({d2 * d1}, {d2 * d1})")
    return _marginal_defect(_congruence(w_mat, ref.x_inv, d2), d1, d2)


def reconstruct(
    w: DensityOperator | np.ndarray, ref: ReferenceState, d2: int
) -> ReconstructionResult:
    """Invert the probe map: the CP map with Choi matrix (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.

    For w produced by a noiseless probe this returns the true channel; for
    perturbed w it returns the (generally non-trace-preserving) CP map that
    the inversion formula defines, with residual diagnostics.  w must have
    unit trace within ``linalg.TRACE_TOL``.  Eigenvalues of w in
    [-W_PSD_TOL, 0) are clipped (the removed weight is reported and the trace
    restored); anything more negative raises :class:`NotCompletelyPositiveError`.
    C's rank cutoff and PSD tolerance are both CHOI_REL_TOL·||w||_op·||rho^-1||.
    """
    w_mat = w.mat if isinstance(w, DensityOperator) else np.asarray(w, dtype=complex)
    d1 = ref.dim
    n = d2 * d1
    if w_mat.shape != (n, n):
        raise ValueError(f"state shape {w_mat.shape} is not ({n}, {n})")
    tr = complex(np.trace(w_mat))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {tr} is not 1 within {TRACE_TOL}")
    h = hermitian_part(w_mat)
    vals, vecs = np.linalg.eigh(h)
    if vals[0] < -W_PSD_TOL:
        raise NotCompletelyPositiveError(
            f"input state has eigenvalue {vals[0]:.3e} < -{W_PSD_TOL:.1e}"
        )
    w_mat, clipped = clip_eigenpairs(h, vals, vecs)
    c = hermitian_part(_congruence(w_mat, ref.x_inv, d2))
    tol = CHOI_REL_TOL * float(vals[-1]) / ref.min_eig
    cp_map = from_choi(ChoiMatrix(dim_in=d1, dim_out=d2, mat=c), rank_cutoff=tol, psd_tol=tol)
    return ReconstructionResult(
        cp_map=cp_map,
        tp_residual=cp_map.tp_defect,
        consistency_residual=_marginal_defect(c, d1, d2),
        clip_magnitude=clipped,
    )
