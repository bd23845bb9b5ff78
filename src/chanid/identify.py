"""Channel identification from entangled-probe outputs.

An invertible reference state rho = sum_i p_i |phi_i><phi_i| defines the
probe Omega = sum_i sqrt(p_i) phi_i ⊗ phi_i = vec X with the
complex-symmetric X = sum_i sqrt(p_i) phi_i phi_iᵀ.  Sending one half of
|Omega><Omega| through a channel T gives w = (T ⊗ id)(|Omega><Omega|) =
(1 ⊗ X) C (1 ⊗ X)† on H_out ⊗ H_in, with C the Choi matrix of T, so
recovery is the single congruence C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.  The
paper's equivalent dilation form conjugates sigma ⊗ F, with
F = (1 ⊗ rho^{-1}) w (1 ⊗ rho^{-1}), by a fixed isometry V (``apply_rn``).
Applied to any bipartite state the inversion yields a CP map, a channel
exactly when the state satisfies a trace-preservation consistency condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChoiMatrix, KrausChannel, NotCompletelyPositiveError, choi, from_choi
from .linalg import (
    TRACE_TOL,
    DensityOperator,
    Spectrum,
    clip_to_density,
    hermitian_part,
    operator_norm,
    partial_trace,
    tensor_product,
    trace_norm,
)

ADMISSIBILITY_CUTOFF = 1e-10
RN_PSD_TOL = 1e-9


class NotAdmissibleError(ValueError):
    """Reference state is too close to singular to invert."""


@dataclass(frozen=True)
class ReferenceState:
    """Invertible reference state with cached spectral data.

    ``spectrum`` holds eigenvalues ascending with phase-fixed eigenvector
    columns; ``x`` (Omega = vec x) and ``x_inv`` are the probe matrix and
    its inverse.  ``out_basis`` optionally fixes the orthonormal output basis
    used by the isometry (None means the computational basis of whatever
    output dimension is requested); V†(sigma ⊗ F)V does not depend on it.
    ``cutoff`` is the admissibility cutoff the state was accepted under.
    """

    dim: int
    rho: DensityOperator
    spectrum: Spectrum
    min_eig: float
    out_basis: np.ndarray | None = None
    cutoff: float = ADMISSIBILITY_CUTOFF
    rho_inv: np.ndarray = field(init=False, repr=False)
    rho_inv_sqrt: np.ndarray = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)
    x_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.min_eig <= 0:
            raise NotAdmissibleError(f"min eigenvalue {self.min_eig:.3e} is not positive")
        p = self.spectrum.eigenvalues
        vecs = self.spectrum.eigenvectors
        object.__setattr__(self, "rho_inv", (vecs / p) @ vecs.conj().T)
        object.__setattr__(self, "rho_inv_sqrt", (vecs / np.sqrt(p)) @ vecs.conj().T)
        object.__setattr__(self, "x", (vecs * np.sqrt(p)) @ vecs.T)
        object.__setattr__(self, "x_inv", ((vecs / np.sqrt(p)) @ vecs.T).conj())

    def output_basis(self, d2: int) -> np.ndarray:
        if self.out_basis is None:
            return np.eye(d2, dtype=complex)
        b = np.asarray(self.out_basis, dtype=complex)
        if b.shape != (d2, d2):
            raise ValueError(f"output basis is {b.shape}, expected ({d2}, {d2})")
        return b


@dataclass(frozen=True)
class OmegaState:
    """Probe vector sum_i sqrt(p_i) phi_i ⊗ phi_i and its projector."""

    vector: np.ndarray
    projector: DensityOperator


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


def make_reference(
    rho: DensityOperator,
    cutoff: float = ADMISSIBILITY_CUTOFF,
    out_basis: np.ndarray | None = None,
) -> ReferenceState:
    """Build a reference state, rejecting spectra with min eigenvalue <= cutoff."""
    spec = rho.spectrum()
    min_eig = float(spec.eigenvalues[0])
    if min_eig <= cutoff:
        raise NotAdmissibleError(
            f"min eigenvalue {min_eig:.3e} <= cutoff {cutoff:.3e}: state not invertible"
        )
    if out_basis is not None:
        b = np.asarray(out_basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("output basis must be a square unitary matrix")
        if operator_norm(b.conj().T @ b - np.eye(b.shape[0])) > 1e-10:
            raise ValueError("output basis must be unitary")
        out_basis = b
    return ReferenceState(
        dim=rho.dim, rho=rho, spectrum=spec, min_eig=min_eig, out_basis=out_basis, cutoff=cutoff
    )


def omega(ref: ReferenceState) -> OmegaState:
    """Unit probe vector sum_i sqrt(p_i) phi_i ⊗ phi_i on H_in ⊗ H_in."""
    vector = ref.x.reshape(-1)
    return OmegaState(vector=vector, projector=DensityOperator(np.outer(vector, vector.conj())))


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

    V psi = sum_{i,mu} sqrt(p_i) <f_mu|psi> phi_i ⊗ f_mu ⊗ phi_i, returned
    as a (d1*d2*d1) x d2 matrix with V†V = 1.
    """
    if d2 < 1:
        raise ValueError("output dimension must be >= 1")
    p = ref.spectrum.eigenvalues
    phi = ref.spectrum.eigenvectors
    f = ref.output_basis(d2)
    d1 = ref.dim
    v = np.zeros((d1 * d2 * d1, d2), dtype=complex)
    for i in range(d1):
        col = np.sqrt(p[i]) * phi[:, i]
        for mu in range(d2):
            basis_vec = tensor_product(col, tensor_product(f[:, mu], phi[:, i]))
            v += np.outer(basis_vec, f[:, mu].conj())
    return v


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
    w: DensityOperator | np.ndarray,
    ref: ReferenceState,
    d2: int,
    rank_cutoff: float = 1e-10,
    psd_tol: float = 1e-8,
) -> ReconstructionResult:
    """Invert the probe map: the CP map with Choi matrix (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.

    For w produced by a noiseless probe this returns the true channel; for
    perturbed w it returns the (generally non-trace-preserving) CP map that
    the inversion formula defines, with residual diagnostics.  w must have
    unit trace within ``linalg.TRACE_TOL``.  Eigenvalues of w in
    [-psd_tol, 0) are clipped (the removed weight is reported and the trace
    restored); anything more negative raises :class:`NotCompletelyPositiveError`.
    """
    w_mat = w.mat if isinstance(w, DensityOperator) else np.asarray(w, dtype=complex)
    d1 = ref.dim
    n = d2 * d1
    if w_mat.shape != (n, n):
        raise ValueError(f"state shape {w_mat.shape} is not ({n}, {n})")
    tr = complex(np.trace(w_mat))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {tr} is not 1 within {TRACE_TOL}")
    min_eig = float(np.linalg.eigvalsh(hermitian_part(w_mat))[0])
    if min_eig < -psd_tol:
        raise NotCompletelyPositiveError(
            f"input state has eigenvalue {min_eig:.3e} < -{psd_tol:.1e}"
        )
    w_mat, clipped = clip_to_density(w_mat)
    c = hermitian_part(_congruence(w_mat, ref.x_inv, d2))
    cp_map = from_choi(ChoiMatrix(dim_in=d1, dim_out=d2, mat=c), rank_cutoff=rank_cutoff)
    return ReconstructionResult(
        cp_map=cp_map,
        tp_residual=cp_map.tp_defect,
        consistency_residual=_marginal_defect(c, d1, d2),
        clip_magnitude=clipped,
    )
