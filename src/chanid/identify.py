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

from .channel import (
    KrausChannel,
    NotCompletelyPositiveError,
    _channel_of,
    _marginal_singular_values,
    _minimal_kraus,
    choi,
)
from .linalg import (
    DensityOperator,
    Spectrum,
    _check_unit_traces,
    _clip_eigenpairs,
    _fix_column_phases,
    _hermiticity_defect,
    hermitian_part,
    tensor_product,
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
    x: np.ndarray = field(init=False, repr=False)
    x_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.min_eig <= 0:
            raise NotAdmissibleError(f"min eigenvalue {self.min_eig:.3e} is not positive")
        if math.isinf(1.0 / self.min_eig):
            raise NotAdmissibleError(
                f"min eigenvalue {self.min_eig:.3e}: ||rho^-1|| overflows a double"
            )
        x, x_inv = _probe_matrices(self.spectrum.eigenvalues, self.spectrum.eigenvectors)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_inv", x_inv)


def _probe_matrices(p: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = sum_i sqrt(p_i) phi_i phi_iᵀ and X⁻¹ from eigenpairs, for one reference or a stack."""
    root = np.sqrt(p)[..., None, :]
    vecs_t = vecs.swapaxes(-1, -2)
    return (vecs * root) @ vecs_t, ((vecs / root) @ vecs_t).conj()


@dataclass(frozen=True)
class RNOperator:
    """Positive operator on H_out ⊗ H_in representing a CP map relative to
    the reference dilation."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        if _hermiticity_defect(m) > 1e-9:
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
    min_eig = float(_admit(spec.eigenvalues[None], cutoff)[0])
    return ReferenceState(dim=rho.dim, rho=rho, spectrum=spec, min_eig=min_eig, cutoff=cutoff)


def _admit(p: np.ndarray, cutoff: float) -> np.ndarray:
    """Smallest eigenvalues of a stack of ascending spectra p, each above cutoff."""
    min_eig = p[:, 0]
    if (min_eig <= cutoff).any():
        raise NotAdmissibleError(
            f"min eigenvalue {min_eig.min():.3e} <= cutoff {cutoff:.3e}: state not invertible"
        )
    return min_eig


def _reference_arrays(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(min_eig, x, x_inv)`` of each reference state of a stack, decomposed
    and admitted at the default cutoff as :func:`make_reference` does one."""
    p, vecs = np.linalg.eigh(hermitian_part(rho))
    return (_admit(p, ADMISSIBILITY_CUTOFF), *_probe_matrices(p, _fix_column_phases(vecs)))


def omega(ref: ReferenceState) -> np.ndarray:
    """Unit probe vector sum_i sqrt(p_i) phi_i ⊗ phi_i on H_in ⊗ H_in."""
    return ref.x.reshape(-1)


def _congruence(m: np.ndarray, x: np.ndarray, d2: int) -> np.ndarray:
    """(1 ⊗ x) m (1 ⊗ x)† for m on H_out ⊗ H_in, acting blockwise on H_in.

    Stacks of m and of x broadcast against each other.
    """
    d1 = x.shape[-1]
    lead = m.shape[:-2]
    blocks = m.reshape(*lead, d2, d1, d2, d1).swapaxes(-3, -2)
    x = x[..., None, None, :, :]
    out = x @ blocks @ x.conj().swapaxes(-1, -2)
    return out.swapaxes(-3, -2).reshape(*out.shape[:-4], d2 * d1, d2 * d1)


def forward_map(t: KrausChannel, ref: ReferenceState) -> DensityOperator:
    """Probe output w = (T ⊗ id)(|Omega><Omega|) = (1 ⊗ X) C (1 ⊗ X)† on H_out ⊗ H_in."""
    if t.dim_in != ref.dim:
        raise ValueError(f"channel input dim {t.dim_in} != reference dim {ref.dim}")
    return DensityOperator._checked(_probe_outputs(choi(t).mat[None], ref.x[None], t.dim_out)[0])


def _probe_outputs(c: np.ndarray, x: np.ndarray, d2: int) -> np.ndarray:
    """:func:`forward_map` for stacks of Choi matrices and probe matrices.

    Only the unit trace is checked, which fails for a map that is not
    trace-preserving; the outputs are Hermitian by construction and PSD up
    to rounding.
    """
    w = hermitian_part(_congruence(c, x, d2))
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
    the channel relative to the reference dilation."""
    rho_inv = ref.x_inv.conj().T @ ref.x_inv
    f = _congruence(forward_map(t, ref).mat, rho_inv, t.dim_out)
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


def consistency_residual(w: DensityOperator | np.ndarray, ref: ReferenceState, d2: int) -> float:
    """Trace-norm defect ||tr_out C - 1||_1 of C = (1 ⊗ X⁻¹) w (1 ⊗ X⁻¹)†.

    Zero exactly when the recovered map is trace-preserving, which holds
    automatically for noiseless probe outputs.
    """
    w_mat = w.mat if isinstance(w, DensityOperator) else np.asarray(w)
    d1 = ref.dim
    if w_mat.shape != (d2 * d1, d2 * d1):
        raise ValueError(f"state shape {w_mat.shape} is not ({d2 * d1}, {d2 * d1})")
    return float(np.sum(_marginal_singular_values(_congruence(w_mat, ref.x_inv, d2), d1, d2)))


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
    found = _reconstruct_stack(w_mat[None], ref.x_inv[None], np.array([ref.min_eig]), d2)
    kraus, keep, c_rec, tp, consistency, clipped = (a[0] for a in found)
    return ReconstructionResult(
        cp_map=_channel_of(kraus, keep, c_rec, tp, d1, d2),
        tp_residual=float(tp),
        consistency_residual=float(consistency),
        clip_magnitude=float(clipped),
    )


def _reconstruct_stack(w: np.ndarray, x_inv: np.ndarray, min_eig: np.ndarray, d2: int) -> tuple:
    """:func:`reconstruct` for a stack of states w and of references (x_inv, min_eig).

    Returns ``(kraus, keep, c_rec, tp_residual, consistency_residual,
    clip_magnitude)``, the first four as ``channel._minimal_kraus`` gives
    them; builds no ``KrausChannel``.  Its one ``eigh`` of each w serves
    the PSD check, the clip and ||w||_op.
    """
    d1 = x_inv.shape[-1]
    _check_unit_traces(w, "state trace")
    h = hermitian_part(w)
    vals, vecs = np.linalg.eigh(h)
    if vals[:, 0].min() < -W_PSD_TOL:
        raise NotCompletelyPositiveError(
            f"input state has eigenvalue {vals[:, 0].min():.3e} < -{W_PSD_TOL:.1e}"
        )
    w_clip, clipped = _clip_eigenpairs(h, vals, vecs)
    c = hermitian_part(_congruence(w_clip, x_inv, d2))
    tol = CHOI_REL_TOL * vals[:, -1] / min_eig
    consistency = np.sum(_marginal_singular_values(c, d1, d2), axis=-1)
    return (*_minimal_kraus(c, d1, d2, tol, tol), consistency, clipped)
