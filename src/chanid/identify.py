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
d1 = dim rho.  A reference is given by rho alone.  One core,
``_reference_arrays``, turns rho into (p, phi) by one phase-fixed ``eigh``,
admits min_eig = p_0 above the fixed ``ADMISSIBILITY_CUTOFF`` (so
1/min_eig < 1e10), and forms X and X⁻¹: a ``ReferenceState`` is it on a
stack of one, and the round trip runs it on its stacks.  The
paper's equivalent dilation form conjugates sigma ⊗ F, with
F = (1 ⊗ rho^{-1}) w (1 ⊗ rho^{-1}), by the fixed isometry
V[(a,mu,b),nu] = X[a,b] delta_{mu nu} (``v_isometry``, ``apply_rn``).
Applied to any bipartite state the inversion yields a CP map, a channel
exactly when the state satisfies a trace-preservation consistency
condition.  By Sylvester's law of inertia the congruence keeps w's rank
and the signs of its eigenvalues, so ``reconstruct`` decomposes w alone,
and any factor of w, pushed through 1 ⊗ X⁻¹, is a factor of C.  One
``eigvalsh`` of w decides (for a w decoded from JSON, the one that admitted
it): its eigenvalues give the PSD check, and where
nothing is clipped or cut the factor is w's Cholesky factor; otherwise one
``eigh`` gives the clip, the rank cutoff and the kept eigenvectors, scaled.
Cholesky is cheaper than eigenvectors and more accurate: on a w graded by a
diagonal scaling, as a noiseless output is under a diagonal reference, its
error follows the scaled matrix's condition instead of 1/min_eig.
The round trip skips the deciding ``eigvalsh`` where its answer is proven:
a probe output depolarized by eps has no eigenvalue below eps/D, and above
:func:`_floor_margin` that floor proves the ``eigvalsh`` would choose
Cholesky, so those trials are factored by Cholesky at once.  The
rank cutoff is relative to ||w||_op and the PSD tolerance to ||w||_1 = 1;
the worst-case accuracy is governed by ||rho^-1|| = 1/min_eig, bounded by
the admissibility cutoff, and nothing is left to tune.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel, _channel_of, _cp_checked, _marginal_defects
from .linalg import DensityOperator, Spectrum, _admitted, _check_unit_traces, _clip_spectra, _gram, hermitian_part
from .linalg import spectral_decomposition

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
    """Invertible reference state rho, admitted when its smallest eigenvalue is
    above ``ADMISSIBILITY_CUTOFF``.

    Only ``rho`` is given; a plain array ``rho`` is checked as a
    ``DensityOperator`` first.  The rest is derived from it by
    :func:`_reference_arrays`, the one path that decomposes and admits a
    reference, here for a stack of one.  ``spectrum`` holds the eigenvalues
    ascending with phase-fixed eigenvector columns, ``min_eig`` the smallest
    eigenvalue (above the cutoff, so ||rho^-1|| = 1/min_eig < 1e10), and
    ``x`` (Omega = vec x) and ``x_inv`` the probe matrix and its inverse.
    """

    rho: DensityOperator | np.ndarray
    dim: int = field(init=False)
    spectrum: Spectrum = field(init=False, repr=False)
    min_eig: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    x_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.rho, DensityOperator):
            object.__setattr__(self, "rho", DensityOperator(self.rho))
        spec, min_eig, x, x_inv = _reference_arrays(self.rho.mat[None])
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
        object.__setattr__(self, "mat", _admitted(self.mat, "RN operator", herm_tol=1e-9, psd_tol=RN_PSD_TOL)[0])


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


def make_reference(rho: DensityOperator | np.ndarray) -> ReferenceState:
    """``ReferenceState(rho)``: rho (a plain array is checked as a ``DensityOperator``)
    must have a min eigenvalue above ``ADMISSIBILITY_CUTOFF``; it bounds ||rho^-1||,
    the scale of every tolerance."""
    return ReferenceState(rho)


def _reference_arrays(rho: np.ndarray) -> tuple:
    """``(spectrum, min_eig, x, x_inv)`` of each reference state of a stack: the one
    path that decomposes (phase-fixed), admits above ``ADMISSIBILITY_CUTOFF`` and
    forms the probe matrices of a reference, for the round trip's stacks and a
    ``ReferenceState``.  The cutoff keeps 1/min_eig below 1e10."""
    spec = spectral_decomposition(rho)
    min_eig = spec.eigenvalues[:, 0]
    if (min_eig <= ADMISSIBILITY_CUTOFF).any():
        raise NotAdmissibleError(
            f"min eigenvalue {min_eig.min():.3e} <= cutoff {ADMISSIBILITY_CUTOFF:.3e}: state not invertible"
        )
    return spec, min_eig, *_probe_matrices(spec.eigenvalues, spec.eigenvectors)


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
    return DensityOperator._checked(_probe_outputs(_probed_factor(t, ref), ref.x)[1])


def _probed_factor(t: KrausChannel, ref: ReferenceState) -> np.ndarray:
    """t's Choi factor, once t's input is checked to be the reference's: the one probe-dimension check."""
    if t.dim_in != ref.dim:
        raise ValueError(f"channel input dim {t.dim_in} != reference dim {ref.dim}")
    return t._factor


def _probe_outputs(factor: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`forward_map` from a Choi factor K, C = K K†, and a probe matrix,
    or from stacks of them: ``(G, w)`` with G = (1 ⊗ X) K and w = G G†.

    Only the unit trace is checked, which fails for a map that is not
    trace-preserving; the outputs are Hermitian by construction and PSD up
    to rounding.
    """
    lifted = _lift(x, factor)
    w = _gram(lifted)
    _check_unit_traces(w, "probe output trace")
    return lifted, w


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
    return RNOperator(mat=_gram(_lift(ref.x_inv.conj().T, _probed_factor(t, ref))))


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
    admitted here, as a ``DensityOperator`` is at construction, as a square
    matrix with finite entries and a Hermiticity defect within
    ``linalg.HERMITICITY_TOL``.  One ``eigvalsh`` of w decides the rest (the
    one that admitted w, where a read-only ``DensityOperator`` kept it; see
    :func:`_reconstruct_stack`): an eigenvalue below -W_PSD_TOL raises
    :class:`NotCompletelyPositiveError`; a w whose smallest eigenvalue is
    above tau(D)·||w||_op (:func:`_cholesky_threshold`) is factored by
    Cholesky; any other w takes one ``eigh``.  That is the one clip of w, array or ``DensityOperator``:
    eigenvalues in [-W_PSD_TOL, 0) are zeroed, the trace restored and their
    whole weight reported as ``clip_magnitude``, and eigenvalues up to
    CHOI_REL_TOL·||w||_op are dropped.  The map's Kraus operators are cut
    from the factor of C that the factor of w gives.
    """
    w_mat, lam = (w.mat, w._eigenvalues) if isinstance(w, DensityOperator) else _admitted(w, "state")
    if len(w_mat) % ref.dim != 0:
        raise ValueError(f"state dim {len(w_mat)} is not a multiple of reference dim {ref.dim}")
    factor, tp, consistency, clipped = _reconstruct_stack(w_mat[None], ref.x_inv[None], lam=lam)
    return ReconstructionResult(
        cp_map=_channel_of(factor[0], ref.dim, float(tp[0])),
        tp_residual=float(tp[0]),
        consistency_residual=float(consistency[0]),
        clip_magnitude=float(clipped[0]),
    )


def _cholesky_threshold(dim: int) -> float:
    """tau(D): ``reconstruct`` factors a D × D state w by Cholesky when eigvalsh's smallest
    eigenvalue of w is above tau(D) times its largest.

    Cholesky runs to completion on a positive-definite A = Δ H Δ, Δ² = diag(A),
    when lambda_min(H) > b = Dγ/(1 − Dγ) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.7, after Demmel), with γ = γ_{D+2} =
    (D+2)u/(1 − (D+2)u), u = 2⁻⁵³, the complex inner product's constant.  As
    diag(A) <= lambda_max(A), lambda_min(H) >= lambda_min(A)/lambda_max(A).
    eigvalsh is backward stable: each computed eigenvalue is within e·||w||_op
    of the true one, e = D·u in the model taken here (Golub and Van Loan,
    Matrix Computations, 4th ed., §8.3).  A computed ratio above
    (b + e)/(1 − e) therefore leaves a true ratio above b, and
    ``np.linalg.cholesky`` cannot fail on a state sent to it.  tau is never
    below CHOI_REL_TOL, so no state whose rank cut would drop a column goes to
    Cholesky.
    """
    u = 2.0**-53
    gamma = (dim + 2) * u / (1.0 - (dim + 2) * u)
    b, e = dim * gamma / (1.0 - dim * gamma), dim * u
    return max(CHOI_REL_TOL, (b + e) / (1.0 - e))


def _floor_margin(dim: int) -> float:
    """2·tau(D) + 16·D·u: a floor on the eigenvalues of a depolarized D × D probe output above
    which the ``eigvalsh`` that :func:`_reconstruct_stack` decides by is proven to choose Cholesky.

    The round trip gives the floor eps/D for a chunk of outputs w = fl((1 − eps)·w0 + (eps·1)/D),
    each w0 = fl((P + P†)/2), P = fl(G G†), of a D × r factor G, r <= D, checked to unit trace
    within 1e-10, so that t = ||G||_F² = tr G G† < 1 + 1e-9.  In the model of
    :func:`_cholesky_threshold`, with γ = γ_{D+2} and u = 2⁻⁵³: |P − G G†| <= γ·|G||G|† entrywise,
    and |G||G|† <= a aᵀ, a_i the row norms of G, so that error has operator norm at most γ·t; the
    Hermitian part, fl(1 − eps), the product, fl(eps/D) and the diagonal sum each round by at most
    u·(1 + γ)·t.  So w is (1 − eps)·G G† + (eps/D)·1 moved by δ <= (γ + 6u)·t, and by Weyl's
    inequality each eigenvalue of w is at least eps/D − δ and at most t + δ < 1.01.  eigvalsh moves
    each by at most D·u·||w||_op <= 1.01·D·u.  Its smallest computed eigenvalue then exceeds
    eps/D − δ − 1.01·D·u, and tau(D) times its largest is below 1.01·(1 + D·u)·tau(D).  With
    eps/D > 2·tau(D) + 16·D·u the first is the larger: 0.98·tau(D) >= 1.01·γ (tau >= D·γ for
    D >= 2, tau >= 1e-14 at D = 1) and 14.99·D·u >= 6.06·u.  So the skipped ``eigvalsh`` would have
    chosen Cholesky, its positive smallest eigenvalue passes the PSD check, and Cholesky cannot fail
    (tau's own proof): the trial gets the bits that ``reconstruct`` gives it alone.
    """
    return 2.0 * _cholesky_threshold(dim) + 16.0 * dim * 2.0**-53


def _reconstruct_stack(w: np.ndarray, x_inv: np.ndarray, floor: float = 0.0, lam: np.ndarray | None = None) -> tuple:
    """:func:`reconstruct` for a stack of states w and of inverse probe matrices x_inv,
    the output dimension read from w's rows as :func:`_lift` reads it.

    Returns ``(factor, tp_residual, consistency_residual, clip_magnitude)``.
    One eigvalsh decides: the eigenvalues of each w give the PSD check, and
    a trial whose smallest eigenvalue is above tau(D) times its largest
    (:func:`_cholesky_threshold`) has nothing to clip or cut, so its factor
    is the Cholesky factor L, w = L L†.  ``floor`` is a proven lower bound
    on every w's eigenvalues, eps/D for the round trip's depolarized outputs
    and 0 for any other stack; above :func:`_floor_margin` it proves every
    trial plain, and the deciding ``eigvalsh`` is skipped.  ``lam``, the admission eigenvalues
    of the one w of a stack of one, stands in for that ``eigvalsh`` only where (w + w†)/2 has
    w's very bytes: LAPACK reads the sign of a zero, which the Hermitian part can flip, so
    only identical bytes give identical eigenvalues.  Every other trial takes an ``eigh``,
    w = U diag(lam) U†, for the clip and the rank cutoff, and its factor is
    U diag(sqrt(lam·keep)), with zero columns where lam is cut.  Cholesky is also the more
    accurate factor: on a graded w = Δ H Δ, such as a noiseless output under a diagonal
    reference, its error follows the condition of H rather than 1/min_eig (Demmel, LAWN 14;
    Higham ch. 10).

    The factors of w are built first, into one array: one Cholesky of the whole stack where
    every trial is plain, else Cholesky of the plain trials and ``eigh`` of the others, each
    gathered by mask.  That array is then lifted once, by the one congruence 1 ⊗ X⁻¹ with X⁻¹
    broadcast over the stack: either factor of w, so lifted, is a factor F of the recovered
    Choi matrix C = F F†, and no C-sized matrix is formed.  The residuals are read from
    d1 × d1 marginals: tr_out C from F, and X⁻¹ tr_out(w) X⁻† of the clipped w from the same
    factor before the cut.  Where the cut keeps every column, the two are one marginal and one
    ``eigvalsh`` gives both norms; only the trials whose cut drops a column zero it and take a
    second marginal of F.  Each trial's path is its own, so a stack gives the bits of single calls.
    """
    d1 = x_inv.shape[-1]
    _check_unit_traces(w, "state trace")
    h = hermitian_part(w)
    clipped, cut = np.zeros(len(h)), ()
    plain = floor > _floor_margin(h.shape[-1])  # the floor proves every trial plain
    if not plain:
        lam = lam[None] if lam is not None and h.tobytes() == w.tobytes() else np.linalg.eigvalsh(h)
        lam = _cp_checked(lam, W_PSD_TOL, "input state")
        plain = lam[:, 0] > _cholesky_threshold(h.shape[-1]) * lam[:, -1]
    if plain is True or plain.all():  # the whole stack at once: no gather of h, no scatter of the factor
        factor = np.linalg.cholesky(h)
    else:
        rest, factor = np.flatnonzero(~plain), np.empty_like(h)
        if plain.any():
            factor[plain] = np.linalg.cholesky(h[plain])
        lam, u = np.linalg.eigh(h[rest])
        lam, clipped[rest] = _clip_spectra(lam)
        factor[rest] = u * np.sqrt(lam)[:, None, :]
        keep = lam > CHOI_REL_TOL * lam[:, -1:]
        dropped = ~keep.all(axis=-1)
        cut, keep = rest[dropped], keep[dropped]
    factor = _lift(x_inv, factor)  # rebound: w's factor is freed before the marginal copies the lifted one
    tp, consistency = _marginal_defects(factor, d1)
    if len(cut):
        factor[cut] = np.where(keep[:, None, :], factor[cut], 0.0)
        tp[cut] = _marginal_defects(factor[cut], d1)[0]
    return factor, tp, consistency, clipped
