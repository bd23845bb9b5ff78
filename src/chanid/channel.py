"""Completely positive maps: Kraus, Choi and Stinespring forms.

Choi matrices live on (output ⊗ input) with the output factor varying
slowly, matching the package-wide index convention, and carry the factor
d_in: C = (T ⊗ id)(d_in · |Omega><Omega|), so tr C = d_in for a channel.  Each
``KrausChannel`` builds its Choi matrix once, at construction, and every
consumer (``choi``, the probe map, the metrics, the trace-preservation
flag) reads that one matrix.  Stinespring dilations have the shape
V: H_out -> H_in ⊗ E, so that T(rho) = V† (rho ⊗ 1_E) V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DensityOperator,
    _hermiticity_defect,
    _random_unitaries,
    hermitian_part,
    operator_norm,
    partial_trace,
    spectral_decomposition,
    tensor_product,
)

TP_FLAG_TOL = 1e-9
CHOI_HERM_TOL = 1e-10
DOMINATION_PSD_TOL = 1e-9


class NotCompletelyPositiveError(ValueError):
    """Raised when a matrix that must be a CP-map Choi matrix is not PSD."""


@dataclass(frozen=True)
class KrausChannel:
    """CP map given by an ordered list of Kraus operators A_k: H_in -> H_out.

    The map is ``sum_k A_k rho A_k†``.  Its Choi matrix is built once at
    construction (read it with :func:`choi`).  ``trace_preserving`` is
    computed from it as ``||tr_out C - 1||_op <= 1e-9``; CP maps that are
    not channels (e.g. dominated maps, reconstructions from noisy data)
    simply carry the flag as False.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool = field(init=False)
    tp_defect: float = field(init=False)
    _choi: ChoiMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("dimensions must be positive")
        ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        for a in ops:
            if a.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {a.shape} != ({self.dim_out}, {self.dim_in})"
                )
            if not np.all(np.isfinite(a)):
                raise ValueError("Kraus entries must be finite")
        object.__setattr__(self, "kraus", ops)
        # the row-major flatten maps A[mu, i] to the Choi index mu * dim_in + i
        c = _choi_of_rows(np.array([a.reshape(-1) for a in ops]))
        self._set_choi(c, float(_marginal_singular_values(c, self.dim_in, self.dim_out)[0]))

    def _set_choi(self, c: np.ndarray, tp_defect: float) -> None:
        object.__setattr__(self, "_choi", ChoiMatrix(dim_in=self.dim_in, dim_out=self.dim_out, mat=c))
        object.__setattr__(self, "tp_defect", tp_defect)
        object.__setattr__(self, "trace_preserving", tp_defect <= TP_FLAG_TOL)

    @classmethod
    def _built(cls, dim_in: int, dim_out: int, kraus: tuple, c: np.ndarray, tp_defect: float) -> KrausChannel:
        """A map whose Kraus operators, Choi matrix and TP defect were built
        together by :func:`_minimal_kraus`: nothing to check or build again."""
        t = object.__new__(cls)
        for name, value in (("dim_in", dim_in), ("dim_out", dim_out), ("kraus", kraus)):
            object.__setattr__(t, name, value)
        t._set_choi(c, tp_defect)
        return t

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """sum_k A_k X A_k† for any dim_in x dim_in matrix X."""
        x = np.asarray(x)
        if x.shape != (self.dim_in, self.dim_in):
            raise ValueError(f"expected {self.dim_in}x{self.dim_in} input, got {x.shape}")
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for a in self.kraus:
            out += a @ x @ a.conj().T
        return out

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Schroedinger-picture action on a state; valid when trace-preserving."""
        return DensityOperator(self.apply_matrix(rho.mat))

    def dual_apply(self, x: np.ndarray) -> np.ndarray:
        """Heisenberg-picture dual: sum_k A_k† X A_k on observables of H_out."""
        x = np.asarray(x)
        if x.shape != (self.dim_out, self.dim_out):
            raise ValueError(f"expected {self.dim_out}x{self.dim_out} input, got {x.shape}")
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for a in self.kraus:
            out += a.conj().T @ x @ a
        return out


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix on H_out ⊗ H_in; PSD exactly when the map is CP."""

    dim_in: int
    dim_out: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        n = self.dim_out * self.dim_in
        if m.shape != (n, n):
            raise ValueError(f"Choi matrix must be {n}x{n}, got {m.shape}")
        defect = _hermiticity_defect(m)
        if defect > CHOI_HERM_TOL:
            raise ValueError(f"Choi matrix not Hermitian: defect {defect:.3e}")
        object.__setattr__(self, "mat", m)


def choi(t: KrausChannel) -> ChoiMatrix:
    """Choi matrix (T ⊗ id)(d_in · |Omega><Omega|) of a CP map, built at its construction."""
    return t._choi


def _choi_of_rows(rows: np.ndarray) -> np.ndarray:
    """C = sum_k v_k v_k† over rows[k] = vec(A_k), for one map or a stack of maps.

    The outer products are accumulated in Kraus order and C is returned as
    its Hermitian part; a zero row adds nothing.
    """
    n = rows.shape[-1]
    c = np.zeros(rows.shape[1:] + (n,), dtype=complex)
    for v, v_conj in zip(rows, rows.conj()):
        c += v[..., :, None] * v_conj[..., None, :]
    return hermitian_part(c)


def _marginal_singular_values(c: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Singular values, descending, of tr_out C - 1 for a Choi matrix C on
    H_out ⊗ H_in or a stack of them; the first is the TP defect
    (tr_out C is the transpose of sum_k A_k† A_k)."""
    return np.linalg.svd(partial_trace(c, (d2, d1), "first") - np.eye(d1), compute_uv=False)


def _minimal_kraus(c: np.ndarray, d1: int, d2: int, rank_cutoff, psd_tol) -> tuple[np.ndarray, ...]:
    """:func:`from_choi` for a stack of Choi matrices, without building channels.

    Returns ``(vectors, keep, c_rec, tp_defect)``.  Column k of ``vectors``
    is sqrt(lam_k) v_k for the k-th eigenpair in ascending order,
    phase-fixed, where ``keep`` (lam_k > rank_cutoff) and zero elsewhere, so
    the kept columns are a suffix.  ``c_rec`` and ``tp_defect`` are the Choi
    matrices and TP defects of the kept Kraus sets, built as a
    ``KrausChannel`` builds them.  ``rank_cutoff`` and ``psd_tol`` are
    scalars or one per matrix; an eigenvalue below -psd_tol raises
    :class:`NotCompletelyPositiveError`.
    """
    spec = spectral_decomposition(c)
    lam = spec.eigenvalues
    not_cp = lam[:, 0] < -np.asarray(psd_tol)
    if not_cp.any():
        i = np.argmax(not_cp)
        tol = np.broadcast_to(psd_tol, not_cp.shape)[i]
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {lam[i, 0]:.3e} < -{tol:.1e}"
        )
    keep = lam > np.reshape(rank_cutoff, (-1, 1))
    vectors = spec.eigenvectors * np.sqrt(np.where(keep, lam, 0.0))[:, None, :]
    kept = keep.any(axis=0)
    first = int(np.argmax(kept)) if kept.any() else len(kept)
    # the columns before the first one any matrix keeps are zero: they add nothing
    c_rec = _choi_of_rows(np.moveaxis(vectors, -1, 0)[first:])
    return vectors, keep, c_rec, _marginal_singular_values(c_rec, d1, d2)[:, 0]


def from_choi(
    c: ChoiMatrix, rank_cutoff: float = 1e-10, psd_tol: float = 1e-8
) -> KrausChannel:
    """Extract a minimal Kraus set from a PSD Choi matrix.

    Eigenpairs with eigenvalue > ``rank_cutoff`` become Kraus operators
    ``sqrt(lam) * unvec(v)``; eigenvalues below ``-psd_tol`` mean the matrix
    is not a CP-map Choi matrix and raise
    :class:`NotCompletelyPositiveError`.  Eigenvector phases are fixed so
    the result is deterministic.
    """
    found = _minimal_kraus(c.mat[None], c.dim_in, c.dim_out, rank_cutoff, psd_tol)
    return _channel_of(*(a[0] for a in found), c.dim_in, c.dim_out)


def _channel_of(vectors, keep, c_rec, tp_defect, d1: int, d2: int) -> KrausChannel:
    """The ``KrausChannel`` of one matrix of a :func:`_minimal_kraus` result."""
    ops = tuple(v.reshape(d2, d1) for v in vectors.T[keep]) or (np.zeros((d2, d1), dtype=complex),)
    return KrausChannel._built(d1, d2, ops, c_rec, float(tp_defect))


def tensor_with_identity(t: KrausChannel, d_anc: int) -> KrausChannel:
    """T ⊗ id on an ancilla of dimension d_anc (Kraus set {A_k ⊗ 1})."""
    if d_anc < 1:
        raise ValueError("ancilla dimension must be >= 1")
    eye = np.eye(d_anc)
    return KrausChannel(
        dim_in=t.dim_in * d_anc,
        dim_out=t.dim_out * d_anc,
        kraus=tuple(tensor_product(a, eye) for a in t.kraus),
    )


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Tensor product map with Kraus set {A_i ⊗ B_j}."""
    return KrausChannel(
        dim_in=a.dim_in * b.dim_in,
        dim_out=a.dim_out * b.dim_out,
        kraus=tuple(tensor_product(x, y) for x in a.kraus for y in b.kraus),
    )


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Composition (after ∘ before) with the product Kraus set."""
    if before.dim_out != after.dim_in:
        raise ValueError(
            f"cannot compose: inner dims {before.dim_out} vs {after.dim_in} differ"
        )
    return KrausChannel(
        dim_in=before.dim_in,
        dim_out=after.dim_out,
        kraus=tuple(a @ b for a in after.kraus for b in before.kraus),
    )


def stinespring(t: KrausChannel) -> np.ndarray:
    """Stinespring dilation V = sum_k A_k† ⊗ |e_k> from the canonical Kraus set.

    V maps H_out -> H_in ⊗ E with T(rho) = V†(rho ⊗ 1_E)V.  The Kraus set is
    first canonicalized through the Choi eigendecomposition so the
    environment dimension, ``V.shape[0] // t.dim_in``, equals the Choi rank.
    """
    canonical = from_choi(choi(t))
    k = len(canonical.kraus)
    v = np.zeros((t.dim_in * k, t.dim_out), dtype=complex)
    for j, a in enumerate(canonical.kraus):
        e = np.zeros((k, 1))
        e[j, 0] = 1.0
        v += tensor_product(a.conj().T, e)
    return v


def is_completely_dominated(s: KrausChannel, t: KrausChannel, lam: float) -> bool:
    """Whether lam * T - S is completely positive (Choi PSD to -1e-9)."""
    if (s.dim_in, s.dim_out) != (t.dim_in, t.dim_out):
        raise ValueError("dimension pairs must match")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    diff = lam * choi(t).mat - choi(s).mat
    return bool(np.linalg.eigvalsh(hermitian_part(diff))[0] >= -DOMINATION_PSD_TOL)


def random_channel(d1: int, d2: int, kraus_rank: int, seed: int) -> KrausChannel:
    """Random exactly-trace-preserving channel, deterministic per seed.

    Kraus operators are the environment blocks of a Haar-random isometry:
    A_j = (1 ⊗ <e_j|) W with W the first d1 columns of a Haar unitary on
    H_out ⊗ C^rank.  Requires d2 * kraus_rank >= d1 or no trace-preserving
    channel of that rank exists.
    """
    if not 1 <= kraus_rank <= d1 * d2:
        raise ValueError(f"kraus_rank must be in [1, {d1 * d2}], got {kraus_rank}")
    if d2 * kraus_rank < d1:
        raise ValueError(
            f"no isometry H_in -> H_out ⊗ E exists for d1={d1}, d2={d2}, rank={kraus_rank}"
        )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    kraus = _random_kraus(d1, d2, kraus_rank, [seed])
    return KrausChannel(dim_in=d1, dim_out=d2, kraus=tuple(kraus[:, 0]))


def _random_kraus(d1: int, d2: int, kraus_rank: int, seeds) -> np.ndarray:
    """Kraus operators of :func:`random_channel` for each seed, with one stacked QR.

    Entry ``[j, s]`` is the operator A_j of seed s.
    """
    w = _random_unitaries(d2 * kraus_rank, seeds)[:, :, :d1]
    # row (mu, j) of W is the mu-th output row of A_j
    return np.moveaxis(w.reshape(-1, d2, kraus_rank, d1), 2, 0)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(dim_in=d, dim_out=d, kraus=(np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    if operator_norm(u.conj().T @ u - np.eye(u.shape[0])) > 1e-10:
        raise ValueError("matrix is not unitary")
    return KrausChannel(dim_in=u.shape[0], dim_out=u.shape[0], kraus=(u,))


def depolarizing_channel(lam: float, d: int) -> KrausChannel:
    """rho -> (1 - lam) rho + lam tr(rho) 1/d."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {lam}")
    ops = []
    if lam < 1.0:
        ops.append(np.sqrt(1.0 - lam) * np.eye(d, dtype=complex))
    if lam > 0.0:
        for i in range(d):
            for j in range(d):
                a = np.zeros((d, d), dtype=complex)
                a[i, j] = np.sqrt(lam / d)
                ops.append(a)
    return KrausChannel(dim_in=d, dim_out=d, kraus=tuple(ops))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Qubit amplitude damping with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter must be in [0, 1], got {gamma}")
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(dim_in=2, dim_out=2, kraus=(a0, a1))


def zero_map(d1: int, d2: int) -> KrausChannel:
    return KrausChannel(dim_in=d1, dim_out=d2, kraus=(np.zeros((d2, d1), dtype=complex),))
