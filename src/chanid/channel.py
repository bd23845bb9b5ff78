"""Completely positive maps: Kraus, Choi and Stinespring forms.

Choi matrices live on (output ⊗ input) with the output factor varying
slowly, matching the package-wide index convention, and carry the factor
d_in: C = (T ⊗ id)(d_in · |Omega><Omega|), so tr C = d_in for a channel.  A
``KrausChannel`` holds one factor F of its Choi matrix, which the probe
map, the RN operator, every channel fidelity and the TP flag read: the
Kraus vectors vec(A_k) for a map built from Kraus operators, or, for a map
built by :func:`from_choi` or ``reconstruct``, the factor its input's one
eigendecomposition gives, with zero columns where an eigenvalue is cut.
Those maps get their Kraus operators from a thin SVD of that factor, and
only there.  The Choi matrix C = F F†, the Gram product ``linalg._gram``
of F, is formed once at construction and returned by :func:`choi`.
Stinespring dilations have the shape V: H_out -> H_in ⊗ E, so that
T(rho) = V† (rho ⊗ 1_E) V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    CHANNEL_SITE,
    DensityOperator,
    _adjoint,
    _check_finite_hermitian,
    _draw,
    _fix_column_phases,
    _gram,
    _haar,
    _hermitian_norms,
    _seed,
    hermitian_part,
)

TP_FLAG_TOL = 1e-9
CHOI_HERM_TOL = 1e-10
DOMINATION_PSD_TOL = 1e-9
FROM_CHOI_RANK_CUTOFF = 1e-10
FROM_CHOI_PSD_TOL = 1e-8


class NotCompletelyPositiveError(ValueError):
    """Raised when a matrix that must be a CP-map Choi matrix is not PSD."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CP map given by an ordered list of Kraus operators A_k: H_in -> H_out.

    The map is ``sum_k A_k rho A_k†``, ``kraus`` read-only views of one
    (r, dim_out, dim_in) array.  ``_factor`` is a factor F of its Choi
    matrix, whose columns vec(A_k) are that array for a map built from
    Kraus operators; C = F F† is built once at construction (read it with
    :func:`choi`).  ``trace_preserving`` is computed from F as
    ``||tr_out C - 1||_op <= 1e-9``; CP maps that are not channels (e.g.
    dominated maps, reconstructions from noisy data) simply carry the flag
    as False.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool = field(init=False)
    tp_defect: float = field(init=False)
    _choi: ChoiMatrix = field(init=False, repr=False, compare=False)
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("dimensions must be positive")
        one_array = isinstance(self.kraus, np.ndarray)  # an (r, dim_out, dim_in) array is checked at once
        ops = self.kraus if one_array else [np.asarray(a, dtype=complex) for a in self.kraus]
        if not len(ops):
            raise ValueError("at least one Kraus operator is required")
        for shape in [ops.shape[1:]] if one_array else [a.shape for a in ops]:
            if shape != (self.dim_out, self.dim_in):
                raise ValueError(f"Kraus operator shape {shape} != ({self.dim_out}, {self.dim_in})")
        ops = np.array(ops, dtype=complex)
        if not np.isfinite(ops).all():
            raise ValueError("Kraus entries must be finite")
        # the row-major flatten maps A[mu, i] to the Choi index mu * dim_in + i
        factor = ops.reshape(len(ops), -1).T
        # finite entries can still overflow in products; ChoiMatrix refuses the result
        with np.errstate(over="ignore", invalid="ignore"):
            c = ChoiMatrix(dim_in=self.dim_in, dim_out=self.dim_out, mat=_gram(factor))
        self._set_forms(ops, c, factor, float(_marginal_defects(factor, self.dim_in)[0]))

    def _set_forms(self, ops: np.ndarray, c: ChoiMatrix, factor: np.ndarray, tp_defect: float) -> None:
        ops.flags.writeable = False  # the views ops[k] are the map's only copy of its operators
        object.__setattr__(self, "kraus", tuple(ops))
        object.__setattr__(self, "_choi", c)
        object.__setattr__(self, "_factor", factor)
        object.__setattr__(self, "tp_defect", tp_defect)
        object.__setattr__(self, "trace_preserving", tp_defect <= TP_FLAG_TOL)

    @classmethod
    def _built(cls, dim_in: int, dim_out: int, ops: np.ndarray, c, factor, tp_defect: float) -> KrausChannel:
        """A map whose Kraus operators ops[k], Choi matrix, factor and TP defect
        come from one factor in :func:`_channel_of`: nothing to check or build again."""
        t = object.__new__(cls)
        object.__setattr__(t, "dim_in", dim_in)
        object.__setattr__(t, "dim_out", dim_out)
        t._set_forms(ops, ChoiMatrix(dim_in=dim_in, dim_out=dim_out, mat=c), factor, tp_defect)
        return t

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """sum_k A_k X A_k† for any dim_in x dim_in matrix X."""
        x = np.asarray(x)
        if x.shape != (self.dim_in, self.dim_in):
            raise ValueError(f"expected {self.dim_in}x{self.dim_in} input, got {x.shape}")
        ops = self._factor.T.reshape(-1, self.dim_out, self.dim_in)  # the factor's columns, zeros too
        return (ops @ x @ _adjoint(ops)).sum(axis=0)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Schroedinger-picture action on a state; valid when trace-preserving."""
        return DensityOperator(self.apply_matrix(rho.mat))

    def dual_apply(self, x: np.ndarray) -> np.ndarray:
        """Heisenberg-picture dual: sum_k A_k† X A_k on observables of H_out."""
        x = np.asarray(x)
        if x.shape != (self.dim_out, self.dim_out):
            raise ValueError(f"expected {self.dim_out}x{self.dim_out} input, got {x.shape}")
        ops = self._factor.T.reshape(-1, self.dim_out, self.dim_in)
        return (_adjoint(ops) @ x @ ops).sum(axis=0)


@dataclass(frozen=True, eq=False)
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
        _check_finite_hermitian(m, "Choi matrix", CHOI_HERM_TOL)
        object.__setattr__(self, "mat", m)


def choi(t: KrausChannel) -> ChoiMatrix:
    """Choi matrix (T ⊗ id)(d_in · |Omega><Omega|) of a CP map, built at its construction."""
    return t._choi


def _marginal(f: np.ndarray, d1: int) -> np.ndarray:
    """tr_out(F F†) on H_in of a factor F on H_out ⊗ H_in, or of each of a
    stack: sum_mu F_mu F_mu† over the d1-row blocks F_mu of F, one d1 × d1
    Gram product (for Kraus vectors it is the transpose of sum_k A_k† A_k)."""
    rows = f.reshape(*f.shape[:-2], -1, d1, f.shape[-1]).swapaxes(-3, -2).reshape(*f.shape[:-2], d1, -1)
    return _gram(rows)


def _marginal_defects(f: np.ndarray, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """(||tr_out C - 1||_op, ||tr_out C - 1||_1), C = F F†: the TP defect and the consistency residual."""
    return _hermitian_norms(_marginal(f, d1) - np.eye(d1))


def from_choi(c: ChoiMatrix) -> KrausChannel:
    """Extract a minimal Kraus set from a PSD Choi matrix.

    One ``eigh`` of C gives the factor V diag(sqrt(lam·keep)), keep =
    lam > ``FROM_CHOI_RANK_CUTOFF``, from which :func:`_channel_of` cuts the
    Kraus operators; an eigenvalue below ``-FROM_CHOI_PSD_TOL`` means the
    matrix is not a CP-map Choi matrix and raises
    :class:`NotCompletelyPositiveError`.
    """
    lam, vecs = np.linalg.eigh(hermitian_part(c.mat))
    if lam[0] < -FROM_CHOI_PSD_TOL:
        raise NotCompletelyPositiveError(f"Choi matrix has eigenvalue {lam[0]:.3e} < -{FROM_CHOI_PSD_TOL:.1e}")
    factor = vecs * np.sqrt(np.where(lam > FROM_CHOI_RANK_CUTOFF, lam, 0.0))
    return _channel_of(factor, c.dim_in)


def _channel_of(factor: np.ndarray, d1: int) -> KrausChannel:
    """The ``KrausChannel`` on H_in = C^d1 with Choi matrix C = F F† of one
    (d2·d1)-row factor F: the only place Kraus operators are cut.  d2 and
    the TP defect ||tr_out C - 1||_op are read from F.

    A thin SVD of F's nonzero columns gives the operators: the left singular
    vectors, which are C's eigenvectors, phase-fixed, scaled by the singular
    values, put in ascending order as ``eigh`` orders C's eigenpairs and
    unvectorized, all into one array.  The map keeps F itself as its factor, so its
    fidelities read the bits a stacked run reads, and caches the Gram
    product F F† as its Choi matrix.
    """
    d2 = len(factor) // d1
    kept = factor[:, factor.any(axis=0)]
    if kept.size:
        u, s, _ = np.linalg.svd(kept, full_matrices=False)
        ops = (_fix_column_phases(u[:, ::-1]) * s[::-1]).T.reshape(-1, d2, d1)
    else:
        ops = np.zeros((1, d2, d1), dtype=complex)
    return KrausChannel._built(d1, d2, ops, _gram(factor), factor, float(_marginal_defects(factor, d1)[0]))


def tensor_with_identity(t: KrausChannel, d_anc: int) -> KrausChannel:
    """T ⊗ id on an ancilla of dimension d_anc (Kraus set {A_k ⊗ 1})."""
    if d_anc < 1:
        raise ValueError("ancilla dimension must be >= 1")
    kraus = tuple(np.kron(a, np.eye(d_anc)) for a in t.kraus)
    return KrausChannel(dim_in=t.dim_in * d_anc, dim_out=t.dim_out * d_anc, kraus=kraus)


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Tensor product map with Kraus set {A_i ⊗ B_j}."""
    return KrausChannel(
        dim_in=a.dim_in * b.dim_in,
        dim_out=a.dim_out * b.dim_out,
        kraus=tuple(np.kron(x, y) for x in a.kraus for y in b.kraus),
    )


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Composition (after ∘ before) with the product Kraus set."""
    if before.dim_out != after.dim_in:
        raise ValueError(f"cannot compose: inner dims {before.dim_out} vs {after.dim_in} differ")
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
    ops = np.conj(from_choi(choi(t)).kraus)
    # V[(i, k), mu] = conj(A_k[mu, i])
    return ops.transpose(2, 0, 1).reshape(t.dim_in * len(ops), t.dim_out)


def is_completely_dominated(s: KrausChannel, t: KrausChannel, lam: float) -> bool:
    """Whether lam * T - S is completely positive (Choi PSD to -1e-9)."""
    if (s.dim_in, s.dim_out) != (t.dim_in, t.dim_out):
        raise ValueError("dimension pairs must match")
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    diff = lam * choi(t).mat - choi(s).mat
    return bool(np.linalg.eigvalsh(hermitian_part(diff))[0] >= -DOMINATION_PSD_TOL)


def random_channel(d1: int, d2: int, kraus_rank: int, seed: int) -> KrausChannel:
    """Random exactly-trace-preserving channel, deterministic per seed.

    Kraus operators are the environment blocks of a Haar-random isometry:
    A_j = (1 ⊗ <e_j|) W with W the first d1 columns of a Haar unitary on
    H_out ⊗ C^rank.  Requires d2 * kraus_rank >= d1 or no trace-preserving
    channel of that rank exists.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be positive")
    if not 1 <= kraus_rank <= d1 * d2:
        raise ValueError(f"kraus_rank must be in [1, {d1 * d2}], got {kraus_rank}")
    if d2 * kraus_rank < d1:
        raise ValueError(f"no isometry H_in -> H_out ⊗ E exists for d1={d1}, d2={d2}, rank={kraus_rank}")
    [factor] = _random_factors(d1, d2, kraus_rank, [_seed(seed)])
    return KrausChannel(dim_in=d1, dim_out=d2, kraus=tuple(factor.T.reshape(kraus_rank, d2, d1)))


def _random_factors(d1: int, d2: int, kraus_rank: int, seeds) -> np.ndarray:
    """The Choi factors K = [vec(A_1) ... vec(A_r)] of :func:`random_channel` for each seed."""
    [z] = _draw(seeds, CHANNEL_SITE, ("standard_normal", (d1, 2, d2 * kraus_rank)))
    return _kraus_factors(z, d2, kraus_rank)


def _kraus_factors(z: np.ndarray, d2: int, kraus_rank: int) -> np.ndarray:
    """The Choi factors of :func:`random_channel` from each seed's first draw at
    ``CHANNEL_SITE``, its normals z[n] of shape (d1, 2, d2 · kraus_rank), with one stacked QR."""
    n, d1 = z.shape[:2]
    # row (mu, j) of W is the mu-th output row of A_j
    kraus = np.moveaxis(_haar(z).reshape(n, d2, kraus_rank, d1), 2, 0)
    return kraus.reshape(kraus_rank, n, d2 * d1).transpose(1, 2, 0)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(dim_in=d, dim_out=d, kraus=(np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """The channel rho -> u rho u†; its TP defect ||u†u - 1||_op must be at most 1e-10."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    t = KrausChannel(dim_in=u.shape[0], dim_out=u.shape[0], kraus=(u,))  # checks u is finite
    if t.tp_defect > 1e-10:
        raise ValueError("matrix is not unitary")
    return t


def depolarizing_channel(lam: float, d: int) -> KrausChannel:
    """rho -> (1 - lam) rho + lam tr(rho) 1/d."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {lam}")
    ops = []
    if lam < 1.0:
        ops.append(np.sqrt(1.0 - lam) * np.eye(d, dtype=complex))
    if lam > 0.0:  # sqrt(lam / d) |i><j| for i, j in row-major order
        ops += list(np.sqrt(lam / d) * np.eye(d * d, dtype=complex).reshape(d * d, d, d))
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
