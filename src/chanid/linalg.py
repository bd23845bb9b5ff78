"""Dense complex linear algebra primitives.

Everything in this package is built on plain ``numpy`` arrays with one
global index convention for composite systems: the joint index of a
tensor factor pair (a, b) is ``a * dim_b + b``, i.e. the first factor
varies slowly.  ``np.kron`` and row-major ``reshape`` both follow this
convention, so tensor products, partial traces and vectorization stay
mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_ADMISSION_TOL = 1e-10
TRACE_TOL = 1e-10


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor varying slowly."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(m: np.ndarray, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator, or of each operator of a stack.

    ``m`` must be square of size ``dims[0] * dims[1]``; ``which`` selects
    the factor to trace over (``"first"`` or ``"second"``).
    """
    d_a, d_b = dims
    m = np.asarray(m)
    n = d_a * d_b
    if m.ndim < 2 or m.shape[-2:] != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {dims}, got {m.shape}")
    t = m.reshape(*m.shape[:-2], d_a, d_b, d_a, d_b)
    if which == "first":
        return np.einsum("...abad->...bd", t)
    if which == "second":
        return np.einsum("...abcb->...ac", t)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace norm requires a square matrix, got shape {m.shape}")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2, for one matrix or for each matrix of a stack."""
    m = np.asarray(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, each phase-fixed so its
    largest-magnitude entry is real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's first largest-magnitude entry real positive, in one
    matrix or in each matrix of a stack."""
    vectors = np.asarray(vectors, dtype=complex)
    flat = vectors.reshape(-1, *vectors.shape[-2:])
    rows = np.argmax(np.abs(flat), axis=1)
    pivots = flat[np.arange(len(flat))[:, None], rows, np.arange(flat.shape[2])]
    # Per-pivot division of numpy complex128 scalars keeps the bits of the
    # column loop: numpy's array division rounds |p|/p differently.
    phases = np.array([abs(p) / p if abs(p) > 0 else 1.0 for p in pivots.reshape(-1)], dtype=complex)
    return vectors * phases.reshape(*vectors.shape[:-2], 1, vectors.shape[-1])


def spectral_decomposition(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of (m + m†)/2 with deterministic phases (stacks too)."""
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    return Spectrum(eigenvalues=vals, eigenvectors=_fix_column_phases(vecs))


def psd_power(m: np.ndarray, exponent: float) -> np.ndarray:
    """Nonnegative real power of a Hermitian PSD matrix, or of each matrix of
    a stack, via spectral calculus.

    Small negative eigenvalues are clipped to 0 first.  A negative exponent
    raises ``ValueError``.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    return (vecs * np.clip(vals, 0.0, None)[..., None, :] ** exponent) @ _adjoint(vecs)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _hermiticity_defect(m: np.ndarray) -> float:
    """||m - m†||_op of a square matrix.

    A matrix that equals its adjoint exactly, as every ``hermitian_part``
    output does, has defect 0 by definition and costs no SVD.
    """
    diff = m - _adjoint(m)
    if not diff.any():
        return 0.0
    return float(np.linalg.svd(diff, compute_uv=False)[0])


def _check_unit_traces(m: np.ndarray, what: str = "trace") -> None:
    """Raise ``ValueError`` unless the trace of m, or of each matrix of a
    stack m, is 1 within ``TRACE_TOL``; a NaN trace fails too."""
    traces = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(traces - 1.0)
    if not off.max() <= TRACE_TOL:
        raise ValueError(f"{what} {complex(traces[np.argmax(off)])} is not 1 within {TRACE_TOL}")


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix.

    Construction validates the invariants, in this order: finite entries,
    Hermiticity, unit trace, then the PSD check.  Eigenvalues in
    ``[-1e-10, 0)`` are treated as numerical noise and clipped to zero
    (rebuilding the matrix); anything more negative is rejected.  This is
    where states from JSON and user code are checked; the states the
    package builds itself are wrapped by :meth:`_checked` instead.
    """

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density operator entries must be finite")
        defect = _hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: defect {defect:.3e}")
        _check_unit_traces(m)
        vals, vecs = np.linalg.eigh(hermitian_part(m))
        if vals[0] < -PSD_ADMISSION_TOL:
            raise ValueError(f"not PSD: min eigenvalue {vals[0]:.3e}")
        if vals[0] < 0.0:  # eigenvalues ascend
            m = (vecs * np.clip(vals, 0.0, None)) @ _adjoint(vecs)
        object.__setattr__(self, "mat", m)

    @classmethod
    def _checked(cls, mat: np.ndarray) -> DensityOperator:
        """Wrap a state the package built itself (a probe output, a disturbed
        one) without checking it.

        Such states are Hermitian and of unit trace by construction and PSD
        up to rounding: an eigenvalue may sit a rounding error below 0,
        which ``reconstruct`` clips.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        return rho

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def spectrum(self) -> Spectrum:
        return spectral_decomposition(self.mat)


def pure_state(vector: np.ndarray) -> DensityOperator:
    """|v><v| / <v|v> as a density operator."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(v, v).real)
    if norm_sq <= 0:
        raise ValueError("cannot normalize a zero vector")
    return DensityOperator(np.outer(v, v.conj()) / norm_sq)


def maximally_mixed(d: int) -> DensityOperator:
    return DensityOperator(np.eye(d, dtype=complex) / d)


def _clip_eigenpairs(h: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each Hermitian matrix h of a stack onto the density cone from
    its eigenpairs (vals, vecs): zero the negative eigenvalues, renormalize.

    Returns the projections and the negative weight removed from each;
    matrices with no negative eigenvalue come back as they are.
    """
    moved = vals[:, 0] < 0.0  # eigenvalues ascend
    negative = np.zeros(len(h))
    if not moved.any():
        return h, negative
    negative[moved] = -np.sum(np.clip(vals[moved], None, 0.0), axis=-1)
    kept = np.clip(vals[moved], 0.0, None)
    total = np.sum(kept, axis=-1)
    if (total <= 0.0).any():
        raise ValueError("matrix has no positive spectral weight")
    v = vecs[moved]
    h = h.copy()
    h[moved] = hermitian_part((v * (kept / total[:, None])[:, None, :]) @ _adjoint(v))
    return h, negative


def fidelity_psd(a: np.ndarray, b: np.ndarray) -> float:
    """(tr sqrt(a^{1/2} b a^{1/2}))^2 for PSD matrices, without clamping.

    Eigenvalues of the inner sandwich below 1e-13 of its largest one are
    zeroed: the square root would otherwise amplify eigensolver noise on
    rank-deficient inputs far above the accuracy of everything else.
    """
    return float(_fidelities_psd(np.asarray(a)[None], np.asarray(b)[None])[0])


def _fidelities_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`fidelity_psd` of each pair of matrices of two stacks."""
    root = psd_power(a, 0.5)
    inner_vals = np.linalg.eigvalsh(hermitian_part(root @ b @ root))
    floor = 1e-13 * np.maximum(inner_vals[:, -1], 0.0)
    inner_vals = np.where(inner_vals < floor[:, None], 0.0, inner_vals)
    sums = np.sum(np.sqrt(np.clip(inner_vals, 0.0, None)), axis=-1)
    # squared by the scalar power a single sum gets: libm pow(s, 2) and
    # numpy's array square s * s round differently
    return np.array([s**2 for s in sums.tolist()])


def state_fidelity(r1: DensityOperator, r2: DensityOperator) -> float:
    """Mixed-state fidelity (tr sqrt(r1^{1/2} r2 r1^{1/2}))^2, clamped to [0, 1]."""
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    return float(np.clip(fidelity_psd(r1.mat, r2.mat), 0.0, 1.0))


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic per seed.

    QR of a complex standard-Gaussian matrix with the R-diagonal phase
    correction that makes the distribution exactly Haar.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _random_unitaries(d, [seed])[0]


def _random_unitaries(d: int, seeds) -> np.ndarray:
    """:func:`random_unitary` for each seed, with one stacked QR."""
    gens = [np.random.default_rng(seed) for seed in seeds]
    z = np.array([g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for g in gens])
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]
