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


class SingularOperatorError(ValueError):
    """Raised when a negative matrix power hits an eigenvalue below cutoff."""


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor varying slowly."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(m: np.ndarray, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``m`` must be square of size ``dims[0] * dims[1]``; ``which`` selects
    the factor to trace over (``"first"`` or ``"second"``).
    """
    d_a, d_b = dims
    m = np.asarray(m)
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {dims}, got {m.shape}")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if which == "first":
        return np.einsum("abad->bd", t)
    if which == "second":
        return np.einsum("abcb->ac", t)
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
    vectors = np.asarray(vectors, dtype=complex)
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # Per-pivot scalar division and a column-by-scalar product keep the bits
    # of the column loop: numpy's array division rounds |p|/p differently.
    phases = np.array([abs(p) / p if abs(p) > 0 else 1.0 for p in pivots], dtype=complex)
    return (vectors.T * phases[:, None]).T


def spectral_decomposition(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of (m + m†)/2 with deterministic phases."""
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    return Spectrum(eigenvalues=vals, eigenvectors=_fix_column_phases(vecs))


def psd_power(m: np.ndarray, exponent: float, cutoff: float | None = None) -> np.ndarray:
    """Real power of a Hermitian PSD matrix via spectral calculus.

    For negative exponents every eigenvalue must exceed ``cutoff``
    (default ``1e-12 * max eigenvalue``, a scale-invariant invertibility
    test); otherwise :class:`SingularOperatorError` is raised.  For
    nonnegative exponents, small negative eigenvalues are clipped to 0.
    """
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    if exponent < 0:
        if cutoff is None:
            cutoff = 1e-12 * max(float(vals[-1]), 0.0)
        if float(vals[0]) < cutoff or float(vals[0]) <= 0.0:
            raise SingularOperatorError(
                f"eigenvalue {vals[0]:.3e} below cutoff {cutoff:.3e} for exponent {exponent}"
            )
        powered = vals**exponent
    else:
        powered = np.clip(vals, 0.0, None) ** exponent
    return (vecs * powered) @ vecs.conj().T


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix.

    Construction validates the three invariants.  Eigenvalues in
    ``[-1e-10, 0)`` are treated as numerical noise and clipped to zero
    (rebuilding the matrix); anything more negative is rejected.
    """

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density operator entries must be finite")
        herm_defect = operator_norm(m - m.conj().T)
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: defect {herm_defect:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
        vals = np.linalg.eigvalsh(hermitian_part(m))
        if vals[0] < -PSD_ADMISSION_TOL:
            raise ValueError(f"not PSD: min eigenvalue {vals[0]:.3e}")
        if vals[0] < 0.0:
            vals, vecs = np.linalg.eigh(hermitian_part(m))
            m = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        object.__setattr__(self, "mat", m)

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


def clip_to_density(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Project onto the density cone: zero negative eigenvalues, renormalize.

    Returns the projected matrix and the total negative weight removed.
    """
    h = hermitian_part(m)
    return clip_eigenpairs(h, *np.linalg.eigh(h))


def clip_eigenpairs(h: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`clip_to_density` of a Hermitian h from its eigenpairs (vals, vecs)."""
    negative = float(-np.sum(np.clip(vals, None, 0.0)))
    if negative == 0.0:
        return h, 0.0
    vals = np.clip(vals, 0.0, None)
    total = float(np.sum(vals))
    if total <= 0.0:
        raise ValueError("matrix has no positive spectral weight")
    return hermitian_part((vecs * (vals / total)) @ vecs.conj().T), negative


def fidelity_psd(a: np.ndarray, b: np.ndarray) -> float:
    """(tr sqrt(a^{1/2} b a^{1/2}))^2 for PSD matrices, without clamping.

    Eigenvalues of the inner sandwich below 1e-13 of its largest one are
    zeroed: the square root would otherwise amplify eigensolver noise on
    rank-deficient inputs far above the accuracy of everything else.
    """
    root = psd_power(a, 0.5)
    inner_vals = np.linalg.eigvalsh(hermitian_part(root @ np.asarray(b) @ root))
    floor = 1e-13 * max(float(inner_vals[-1]), 0.0)
    inner_vals = np.where(inner_vals < floor, 0.0, inner_vals)
    return float(np.sum(np.sqrt(np.clip(inner_vals, 0.0, None))) ** 2)


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
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
