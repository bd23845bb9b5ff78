"""Dense complex linear algebra primitives.

Everything in this package is built on plain ``numpy`` arrays with one
global index convention for composite systems: the joint index of a
tensor factor pair (a, b) is ``a * dim_b + b``, i.e. the first factor
varies slowly.  Tensor products are ``np.kron``, vectorization is a
row-major ``reshape``, and the partial trace over the output factor is
``channel._marginal``; all three follow this convention, so they stay
mutually consistent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_ADMISSION_TOL = 1e-10
TRACE_TOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2, for one matrix or for each matrix of a stack."""
    m = np.asarray(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True, eq=False)
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
    rows = np.argmax(np.abs(vectors), axis=-2)
    pivots = np.take_along_axis(vectors, rows[..., None, :], axis=-2)
    size = np.abs(pivots)
    return vectors * np.divide(size, pivots, out=np.ones_like(pivots), where=size > 0)


def spectral_decomposition(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of (m + m†)/2 with deterministic phases (stacks too)."""
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    return Spectrum(eigenvalues=vals, eigenvectors=_fix_column_phases(vecs))


def _check_finite_hermitian(m: np.ndarray, what: str, tol: float = HERMITICITY_TOL) -> None:
    """Raise ``ValueError`` unless m's entries are finite and ||m - m†||_op <= tol."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite")
    defect = _hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"{what} not Hermitian: defect {defect:.3e}")


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _gram(f: np.ndarray) -> np.ndarray:
    """The Hermitian part of F F†, for one factor F or for each of a stack:
    the one formula of every PSD operator the package forms from a factor."""
    return hermitian_part(f @ _adjoint(f))


def _hermiticity_defect(m: np.ndarray) -> float:
    """||m - m†||_op of a square matrix: the largest |eigenvalue| of the
    Hermitian i(m - m†), from one ``eigvalsh``.

    A matrix that equals its adjoint exactly, as every ``hermitian_part``
    output does, has defect 0 by definition and costs no decomposition; one
    whose m - m† overflows has defect inf.
    """
    with np.errstate(over="ignore"):
        diff = m - _adjoint(m)
    if not diff.any():
        return 0.0
    return float(_hermitian_norms(1j * diff)[0]) if np.isfinite(diff).all() else np.inf


def _hermitian_norms(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||h||_op, ||h||_1) of a Hermitian matrix, or of each matrix of a stack,
    from one ``eigvalsh``: the largest and the sum of the |eigenvalues|."""
    size = np.abs(np.linalg.eigvalsh(h))
    return size.max(axis=-1), size.sum(axis=-1)


def _eigen_factors(m: np.ndarray) -> np.ndarray:
    """V·sqrt(max(lam, 0)) from one ``eigh`` of (m + m†)/2, or of each matrix
    of a stack: a factor F of m's positive part, m₊ = F F†."""
    lam, vecs = np.linalg.eigh(hermitian_part(m))
    return vecs * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]


def _channel_fidelities(f1: np.ndarray, f2: np.ndarray, d_in: int) -> np.ndarray:
    """Channel fidelities from stacks of Choi factors f1 and f2, either a
    stack of one: (sum svd(F1† F2) / d_in)², clipped to [0, 1]."""
    s = np.linalg.svd(_adjoint(f1) @ f2, compute_uv=False).sum(axis=-1) / d_in
    return np.clip(s * s, 0.0, 1.0)


def _check_unit_traces(m: np.ndarray, what: str = "trace") -> None:
    """Raise ``ValueError`` unless the trace of m, or of each matrix of a
    stack m, is 1 within ``TRACE_TOL``; a NaN trace fails too."""
    traces = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(traces - 1.0)
    if not off.max() <= TRACE_TOL:
        raise ValueError(f"{what} {complex(traces[np.argmax(off)])} is not 1 within {TRACE_TOL}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix, kept as given (as a complex array).

    Construction checks, in this order: finite entries, Hermiticity, unit
    trace, then a smallest eigenvalue of at least ``-PSD_ADMISSION_TOL``,
    from one ``eigvalsh``.  Eigenvalues in that tolerance below 0 stay in
    the matrix; ``reconstruct`` clips them and reports their weight.  This
    is where states from JSON and user code are checked; the states the
    package builds itself are wrapped by :meth:`_checked` instead.
    """

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        _check_finite_hermitian(m, "density operator")
        _check_unit_traces(m)
        min_eig = np.linalg.eigvalsh(hermitian_part(m))[0]
        if min_eig < -PSD_ADMISSION_TOL:
            raise ValueError(f"not PSD: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "mat", m)

    @classmethod
    def _checked(cls, mat: np.ndarray) -> DensityOperator:
        """Wrap a state the package built itself (a probe output, a disturbed
        one) without checking it: it is Hermitian and of unit trace by
        construction, and PSD up to a rounding error that ``reconstruct`` clips."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        return rho

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def pure_state(vector: np.ndarray) -> DensityOperator:
    """|v><v| / <v|v> as a density operator."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(v, v).real)
    if not 0 < norm_sq < np.inf:
        raise ValueError(f"cannot normalize a vector of squared norm {norm_sq}")
    return DensityOperator(np.outer(v, v.conj()) / norm_sq)


def maximally_mixed(d: int) -> DensityOperator:
    return DensityOperator(np.eye(d, dtype=complex) / d)


def _clip_spectra(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each ascending spectrum of a stack onto the probability simplex
    the way a state is clipped: zero the negative eigenvalues, renormalize.

    Returns the clipped spectra and the negative weight removed from each;
    spectra with no negative eigenvalue come back as they are.  The one clip
    of a probe output is ``reconstruct``'s; the jitter noise model clips its
    disturbed states too, as part of their definition, and rebuilds them.
    """
    moved = vals[:, 0] < 0.0  # eigenvalues ascend
    negative = np.zeros(len(vals))
    if not moved.any():
        return vals, negative
    negative[moved] = -np.sum(np.clip(vals[moved], None, 0.0), axis=-1)
    kept = np.clip(vals[moved], 0.0, None)
    total = np.sum(kept, axis=-1)
    if (total <= 0.0).any():
        raise ValueError("matrix has no positive spectral weight")
    vals = vals.copy()
    vals[moved] = kept / total[:, None]
    return vals, negative


def state_fidelity(r1: DensityOperator, r2: DensityOperator) -> float:
    """Mixed-state fidelity (tr sqrt(r1^{1/2} r2 r1^{1/2}))^2, in [0, 1].

    It is the channel fidelity of the maps C -> H that prepare r1 and r2
    (d_in = 1): ||F1† F2||_1² over each state's eigen-factor, r = F F†.
    """
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    f = _eigen_factors(np.array([r1.mat, r2.mat]))
    return float(_channel_fidelities(f[:1], f[1:], 1)[0])


UNITARY_SITE, CHANNEL_SITE, NOISE_SITE, CB_STARTS_SITE = 0, 1, 3, 4  # renumbering would move the draws


def _seed(seed) -> int:
    """A seed of the draw rule: an integer (numpy integers too, not floats) in [0, 2**128)."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be non-negative and below 2**128, got {seed}")
    return seed


def _draw(seeds, site: int, *fills: tuple[str, tuple[int, ...]]) -> list[np.ndarray]:
    """The package's one draw rule: per seed (a :func:`_seed` value, checked where it
    entered), reset one ``Generator`` once, to counter (0, 0, 0, site) of Philox(key=seed),
    then fill the seed's row of one array per (method, shape) of ``fills``, in order, by
    that ``Generator`` method with ``out=``."""
    gen = np.random.Generator(np.random.Philox(0))
    calls = [(getattr(gen, method), np.empty((len(seeds), *shape))) for method, shape in fills]
    state = {"counter": (0, 0, 0, site), "key": None}
    full = {"bit_generator": "Philox", "state": state, "buffer": (0, 0, 0, 0),
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for n, seed in enumerate(seeds):
        state["key"] = (seed % 2**64, seed >> 64)
        gen.bit_generator.state = full
        for fill, out in calls:
            fill(out=out[n])
    return [out for _, out in calls]


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic per seed.

    QR of a complex standard-Gaussian matrix with the R-diagonal phase
    correction that makes the distribution exactly Haar.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    [z] = _draw([_seed(seed)], UNITARY_SITE, ("standard_normal", (d, 2, d)))
    return _haar(z)[0]


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitary columns from each item's normals, column j = z[n, j, 0] + 1j z[n, j, 1],
    with one stacked QR.  Householder QR of a matrix's leading columns gives the
    leading columns of its Q and R: fewer columns are the full unitary's first ones."""
    q, r = np.linalg.qr((z[:, :, 0] + 1j * z[:, :, 1]).swapaxes(-1, -2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]
