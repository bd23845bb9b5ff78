"""Dense complex linear algebra primitives.

Everything in this package is built on plain ``numpy`` arrays with one
global index convention for composite systems: the joint index of a
tensor factor pair (a, b) is ``a * dim_b + b``, i.e. the first factor
varies slowly.  Tensor products are ``np.kron``, vectorization is a
row-major ``reshape``, and the partial trace over the output factor is
``channel._marginal``; all three follow this convention, so they stay
mutually consistent.

Every operator entering the package (a ``DensityOperator``, ``ChoiMatrix``
or ``RNOperator``, an array given to ``reconstruct``) is admitted by
:func:`_admitted`, in this order: square and nonempty, finite, Hermitian
within its type's tolerance, then PSD where the type requires it; a state's
unit trace last.  A state on a read-only matrix keeps its PSD check's
eigenvalues, which ``reconstruct`` then decides by instead of its own.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_ADMISSION_TOL = 1e-10
TRACE_TOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2, for one matrix or for each matrix of a stack, as a new C-ordered array.

    The adjoint is copied once and m added and the sum halved in place, which gives the
    bits of the formula without its temporaries.  The halving divides by 2, as the formula
    does: a complex product by 0.5 keeps the sign of a -0.0 real part that the complex
    division by 2 turns to +0.0.
    """
    m = np.asarray(m)
    if m.dtype.kind not in "fc":  # an integer m: the formula's true division gives floats
        m = m.astype(float)
    out = np.conjugate(m.swapaxes(-1, -2), order="C")
    out += m
    out /= 2
    return out


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


def _admitted(m, what: str, herm_tol: float = HERMITICITY_TOL, psd_tol: float | None = None) -> tuple:
    """``(m, lam)``: m as a complex square matrix, or one ``ValueError`` line naming ``what``.  In
    order: square and nonempty, finite, ||m - m†||_op <= herm_tol by :func:`_hermiticity_defect`,
    then, if psd_tol is given, no eigenvalue of (m + m†)/2 below -psd_tol, from one ``eigvalsh``.
    lam is that ``eigvalsh`` where it was taken of m itself (a defect of 0), else None."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not len(m):
        raise ValueError(f"{what} must be square and nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite")
    defect = _hermiticity_defect(m)
    if defect > herm_tol:
        raise ValueError(f"{what} not Hermitian: defect {defect:.3e}")
    lam = None
    if psd_tol is not None:  # halved first: m + m† overflows where entries near the largest double add
        lam = np.linalg.eigvalsh(m if defect == 0 else m / 2 + _adjoint(m) / 2)
        if lam[0] < -psd_tol:
            raise ValueError(f"{what} not PSD: min eigenvalue {lam[0]:.3e}")
    return m, lam if defect == 0 else None


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
    s = np.clip(s, 0.0, 1.0)  # before squaring: for maps with huge Kraus entries s * s overflows
    return s * s


def _check_unit_traces(m: np.ndarray, what: str = "trace") -> None:
    """Raise ``ValueError`` unless the trace of m, or of each matrix of a
    stack m, is 1 within ``TRACE_TOL``; a NaN trace fails too."""
    with np.errstate(over="ignore"):  # an overflowing trace is inf, and fails
        traces = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(traces - 1.0)
    if not off.max() <= TRACE_TOL:
        raise ValueError(f"{what} {complex(traces[np.argmax(off)])} is not 1 within {TRACE_TOL}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix, kept as given (as a complex array).

    Construction checks, in this order: a nonempty square matrix, finite entries,
    Hermiticity, a smallest eigenvalue of at least ``-PSD_ADMISSION_TOL``
    (all by :func:`_admitted`), then unit trace.  Eigenvalues in that
    tolerance below 0 stay in the matrix; ``reconstruct`` clips them and
    reports their weight.  This is where states from JSON and user code are
    checked; the states the package builds itself are wrapped by :meth:`_checked`.
    A read-only matrix, such as one ``serialize.density_from_json`` decoded, keeps
    the admission's ``eigvalsh`` of itself in ``_eigenvalues`` for ``reconstruct``;
    a writable one keeps none, as its entries may change after admission.
    """

    mat: np.ndarray = field(repr=False)
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, lam = _admitted(self.mat, "density operator", psd_tol=PSD_ADMISSION_TOL)
        _check_unit_traces(m)
        object.__setattr__(self, "mat", m)
        if not m.flags.writeable:
            object.__setattr__(self, "_eigenvalues", lam)

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

    Returns the clipped spectra and the negative weight removed from each; spectra
    with no negative eigenvalue come back as they are.  Each spectrum has unit trace,
    so the weight it keeps is positive.  The one clip of a probe output is
    ``reconstruct``'s; the jitter noise model clips its disturbed states too, as
    part of their definition, and rebuilds them.
    """
    negative = 0.0 - np.sum(np.minimum(vals, 0.0), axis=-1)  # 0.0 - keeps an unclipped row's +0.0
    kept = np.maximum(vals, 0.0)
    return np.where(vals[:, :1] < 0.0, kept / np.sum(kept, axis=-1)[:, None], vals), negative  # eigenvalues ascend


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
    that ``Generator`` method with ``out=``.

    Consecutive fills of one method are made by one call per seed into one row buffer, and
    their arrays are views of it: a method draws its values one after another from the
    stream, so the one call reads the same stream, and gives the same values, as the calls
    in turn.
    """
    gen = np.random.Generator(np.random.Philox(0))
    calls, arrays = [], []  # one call per run of one method, into rows its fills' arrays are views of
    for method, run in itertools.groupby(fills, key=operator.itemgetter(0)):
        shapes = [shape for _, shape in run]
        ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        rows = np.empty((len(seeds), ends[-1]))
        calls.append((getattr(gen, method), rows))
        arrays += [rows[:, start:end].reshape(len(seeds), *shape) for shape, start, end in zip(shapes, ends, ends[1:])]
    state = {"counter": (0, 0, 0, site), "key": None}
    full = {"bit_generator": "Philox", "state": state, "buffer": (0, 0, 0, 0),
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for n, seed in enumerate(seeds):
        state["key"] = (seed % 2**64, seed >> 64)
        gen.bit_generator.state = full
        for fill, rows in calls:
            fill(out=rows[n])
    return arrays


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
