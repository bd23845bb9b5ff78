"""Distances and fidelities between channels.

The completely-bounded (diamond) distance between two channels is
estimated as a certified interval: the lower end is the best evaluated
value of the stabilized trace-norm objective over pure probe states
(a witness state is kept so the value can be re-checked), the upper end
is an analytic bound from the Jordan decomposition of the Choi-matrix
difference.  No claim of convergence to the exact norm is made; every
inequality consumed downstream only needs a valid interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel, choi
from .identify import ReferenceState, reconstruct
from .linalg import (
    DensityOperator,
    fidelity_psd,
    hermitian_part,
    operator_norm,
    partial_trace,
    spectral_decomposition,
    tensor_product,
    trace_norm,
)


@dataclass(frozen=True)
class NormInterval:
    """Certified enclosure lower <= ||.||_cb <= upper with a witness state."""

    lower: float
    upper: float
    argmax_state: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class BoundReport:
    """Reconstruction fidelity together with its analytic lower bound."""

    fidelity: float
    bound: float
    trace_dist_w: float
    rho_inv_norm: float
    dim: int


def _check_same_dims(t1: KrausChannel, t2: KrausChannel):
    if (t1.dim_in, t1.dim_out) != (t2.dim_in, t2.dim_out):
        raise ValueError(
            f"dimension mismatch: ({t1.dim_in},{t1.dim_out}) vs ({t2.dim_in},{t2.dim_out})"
        )


def channel_fidelity(t1: KrausChannel, t2: KrausChannel) -> float:
    """Mixed-state fidelity between the Choi states of two maps, in [0, 1].

    Equals 1 exactly when the maps coincide.
    """
    _check_same_dims(t1, t2)
    sigma1 = choi(t1, normalized=True).mat
    sigma2 = choi(t2, normalized=True).mat
    return float(np.clip(fidelity_psd(sigma1, sigma2), 0.0, 1.0))


def fvdg_gap(t1: KrausChannel, t2: KrausChannel) -> tuple[float, float]:
    """(2 - 2 sqrt(fidelity), trace distance of the Choi states).

    The first entry never exceeds the second (Fuchs / van de Graaf).
    """
    _check_same_dims(t1, t2)
    lhs = 2.0 - 2.0 * np.sqrt(channel_fidelity(t1, t2))
    rhs = trace_norm(choi(t1, normalized=True).mat - choi(t2, normalized=True).mat)
    return float(lhs), float(rhs)


def fidelity_lower_bound(trace_dist_w: float, rho_inv_norm: float, d1: int) -> float:
    """Analytic worst-case fidelity bound (1 - ||rho^-1|| d/2d1)^2, clamped.

    Clamping at zero before squaring keeps the bound valid where the
    linear estimate goes vacuous (parenthesis negative).
    """
    return float(max(0.0, 1.0 - rho_inv_norm * trace_dist_w / (2.0 * d1)) ** 2)


def worst_case_bound(
    w1: DensityOperator, w2: DensityOperator, ref: ReferenceState
) -> BoundReport:
    """Fidelity between the two reconstructed maps and its certified bound.

    The bound depends on the probe outputs only through their trace
    distance and on the reference only through 1 / (min eigenvalue).
    """
    if w1.dim != w2.dim:
        raise ValueError(f"dimension mismatch: {w1.dim} vs {w2.dim}")
    if w1.dim % ref.dim != 0:
        raise ValueError(f"state dim {w1.dim} is not a multiple of reference dim {ref.dim}")
    d1 = ref.dim
    d2 = w1.dim // d1
    rec1 = reconstruct(w1, ref, d2)
    rec2 = reconstruct(w2, ref, d2)
    fid = channel_fidelity(rec1.cp_map, rec2.cp_map)
    tdist = trace_norm(w1.mat - w2.mat)
    rho_inv_norm = 1.0 / ref.min_eig
    return BoundReport(
        fidelity=fid,
        bound=fidelity_lower_bound(tdist, rho_inv_norm, d1),
        trace_dist_w=tdist,
        rho_inv_norm=rho_inv_norm,
        dim=d1,
    )


def _lifted_kraus(t: KrausChannel, d_anc: int) -> tuple[np.ndarray, ...]:
    eye = np.eye(d_anc)
    return tuple(tensor_product(a, eye) for a in t.kraus)


def _stabilized_output(
    plus: tuple[np.ndarray, ...], minus: tuple[np.ndarray, ...], psi: np.ndarray
) -> np.ndarray:
    n = plus[0].shape[0] if plus else minus[0].shape[0]
    m = np.zeros((n, n), dtype=complex)
    for op in plus:
        v = op @ psi
        m += np.outer(v, v.conj())
    for op in minus:
        v = op @ psi
        m -= np.outer(v, v.conj())
    return m


def _objective(plus, minus, psi: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(hermitian_part(_stabilized_output(plus, minus, psi)))
    return float(np.sum(np.abs(vals)))


def cb_objective(t1: KrausChannel, t2: KrausChannel | None, psi: np.ndarray) -> float:
    """||((T1 - T2) ⊗ id)(|psi><psi|)||_1 for a unit probe vector psi.

    This is the exact function the interval optimizer maximizes, exposed so
    reported lower bounds can be re-checked at their witness states.
    """
    if t2 is not None:
        _check_same_dims(t1, t2)
    d_anc = t1.dim_in
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != t1.dim_in * d_anc:
        raise ValueError(f"probe vector has length {psi.size}, expected {t1.dim_in * d_anc}")
    plus = _lifted_kraus(t1, d_anc)
    minus = _lifted_kraus(t2, d_anc) if t2 is not None else ()
    return _objective(plus, minus, psi)


def _sign_matrix(m: np.ndarray) -> np.ndarray:
    spec = spectral_decomposition(m)
    return (spec.eigenvectors * np.sign(spec.eigenvalues)) @ spec.eigenvectors.conj().T


def _ascend(plus, minus, psi: np.ndarray, max_iters: int, tol: float):
    """Alternating ascent: the objective value never decreases.

    Alternates between the optimal Hermitian sign contraction for the
    current probe and the top eigenvector of the back-lifted sign matrix.
    """
    best_val = _objective(plus, minus, psi)
    best_psi = psi
    for _ in range(max_iters):
        s = _sign_matrix(_stabilized_output(plus, minus, best_psi))
        h = np.zeros((psi.size, psi.size), dtype=complex)
        for op in plus:
            h += op.conj().T @ s @ op
        for op in minus:
            h -= op.conj().T @ s @ op
        _, vecs = np.linalg.eigh(hermitian_part(h))
        candidate = vecs[:, -1]
        value = _objective(plus, minus, candidate)
        improvement = value - best_val
        if value > best_val:
            best_val, best_psi = value, candidate
        if improvement < tol:
            break
    return best_val, best_psi


def _choi_difference_upper(t1: KrausChannel, t2: KrausChannel) -> float:
    """Diamond-norm upper bound ||tr_out |C(T1) - C(T2)| ||_op.

    For pairs of trace-preserving channels the triangle inequality bound 2
    (each channel has CB-norm exactly 1) is also applied.
    """
    c = choi(t1).mat - choi(t2).mat
    spec = spectral_decomposition(c)
    abs_c = (spec.eigenvectors * np.abs(spec.eigenvalues)) @ spec.eigenvectors.conj().T
    upper = operator_norm(partial_trace(abs_c, (t1.dim_out, t1.dim_in), "first"))
    if t1.trace_preserving and t2.trace_preserving:
        upper = min(upper, 2.0)
    return float(upper)


def _maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def cb_distance_interval(
    t1: KrausChannel,
    t2: KrausChannel,
    starts: int = 32,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
    extra_starts: tuple[np.ndarray, ...] = (),
) -> NormInterval:
    """Certified interval around the CB-norm distance ||T1 - T2||_cb.

    The maximization runs over unit vectors of H_in ⊗ H_in (stabilization
    by the input dimension suffices for Hermiticity-preserving differences
    of maps, and pure inputs attain the supremum).  Starts are ``starts``
    seeded random vectors plus the maximally entangled vector, every
    computational basis vector, and any ``extra_starts``.
    """
    _check_same_dims(t1, t2)
    if starts < 0 or max_iters < 0:
        raise ValueError(f"starts and max_iters must be >= 0, got {starts} and {max_iters}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    d1 = t1.dim_in
    plus = _lifted_kraus(t1, d1)
    minus = _lifted_kraus(t2, d1)

    start_vecs = [_maximally_entangled(d1)]
    start_vecs.extend(np.eye(d1 * d1, dtype=complex)[:, k] for k in range(d1 * d1))
    for extra in extra_starts:
        v = np.asarray(extra, dtype=complex).reshape(-1)
        start_vecs.append(v / np.linalg.norm(v))
    for k in range(starts):
        rng = np.random.default_rng(seed + k)
        v = rng.standard_normal(d1 * d1) + 1j * rng.standard_normal(d1 * d1)
        start_vecs.append(v / np.linalg.norm(v))

    best_val, best_psi = -1.0, start_vecs[0]
    for psi in start_vecs:
        value, arg = _ascend(plus, minus, psi, max_iters, tol)
        if value > best_val:
            best_val, best_psi = value, arg

    upper = _choi_difference_upper(t1, t2)
    return NormInterval(lower=best_val, upper=max(upper, best_val), argmax_state=best_psi)


def cb_norm_of_channel(t: KrausChannel) -> NormInterval:
    """CB-norm interval for a trace-preserving channel.

    Evaluating the objective at the maximally entangled probe certifies
    lower = 1 (channel outputs are states, trace norm one); the upper end
    is ||T_dual(1)||_op, which equals the CB-norm for CP maps.
    """
    if not t.trace_preserving:
        raise ValueError(f"channel is not trace-preserving (defect {t.tp_defect:.3e})")
    omega_vec = _maximally_entangled(t.dim_in)
    lower = cb_objective(t, None, omega_vec)
    upper = operator_norm(t.dual_apply(np.eye(t.dim_out)))
    return NormInterval(lower=lower, upper=max(upper, lower), argmax_state=omega_vec)
