"""Shared helpers: independent oracles and random object factories.

Oracle functions here deliberately avoid the library code paths they are
used to check (explicit index loops, eigvalsh-based singular values,
convex-hull geometry), so that each assertion compares two independent
routes to the same quantity.
"""

from __future__ import annotations

import numpy as np

from chanid.metrics import CB_MAX_ITERS, CB_SEED, CB_STARTS, CB_TOL


def rand_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_density_mat(rng: np.random.Generator, d: int, min_eig: float = 0.0) -> np.ndarray:
    """Random density matrix with eigenvalues bounded below by min_eig."""
    a = rand_complex(rng, d, d)
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    p = min_eig + (1.0 - d * min_eig) * rng.dirichlet(np.ones(d))
    return (q * p) @ q.conj().T


def rand_state_vec(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rand_complex(rng, d, 1).reshape(-1)
    return v / np.linalg.norm(v)


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-index loop definition of the tensor product (first factor slow)."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for mu in range(ra):
        for nu in range(ca):
            for i in range(rb):
                for j in range(cb):
                    out[mu * rb + i, nu * cb + j] = a[mu, nu] * b[i, j]
    return out


def partial_trace_oracle(m: np.ndarray, d_a: int, d_b: int, which: str) -> np.ndarray:
    """Explicit index-sum partial trace."""
    if which == "first":
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                out[i, j] = sum(m[k * d_b + i, k * d_b + j] for k in range(d_a))
    else:
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                out[i, j] = sum(m[i * d_b + k, j * d_b + k] for k in range(d_b))
    return out


def singular_values_oracle(m: np.ndarray) -> np.ndarray:
    """Singular values as square roots of the eigenvalues of m† m."""
    vals = np.linalg.eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(vals, 0.0, None))[::-1]


def choi_elementwise_oracle(t) -> np.ndarray:
    """Choi matrix entry by entry: C[(mu,i),(nu,j)] = <mu| T(|i><j|) |nu>."""
    d1, d2 = t.dim_in, t.dim_out
    c = np.zeros((d2 * d1, d2 * d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            unit = np.zeros((d1, d1), dtype=complex)
            unit[i, j] = 1.0
            block = t.apply_matrix(unit)
            for mu in range(d2):
                for nu in range(d2):
                    c[mu * d1 + i, nu * d1 + j] = block[mu, nu]
    return c


def choi_accumulation_oracle(t) -> np.ndarray:
    """Choi matrix rebuilt from the Kraus operators on every call, in Kraus order.

    The same outer-product accumulation as a channel's construction, so the
    cached Choi matrix must equal it bit for bit.
    """
    n = t.dim_out * t.dim_in
    c = np.zeros((n, n), dtype=complex)
    for a in t.kraus:
        v = np.asarray(a).reshape(-1)
        c += np.outer(v, v.conj())
    return (c + c.conj().T) / 2


def rho_inv_sqrt(ref) -> np.ndarray:
    """rho^{-1/2} of a reference state, from its cached spectrum."""
    p, vecs = ref.spectrum.eigenvalues, ref.spectrum.eigenvectors
    return (vecs / np.sqrt(p)) @ vecs.conj().T


def apply_via_choi_oracle(t, rho: np.ndarray) -> np.ndarray:
    """Evaluate T(rho) as tr_in[(1 ⊗ rho^T) C] from the elementwise Choi."""
    d1, d2 = t.dim_in, t.dim_out
    c = choi_elementwise_oracle(t)
    lifted = np.kron(np.eye(d2), rho.T)
    prod = (lifted @ c).reshape(d2, d1, d2, d1)
    return np.einsum("aibi->ab", prod)


def channel_blocks_from_w_oracle(w: np.ndarray, eigvals, eigvecs, d2: int):
    """Recover T(|phi_i><phi_j|) blocks directly from the probe output.

    Rotates the ancilla slot of w into the reference eigenbasis and divides
    out the sqrt(p_i p_j) weights; completely independent of the
    isometry-based inversion.
    """
    d1 = len(eigvals)
    rot = np.kron(np.eye(d2), eigvecs)
    w_eig = rot.conj().T @ w @ rot
    w4 = w_eig.reshape(d2, d1, d2, d1)
    blocks = {}
    for i in range(d1):
        for j in range(d1):
            blocks[(i, j)] = w4[:, i, :, j] / np.sqrt(eigvals[i] * eigvals[j])
    return blocks


def choi_from_w_oracle(w: np.ndarray, eigvals, eigvecs, d2: int) -> np.ndarray:
    """Unnormalized Choi matrix of the probed channel, via block extraction."""
    d1 = len(eigvals)
    blocks = channel_blocks_from_w_oracle(w, eigvals, eigvecs, d2)
    c = np.zeros((d2 * d1, d2 * d1), dtype=complex)
    for a in range(d1):
        for b in range(d1):
            unit = np.zeros((d1, d1), dtype=complex)
            unit[a, b] = 1.0
            out = np.zeros((d2, d2), dtype=complex)
            for i in range(d1):
                for j in range(d1):
                    # <phi_i| E_ab |phi_j> weight of the (i, j) block
                    out += (eigvecs[:, i].conj() @ unit @ eigvecs[:, j]) * blocks[(i, j)]
            c += np.kron(out, unit)
    return c


def v_isometry_oracle(eigvals, eigvecs, d2: int, basis=None) -> np.ndarray:
    """V = sum_{i,mu} sqrt(p_i) (phi_i ⊗ f_mu ⊗ phi_i) f_mu† by the double loop
    over reference eigenvectors phi_i and output basis vectors f_mu (the
    columns of ``basis``, computational by default)."""
    d1 = len(eigvals)
    f = np.eye(d2, dtype=complex) if basis is None else np.asarray(basis)
    v = np.zeros((d1 * d2 * d1, d2), dtype=complex)
    for i in range(d1):
        col = np.sqrt(eigvals[i]) * eigvecs[:, i]
        for mu in range(d2):
            basis_vec = np.kron(col, np.kron(f[:, mu], eigvecs[:, i]))
            v += np.outer(basis_vec, f[:, mu].conj())
    return v


def _point_segment_distance(p: complex, q: complex) -> float:
    # distance from the origin to the segment [p, q] in the complex plane
    d = q - p
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(p)
    t = -np.real(np.conj(d) * p) / denom
    t = min(1.0, max(0.0, t))
    return abs(p + t * d)


def unitary_pair_cb_distance_oracle(u: np.ndarray, v: np.ndarray) -> float:
    """CB distance between two unitary conjugations: 2 sqrt(1 - nu^2).

    nu is the distance from the origin to the convex hull of the
    eigenvalues of U†V; the hull membership test uses the angular-gap
    criterion for points on the unit circle.
    """
    z = np.linalg.eigvals(u.conj().T @ v)
    angles = np.sort(np.angle(z))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    if len(z) > 1 and np.max(gaps) <= np.pi + 1e-12:
        nu = 0.0
    else:
        nu = min(
            _point_segment_distance(z[a], z[b])
            for a in range(len(z))
            for b in range(len(z))
        )
    return 2.0 * np.sqrt(max(0.0, 1.0 - nu**2))


def _kraus_stabilized_output(t1, t2, psi: np.ndarray) -> np.ndarray:
    # ((T1 - T2) ⊗ id)(|psi><psi|) from each Kraus operator lifted to A ⊗ 1
    eye = np.eye(t1.dim_in)
    m = np.zeros((t1.dim_out * t1.dim_in,) * 2, dtype=complex)
    for sign, t in ((1.0, t1), (-1.0, t2)):
        for a in () if t is None else t.kraus:
            v = np.kron(a, eye) @ psi
            m += sign * np.outer(v, v.conj())
    return m


def cb_objective_kraus_oracle(t1, t2, psi: np.ndarray) -> float:
    """||((T1 - T2) ⊗ id)(|psi><psi|)||_1 in Kraus form (t2 may be None)."""
    m = _kraus_stabilized_output(t1, t2, np.asarray(psi, dtype=complex).reshape(-1))
    return float(np.sum(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2))))


def cb_lower_sequential_oracle(
    t1, t2, starts=CB_STARTS, max_iters=CB_MAX_ITERS, tol=CB_TOL, seed=CB_SEED, extra_starts=()
):
    """Lower end of the CB interval from the alternating ascent in Kraus form,
    run start by start: same start set and order, per-start accept/stop
    rule, first-best tie-break and defaults as ``metrics.cb_distance_interval``.

    Returns (best value, witness, index of the winning start).
    """
    d = t1.dim_in
    eye = np.eye(d)
    lifted = [(1.0, np.kron(a, eye)) for a in t1.kraus] + [(-1.0, np.kron(a, eye)) for a in t2.kraus]
    start_vecs = [np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)]
    start_vecs.extend(np.eye(d * d, dtype=complex)[:, k] for k in range(d * d))
    for extra in extra_starts:
        v = np.asarray(extra, dtype=complex).reshape(-1)
        start_vecs.append(v / np.linalg.norm(v))
    for k in range(starts):
        rng = np.random.default_rng(seed + k)
        v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        start_vecs.append(v / np.linalg.norm(v))

    best = (-1.0, start_vecs[0], -1)
    for index, psi in enumerate(start_vecs):
        value = cb_objective_kraus_oracle(t1, t2, psi)
        for _ in range(max_iters):
            m = _kraus_stabilized_output(t1, t2, psi)
            vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
            s = (vecs * np.sign(vals)) @ vecs.conj().T
            h = sum(sign * op.conj().T @ s @ op for sign, op in lifted)
            candidate = np.linalg.eigh((h + h.conj().T) / 2)[1][:, -1]
            cand_value = cb_objective_kraus_oracle(t1, t2, candidate)
            improvement = cand_value - value
            if cand_value > value:
                value, psi = cand_value, candidate
            if improvement < tol:
                break
        if value > best[0]:
            best = (value, psi, index)
    return best
