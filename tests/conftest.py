"""Shared helpers: independent oracles and random object factories.

Oracle functions here deliberately avoid the library code paths they are
used to check (explicit index loops, eigvalsh-based singular values,
convex-hull geometry), so that each assertion compares two independent
routes to the same quantity.
"""

from __future__ import annotations

import numpy as np

from chanid.linalg import CB_STARTS_SITE, CHANNEL_SITE
from chanid.metrics import CB_FACE_CUT, CB_MAX_ITERS, CB_SEED, CB_STARTS, CB_TOL


def rand_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_density_mat(rng: np.random.Generator, d: int, min_eig: float = 0.0) -> np.ndarray:
    """Random density matrix with eigenvalues bounded below by min_eig."""
    a = rand_complex(rng, d, d)
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    p = min_eig + (1.0 - d * min_eig) * rng.dirichlet(np.ones(d))
    return (q * p) @ q.conj().T


def noise_clipped_state() -> np.ndarray:
    """A 4x4 unit-trace state with spectrum (-0.9e-10, -0.9e-10, 0.5, 0.5 + 1.8e-10):
    both negative eigenvalues sit inside the PSD admission tolerance.

    Its eigenbasis is a fixed Haar unitary, the QR of ``default_rng(5)``
    Gaussians with the R-diagonal phase, so the state does not move when
    the package's draws do.
    """
    rng = np.random.default_rng(5)
    q, r = np.linalg.qr(rand_complex(rng, 4, 4))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return (u * np.array([-0.9e-10, -0.9e-10, 0.5, 0.5 + 1.8e-10])) @ u.conj().T


def draw_rule_generator(seed: int, site: int) -> np.random.Generator:
    """The package's draw rule, Philox(key=seed) at counter (0, 0, 0, site),
    built by numpy's own constructor rather than by resetting a state."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, site]))


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


def choi_gram_oracle(t) -> np.ndarray:
    """Choi matrix rebuilt from the Kraus operators on every call: the
    Hermitian part of K K† with K = [vec A_1 ... vec A_r] in Kraus order.

    The same Gram product as a channel's construction, so the cached Choi
    matrix must equal it bit for bit.
    """
    k = np.array([np.asarray(a).reshape(-1) for a in t.kraus]).T
    c = k @ k.conj().T
    return (c + c.conj().T) / 2


def fidelity_sandwich_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """(tr sqrt(a^{1/2} b a^{1/2}))² for PSD matrices, through the square root of
    the first.  Eigenvalues of the sandwich below 1e-13 of its largest one are
    zeroed, so eigensolver noise on rank-deficient inputs stays below 1e-12."""
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    root = (vecs * np.clip(vals, 0.0, None) ** 0.5) @ vecs.conj().T
    inner = root @ b @ root
    inner_vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    floor = 1e-13 * max(float(inner_vals[-1]), 0.0)
    inner_vals = np.where(inner_vals < floor, 0.0, inner_vals)
    s = np.sum(np.sqrt(np.clip(inner_vals, 0.0, None)))
    return float(s * s)


def channel_fidelity_sqrt_oracle(t1, t2) -> float:
    """Channel fidelity as the fidelity of the Choi states C1 / d_in and C2 / d_in,
    through the square root of the first: ``fidelity_sandwich_oracle(C1/d, C2/d)``
    clamped to [0, 1], with neither map's Kraus operators used."""
    from chanid.channel import choi

    d = t1.dim_in
    return float(np.clip(fidelity_sandwich_oracle(choi(t1).mat / d, choi(t2).mat / d), 0.0, 1.0))


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
        for a in t.kraus:
            v = np.kron(a, eye) @ psi
            m += sign * np.outer(v, v.conj())
    return m


def cb_objective_kraus_oracle(t1, t2, psi: np.ndarray) -> float:
    """||((T1 - T2) ⊗ id)(|psi><psi|)||_1 in Kraus form."""
    m = _kraus_stabilized_output(t1, t2, np.asarray(psi, dtype=complex).reshape(-1))
    return float(np.sum(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2))))


def _kraus_ascent(t1, t2, psi, max_iters):
    """One start of the alternating ascent in Kraus form: (value, probe)."""
    eye = np.eye(t1.dim_in)
    lifted = [(1.0, np.kron(a, eye)) for a in t1.kraus] + [(-1.0, np.kron(a, eye)) for a in t2.kraus]
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
        if improvement < CB_TOL:
            break
    return value, psi


def cb_lower_sequential_oracle(t1, t2, starts=CB_STARTS, max_iters=CB_MAX_ITERS):
    """Lower end of the CB interval from the alternating ascent in Kraus form,
    run start by start: the maximally entangled vector, then the random ones
    drawn at CB_SEED, with the per-start accept/stop rule at CB_TOL, the
    first-best tie-break and the defaults of ``metrics.cb_distance_interval``.
    A winner vec Ψ whose singular values are not all >= CB_FACE_CUT times
    the largest ascends once more from Ψ's SVD with the smaller ones zeroed,
    renormalized, and replaces the winner if it ends strictly higher
    (index -1).

    Returns (best value, witness, index of the winning start).
    """
    d = t1.dim_in
    start_vecs = [np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)]
    rng = draw_rule_generator(CB_SEED, CB_STARTS_SITE)
    for _ in range(starts):
        v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        start_vecs.append(v / np.linalg.norm(v))

    best = (-1.0, start_vecs[0], -1)
    for index, psi in enumerate(start_vecs):
        value, psi = _kraus_ascent(t1, t2, psi, max_iters)
        if value > best[0]:
            best = (value, psi, index)
    u, s, vh = np.linalg.svd(best[1].reshape(d, d))
    if s[-1] < CB_FACE_CUT * s[0]:
        kept = np.where(s >= CB_FACE_CUT * s[0], s, 0.0)
        face = ((u * kept) @ vh).reshape(-1)
        value, psi = _kraus_ascent(t1, t2, face / np.linalg.norm(face), max_iters)
        if value > best[0]:
            best = (value, psi, -1)
    return best


def cb_dual_kron_oracle(t1, t2, sigma: np.ndarray) -> tuple[float, float, float]:
    """Watrous's dual at a full-rank state σ on H_in, built with ``np.kron``
    from the elementwise Choi matrices: S = 1 ⊗ σ^{1/2}, M = S J S,
    Y = S⁻¹ |M| S⁻¹.

    Returns (||tr_out Y||_op, the least eigenvalue of Y - J and of Y + J,
    ||Y||_op); the first is a CB-distance upper bound when the second is >= 0.
    """
    d1, d2 = t1.dim_in, t1.dim_out
    j = choi_elementwise_oracle(t1) - choi_elementwise_oracle(t2)
    p, u = np.linalg.eigh(sigma)
    s = np.kron(np.eye(d2), (u * np.sqrt(p)) @ u.conj().T)
    s_inv = np.kron(np.eye(d2), (u / np.sqrt(p)) @ u.conj().T)
    mu, v = np.linalg.eigh(s @ j @ s)
    y = s_inv @ (v * np.abs(mu)) @ v.conj().T @ s_inv
    y = (y + y.conj().T) / 2
    least = min(np.linalg.eigvalsh(y - j)[0], np.linalg.eigvalsh(y + j)[0])
    top = singular_values_oracle(partial_trace_oracle(y, d2, d1, "first"))[0]
    return float(top), float(least), float(singular_values_oracle(y)[0])


def _oracle_reference(spec, d1: int, seed: int | None = None, channel_normals: tuple[int, ...] | None = None):
    """The reference of a trial with this spec.  A ``random_min_eig`` reference
    continues the trial's channel stream, Philox(key=seed) at the channel site,
    after the channel's normals, of shape ``channel_normals``: its eigenbasis is
    the Haar unitary of the next d1 × d1 complex normals (column by column, real
    then imaginary parts), its spectrum the floor plus a flat Dirichlet draw."""
    from chanid import DensityOperator, make_reference

    if spec.kind == "maximally_mixed":
        return make_reference(DensityOperator(np.eye(d1) / d1))
    if spec.kind == "spectrum":
        return make_reference(DensityOperator(np.diag(np.array(spec.spectrum, dtype=complex))))
    if seed is None or channel_normals is None:  # standard_normal(()) would still draw one normal
        raise ValueError("a random_min_eig reference needs its trial's seed and channel_normals")
    floor = spec.min_eig
    rng = draw_rule_generator(seed, CHANNEL_SITE)
    rng.standard_normal(channel_normals)
    z = rng.standard_normal((d1, 2, d1))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]).T)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    p = floor + (1.0 - d1 * floor) * rng.dirichlet(np.ones(d1))
    return make_reference(DensityOperator((u * p) @ u.conj().T))


def _oracle_trial(cfg, trial_index: int, t, ref, noise_seed: int):
    from chanid import apply_noise, channel_fidelity, fidelity_lower_bound, forward_map, reconstruct
    from chanid.harness import TrialRecord

    w = forward_map(t, ref)
    w_noisy = apply_noise(w, cfg.noise, noise_seed)
    rec = reconstruct(w_noisy, ref)
    # the trace norm of a Hermitian difference, as the sum of its |eigenvalues|
    tdist = float(np.sum(np.abs(np.linalg.eigvalsh(w_noisy.mat - w.mat))))
    return TrialRecord(
        trial_index=trial_index,
        min_eig_rho=ref.min_eig,
        noise_eps=cfg.noise.eps if cfg.noise.kind != "none" else 0.0,
        trace_dist_w=tdist,
        consistency_residual=rec.consistency_residual,
        tp_residual=rec.tp_residual,
        fidelity=channel_fidelity(rec.cp_map, t),
        bound_value=fidelity_lower_bound(tdist, 1.0 / ref.min_eig, cfg.d1),
    )


def roundtrip_loop_oracle(cfg):
    """``run_roundtrip`` as a loop over trials, each evaluated alone through the
    public single-trial functions: trial i draws everything with seed
    ``cfg.seed + (i << 64)``, its reference after its channel."""
    from chanid import random_channel

    records = []
    for i in range(cfg.trials):
        seed = cfg.seed + (i << 64)
        t = random_channel(cfg.d1, cfg.d2, cfg.kraus_rank, seed)
        ref = _oracle_reference(cfg.ref_spec, cfg.d1, seed, (cfg.d1, 2, cfg.d2 * cfg.kraus_rank))
        records.append(_oracle_trial(cfg, i, t, ref, seed))
    return records


def sweep_loop_oracle(cfg, min_eig_grid):
    """``run_spectrum_sweep`` as a loop over the grid through the public functions."""
    from chanid import RefSpec, random_channel

    t = random_channel(cfg.d1, cfg.d2, cfg.kraus_rank, cfg.seed)
    records = []
    for i, m in enumerate(min_eig_grid):
        spectrum = (1.0,) if cfg.d1 == 1 else (m,) + ((1.0 - m) / (cfg.d1 - 1),) * (cfg.d1 - 1)
        ref = _oracle_reference(RefSpec(kind="spectrum", spectrum=spectrum), cfg.d1)
        records.append(_oracle_trial(cfg, i, t, ref, cfg.seed))
    return records
