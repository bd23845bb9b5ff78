"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All randomness is seeded; every tolerance is pinned here and nowhere else.
"""

import time

import numpy as np

from chanid.channel import (
    ChoiMatrix,
    choi,
    depolarizing_channel,
    from_choi,
    identity_channel,
    is_completely_dominated,
    random_channel,
    tensor_channels,
    unitary_channel,
)
from chanid.harness import (
    ExperimentConfig,
    NoiseSpec,
    RefSpec,
    records_to_csv,
    run_roundtrip,
    run_spectrum_sweep,
)
from chanid.identify import (
    forward_map,
    make_reference,
    reconstruct,
    rn_operator,
    v_isometry,
)
from chanid.linalg import DensityOperator, maximally_mixed
from chanid.metrics import (
    cb_distance_interval,
    cb_norm_of_channel,
    fvdg_gap,
    worst_case_bound,
)

from conftest import channel_blocks_from_w_oracle, rand_density_mat, rho_inv_sqrt

_SUITE_START = time.time()

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _instance(k: int):
    d1, d2 = DIMS[k % 4]
    lo = -(-d1 // d2)  # smallest rank admitting a trace-preserving channel
    rank = lo + (k // 4) % (d1 * d2 - lo + 1)
    return d1, d2, rank


def _reference(rng, d1, min_eig=0.01):
    return make_reference(DensityOperator(rand_density_mat(rng, d1, min_eig=min_eig)))


def test_criterion_01_roundtrip_identity():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for k in range(200):
        d1, d2, rank = _instance(k)
        t = random_channel(d1, d2, rank, seed=10_000 + k)
        ref = _reference(rng, d1)
        rec = reconstruct(forward_map(t, ref), ref)
        worst = max(worst, np.linalg.norm(choi(rec.cp_map).mat - choi(t).mat, "nuc"))
    elapsed = time.time() - start
    _report(
        1,
        "round-trip identity over 200 random pairs",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst Choi distance {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_representation_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(50):
        d1, d2, rank = _instance(k)
        t = random_channel(d1, d2, rank, seed=20_000 + k)
        ref = _reference(rng, d1)
        v = v_isometry(ref, d2)
        f = rn_operator(t, ref)
        sigma = DensityOperator(rand_density_mat(rng, d1))
        direct = t.apply_matrix(sigma.mat)
        via_rep = v.conj().T @ np.kron(sigma.mat, f.mat) @ v
        worst = max(worst, np.linalg.norm(via_rep - direct, 2))
        # independent route: rebuild the channel action from the raw probe
        # output by undoing the spectral weights blockwise
        w = forward_map(t, ref).mat
        blocks = channel_blocks_from_w_oracle(
            w, ref.spectrum.eigenvalues, ref.spectrum.eigenvectors, d2
        )
        phi = ref.spectrum.eigenvectors
        rebuilt = np.zeros((d2, d2), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                rebuilt += (phi[:, i].conj() @ sigma.mat @ phi[:, j]) * blocks[(i, j)]
        worst = max(worst, np.linalg.norm(rebuilt - direct, 2))
    _report(2, "dilation representation identity, 50 triples", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_03_maximally_mixed_special_case():
    worst = 0.0
    for k in range(50):
        d1, d2, rank = _instance(k)
        t = random_channel(d1, d2, rank, seed=30_000 + k)
        ref = make_reference(maximally_mixed(d1))
        w = forward_map(t, ref)
        rec = reconstruct(w, ref)
        direct = from_choi(ChoiMatrix(dim_in=d1, dim_out=d2, mat=d1 * w.mat))
        worst = max(worst, np.linalg.norm(choi(rec.cp_map).mat - choi(direct).mat, "nuc"))
    _report(3, "maximally mixed reference = Choi inversion", worst <= 1e-9, f"worst {worst:.2e}")


def _noisy_row_margins():
    """fidelity − bound_value of every row of three noisy round trips."""
    configs = [
        ExperimentConfig(
            d1=2, d2=2, kraus_rank=2,
            ref_spec=RefSpec(kind="random_min_eig", min_eig=0.05),
            noise=NoiseSpec(kind="depolarize", eps=0.02), trials=100, seed=41,
        ),
        ExperimentConfig(
            d1=2, d2=2, kraus_rank=3,
            ref_spec=RefSpec(kind="random_min_eig", min_eig=0.1),
            noise=NoiseSpec(kind="hermitian_jitter", eps=0.05), trials=60, seed=42,
        ),
        ExperimentConfig(
            d1=3, d2=2, kraus_rank=3,
            ref_spec=RefSpec(kind="random_min_eig", min_eig=0.05),
            noise=NoiseSpec(kind="depolarize", eps=0.05), trials=40, seed=43,
        ),
    ]
    return np.concatenate([t.fidelity - t.bound_value for t in map(run_roundtrip, configs)])


def test_criterion_04_worst_case_bound():
    rng = np.random.default_rng(104)
    ok = True
    worst_margin = np.inf
    for k in range(200):
        d1, d2, rank = _instance(k)
        t1 = random_channel(d1, d2, rank, seed=40_000 + k)
        t2 = random_channel(d1, d2, max(rank - 1, -(-d1 // d2)), seed=45_000 + k)
        ref = _reference(rng, d1)
        report = worst_case_bound(forward_map(t1, ref), forward_map(t2, ref), ref)
        worst_margin = min(worst_margin, report.fidelity - report.bound)
        ok = ok and report.fidelity >= report.bound - 1e-9
    margins = _noisy_row_margins()
    assert margins.size == 200
    worst_margin = min(worst_margin, margins.min())
    ok = ok and bool(np.all(margins >= -1e-9))
    # the coefficient in front of the trace distance is exactly 1/2 at the
    # maximally mixed reference (exact in binary floating point at d1 = 2)
    ref2 = make_reference(maximally_mixed(2))
    w1 = forward_map(random_channel(2, 2, 2, seed=48_000), ref2)
    w2 = forward_map(random_channel(2, 2, 2, seed=48_001), ref2)
    rep2 = worst_case_bound(w1, w2, ref2)
    ok = ok and rep2.rho_inv_norm / (2 * rep2.dim) == 0.5
    ref3 = make_reference(maximally_mixed(3))
    w1 = forward_map(random_channel(3, 3, 2, seed=48_002), ref3)
    w2 = forward_map(random_channel(3, 3, 2, seed=48_003), ref3)
    rep3 = worst_case_bound(w1, w2, ref3)
    ok = ok and abs(rep3.rho_inv_norm / (2 * rep3.dim) - 0.5) <= 1e-15
    _report(
        4,
        "fidelity bound on 200 triples + 200 noisy rows",
        ok,
        f"worst margin {worst_margin:.2e}",
    )


def test_criterion_05_fidelity_trace_distance_corollary():
    worst = -np.inf
    for k in range(100):
        d1, d2, rank = _instance(k)
        t1 = random_channel(d1, d2, rank, seed=50_000 + k)
        t2 = random_channel(d1, d2, rank, seed=55_000 + k)
        lhs, rhs = fvdg_gap(t1, t2)
        worst = max(worst, lhs - rhs)
    _report(5, "2 - 2 sqrt(F) <= trace distance, 100 pairs", worst <= 1e-9, f"worst gap {worst:.2e}")


def test_criterion_06_probe_continuity():
    rng = np.random.default_rng(106)
    worst = -np.inf
    for k in range(100):
        d1, d2, rank = _instance(k)
        t1 = random_channel(d1, d2, rank, seed=60_000 + k)
        t2 = random_channel(d1, d2, rank, seed=65_000 + k)
        interval = cb_distance_interval(t1, t2, starts=4, max_iters=60)
        for _ in range(5):
            ref = _reference(rng, d1, min_eig=0.02)
            dist = np.linalg.norm(forward_map(t1, ref).mat - forward_map(t2, ref).mat, "nuc")
            worst = max(worst, dist - interval.upper)
    _report(
        6,
        "probe-output distance within CB upper bound, 100x5",
        worst <= 1e-9,
        f"worst excess {worst:.2e}",
    )


def test_criterion_07_rescaling_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for k in range(100):
        d1, d2, rank = _instance(k)
        t = random_channel(d1, d2, rank, seed=70_000 + k)
        ref = _reference(rng, d1, min_eig=0.02)
        w = forward_map(t, ref).mat
        lift = np.kron(np.eye(d2), rho_inv_sqrt(ref))
        rewritten = lift @ w @ lift / d1
        phi = ref.spectrum.eigenvectors
        om = sum(np.kron(phi[:, i], phi[:, i]) for i in range(d1)) / np.sqrt(d1)
        direct = np.zeros((d2 * d1, d2 * d1), dtype=complex)
        for a in t.kraus:
            lifted = np.kron(a, np.eye(d1))
            direct += lifted @ np.outer(om, om.conj()) @ lifted.conj().T
        worst = max(worst, np.linalg.norm(rewritten - direct, 2))
    _report(7, "probe rescaling = eigenbasis Choi state, 100x", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_08_cb_norm_facts():
    channels = []
    for k in range(50):
        d1, d2, rank = _instance(k)
        channels.append(random_channel(d1, d2, rank, seed=80_000 + k))
    worst = 0.0
    for t in channels:
        worst = max(worst, abs(cb_norm_of_channel(t).lower - 1.0))
    for a in range(len(channels)):
        for b in range(a + 1, len(channels)):
            pair = tensor_channels(channels[a], channels[b])
            worst = max(worst, abs(cb_norm_of_channel(pair).lower - 1.0))
    z = unitary_channel(np.diag([1.0, -1.0]))
    interval = cb_distance_interval(identity_channel(2), z, starts=8)
    ok = (
        worst <= 1e-10
        and interval.lower >= 1.999999
        and abs(interval.upper - 2.0) <= 1e-9
    )
    _report(
        8,
        "CB norm one for channels/tensors; qubit phase-flip distance",
        ok,
        f"worst |lower-1| {worst:.2e}, interval [{interval.lower:.9f}, {interval.upper:.9f}]",
    )


def test_criterion_09_consistency_condition():
    rng = np.random.default_rng(109)
    worst = 0.0
    for k in range(50):
        d1, d2, rank = _instance(k)
        t = random_channel(d1, d2, rank, seed=90_000 + k)
        ref = _reference(rng, d1, min_eig=0.02)
        worst = max(worst, reconstruct(forward_map(t, ref), ref).consistency_residual)
    ref = make_reference(DensityOperator(np.diag([0.3, 0.7])))
    w = forward_map(random_channel(2, 2, 2, seed=91_000), ref)
    residuals = []
    for eps in (0.0, 0.01, 0.05, 0.1):
        mixed = DensityOperator((1 - eps) * w.mat + eps * np.eye(4) / 4)
        residuals.append(reconstruct(mixed, ref).consistency_residual)
    increasing = all(b > a for a, b in zip(residuals, residuals[1:]))
    _report(
        9,
        "consistency residual: zero noiseless, increasing in noise",
        worst <= 1e-8 and increasing,
        f"worst noiseless {worst:.2e}, grid {['%.3e' % r for r in residuals]}",
    )


def test_criterion_10_duality():
    rng = np.random.default_rng(110)
    worst = 0.0
    for k in range(100):
        d1, d2, rank = _instance(k)
        t = random_channel(d1, d2, rank, seed=100_000 + k)
        rho = rand_density_mat(rng, d1)
        x = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        gap = abs(np.trace(t.apply_matrix(rho) @ x) - np.trace(rho @ t.dual_apply(x)))
        worst = max(worst, gap)
    _report(10, "Schroedinger/Heisenberg duality, 100 triples", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_11_complete_domination():
    rng = np.random.default_rng(111)
    ok = True
    for k in range(50):
        d1, d2, _ = _instance(k)
        scale = rng.uniform(0.1, 2.0)
        mat = rand_density_mat(rng, d1 * d2) * scale  # random CP map, not a channel
        s = from_choi(ChoiMatrix(dim_in=d1, dim_out=d2, mat=mat))
        ok = ok and is_completely_dominated(s, s, 1.0)
    for lam in (1.0, 2.0, 10.0):
        ok = ok and not is_completely_dominated(
            depolarizing_channel(1.0, 2), identity_channel(2), lam
        )
    _report(11, "complete domination: reflexive, counterexample", ok)


def test_criterion_12_harness_determinism_and_timing():
    cfg = ExperimentConfig(
        d1=2, d2=2, kraus_rank=2,
        ref_spec=RefSpec(kind="random_min_eig", min_eig=0.1),
        noise=NoiseSpec(kind="depolarize", eps=0.02), trials=25, seed=12,
    )
    csv_a = records_to_csv(run_roundtrip(cfg))
    csv_b = records_to_csv(run_roundtrip(cfg))
    deterministic = csv_a.encode() == csv_b.encode()
    sweep_cfg = ExperimentConfig(
        d1=2, d2=2, kraus_rank=2,
        ref_spec=RefSpec(kind="maximally_mixed"),
        noise=NoiseSpec(kind="depolarize", eps=0.05), trials=1, seed=5,
    )
    sweep = run_spectrum_sweep(sweep_cfg, [0.5, 0.25, 0.1, 0.05, 0.01])
    sweep_csv = records_to_csv(sweep)
    rows_ok = all(np.all(t.fidelity >= t.bound_value - 1e-9) for t in (run_roundtrip(cfg), sweep))
    elapsed = time.time() - _SUITE_START
    _report(
        12,
        "harness determinism, per-row bound, suite timing",
        deterministic and rows_ok and len(sweep_csv.splitlines()) == 6 and elapsed < 120.0,
        f"acceptance elapsed {elapsed:.1f}s",
    )
