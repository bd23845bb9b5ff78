"""The three benchmark workloads: inputs made from the seed, CLI calls, output checks.

Each workload writes its input files (configs, channels, states and
references) into a work directory and lists, in ``ops``, one cycle of
calls to ``chanid.cli.cli_main``; the benchmark repeats the cycle.  A
call's outputs are checked by the benchmark's own code, independently of
the package: CSV files are re-parsed, CB intervals are re-evaluated at
their witness, and noiseless reconstructions are compared with the true
channel's Choi matrix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CSV_COLUMNS = (
    "trial_index", "min_eig_rho", "noise_eps", "trace_dist_w",
    "consistency_residual", "tp_residual", "fidelity", "bound_value",
)
FIDELITY_BOUND_SLACK = 1e-9  # the slack the CSV writer itself allows
CB_WITNESS_RTOL = 1e-9
DIGITS_FLOOR = 1e-16


@dataclass
class Op:
    """One ``cli_main`` call.  Calls with the same key read the same inputs,
    so they must exit with the same code and write the same bytes."""

    key: str
    argv: list[str]
    work: int  # trials, intervals or points delivered when the call succeeds
    outputs: list[Path]
    check: Callable[[], tuple[list[str], dict]]
    info: dict = field(default_factory=dict)
    group: str = ""  # calls timed together: throughput uses the group's typical call

    def __post_init__(self):
        self.group = self.group or self.key


def _seed_stream(seed: int, workload_index: int):
    rng = np.random.default_rng([seed, workload_index])
    return lambda: int(rng.integers(0, 2**62))


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _decode_complex(pairs) -> np.ndarray:
    data = np.array(pairs, dtype=float).reshape(-1, 2)
    return data[:, 0] + 1j * data[:, 1]


def _decode_matrix(obj) -> np.ndarray:
    return _decode_complex(obj["data"]).reshape(obj["rows"], obj["cols"])


def check_records_csv(path: Path, rows_expected: int, min_eigs=None) -> tuple[list[str], dict]:
    """Header, row count and the fidelity bound of every row, re-read from the file."""
    lines = list(csv.reader(io.StringIO(path.read_text())))
    if not lines or tuple(lines[0]) != CSV_COLUMNS:
        return [f"{path.name}: unexpected header {lines[:1]}"], {}
    rows = lines[1:]
    failures = []
    if len(rows) != rows_expected:
        failures.append(f"{path.name}: {len(rows)} rows, expected {rows_expected}")
    for n, row in enumerate(rows):
        if len(row) != len(CSV_COLUMNS):
            failures.append(f"{path.name} row {n}: {len(row)} fields")
            continue
        rec = dict(zip(CSV_COLUMNS, row))
        fidelity, bound = float(rec["fidelity"]), float(rec["bound_value"])
        if int(rec["trial_index"]) != n:
            failures.append(f"{path.name} row {n}: trial_index {rec['trial_index']}")
        if not fidelity >= bound - FIDELITY_BOUND_SLACK:
            failures.append(f"{path.name} row {n}: fidelity {fidelity!r} below bound {bound!r}")
        if min_eigs is not None and n < len(min_eigs):
            if not abs(float(rec["min_eig_rho"]) - min_eigs[n]) <= 1e-9 * min_eigs[n]:
                failures.append(f"{path.name} row {n}: min_eig_rho {rec['min_eig_rho']} != grid {min_eigs[n]!r}")
    return failures, {}


class RoundtripMix:
    """``roundtrip`` on four configs, d1 = d2 = kraus_rank = d.

    Trial counts give each d roughly the same share of the wall time.
    Every cycle repeats the same four calls, so each CSV must come out
    byte-identical every time.
    """

    name = "roundtrip-mix"
    index = 0
    unit = "trials"
    throughput_name = "roundtrip_trials_per_s"
    typical = staticmethod(statistics.median)  # one call per group
    min_cycles = 2
    DIMS = (2, 3, 4, 6)
    TRIALS = {2: 150, 3: 95, 4: 60, 6: 17}
    TRIALS_TINY = {2: 3, 3: 2, 4: 2, 6: 1}

    def __init__(self, chanid, seed: int, workdir: Path, tiny: bool):
        draw = _seed_stream(seed, self.index)
        trials = self.TRIALS_TINY if tiny else self.TRIALS
        self.ops = []
        for d in self.DIMS:
            cfg = _write_json(workdir / f"roundtrip-d{d}.json", {
                "d1": d, "d2": d, "kraus_rank": d,
                "ref_spec": {"random_min_eig": 0.05 / d},
                "noise": {"depolarize": 0.02},
                "trials": trials[d], "seed": draw(),
            })
            out = workdir / f"roundtrip-d{d}.csv"
            self.ops.append(Op(
                key=f"roundtrip-d{d}",
                argv=["roundtrip", "--config", str(cfg), "--out", str(out)],
                work=trials[d], outputs=[out],
                check=lambda out=out, n=trials[d]: check_records_csv(out, n),
                info={"d": d},
            ))


class CbdistPairs:
    """``cbdist`` at the CLI defaults on pairs of channels drawn from the seed.

    At d = 2 and d = 3: random-vs-random pairs (far apart, the upper end
    is clamped at 2) and pairs T vs depolarize(0.05) after T (near, the
    upper end is informative), PAIRS_PER_KIND of each.  The first
    SERIES_PER_KIND of each kind are the 12 pairs whose intervals form the
    precision series.  Every cycle repeats the same calls.

    The cost of one interval depends on the pair: at d = 3 most take 0.3 to
    1 s on a 2-core x86 machine, but about a third of the far pairs take 2
    to 6 s, and how many do varies from seed to seed.  The calls are timed
    in one group per d, and the typical call of a group is its lower-quartile
    pair, which sits among the fast pairs whatever the seed.  Over ten seeds
    the throughput built from it spread 8% (quartile distance over median);
    built from the median pair, it spread 11% even with 16 pairs of each kind.
    """

    name = "cbdist-pairs"
    index = 1
    unit = "intervals"
    throughput_name = "cbdist_intervals_per_s"
    min_cycles = 1
    DIMS = (2, 3)
    PAIRS_PER_KIND = 14
    SERIES_PER_KIND = 3
    NEAR_DEPOLARIZE = 0.05

    @staticmethod
    def typical(seconds: list[float]) -> float:
        return statistics.quantiles(seconds, n=4)[0]

    def __init__(self, chanid, seed: int, workdir: Path, tiny: bool):
        self.chanid = chanid
        self.recording = contextlib.nullcontext
        ch, ser = chanid, chanid.serialize
        extra_argv = ["--starts", "1", "--max-iters", "5"] if tiny else []
        per_kind = self.SERIES_PER_KIND if tiny else self.PAIRS_PER_KIND
        draw = _seed_stream(seed, self.index)
        self.ops = []
        for j in range(per_kind):
            for d in self.DIMS:
                for kind in ("far", "near"):
                    t1 = ch.random_channel(d, d, d, draw())
                    if kind == "far":
                        t2 = ch.random_channel(d, d, d, draw())
                    else:
                        t2 = ch.compose(ch.depolarizing_channel(self.NEAR_DEPOLARIZE, d), t1)
                    slot = f"cbdist-d{d}-{kind}{j}"
                    p1 = _write_json(workdir / f"{slot}-t1.json", ser.channel_to_json(t1))
                    p2 = _write_json(workdir / f"{slot}-t2.json", ser.channel_to_json(t2))
                    out = workdir / f"{slot}-interval.json"
                    self.ops.append(Op(
                        key=slot,
                        argv=["cbdist", "--t1", str(p1), "--t2", str(p2), "--out", str(out)] + extra_argv,
                        work=1, outputs=[out],
                        check=lambda out=out, t1=t1, t2=t2: self._check(out, t1, t2),
                        info={"d": d, "kind": kind, "series": j < self.SERIES_PER_KIND},
                        group=f"cbdist-d{d}",
                    ))

    def _check(self, out: Path, t1, t2) -> tuple[list[str], dict]:
        obj = json.loads(out.read_text())
        lower, upper = float(obj["lower"]), float(obj["upper"])
        witness = _decode_complex(obj["argmax_state"])
        failures = []
        if not 0.0 <= lower <= upper <= 2.0:
            failures.append(f"{out.name}: interval [{lower!r}, {upper!r}] outside 0 <= lower <= upper <= 2")
        with self.recording():
            value = self.chanid.metrics.cb_objective(t1, t2, witness)
        if not abs(value - lower) <= CB_WITNESS_RTOL * abs(lower):
            failures.append(f"{out.name}: witness re-evaluates to {value!r}, reported lower {lower!r}")
        info = {
            "lower": lower,
            "upper": upper,
            "witness_norm": float(np.linalg.norm(witness)),
            "rel_gap": (upper - lower) / upper if upper > 0 else 0.0,
        }
        return failures, info


def phase_fixed_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs with each eigenvector's largest-magnitude entry real positive,
    the phase convention under which the package defines its probe vector."""
    vals, vecs = np.linalg.eigh(rho)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vals, vecs * (np.abs(pivots) / pivots)


def probe_output(kraus, rho: np.ndarray) -> np.ndarray:
    """w = (T ⊗ id)(|Omega><Omega|) with Omega = sum_i sqrt(p_i) phi_i ⊗ phi_i."""
    d = rho.shape[0]
    p, phi = phase_fixed_eigh(rho)
    omega = sum(np.sqrt(p[i]) * np.kron(phi[:, i], phi[:, i]) for i in range(d))
    probe = np.outer(omega, omega.conj())
    w = sum(np.kron(a, np.eye(d)) @ probe @ np.kron(a, np.eye(d)).conj().T for a in kraus)
    return (w + w.conj().T) / 2


class SweepIllcond:
    """Conditioning at the edge of the admissible range.

    For d = 3 and 6: one ``sweep`` over a geometric min-eigenvalue grid
    from 1/d down to 1e-6 with depolarize 0.01, and a noiseless
    ``reconstruct`` from generated ``w.json``/``ref.json`` at each min
    eigenvalue in MIN_EIGS.  The reference has a random eigenbasis and a
    non-degenerate spectrum, so its eigenvectors are fixed up to the phase
    convention.  Every cycle repeats the same calls.
    """

    name = "sweep-illcond"
    index = 2
    unit = "points"
    throughput_name = "sweep_points_per_s"
    typical = staticmethod(statistics.median)  # one call per group
    min_cycles = 2
    DIMS = (3, 6)
    MIN_EIGS = (1e-2, 1e-4, 1e-6, 1e-8)
    GRID_POINTS = 12
    GRID_POINTS_TINY = 4
    GRID_FLOOR = 1e-6

    def __init__(self, chanid, seed: int, workdir: Path, tiny: bool):
        ser = chanid.serialize
        draw = _seed_stream(seed, self.index)
        points = self.GRID_POINTS_TINY if tiny else self.GRID_POINTS
        self.ops = []
        for d in self.DIMS:
            cfg = _write_json(workdir / f"sweep-d{d}.json", {
                "d1": d, "d2": d, "kraus_rank": d,
                "ref_spec": "maximally_mixed",
                "noise": {"depolarize": 0.01},
                "trials": 1, "seed": draw(),
            })
            grid = [float(x) for x in np.geomspace(1.0 / d, self.GRID_FLOOR, points)]
            grid[0], grid[-1] = 1.0 / d, self.GRID_FLOOR
            out = workdir / f"sweep-d{d}.csv"
            self.ops.append(Op(
                key=f"sweep-d{d}",
                # repr keeps every digit: a rounded 1/d would fall outside (0, 1/d]
                argv=["sweep", "--config", str(cfg), "--out", str(out),
                      "--grid", ",".join(repr(x) for x in grid)],
                work=points, outputs=[out],
                check=lambda out=out, grid=grid: check_records_csv(out, len(grid), grid),
                info={"d": d, "grid": grid},
            ))
        for d in self.DIMS:
            for m in self.MIN_EIGS:
                t = chanid.random_channel(d, d, d, draw())
                u = chanid.random_unitary(d, draw())
                rest = (1.0 - m) * np.arange(1, d) / np.arange(1, d).sum()
                p = np.concatenate([[m], rest])
                rho = (u * p) @ u.conj().T
                rho = (rho + rho.conj().T) / 2
                slot = f"reconstruct-d{d}-m{m:.0e}"
                w_path = _write_json(workdir / f"{slot}-w.json", ser.matrix_to_json(probe_output(t.kraus, rho)))
                ref_path = _write_json(workdir / f"{slot}-ref.json", {
                    "rho": ser.matrix_to_json(rho), "cutoff": 1e-10, "out_basis": None,
                })
                out = workdir / f"{slot}-rec.json"
                report = out.with_name(out.name + ".report.json")  # the CLI's sidecar
                true_choi = chanid.choi(t).mat
                self.ops.append(Op(
                    key=slot,
                    argv=["reconstruct", "--w", str(w_path), "--ref", str(ref_path), "--out", str(out)],
                    work=1, outputs=[out, report],
                    check=lambda out=out, report=report, c=true_choi, d=d, m=m: self._check(out, report, c, d, m),
                    info={"d": d, "min_eig": m, "noiseless": True},
                ))

    @staticmethod
    def _check(out: Path, report: Path, true_choi: np.ndarray, d: int, m: float) -> tuple[list[str], dict]:
        kraus = [_decode_matrix(a) for a in json.loads(out.read_text())["kraus"]]
        vecs = np.array([a.reshape(-1) for a in kraus])
        choi = vecs.T @ vecs.conj()
        err = float(np.max(np.abs(choi - true_choi)))
        failures = []
        # double-precision error amplified by ||rho^-1|| = 1/m, with room to spare
        tol = 1e-12 / m
        if not err <= tol:
            failures.append(f"{out.name}: max |C_rec - C_true| = {err:.3e} exceeds {tol:.1e}")
        sidecar = json.loads(report.read_text())
        missing = {"tp_residual", "consistency_residual", "clip_magnitude"} - set(sidecar)
        if missing:
            failures.append(f"{report.name}: missing {sorted(missing)}")
        return failures, {
            "choi_err": err,
            "digits": -math.log10(max(err, DIGITS_FLOOR)),
            "kraus_rank": len(kraus),
            "rank_excess": len(kraus) - d,
        }


WORKLOADS = {w.name: w for w in (RoundtripMix, CbdistPairs, SweepIllcond)}
