#!/usr/bin/env python3
"""Benchmark of chanid through its public entry point, ``chanid.cli.cli_main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
One caller runs the workload's calls in a closed loop in this process,
with no threads or subprocesses, until ``--seconds`` have passed.  Every
output is checked; a non-zero exit or a failed check counts as a failed
operation and never stops the run.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one
untraced cycle, then the same cycle and further ones with spans recorded
around every public function of the package (see ``spans.py``), and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the JSON result; the line before it, ``report: {...}``,
carries every metric under its full name, the precision series and the
environment.

End-to-end metrics (every workload): ``ops_per_s`` is the workload's work
units (trials, intervals or points) per second of a cycle made of typical
calls (see ``group_timings``), counting only calls that succeed and pass
their checks; ``setup_s`` is the median over repeated set-ups of importing
``chanid`` and generating the input files; ``peak_rss_mb`` is the process's
peak resident memory.

Both timings are CPU time of this single-threaded process, taken at a
reference machine speed.  On a shared host the same code's wall time
drifts by up to a factor of two over seconds to minutes: the process waits
for a core, and it runs slower beside other tenants' work.  CPU time
leaves out the waiting.  For the rest, a fixed calibration kernel (small
dense linear algebra and interpreter work, nothing of ``chanid``) is timed
after every timed call, and the call's CPU time is scaled by
``CAL_REFERENCE_S / k``, where ``k`` is the median of the three kernel
times before and the three after the call: the time the call would take
where the kernel takes ``CAL_REFERENCE_S``.  A change to the package moves
these timings as it moves wall time; a change in the machine's speed moves
the kernel too and cancels.  The unscaled wall clock and CPU figures are
in the report line under ``unscaled``.

An operation is one distinct input (a config, a pair of channels, a state
and reference); the cycle is repeated for timing, and an operation fails if
any of its calls exits non-zero or fails a check.  ``attempted`` and
``failed`` therefore depend on the seed only, not on the machine's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the pins only take effect if they are set before numpy is first imported
NUMPY_IMPORTED_BEFORE_PINS = "numpy" in sys.modules
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import SpanSummary, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 11
CAL_REFERENCE_S = 0.002  # about the kernel's median time on a 2-core x86 machine
CAL_WINDOW = 3  # kernel times taken on each side of a call
MAX_SPANS = 400_000  # bounds the traced pass's memory (flat arrays, ~50 bytes a span)

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced pass, with the end-to-end metric each
# should move.  A timing reads 0 on a workload that never makes that call.
_D_ALL = (2, 3, 4, 6)
LAYER_METRICS = (
    [(f"identify.reconstruct.us.d{d}", "us", "lower",
      "ops_per_s on roundtrip-mix and sweep-illcond; nothing on cbdist-pairs") for d in _D_ALL]
    + [(f"identify.forward_map.us.d{d}", "us", "lower",
        "ops_per_s on roundtrip-mix and sweep-illcond; nothing on cbdist-pairs") for d in _D_ALL]
    + [
        ("identify.reconstruct.share", "share", "lower", "ops_per_s on roundtrip-mix and sweep-illcond"),
        ("identify.reconstruct.rank_excess", "count", "lower", "choi_err_digits_mean on sweep-illcond"),
        ("identify.reconstruct.choi_err_digits_mean", "digits", "higher", "precision of sweep-illcond"),
        ("channel.from_choi.us", "us", "lower", "ops_per_s on roundtrip-mix"),
        ("channel.choi.us", "us", "lower", "ops_per_s on roundtrip-mix"),
        ("channel.random_channel.us", "us", "lower", "ops_per_s on roundtrip-mix"),
        ("channel.KrausChannel.constructions_per_trial", "count", "lower", "ops_per_s on roundtrip-mix"),
        ("linalg.DensityOperator.constructions_per_trial", "count", "lower", "ops_per_s on roundtrip-mix"),
        ("linalg.DensityOperator.share", "share", "lower", "ops_per_s on roundtrip-mix"),
        ("linalg.tensor_product.calls_per_trial", "count", "lower", "ops_per_s on roundtrip-mix"),
        ("linalg.tensor_product.share", "share", "lower", "ops_per_s on roundtrip-mix"),
    ]
    + [(f"metrics.channel_fidelity.us.d{d}", "us", "lower", "ops_per_s on roundtrip-mix") for d in _D_ALL]
    + [(f"metrics.cb_distance_interval.ms.d{d}", "ms", "lower", "ops_per_s on cbdist-pairs only") for d in (2, 3)]
    + [
        ("metrics.cb_distance_interval.share", "share", "lower", "ops_per_s on cbdist-pairs only"),
        ("metrics.cb_distance_interval.rel_gap_mean", "ratio", "lower", "precision of cbdist-pairs"),
    ]
    + [(f"metrics.cb_objective.us.d{d}", "us", "lower", "ops_per_s on cbdist-pairs only") for d in (2, 3)]
    + [
        ("harness.run_roundtrip.self_share", "share", "lower", "ops_per_s on roundtrip-mix"),
        ("harness.apply_noise.us", "us", "lower", "ops_per_s on roundtrip-mix"),
        ("harness.records_to_csv.ms", "ms", "lower", "ops_per_s on roundtrip-mix and sweep-illcond"),
    ]
    + [(f"serialize.decode.{what}.{kind}", unit, "lower", "ops_per_s on sweep-illcond; hardly roundtrip-mix")
       for kind in ("channel", "density", "reference") for what, unit in (("us", "us"), ("bytes", "B"))]
    + [(f"serialize.encode.{what}.{kind}", unit, "lower", "ops_per_s on sweep-illcond and cbdist-pairs")
       for kind in ("channel", "norm_interval") for what, unit in (("us", "us"), ("bytes", "B"))]
    + [
        ("cli.self_ms", "ms", "lower", "setup_s and ops_per_s of short calls"),
        ("trace.overhead_share", "share", "lower", "none: traced over untraced wall time, minus one"),
    ]
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's self-test")
    p.add_argument("--spans", help="with --trace 1, also write every span to this JSONL file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _median(values, default=0.0):
    values = list(values)
    return float(statistics.median(values)) if values else default


def _import_chanid():
    for key in [k for k in sys.modules if k == "chanid" or k.startswith("chanid.")]:
        del sys.modules[key]
    chanid = importlib.import_module("chanid")
    importlib.import_module("chanid.cli")
    importlib.import_module("chanid.serialize")
    return chanid


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "numpy_imported_before_pins": NUMPY_IMPORTED_BEFORE_PINS,
    }


class Calibration:
    """A fixed kernel, independent of chanid, whose CPU time tracks the machine's current speed."""

    LOOP = 3000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = []
        for n in (4, 9, 16, 36):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.mats.append(a @ a.conj().T)
        self.samples = []
        self._kernel()  # warm-up

    def _kernel(self) -> None:
        for _ in range(2):
            for m in self.mats:
                w, v = np.linalg.eigh(m)
                (v * w) @ v.conj().T
                np.kron(m[:4, :4], m[:4, :4])
            total = 0
            for i in range(self.LOOP):
                total += i * i

    def sample(self) -> None:
        t0 = process_time()
        self._kernel()
        self.samples.append(process_time() - t0)

    def sample_tail(self) -> None:
        """Kernel times after the last call, to fill its window."""
        for _ in range(CAL_WINDOW - 1):
            self.sample()

    def timed(self, fn):
        """``fn()``'s result, its wall and CPU seconds, and the index of the kernel time after it."""
        w0, c0 = perf_counter(), process_time()
        result = fn()
        wall, cpu = perf_counter() - w0, process_time() - c0
        self.sample()
        return result, wall, cpu, len(self.samples) - 1

    def scaled(self, cpu_seconds: float, index: int) -> float:
        """CPU seconds at the reference speed, for a call timed just before sample ``index``."""
        window = self.samples[max(0, index - CAL_WINDOW):index + CAL_WINDOW]
        return cpu_seconds * CAL_REFERENCE_S / statistics.median(window)


class Runner:
    """Runs ops one at a time, times each ``cli_main`` call and checks its outputs."""

    def __init__(self, chanid, calibration: Calibration):
        self.chanid = chanid
        self.calibration = calibration
        self.records = []  # one dict per call
        self.first_result = {}  # key -> (exit code, output digest)

    def run(self, op, cycle: int, tracer: Tracer | None) -> None:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        err = io.StringIO()
        recording = tracer.active() if tracer is not None else contextlib.nullcontext()

        def call():
            with recording:
                return self.chanid.cli.cli_main(op.argv)

        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc, elapsed, cpu, cal_index = self.calibration.timed(call)
        failures, info = [], {}
        if rc == 0:
            try:
                failures, info = op.check()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                failures = [f"{op.key}: unreadable output: {exc!r}"]
        digest = hashlib.sha256()
        for path in op.outputs:
            if path.exists():
                digest.update(path.read_bytes())
        result = (rc, digest.hexdigest())
        first = self.first_result.setdefault(op.key, result)
        if result != first:
            failures.append(f"{op.key}: exit code or output bytes differ from its first run with the same inputs")
        self.records.append({
            "key": op.key, "group": op.group, "cycle": cycle, "traced": tracer is not None, "rc": rc,
            "wall_seconds": elapsed, "cpu_seconds": cpu, "cal_index": cal_index,
            "work": op.work if rc == 0 and not failures else 0, "attempted_work": op.work,
            "failures": failures, "info": {**op.info, **info},
            "message": err.getvalue().strip() if rc != 0 else "",
        })


def run_cycles(runner, workload, seconds, cycles, tracer=None, min_cycles=1, span_cap=None):
    """Run the workload's cycle once for each of ``cycles`` until ``seconds`` pass,
    but at least ``min_cycles`` times."""
    t_start = perf_counter()

    def enough():
        return perf_counter() - t_start >= seconds or (span_cap is not None and len(tracer) >= span_cap)

    done = 0
    for k in cycles:
        for op in workload.ops:
            runner.run(op, k, tracer)
            if done >= min_cycles and enough():
                return
        done += 1
        if done >= min_cycles and enough():
            return


def by_key(records) -> dict:
    keyed = {}
    for r in records:
        keyed.setdefault(r["key"], []).append(r)
    return keyed


def group_timings(records, typical) -> dict:
    """Per timing group: calls per cycle, and the typical call's work and seconds.

    A call that is repeated on the same inputs is timed by the median of
    its repeats, and ``typical`` picks the group's typical call from its
    distinct calls.  A call that fails delivers no work.
    """
    by_group = {}
    for rs in by_key(records).values():
        by_group.setdefault(rs[0]["group"], []).append(rs)
    return {
        group: {
            "per_cycle": len(calls),
            "calls": sum(len(rs) for rs in calls),
            **{
                field: typical([_median(r[field] for r in rs) for rs in calls])
                for field in ("seconds", "wall_seconds", "cpu_seconds")
            },
            "work": _median(min(r["work"] for r in rs) for rs in calls),
        }
        for group, calls in by_group.items()
    }


def throughput(timings: dict, seconds: str = "seconds") -> float:
    """Work units per second of a cycle made of typical calls."""
    work = sum(t["per_cycle"] * t["work"] for t in timings.values())
    return work / sum(t["per_cycle"] * t[seconds] for t in timings.values())


def precision_series(workload_name, records) -> dict:
    """Deterministic per seed: taken from the first run of each cycle-0 call."""
    first = {}
    for r in records:
        if r["cycle"] == 0:
            first.setdefault(r["key"], r)
    series = {}
    if workload_name == "cbdist-pairs":
        pairs = [
            {k: r["info"].get(k) for k in ("d", "kind", "lower", "upper", "witness_norm", "rel_gap")}
            | {"exit": r["rc"]}
            for r in first.values() if r["info"]["series"]
        ]
        gaps = [p["rel_gap"] for p in pairs if p["rel_gap"] is not None]
        series["cb_pairs"] = pairs
        series["cb_rel_gap_mean"] = sum(gaps) / len(gaps) if gaps else 0.0
    if workload_name == "sweep-illcond":
        points = [
            {k: r["info"].get(k) for k in ("d", "min_eig", "choi_err", "kraus_rank", "rank_excess")}
            | {"exit": r["rc"], "digits": r["info"]["digits"] if r["rc"] == 0 and not r["failures"] else 0.0}
            for r in first.values() if r["info"].get("noiseless")
        ]
        series["noiseless_points"] = points
        series["choi_err_digits_mean"] = sum(p["digits"] for p in points) / len(points)
        excess = [p["rank_excess"] for p in points if p["rank_excess"] is not None]
        series["rank_excess_mean"] = sum(excess) / len(excess) if excess else 0.0
        series["sweep_grids"] = {f"d{r['info']['d']}": r["info"]["grid"] for r in first.values() if "grid" in r["info"]}
    return series


def layer_metrics(tracer: Tracer, records, series, overhead: float) -> dict:
    s = SpanSummary(tracer)
    roots = {i for i in s.by_name.get("cli.cli_main", []) if tracer.parent[i] < 0}
    everywhere = set(range(len(tracer)))
    traced = [r for r in records if r["traced"]]
    work = sum(r["attempted_work"] for r in traced) or 1
    wall = sum(s.duration[i] for i in roots) or 1.0

    def med(name, scale, dim=None, pool=roots):
        return _median(s.duration[i] * scale for i in s.ids(name, pool, dim))

    def share(name):
        return sum(s.duration[i] for i in s.outermost(s.ids(name, roots))) / wall

    def per_trial(name):
        return len(s.ids(name, roots)) / work

    def payload_bytes(name):
        return _median(tracer.payload_bytes(i) for i in s.ids(name, roots) if i in tracer.payload)

    out = {}
    for d in _D_ALL:
        out[f"identify.reconstruct.us.d{d}"] = med("identify.reconstruct", 1e6, d)
        out[f"identify.forward_map.us.d{d}"] = med("identify.forward_map", 1e6, d)
    out["identify.reconstruct.share"] = share("identify.reconstruct")
    out["identify.reconstruct.rank_excess"] = series.get("rank_excess_mean", 0.0)
    out["identify.reconstruct.choi_err_digits_mean"] = series.get("choi_err_digits_mean", 0.0)
    for name in ("from_choi", "choi", "random_channel"):
        out[f"channel.{name}.us"] = med(f"channel.{name}", 1e6)
    out["channel.KrausChannel.constructions_per_trial"] = per_trial("channel.KrausChannel")
    out["linalg.DensityOperator.constructions_per_trial"] = per_trial("linalg.DensityOperator")
    out["linalg.DensityOperator.share"] = share("linalg.DensityOperator")
    out["linalg.tensor_product.calls_per_trial"] = per_trial("linalg.tensor_product")
    out["linalg.tensor_product.share"] = share("linalg.tensor_product")
    for d in _D_ALL:
        out[f"metrics.channel_fidelity.us.d{d}"] = med("metrics.channel_fidelity", 1e6, d)
    for d in (2, 3):
        out[f"metrics.cb_distance_interval.ms.d{d}"] = med("metrics.cb_distance_interval", 1e3, d)
    out["metrics.cb_distance_interval.share"] = share("metrics.cb_distance_interval")
    out["metrics.cb_distance_interval.rel_gap_mean"] = series.get("cb_rel_gap_mean", 0.0)
    for d in (2, 3):
        # the benchmark's own witness re-checks, outside any cli_main call
        out[f"metrics.cb_objective.us.d{d}"] = med("metrics.cb_objective", 1e6, d, everywhere)
    rr = s.ids("harness.run_roundtrip", roots)
    rr_total = sum(s.duration[i] for i in rr)
    out["harness.run_roundtrip.self_share"] = sum(s.self_time(i) for i in rr) / rr_total if rr_total else 0.0
    out["harness.apply_noise.us"] = med("harness.apply_noise", 1e6)
    out["harness.records_to_csv.ms"] = med("harness.records_to_csv", 1e3)
    for direction, kinds in (("decode", ("channel", "density", "reference")), ("encode", ("channel", "norm_interval"))):
        for kind in kinds:
            fn = f"serialize.{kind}_from_json" if direction == "decode" else f"serialize.{kind}_to_json"
            out[f"serialize.{direction}.us.{kind}"] = med(fn, 1e6)
            out[f"serialize.{direction}.bytes.{kind}"] = payload_bytes(fn)
    out["cli.self_ms"] = _median(s.self_time(i) * 1e3 for i in roots)
    out["trace.overhead_share"] = overhead
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "chanid" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'chanid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    calibration = Calibration()

    def setup():
        shutil.rmtree(workdir, ignore_errors=True)
        chanid = _import_chanid()
        workdir.mkdir(parents=True)
        return chanid, workload_cls(chanid, args.seed, workdir, args.tiny)

    try:
        setups = [calibration.timed(setup) for _ in range(2 if args.tiny else SETUP_REPEATS)]
        chanid, workload = setups[-1][0]
        if not Path(chanid.__file__).resolve().is_relative_to(SRC):
            print(f"bench: chanid imported from {chanid.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        return _measure(args, chanid, workload, calibration, [s[1:] for s in setups])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK_ROOT.rmdir()


def _measure(args, chanid, workload, calibration: Calibration, setups: list) -> int:
    env = environment()
    env_failures = []
    if NUMPY_IMPORTED_BEFORE_PINS or any(os.environ.get(v) != "1" for v in THREAD_PINS):
        env_failures.append("BLAS/OpenMP thread pins were not in place before numpy was imported")

    runner = Runner(chanid, calibration)
    tracer = None
    overhead = None
    if args.trace == 0:
        run_cycles(runner, workload, args.seconds, itertools.count(), min_cycles=workload.min_cycles)
    else:
        # cycle 0 untraced, then cycle 0 again and further cycles traced: the
        # replay must write the same bytes, and its time gives the overhead
        t_start = perf_counter()
        run_cycles(runner, workload, 0.0, [0])
        tracer = Tracer()
        tracer.install()
        workload.recording = tracer.active
        try:
            run_cycles(runner, workload, args.seconds - (perf_counter() - t_start), itertools.count(),
                       tracer=tracer, span_cap=MAX_SPANS)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write_jsonl(args.spans)
    calibration.sample_tail()

    records = runner.records
    for r in records:
        r["seconds"] = calibration.scaled(r["cpu_seconds"], r["cal_index"])
    if tracer is not None:
        c0 = [r for r in records if r["cycle"] == 0]
        overhead = sum(r["seconds"] for r in c0 if r["traced"]) / sum(r["seconds"] for r in c0 if not r["traced"]) - 1.0
    untraced = [r for r in records if not r["traced"]]
    failed_calls = [r for r in records if r["rc"] != 0 or r["failures"]]
    check_failures = [f for r in records for f in r["failures"]] + env_failures
    keyed = by_key(records)
    attempted = len(keyed) + 1  # the operations, plus the environment check
    failed = len({r["key"] for r in failed_calls}) + len(env_failures)
    series = precision_series(workload.name, records)
    timings = group_timings(untraced, workload.typical)
    setup_s = _median(calibration.scaled(cpu, index) for _, cpu, index in setups)

    named = {
        "setup_s": (setup_s, "s"),
        workload.throughput_name: (throughput(timings), "1/s"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if "cb_rel_gap_mean" in series:
        named["cb_rel_gap_mean"] = (series["cb_rel_gap_mean"], "ratio")
    if "choi_err_digits_mean" in series:
        named["choi_err_digits_mean"] = (series["choi_err_digits_mean"], "digits")
    gated = {
        "ops_per_s": named[workload.throughput_name][0],
        "setup_s": setup_s,
        "peak_rss_mb": named["peak_rss_mb"][0],
    }

    if args.trace == 0:
        metrics = {name: {"value": gated[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(tracer, records, series, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}

    messages = {}
    for r in failed_calls:
        text = r["message"] or "; ".join(r["failures"])
        messages[text] = messages.get(text, 0) + 1
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "cycles": 1 + max(r["cycle"] for r in records),
        "operations": len(keyed),
        "calls": len(records),
        "untraced_calls": timings,
        "unscaled": {
            f"{workload.throughput_name}.wall": throughput(timings, "wall_seconds"),
            f"{workload.throughput_name}.cpu": throughput(timings, "cpu_seconds"),
            "setup_s.wall": _median(wall for wall, _, _ in setups),
            "setup_s.cpu": _median(cpu for _, cpu, _ in setups),
        },
        "calibration": {
            "reference_s": CAL_REFERENCE_S,
            "samples": len(calibration.samples),
            "median_s": _median(calibration.samples),
            "quartiles_s": statistics.quantiles(calibration.samples, n=4),
        },
        "work_units": workload.unit,
        "failures": [{"message": m, "count": c} for m, c in messages.items()],
        "precision": series,
        "environment": env,
    }
    if overhead is not None:
        report["tracing_overhead_share"] = overhead
        report["spans"] = len(tracer)

    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    if overhead is not None:
        print(f"tracing_overhead_share = {overhead:.4g}")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
