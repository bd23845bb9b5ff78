"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Runs every workload once untraced and once traced, each for about a
second, and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAMED_METRICS = {
    "roundtrip-mix": {"roundtrip_trials_per_s": "1/s"},
    "cbdist-pairs": {"cbdist_intervals_per_s": "1/s", "cb_rel_gap_mean": "ratio"},
    "sweep-illcond": {"sweep_points_per_s": "1/s", "choi_err_digits_mean": "digits"},
}
COMMON_METRICS = {"setup_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("report: "):])


def _assert_metrics(metrics: dict, spec: list[dict]):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        entry = metrics[m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, report = tiny_run(workload, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["attempted"] >= 1
    _assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected = {**COMMON_METRICS, **NAMED_METRICS[workload]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert report["environment"]["thread_pins"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, report = tiny_run(workload, 1)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True  # includes: traced outputs byte-identical to untraced ones
    _assert_metrics(result["metrics"], SPEC["per_layer"])
    assert "tracing_overhead_share" in report and report["spans"] > 0


def test_traced_run_writes_its_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run(ROOT, "--workload", "cbdist-pairs", "--seed", "1", "--seconds", "1", "--trace", "1",
                "--tiny", "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"cli.cli_main", "metrics.cb_distance_interval", "serialize.channel_from_json"} <= {r["name"] for r in rows}
    for r in rows:
        assert r["end"] >= r["start"]
        assert r["parent"] < r["id"] and r["root"] <= r["id"]


def test_layers_named_by_the_workloads_are_measured():
    rt = tiny_run("roundtrip-mix", 1)[0]["metrics"]
    for name in ("identify.reconstruct.us.d6", "metrics.channel_fidelity.us.d2", "channel.from_choi.us",
                 "linalg.tensor_product.calls_per_trial", "harness.records_to_csv.ms", "cli.self_ms"):
        assert rt[name]["value"] > 0, name
    cb = tiny_run("cbdist-pairs", 1)[0]["metrics"]
    for name in ("metrics.cb_distance_interval.ms.d3", "metrics.cb_objective.us.d2",
                 "serialize.decode.bytes.channel", "serialize.encode.us.norm_interval"):
        assert cb[name]["value"] > 0, name
    assert cb["identify.reconstruct.share"]["value"] == 0
    sw = tiny_run("sweep-illcond", 1)[0]["metrics"]
    for name in ("serialize.decode.us.density", "serialize.decode.us.reference", "identify.reconstruct.us.d3"):
        assert sw[name]["value"] > 0, name


def test_sweep_keeps_the_known_noiseless_failure_visible():
    result, report = tiny_run("sweep-illcond", 0)
    points = report["precision"]["noiseless_points"]
    assert {(p["d"], p["min_eig"]) for p in points} == {(d, m) for d in (3, 6) for m in (1e-2, 1e-4, 1e-6, 1e-8)}
    assert all(p["exit"] == 0 for p in points if p["min_eig"] > 1e-8)
    # the grid starts at exactly 1/d, which only a full-precision repr gets through the CLI
    assert report["precision"]["sweep_grids"]["d6"][0] == 1 / 6
    assert not any("sweep-d" in f["message"] for f in report["failures"])
    if any(p["exit"] != 0 for p in points):
        assert result["failed"] > 0 and report["metrics"]["fail_ratio"]["value"] > 0
    # one operation per distinct input (two sweeps, the noiseless points), plus the environment check
    assert result["attempted"] == len(points) + 3
    assert result["failed"] == sum(1 for p in points if p["exit"] != 0)


def test_cb_precision_series_has_twelve_pairs():
    pairs = tiny_run("cbdist-pairs", 0)[1]["precision"]["cb_pairs"]
    assert len(pairs) == 12
    assert all(0 <= p["lower"] <= p["upper"] <= 2 and abs(p["witness_norm"] - 1) < 1e-9 for p in pairs)


def _import_run():
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    return run


def test_calibration_scales_by_the_median_kernel_time_around_a_call():
    run = _import_run()
    cal = run.Calibration()
    cal.samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 9.0]
    # the call ran before sample 3: its window is samples 0..5, median 1.5
    assert cal.scaled(3.0, 3) == 3.0 * run.CAL_REFERENCE_S / 1.5
    # at the start of the run the window is cut short
    assert cal.scaled(1.0, 0) == run.CAL_REFERENCE_S / 1.0


def test_benchmark_json_matches_the_script():
    run = _import_run()
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert WORKLOADS == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.LAYER_METRICS
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
