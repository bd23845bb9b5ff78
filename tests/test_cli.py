import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanid import metrics, serialize
from chanid.channel import choi, random_channel
from chanid.cli import _emit, cli_main
from chanid.harness import CSV_COLUMNS
from chanid.identify import forward_map, make_reference
from chanid.linalg import DensityOperator, maximally_mixed
from chanid.serialize import (
    channel_from_json,
    channel_to_json,
    density_to_json,
    matrix_from_json,
    matrix_to_json,
    reference_to_json,
)

from conftest import cb_dual_kron_oracle, noise_clipped_state


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def noiseless_setup(tmp_path):
    t = random_channel(2, 2, 2, seed=7)
    ref = make_reference(maximally_mixed(2))
    w = forward_map(t, ref)
    w_path = write_json(tmp_path / "w.json", density_to_json(w))
    ref_path = write_json(tmp_path / "ref.json", reference_to_json(ref))
    return t, w_path, ref_path


class TestRandChannel:
    def test_emits_valid_cptp_channel(self, tmp_path):
        out = tmp_path / "chan.json"
        assert cli_main(
            ["randchannel", "--d1", "2", "--d2", "2", "--rank", "2", "--seed", "7",
             "--out", str(out)]
        ) == 0
        t = channel_from_json(json.loads(out.read_text()))
        assert t.trace_preserving
        assert np.linalg.eigvalsh(choi(t).mat)[0] >= -1e-9

    def test_stdout_mode(self, capsys):
        assert cli_main(["randchannel", "--d1", "2", "--d2", "3", "--rank", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim_out"] == 3

    def test_bad_rank_is_validation_error(self, capsys):
        assert cli_main(["randchannel", "--d1", "2", "--d2", "2", "--rank", "9"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("d1, d2", [("0", "3"), ("-1", "-1")])
    def test_non_positive_dimension_is_one_line_validation_error(self, capsys, d1, d2):
        assert cli_main(["randchannel", "--d1", d1, "--d2", d2, "--rank", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and "dimensions must be positive" in err
        assert err.count("\n") == 1


class TestReconstruct:
    def test_noiseless_round_trip_with_sidecar(self, tmp_path, noiseless_setup):
        t, w_path, ref_path = noiseless_setup
        out = tmp_path / "rec.json"
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path, "--out", str(out)]) == 0
        rec = channel_from_json(json.loads(out.read_text()))
        assert np.linalg.norm(choi(rec).mat - choi(t).mat, "nuc") <= 1e-8
        report = json.loads((tmp_path / "rec.json.report.json").read_text())
        assert report["tp_residual"] <= 1e-8
        assert report["consistency_residual"] <= 1e-8

    def test_combined_stdout_payload(self, capsys, noiseless_setup):
        _, w_path, ref_path = noiseless_setup
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tp_residual"] <= 1e-8
        assert "channel" in payload

    def test_state_dim_not_a_multiple_of_the_reference_dim(self, tmp_path, capsys):
        w_path = write_json(tmp_path / "w.json", density_to_json(DensityOperator(np.eye(4) / 4)))
        ref_path = write_json(tmp_path / "ref.json", reference_to_json(make_reference(maximally_mixed(3))))
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "chanid: error: state dim 4 is not a multiple of reference dim 3\n"
        assert captured.out == ""

    def test_sidecar_and_channel_split_the_stdout_payload(self, tmp_path, capsys, noiseless_setup):
        # one serialization is the source of both forms, in the same key order
        _, w_path, ref_path = noiseless_setup
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 0
        payload = capsys.readouterr().out
        out = tmp_path / "rec.json"
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path, "--out", str(out)]) == 0
        report = json.loads((tmp_path / "rec.json.report.json").read_text())
        assert list(report) == ["tp_residual", "consistency_residual", "clip_magnitude"]
        split = {"channel": json.loads(out.read_text()), **report}
        assert json.dumps(split, indent=2) + "\n" == payload

    def test_report_path_replaces_the_sidecar(self, tmp_path, noiseless_setup):
        _, w_path, ref_path = noiseless_setup
        out, report = tmp_path / "rec.json", tmp_path / "residuals.json"
        argv = ["reconstruct", "--w", w_path, "--ref", ref_path, "--out", str(out), "--report", str(report)]
        assert cli_main(argv) == 0
        assert list(json.loads(report.read_text())) == ["tp_residual", "consistency_residual", "clip_magnitude"]
        assert not (tmp_path / "rec.json.report.json").exists()

    def test_report_without_out_is_one_line_validation_error(self, tmp_path, capsys, noiseless_setup):
        _, w_path, ref_path = noiseless_setup
        report = tmp_path / "residuals.json"
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path, "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chanid: error: --report needs --out") and captured.err.count("\n") == 1
        assert not report.exists()

    def test_state_clipped_at_admission_is_accepted(self, tmp_path, capsys):
        w_path = write_json(tmp_path / "w.json", matrix_to_json(noise_clipped_state()))
        ref_path = write_json(tmp_path / "ref.json", reference_to_json(make_reference(maximally_mixed(2))))
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 0
        assert "channel" in json.loads(capsys.readouterr().out)

    def test_singular_reference_is_numerical_failure(self, tmp_path, capsys):
        ref_obj = {"rho": matrix_to_json(np.diag([1.0, 0.0])), "cutoff": 1e-10, "out_basis": None}
        ref_path = write_json(tmp_path / "bad_ref.json", ref_obj)
        w = DensityOperator(np.eye(4) / 4)
        w_path = write_json(tmp_path / "w.json", density_to_json(w))
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["reconstruct", "--w", str(bad), "--ref", str(bad)]) == 1
        assert "malformed JSON" in capsys.readouterr().err


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")])
_PART = _FLOATS | st.integers(-(2**70), 2**70) | st.booleans()
_KEYS = st.text() | st.sampled_from(['"', "\\", "\n", "\t", "\x7f", "é", "\u2028", "\U0001f4a5", ""])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**200) | _FLOATS | st.text()
    | st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2), max_size=5)
    | st.lists(st.lists(_PART, min_size=2, max_size=2) | st.tuples(_PART, _PART), max_size=5),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4)
    | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), children, max_size=3),
    max_leaves=24,
)


class TestEmit:
    """Every JSON file the CLI writes is ``json.dumps(obj, indent=2)`` and a newline."""

    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_VALUES)
    @example(obj={"data": [[0.5, -0.0], [5e-324, 1e308]], "nested": {"pairs": ([1.0, 2.0], [3.0, 4.0])}})
    @example(obj=[[float("nan"), 1.0], [float("inf"), float("-inf")]])
    @example(obj=[[1.0, 2], [True, 0.5], [None, 1.0]])
    @example(obj={"é\n\"": [], "": {}, "k": [[]], "t": (), "big": 2**100})
    def test_text_is_the_stdlib_indent_2_text(self, obj):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _emit(obj, None)
        assert out.getvalue() == json.dumps(obj, indent=2) + "\n"

    def test_file_is_the_stdlib_indent_2_text(self, tmp_path):
        obj = serialize.norm_interval_to_json(
            metrics.cb_distance_interval(random_channel(2, 2, 2, seed=3), random_channel(2, 2, 2, seed=4), starts=2)
        )
        _emit(obj, str(tmp_path / "cb.json"))
        assert (tmp_path / "cb.json").read_text() == json.dumps(obj, indent=2) + "\n"


class TestFidelityAndCbdist:
    def test_fidelity_output(self, tmp_path, capsys):
        t1 = write_json(tmp_path / "a.json", channel_to_json(random_channel(2, 2, 2, seed=1)))
        t2 = write_json(tmp_path / "b.json", channel_to_json(random_channel(2, 2, 2, seed=2)))
        assert cli_main(["fidelity", "--t1", t1, "--t2", t2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["fidelity"] <= 1.0
        assert payload["fvdg_lhs"] <= payload["fvdg_rhs"] + 1e-9

    def test_cbdist_interval(self, tmp_path, capsys):
        t1 = write_json(tmp_path / "a.json", channel_to_json(random_channel(2, 2, 2, seed=3)))
        t2 = write_json(tmp_path / "b.json", channel_to_json(random_channel(2, 2, 2, seed=4)))
        assert cli_main(["cbdist", "--t1", t1, "--t2", t2, "--starts", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["lower"] <= payload["upper"] <= 2.0 + 1e-9

    def test_cbdist_upper_end_rechecks_from_its_dual_state(self, tmp_path, capsys):
        a, b = random_channel(3, 3, 3, seed=9), random_channel(3, 3, 3, seed=10)
        t1 = write_json(tmp_path / "a.json", channel_to_json(a))
        t2 = write_json(tmp_path / "b.json", channel_to_json(b))
        assert cli_main(["cbdist", "--t1", t1, "--t2", t2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"lower", "upper", "argmax_state", "dual_state"}
        sigma = matrix_from_json(payload["dual_state"])
        top, least, y_norm = cb_dual_kron_oracle(a, b, sigma)
        assert least >= -1e-8 * y_norm
        assert abs(payload["upper"] - min(top, 2.0)) <= 3e-8 * y_norm
        assert payload["upper"] - payload["lower"] <= 1e-4 * payload["upper"]

    def test_cbdist_bytes_repeat(self, tmp_path):
        t1 = write_json(tmp_path / "a.json", channel_to_json(random_channel(3, 3, 3, seed=7)))
        t2 = write_json(tmp_path / "b.json", channel_to_json(random_channel(3, 3, 2, seed=8)))
        outs = [tmp_path / "i1.json", tmp_path / "i2.json"]
        for out in outs:
            assert cli_main(["cbdist", "--t1", t1, "--t2", t2, "--starts", "6", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_failed_certificate_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "_dual_upper", lambda *args: (1e-3, np.eye(2) / 2))
        t1 = write_json(tmp_path / "a.json", channel_to_json(random_channel(2, 2, 2, seed=3)))
        t2 = write_json(tmp_path / "b.json", channel_to_json(random_channel(2, 2, 2, seed=4)))
        assert cli_main(["cbdist", "--t1", t1, "--t2", t2, "--starts", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("chanid: numerical failure:")

    def test_negative_starts_is_validation_error(self, tmp_path, capsys):
        t = write_json(tmp_path / "a.json", channel_to_json(random_channel(2, 2, 2, seed=3)))
        assert cli_main(["cbdist", "--t1", t, "--t2", t, "--starts", "-3"]) == 1
        assert "starts" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--tol", "1e-10"), ("--seed", "3")])
    def test_retired_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # the ascent stops at CB_TOL and its random starts are drawn at CB_SEED
        t = write_json(tmp_path / "a.json", channel_to_json(random_channel(2, 2, 2, seed=1)))
        out = tmp_path / "cb.json"
        assert cli_main(["cbdist", "--t1", t, "--t2", t, flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: chanid")
        [error] = [line for line in captured.err.splitlines() if "error:" in line]
        assert error == f"chanid: error: unrecognized arguments: {flag} {value}"
        assert captured.err.endswith(error + "\n")
        assert not out.exists()

    def test_fidelity_is_evaluated_once(self, tmp_path, capsys, monkeypatch):
        calls, fidelities = [], metrics._channel_fidelities
        monkeypatch.setattr(metrics, "_channel_fidelities", lambda *a: calls.append(1) or fidelities(*a))
        c1, c2 = random_channel(3, 3, 3, seed=1), random_channel(3, 3, 2, seed=2)
        t1 = write_json(tmp_path / "a.json", channel_to_json(c1))
        t2 = write_json(tmp_path / "b.json", channel_to_json(c2))
        assert cli_main(["fidelity", "--t1", t1, "--t2", t2]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["fidelity"] == metrics.channel_fidelity(c1, c2)

    def test_dimension_mismatch_is_validation_error(self, tmp_path, capsys):
        t1 = write_json(tmp_path / "a.json", channel_to_json(random_channel(2, 2, 2, seed=5)))
        t2 = write_json(tmp_path / "b.json", channel_to_json(random_channel(3, 3, 2, seed=6)))
        assert cli_main(["fidelity", "--t1", t1, "--t2", t2]) == 1
        assert "error" in capsys.readouterr().err


class TestBatchCommands:
    CONFIG = {
        "d1": 2,
        "d2": 2,
        "kraus_rank": 2,
        "ref_spec": {"random_min_eig": 0.1},
        "noise": {"depolarize": 0.02},
        "trials": 4,
        "seed": 9,
    }

    def test_roundtrip_deterministic_bytes(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["roundtrip", "--config", cfg, "--out", str(out1)]) == 0
        assert cli_main(["roundtrip", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("trial_index,min_eig_rho,noise_eps,trace_dist_w")

    def test_roundtrip_jitter_at_dimension_one(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"d1": 1, "d2": 1, "kraus_rank": 1, "noise": {"hermitian_jitter": 0.01}, "trials": 2, "seed": 1},
        )
        out = tmp_path / "runs.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["roundtrip", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        col = CSV_COLUMNS.index("trace_dist_w")
        assert all(float(row.split(",")[col]) == 0.0 for row in rows)

    def test_sweep_with_grid_flag(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "trials": 1})
        out = tmp_path / "sweep.csv"
        assert cli_main(
            ["sweep", "--config", cfg, "--out", str(out), "--grid", "0.5,0.25,0.1,0.05,0.01"]
        ) == 0
        rows = out.read_text().splitlines()[1:]
        bounds = [float(r.split(",")[7]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize(
        "stale",
        [[0.5, 0.25], ["0.1", "0.01"], [0.1, True], [[0.1]], [None], 5, "0.1", {"0.5": 1}],
        ids=["list", "strings", "bool", "nested", "null", "number", "string", "object"],
    )
    def test_stale_min_eig_grid_is_ignored(self, tmp_path, capsys, stale):
        # the grid comes from --grid alone; a config that still carries the key loads
        plain = write_json(tmp_path / "plain.json", {**self.CONFIG, "trials": 2})
        carrying = write_json(tmp_path / "stale.json", {**self.CONFIG, "trials": 2, "min_eig_grid": stale})
        for argv in (["roundtrip"], ["sweep", "--grid", "0.5,0.1,0.01"]):
            outs = [tmp_path / "plain.csv", tmp_path / "stale.csv"]
            for cfg, out in zip((plain, carrying), outs):
                assert cli_main(argv + ["--config", cfg, "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()

    def test_sweep_without_grid_fails_validation(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "trials": 1, "min_eig_grid": [0.5, 0.25]})
        out = tmp_path / "s.csv"
        assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: chanid sweep")
        [error] = [line for line in captured.err.splitlines() if "error:" in line]
        assert error == "chanid sweep: error: the following arguments are required: --grid"
        assert captured.err.endswith(error + "\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, entry", [("", ""), ("0.1,,0.2", ""), ("0.1,abc", "abc")], ids=["empty", "empty-entry", "word"]
    )
    def test_bad_grid_entry_is_one_line_validation_error(self, tmp_path, capsys, grid, entry):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "trials": 1})
        out = tmp_path / "s.csv"
        assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chanid: error: --grid entry {entry!r} is not a number\n"
        assert not out.exists()

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"d1": 2})
        assert cli_main(["roundtrip", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestHugeNumbers:
    # JSON reads 1e400 as float infinity, which int() cannot convert
    @pytest.mark.parametrize(
        "text, argv",
        [
            (
                '{"dim_in": 1e400, "dim_out": 2, "kraus": []}',
                ["fidelity", "--t1", "IN", "--t2", "IN"],
            ),
            (
                '{"d1": 1e400, "d2": 2, "kraus_rank": 2, "trials": 1}',
                ["roundtrip", "--config", "IN", "--out", "OUT"],
            ),
        ],
        ids=["channel", "config"],
    )
    def test_huge_dimension_is_one_line_validation_error(self, tmp_path, capsys, text, argv):
        (tmp_path / "in.json").write_text(text)
        paths = {"IN": str(tmp_path / "in.json"), "OUT": str(tmp_path / "out.csv")}
        assert cli_main([paths.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:")
        assert err.count("\n") == 1


class TestSeedRange:
    """A seed beyond the draw rule's range is a one-line validation error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["randchannel", "--d1", "2", "--d2", "2", "--rank", "2", "--seed", str(2**128)],
            ["roundtrip", "--config", "CFG", "--out", "OUT"],
        ],
        ids=["randchannel-2^128", "config-2^64"],
    )
    def test_exit_1_with_one_line(self, tmp_path, capsys, argv):
        paths = {
            "T": write_json(tmp_path / "t.json", channel_to_json(random_channel(2, 2, 2, seed=3))),
            "CFG": write_json(tmp_path / "cfg.json", {"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 1, "seed": 2**64}),
            "OUT": str(tmp_path / "out.csv"),
        }
        assert cli_main([paths.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chanid: error: seed must be non-negative")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestNonIntegerFields:
    """Integer fields of JSON input are checked, not truncated or coerced by int()."""

    CONFIG = {"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 3, "seed": 1}
    QUBIT_IDENTITY = {"dim_in": 2, "dim_out": 2, "kraus": [matrix_to_json(np.eye(2))]}

    @pytest.mark.parametrize(
        "changes",
        [
            {"d1": 2.7, "trials": "3", "seed": 1.9},
            {"d1": 2.7},
            {"kraus_rank": 2.0},
            {"trials": "3"},
            {"seed": 1.9},
            {"seed": True},
        ],
        ids=["all", "float-d1", "integral-float-rank", "string-trials", "float-seed", "bool-seed"],
    )
    def test_config(self, tmp_path, capsys, changes):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, **changes})
        assert cli_main(["roundtrip", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and "must be a JSON integer" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "channel",
        [
            {**QUBIT_IDENTITY, "dim_in": 2.9},
            {**QUBIT_IDENTITY, "dim_out": "2"},
            {**QUBIT_IDENTITY, "kraus": [{**matrix_to_json(np.eye(2)), "rows": 2.5}]},
        ],
        ids=["float-dim-in", "string-dim-out", "float-rows"],
    )
    def test_channel(self, tmp_path, capsys, channel):
        good = write_json(tmp_path / "good.json", self.QUBIT_IDENTITY)
        bad = write_json(tmp_path / "bad.json", channel)
        assert cli_main(["cbdist", "--t1", bad, "--t2", good]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and "must be a JSON integer" in err
        assert err.count("\n") == 1


class TestNonNumberFloatFields:
    """Real-number fields of JSON input are checked, not coerced by float()."""

    CONFIG = {"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 3, "seed": 1}

    @pytest.mark.parametrize(
        "changes",
        [
            {"noise": {"depolarize": True}},
            {"noise": {"depolarize": "0.02"}},
            {"ref_spec": {"random_min_eig": "0.1"}},
            {"ref_spec": {"random_min_eig": False}},
            {"ref_spec": {"spectrum": ["0.5", 0.5]}},
            {"ref_spec": {"spectrum": [True, 0]}},
            {"noise": {"depolarize": 10**400}},
        ],
        ids=["bool-noise", "string-noise", "string-floor", "bool-floor", "string-spectrum", "bool-spectrum",
             "overflowing-noise"],
    )
    def test_config(self, tmp_path, capsys, changes):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, **changes})
        assert cli_main(["roundtrip", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and ("must be a JSON number" in err or "overflows" in err)
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("cutoff", ["1e-10", True], ids=["string", "bool"])
    def test_reference_cutoff(self, tmp_path, capsys, cutoff):
        ref = {"rho": matrix_to_json(np.eye(2) / 2), "cutoff": cutoff}
        ref_path = write_json(tmp_path / "ref.json", ref)
        w_path = write_json(tmp_path / "w.json", density_to_json(DensityOperator(np.eye(4) / 4)))
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and "cutoff must be a JSON number" in err
        assert err.count("\n") == 1

    def test_integers_are_numbers(self, tmp_path, capsys, noiseless_setup):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "noise": {"depolarize": 1}})
        assert cli_main(["roundtrip", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        _, w_path, _ = noiseless_setup
        ref_path = write_json(tmp_path / "ref0.json", {"rho": matrix_to_json(np.eye(2) / 2), "cutoff": 0})
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 0
        capsys.readouterr()


class TestMalformedInput:
    CONFIG = {"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 1, "seed": 3}

    @staticmethod
    def assert_one_line_error(code, capsys):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["w", "ref"])
    def test_non_number_matrix_entry(self, tmp_path, capsys, noiseless_setup, bad):
        _, w_path, ref_path = noiseless_setup
        paths = {"w": w_path, "ref": ref_path}
        with open(paths[bad]) as fh:
            obj = json.load(fh)
        (obj if bad == "w" else obj["rho"])["data"][1] = [1, "a"]
        paths[bad] = write_json(tmp_path / "bad.json", obj)
        code = cli_main(["reconstruct", "--w", paths["w"], "--ref", paths["ref"]])
        self.assert_one_line_error(code, capsys)

    @pytest.mark.parametrize(
        "ref_spec",
        [{"random_min_eig": float("nan")}, {"spectrum": [float("nan")] * 2}, {"spectrum": [0.5, 0.5 + 5e-10]}],
        ids=["nan-floor", "nan-spectrum", "sum-off-by-5e-10"],
    )
    def test_reference_spec_rejected(self, tmp_path, capsys, ref_spec):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "ref_spec": ref_spec})
        code = cli_main(["roundtrip", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        self.assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("cutoff", [float("nan"), -1.0], ids=["nan", "negative"])
    def test_reference_cutoff_rejected(self, tmp_path, capsys, cutoff):
        # either cutoff would admit this reference, min eig 1e-300
        rho = np.diag([1.0 - 1e-300, 1e-300])
        ref_path = write_json(tmp_path / "ref.json", {"rho": matrix_to_json(rho), "cutoff": cutoff})
        w_path = write_json(tmp_path / "w.json", density_to_json(DensityOperator(np.eye(4) / 4)))
        code = cli_main(["reconstruct", "--w", w_path, "--ref", ref_path])
        self.assert_one_line_error(code, capsys)


class TestNonListNumberFields:
    """A reference spectrum must be a JSON list: a string or an object is not
    walked entry by entry, and the one-line error names the field."""

    CONFIG = {"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 1, "seed": 3}
    FORMS = pytest.mark.parametrize(
        "value, kind", [("0.1", "str"), ({"0.5": 1}, "dict"), (0.5, "float")], ids=["string", "object", "number"]
    )

    @FORMS
    @pytest.mark.parametrize("command", [["roundtrip"], ["sweep", "--grid", "0.1"]], ids=["roundtrip", "sweep"])
    def test_spectrum(self, tmp_path, capsys, value, kind, command):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "ref_spec": {"spectrum": value}})
        out = tmp_path / "o.csv"
        assert cli_main(command + ["--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"chanid: error: spectrum must be a JSON list of numbers, got {kind}\n"
        assert not out.exists()


class TestBoolMatrixEntries:
    """A JSON bool is not a matrix entry, though complex() would read it as 1 or 0."""

    def test_fidelity_of_a_bool_channel(self, tmp_path, capsys):
        obj = {"dim_in": 1, "dim_out": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[True, False]]}]}
        path = write_json(tmp_path / "t.json", obj)
        assert cli_main(["fidelity", "--t1", path, "--t2", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and "must be JSON numbers" in err
        assert err.count("\n") == 1

    def test_reconstruct_of_a_bool_state_entry(self, tmp_path, capsys, noiseless_setup):
        _, w_path, ref_path = noiseless_setup
        with open(w_path) as fh:
            obj = json.load(fh)
        obj["data"][1] = [0.0, False]
        bad = write_json(tmp_path / "bad.json", obj)
        assert cli_main(["reconstruct", "--w", bad, "--ref", ref_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:") and "must be JSON numbers" in err
        assert err.count("\n") == 1


class TestOverflowingKrausEntries:
    def test_fidelity_is_one_line_validation_error(self, tmp_path, capsys):
        # 1e200 is a finite entry whose square is not; a process prints each warning on stderr
        obj = {"dim_in": 1, "dim_out": 1, "kraus": [{"rows": 1, "cols": 1, "data": [[1e200, 0]]}]}
        path = write_json(tmp_path / "x.json", obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["fidelity", "--t1", path, "--t2", path]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == "chanid: error: Choi matrix entries must be finite\n"


class TestSubnormalReference:
    def test_overflowing_inverse_is_one_line_numerical_failure(self, tmp_path, capsys):
        # cutoff 0 admits min eig 5e-324, whose inverse is not a finite double
        rho = np.diag([1.0, 5e-324])
        ref_path = write_json(tmp_path / "ref.json", {"rho": matrix_to_json(rho), "cutoff": 0.0})
        w_path = write_json(tmp_path / "w.json", density_to_json(DensityOperator(np.eye(4) / 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["reconstruct", "--w", w_path, "--ref", ref_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("chanid: numerical failure:")
        assert err.count("\n") == 1


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli_main(["randchannel", "--d1", "2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["randchannel", "--d1", "2"], "the following arguments are required"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["cbdist", "--t1", "a", "--t2", "b", "--starts", "x"], "argument --starts: invalid int value: 'x'"),
            (["fidelity", "--t1", "a", "--t2", "b", "--bogus"], "unrecognized arguments: --bogus"),
        ],
        ids=["missing-flag", "unknown-command", "bad-int", "unknown-flag"],
    )
    def test_bad_arguments_print_usage_and_one_error_line(self, capsys, argv, message):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: chanid")
        assert err.endswith("\n") and message in err.splitlines()[-1] and ": error: " in err.splitlines()[-1]

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()
