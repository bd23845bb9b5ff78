import json
import warnings

import numpy as np
import pytest

from chanid import metrics
from chanid.channel import choi, random_channel
from chanid.cli import cli_main
from chanid.harness import CSV_COLUMNS
from chanid.identify import forward_map, make_reference
from chanid.linalg import DensityOperator, maximally_mixed, trace_norm
from chanid.serialize import (
    channel_from_json,
    channel_to_json,
    density_to_json,
    matrix_to_json,
    reference_to_json,
)


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


class TestReconstruct:
    def test_noiseless_round_trip_with_sidecar(self, tmp_path, noiseless_setup):
        t, w_path, ref_path = noiseless_setup
        out = tmp_path / "rec.json"
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path, "--out", str(out)]) == 0
        rec = channel_from_json(json.loads(out.read_text()))
        assert trace_norm(choi(rec).mat - choi(t).mat) <= 1e-8
        report = json.loads((tmp_path / "rec.json.report.json").read_text())
        assert report["tp_residual"] <= 1e-8
        assert report["consistency_residual"] <= 1e-8

    def test_combined_stdout_payload(self, capsys, noiseless_setup):
        _, w_path, ref_path = noiseless_setup
        assert cli_main(["reconstruct", "--w", w_path, "--ref", ref_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tp_residual"] <= 1e-8
        assert "channel" in payload

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

    def test_cbdist_bytes_repeat(self, tmp_path):
        t1 = write_json(tmp_path / "a.json", channel_to_json(random_channel(3, 3, 3, seed=7)))
        t2 = write_json(tmp_path / "b.json", channel_to_json(random_channel(3, 3, 2, seed=8)))
        outs = [tmp_path / "i1.json", tmp_path / "i2.json"]
        for out in outs:
            assert cli_main(["cbdist", "--t1", t1, "--t2", t2, "--starts", "6", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_failed_certificate_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "_choi_difference_upper", lambda *args: 1e-3)
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

    def test_sweep_grid_from_config(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json", {**self.CONFIG, "trials": 1, "min_eig_grid": [0.5, 0.25]}
        )
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_sweep_without_grid_fails_validation(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "trials": 1})
        assert cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 1
        assert "grid" in capsys.readouterr().err

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


class TestMalformedInput:
    CONFIG = {"d1": 2, "d2": 2, "kraus_rank": 2, "trials": 1, "seed": 3}

    @staticmethod
    def assert_one_line_error(code, capsys):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("chanid: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("grid", [5, [[0.1]], [None]], ids=["number", "nested", "null"])
    def test_sweep_grid_not_a_list_of_numbers(self, tmp_path, capsys, grid):
        cfg = write_json(tmp_path / "cfg.json", {**self.CONFIG, "min_eig_grid": grid})
        code = cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")])
        self.assert_one_line_error(code, capsys)

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

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()
