import json
import re

import numpy as np
import pytest

from chanid.channel import choi, compose, depolarizing_channel, random_channel
from chanid.cli import cli_main
from chanid.identify import forward_map, make_reference
from chanid.linalg import DensityOperator
from chanid.serialize import (
    channel_from_json,
    channel_to_json,
    choi_from_json,
    choi_to_json,
    density_from_json,
    density_to_json,
    matrix_from_json,
    matrix_to_json,
    reference_from_json,
    reference_to_json,
    vector_from_json,
    vector_to_json,
)

from conftest import noise_clipped_state, rand_complex, rand_density_mat


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rand_complex(rng, 3, 2)
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 2 and len(obj["data"]) == 6
    np.testing.assert_array_equal(matrix_from_json(obj), m)


@pytest.mark.parametrize(
    "m",
    [
        np.array([[complex(-0.0, 0.5), complex(5e-324, -0.0)], [complex(1e308, 1.0), complex(0.0, -1e-300)]]),
        rand_complex(np.random.default_rng(2), 4, 3).T,  # non-contiguous
        rand_complex(np.random.default_rng(3), 5, 6)[::-2, 1::2],  # negative strides
        np.arange(6.0).reshape(2, 3),  # real
    ],
    ids=["edge-values", "transposed", "strided", "real"],
)
def test_encoders_emit_the_per_entry_floats(m):
    def per_entry(a):
        return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).reshape(-1)]

    obj = matrix_to_json(m)
    assert json.dumps(obj["data"]) == json.dumps(per_entry(m))
    assert (obj["rows"], obj["cols"]) == m.shape
    assert json.dumps(vector_to_json(m)) == json.dumps(per_entry(m))
    assert all(type(x) is float for pair in obj["data"] for x in pair)


def test_matrix_rejects_bad_payload():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})


def _per_entry_decode(data) -> np.ndarray:
    """The decode before it was vectorized: one complex(re, im) per entry."""
    return np.array([complex(re, im) for re, im in data])


def test_matrix_decode_keeps_the_bits_of_the_per_entry_decode():
    rng = np.random.default_rng(4)
    ref = make_reference(DensityOperator(rand_density_mat(rng, 3, 0.05)))
    payloads = [
        matrix_to_json(rand_complex(rng, 3, 2)),
        matrix_to_json(np.array([[complex(-0.0, 0.5), complex(5e-324, -0.0)], [complex(1e308, 1.0), 0.0]])),
        *channel_to_json(random_channel(2, 3, 2, seed=5))["kraus"],
        density_to_json(forward_map(random_channel(3, 3, 1, seed=2), ref)),
        reference_to_json(ref)["rho"],
        {"rows": 2, "cols": 2, "data": [[1, 0], [2**70, -3], [0, 1.5], [-(2**53) - 1, 2**63]]},  # JSON integers
    ]
    for obj in payloads:
        got = matrix_from_json(obj)
        assert got.dtype == complex and got.shape == (obj["rows"], obj["cols"])
        assert got.tobytes() == _per_entry_decode(obj["data"]).tobytes()


MATRIX_DATA_DEFECTS = [  # (id, data of a 2x1 matrix with one defect, the message it gives)
    ("bool-pair", [[True, False]], "got a bool"),
    ("bool-imaginary-part", [[0.5, True]], "got a bool"),
    ("string", [[1, "a"]], "must be a list of [re, im] number pairs"),
    ("numeric-string", [["1.5", 2**70]], "must be a list of [re, im] number pairs"),
    ("null", [[1, None]], "must be a list of [re, im] number pairs"),
    ("nested", [[1, [2]]], "must be a list of [re, im] number pairs"),
    ("ragged", [[1, 2], [3]], "must be a list of [re, im] number pairs"),
    ("ragged-same-count", [[1, 2, 3], [4]], "must be a list of [re, im] number pairs"),
    ("not-a-list", 5, "must be a list of [re, im] number pairs"),
    ("string-data", "ab", "must be a list of [re, im] number pairs"),
    ("huge-int", [[1, 10**400]], "must be a list of [re, im] number pairs"),
    ("nan", [[float("nan"), 0.0], [1, 2]], "matrix entries must be finite"),
    ("inf", [[1, 2], [0.0, float("-inf")]], "matrix entries must be finite"),
    ("count", [[1, 2]] * 3, "matrix data has 3 entries, expected 2"),
    ("empty", [], "matrix data has 0 entries, expected 2"),
]


@pytest.mark.parametrize(
    "data, message", [d[1:] for d in MATRIX_DATA_DEFECTS], ids=[d[0] for d in MATRIX_DATA_DEFECTS]
)
def test_matrix_decode_refusals(data, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        matrix_from_json({"rows": 2, "cols": 1, "data": data})
    assert "\n" not in str(info.value)


class TestKrausListDecode:
    """A channel's Kraus operators are decoded as one list: a defect in any one
    of them gives the message of decoding that matrix alone."""

    GOOD = matrix_to_json(np.array([[0.6], [0.8j]]))
    MATRIX_DEFECTS = [(d[0], {"rows": 2, "cols": 1, "data": d[1]}) for d in MATRIX_DATA_DEFECTS] + [
        ("float-rows", {**GOOD, "rows": 2.5}),
        ("zero-cols", {**GOOD, "cols": 0}),
        ("no-data", {"rows": 2, "cols": 1}),
        ("not-an-object", [[0.6, 0.0], [0.0, 0.8]]),
    ]

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [d[1] for d in MATRIX_DEFECTS], ids=[d[0] for d in MATRIX_DEFECTS])
    def test_a_defect_in_any_operator_gives_the_matrix_message(self, tmp_path, capsys, bad, position):
        with pytest.raises(ValueError) as alone:
            matrix_from_json(bad)
        kraus = [self.GOOD] * 3
        kraus[position] = bad
        channel = {"dim_in": 1, "dim_out": 2, "kraus": kraus}
        with pytest.raises(ValueError) as in_list:
            channel_from_json(channel)
        assert str(in_list.value) == str(alone.value) and "\n" not in str(alone.value)
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        t1.write_text(json.dumps(channel))
        t2.write_text(json.dumps({**channel, "kraus": [self.GOOD]}))
        assert cli_main(["cbdist", "--t1", str(t1), "--t2", str(t2)]) == 1
        assert capsys.readouterr().err == f"chanid: error: {alone.value}\n"

    @pytest.mark.parametrize(
        "shapes",
        [[(2, 2), (2, 1), (2, 2)], [(2, 2), (2, 2), (1, 2)], [(2, 1)] * 3],
        ids=["mixed-middle", "mixed-last", "same-wrong-shape"],
    )
    def test_operators_of_another_shape_give_the_kraus_channel_message(self, shapes):
        rng = np.random.default_rng(11)
        kraus = [matrix_to_json(rand_complex(rng, *shape)) for shape in shapes]
        wrong = next(shape for shape in shapes if shape != (2, 2))
        with pytest.raises(ValueError, match=re.escape(f"Kraus operator shape {wrong} != (2, 2)")):
            channel_from_json({"dim_in": 2, "dim_out": 2, "kraus": kraus})

    @pytest.mark.parametrize(
        "kraus, message",
        [
            ([], "at least one Kraus operator is required"),
            (5, "kraus must be a JSON list of matrix objects, got int"),
            (None, "kraus must be a JSON list of matrix objects, got NoneType"),
            ("ab", "kraus must be a JSON list of matrix objects, got str"),
            (GOOD, "kraus must be a JSON list of matrix objects, got dict"),
        ],
        ids=["empty", "number", "null", "string", "one-matrix-object"],
    )
    def test_empty_or_non_list_kraus_is_refused(self, kraus, message):
        with pytest.raises(ValueError, match=message):
            channel_from_json({"dim_in": 1, "dim_out": 2, "kraus": kraus})

    def test_operators_keep_the_bits_of_the_per_matrix_decode(self):
        t = random_channel(3, 3, 3, seed=9)
        near = channel_to_json(compose(depolarizing_channel(0.05, 3), t))
        integers = {"dim_in": 2, "dim_out": 2, "kraus": [
            {"rows": 2, "cols": 2, "data": [[1, 0], [2**70, -3], [0, 1.5], [-(2**53) - 1, 2**63]]},
            {"rows": 2, "cols": 2, "data": [[2**53 + 1, 0], [-1, 2**63 - 1], [0.25, 7], [3, -(2**62) - 1]]},
            matrix_to_json(np.eye(2) / 3),
        ]}
        for obj in (json.loads(json.dumps(near)), integers):
            back = channel_from_json(obj)
            assert len(back.kraus) == len(obj["kraus"])
            for a, m in zip(back.kraus, obj["kraus"]):
                assert a.tobytes() == matrix_from_json(m).tobytes() == _per_entry_decode(m["data"]).tobytes()
        assert len(near["kraus"]) == 30


def test_vector_round_trip():
    rng = np.random.default_rng(1)
    v = rand_complex(rng, 4, 1).reshape(-1)
    np.testing.assert_array_equal(vector_from_json(vector_to_json(v)), v)


@pytest.mark.parametrize(
    "obj",
    [[[True, False]], [[0.5, True]], [[1, "a"]], [[1, None]], [[1]], [[1, 2, 3]], [[float("nan"), 0.0]],
     [[0.0, float("inf")]], [[1, 10**400]], [], 5, "ab"],
    ids=["bool-pair", "bool-imaginary-part", "string", "null", "short-pair", "long-pair", "nan", "inf",
         "huge-int", "empty", "not-a-list", "string-vector"],
)
def test_vector_from_json_checks_as_matrix_data(obj):
    with pytest.raises(ValueError):
        vector_from_json(obj)


def test_channel_round_trip():
    t = random_channel(2, 3, 2, seed=5)
    back = channel_from_json(channel_to_json(t))
    assert (back.dim_in, back.dim_out) == (2, 3)
    assert back.trace_preserving
    for a, b in zip(t.kraus, back.kraus):
        np.testing.assert_array_equal(a, b)


def test_channel_rejects_bad_payload():
    with pytest.raises(ValueError):
        channel_from_json({"dim_in": 2, "kraus": []})


def test_choi_round_trip():
    c = choi(random_channel(2, 2, 2, seed=6))
    obj = choi_to_json(c)
    assert set(obj) == {"dim_in", "dim_out", "mat"}
    np.testing.assert_array_equal(choi_from_json(obj).mat, c.mat)


def test_choi_without_scale_key_loads_as_is():
    c = choi(random_channel(3, 2, 2, seed=7))
    obj = {"dim_in": 3, "dim_out": 2, "mat": matrix_to_json(c.mat)}
    np.testing.assert_array_equal(choi_from_json(obj).mat, c.mat)
    np.testing.assert_array_equal(choi_from_json({**obj, "normalized": False}).mat, c.mat)


def test_legacy_normalized_choi_is_rescaled():
    # older files could store C / d_in under "normalized": true
    c = choi(random_channel(3, 2, 2, seed=8))
    legacy = {"dim_in": 3, "dim_out": 2, "normalized": True, "mat": matrix_to_json(c.mat / 3)}
    back = choi_from_json(legacy)
    np.testing.assert_allclose(back.mat, c.mat, rtol=0, atol=1e-15)
    assert np.trace(back.mat).real == pytest.approx(3.0, abs=1e-14)


def test_density_round_trip():
    rng = np.random.default_rng(2)
    rho = DensityOperator(rand_density_mat(rng, 3))
    np.testing.assert_array_equal(density_from_json(density_to_json(rho)).mat, rho.mat)


def test_density_round_trip_keeps_rounding_level_negative_eigenvalues():
    noiseless = forward_map(random_channel(3, 3, 1, seed=2), make_reference(DensityOperator(np.eye(3) / 3))).mat
    for m in (noise_clipped_state(), noiseless):
        assert np.linalg.eigvalsh(m)[0] < 0.0
        rho = DensityOperator(m)
        assert density_from_json(density_to_json(rho)).mat.tobytes() == rho.mat.tobytes()


def test_reference_round_trip():
    rng = np.random.default_rng(3)
    ref = make_reference(DensityOperator(rand_density_mat(rng, 2, 0.1)))
    back = reference_from_json(reference_to_json(ref))
    np.testing.assert_allclose(back.rho.mat, ref.rho.mat, atol=0)
    assert back.min_eig == pytest.approx(ref.min_eig, abs=1e-15)


def test_reference_cutoff_round_trip():
    rho = DensityOperator(np.diag([0.6, 0.3, 0.1]).astype(complex))
    ref = make_reference(rho, cutoff=0.05)
    obj = reference_to_json(ref)
    assert obj["cutoff"] == 0.05
    back = reference_from_json(obj)
    assert back.cutoff == 0.05
    assert reference_to_json(back) == obj


def test_reference_with_null_out_basis_loads():
    # files written before the output-basis option was removed carry the key
    rho = np.diag([0.6, 0.4]).astype(complex)
    back = reference_from_json({"rho": matrix_to_json(rho), "cutoff": 1e-10, "out_basis": None})
    np.testing.assert_array_equal(back.rho.mat, rho)
    assert back.cutoff == 1e-10


@pytest.mark.parametrize(
    "data", [[[1, "a"]], [[1, None]], [[1, [2]]], 5, [1], [[1, 10**400]], [[True, False]], [[0.5, True]]],
    ids=["string", "null", "list", "not-a-list", "not-a-pair", "huge-int", "bool-pair", "bool-imaginary-part"],
)
def test_non_number_matrix_data_is_value_error(data):
    with pytest.raises(ValueError, match="matrix data"):
        matrix_from_json({"rows": 1, "cols": 1, "data": data})


@pytest.mark.parametrize("flag", ["false", 0, 1, None], ids=["string", "zero", "one", "null"])
def test_choi_normalized_flag_must_be_a_json_bool(flag):
    c = choi(random_channel(2, 2, 2, seed=9))
    obj = {"dim_in": 2, "dim_out": 2, "normalized": flag, "mat": matrix_to_json(c.mat)}
    with pytest.raises(ValueError, match="normalized must be a JSON bool"):
        choi_from_json(obj)
