import json
import re

import numpy as np
import pytest

from chanid.channel import compose, depolarizing_channel, random_channel
from chanid.cli import cli_main
from chanid.identify import forward_map, make_reference
from chanid.linalg import DensityOperator
from chanid.serialize import (
    channel_from_json,
    channel_to_json,
    density_from_json,
    density_to_json,
    matrix_from_json,
    matrix_to_json,
    reference_from_json,
    reference_to_json,
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


NOT_NUMBERS = "matrix data must be a list of [re, im] number pairs: entries must be numbers"
MATRIX_DATA_DEFECTS = [  # (id, data of a 2x1 matrix with one defect, the message it gives)
    ("bool-pair", [[True, False]], "got a bool"),
    ("bool-imaginary-part", [[0.5, True]], "got a bool"),
    ("string", [[1, "a"]], NOT_NUMBERS),
    ("numeric-string", [["1.5", 2**70]], NOT_NUMBERS),
    ("null", [[1, None]], NOT_NUMBERS),
    ("nested", [[1, [2]]], NOT_NUMBERS),
    ("ragged", [[1, 2], [3]], "must be a list of [re, im] number pairs"),
    ("ragged-same-count", [[1, 2, 3], [4]], "must be a list of [re, im] number pairs"),
    ("not-a-list", 5, "must be a list of [re, im] number pairs"),
    ("string-data", "ab", "must be a list of [re, im] number pairs"),
    ("huge-int", [[1, 10**400]], "must be a list of [re, im] number pairs: int too large to convert to float"),
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
    assert "\n" not in str(info.value) and "dtype" not in str(info.value) and "shape" not in str(info.value)


@pytest.mark.parametrize(
    "entry", [complex(1, 2), np.float64(0.5), np.int64(1), np.bool_(True)], ids=["complex", "f8", "i8", "numpy-bool"]
)
def test_non_json_entry_types_are_refused(entry):
    """Only the int and float of a JSON number are entries: a hand-built dict's complex or
    numpy scalar is refused, though complex() or numpy would read it."""
    with pytest.raises(ValueError) as info:
        matrix_from_json({"rows": 1, "cols": 1, "data": [[entry, 0.0]]})
    assert str(info.value) == NOT_NUMBERS


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

    # 30 operators of another size: a message that carried the combined array's dtype width
    # or shape would depend on them
    WIDE = [matrix_to_json(rand_complex(np.random.default_rng(k), 6, 6)) for k in range(30)]

    @pytest.mark.parametrize("neighbours", [[GOOD] * 2, WIDE], ids=["two-2x1", "thirty-6x6"])
    @pytest.mark.parametrize("position", [0, 0.5, 1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [d[1] for d in MATRIX_DEFECTS], ids=[d[0] for d in MATRIX_DEFECTS])
    def test_a_defect_in_any_operator_gives_the_matrix_message(self, tmp_path, capsys, bad, position, neighbours):
        with pytest.raises(ValueError) as alone:
            matrix_from_json(bad)
        kraus = list(neighbours)
        kraus.insert(round(position * len(kraus)), bad)
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
        "defects, speaks",
        [
            (["count", "nan", "zero-cols", "float-rows"], "float-rows"),
            (["count", "nan", "string", "zero-cols"], "zero-cols"),
            (["nan", "count", "bool-pair", "string", "ragged"], "ragged"),
            (["inf", "count", "bool-pair", "null"], "null"),
            (["bool-imaginary-part", "huge-int"], "huge-int"),
            (["inf", "count", "bool-imaginary-part"], "bool-imaginary-part"),
            (["nan", "inf", "count"], "count"),
        ],
        ids=["fields", "dims", "pair-shape", "entry-types", "overflow", "bools", "counts"],
    )
    def test_several_faulty_operators_give_the_first_check_any_fails(self, defects, speaks):
        """The checks run in the order fields, dims, [re, im] pairs, entry types, bools,
        counts, finiteness, each over every operator."""
        matrices = dict(self.MATRIX_DEFECTS)
        with pytest.raises(ValueError) as alone:
            matrix_from_json(matrices[speaks])
        kraus = [matrices[d] for d in defects]
        for order in (kraus, kraus[::-1]):
            with pytest.raises(ValueError) as in_list:
                channel_from_json({"dim_in": 1, "dim_out": 2, "kraus": [self.GOOD, *order]})
            assert str(in_list.value) == str(alone.value)

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


@pytest.mark.parametrize("cutoff", [0.05, 0, "1e-10", True, None])
def test_reference_with_null_out_basis_loads(cutoff):
    # files written before the output-basis option and the settable cutoff were
    # retired carry both keys; neither moves a bit of the reference
    rho = np.diag([0.6, 0.4]).astype(complex)
    plain = reference_from_json({"rho": matrix_to_json(rho)})
    back = reference_from_json({"rho": matrix_to_json(rho), "cutoff": cutoff, "out_basis": None})
    np.testing.assert_array_equal(back.rho.mat, rho)
    assert np.float64(back.min_eig).tobytes() == np.float64(plain.min_eig).tobytes()
    assert back.x.tobytes() == plain.x.tobytes() and back.x_inv.tobytes() == plain.x_inv.tobytes()
    assert reference_to_json(back) == {"rho": matrix_to_json(rho)}


@pytest.mark.parametrize(
    "data", [[[1, "a"]], [[1, None]], [[1, [2]]], 5, [1], [[1, 10**400]], [[True, False]], [[0.5, True]]],
    ids=["string", "null", "list", "not-a-list", "not-a-pair", "huge-int", "bool-pair", "bool-imaginary-part"],
)
def test_non_number_matrix_data_is_value_error(data):
    with pytest.raises(ValueError, match="matrix data"):
        matrix_from_json({"rows": 1, "cols": 1, "data": data})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"cutoff": 0.1}, "malformed reference object: 'rho'"),
        ([0.1], "malformed reference object: list indices must be integers or slices, not str"),
    ],
    ids=["no-rho", "not-an-object"],
)
def test_malformed_reference_object_is_one_value_error_line(obj, message):
    with pytest.raises(ValueError) as info:
        reference_from_json(obj)
    assert info.type is ValueError and str(info.value) == message
