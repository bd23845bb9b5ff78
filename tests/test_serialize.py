import numpy as np
import pytest

from chanid.channel import choi, random_channel
from chanid.identify import make_reference
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

from conftest import rand_complex, rand_density_mat


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rand_complex(rng, 3, 2)
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 2 and len(obj["data"]) == 6
    np.testing.assert_array_equal(matrix_from_json(obj), m)


def test_matrix_rejects_bad_payload():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})


def test_vector_round_trip():
    rng = np.random.default_rng(1)
    v = rand_complex(rng, 4, 1).reshape(-1)
    np.testing.assert_array_equal(vector_from_json(vector_to_json(v)), v)


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
    np.testing.assert_allclose(density_from_json(density_to_json(rho)).mat, rho.mat, atol=0)


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
    "data", [[[1, "a"]], [[1, None]], [[1, [2]]], 5, [1], [[1, 10**400]]],
    ids=["string", "null", "list", "not-a-list", "not-a-pair", "huge-int"],
)
def test_non_number_matrix_data_is_value_error(data):
    with pytest.raises(ValueError, match="matrix data"):
        matrix_from_json({"rows": 1, "cols": 1, "data": data})
