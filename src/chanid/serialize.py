"""JSON encodings for matrices, channels and result records.

Complex matrices are encoded as ``{"rows": R, "cols": C, "data": [[re, im],
...]}`` with the data row-major; every other object composes this format.
Decoding validates shapes and raises ``ValueError`` on malformed input;
integer fields must be JSON integers, real-number fields and matrix
entries JSON numbers, and flags JSON bools.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import ChoiMatrix, KrausChannel
from .identify import ADMISSIBILITY_CUTOFF, ReconstructionResult, ReferenceState, make_reference
from .linalg import DensityOperator
from .metrics import NormInterval


def _json_int(value, name: str) -> int:
    """An integer field of a JSON object, as it was read.

    Anything else (a float such as 2.7, a string such as "3", a bool) raises
    ``ValueError`` naming the field, rather than being truncated or coerced
    by ``int()``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_float(value, name: str) -> float:
    """A real-number field of a JSON object, as a float.

    JSON integers and floats are accepted.  Anything else (a string such as
    "0.02", a bool, a list) raises ``ValueError`` naming the field, rather
    than being coerced by ``float()``; so does an integer beyond a double.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} overflows a double") from exc


def _json_floats(value, name: str) -> list[float]:
    """A JSON list of real numbers, each entry read by :func:`_json_float`; anything
    else (a string, an object, a number) raises ``ValueError`` naming the field."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list of numbers, got {type(value).__name__}")
    return [_json_float(x, f"{name} entry") for x in value]


def _pairs(m: np.ndarray) -> list:
    """The [re, im] pairs of a complex array's entries, row-major, as Python floats."""
    return np.ascontiguousarray(m).view(float).reshape(-1, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"rows": m.shape[0], "cols": m.shape[1], "data": _pairs(m)}


def _matrices_from_json(objs: list) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The entries of matrix objects, row-major one after another, and their (rows, cols): each
    object's fields are read, then the pair checks run once over the pairs of all the objects."""
    try:
        shapes = [(_json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")) for obj in objs]
        datas = [obj["data"] for obj in objs]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    for rows, cols in shapes:
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
    try:  # each number's float is Python's
        pairs = list(itertools.chain.from_iterable(datas))
        if set(map(len, pairs)) - {2}:
            raise ValueError("every entry must be one [re, im] pair")
        flat = list(itertools.chain.from_iterable(pairs))
        parts = np.array(flat)
        if parts.dtype == object and all(isinstance(x, (int, float)) for x in parts):
            parts = parts.astype(float)  # integers beyond 64 bits
        if parts.dtype.kind not in "biuf":  # a string gives <U, null an object array
            raise TypeError(f"entries must be numbers, got dtype {parts.dtype}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix data must be a list of [re, im] number pairs: {exc}") from exc
    parts = parts.astype(float)
    # a bool reads as 1 or 0: only such parts can be one
    if any(type(flat[i]) is bool for i in np.flatnonzero((parts == 0) | (parts == 1)).tolist()):
        raise ValueError("matrix data entries must be JSON numbers, got a bool")
    for data, (rows, cols) in zip(datas, shapes):
        if len(data) != rows * cols:
            raise ValueError(f"matrix data has {len(data)} entries, expected {rows * cols}")
    if not np.all(np.isfinite(parts)):
        raise ValueError("matrix entries must be finite")
    return parts.view(complex), shapes


def matrix_from_json(obj: dict) -> np.ndarray:
    entries, [shape] = _matrices_from_json([obj])
    return entries.reshape(shape)


def vector_to_json(v: np.ndarray) -> list:
    return _pairs(np.asarray(v, dtype=complex))


def vector_from_json(obj: list) -> np.ndarray:
    """Decode a list of [re, im] pairs, checked as :func:`matrix_from_json` checks a matrix's data."""
    if not isinstance(obj, list):
        raise ValueError(f"vector must be a JSON list of [re, im] pairs, got {type(obj).__name__}")
    return matrix_from_json({"rows": len(obj), "cols": 1, "data": obj}).reshape(-1)


def channel_to_json(t: KrausChannel) -> dict:
    return {
        "dim_in": t.dim_in,
        "dim_out": t.dim_out,
        "kraus": [matrix_to_json(a) for a in t.kraus],
    }


def channel_from_json(obj: dict) -> KrausChannel:
    try:
        d1, d2 = _json_int(obj["dim_in"], "dim_in"), _json_int(obj["dim_out"], "dim_out")
        objs = obj["kraus"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel object: {exc}") from exc
    if not isinstance(objs, list):
        raise ValueError(f"kraus must be a JSON list of matrix objects, got {type(objs).__name__}")
    try:
        entries, shapes = _matrices_from_json(objs)
    except ValueError:
        shapes = []
    if len(set(shapes)) == 1:  # one (r, d_out, d_in) array
        kraus = entries.reshape(len(shapes), *shapes[0])
    else:  # one by one: a faulty matrix raises as alone, KrausChannel refuses none or mixed shapes
        kraus = [matrix_from_json(a) for a in objs]
    return KrausChannel(dim_in=d1, dim_out=d2, kraus=kraus)


def choi_to_json(c: ChoiMatrix) -> dict:
    return {
        "dim_in": c.dim_in,
        "dim_out": c.dim_out,
        "mat": matrix_to_json(c.mat),
    }


def choi_from_json(obj: dict) -> ChoiMatrix:
    """Decode a Choi matrix; a legacy ``"normalized": true`` matrix is C / d_in and is rescaled."""
    try:
        d1, d2 = _json_int(obj["dim_in"], "dim_in"), _json_int(obj["dim_out"], "dim_out")
        mat = matrix_from_json(obj["mat"])
        legacy_scaled = obj.get("normalized", False)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Choi object: {exc}") from exc
    if not isinstance(legacy_scaled, bool):
        raise ValueError(f"normalized must be a JSON bool, got {legacy_scaled!r}")
    return ChoiMatrix(dim_in=d1, dim_out=d2, mat=mat * d1 if legacy_scaled else mat)


def density_to_json(rho: DensityOperator) -> dict:
    return matrix_to_json(rho.mat)


def density_from_json(obj: dict) -> DensityOperator:
    return DensityOperator(matrix_from_json(obj))


def reference_to_json(ref: ReferenceState) -> dict:
    return {
        "rho": matrix_to_json(ref.rho.mat),
        "cutoff": ref.cutoff,
    }


def reference_from_json(obj: dict) -> ReferenceState:
    try:
        rho = DensityOperator(matrix_from_json(obj["rho"]))
        cutoff = _json_float(obj.get("cutoff", ADMISSIBILITY_CUTOFF), "cutoff")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed reference object: {exc}") from exc
    return make_reference(rho, cutoff=cutoff)


def reconstruction_to_json(result: ReconstructionResult) -> dict:
    return {
        "channel": channel_to_json(result.cp_map),
        "tp_residual": result.tp_residual,
        "consistency_residual": result.consistency_residual,
        "clip_magnitude": result.clip_magnitude,
    }


def norm_interval_to_json(interval: NormInterval) -> dict:
    return {
        "lower": interval.lower,
        "upper": interval.upper,
        "argmax_state": vector_to_json(interval.argmax_state),
        "dual_state": matrix_to_json(interval.dual_state),
    }
