"""JSON encodings for matrices, channels and result records.

Complex matrices are encoded as ``{"rows": R, "cols": C, "data": [[re, im],
...]}`` with the data row-major; every other object composes this format.
Three objects are read: a matrix (a state), a channel and a reference.
Decoding validates shapes and raises ``ValueError`` on malformed input;
integer fields must be JSON integers, and real-number fields and matrix
entries JSON numbers (an int or a float).  A bool entry has its own message,
any other type (a string, null, a list, a complex) the fixed text "entries must
be numbers"; of several faulty matrices, the first check failed gives the message.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import KrausChannel
from .identify import ReconstructionResult, ReferenceState, make_reference
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
    """The entries of matrix objects, row-major one after another, and their (rows, cols). Each
    check runs once over all the objects, in the order fields, dims, [re, im] pairs, entry types,
    bools, counts, finiteness; each float is Python's, so an integer beyond a double is refused."""
    try:
        shapes = [(_json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")) for obj in objs]
        datas = [obj["data"] for obj in objs]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    for rows, cols in shapes:
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
    try:
        pairs = list(itertools.chain.from_iterable(datas))
        if set(map(len, pairs)) - {2}:
            raise ValueError("every entry must be one [re, im] pair")
        flat = list(itertools.chain.from_iterable(pairs))
        if (types := set(map(type, flat))) - {int, float, bool}:
            raise TypeError("entries must be numbers")
        parts = np.array(flat, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix data must be a list of [re, im] number pairs: {exc}") from exc
    if bool in types:
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
    entries, shapes = _matrices_from_json(objs)
    if len(set(shapes)) == 1:  # one (r, d_out, d_in) array
        kraus = entries.reshape(len(shapes), *shapes[0])
    else:  # KrausChannel refuses none or mixed shapes, naming the first wrong one
        ends = np.cumsum([rows * cols for rows, cols in shapes])[:-1]
        kraus = [a.reshape(shape) for a, shape in zip(np.split(entries, ends), shapes)]
    return KrausChannel(dim_in=d1, dim_out=d2, kraus=kraus)


def density_to_json(rho: DensityOperator) -> dict:
    return matrix_to_json(rho.mat)


def density_from_json(obj: dict) -> DensityOperator:
    """A state from its matrix, decoded read-only so the state keeps its admission eigenvalues."""
    m = matrix_from_json(obj)
    m.flags.writeable = False
    return DensityOperator(m)


def reference_to_json(ref: ReferenceState) -> dict:
    return {"rho": matrix_to_json(ref.rho.mat)}


def reference_from_json(obj: dict) -> ReferenceState:
    """A reference from its ``rho``; the retired ``cutoff`` and ``out_basis`` keys are ignored."""
    try:
        rho = matrix_from_json(obj["rho"])  # ReferenceState checks it as a DensityOperator
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed reference object: {exc}") from exc
    return make_reference(rho)


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
