"""JSON encodings for matrices, channels and result records.

Complex matrices are encoded as ``{"rows": R, "cols": C, "data": [[re, im],
...]}`` with the data row-major; every other object composes this format.
Decoding validates shapes and raises ``ValueError`` on malformed input.
"""

from __future__ import annotations

import numpy as np

from .channel import ChoiMatrix, KrausChannel
from .identify import ADMISSIBILITY_CUTOFF, ReconstructionResult, ReferenceState, make_reference
from .linalg import DensityOperator
from .metrics import NormInterval


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix data must be a list of [re, im] number pairs: {exc}") from exc
    if flat.size != rows * cols:
        raise ValueError(f"matrix data has {flat.size} entries, expected {rows * cols}")
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def vector_from_json(obj: list) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj])


def channel_to_json(t: KrausChannel) -> dict:
    return {
        "dim_in": t.dim_in,
        "dim_out": t.dim_out,
        "kraus": [matrix_to_json(a) for a in t.kraus],
    }


def channel_from_json(obj: dict) -> KrausChannel:
    try:
        d1, d2 = int(obj["dim_in"]), int(obj["dim_out"])
        kraus = tuple(matrix_from_json(a) for a in obj["kraus"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed channel object: {exc}") from exc
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
        d1, d2 = int(obj["dim_in"]), int(obj["dim_out"])
        mat = matrix_from_json(obj["mat"])
        legacy_scaled = bool(obj.get("normalized", False))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed Choi object: {exc}") from exc
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
        cutoff = float(obj.get("cutoff", ADMISSIBILITY_CUTOFF))
    except (KeyError, TypeError, OverflowError) as exc:
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
    }
