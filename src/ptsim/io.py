"""JSON matrix/vector envelopes shared by the library and the CLI.

Matrix format (bit-exact contract):
    {"rows": n, "cols": m, "data": [[re, im], ...]}   row-major IEEE doubles
Vector format:
    {"dim": n, "data": [[re, im], ...]}
"""

from __future__ import annotations

import json

import numpy as np

from . import errors

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "vector_to_obj",
    "vector_from_obj",
    "load_matrix",
    "dumps",
]


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise errors.DimensionMismatchError("matrix_to_obj: expected a 2-d array")
    data = np.stack([a.real.ravel(), a.imag.ravel()], -1).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_obj(obj) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.ParseError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise errors.ParseError(f"matrix rows and cols must be >= 1, got {rows}x{cols}")
    if flat.size != rows * cols:
        raise errors.ParseError("matrix data length != rows*cols")
    if not np.all(np.isfinite(flat)):
        raise errors.ParseError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def vector_to_obj(v) -> dict:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {"dim": int(v.shape[0]), "data": np.stack([v.real, v.imag], -1).tolist()}


def vector_from_obj(obj) -> np.ndarray:
    try:
        dim, data = int(obj["dim"]), obj["data"]
        v = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.ParseError(f"malformed vector object: {exc}") from exc
    if v.size != dim:
        raise errors.ParseError("vector data length != dim")
    if not np.all(np.isfinite(v)):
        raise errors.ParseError("vector entries must be finite")
    return v


def load_matrix(path) -> np.ndarray:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ParseError(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_obj(obj)


def _normalize(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            return vector_to_obj(obj)
        return matrix_to_obj(obj)
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Deterministic JSON text: fixed field order, floats in shortest round-trip form."""
    return json.dumps(_normalize(obj), indent=2)
