"""JSON matrix/vector envelopes, and ``dumps``, the JSON text of a result.

Only the CLI imports this module. It picks the fields of each library
record, and ``dumps`` turns arrays into envelopes and complex numbers into
``[re, im]``.

Matrix format (bit-exact contract):
    {"rows": n, "cols": m, "data": [[re, im], ...]}   row-major IEEE doubles
Vector format:
    {"dim": n, "data": [[re, im], ...]}
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, repeat

import numpy as np

from . import errors
from .linalg import _require_finite

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "vector_to_obj",
    "vector_from_obj",
    "load_matrix",
    "dumps",
]


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real.ravel(), a.imag.ravel()], -1).tolist()


def _parse(obj, who: str, *size_keys: str) -> tuple[list[int], np.ndarray]:
    """The sizes and the flat complex entries of a matrix or vector object.

    A ParseError (exit 2) if it is malformed, a size is below 1, the data
    length is not the product of the sizes, or an entry is not finite.
    """
    try:
        sizes = [int(obj[k]) for k in size_keys]
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.ParseError(f"{who}: malformed object: {exc}") from exc
    if min(sizes) < 1:
        raise errors.ParseError(f"{who}: {' and '.join(size_keys)} must be >= 1, got {sizes}")
    if flat.size != math.prod(sizes):
        raise errors.ParseError(f"{who}: data length {flat.size} != {'*'.join(size_keys)}")
    _require_finite(who, data=flat)
    return sizes, flat


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise errors.DimensionMismatchError("matrix_to_obj: expected a 2-d array")
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _pairs(a)}


def matrix_from_obj(obj) -> np.ndarray:
    (rows, cols), flat = _parse(obj, "matrix_from_obj", "rows", "cols")
    return flat.reshape(rows, cols)


def vector_to_obj(v) -> dict:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {"dim": int(v.shape[0]), "data": _pairs(v)}


def vector_from_obj(obj) -> np.ndarray:
    return _parse(obj, "vector_from_obj", "dim")[1]


def load_matrix(path) -> np.ndarray:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ParseError(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_obj(obj)


def _default(obj):
    """What json does not write itself: a numpy scalar as its Python value, a
    complex number as [re, im] and an array as its envelope. A float subclass
    such as np.float64 never gets here: json writes it as a float."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return vector_to_obj(obj) if obj.ndim == 1 else matrix_to_obj(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_SCALAR = (str, int, float, type(None))
# json's C encoder per depth, with line-break item separators: an indent would select its Python one
_encoder = functools.cache(lambda depth: json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), default=_default))


def _text(obj, depth: int, markers: frozenset) -> str:
    """The indent=2 text of obj, opening at this depth. An encoded scalar holds no raw line break, so
    the encoder's text splits at its item separators and a bracket before ",\n" closes a member."""
    while not isinstance(obj, (*_SCALAR, list, tuple, dict)):
        obj = _default(obj)
    if isinstance(obj, _SCALAR) or not obj:
        return _encoder(depth).encode(obj)
    (o, c), values = ("{}", list(obj.values())) if isinstance(obj, dict) else ("[]", list(obj))
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    (mo, mc), kind = ("{}", dict) if isinstance(values[0], dict) else ("[]", (list, tuple))
    members = chain.from_iterable(map(dict.values, values) if kind is dict else values)
    if o == "[" and all(map(isinstance, values, repeat(kind))) and all(values) \
            and all(map(isinstance, members, repeat(_SCALAR))):  # a list of non-empty flat containers of one kind
        body = _encoder(depth + 2).encode(obj)[2:-2].replace(f"{mc},{inner}  {mo}", f"{inner}{mc},{inner}{mo}{inner}  ")
        return f"[{inner}{mo}{inner}  {body}{inner}{mc}{pad}]"
    if id(obj) in markers:
        raise ValueError("Circular reference detected")
    shallow = [v if isinstance(v, _SCALAR) else None for v in values]  # one call for all scalars of obj
    pieces = _encoder(depth + 1).encode(dict(zip(obj, shallow)) if o == "{" else shallow)[1:-1].split("," + inner)
    for i, v in enumerate(values):
        if not isinstance(v, _SCALAR):
            pieces[i] = pieces[i][:-len("null")] + _text(v, depth + 1, markers | {id(obj)})
    return o + inner + ("," + inner).join(pieces) + pad + c


def dumps(obj) -> str:
    """Deterministic JSON text, the bytes of ``json.dumps(obj, indent=2, default=_default)``: json's
    C encoder writes it one flat container, or list of flat containers, per call."""
    return _text(obj, 0, frozenset())
