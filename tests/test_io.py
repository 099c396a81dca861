import json

import numpy as np
import pytest

from ptsim import errors, io

# Doubles whose text a lossy float format would change: a signed zero, the
# smallest subnormal, a sum with a 17th significant digit, an integer beyond
# 2**53 and a large power of ten.
EDGE = np.array([[complex(-0.0, 5e-324), complex(0.1 + 0.2, 2**53 + 1), complex(1e22, -0.0)]])

EDGE_TEXT = """{
  "matrix": {
    "rows": 1,
    "cols": 3,
    "data": [
      [
        -0.0,
        5e-324
      ],
      [
        0.30000000000000004,
        9007199254740992.0
      ],
      [
        1e+22,
        -0.0
      ]
    ]
  },
  "floats": [
    -0.0,
    5e-324,
    0.30000000000000004,
    9007199254740992.0,
    1e+22
  ]
}"""


def test_dumps_bytes_are_pinned():
    floats = [-0.0, 5e-324, 0.1 + 0.2, float(2**53 + 1), 1e22]
    assert io.dumps({"matrix": EDGE, "floats": floats}) == EDGE_TEXT


def test_matrix_round_trip_is_bit_exact():
    back = io.matrix_from_obj(json.loads(io.dumps(EDGE)))
    assert back.shape == EDGE.shape
    assert back.tobytes() == EDGE.tobytes()  # keeps the sign of each zero
    v = io.vector_from_obj(json.loads(io.dumps(EDGE[0])))
    assert v.tobytes() == EDGE[0].tobytes()


@pytest.mark.parametrize("obj", [{"rows": -1, "cols": -1, "data": [[1, 0]]},
                                 {"rows": 0, "cols": 0, "data": []},
                                 {"rows": 0, "cols": 2, "data": []}])
def test_non_positive_dimensions_are_rejected(obj):
    with pytest.raises(errors.ParseError):
        io.matrix_from_obj(obj)


def test_dumps_numpy_scalars():
    obj = [np.int64(3), np.bool_(True), np.complex64(1 + 2j), np.float32(0.5)]
    assert json.loads(io.dumps(obj)) == [3, True, [1.0, 2.0], 0.5]


def test_dumps_writes_numpy_values_as_python_ones():
    # json writes np.float64 itself, as a float; the other numpy values and
    # complex numbers go through the encoder's default hook
    obj = {"f64": np.float64(0.1), "f32": np.float32(0.1), "c128": np.complex128(1 - 2j), "b": np.bool_(False),
           "i64": np.int64(-7), "v": np.array([1.0, -0.0]), "m": np.eye(2), "t": (1, 2.5), "nan": np.nan}
    plain = {"f64": 0.1, "f32": float(np.float32(0.1)), "c128": [1.0, -2.0], "b": False, "i64": -7,
             "v": io.vector_to_obj(np.array([1.0, -0.0])), "m": io.matrix_to_obj(np.eye(2)), "t": [1, 2.5],
             "nan": float("nan")}
    assert io.dumps(obj) == json.dumps(plain, indent=2)


def test_dumps_refuses_other_objects():
    with pytest.raises(TypeError):
        io.dumps({"x": object()})


MATRIX_1x2 = '{"rows": 1, "cols": 2, "data": [[1.0, 0.0], %s]}'
VECTOR_2 = '{"dim": 2, "data": [[1.0, 0.0], %s]}'


@pytest.mark.parametrize("reader, obj", [
    # malformed objects
    (io.matrix_from_obj, None),
    (io.matrix_from_obj, [[1.0, 0.0]]),
    (io.matrix_from_obj, {"rows": 1, "data": [[1.0, 0.0]]}),
    (io.matrix_from_obj, {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 2.0]]}),
    (io.matrix_from_obj, {"rows": 1, "cols": 1, "data": [["x", 0.0]]}),
    (io.matrix_from_obj, {"rows": "one", "cols": 1, "data": [[1.0, 0.0]]}),
    (io.vector_from_obj, None),
    (io.vector_from_obj, {"data": [[1.0, 0.0]]}),
    (io.vector_from_obj, {"dim": 1, "data": [1.0]}),
    # a size below 1
    (io.vector_from_obj, {"dim": 0, "data": []}),
    # a data length that does not match the declared size
    (io.matrix_from_obj, {"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3}),
    (io.vector_from_obj, {"dim": 3, "data": [[1.0, 0.0]] * 2}),
    # non-finite entries, as json.loads reads them
    *[(io.matrix_from_obj, json.loads(MATRIX_1x2 % entry))
      for entry in ("[NaN, 0.0]", "[0.0, Infinity]", "[-Infinity, 0.0]")],
    *[(io.vector_from_obj, json.loads(VECTOR_2 % entry))
      for entry in ("[NaN, 0.0]", "[0.0, Infinity]", "[-Infinity, 0.0]")],
])
def test_bad_envelope_is_parse_error(reader, obj):
    with pytest.raises(errors.ParseError, match=f"^{reader.__name__}: "):
        reader(obj)


def test_matrix_to_obj_of_a_vector_is_dimension_error():
    with pytest.raises(errors.DimensionMismatchError):
        io.matrix_to_obj(np.ones(3))
