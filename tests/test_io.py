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
