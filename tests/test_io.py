import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsim import classify, errors, io
from ptsim.cli import main

from corpus import random_unbroken

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


# -- dumps writes json.dumps(..., indent=2)'s bytes ------------------------------

def reference_dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=io._default)


TEXTS = st.one_of(st.text(max_size=6), st.sampled_from(
    ['"', "\\", '\\"', "\n", "\x00\x1f\x7f", "é∑ — 😀", "},\n", "],\n", "]", "},\n  {", "null"]))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e22, 0.1 + 0.2, float("nan"), float("inf"),
                                                 float("-inf")]))
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.complex_numbers(width=64).map(np.complex64),
    st.complex_numbers().map(np.complex128))
ARRAYS = st.one_of(st.lists(st.complex_numbers(), min_size=1, max_size=3).map(np.array),
                   st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda shape: np.ones(shape)))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), FLOATS, TEXTS,
                    st.complex_numbers(), NUMPY_SCALARS, ARRAYS)
KEYS = st.one_of(TEXTS, st.integers(), FLOATS, st.booleans(), st.none())
DOCS = st.recursive(
    SCALARS,
    lambda docs: st.one_of(
        st.lists(docs, max_size=4), st.lists(docs, max_size=3).map(tuple),
        st.dictionaries(KEYS, docs, max_size=4),
        st.lists(st.dictionaries(TEXTS, SCALARS, max_size=3), max_size=4),  # records
        st.lists(st.tuples(SCALARS, SCALARS) | st.lists(FLOATS, min_size=2, max_size=2), max_size=4)),  # pairs
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_dumps_is_json_dumps_with_indent(doc):
    assert io.dumps(doc) == reference_dumps(doc)


def cli_documents(*argv):
    """The objects the CLI hands to io.dumps while it runs argv."""
    docs, dumps = [], io.dumps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "dumps", lambda obj: docs.append(obj) or dumps(obj))
        assert main(list(argv)) == 0
    return docs


def test_dumps_of_the_recorded_cli_outputs():
    for doc in json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text()).values():
        assert io.dumps(doc) == reference_dumps(doc)


def test_dumps_of_the_paper_and_a_dilation_document(tmp_path):
    rng = np.random.default_rng(16)
    h = tmp_path / "h.json"
    h.write_text(json.dumps(io.matrix_to_obj(random_unbroken(rng, 16).H)))
    docs = cli_documents("paper", "--json", str(tmp_path / "paper.json"))
    docs += cli_documents("dilate", str(h), "--out", str(tmp_path / "dilate.json"))
    for doc in docs:
        assert io.dumps(doc) == reference_dumps(doc)
    assert docs[1]["Hhat"].shape == (32, 32)


@pytest.mark.parametrize("doc", [[{"a": 1}, [1]], [[1], {"a": 1}], [(1, 2), [3]], [[1], []], [{}, {"a": 1}],
                                 [[1, [2]], [3]], [[np.int64(1)], [2]], [[1 + 2j], [3]], [np.eye(2), np.ones(2)]])
def test_dumps_of_lists_of_containers_that_are_not_all_flat_or_of_one_kind(doc):
    assert io.dumps(doc) == reference_dumps(doc)


def test_dumps_refuses_a_container_that_holds_itself():
    a_list, a_dict = [], {}
    a_list.append(a_list)
    a_dict["x"] = [1, a_dict]
    for doc in (a_list, a_dict):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            io.dumps(doc)


@pytest.mark.parametrize("doc", [{1: 2.5, 1.5: None, True: "t", None: [1], float("nan"): {}},
                                 {-0.0: [{False: 0}], float("inf"): [[1, 2]], 10**20: "big"}])
def test_dumps_writes_non_str_keys_as_json_does(doc):
    assert io.dumps(doc) == reference_dumps(doc)


def test_dumps_refuses_unserializable_values_and_keys():
    for doc in ({"x": [object()]}, [[1], {"x": object()}], {(1, 2): [1]}):
        with pytest.raises(TypeError):
            io.dumps(doc)


def test_paper_document_takes_a_fixed_number_of_encoder_calls(tmp_path, monkeypatch):
    doc, = cli_documents("paper", "--json", str(tmp_path / "paper.json"))
    calls, encode = [], json.JSONEncoder.encode
    monkeypatch.setattr(json.JSONEncoder, "encode", lambda self, obj: calls.append(obj) or encode(self, obj))
    for checks in (doc["checks"], doc["checks"] * 3):
        calls.clear()
        io.dumps({**doc, "checks": checks})
        assert len(calls) == 2  # the top-level record, then the list of check records


@pytest.mark.parametrize("n", [2, 4, 16])
def test_classify_document_is_one_list_of_pairs(n, tmp_path, monkeypatch, capsys):
    # the spectrum goes out as [re, im] pairs from one tolist: the bytes of
    # the list of complex eigenvalues that _default writes one by one, in
    # 2 encoder calls where that list takes n + 2
    path = tmp_path / "h.json"
    path.write_text(io.dumps(io.matrix_to_obj(random_unbroken(np.random.default_rng(n), n).H)))
    c = classify(io.load_matrix(path))
    calls, encode = [], json.JSONEncoder.encode
    monkeypatch.setattr(json.JSONEncoder, "encode", lambda self, obj: calls.append(obj) or encode(self, obj))
    assert main(["classify", str(path)]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == reference_dumps({"kind": c.kind.value, "spectrum": list(c.spectrum)}) + "\n"
