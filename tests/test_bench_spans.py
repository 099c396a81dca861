"""The benchmark's span recorder finds every layer it times.

bench/spans.py looks each name in SPANS up with getattr when a traced run
starts, so a renamed or moved ptsim function would break it only there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


@pytest.mark.parametrize("span", _span_names())
def test_span_names_a_ptsim_function(span):
    mod_name, func_name = span.split(".")
    module = importlib.import_module("ptsim." + mod_name)
    assert callable(getattr(module, func_name, None)), span
