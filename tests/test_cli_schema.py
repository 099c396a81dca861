"""The JSON that ``ptsim classify``, ``dilate``, ``simulate`` and ``nosignal``
print: field names and their order, envelope shapes and values, against
``data/cli_outputs.json``, recorded from these commands on these inputs.

The CLI chooses which fields of each library record it prints, so this pins
that choice. Values are compared to 1e-12 rather than bit for bit, since
LAPACK's last bits vary by platform.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ptsim import io
from ptsim.cli import main
from ptsim.pipeline import gunther_eta, gunther_hamiltonian

FIXTURE = Path(__file__).parent / "data" / "cli_outputs.json"


def commands(tmp_path) -> dict:
    h = tmp_path / "h.json"
    h.write_text(json.dumps(io.matrix_to_obj(gunther_hamiltonian(np.pi / 6))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "alpha_params": {"alpha": np.pi / 6, "s": 1.0, "E0": 0.0},
        "scheme": "identity",
        "t": 1.0,
        "psi": io.vector_to_obj(np.array([1.0, 0.0], dtype=complex)),
        "seed": 3,
        "eta": io.matrix_to_obj(gunther_eta(np.pi / 6)),
        "h1": "paper",
    }))
    nosignal = ["nosignal", "--alpha", "0.5", "--t", "1.3", "--scheme", "metric_sandwich", "--mode"]
    return {
        "classify": ["classify", str(h)],
        "dilate": ["dilate", str(h)],
        "simulate": ["simulate", str(cfg), "--samples", "3"],
        "nosignal_direct_eq71": [*nosignal, "direct_eq71"],
        "nosignal_simulated_eq73": [*nosignal, "simulated_eq73"],
    }


def assert_same(got, want, path="$"):
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("name", list(json.loads(FIXTURE.read_text())))
def test_output_matches_the_recorded_schema(name, tmp_path, capsys):
    assert main(commands(tmp_path)[name]) == 0
    assert_same(json.loads(capsys.readouterr().out), json.loads(FIXTURE.read_text())[name])
