"""Run main() of each experiment script in-process with small arguments."""

import csv
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()


def test_obstruction_demo(monkeypatch, capsys):
    run_script("obstruction_demo", monkeypatch)
    out = capsys.readouterr().out
    assert "obstruction entry(1,3): (1+0j)" in out
    residual = float(out.split("min residual over grid:")[1].split()[0])
    assert residual > 0.1


def test_run_worked_example(monkeypatch, capsys):
    run_script("run_worked_example", monkeypatch, "--alphas", "0.5,1.0", "--s", "1.0",
               "--e0", "0.0", "1.0")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 4 + 2  # header, 2 alphas x 1 s x 2 E0, blank, worst
    assert float(lines[-1].split(":")[1]) <= 1e-8


def test_sweep_no_signaling(monkeypatch, capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("sweep_no_signaling", monkeypatch, "--alpha-max", "1.0", "--alpha-points", "2",
               "--t-grid", "0.5,1.0", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # schemes x alphas x ts
    for r in rows:
        if r["scheme"] == "metric_sandwich":
            assert float(r["delta_s"]) <= 1e-10
    assert f"wrote 8 rows to {out}" in capsys.readouterr().out


def test_ep_probe(monkeypatch, capsys):
    run_script("ep_probe", monkeypatch, "--k-max", "3")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3
    worst = [float(line.split("worst residual")[1]) for line in lines[1:]]
    # the residual grows towards the exceptional point but stays bounded
    assert worst[0] <= 1e-12 and worst[1] <= 1e-9 and worst[2] <= 1e-6
    # the tensor sum on n = 4: the canonical run keeps its digits to k = 3, where
    # the supplied metric is refused
    run_script("ep_probe", monkeypatch, "--m", "2", "--k-max", "3")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 and lines[0].split()[2:] == ["canonical", "eta", "supplied", "eta"]
    rows = [line.split()[2:] for line in lines[1:]]
    assert all(row[0] == "error" for row in rows) and rows[0][2] == rows[1][2] == "error"
    assert all(float(row[1]) <= bound for row, bound in zip(rows, [1e-12, 1e-10, 1e-9])) and float(rows[1][3]) <= 1e-10
    assert rows[2][2].endswith("Error") and rows[2][3] == "(exit"
