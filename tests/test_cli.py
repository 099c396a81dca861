import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptsim import cli, io
from ptsim.cli import main
from ptsim.linalg import SIGMA_X
from ptsim.pipeline import gunther_eta, gunther_hamiltonian

from corpus import near_ep_tensor


def write_matrix(path, a):
    path.write_text(json.dumps(io.matrix_to_obj(np.asarray(a, dtype=complex))))
    return str(path)


def assert_parse_error(rc, capsys):
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture
def h0_file(tmp_path):
    return write_matrix(tmp_path / "h0.json", gunther_hamiltonian(np.pi / 6))


class TestClassify:
    def test_unbroken(self, h0_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["classify", h0_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["kind"] == "UnbrokenPT"
        reals = sorted(re for re, im in obj["spectrum"])
        assert reals == pytest.approx([-np.cos(np.pi / 6), np.cos(np.pi / 6)])

    def test_broken(self, tmp_path):
        path = write_matrix(tmp_path / "b.json", [[2j, 1], [1, -2j]])
        out = tmp_path / "c.json"
        assert main(["classify", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "BrokenDiagonalizable"

    def test_with_explicit_pair(self, h0_file, tmp_path):
        p = write_matrix(tmp_path / "p.json", [[0, 1], [1, 0]])
        t = write_matrix(tmp_path / "t.json", np.eye(2))
        out = tmp_path / "c.json"
        assert main(["classify", h0_file, "--P", p, "--T", t, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "UnbrokenPT"

    def test_stdout_default(self, h0_file, capsys):
        assert main(["classify", h0_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "UnbrokenPT"


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", str(bad)]) == 2

    def test_missing_file_is_2(self, capsys):
        assert main(["classify", "/nonexistent/h.json"]) == 2

    def test_dimension_error_is_3(self, tmp_path, capsys):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({"rows": 2, "cols": 3, "data": [[0.0, 0.0]] * 6}))
        assert main(["classify", str(path)]) == 3

    def test_domain_error_is_4(self, tmp_path, capsys):
        # broken system cannot be dilated
        path = write_matrix(tmp_path / "b.json", [[2j, 1], [1, -2j]])
        assert main(["dilate", path]) == 4

    def test_bad_pt_pair_is_4(self, h0_file, tmp_path, capsys):
        p = write_matrix(tmp_path / "p.json", 2 * np.eye(2))
        t = write_matrix(tmp_path / "t.json", np.eye(2))
        assert main(["classify", h0_file, "--P", p, "--T", t]) == 4

    @pytest.mark.parametrize("obj", [{"rows": -1, "cols": -1, "data": [[1, 0]]},
                                     {"rows": 0, "cols": 0, "data": []}])
    def test_non_positive_dimensions_are_2(self, obj, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        assert_parse_error(main(["classify", str(path)]), capsys)

    @pytest.mark.parametrize("command", ["classify", "metric", "dilate"])
    @pytest.mark.parametrize("flag", ["--P", "--T"])
    def test_half_pt_pair_is_2(self, command, flag, h0_file, tmp_path, capsys):
        # one matrix of the pair is refused, not silently dropped
        path = write_matrix(tmp_path / "m.json", np.eye(2))
        assert_parse_error(main([command, h0_file, flag, path]), capsys)

    def test_unwritable_out_is_2(self, h0_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "c.json"
        assert_parse_error(main(["classify", h0_file, "--out", str(out)]), capsys)


class TestMetric:
    def test_construct(self, h0_file, tmp_path):
        out = tmp_path / "m.json"
        assert main(["metric", h0_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["positive_definite"] is True
        eta = io.matrix_from_obj(obj["eta"])
        h = gunther_hamiltonian(np.pi / 6)
        assert np.linalg.norm(h.conj().T @ eta - eta @ h) <= 1e-10

    def test_verify_supplied(self, h0_file, tmp_path):
        # with no pair, or with the family's (sigma_x, I), which H passes
        eta = write_matrix(tmp_path / "eta.json", gunther_eta(np.pi / 6))
        p = write_matrix(tmp_path / "p.json", SIGMA_X)
        t = write_matrix(tmp_path / "t.json", np.eye(2))
        outs = [tmp_path / "pairless.json", tmp_path / "paired.json"]
        assert main(["metric", h0_file, "--eta", eta, "--out", str(outs[0])]) == 0
        assert main(["metric", h0_file, "--P", p, "--T", t, "--eta", eta, "--out", str(outs[1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()
        assert json.loads(outs[0].read_text())["min_eigenvalue"] == pytest.approx(4.0 / 3.0)

    def test_verify_rejects_wrong_eta(self, h0_file, tmp_path, capsys):
        eta = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        assert main(["metric", h0_file, "--eta", eta]) == 4

    def test_verify_tests_h_against_the_supplied_pair(self, h0_file, tmp_path, capsys):
        # (I, I) is no pair of H at alpha = pi/6, as classify and dilate --eta say too
        eta = write_matrix(tmp_path / "eta.json", gunther_eta(np.pi / 6))
        eye = write_matrix(tmp_path / "i.json", np.eye(2))
        assert main(["metric", h0_file, "--P", eye, "--T", eye, "--eta", eta]) == 4
        assert capsys.readouterr().err == "error: metric: classification is NotPTSymmetric\n"

    def test_verify_names_verify_metric(self, h0_file, tmp_path, capsys):
        eta = write_matrix(tmp_path / "eta.json", [[3, 1], [0, 3]])
        assert main(["metric", h0_file, "--eta", eta]) == 4
        assert capsys.readouterr().err == "error: verify_metric: eta is not Hermitian\n"


class TestDilate:
    def test_default(self, h0_file, tmp_path):
        out = tmp_path / "d.json"
        assert main(["dilate", h0_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        for key in ("hermiticity", "eq_h1h2", "eq_h2h4", "tau_sq"):
            assert obj["residuals"][key] <= 1e-10
        hhat = io.matrix_from_obj(obj["Hhat"])
        assert np.linalg.norm(hhat - hhat.conj().T) <= 1e-12

    def test_supplied_eta_and_h1_file(self, h0_file, tmp_path):
        eta = write_matrix(tmp_path / "eta.json", gunther_eta(np.pi / 6))
        h1 = write_matrix(tmp_path / "h1.json", [[0.1, 0.0], [0.0, -0.1]])
        out = tmp_path / "d.json"
        assert main(["dilate", h0_file, "--eta", eta, "--h1", h1, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        got = io.matrix_from_obj(obj["H1"])
        assert got == pytest.approx(np.diag([0.1, -0.1]))

    def test_eta_below_threshold_is_4(self, h0_file, tmp_path, capsys):
        eta = write_matrix(tmp_path / "eta.json", 0.1 * gunther_eta(np.pi / 6))
        assert main(["dilate", h0_file, "--eta", eta]) == 4

    @pytest.mark.parametrize("eta, message", [
        ([[3, 1], [0, 3]], "error: build_dilation: eta is not Hermitian"),
        ([[3, 0], [0, 4]], "error: build_dilation: H^dag eta != eta H"),
    ], ids=["not_hermitian", "not_intertwining"])
    def test_refused_eta_names_build_dilation(self, eta, message, h0_file, tmp_path, capsys):
        path = write_matrix(tmp_path / "eta.json", eta)
        assert main(["dilate", h0_file, "--eta", path]) == 4
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("margin", ["nan", "inf", "0.5", "-1", "1.0"])
    def test_bad_margin_is_2(self, margin, h0_file, capsys):
        assert_parse_error(main(["dilate", h0_file, f"--margin={margin}"]), capsys)


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
    return calls


class TestWithoutPair:
    """With no --P/--T, H is judged by its spectrum alone, from the one eig
    of the classification that the command runs."""

    @pytest.mark.parametrize("k", [4, 5, 6])
    @pytest.mark.parametrize("command", ["metric", "dilate"])
    def test_near_the_exceptional_point(self, command, k, tmp_path):
        # kappa(Psi) = 2e4..2e6 at alpha = pi/2 - 10^-k; the family's pair gives the same output
        h = write_matrix(tmp_path / "h.json", gunther_hamiltonian(np.pi / 2 - 10.0**-k))
        p = write_matrix(tmp_path / "p.json", SIGMA_X)
        t = write_matrix(tmp_path / "t.json", np.eye(2))
        outs = [tmp_path / "pairless.json", tmp_path / "paired.json"]
        assert main([command, h, "--out", str(outs[0])]) == 0
        assert main([command, h, "--P", p, "--T", t, "--out", str(outs[1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    @pytest.mark.parametrize("command, who", [("metric", "positive_metric"), ("dilate", "build_dilation")])
    def test_past_the_exceptional_point_cutoff(self, command, who, tmp_path, capsys):
        # at alpha = pi/2 - 1e-7 the two eigenvalues and eigenvectors fall in one cluster
        h = write_matrix(tmp_path / "h.json", gunther_hamiltonian(np.pi / 2 - 1e-7))
        assert main([command, h]) == 4
        assert capsys.readouterr().err == f"error: {who}: classification is Defective\n"

    @pytest.mark.parametrize("command", ["metric", "dilate"])
    def test_one_eig(self, command, h0_file, tmp_path, eig_calls):
        assert main([command, h0_file, "--out", str(tmp_path / "o.json")]) == 0
        assert len(eig_calls) == 1

    @pytest.mark.parametrize("command", ["metric", "dilate"])
    def test_not_pt_symmetric_is_4(self, command, tmp_path, capsys):
        h = write_matrix(tmp_path / "h.json", np.diag([1.0, 1j]))
        assert main([command, h]) == 4
        assert capsys.readouterr().err.endswith("classification is NotPTSymmetric\n")


class TestSuppliedMetric:
    """A supplied eta builds without an eig of H, and ``ptsim dilate`` writes
    nothing that reads H's eigenframe."""

    def test_dilate_with_eta_makes_no_eig(self, h0_file, tmp_path, eig_calls):
        eta = write_matrix(tmp_path / "eta.json", gunther_eta(np.pi / 6))
        assert main(["dilate", h0_file, "--eta", eta, "--out", str(tmp_path / "o.json")]) == 0
        assert eig_calls == []


class TestSimulate:
    def make_config(self, tmp_path, **overrides):
        cfg = {
            "alpha_params": {"alpha": np.pi / 6, "s": 1.0, "E0": 0.0},
            "scheme": "identity",
            "t": 1.0,
            "psi": io.vector_to_obj(np.array([1.0, 0.0], dtype=complex)),
            "seed": 3,
            "eta": io.matrix_to_obj(gunther_eta(np.pi / 6)),
            "h1": "paper",
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", self.make_config(tmp_path), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["p_prepare"] == pytest.approx(0.5, abs=1e-12)
        assert obj["final_formula_check"] <= 1e-10
        assert obj["p_total"] == pytest.approx(obj["p_prepare"] * obj["p_post"])

    def test_sampling_option(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = main(["simulate", self.make_config(tmp_path), "--samples", "1000",
                   "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["sampling"]["samples"] == 1000

    def certain_success_configs(self, tmp_path):
        """Custom schemes rho = u u^dag, rho' = w (eta u)^dag with psi = u at t = 0:
        each succeeds with probability 1."""
        eta = gunther_eta(np.pi / 6)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            u, w = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            yield self.make_config(tmp_path, scheme="custom", t=0.0, psi=io.vector_to_obj(u),
                                   rho=io.matrix_to_obj(np.outer(u, u.conj())),
                                   rho_prime=io.matrix_to_obj(np.outer(w, (eta @ u).conj())))

    def test_certain_success_samples_every_time(self, tmp_path):
        out, p_totals = tmp_path / "sim.json", []
        for cfgp in self.certain_success_configs(tmp_path):
            assert main(["simulate", cfgp, "--samples", "10", "--out", str(out)]) == 0
            obj = json.loads(out.read_text())
            assert obj["sampling"]["successes"] == 10
            p_totals.append(obj["p_total"])
        assert max(p_totals) > 1.0  # rounded above 1, and drawn at 1

    def test_p_total_beyond_rounding_above_one_is_5(self, tmp_path, capsys, monkeypatch):
        run = cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation", lambda cfg: dataclasses.replace(run(cfg), p_total=1.5))
        cfgp = next(self.certain_success_configs(tmp_path))
        assert main(["simulate", cfgp, "--samples", "10"]) == 5
        assert capsys.readouterr().err.startswith("error: sample_successes: p_total 1.5 exceeds 1")

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
    def test_bad_seed_is_2(self, seed, tmp_path, capsys):
        rc = main(["simulate", self.make_config(tmp_path, seed=seed), "--samples", "10"])
        assert_parse_error(rc, capsys)

    def test_custom_rho_of_the_wrong_shape_is_3(self, tmp_path, capsys):
        cfgp = self.make_config(tmp_path, scheme="custom", rho=io.matrix_to_obj(np.eye(3)),
                                rho_prime=io.matrix_to_obj(np.eye(2)))
        assert main(["simulate", cfgp]) == 3

    def test_zero_custom_rho_is_4_and_names_the_stage(self, tmp_path, capsys):
        cfgp = self.make_config(tmp_path, scheme="custom", rho=io.matrix_to_obj(np.zeros((2, 2))),
                                rho_prime=io.matrix_to_obj(np.eye(2)))
        assert main(["simulate", cfgp]) == 4
        assert capsys.readouterr().err == "error: scheme_stages: the preparation stage is a zero map (rho = 0)\n"

    @pytest.mark.parametrize("field", ["rho", "rho_prime"])
    def test_rho_with_a_built_in_scheme_is_2(self, field, tmp_path, capsys):
        # the identity scheme would ignore the matrix; it refuses it instead
        cfgp = self.make_config(tmp_path, **{field: io.matrix_to_obj(2 * np.eye(2))})
        assert_parse_error(main(["simulate", cfgp]), capsys)

    def test_negative_samples_is_2(self, tmp_path, capsys):
        rc = main(["simulate", self.make_config(tmp_path), "--samples", "-5"])
        assert_parse_error(rc, capsys)

    @pytest.mark.parametrize("field", ["t", "alpha"])
    def test_non_finite_config_number_is_2(self, field, tmp_path, capsys):
        cfg = {"t": 1.0, "alpha_params": {"alpha": np.pi / 6}}
        if field == "t":
            cfg["t"] = float("nan")
        else:
            cfg["alpha_params"]["alpha"] = float("inf")
        assert_parse_error(main(["simulate", self.make_config(tmp_path, **cfg)]), capsys)

    def test_malformed_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "identity"}))
        assert main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize("field", ["scheme", "h1"])
    def test_unknown_choice_is_2(self, field, tmp_path, capsys):
        cfgp = self.make_config(tmp_path, **{field: "bogus"})
        assert_parse_error(main(["simulate", cfgp]), capsys)

    def test_unknown_h1_with_a_defective_hamiltonian_is_2(self, tmp_path, capsys):
        # the bad argument is named before H is classified
        h = io.matrix_to_obj(np.array([[1.0, 1.0], [0.0, 1.0]]))
        cfgp = self.make_config(tmp_path, alpha_params=None, hamiltonian=h, eta=None, h1="bogus")
        assert main(["simulate", cfgp]) == 2
        assert capsys.readouterr().err == "error: build_dilation: unknown h1_choice 'bogus'\n"

    def test_supplied_h1_without_a_matrix_is_2(self, tmp_path):
        # the config format has no H1 field, so "supplied" names a missing input
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "ptsim.cli", "simulate",
                               self.make_config(tmp_path, h1="supplied")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_near_the_exceptional_point_gives_no_wrong_answer(self, tmp_path, capsys):
        # n = 4, 1e-6 from the EP (kappa(eta) = 9.1e12), no eta, no pair: a run that
        # exits 0 matches the closed form e^{-iH} psi; a refusal names its cause
        sys_, _, u = near_ep_tensor(6, 2)
        psi = np.full(4, 0.5, dtype=complex)
        cfgp = self.make_config(tmp_path, alpha_params=None, hamiltonian=io.matrix_to_obj(sys_.H), eta=None,
                                h1="zero", psi=io.vector_to_obj(psi))
        rc = main(["simulate", cfgp, "--out", str(tmp_path / "o.json")])
        if rc != 0:
            assert rc in (4, 5) and capsys.readouterr().err.startswith("error: ")
            return
        obj = json.loads((tmp_path / "o.json").read_text())
        target = u @ psi / np.linalg.norm(u @ psi)
        assert obj["final_formula_check"] <= 1e-8
        assert np.linalg.norm(io.vector_from_obj(obj["xi5"]) - target) <= 1e-8

    def hamiltonian_config(self, tmp_path, **pt):
        h = gunther_hamiltonian(np.pi / 6)
        objs = {k: io.matrix_to_obj(v) for k, v in pt.items()}
        return self.make_config(tmp_path, alpha_params=None, hamiltonian=io.matrix_to_obj(h),
                                **objs)

    def run_to_text(self, cfgp, out):
        assert main(["simulate", cfgp, "--out", str(out)]) == 0
        return out.read_text()

    def test_hamiltonian_with_pt_pair(self, tmp_path):
        # the same H, pair, eta and H1 as the alpha_params config: same output
        expected = self.run_to_text(self.make_config(tmp_path), tmp_path / "a.json")
        cfgp = self.hamiltonian_config(tmp_path, P=SIGMA_X, T=np.eye(2))
        assert self.run_to_text(cfgp, tmp_path / "b.json") == expected

    def test_hamiltonian_without_pt_pair(self, tmp_path):
        obj = json.loads(self.run_to_text(self.hamiltonian_config(tmp_path), tmp_path / "b.json"))
        assert obj["p_prepare"] == pytest.approx(0.5, abs=1e-12)
        assert obj["final_formula_check"] <= 1e-10

    @pytest.mark.parametrize("eta", [None, "supplied"])
    def test_hamiltonian_without_pt_pair_makes_one_eig(self, eta, tmp_path, eig_calls):
        h = io.matrix_to_obj(gunther_hamiltonian(np.pi / 6))
        cfgp = self.make_config(tmp_path, alpha_params=None, hamiltonian=h, **({} if eta else {"eta": None}))
        assert main(["simulate", cfgp, "--out", str(tmp_path / "o.json")]) == 0
        assert len(eig_calls) == 1

    @pytest.mark.parametrize("field", ["P", "T"])
    def test_hamiltonian_with_half_pt_pair_is_2(self, field, tmp_path, capsys):
        cfgp = self.hamiltonian_config(tmp_path, **{field: np.eye(2)})
        assert_parse_error(main(["simulate", cfgp]), capsys)

    def test_hamiltonian_non_involutory_p_is_4(self, tmp_path, capsys):
        cfgp = self.hamiltonian_config(tmp_path, P=2 * np.eye(2), T=np.eye(2))
        assert main(["simulate", cfgp]) == 4

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cfgp = self.make_config(tmp_path)
        assert main(["simulate", cfgp, "--out", str(out1)]) == 0
        assert main(["simulate", cfgp, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestNosignal:
    def test_single_point(self, tmp_path):
        out = tmp_path / "ns.json"
        rc = main(["nosignal", "--alpha", str(np.pi / 6), "--t", "1.0",
                   "--scheme", "metric_sandwich", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["delta_s"] <= 1e-10

    def test_alpha_deg(self, tmp_path):
        out = tmp_path / "ns.json"
        rc = main(["nosignal", "--alpha-deg", "30", "--scheme", "identity",
                   "--mode", "direct_eq71", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["delta_s"] == pytest.approx(0.557885238580255, abs=1e-10)

    def test_missing_alpha_is_2(self, capsys):
        assert main(["nosignal", "--t", "1.0"]) == 2

    def test_alpha_out_of_range_is_4(self, capsys):
        assert main(["nosignal", "--alpha", "1.6"]) == 4

    def test_unknown_scheme_is_2(self, capsys):
        assert_parse_error(main(["nosignal", "--alpha", "0.5", "--scheme", "bogus"]), capsys)

    @pytest.mark.parametrize("mode", ["direct_eq71", "simulated_eq73"])
    def test_custom_scheme_is_refused_by_name(self, mode, capsys):
        # argparse choices name the value and the schemes on offer, not
        # matrices the experiment cannot take
        assert main(["nosignal", "--alpha", "0.5", "--scheme", "custom", "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ptsim nosignal: argument --scheme: invalid choice: 'custom'")
        assert "metric_sandwich" in err and "rho" not in err

    def test_usage_errors_are_one_error_line(self, capsys):
        assert_parse_error(main(["nosignal", "--alpha", "0.5", "--mode", "eq72"]), capsys)
        assert_parse_error(main(["classify"]), capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--alpha-deg", "--t", "--s"])
    def test_non_finite_input_is_2(self, flag, value, capsys):
        base = [] if flag.startswith("--alpha") else ["--alpha", "0.5"]
        assert_parse_error(main(["nosignal", *base, f"{flag}={value}"]), capsys)

    def test_non_finite_t_grid_is_2(self, tmp_path, capsys):
        rc = main(["nosignal", "--alpha", "0.5", "--t-grid", "0.5,nan",
                   "--sweep", str(tmp_path / "f.csv")])
        assert_parse_error(rc, capsys)
        assert not (tmp_path / "f.csv").exists()

    def test_malformed_t_grid_is_2(self, tmp_path, capsys):
        rc = main(["nosignal", "--alpha", "0.5", "--t-grid", "a,b",
                   "--sweep", str(tmp_path / "f.csv")])
        assert_parse_error(rc, capsys)

    def test_unwritable_sweep_is_2(self, tmp_path, capsys):
        rc = main(["nosignal", "--alpha", "0.5", "--t-grid", "0.5",
                   "--sweep", str(tmp_path / "missing_dir" / "f.csv")])
        assert_parse_error(rc, capsys)

    def test_sweep_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        out = tmp_path / "ns.json"
        rc = main(["nosignal", "--alpha", str(np.pi / 6), "--t-grid", "0.5,1.0",
                   "--scheme", "metric", "--sweep", str(csv_path), "--out", str(out)])
        assert rc == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["t"] for r in rows} == {"0.5", "1.0"}
        for r in rows:
            assert float(r["delta_s"]) <= 1e-10
            assert r["scheme"] == "metric_sandwich"


class TestPaper:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "checks.json"
        assert main(["paper", "--json", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["all_pass"] is True
        assert all(c["pass"] for c in obj["checks"])

    def test_text_output(self, capsys):
        assert main(["paper"]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL " not in text

    def test_unwritable_json_is_2(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "checks.json"
        assert_parse_error(main(["paper", "--json", str(out)]), capsys)
