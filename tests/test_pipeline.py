import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ptsim import (
    PTSystem,
    SimulationConfig,
    build_dilation,
    errors,
    gunther_eta,
    gunther_hamiltonian,
    gunther_projection,
    gunther_propagator,
    gunther_system,
    matrix_exp,
    reproduce_gunther_example,
    run_simulation,
    sample_successes,
    validate_pt_pair,
)
from ptsim import cli, completion, dilation, io, linalg, pipeline
from ptsim.completion import _completions, post_select
from ptsim.linalg import eigen_evolve, psd_power
from ptsim.metric import scalar_sum_obstruction_demo
from ptsim.pipeline import extraction_completion, preparation_completion, scheme_stages

from corpus import gunther_tensor, random_unbroken, unbroken_corpus
from oracle import expm_taylor

FROZEN_TRACES = json.loads(
    (Path(__file__).parent / "data" / "simulation_traces.json").read_text())


def make_cfg(alpha=np.pi / 6, t=1.0, scheme="identity", psi=None, **kw):
    sys = gunther_system(alpha)
    d = build_dilation(sys, eta=gunther_eta(alpha), h1_choice="paper")
    if psi is None:
        psi = np.array([1.0, 0.0], dtype=complex)
    return SimulationConfig(sys=sys, dilation=d, t=t, psi=psi, scheme=scheme, **kw)


def _count_matrix_exp(monkeypatch):
    """A dict whose "matrix_exp" entry counts the calls made through any ptsim
    module's name for linalg.matrix_exp."""
    calls = {"matrix_exp": 0}

    def counted(*args, _fn=linalg.matrix_exp, **kwargs):
        calls["matrix_exp"] += 1
        return _fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ptsim" and hasattr(mod, "matrix_exp"):
            monkeypatch.setattr(mod, "matrix_exp", counted)
    return calls


def _count_hhat_blocks(monkeypatch):
    """The stack shape, () for one system, of every assembly of Hhat's blocks (``dilation._hhat_blocks``)."""
    sizes = []

    def counted(d, _fn=dilation._hhat_blocks):
        sizes.append(d.H.shape[:-2])
        return _fn(d)

    monkeypatch.setattr(dilation, "_hhat_blocks", counted)
    return sizes


def _count_completions(monkeypatch):
    """The shapes of the contraction stacks that ``completion._completion``
    dilates into unitaries, through either module that binds it."""
    shapes = []

    def counted(c, *args, _fn=completion._completion):
        shapes.append(c.shape)
        return _fn(c, *args)

    monkeypatch.setattr(completion, "_completion", counted)
    monkeypatch.setattr(pipeline, "_completion", counted)
    return shapes


def _stage_completions(d, st):
    """The (preparation, extraction) completions of the stages st on d, from the public builders."""
    return preparation_completion(d, st.rho), extraction_completion(d, st.rho_prime)


def _similar_to_diagonal(rng, n, kappa_s):
    """H = S D S^{-1} with P = T = I: S = U diag(s) V^T for real orthogonal U, V
    and s geometric from 1 down to 1/kappa_s, D a sorted real spectrum in
    [-2, 2]. Real and, while eig keeps the spectrum real, unbroken."""
    u, v = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    s = u @ np.diag(np.geomspace(1.0, 1.0 / kappa_s, n)) @ v.T
    h = s @ np.diag(np.sort(rng.uniform(-2.0, 2.0, size=n))) @ np.linalg.inv(s)
    eye = np.eye(n, dtype=complex)
    return PTSystem(h.astype(complex), validate_pt_pair(eye, eye))


def _upper_triangular_system(c):
    """H = [[1, c], [0, 2]] with P = T = I: real, unbroken, and kappa(Psi) ~ 2c."""
    eye = np.eye(2, dtype=complex)
    return PTSystem(np.array([[1.0, c], [0.0, 2.0]], dtype=complex), validate_pt_pair(eye, eye))


class TestWorkedExample:
    @pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 4, 1.0])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_closed_forms(self, alpha, s):
        r = reproduce_gunther_example(alpha, s=s, e0=0.5, t=1.0)
        for key in ("tau", "h1", "h2", "h4", "hhat_tensor", "p_ytau", "prep_amplitude"):
            assert r[key] <= 1e-10, (key, r[key])
        assert r["evolution_top"] <= 1e-8

    def test_projection_closed_form(self):
        alpha = np.pi / 4
        d = build_dilation(gunther_system(alpha), eta=gunther_eta(alpha))
        prep = preparation_completion(d, np.eye(2, dtype=complex))
        assert prep.P_N == pytest.approx(gunther_projection(alpha), abs=1e-12)

    def test_preparation_amplitude_value(self):
        # the preparation stage realizes its target map with amplitude cos(alpha)/2
        for alpha in (np.pi / 6, np.pi / 4, 1.0):
            d = build_dilation(gunther_system(alpha), eta=gunther_eta(alpha))
            prep = preparation_completion(d, np.eye(2, dtype=complex))
            assert prep.scale == pytest.approx(np.cos(alpha) / 2.0, abs=1e-12)

    def test_preparation_probability_half(self):
        # post-selecting the prepared state succeeds with probability 1/2
        # for |0> input, independent of alpha
        for alpha in (np.pi / 6, np.pi / 4, 1.0):
            cfg = make_cfg(alpha=alpha)
            trace = run_simulation(cfg)
            assert trace.p_prepare == pytest.approx(0.5, abs=1e-12)

    def test_propagator_matches_expm(self):
        rng = np.random.default_rng(100)
        params = [(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-3.0, 3.0),
                   rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)) for _ in range(50)]
        # towards the exceptional point, where H - e0 I is nearly nilpotent
        params += [(np.pi / 2 - 10.0**-k, s, e0, t)
                   for k in (1, 2, 3) for s, e0, t in ((1.0, 0.0, 1.0), (2.0, 1.0, 3.0), (0.5, -1.0, -2.0))]
        for alpha, s, e0, t in params:
            expected = scipy.linalg.expm(-1j * t * gunther_hamiltonian(alpha, s, e0))
            got = gunther_propagator(alpha, s, e0, t)
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected), (alpha, s, e0, t)

    def test_offset_is_a_global_phase(self):
        # e0 multiplies e^{-itH} by e^{-it e0}, which no outcome probability
        # sees: the no-signaling experiment takes e0 = 0
        rng = np.random.default_rng(101)
        for _ in range(50):
            alpha, s, e0, t = (rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-3.0, 3.0),
                               rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
            shifted = gunther_propagator(alpha, s, e0, t)
            expected = np.exp(-1j * t * e0) * gunther_propagator(alpha, s, 0.0, t)
            assert np.linalg.norm(shifted - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_propagator_at_zero_frequency(self):
        # s = 0 leaves H = e0 I, and t = 0 gives the identity
        assert np.array_equal(gunther_propagator(0.3, 0.0, 1.0, 2.0), np.exp(-2j) * np.eye(2))
        assert np.array_equal(gunther_propagator(0.3, 1.0, 1.0, 0.0), np.eye(2))

    @pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 4, 1.0])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    @pytest.mark.parametrize("e0", [0.0, 1.0])
    def test_hhat_closed_form_is_the_kron_expression(self, alpha, s, e0):
        # the entrywise closed form on the parameter sets of `ptsim paper`
        sa, ca = np.sin(alpha), np.cos(alpha)
        expected = np.kron(np.eye(2), e0 * np.eye(2) + s * ca**2 * linalg.SIGMA_X) - s * ca * sa * np.kron(
            linalg.SIGMA_Y, linalg.SIGMA_Z)
        assert np.array_equal(pipeline._gunther_hhat(alpha, s, e0), expected)

    @pytest.mark.parametrize("name", ["alpha", "s", "e0", "t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_is_parse_error(self, name, value):
        kwargs = {"alpha": np.pi / 6, "s": 1.0, "e0": 0.0, "t": 1.0, name: value}
        with pytest.raises(errors.ParseError):
            reproduce_gunther_example(**kwargs)

    @pytest.mark.parametrize("fn, name", [(gunther_hamiltonian, "alpha"), (gunther_hamiltonian, "s"),
                                          (gunther_hamiltonian, "e0"), (gunther_system, "alpha"),
                                          (gunther_system, "s"), (gunther_system, "e0"),
                                          (gunther_eta, "alpha"), (gunther_projection, "alpha"),
                                          (gunther_propagator, "alpha"), (gunther_propagator, "s"),
                                          (gunther_propagator, "e0"), (gunther_propagator, "t")])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_family_parameter_is_parse_error(self, fn, name, value):
        # np.sin(inf) once warned and the family returned NaN matrices
        kwargs = {"alpha": np.pi / 6, name: value}
        with pytest.raises(errors.ParseError, match=f"{name} must be finite"):
            fn(**kwargs)


class TestPaperChecks:
    def test_closed_forms_only(self, monkeypatch, tmp_path):
        # the 12 worked examples, built on their supplied metrics, make no eig
        # of H and exponentiate nothing; the obstruction demo inverts no matrix
        calls = _count_matrix_exp(monkeypatch)
        counts = TestReuse.count_linalg(monkeypatch, "eig", "inv")
        assert cli.main(["paper", "--json", str(tmp_path / "paper.json")]) == 0
        assert calls["matrix_exp"] == 0
        assert counts["eig"] == 0
        counts["inv"] = 0
        scalar_sum_obstruction_demo()
        assert counts["inv"] == 0


class TestPaperBatch:
    """``ptsim paper`` builds its 12 worked examples as one stack."""

    GRID = [(a, s, e0) for a in (np.pi / 6, np.pi / 4, 1.0) for s in (1.0, 2.0) for e0 in (0.0, 1.0)]

    def test_one_eig_and_one_qr(self, monkeypatch):
        # counted as in test_ptcore.py::TestFactorizations: the supplied
        # metrics leave no eig of H, and the one QR serves the whole stack
        counts = TestReuse.count_linalg(monkeypatch, "eig", "qr")
        build_dilation([gunther_system(a, s, e0) for a, s, e0 in self.GRID],
                       eta=[gunther_eta(a) for a, _, _ in self.GRID], h1_choice="paper")
        assert counts == {"eig": 0, "qr": 1}

    def test_one_stacked_hhat_assembly(self, monkeypatch, tmp_path):
        # the residuals of H1, H2, H4 and Hhat read one assembly of all 12
        sizes = _count_hhat_blocks(monkeypatch)
        assert cli.main(["paper", "--json", str(tmp_path / "paper.json")]) == 0
        assert sizes == [(len(self.GRID),)]

    def test_json_equals_twelve_scalar_calls(self, tmp_path):
        # the text cmd_paper writes from one stacked call, rebuilt from 12
        # scalar reproduce_gunther_example calls: byte identity on any platform
        out = tmp_path / "paper.json"
        assert cli.main(["paper", "--json", str(out)]) == 0
        checks = []
        for a, s, e0 in self.GRID:
            for name, resid in reproduce_gunther_example(a, s, e0, t=1.0).items():
                tol = 1e-8 if name == "evolution_top" else 1e-10
                checks.append({"check": f"worked_example[alpha={a:.6g},s={s:g},E0={e0:g}].{name}",
                               "residual": resid, "tolerance": tol, "pass": resid <= tol})
        demo = scalar_sum_obstruction_demo()
        entry = demo["obstruction_entry_13"]
        checks.append({"check": "scalar_sum_obstruction.entry_13", "residual": abs(entry - 1.0),
                       "tolerance": 0.0, "pass": entry == 1.0})
        checks.append({"check": "scalar_sum_obstruction.grid_min_residual_exceeds_0.1",
                       "residual": demo["min_residual"], "tolerance": 0.1, "pass": demo["min_residual"] > 0.1})
        expected = io.dumps({"checks": checks, "all_pass": all(c["pass"] for c in checks)}) + "\n"
        assert out.read_text() == expected

    def test_array_parameters_match_scalar_calls(self):
        # scalar in, scalar out; arrays broadcast and keep their shape
        alpha, s = np.array([[np.pi / 6, 1.0], [0.3, 1.2]]), np.array([1.0, 2.0])
        rep = reproduce_gunther_example(alpha, s, 0.5, t=0.7)
        for idx in np.ndindex(alpha.shape):
            one = reproduce_gunther_example(float(alpha[idx]), float(s[idx[1]]), 0.5, t=0.7)
            for name, resid in one.items():
                assert type(resid) is float and rep[name].shape == alpha.shape
                assert rep[name][idx] == resid, (name, idx)

    def test_unbroken_point_is_named(self):
        # alpha = pi/2 is the exceptional point: the third point of the batch
        with pytest.raises(errors.NotUnbrokenError, match="^build_dilation: member 2: classification is Defective$"):
            reproduce_gunther_example(np.array([0.3, 0.5, np.pi / 2]))


class TestRunSimulation:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_is_parse_error(self, t):
        with pytest.raises(errors.ParseError):
            run_simulation(make_cfg(t=t))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_psi_is_parse_error(self, value):
        # not an all-NaN trace that sample_successes then fails on
        with pytest.raises(errors.ParseError, match="run_simulation: psi must be finite"):
            run_simulation(make_cfg(psi=np.array([1.0, value])))

    def test_identity_scheme_formula(self):
        cfg = make_cfg()
        trace = run_simulation(cfg)
        assert trace.final_formula_check <= 1e-10
        ut = matrix_exp(-1j * cfg.t * cfg.dilation.H)
        target = ut @ cfg.psi
        assert trace.xi5 == pytest.approx(target / np.linalg.norm(target), abs=1e-10)
        assert trace.p_total == pytest.approx(trace.p_prepare * trace.p_post)

    def test_metric_sandwich_scheme(self):
        cfg = make_cfg(scheme="metric_sandwich", psi=np.array([0.6, 0.8], dtype=complex))
        trace = run_simulation(cfg)
        assert trace.final_formula_check <= 1e-10
        d = cfg.dilation
        rho = psd_power(d.eta, -0.5)
        rho_p = psd_power(d.eta, 0.5)
        target = rho_p @ matrix_exp(-1j * cfg.t * d.H) @ rho @ (cfg.psi / np.linalg.norm(cfg.psi))
        assert trace.xi5 == pytest.approx(target / np.linalg.norm(target), abs=1e-10)

    def test_metric_sandwich_probabilities_match_unitary_channel(self):
        # rho' U rho is eta^{1/2} U eta^{-1/2}, which is unitary, so both
        # branch probabilities lose only the completion scale
        cfg = make_cfg(scheme="metric_sandwich")
        trace = run_simulation(cfg)
        channel = psd_power(cfg.dilation.eta, 0.5) @ matrix_exp(
            -1j * cfg.t * cfg.dilation.H
        ) @ psd_power(cfg.dilation.eta, -0.5)
        assert np.linalg.norm(channel.conj().T @ channel - np.eye(2)) <= 1e-10

    def test_custom_scheme_random(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho_p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            cfg = make_cfg(scheme="custom", psi=psi, rho=rho, rho_prime=rho_p)
            trace = run_simulation(cfg)
            assert trace.final_formula_check <= 1e-10

    def test_taylor_oracle_agrees(self):
        cfg = make_cfg(t=0.7)
        trace = run_simulation(cfg)
        target = expm_taylor(-1j * 0.7 * cfg.dilation.H, terms=40) @ cfg.psi
        assert trace.xi5 == pytest.approx(target / np.linalg.norm(target), abs=1e-10)

    def test_random_unbroken_systems(self):
        rng = np.random.default_rng(52)
        for sys in unbroken_corpus()[:5]:
            d = build_dilation(sys)
            n = d.dim
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            cfg = SimulationConfig(sys=sys, dilation=d, t=0.9, psi=psi, scheme="metric_sandwich")
            trace = run_simulation(cfg)
            assert trace.final_formula_check <= 1e-10
            assert 0.0 < trace.p_total <= 1.0

    def test_zero_input(self):
        cfg = make_cfg(psi=np.zeros(2))
        with pytest.raises(errors.ZeroVectorError):
            run_simulation(cfg)

    def test_annihilated_state(self):
        cfg = make_cfg(
            scheme="custom",
            rho=np.diag([0.0, 1.0]).astype(complex),
            rho_prime=np.eye(2, dtype=complex),
            psi=np.array([1.0, 0.0], dtype=complex),
        )
        with pytest.raises(errors.ZeroFinalStateError):
            run_simulation(cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["rho", "rho_prime"])
    def test_custom_non_finite_factor_is_parse_error(self, name, value):
        # it once escaped as numpy's LinAlgError from the completion's SVD
        factors = {"rho": np.eye(2, dtype=complex), "rho_prime": np.eye(2, dtype=complex)}
        factors[name][0, 0] = value
        with pytest.raises(errors.ParseError, match=f"custom scheme: {name} must be finite"):
            run_simulation(make_cfg(scheme="custom", **factors))

    def test_custom_requires_both_factors(self):
        cfg = make_cfg(scheme="custom", rho=np.eye(2))
        with pytest.raises(errors.ParseError):
            run_simulation(cfg)


    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    @pytest.mark.parametrize("name", ["rho", "rho_prime"])
    def test_built_in_scheme_refuses_factors(self, scheme, name):
        # refused before the stage cache, so stages built earlier hide nothing
        cfg = make_cfg(scheme=scheme, **{name: 2 * np.eye(2, dtype=complex)})
        scheme_stages(cfg.dilation, scheme)
        with pytest.raises(errors.ParseError, match="use scheme 'custom'"):
            run_simulation(cfg)


    @pytest.mark.parametrize("zero", ["rho", "rho_prime"])
    def test_zero_stage_action_keeps_the_single_system_text(self, zero):
        # the two completions are one stack of two, but a zero action is still
        # one system's error, with no member index; it names its caller and stage
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        factors = {"rho": np.eye(2, dtype=complex), "rho_prime": np.eye(2, dtype=complex), zero: np.zeros((2, 2))}
        text = {"rho": "the preparation stage is a zero map (rho = 0)",
                "rho_prime": "the extraction stage is a zero map (rho' = 0)"}[zero]
        with pytest.raises(errors.ZeroMapError) as exc:
            scheme_stages(d, "custom", **factors)
        assert str(exc.value) == f"scheme_stages: {text}"
        build = preparation_completion if zero == "rho" else extraction_completion
        with pytest.raises(errors.ZeroMapError) as exc:
            build(d, factors[zero])
        assert str(exc.value) == f"{build.__name__}: {text}"


class TestReuse:
    def test_t_sweep_on_one_dilation_matches_fresh_dilations(self):
        rng = np.random.default_rng(53)
        sys = random_unbroken(rng, 8)
        d = build_dilation(sys)
        for t in np.linspace(0.5, 2.0, 7):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            swept = run_simulation(
                SimulationConfig(sys=sys, dilation=d, t=t, psi=psi, scheme="metric_sandwich"))
            fresh = run_simulation(SimulationConfig(
                sys=sys, dilation=build_dilation(sys), t=t, psi=psi, scheme="metric_sandwich"))
            for a, b in ((swept.xi2, fresh.xi2), (swept.xi5, fresh.xi5)):
                assert np.linalg.norm(a - b) <= 1e-13
            assert abs(swept.p_total - fresh.p_total) <= 1e-13
        assert list(d.stage_cache) == ["metric_sandwich"]

    def test_dilation_and_cached_stages_are_read_only(self):
        cfg = make_cfg(scheme="metric_sandwich")
        run_simulation(cfg)
        d = cfg.dilation
        stages = scheme_stages(d, cfg.scheme)
        prep, extr = stages._completed
        for a in (d.H, d.eta, d.tau, d.H1, d.H2, d.H4, d.Hhat, stages.rho, stages.rho_prime,
                  prep.U, prep.P_N, extr.U, extr.P_N):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_completions_are_formed_on_first_read(self, monkeypatch):
        # the stages keep the contractions; the first run dilates both as one
        # stack of two, and later runs on the same stages reuse them
        rng = np.random.default_rng(63)
        sys_ = random_unbroken(rng, 8)
        cfg = SimulationConfig(sys=sys_, dilation=build_dilation(sys_), t=1.1,
                               psi=rng.normal(size=8) + 0j, scheme="metric_sandwich")
        shapes = _count_completions(monkeypatch)
        st = scheme_stages(cfg.dilation, cfg.scheme)
        assert shapes == []
        run_simulation(cfg)
        assert shapes == [(2, 8, 8)]
        run_simulation(dataclasses.replace(cfg, t=0.4))
        assert shapes == [(2, 8, 8)] and scheme_stages(cfg.dilation, cfg.scheme) is st

    def test_build_dilation_leaves_inputs_writable(self):
        sys = gunther_system(np.pi / 6)
        eta = gunther_eta(np.pi / 6)
        build_dilation(sys, eta=eta)
        sys.H[0, 0] += 0.0
        eta[0, 0] += 0.0

    @staticmethod
    def count_linalg(monkeypatch, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_factorizations_per_dilation(self, monkeypatch):
        # one SVD Psi = X S Y^dag of the unit-column eigenframe gives the
        # canonical eta, the Y_tau frame Q1, R and the eigenpairs of R H R^{-1},
        # Hhat's block on Y_tau, so no QR, eigh or solve; the stages' Kraus
        # factors come from the completions' contractions, so no SVD forms
        # their unitaries
        sys = random_unbroken(np.random.default_rng(56), 8)
        counts = self.count_linalg(monkeypatch, "eigh", "eigvalsh", "qr", "solve", "svd")
        scheme_stages(build_dilation(sys), "metric_sandwich")
        assert counts == {"eigh": 0, "eigvalsh": 0, "qr": 0, "solve": 0, "svd": 1}

    def test_t_sweep_adds_no_eigh(self, monkeypatch):
        # every t evolves on the dilation's kept eigenpairs of Hhat on Y_tau,
        # which a canonical build reads off the eigenframe's SVD
        rng = np.random.default_rng(58)
        sys = random_unbroken(rng, 8)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        counts = self.count_linalg(monkeypatch, "eigh")
        d = build_dilation(sys)
        scheme_stages(d, "metric_sandwich")
        for t in np.linspace(0.5, 2.0, 5):
            run_simulation(SimulationConfig(sys=sys, dilation=d, t=t, psi=psi,
                                            scheme="metric_sandwich"))
        assert counts == {"eigh": 0}

    def test_supplied_eta_is_factored_once(self, monkeypatch):
        # one eigh of eta - I tests lambda_min > 1 and gives tau; the other is
        # R H R^{-1}'s. The Hermitian and intertwining checks factor nothing.
        sys8 = random_unbroken(np.random.default_rng(60), 8)
        cases = [(gunther_system(np.pi / 6), gunther_eta(np.pi / 6)), (sys8, build_dilation(sys8).eta)]
        for system, eta in cases:
            counts = self.count_linalg(monkeypatch, "eigh", "eigvalsh")
            build_dilation(system, eta=eta)
            assert counts == {"eigh": 2, "eigvalsh": 0}

    def test_supplied_eta_factorizations_at_n2(self, monkeypatch):
        # the worked example's build: the eigh of eta - I and of R H R^{-1}
        # and the reduced QR of [I; tau] = Q1 R, whose top block of Q1 is
        # R^{-1}, so nothing is solved; no eig of H until its eigenframe is
        # read, and tau is not inverted
        counts = self.count_linalg(monkeypatch, "eig", "eigh", "inv", "solve", "qr", "svd")
        build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6), h1_choice="paper")
        assert counts == {"eig": 0, "eigh": 2, "inv": 0, "solve": 0, "qr": 1, "svd": 0}

    @pytest.mark.parametrize("m", [6, 7])
    def test_supplied_eta_factorizations_at_large_n(self, m, monkeypatch):
        # n = 64 and 128: the factorizations of n = 2, no eig of H; lambda_max(eta)
        # is 2.4e4 and 1.3e5, above 64, so R H R^{-1} is solved against R
        sys_, eta, _, _ = gunther_tensor(np.random.default_rng(900 + m), m)
        counts = self.count_linalg(monkeypatch, "eig", "eigh", "qr", "solve")
        build_dilation(sys_, eta=eta)
        assert counts == {"eig": 0, "eigh": 2, "qr": 1, "solve": 1}

    def test_simulation_forms_nothing_else_of_hhat(self, monkeypatch):
        # a build and a run read only Hhat's factor on Y_tau: no tau^{-1}, no
        # assembly of Hhat and no eigh, of either block; the one inv is
        # Psi^{-1}, for the target
        rng = np.random.default_rng(61)
        sys_ = random_unbroken(rng, 8)
        sizes = _count_hhat_blocks(monkeypatch)
        inverted, eigh_calls = [], []
        inv, eigh = np.linalg.inv, np.linalg.eigh
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: eigh_calls.append(a.shape) or eigh(a, *args))
        d = build_dilation(sys_)
        run_simulation(SimulationConfig(sys=sys_, dilation=d, t=1.1, psi=rng.normal(size=8) + 0j,
                                        scheme="metric_sandwich"))
        assert sizes == [] and eigh_calls == []
        assert len(inverted) == 1 and inverted[0] is d.classification.eigenframe
        assert not {"_blocks", "hhat_eigh"} & set(vars(d))

    def test_first_reads_form_hhat_once(self, monkeypatch):
        d = build_dilation(random_unbroken(np.random.default_rng(62), 8), h1_choice="paper")
        sizes = _count_hhat_blocks(monkeypatch)
        counts = self.count_linalg(monkeypatch, "eigh", "inv")
        hhat = d.Hhat
        assert [a.shape for a in (d.H1, d.H2, d.H4, d.Hhat)] == [(8, 8)] * 3 + [(16, 16)]
        assert d.Hhat is hhat and sizes == [()] and counts == {"eigh": 0, "inv": 1}
        w, v = d.hhat_eigh
        assert d.hhat_eigh[1] is v and sizes == [()] and counts == {"eigh": 1, "inv": 1}
        for a in (d.H1, d.H2, d.H4, hhat, w, v):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0

    def test_gunther_system_shares_one_validated_pair(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "validate_pt_pair", lambda *args: calls.append(args))
        a, b = gunther_system(0.3), gunther_system(1.0, s=2.0)
        assert calls == []
        assert a.pt is b.pt
        for m in (a.pt.P, a.pt.T, a.pt.PT):
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
        assert np.array_equal(a.pt.P, linalg.SIGMA_X) and linalg.SIGMA_X.flags.writeable

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_metric_sandwich_factors_match_psd_power(self, n):
        d = build_dilation(random_unbroken(np.random.default_rng(57), n))
        st = scheme_stages(d, "metric_sandwich")
        assert np.linalg.norm(st.rho - psd_power(d.eta, -0.5)) <= 1e-12
        assert np.linalg.norm(st.rho_prime - psd_power(d.eta, 0.5)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    def test_run_completes_as_the_public_builders(self, n, scheme):
        # the stack that run forms is the two builders' completions, bit for bit
        for seed in (60, 61, 62):
            d = build_dilation(random_unbroken(np.random.default_rng(seed), n))
            st = scheme_stages(d, scheme)
            for got, expected in zip(st._completed, _stage_completions(d, st)):
                assert np.array_equal(got.U, expected.U)
                assert np.array_equal(got.P_N, expected.P_N)
                assert got.scale == expected.scale

    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    def test_coordinate_frame_is_never_formed(self, n):
        # the completions skip the identity frame, bit for bit
        d = build_dilation(random_unbroken(np.random.default_rng(59), n))
        st = scheme_stages(d, "metric_sandwich")
        eye = np.eye(2 * n, dtype=complex)
        (prep,) = _completions([(d.ytau_r @ st.rho, (eye, d.ytau_q), "")], "")
        (extr,) = _completions([(st.rho_prime @ d.ytau_frame[:n, :], (d.ytau_q, eye), "")], "")
        for got, expected in zip(_stage_completions(d, st), (prep, extr)):
            assert np.array_equal(got.U, expected.U)
            assert np.array_equal(got.P_N, expected.P_N)
            assert got.scale == expected.scale

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_stage_completions_realize_their_maps(self, n):
        # P_N U M = scale N A for each completion, with U unitary
        d = build_dilation(random_unbroken(np.random.default_rng(58), n))
        st = scheme_stages(d, "metric_sandwich")
        x1 = np.eye(2 * n, n)
        ytau = d.ytau_frame
        prep, extr = _stage_completions(d, st)
        maps = (
            (prep, x1, np.vstack([st.rho, d.tau @ st.rho])),
            (extr, ytau, np.vstack([st.rho_prime @ ytau[:n], np.zeros((n, n))])),
        )
        for comp, m, image in maps:
            assert np.linalg.norm(comp.U.conj().T @ comp.U - np.eye(2 * n)) <= 1e-12
            assert np.linalg.norm(comp.P_N @ comp.U @ m - comp.scale * image) <= 1e-12

    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    def test_traces_match_frozen_values(self, scheme, n):
        # recorded with the earlier construction, which re-derived every frame
        # of both completions by QR; the frames now come from the dilation
        frozen = FROZEN_TRACES[f"{scheme}-{n}"]
        rng = np.random.default_rng(600 + n)
        sys = random_unbroken(rng, n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        trace = run_simulation(SimulationConfig(sys=sys, dilation=build_dilation(sys), t=1.3,
                                                psi=psi, scheme=scheme))
        for name in ("xi2", "xi5"):
            expected = np.array(frozen[name]) @ [1.0, 1j]
            assert getattr(trace, name) == pytest.approx(expected, rel=0, abs=1e-13), name
        assert trace.p_total == pytest.approx(frozen["p_total"], rel=0, abs=1e-13)

    def test_n64_accuracy(self):
        rng = np.random.default_rng(54)
        sys = random_unbroken(rng, 64)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        cfg = SimulationConfig(sys=sys, dilation=build_dilation(sys), t=1.3, psi=psi,
                               scheme="metric_sandwich")
        assert run_simulation(cfg).final_formula_check <= 1e-11


def _assert_propagates(d, h, t, x, rng):
    """d.propagate(t, .) is expm(-itH) @ . within 1e-12 relative on the state
    x and on an (n, n) and an (n, 3) block, each column of which it evolves."""
    n = len(x)
    for y in (x, *(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)) for m in (n, 3))):
        expected = scipy.linalg.expm(-1j * t * h) @ y
        got = d.propagate(t, y)
        assert got.shape == y.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestTarget:
    """rho' e^{-itH} rho psi from H's eigenframe, kept on the dilation."""

    @pytest.mark.parametrize("c, kappa", [(1e3, (1e3, 1e4)), (1e8, (1e8, 1e12))])
    def test_one_route_at_every_frame_condition(self, monkeypatch, c, kappa):
        # the eigenframe route alone, also past kappa = 1e8, where it is
        # within 1e-12 of scipy's expm on this triangular family
        sys_ = _upper_triangular_system(c)
        d = build_dilation(sys_)
        assert kappa[0] < d.classification.condition_estimate <= kappa[1]
        counts = _count_matrix_exp(monkeypatch)
        x = np.array([0.3, 0.7j])
        for t in (0.4, 1.3):
            _assert_propagates(d, sys_.H, t, x, np.random.default_rng(63))
            run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=x))
        assert counts["matrix_exp"] == 0

    @pytest.mark.parametrize("seed, n", [(0, 3), (2, 4), (1, 5), (3, 6), (4, 4), (0, 6)])
    def test_ill_conditioned_frame_against_a_50_digit_expm(self, monkeypatch, seed, n):
        # past kappa = 1e8 the eigenframe route stays within its forward error
        # bound kappa(Psi) eps max(1, t ||H||_F); scaling and squaring on
        # these non-normal H of large norm loses every digit there
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(700 + seed)
        sys_ = _similar_to_diagonal(rng, n, 3e8)
        d = build_dilation(sys_)
        kappa = d.classification.condition_estimate
        assert 1e8 < kappa <= 1.5e9
        t, x = 0.9, rng.normal(size=n) + 1j * rng.normal(size=n)
        with mpmath.workdps(50):
            y = mpmath.expm(mpmath.matrix((-1j * t * sys_.H).tolist())) * mpmath.matrix(x.tolist())
            expected = np.array([complex(y[i]) for i in range(n)])
        bound = kappa * np.finfo(float).eps * max(1.0, t * np.linalg.norm(sys_.H))
        assert np.linalg.norm(d.propagate(t, x) - expected) <= bound * np.linalg.norm(expected)
        counts = _count_matrix_exp(monkeypatch)
        trace = run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=x))
        assert np.isfinite(trace.probability_check)
        assert counts["matrix_exp"] == 0

    def test_well_conditioned_runs_exponentiate_nothing(self, monkeypatch):
        rng = np.random.default_rng(61)
        sys_ = random_unbroken(rng, 16)
        d = build_dilation(sys_)
        counts = _count_matrix_exp(monkeypatch)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        for t in (0.5, 1.7):
            run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=x, scheme="metric_sandwich"))
            _assert_propagates(d, sys_.H, t, x, rng)
        assert counts["matrix_exp"] == 0

    def test_state_keeps_the_vector_formula(self):
        # the block form leaves a state's bits as they were, so the frozen
        # traces stay binding at 1e-13
        _, d, psi = _instrument_case(8)
        c = d.classification
        for t in (0.0, 0.5, 1.3):
            vector = c.eigenframe @ (np.exp(-1j * t * c.spectrum) * (d.eigenframe_inverse @ psi))
            assert np.array_equal(d.propagate(t, psi), vector)

    def test_eigenframe_inverse_is_formed_once_and_read_only(self, monkeypatch):
        rng = np.random.default_rng(62)
        sys_ = random_unbroken(rng, 8)
        d = build_dilation(sys_)
        scheme_stages(d, "metric_sandwich")
        assert "eigenframe_inverse" not in vars(d)  # the stages never need it
        counts = TestReuse.count_linalg(monkeypatch, "inv")
        for t in (0.5, 1.0, 1.5):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme="metric_sandwich"))
        assert counts == {"inv": 1}
        c = d.classification
        for a in (d.eigenframe_inverse, c.eigenframe, c.spectrum):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert np.linalg.norm(d.eigenframe_inverse @ c.eigenframe - np.eye(8)) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    def test_final_formula_check_at_large_n(self, n, scheme):
        rng = np.random.default_rng(800 + n)
        sys_ = random_unbroken(rng, n)
        d = build_dilation(sys_)
        for t in (0.5, 1.3):
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            trace = run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme=scheme))
            assert trace.final_formula_check <= 1e-11


class TestStageSequence:
    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    @pytest.mark.parametrize("alpha", [np.pi / 6, 1.0])
    def test_block_run_matches_kron_lifted_sequence(self, scheme, alpha):
        d = build_dilation(gunther_system(alpha), eta=gunther_eta(alpha), h1_choice="paper")
        st = scheme_stages(d, scheme)
        rng = np.random.default_rng(55)
        block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))  # (Alice, Bob)
        block /= np.linalg.norm(block)
        t = 0.8
        xi1, xi2, xi3, xi4, p_prepare, p_post = st.run(block, t)

        # the same stages on the ravelled (ancilla, Alice, Bob) state, every
        # Alice-side operator lifted as kron(op, I_Bob)
        def lift(op):
            return np.kron(op, np.eye(2))

        x1 = np.concatenate([block.ravel(), np.zeros(4)])
        prep, extr = _stage_completions(d, st)
        x2, q_prepare = post_select(lift(prep.U) @ x1, lift(prep.P_N))
        x3 = lift(matrix_exp(-1j * t * d.Hhat)) @ x2
        x4a, q1 = post_select(lift(extr.U) @ x3, lift(extr.P_N))
        p0 = np.zeros((8, 8))
        p0[:4, :4] = np.eye(4)
        x4, q2 = post_select(x4a, p0)

        for a, b in ((xi1, x1), (xi2, x2), (xi3, x3), (xi4, x4)):
            assert a.shape == (4, 2)
            assert np.linalg.norm(a.ravel() - b) <= 1e-13
        assert abs(p_prepare - q_prepare) <= 1e-13
        assert abs(p_post - q1 * q2) <= 1e-13

    def test_psi_of_the_wrong_length(self):
        st = scheme_stages(build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6)),
                           "identity")
        for psi in (np.ones(3) / np.sqrt(3), np.ones((3, 2)) / np.sqrt(6), np.array(1.0)):
            with pytest.raises(errors.DimensionMismatchError):
                st.run(psi, 1.0)

    @pytest.mark.parametrize("shapes", [((3, 3), (2, 2)), ((2, 2), (2, 3))])
    def test_custom_factors_of_the_wrong_shape(self, shapes):
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        rho, rho_prime = (np.eye(*shape) for shape in shapes)
        with pytest.raises(errors.DimensionMismatchError):
            scheme_stages(d, "custom", rho=rho, rho_prime=rho_prime)

    def test_vanished_branch_raises(self):
        # rho kills psi, so the preparation branch has probability 0
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        st = scheme_stages(d, "custom", rho=np.diag([0.0, 1.0]), rho_prime=np.eye(2))
        with pytest.raises(errors.ZeroFinalStateError):
            st.run(np.array([1.0, 0.0], dtype=complex), 1.0)


@functools.cache
def _instrument_case(n):
    """An unbroken system of order n, its canonical dilation and a unit state."""
    rng = np.random.default_rng(700 + n)
    sys_ = random_unbroken(rng, n)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return sys_, build_dilation(sys_), psi / np.linalg.norm(psi)


class TestInstrument:
    """A successful run is the Kraus operator K(t) of one quantum instrument."""

    NS = [2, 4, 8, 16, 64]
    CLOSED_FORM_NS = [2, 8, 16, 64, 128]
    TS = [0.0, 0.5, 1.0, 2.0]
    SCHEMES = ["identity", "metric_sandwich"]

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_completeness(self, n, scheme):
        # K^dag K plus the failed preparation and the failed extraction is I
        _, d, _ = _instrument_case(n)
        st = scheme_stages(d, scheme)
        prep, extr = _stage_completions(d, st)
        prepared = prep.P_N @ prep.U[:, :n]
        k_f1 = prep.U[:, :n] - prepared
        for t in self.TS:
            k = st.kraus(t)
            k_f2 = (extr.U @ eigen_evolve(*d.hhat_eigh, t, prepared))[n:]
            total = k.conj().T @ k + k_f1.conj().T @ k_f1 + k_f2.conj().T @ k_f2
            assert np.linalg.norm(total - np.eye(n)) <= 1e-12, t

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_contraction(self, n, scheme):
        # ||K(t)||_2 <= 1, and 1/n exactly under metric_sandwich, whose two
        # actions are isometries scaled by 1/||.||_F = 1/sqrt(n)
        st = scheme_stages(_instrument_case(n)[1], scheme)
        for t in self.TS:
            norm = np.linalg.norm(st.kraus(t), 2)
            assert norm <= 1.0 + 1e-12
            if scheme == "metric_sandwich":
                assert abs(norm - 1.0 / n) <= 1e-12

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kraus_matches_stage_run(self, n, scheme):
        _, d, psi = _instrument_case(n)
        st = scheme_stages(d, scheme)
        block = np.outer(psi, [0.6, 0.8j])  # a unit (n, 2) block with a spectator factor
        for t in self.TS:
            for state in (psi, block):
                *_, xi4, p_prepare, p_post = st.run(state, t)
                expected = np.sqrt(p_prepare * p_post) * xi4[:n]
                assert np.linalg.norm(st.kraus(t) @ state - expected) <= 1e-12

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_probability_check(self, n, scheme):
        sys_, d, psi = _instrument_case(n)
        for t in self.TS:
            trace = run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme=scheme))
            assert trace.probability_check <= 1e-12, t

    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kraus_is_the_closed_form(self, n, scheme):
        # K(t) = c rho' e^{-itH} rho with c = prep.scale * extr.scale,
        # within 8 sqrt(n) kappa(eta) eps relative, kappa(eta) from eta - I's
        # kept eigenvalues (measured: at most 4.8 at n = 2, 0.8 for n >= 16)
        _, d, _ = _instrument_case(n)
        st = scheme_stages(d, scheme)
        prep, extr = _stage_completions(d, st)
        c = prep.scale * extr.scale
        w = d.eta_minus_i_w
        bound = 8.0 * np.sqrt(n) * (1.0 + w.max()) / (1.0 + w.min()) * np.finfo(float).eps
        for t in self.TS:
            expected = c * st.rho_prime @ scipy.linalg.expm(-1j * t * d.H) @ st.rho
            assert np.linalg.norm(st.kraus(t) - expected) <= bound * np.linalg.norm(expected), t

    @pytest.mark.parametrize("n", [2, 8, 16, 64])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stage_run_on_the_kraus_factors(self, n, scheme):
        # the contract of a run on the n x n factors alone: with c = R psi and
        # top = L (e^{-itw_Y} c) / ||c||, the dense stage sequence has
        # p_prepare = ||c||^2, xi2 = Q1 V_Y c / ||c||, xi3 = Q1 V_Y e^{-itw_Y} c / ||c||,
        # p_post = ||top||^2 and xi4 = (top / ||top||; 0), each within
        # 8 sqrt(n) kappa(eta) eps, relative for the probabilities
        # (measured: at most 2.4 at n = 2, 0.43 for n >= 8)
        _, d, psi = _instrument_case(n)
        st = scheme_stages(d, scheme)
        w_y, q1v_y = st.ytau_eigh
        w = d.eta_minus_i_w
        bound = 8.0 * np.sqrt(n) * (1.0 + w.max()) / (1.0 + w.min()) * np.finfo(float).eps
        c = st.kraus_right @ psi
        c_norm = np.linalg.norm(c)
        for t in (0.0, 0.7, 2.0):
            _, xi2, xi3, xi4, p_prepare, p_post = st.run(psi, t)
            evolved = np.exp(-1j * t * w_y) * c
            top = st.kraus_left @ evolved / c_norm
            top_norm = np.linalg.norm(top)
            assert abs(p_prepare - c_norm**2) <= bound * c_norm**2, t
            assert abs(p_post - top_norm**2) <= bound * top_norm**2, t
            for got, expected in ((xi2, q1v_y @ c / c_norm), (xi3, q1v_y @ evolved / c_norm),
                                  (xi4, np.concatenate([top / top_norm, np.zeros(n)]))):
                assert np.linalg.norm(got - expected) <= bound, t

    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    def test_metric_sandwich_succeeds_with_one_over_n_squared(self, n):
        # R eta^{-1/2} and eta^{1/2} R^{-1} are unitary, so c = 1/n; and
        # eta^{1/2} e^{-itH} eta^{-1/2} is unitary, so p_total = 1/n^2 for every psi
        sys_, d, _ = _instrument_case(n)
        st = scheme_stages(d, "metric_sandwich")
        prep, extr = _stage_completions(d, st)
        assert abs(prep.scale * extr.scale * n - 1.0) <= 1e-12
        rng = np.random.default_rng(720 + n)
        for t in self.TS:
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            trace = run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme="metric_sandwich"))
            assert abs(trace.p_total * n**2 - 1.0) <= 1e-12, t

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_factors_live_on_ytau(self, n, scheme):
        # the n x n factors on Y_tau give the K(t) of the 2n x n factors
        # L = U_extr[:n, :] V, R = V^dag Q1 Q1^dag U_prep[:, :n] of a dense
        # eigh of the whole Hhat
        _, d, _ = _instrument_case(n)
        st = scheme_stages(d, scheme)
        assert st.kraus_left.shape == st.kraus_right.shape == (n, n)
        w, v = np.linalg.eigh(d.Hhat)
        q1 = d.ytau_frame
        prep, extr = _stage_completions(d, st)
        left = extr.U[:n, :] @ v
        right = v.conj().T @ (q1 @ (q1.conj().T @ prep.U[:, :n]))
        for t in self.TS:
            assert np.linalg.norm(st.kraus(t) - (left * np.exp(-1j * t * w)) @ right) <= 1e-13, t

    @pytest.mark.parametrize("case", ["n2", "n8", "paper"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kraus_does_not_read_h1(self, case, scheme):
        # the Y_tau factor R H R^{-1} holds for every H1, so K(t) is the same
        # bits under each choice, while Hhat off Y_tau is not
        if case == "paper":
            sys_, eta = gunther_system(np.pi / 6), gunther_eta(np.pi / 6)
        else:
            sys_ = random_unbroken(np.random.default_rng(710), int(case[1:]))
            eta = build_dilation(sys_).eta
        n = sys_.H.shape[0]
        g = np.random.default_rng(711).normal(size=(n, n)) + 1j * np.random.default_rng(712).normal(size=(n, n))
        ds = [build_dilation(sys_, eta=eta, h1_choice="zero"), build_dilation(sys_, eta=eta, h1_choice="paper"),
              build_dilation(sys_, eta=eta, h1_choice="supplied", h1=g + g.conj().T)]
        for t in self.TS:
            kraus = [scheme_stages(d, scheme).kraus(t) for d in ds]
            assert all(np.array_equal(k, kraus[0]) for k in kraus[1:]), t
        assert all(np.linalg.norm(d.Hhat - ds[0].Hhat) > 1e-3 for d in ds[1:])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kraus_of_a_t_array_is_the_stack_of_each_t(self, scheme):
        # a 1-D t gives (..., T, n, n), the t axis after a stacked build's own;
        # each K(t) has the bits of the scalar call on the same stages
        systems = [gunther_system(a) for a in (0.2, 0.7, 1.4)] + [random_unbroken(np.random.default_rng(720), 2)]
        single, stacked = build_dilation(systems[-1]), build_dilation(systems)
        for d, shape in ((single, (len(self.TS), 2, 2)), (stacked, (len(systems), len(self.TS), 2, 2))):
            st = scheme_stages(d, scheme)
            ks = st.kraus(np.array(self.TS))
            assert ks.shape == shape
            for j, t in enumerate(self.TS):
                assert np.array_equal(ks[..., j, :, :], st.kraus(t)), t
                assert st.kraus(t).shape == shape[:-3] + (2, 2)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stages_of_a_stacked_build_are_each_members(self, scheme):
        # one stage build on the stack: member i's factors are those of its own build, bit for bit
        alphas = np.linspace(0.0, 1.4, 15)
        stacked = scheme_stages(build_dilation([gunther_system(a) for a in alphas], eta=[gunther_eta(a) for a in alphas],
                                               h1_choice="paper"), scheme)
        for i, a in enumerate(alphas):
            st = scheme_stages(build_dilation(gunther_system(a), eta=gunther_eta(a), h1_choice="paper"), scheme)
            for name in ("rho", "rho_prime", "kraus_left", "kraus_right"):
                x = getattr(stacked, name)
                assert np.array_equal(x if x.ndim == 2 else x[i], getattr(st, name)), (a, name)

    def test_kraus_factors_are_read_only(self):
        st = scheme_stages(_instrument_case(4)[1], "identity")
        for a in (st.kraus_left, st.kraus_right):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_kraus_refuses_a_non_finite_t(self, t):
        st = scheme_stages(_instrument_case(4)[1], "identity")
        with pytest.raises(errors.ParseError, match="^SchemeStages.kraus: t must be finite$") as exc:
            st.kraus(t)
        assert exc.value.exit_code == 2

    def test_non_orthonormal_frame_is_refused_at_stage_build(self):
        # Q1 Q1^dag is a projection only for orthonormal Q1; the Kraus route
        # relies on the check made here, once
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        bad = dataclasses.replace(d, ytau_q=1.001 * d.ytau_q)
        with pytest.raises(errors.NotProjectionError):
            scheme_stages(bad, "identity")


class TestGuntherTensor:
    """Tensor sums of the worked family: an exact truth at every n = 2^m.

    Bounds are multiples of kappa(Psi) eps, the conditioning of H's
    eigenframe, which grows with m."""

    C = 100.0
    EPS = np.finfo(float).eps

    def test_generator_closed_forms(self):
        # the closed forms against dense expm and eigh-based powers
        sys_, eta, propagator, _ = gunther_tensor(np.random.default_rng(899), 3)
        assert np.linalg.norm(eta @ sys_.H - sys_.H.conj().T @ eta) <= 1e-12 * np.linalg.norm(eta)
        assert np.linalg.eigvalsh(eta)[0] > 1.0
        for t in (0.7, 1.9):
            u = scipy.linalg.expm(-1j * t * sys_.H)
            assert np.linalg.norm(propagator(t) - u) <= 1e-12
            sandwich = psd_power(eta, 0.5) @ u @ psd_power(eta, -0.5)
            assert np.linalg.norm(propagator(t, 0.5) - sandwich) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 8))
    def test_xi5_matches_the_closed_form(self, m):
        rng = np.random.default_rng(900 + m)
        sys_, eta, propagator, spectrum = gunther_tensor(rng, m)
        d = build_dilation(sys_, eta=eta)
        bound = self.C * d.classification.condition_estimate * self.EPS
        lam = np.sort(d.classification.spectrum.real)
        assert np.abs(lam - np.sort(spectrum)).max() <= bound * np.linalg.norm(sys_.H, 2)
        psi = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        # identity evolves by e^{-itH}; metric_sandwich by eta^{1/2} e^{-itH} eta^{-1/2}
        for scheme, p in (("identity", 0.0), ("metric_sandwich", 0.5)):
            for t in (0.7, 1.9):
                trace = run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme=scheme))
                target = propagator(t, p) @ psi
                assert np.linalg.norm(trace.xi5 - target / np.linalg.norm(target)) <= bound, (scheme, t)


class TestSampling:
    def test_deterministic_given_seed(self):
        trace = run_simulation(make_cfg())
        a = sample_successes(trace, 10000, seed=7)
        b = sample_successes(trace, 10000, seed=7)
        assert a == b
        assert a["samples"] == 10000
        assert 0 <= a["successes"] <= 10000

    def test_negative_samples_is_parse_error(self):
        with pytest.raises(errors.ParseError):
            sample_successes(run_simulation(make_cfg()), -5, seed=0)

    @pytest.mark.parametrize("samples, seed", [(2.5, 0), (10, -1), (10, 1.5), (True, 0)])
    def test_non_integer_or_negative_count_is_parse_error(self, samples, seed):
        with pytest.raises(errors.ParseError):
            sample_successes(run_simulation(make_cfg()), samples, seed=seed)

    def test_numpy_integers_are_accepted(self):
        out = sample_successes(run_simulation(make_cfg()), np.int64(10), seed=np.int64(3))
        assert out == sample_successes(run_simulation(make_cfg()), 10, seed=3)

    def test_rate_tracks_probability(self):
        trace = run_simulation(make_cfg())
        out = sample_successes(trace, 200000, seed=11)
        rate = out["successes"] / out["samples"]
        assert abs(rate - trace.p_total) <= 5e-3

    def test_a_certain_success_is_drawn_every_time(self):
        # rho = u u^dag, rho' = w (eta u)^dag and psi = u succeed with probability 1 at t = 0,
        # and p_total rounds above 1 on some of these systems
        rng = np.random.default_rng(0)
        p_totals = []
        for n in (2, 3, 4) * 4:
            sys_ = random_unbroken(rng, n)
            d = build_dilation(sys_)
            u, w = (v / np.linalg.norm(v) for v in rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)))
            trace = run_simulation(SimulationConfig(
                sys=sys_, dilation=d, t=0.0, psi=u, scheme="custom", rho=np.outer(u, u.conj()),
                rho_prime=np.outer(w, (d.eta @ u).conj())))
            out = sample_successes(trace, 10, seed=0)
            assert out == {"samples": 10, "successes": 10, "p_total": trace.p_total}
            p_totals.append(trace.p_total)
        assert max(p_totals) > 1.0

    def test_p_total_beyond_rounding_above_one_is_numerical_failure(self):
        trace = run_simulation(make_cfg())
        assert sample_successes(dataclasses.replace(trace, p_total=1 + 1e-9), 10, seed=0)["successes"] == 10
        for p in (1 + 1e-7, 1.5, float("nan")):
            with pytest.raises(errors.NumericalFailureError, match="^sample_successes: p_total"):
                sample_successes(dataclasses.replace(trace, p_total=p), 10, seed=0)


class TestExtractionStage:
    def test_extraction_action_matches_rho_prime(self):
        alpha = np.pi / 6
        d = build_dilation(gunther_system(alpha), eta=gunther_eta(alpha))
        rho_p = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
        extr = extraction_completion(d, rho_p)
        psi = np.array([0.3, -0.4j], dtype=complex)
        x = np.concatenate([psi, d.tau @ psi])
        out = extr.P_N @ extr.U @ x
        expected = extr.scale * np.concatenate([rho_p @ psi, np.zeros(2)])
        assert out == pytest.approx(expected, abs=1e-10)
