import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ptsim import (
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
)
from ptsim import cli, linalg, pipeline
from ptsim.completion import frame_completion, post_select
from ptsim.linalg import eigen_evolve, psd_power
from ptsim.metric import scalar_sum_obstruction_demo
from ptsim.pipeline import extraction_completion, preparation_completion, scheme_stages

from corpus import random_unbroken, unbroken_corpus
from oracle import expm_taylor

FROZEN_TRACES = json.loads(
    (Path(__file__).parent / "data" / "simulation_traces.json").read_text())


def make_cfg(alpha=np.pi / 6, t=1.0, scheme="identity", psi=None, **kw):
    sys = gunther_system(alpha)
    d = build_dilation(sys, eta=gunther_eta(alpha), h1_choice="paper")
    if psi is None:
        psi = np.array([1.0, 0.0], dtype=complex)
    return SimulationConfig(sys=sys, dilation=d, t=t, psi=psi, scheme=scheme, **kw)


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


class TestPaperChecks:
    def test_closed_forms_only(self, monkeypatch, tmp_path):
        # the worked examples factor each H once (classify) and exponentiate
        # nothing; the obstruction demo inverts no matrix
        calls = {"matrix_exp": 0}

        def counted(*args, _fn=linalg.matrix_exp, **kwargs):
            calls["matrix_exp"] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "ptsim" and hasattr(mod, "matrix_exp"):
                monkeypatch.setattr(mod, "matrix_exp", counted)
        counts = TestReuse.count_linalg(monkeypatch, "eig", "inv")
        assert cli.main(["paper", "--json", str(tmp_path / "paper.json")]) == 0
        assert calls["matrix_exp"] == 0
        assert counts["eig"] == 12
        counts["inv"] = 0
        scalar_sum_obstruction_demo()
        assert counts["inv"] == 0


class TestRunSimulation:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_is_parse_error(self, t):
        with pytest.raises(errors.ParseError):
            run_simulation(make_cfg(t=t))

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

    def test_custom_requires_both_factors(self):
        cfg = make_cfg(scheme="custom", rho=np.eye(2))
        with pytest.raises(errors.ParseError):
            run_simulation(cfg)


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
        stages = cfg.stages()
        d = cfg.dilation
        for a in (d.H, d.eta, d.tau, d.H1, d.H2, d.H4, d.Hhat, stages.rho, stages.rho_prime,
                  stages.preparation.U, stages.extraction.P_N):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

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
        # one eigh of Hhat, one complete QR of [I; tau], and one SVD each of
        # the unit-column eigenframe (the canonical eta and its factors) and
        # of each completion's contraction
        sys = random_unbroken(np.random.default_rng(56), 8)
        counts = self.count_linalg(monkeypatch, "eigh", "eigvalsh", "qr", "svd")
        scheme_stages(build_dilation(sys), "metric_sandwich")
        assert counts == {"eigh": 1, "eigvalsh": 0, "qr": 1, "svd": 3}

    def test_t_sweep_adds_no_eigh(self, monkeypatch):
        # every t evolves on the dilation's kept eigh of Hhat
        rng = np.random.default_rng(58)
        sys = random_unbroken(rng, 8)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        counts = self.count_linalg(monkeypatch, "eigh")
        d = build_dilation(sys)
        scheme_stages(d, "metric_sandwich")
        for t in np.linspace(0.5, 2.0, 5):
            run_simulation(SimulationConfig(sys=sys, dilation=d, t=t, psi=psi,
                                            scheme="metric_sandwich"))
        assert counts == {"eigh": 1}

    def test_supplied_eta_is_factored_once(self, monkeypatch):
        # one eigh of eta - I tests lambda_min > 1 and gives tau; the other is
        # Hhat's. The Hermitian and intertwining checks factor nothing.
        sys8 = random_unbroken(np.random.default_rng(60), 8)
        cases = [(gunther_system(np.pi / 6), gunther_eta(np.pi / 6)), (sys8, build_dilation(sys8).eta)]
        for system, eta in cases:
            counts = self.count_linalg(monkeypatch, "eigh", "eigvalsh")
            build_dilation(system, eta=eta)
            assert counts == {"eigh": 2, "eigvalsh": 0}

    def test_supplied_eta_factorizations_at_n2(self, monkeypatch):
        # the worked example's build: classify's eig, the eigh of eta - I and
        # of Hhat, tau's inverse and the complete QR of [I; tau]
        counts = self.count_linalg(monkeypatch, "eig", "eigh", "inv", "qr", "svd")
        build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6), h1_choice="paper")
        assert counts == {"eig": 1, "eigh": 2, "inv": 1, "qr": 1, "svd": 0}

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

    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    def test_coordinate_frame_is_never_formed(self, n):
        # the completions skip the identity frame, bit for bit
        d = build_dilation(random_unbroken(np.random.default_rng(59), n))
        st = scheme_stages(d, "metric_sandwich")
        eye = np.eye(2 * n, dtype=complex)
        prep = frame_completion(eye, d.ytau_q, d.ytau_frame.conj().T @ np.vstack([st.rho, d.tau @ st.rho]))
        extr = frame_completion(d.ytau_q, eye, st.rho_prime @ d.ytau_frame[:n, :])
        for got, expected in ((st.preparation, prep), (st.extraction, extr)):
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
        maps = (
            (st.preparation, x1, np.vstack([st.rho, d.tau @ st.rho])),
            (st.extraction, ytau, np.vstack([st.rho_prime @ ytau[:n], np.zeros((n, n))])),
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
        x2, q_prepare = post_select(lift(st.preparation.U) @ x1, lift(st.preparation.P_N))
        x3 = lift(matrix_exp(-1j * t * d.Hhat)) @ x2
        x4a, q1 = post_select(lift(st.extraction.U) @ x3, lift(st.extraction.P_N))
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
    TS = [0.0, 0.5, 1.0, 2.0]
    SCHEMES = ["identity", "metric_sandwich"]

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_completeness(self, n, scheme):
        # K^dag K plus the failed preparation and the failed extraction is I
        _, d, _ = _instrument_case(n)
        st = scheme_stages(d, scheme)
        prep, extr = st.preparation, st.extraction
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
    def test_kraus_apply_matches_stage_run(self, n, scheme):
        _, d, psi = _instrument_case(n)
        st = scheme_stages(d, scheme)
        block = np.outer(psi, [0.6, 0.8j])  # a unit (n, 2) block with a spectator factor
        for t in self.TS:
            for state in (psi, block):
                *_, xi4, p_prepare, p_post = st.run(state, t)
                expected = np.sqrt(p_prepare * p_post) * xi4[:n]
                assert np.linalg.norm(st.kraus_apply(t, state) - expected) <= 1e-12
                assert np.linalg.norm(st.kraus(t) @ state - expected) <= 1e-12

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_probability_check(self, n, scheme):
        sys_, d, psi = _instrument_case(n)
        for t in self.TS:
            trace = run_simulation(SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme=scheme))
            assert trace.probability_check <= 1e-12, t

    def test_kraus_factors_are_read_only(self):
        st = scheme_stages(_instrument_case(4)[1], "identity")
        for a in (st.kraus_left, st.kraus_right):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_non_orthonormal_frame_is_refused_at_stage_build(self):
        # Q1 Q1^dag is a projection only for orthonormal Q1; the Kraus route
        # relies on the check made here, once
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        bad = dataclasses.replace(d, ytau_q=1.001 * d.ytau_q)
        with pytest.raises(errors.NotProjectionError):
            scheme_stages(bad, "identity")


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
