import dataclasses

import numpy as np
import pytest

from ptsim import (
    ExperimentConfig,
    bell_plus_x_state,
    completion,
    errors,
    nosignaling,
    pipeline,
    run_experiment,
    sweep_delta_s,
    whole_system_bob_marginals,
)
from ptsim.nosignaling import _ALICE_UNITARIES, _measure_joint, _paper_dilation

from oracle import brute_nosignaling_delta_s

# Frozen regression values from the brute-force oracle (4-dim explicit loops,
# Taylor exponential), identity scheme, s = 1, t = 1.
DELTA_S_PI6 = 0.557885238580255
DELTA_S_PI4 = 0.647309884671583

# whole_system_bob_marginals as computed when each completion extended its
# images to a unitary by QR; keyed by (alpha, t, scheme), rows are branches k.
FROZEN_MARGINALS = {
    (0.3, 0.5, "identity"): [[0.4999999999999998, 0.4999999999999995],
                             [0.49999999999999944, 0.4999999999999998]],
    (0.3, 0.5, "metric_sandwich"): [[0.4999999999999998, 0.49999999999999944],
                                    [0.49999999999999944, 0.4999999999999998]],
    (np.pi / 6, 1.0, "identity"): [[0.5000000000000001, 0.5], [0.5, 0.5000000000000001]],
    (np.pi / 6, 1.0, "metric_sandwich"): [[0.4999999999999997, 0.4999999999999997],
                                          [0.4999999999999997, 0.4999999999999997]],
    (1.2, 2.0, "identity"): [[0.4999999999999995, 0.4999999999999995],
                             [0.49999999999999944, 0.49999999999999944]],
    (1.2, 2.0, "metric_sandwich"): [[0.49999999999999944, 0.49999999999999967],
                                    [0.4999999999999996, 0.4999999999999995]],
}


class TestConfig:
    def test_alpha_range_enforced(self):
        with pytest.raises(errors.NotUnbrokenError):
            ExperimentConfig(alpha=np.pi / 2)
        with pytest.raises(errors.NotUnbrokenError):
            ExperimentConfig(alpha=-1.6)

    @pytest.mark.parametrize("field", ["alpha", "s", "t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_parse_error(self, field, value):
        with pytest.raises(errors.ParseError):
            ExperimentConfig(**{"alpha": 0.3, field: value})
        if field == "alpha":
            with pytest.raises(errors.ParseError):
                sweep_delta_s([value], [1.0], scheme="identity")

    @pytest.mark.parametrize("mode", ["direct_eq71", "simulated_eq73"])
    @pytest.mark.parametrize("scheme", ["custom", "metric", "bogus"])
    def test_unsupported_scheme_is_parse_error(self, mode, scheme):
        # the experiment takes no (rho, rho') of its own, so "custom" is refused
        # by name rather than for missing matrices
        with pytest.raises(errors.ParseError, match=f"unknown scheme '{scheme}'"):
            ExperimentConfig(alpha=0.3, scheme=scheme, mode=mode)

    def test_unknown_mode_is_parse_error(self):
        with pytest.raises(errors.ParseError, match="unknown mode 'eq72'"):
            ExperimentConfig(alpha=0.3, mode="eq72")

    def test_checked_fields_cannot_be_changed(self):
        # run_experiment relies on the checks of __post_init__
        cfg = ExperimentConfig(alpha=0.3, mode="direct_eq71")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mode = "eq72"

    def test_bell_state(self):
        v = bell_plus_x_state()
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v[0] == v[3] == pytest.approx(1.0 / np.sqrt(2.0))
        assert v[1] == v[2] == 0.0


class TestDirectMode:
    def test_hermitian_limit_no_signaling(self):
        stats = run_experiment(ExperimentConfig(alpha=0.0, t=1.0, scheme="identity"))
        assert stats.delta_s <= 1e-12

    def test_identity_scheme_signals(self):
        stats = run_experiment(ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme="identity"))
        assert stats.delta_s == pytest.approx(DELTA_S_PI6, abs=1e-10)
        stats = run_experiment(ExperimentConfig(alpha=np.pi / 4, t=1.0, scheme="identity"))
        assert stats.delta_s == pytest.approx(DELTA_S_PI4, abs=1e-10)

    def test_oracle_agreement_on_grid(self):
        for alpha in (0.3, np.pi / 6, 1.0):
            for t in (0.5, 2.0):
                stats = run_experiment(ExperimentConfig(alpha=alpha, t=t, scheme="identity"))
                assert stats.delta_s == pytest.approx(
                    brute_nosignaling_delta_s(alpha, 1.0, t), abs=1e-9
                )

    def test_metric_sandwich_restores_no_signaling(self):
        for alpha in (np.pi / 6, np.pi / 4, 1.0):
            for t in (0.5, 1.0, 2.0):
                stats = run_experiment(
                    ExperimentConfig(alpha=alpha, t=t, scheme="metric_sandwich")
                )
                assert stats.delta_s <= 1e-10, (alpha, t, stats.delta_s)

    def test_table_is_a_distribution(self):
        stats = run_experiment(ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme="identity"))
        for k in range(2):
            assert stats.table[k].sum() == pytest.approx(1.0, abs=1e-12)
            assert (stats.table[k] >= -1e-15).all()
        assert stats.bob_marginals == pytest.approx(stats.table.sum(axis=1))
        assert (stats.p_success == 1.0).all()

    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    def test_closed_form_propagator_only(self, scheme, monkeypatch):
        # the channel is built from gunther_propagator: no eig and no inverse
        counts = dict.fromkeys(("eig", "inv"), 0)
        for name in counts:
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run_experiment(ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme=scheme, mode="direct_eq71"))
        assert counts == {"eig": 0, "inv": 0}


class TestSimulatedMode:
    def test_matches_direct_mode_tables(self):
        # post-selection reproduces the direct non-unitary channel exactly
        for scheme in ("identity", "metric_sandwich"):
            direct = run_experiment(
                ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme=scheme, mode="direct_eq71")
            )
            sim = run_experiment(
                ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme=scheme, mode="simulated_eq73")
            )
            assert sim.table == pytest.approx(direct.table, abs=1e-10)
            assert sim.delta_s == pytest.approx(direct.delta_s, abs=1e-10)

    def test_success_probabilities(self):
        sim = run_experiment(
            ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme="metric_sandwich",
                             mode="simulated_eq73")
        )
        # unitary effective channel: both branches succeed with the same rate
        assert sim.p_success[0] == pytest.approx(sim.p_success[1], abs=1e-10)
        assert 0.0 < sim.p_success[0] < 1.0

    def test_identity_scheme_branch_dependent_success(self):
        sim = run_experiment(
            ExperimentConfig(alpha=np.pi / 4, t=1.0, scheme="identity", mode="simulated_eq73")
        )
        assert (sim.p_success > 0.0).all()
        assert sim.delta_s == pytest.approx(DELTA_S_PI4, abs=1e-10)


    def test_kraus_route_matches_stage_route_on_grid(self):
        # K(t) x I_Bob on each branch block against the full stage sequence,
        # on the benchmark's 15 alpha x 3 t x 2 scheme grid
        for alpha in np.linspace(0.0, 1.4, 15):
            for t in (0.5, 1.0, 2.0):
                for scheme in ("identity", "metric_sandwich"):
                    cfg = ExperimentConfig(alpha=alpha, t=t, scheme=scheme, mode="simulated_eq73")
                    stats = run_experiment(cfg)
                    st = pipeline.scheme_stages(_paper_dilation(cfg), scheme)
                    for k, u_a in enumerate(_ALICE_UNITARIES):
                        *_, xi4, p_prepare, p_post = st.run(u_a @ bell_plus_x_state().reshape(2, 2), t)
                        assert np.abs(stats.table[k] - _measure_joint(xi4[:2])).max() <= 1e-14
                        assert abs(stats.p_success[k] - p_prepare * p_post) <= 1e-14

    def test_runs_no_stage_sequence(self, monkeypatch):
        # one Kraus operator per experiment: no post-selection, no stage run
        calls = {"post_select": 0, "run": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for mod in (completion, pipeline):
            monkeypatch.setattr(mod, "post_select", counting("post_select", completion.post_select))
        monkeypatch.setattr(pipeline.SchemeStages, "run", counting("run", pipeline.SchemeStages.run))
        for scheme in ("identity", "metric_sandwich"):
            run_experiment(ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme=scheme, mode="simulated_eq73"))
        assert calls == {"post_select": 0, "run": 0}


class TestWholeSystem:
    @pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 4, 1.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_unpostselected_marginals_agree(self, alpha, t):
        for scheme in ("identity", "metric_sandwich"):
            cfg = ExperimentConfig(alpha=alpha, t=t, scheme=scheme)
            marg = whole_system_bob_marginals(cfg)
            assert np.linalg.norm(marg[0] - marg[1]) <= 1e-10
            assert marg[0].sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("key", list(FROZEN_MARGINALS))
    def test_marginals_match_frozen_values(self, key):
        alpha, t, scheme = key
        marg = whole_system_bob_marginals(ExperimentConfig(alpha=alpha, t=t, scheme=scheme))
        assert np.abs(marg - FROZEN_MARGINALS[key]).max() <= 1e-15

    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    def test_builds_no_extraction_completion(self, scheme, monkeypatch):
        # only the preparation completion acts before the un-post-selected evolution
        calls = []
        build = pipeline.extraction_completion
        monkeypatch.setattr(pipeline, "extraction_completion",
                            lambda *args: calls.append(args) or build(*args))
        whole_system_bob_marginals(ExperimentConfig(alpha=np.pi / 6, t=1.0, scheme=scheme))
        assert len(calls) == 0


class TestSweep:
    def test_rows(self):
        rows = sweep_delta_s([np.pi / 6, np.pi / 4], [1.0], scheme="metric_sandwich")
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"alpha", "t", "scheme", "delta_s", "p_success_1", "p_success_2"}
            assert row["scheme"] == "metric_sandwich"
            assert row["delta_s"] <= 1e-10

    @pytest.mark.parametrize("mode", ["simulated_eq73", "direct_eq71"])
    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich"])
    def test_one_dilation_per_alpha(self, mode, scheme, monkeypatch):
        # each alpha's stages serve every t; rows equal one run_experiment per point
        alphas, ts = [0.0, np.pi / 6, 1.2], [0.5, 1.0, 2.0]
        expected = [run_experiment(ExperimentConfig(alpha=a, t=t, scheme=scheme, mode=mode))
                    for a in alphas for t in ts]
        calls = []
        build = nosignaling.build_dilation
        monkeypatch.setattr(nosignaling, "build_dilation",
                            lambda *args, **kw: calls.append(args) or build(*args, **kw))
        rows = sweep_delta_s(alphas, ts, scheme, mode=mode)
        assert len(calls) == (len(alphas) if mode == "simulated_eq73" else 0)
        assert [(r["delta_s"], r["p_success_1"], r["p_success_2"]) for r in rows] == [
            (e.delta_s, float(e.p_success[0]), float(e.p_success[1])) for e in expected]
