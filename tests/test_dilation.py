import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg

from ptsim import (
    Kind,
    PTSystem,
    build_dilation,
    classify,
    dilated_evolution,
    embedding_membership,
    errors,
    gunther_eta,
    gunther_system,
    in_tau_subspace,
    matrix_exp,
    reproduce_gunther_example,
    validate_pt_pair,
)
from ptsim.linalg import eigen_evolve, psd_power
from ptsim.pipeline import _stage_sides, scheme_stages

from corpus import broken_corpus, defective_corpus, random_broken, random_unbroken, unbroken_corpus

RESIDUAL_KEYS = ("hermiticity", "eq_h1h2", "eq_h2h4", "tau_sq")
# the (alpha, s, E0) sets that ``ptsim paper`` checks
PAPER_SETS = [(a, s, e0) for a in (np.pi / 6, np.pi / 4, 1.0) for s in (1.0, 2.0) for e0 in (0.0, 1.0)]


def assert_clean(d, tol=1e-10):
    for key in RESIDUAL_KEYS:
        assert d.residuals[key] <= tol, (key, d.residuals[key])


class TestBuildDilation:
    def test_gunther_supplied_eta(self):
        sys = gunther_system(np.pi / 6)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 6), h1_choice="paper")
        assert_clean(d)
        # defining equations hold verbatim
        assert d.H1 + d.H2 @ d.tau == pytest.approx(d.H, abs=1e-12)
        assert d.H2.conj().T + d.H4 @ d.tau == pytest.approx(d.tau @ d.H, abs=1e-12)

    def test_auto_eta_margin(self):
        sys = gunther_system(0.7)
        d = build_dilation(sys, margin=1.25)
        assert_clean(d)
        w = np.linalg.eigvalsh(d.eta)
        assert w.min() == pytest.approx(1.25)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), 0.5, -1.0, 1.0, "1.5"])
    def test_bad_margin_is_a_parse_error(self, margin):
        with pytest.raises(errors.ParseError):
            build_dilation(gunther_system(0.7), margin=margin)

    @pytest.mark.parametrize("params", [{"alpha": np.nan}, {"alpha": 0.3, "e0": np.inf},
                                        {"alpha": 0.3, "e0": -np.inf}])
    def test_non_finite_hamiltonian_is_parse_error(self, params):
        with pytest.raises(errors.ParseError):
            build_dilation(gunther_system(**params))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_hamiltonian_matrix_is_parse_error(self, value):
        # a matrix that no parameter check saw: classify refuses it
        sys = gunther_system(0.3)
        h = sys.H.copy()
        h[0, 1] = value
        with pytest.raises(errors.ParseError, match="classify: matrix must be finite"):
            build_dilation(PTSystem(h, sys.pt))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_supplied_eta_is_parse_error(self, value):
        eta = gunther_eta(np.pi / 6)
        eta[1, 0] = value
        with pytest.raises(errors.ParseError, match="build_dilation: eta must be finite"):
            build_dilation(gunther_system(np.pi / 6), eta=eta)

    def test_eta_not_greater_than_identity(self):
        sys = gunther_system(np.pi / 6)
        small = 0.1 * gunther_eta(np.pi / 6)
        with pytest.raises(errors.EtaNotGreaterThanIError):
            build_dilation(sys, eta=small)

    def test_supplied_h1(self):
        sys = gunther_system(np.pi / 6)
        h1 = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 6), h1_choice="supplied", h1=h1)
        assert_clean(d)
        assert d.H1 == pytest.approx(h1)

    def test_supplied_h1_missing_is_parse_error(self):
        with pytest.raises(errors.ParseError):
            build_dilation(gunther_system(np.pi / 6), h1_choice="supplied")

    @pytest.mark.parametrize("h1_choice", ["zero", "paper"])
    def test_h1_matrix_needs_the_supplied_choice(self, h1_choice):
        # an H1 given with another choice is refused, not silently replaced
        h1 = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        with pytest.raises(errors.ParseError, match="h1_choice 'supplied'"):
            build_dilation(gunther_system(np.pi / 6), h1_choice=h1_choice, h1=h1)

    @pytest.mark.parametrize("case", ["unbroken", "defective"])
    def test_unknown_h1_choice_is_refused_before_any_eig(self, case, monkeypatch):
        # the arguments are checked before classify: a defective H gets the
        # ParseError (exit 2), not NotUnbrokenError, and a good H no eig
        sys = gunther_system(np.pi / 6) if case == "unbroken" else defective_corpus()[0]
        calls, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
        with pytest.raises(errors.ParseError, match="build_dilation: unknown h1_choice 'bogus'"):
            build_dilation(sys, h1_choice="bogus")
        assert calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_supplied_h1_non_finite_is_parse_error(self, value):
        h1 = np.array([[0.3, value], [value, -0.2]], dtype=complex)
        with pytest.raises(errors.ParseError, match="build_dilation: H1 must be finite"):
            build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6),
                           h1_choice="supplied", h1=h1)

    def test_supplied_h1_must_be_hermitian(self):
        sys = gunther_system(np.pi / 6)
        with pytest.raises(errors.SuppliedH1NotHermitianError):
            build_dilation(
                sys,
                eta=gunther_eta(np.pi / 6),
                h1_choice="supplied",
                h1=np.array([[0, 1], [0, 0]], dtype=complex),
            )

    def test_refuses_broken_and_defective(self):
        for sys in broken_corpus()[:2] + defective_corpus()[:2]:
            with pytest.raises(errors.NotUnbrokenError):
                build_dilation(sys)

    def test_random_corpus_both_h1_choices(self):
        rng = np.random.default_rng(41)
        for sys in unbroken_corpus():
            for choice in ("zero", "paper"):
                d = build_dilation(sys, h1_choice=choice)
                assert_clean(d)
            n = sys.H.shape[0]
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d = build_dilation(sys, h1_choice="supplied", h1=0.5 * (g + g.conj().T))
            assert_clean(d)

    def test_one_eig_per_dilation(self, monkeypatch):
        # positive_metric reads build_dilation's classification of H
        calls = []

        def counted(*args, _fn=np.linalg.eig, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counted)
        build_dilation(random_unbroken(np.random.default_rng(42), 8))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 16])
    def test_ytau_q_splits_into_ytau_and_its_complement(self, n):
        d = build_dilation(random_unbroken(np.random.default_rng(43), n))
        q = d.ytau_q
        assert np.linalg.norm(q.conj().T @ q - np.eye(2 * n)) <= 1e-12
        assert np.array_equal(d.ytau_frame, q[:, :n])
        # Y_tau is the graph {(x; tau x)}, so its complement is {(-tau y; y)}
        graph = np.vstack([np.eye(n), d.tau])
        assert np.linalg.norm(q[:, n:].conj().T @ graph) <= 1e-12 * np.linalg.norm(graph)
        for col in q[:, :n].T:
            assert in_tau_subspace(col, d.tau)


def _count_eig(monkeypatch):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
    return calls


class TestSuppliedMetric:
    """A supplied eta that passes H's PT test, the metric equations,
    lambda_min > 1 and a Hermitian R H R^{-1} makes H quasi-Hermitian, so the
    build makes no eig of H. ``classify`` runs on a refusal, to name a broken
    or defective H as the cause, and on the first read of ``classification``."""

    @pytest.mark.parametrize("k, error", [(1, None), (2, None), (3, None),
                                          (4, errors.EtaNotGreaterThanIError), (5, errors.EtaNotGreaterThanIError),
                                          (6, errors.EtaNotGreaterThanIError), (7, errors.NotUnbrokenError),
                                          (8, errors.NotUnbrokenError), (9, errors.NotUnbrokenError)])
    def test_outcome_towards_the_exceptional_point(self, k, error):
        # scripts/ep_probe.py --k-max 9: past k = 6 the supplied eta also fails
        # lambda_min > 1, and the eigenvalue cluster is named as the cause
        alpha = np.pi / 2 - 10.0**-k
        if error is None:
            assert max(reproduce_gunther_example(alpha).values()) <= 1e-6
            return
        with pytest.raises(error) as exc:
            reproduce_gunther_example(alpha)
        assert exc.value.exit_code == 4
        if error is errors.NotUnbrokenError:
            assert str(exc.value) == "build_dilation: classification is Defective"

    @pytest.mark.parametrize("sys_", broken_corpus() + defective_corpus(),
                             ids=[f"broken{i}" for i in range(5)] + [f"defective{i}" for i in range(5)])
    def test_broken_or_defective_h_is_named(self, sys_):
        # 2 I is positive, but no H here is quasi-Hermitian: classify names the kind
        kind = classify(sys_.H, sys_.pt).kind
        assert kind in (Kind.BROKEN_DIAGONALIZABLE, Kind.DEFECTIVE)
        with pytest.raises(errors.NotUnbrokenError, match=f"^build_dilation: classification is {kind.value}$"):
            build_dilation(sys_, eta=2.0 * np.eye(sys_.H.shape[0]))

    @pytest.mark.parametrize("sys_", [defective_corpus()[0], gunther_system(0.5)], ids=["defective", "unbroken"])
    def test_non_finite_eta_is_refused_before_any_eig(self, sys_, monkeypatch):
        calls = _count_eig(monkeypatch)
        with pytest.raises(errors.ParseError, match="^build_dilation: eta must be finite$") as exc:
            build_dilation(sys_, eta=np.full((2, 2), np.nan))
        assert exc.value.exit_code == 2 and calls == []

    def test_no_eig_until_classification_is_read(self, monkeypatch):
        calls = _count_eig(monkeypatch)
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6), h1_choice="paper")
        assert d.residuals and d.Hhat.shape == (4, 4) and len(d.hhat_eigh) == 2
        assert calls == []
        d.propagate(1.0, np.array([1.0, 0.0]))
        assert d.classification is d.classification and calls == [1]

    @pytest.mark.parametrize("i", range(len(unbroken_corpus())))
    def test_read_classification_is_classify(self, i):
        sys_ = unbroken_corpus()[i]
        d = build_dilation(sys_, eta=build_dilation(sys_).eta)
        c, ref = d.classification, classify(sys_.H, sys_.pt)
        assert c.kind is ref.kind is Kind.UNBROKEN
        assert np.array_equal(c.spectrum, ref.spectrum) and np.array_equal(c.eigenframe, ref.eigenframe)
        assert c.condition_estimate == ref.condition_estimate and c.h_norm == ref.h_norm == d.h_norm
        assert not c.spectrum.flags.writeable and not c.eigenframe.flags.writeable

    def test_read_refuses_an_h_that_is_not_unbroken(self):
        d = build_dilation(gunther_system(0.5), eta=gunther_eta(0.5))
        bad = dataclasses.replace(d, H=defective_corpus()[0].H, pt=None)
        with pytest.raises(errors.NotUnbrokenError, match="^Dilation.classification: classification is Defective$"):
            bad.classification

    @pytest.mark.parametrize("eta, error, text", [
        ([[3, 1], [0, 3]], errors.NotHermitianError, "eta is not Hermitian"),
        (np.diag([3, 4]), errors.NotIntertwiningError, "H^dag eta != eta H"),
        (np.diag([0.5, 0.7]), errors.NotIntertwiningError, "H^dag eta != eta H"),
        (np.diag([1 + 1e-30, 4]), errors.NotIntertwiningError, "H^dag eta != eta H"),
        (0.1 * gunther_eta(np.pi / 6), errors.EtaNotGreaterThanIError, "lambda_min(eta) = 0.133333 <= 1"),
    ], ids=["not_hermitian", "diag_3_4", "diag_below_1", "diag_at_1", "scaled_below_1"])
    def test_refusal_order(self, eta, error, text):
        # the first eta fails the Hermitian and intertwining tests, the next
        # three the intertwining test and, but for diag(3, 4), lambda_min > 1;
        # the first failing test in the build's order is the one named
        with pytest.raises(error) as exc:
            build_dilation(gunther_system(np.pi / 6), eta=np.asarray(eta, dtype=complex))
        assert str(exc.value) == f"build_dilation: {text}" and exc.value.exit_code == 4

    def test_skew_in_the_r_frame_is_refused(self):
        # eta = diag(1.5, 1e6) misses H^dag eta = eta H by 1.4e-2, inside its
        # tolerance eq_tol ||H||_F ||eta||_F = 6.7e-2, but R H R^{-1} is then
        # 1.2e-5 from Hermitian, against eq_tol ||H||_F = 6.7e-8; the Hhat such
        # a build kept was 3e-8 from Hermitian. H itself is unbroken.
        eye = np.eye(2, dtype=complex)
        h = np.array([[1.0, (1e3 + 1e-2) / 1.5], [1e-3, 2.0]], dtype=complex)
        sys_ = PTSystem(h, validate_pt_pair(eye, eye))
        assert classify(sys_.H, sys_.pt).kind is Kind.UNBROKEN
        with pytest.raises(errors.NotIntertwiningError, match=r"^build_dilation: R H R\^\{-1\} is not Hermitian$"):
            build_dilation(sys_, eta=np.diag([1.5, 1e6]).astype(complex))


BLOCKED_NS = (2, 8, 16, 64, 128)
BLOCKED_IDS = [f"n{n}" for n in BLOCKED_NS] + [f"paper{i}" for i in range(len(PAPER_SETS))]


@functools.cache
def _blocked_cases():
    """Canonical dilations at BLOCKED_NS and the paper sets as one stack."""
    rng = np.random.default_rng(90)
    singles = [build_dilation(random_unbroken(rng, n)) for n in BLOCKED_NS]
    paper = build_dilation([gunther_system(a, s, e0) for a, s, e0 in PAPER_SETS],
                           eta=[gunther_eta(a) for a, _, _ in PAPER_SETS], h1_choice="paper")
    return singles + paper


class TestBlockedFactorization:
    """Hhat is factored by its invariant blocks on Y_tau and Y_tau-perp."""

    @pytest.mark.parametrize("i", range(len(BLOCKED_IDS)), ids=BLOCKED_IDS)
    def test_eigenvectors_keep_the_two_subspaces(self, i):
        d = _blocked_cases()[i]
        n, (_, v) = d.dim, d.hhat_eigh
        q1, q2 = d.ytau_q[:, :n], d.ytau_q[:, n:]
        assert np.linalg.norm(q2.conj().T @ v[:, :n]) <= 1e-13
        assert np.linalg.norm(q1.conj().T @ v[:, n:]) <= 1e-13
        # and they are still orthonormal eigenpairs of the whole Hhat
        assert np.linalg.norm(v.conj().T @ v - np.eye(2 * n)) <= 1e-12
        assert np.linalg.norm(d.Hhat @ v - v * d.hhat_eigh[0]) <= 1e-13 * np.linalg.norm(d.Hhat)

    @pytest.mark.parametrize("i", range(len(BLOCKED_IDS)), ids=BLOCKED_IDS)
    def test_ytau_half_is_the_spectrum_of_h(self, i):
        d = _blocked_cases()[i]
        # Hhat acts on Y_tau like H, whose spectrum is real when unbroken
        lam = np.sort(d.classification.spectrum.real)
        w_y = np.sort(d.hhat_eigh[0][:d.dim])
        assert np.linalg.norm(w_y - lam) <= 1e-12 * max(1.0, np.linalg.norm(lam))

    def test_one_eigh_per_stack(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a.shape) or eigh(a, *args))
        build_dilation([gunther_system(a, s, e0) for a, s, e0 in PAPER_SETS],
                       eta=[gunther_eta(a) for a, _, _ in PAPER_SETS])
        # eta - I, then R H R^{-1}, Hhat's block on Y_tau, for every member
        assert calls == [(12, 2, 2), (12, 2, 2)]


class TestYtauFactor:
    """Hhat acts on Y_tau as R H R^{-1}, with [I; tau] = Q1 R: the equivalent
    Hermitian Hamiltonian (Mostafazadeh, J. Math. Phys. 43, 205 (2002)).

    Bounds are multiples of eps ||H||_F (eps ||eta||_F for the metric)."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("i", range(len(BLOCKED_IDS)), ids=BLOCKED_IDS)
    def test_r_factors_the_graph_and_the_metric(self, i):
        d = _blocked_cases()[i]
        n, q1, r = d.dim, d.ytau_frame, d.ytau_r
        graph = np.vstack([np.eye(n), d.tau])
        assert np.linalg.norm(np.tril(r, -1)) <= 8 * np.sqrt(n) * self.EPS * np.linalg.norm(graph)
        assert np.linalg.norm(q1 @ r - graph) <= 8 * np.sqrt(n) * self.EPS * np.linalg.norm(graph)
        assert np.linalg.norm(r.conj().T @ r - d.eta) <= 8 * np.sqrt(n) * self.EPS * np.linalg.norm(d.eta)

    @pytest.mark.parametrize("i", range(len(BLOCKED_IDS)), ids=BLOCKED_IDS)
    def test_q1_hhat_q1_is_r_h_r_inverse(self, i):
        # the dense Hhat in the frame Q1, against a product with an explicit R^{-1}
        d = _blocked_cases()[i]
        n, q1, r = d.dim, d.ytau_frame, d.ytau_r
        equivalent = r @ d.H @ np.linalg.inv(r)
        bound = 8 * np.sqrt(n) * self.EPS * np.linalg.norm(d.H)
        assert np.linalg.norm(q1.conj().T @ d.Hhat @ q1 - equivalent) <= bound

    @pytest.mark.parametrize("i", range(len(BLOCKED_IDS)), ids=BLOCKED_IDS)
    def test_ytau_eigh_leads_hhat_eigh(self, i):
        # the whole factorization, formed on first read, starts with the kept pair
        d = _blocked_cases()[i]
        (w_y, v_y), (w, v) = d.ytau_eigh, d.hhat_eigh
        assert np.array_equal(w[:d.dim], w_y) and np.array_equal(v[:, :d.dim], v_y)
        assert np.linalg.norm(d.Hhat @ v_y - v_y * w_y) <= 8 * np.sqrt(d.dim) * self.EPS * np.linalg.norm(d.Hhat)


class TestKeptFactors:
    """The build keeps R of [I; tau] = Q1 R and V_Y, and completes Q1 to
    [Q1 | J Q1]; the stage actions read R. Bounds are multiples of eps."""

    EPS = np.finfo(float).eps
    NS = (2, 3, 5, 8, 16, 32, 64, 128)

    @staticmethod
    @functools.cache
    def dilation(n, supplied):
        """A canonical dilation of order n, or the one of 2 eta, a supplied metric."""
        sys_ = random_unbroken(np.random.default_rng(700 + n), n)
        d = build_dilation(sys_)
        return build_dilation(sys_, eta=2.0 * d.eta) if supplied else d

    @pytest.mark.parametrize("supplied", [False, True], ids=["canonical", "supplied"])
    @pytest.mark.parametrize("n", NS)
    def test_r_factors_the_metric_and_the_graph(self, n, supplied):
        d = self.dilation(n, supplied)
        r, bound = d.ytau_r, 8 * np.sqrt(n) * self.EPS * max(1.0, np.linalg.norm(d.eta))
        assert np.linalg.norm(r.conj().T @ r - d.eta) <= bound
        assert np.linalg.norm(d.ytau_frame @ r - np.vstack([np.eye(n), d.tau])) <= bound

    @pytest.mark.parametrize("supplied", [False, True], ids=["canonical", "supplied"])
    @pytest.mark.parametrize("n", NS)
    def test_j_q1_completes_q1_to_a_unitary(self, n, supplied):
        d = self.dilation(n, supplied)
        q, q1 = d.ytau_q, d.ytau_frame
        assert np.array_equal(q[:, n:], np.vstack([-q1[n:], q1[:n]]))  # Q2 = J Q1
        assert np.linalg.norm(q.conj().T @ q - np.eye(2 * n)) <= 8 * n * self.EPS
        # Y_tau-perp, the span of Q2, is invariant under Hhat
        bound = 8 * np.sqrt(n) * self.EPS * np.linalg.norm(d.Hhat)
        assert np.linalg.norm(q[:, n:].conj().T @ d.Hhat @ q1) <= bound

    @pytest.mark.parametrize("supplied", [False, True], ids=["canonical", "supplied"])
    @pytest.mark.parametrize("n", NS)
    def test_v_y_is_the_kept_eigenframe_in_y_tau_coordinates(self, n, supplied):
        d = self.dilation(n, supplied)
        w_y, q1v_y = d.ytau_eigh
        assert np.array_equal(q1v_y, d.ytau_frame @ d.ytau_v)
        # eigenpairs of R H R^{-1}, whose norm is at most kappa(eta)^{1/2} ||H||
        hy, bound = d.ytau_r @ d.H @ np.linalg.inv(d.ytau_r), 8 * n * self.EPS * np.linalg.cond(d.eta)
        assert np.linalg.norm(hy @ d.ytau_v - d.ytau_v * w_y) <= bound * np.linalg.norm(d.H)

    @pytest.mark.parametrize("supplied", [False, True], ids=["canonical", "supplied"])
    @pytest.mark.parametrize("n", NS)
    def test_q1_top_inverts_r(self, n, supplied):
        # the build forms R H R^{-1} as R H Q1_top, Q1's top block being
        # R^{-1}; checked against a triangular solve with R
        d = self.dilation(n, supplied)
        r, h = d.ytau_r, d.H
        solved = np.linalg.solve(r.T, (r @ h).T).T
        bound = 8 * np.sqrt(n) * np.linalg.cond(d.eta) * self.EPS * np.linalg.norm(h)
        assert np.linalg.norm(r @ h @ d.ytau_frame[:n] - solved) <= bound

    @pytest.mark.parametrize("scale", [1e4, 1e12, 1e50])
    @pytest.mark.parametrize("supplied", [False, True], ids=["margin", "supplied"])
    def test_metric_of_large_norm_keeps_the_spectrum(self, scale, supplied, monkeypatch):
        # Q1_top is R^{-1} to eps absolute, so R H Q1_top has sqrt(lambda_min(eta))
        # times a solve's error: a metric above 64 I is solved against R instead
        # (the product alone finds 1e12 eta not Hermitian in the R frame, and
        # puts 1e50 eta's eigenvalues 0.87 off)
        sys_, a = gunther_system(np.pi / 6), np.pi / 6
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        d = (build_dilation(sys_, eta=scale * gunther_eta(a), h1_choice="paper") if supplied
             else build_dilation(sys_, margin=scale))
        assert np.abs(d.ytau_eigh[0] - np.array([-1.0, 1.0]) * np.cos(a)).max() <= 4 * self.EPS
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme", ["identity", "metric_sandwich", "custom"])
    @pytest.mark.parametrize("supplied", [False, True], ids=["canonical", "supplied"])
    @pytest.mark.parametrize("n", NS)
    def test_stage_actions_read_r(self, n, supplied, scheme):
        # R rho and rho' Q1_top against the actions in the basis Q1, Q1^dag (rho; tau rho)
        d, rng = self.dilation(n, supplied), np.random.default_rng(800 + n)
        factors = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2)]
        st = scheme_stages(d, scheme, *(factors if scheme == "custom" else ()))
        q1, kappa = d.ytau_frame, np.linalg.cond(d.eta)
        for (action, _, _), expected in zip(_stage_sides(d, st.rho, st.rho_prime), (
                q1.conj().T @ np.vstack([st.rho, d.tau @ st.rho]), st.rho_prime @ q1[:n])):
            bound = 8 * np.sqrt(n) * kappa * self.EPS * np.linalg.norm(expected)
            assert np.linalg.norm(action - expected) <= bound


def assert_same_dilation(a, b):
    """Every array field, the classification and the residuals, bit for bit."""
    for field in ("H", "eta", "eta_minus_i_w", "eta_minus_i_v", "tau", "ytau_q", "ytau_r", "ytau_v",
                  "H1", "H2", "H4", "Hhat"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for pair in ("ytau_eigh", "hhat_eigh"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(a, pair), getattr(b, pair), strict=True)), pair
    ca, cb = a.classification, b.classification
    assert ca.kind is cb.kind and ca.condition_estimate == cb.condition_estimate
    assert np.array_equal(ca.spectrum, cb.spectrum) and np.array_equal(ca.eigenframe, cb.eigenframe)
    assert a.residuals == b.residuals


class TestStackedBuild:
    """A sequence of systems is one stacked build with the bits of single builds."""

    def test_paper_sets(self):
        systems = [gunther_system(a, s, e0) for a, s, e0 in PAPER_SETS]
        etas = [gunther_eta(a) for a, _, _ in PAPER_SETS]
        stacked = build_dilation(systems, eta=etas, h1_choice="paper")
        assert len(stacked) == len(PAPER_SETS)
        for d, sys, eta in zip(stacked, systems, etas, strict=True):
            assert_same_dilation(d, build_dilation(sys, eta=eta, h1_choice="paper"))

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_random_canonical(self, n):
        rng = np.random.default_rng(300 + n)
        systems = [random_unbroken(rng, n) for _ in range(5)]
        for d, sys in zip(build_dilation(systems), systems, strict=True):
            assert_same_dilation(d, build_dilation(sys))

    def test_stack_of_one_is_a_list(self):
        sys = gunther_system(0.4)
        (d,) = build_dilation([sys])
        assert_same_dilation(d, build_dilation(sys))

    def test_broken_member_is_named(self):
        systems = [gunther_system(0.3), gunther_system(0.5), random_broken(np.random.default_rng(4), 2)]
        with pytest.raises(errors.NotUnbrokenError,
                           match="^build_dilation: member 2: classification is BrokenDiagonalizable$"):
            build_dilation(systems)

    def test_single_system_keeps_its_error(self):
        with pytest.raises(errors.NotUnbrokenError) as exc:
            build_dilation(random_broken(np.random.default_rng(4), 2))
        assert str(exc.value) == "build_dilation: classification is BrokenDiagonalizable"

    def test_supplied_eta_member_is_named(self):
        # the second eta is scaled below lambda_min = 1
        etas = [gunther_eta(0.3), 0.5 * gunther_eta(0.5) / np.linalg.eigvalsh(gunther_eta(0.5))[0]]
        with pytest.raises(errors.EtaNotGreaterThanIError, match="^build_dilation: member 1: lambda_min"):
            build_dilation([gunther_system(0.3), gunther_system(0.5)], eta=etas)

    def test_members_with_and_without_pairs(self):
        # each member gets the classification, and the dilation, it gets alone
        systems = [gunther_system(0.3), PTSystem(gunther_system(0.5).H, None)]
        for d, sys in zip(build_dilation(systems), systems, strict=True):
            assert d.classification.kind is Kind.UNBROKEN
            assert_same_dilation(d, build_dilation(sys))

    def test_member_failing_its_supplied_pair_is_named(self):
        # the same H passes without a pair; conj(H) != H, so it fails the pair (I, I)
        h, eye = gunther_system(0.5).H, np.eye(2, dtype=complex)
        systems = [PTSystem(h, None), PTSystem(h, validate_pt_pair(eye, eye))]
        with pytest.raises(errors.NotUnbrokenError,
                           match="^build_dilation: member 1: classification is NotPTSymmetric$"):
            build_dilation(systems)

    @pytest.mark.parametrize("h, kind", [(defective_corpus()[0].H, "Defective"),
                                         (np.diag([1.0, 1j]), "NotPTSymmetric"),
                                         (broken_corpus()[0].H, "BrokenDiagonalizable")])
    def test_pairless_system_that_is_not_unbroken_is_refused(self, h, kind):
        with pytest.raises(errors.NotUnbrokenError, match=f"^build_dilation: classification is {kind}$"):
            build_dilation(PTSystem(h, None))

    def test_mixed_orders_refused(self):
        with pytest.raises(errors.DimensionMismatchError):
            build_dilation([gunther_system(0.3), random_unbroken(np.random.default_rng(5), 3)])


class TestEvolution:
    def test_top_block_identity(self):
        sys = gunther_system(np.pi / 4)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 4), h1_choice="paper")
        psi = np.array([0.6, 0.8j], dtype=complex)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            x = np.concatenate([psi, d.tau @ psi])
            y = dilated_evolution(d, t, x)
            target = matrix_exp(-1j * t * d.H) @ psi
            assert np.linalg.norm(y[:2] - target) <= 1e-8
            assert np.linalg.norm(y[2:] - d.tau @ target) <= 1e-8

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_kept_hhat_factors_match_expm(self, n):
        rng = np.random.default_rng(70 + n)
        d = build_dilation(random_unbroken(rng, n))
        for x in (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n),
                  rng.normal(size=(2 * n, 3)) + 1j * rng.normal(size=(2 * n, 3))):
            for t in (0.3, 1.3):
                expected = scipy.linalg.expm(-1j * t * d.Hhat) @ x
                got = eigen_evolve(*d.hhat_eigh, t, x)
                assert got.shape == x.shape
                assert np.linalg.norm(got - expected) <= 1e-12

    def test_subspace_is_invariant(self):
        for sys in unbroken_corpus()[:4]:
            d = build_dilation(sys)
            n = d.dim
            psi = np.arange(1, n + 1).astype(complex)
            x = np.concatenate([psi, d.tau @ psi])
            y = dilated_evolution(d, 1.3, x)
            assert in_tau_subspace(y, d.tau)

    def test_rejects_non_member(self):
        sys = gunther_system(np.pi / 6)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 6))
        bad = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        assert not in_tau_subspace(bad, d.tau)
        with pytest.raises(errors.NotInSubspaceError):
            dilated_evolution(d, 1.0, bad)

    def test_wrong_length(self):
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        with pytest.raises(errors.DimensionMismatchError):
            dilated_evolution(d, 1.0, np.ones(3))

    def test_non_square_tau(self):
        with pytest.raises(errors.NonSquareError):
            in_tau_subspace(np.ones(4), np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_is_parse_error(self, value):
        # a NaN entry once passed the Y_tau membership test, whose norm
        # comparison is False for NaN, and evolved to a NaN vector
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        psi = np.array([1.0, 0.5j])
        x = np.concatenate([psi, d.tau @ psi])
        with pytest.raises(errors.ParseError, match="dilated_evolution: t must be finite"):
            dilated_evolution(d, value, x)
        x = x.copy()
        x[3] = value
        with pytest.raises(errors.ParseError, match="dilated_evolution: xhat must be finite"):
            dilated_evolution(d, 1.0, x)


class TestGraphState:
    """Unit states (psi; tau psi) / ||(psi; tau psi)|| of Y_tau."""

    def test_unit_norm_and_membership(self):
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        psi = np.array([1.0, 2.0 - 1j], dtype=complex)
        x = np.concatenate([psi, d.tau @ psi])
        x /= np.linalg.norm(x)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert in_tau_subspace(x, d.tau)
        assert embedding_membership(d.Hhat, d.H, x)

    def test_matches_psd_power_normalizer(self):
        rng = np.random.default_rng(44)
        for sys in unbroken_corpus():
            d = build_dilation(sys)
            psi = rng.normal(size=d.dim) + 1j * rng.normal(size=d.dim)
            raw = np.concatenate([psi, d.tau @ psi])
            expected = np.linalg.norm(psd_power(d.eta, 0.5) @ psi)
            assert abs(np.linalg.norm(raw) - expected) <= 1e-12 * expected

    def test_eta_norm_is_the_normalizer(self):
        # ||(psi; tau psi)||^2 = <psi, eta psi>, so the Euclidean normalizer
        # coincides with the eta-norm of psi
        sys = gunther_system(0.9)
        d = build_dilation(sys)
        psi = np.array([0.2, -1.1 + 0.4j], dtype=complex)
        sqrt_eta = psd_power(d.eta, 0.5)
        raw = np.concatenate([psi, d.tau @ psi])
        assert np.linalg.norm(raw) == pytest.approx(np.linalg.norm(sqrt_eta @ psi), abs=1e-12)

    def test_eta_norm_conservation_under_evolution(self):
        # ||sqrt(eta) psi(t)|| is constant, so the embedded state stays unit
        sys = gunther_system(np.pi / 4)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 4))
        psi = np.array([0.3, 0.7j], dtype=complex)
        x = np.concatenate([psi, d.tau @ psi])
        x /= np.linalg.norm(x)
        for t in (0.5, 1.0, 3.0):
            y = dilated_evolution(d, t, x)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-10)


class TestEmbeddingMembership:
    def test_members_accepted(self):
        rng = np.random.default_rng(43)
        for sys in unbroken_corpus()[:5]:
            d = build_dilation(sys)
            n = d.dim
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = np.concatenate([psi, d.tau @ psi])
            assert embedding_membership(d.Hhat, d.H, x)

    def test_generic_non_members_rejected(self):
        rng = np.random.default_rng(44)
        sys = gunther_system(np.pi / 6)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 6))
        hits = 0
        for _ in range(20):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            hits += embedding_membership(d.Hhat, d.H, x)
        assert hits == 0

    def test_shape_mismatch(self):
        sys = gunther_system(np.pi / 6)
        d = build_dilation(sys, eta=gunther_eta(np.pi / 6))
        with pytest.raises(errors.DimensionMismatchError):
            embedding_membership(d.Hhat, d.H, np.zeros(3))

    @pytest.mark.parametrize("name, where, value",
                             [("x", ..., np.nan), ("hhat", ..., np.nan), ("x", 2, np.inf), ("h", (0, 1), np.inf)])
    def test_non_finite_input_is_refused(self, name, where, value):
        # a NaN norm compares False with the tolerance, so unchecked such an
        # input would pass every power as a member
        d = build_dilation(gunther_system(np.pi / 6), eta=gunther_eta(np.pi / 6))
        args = {"hhat": np.array(d.Hhat), "h": np.array(d.H), "x": np.array([0.3, 0.7j, 0.1, -0.2])}
        args[name][where] = value
        with pytest.raises(errors.ParseError, match=f"embedding_membership: {name} must be finite") as info:
            embedding_membership(args["hhat"], args["h"], args["x"])
        assert info.value.exit_code == 2
