import tracemalloc

import numpy as np
import pytest

from ptsim import (
    PTSystem,
    classify,
    errors,
    gunther_eta,
    gunther_system,
    positive_metric,
    scalar_sum_metric_2d,
    scalar_sum_obstruction_demo,
    validate_pt_pair,
    verify_metric,
)
from ptsim import metric
from ptsim.linalg import SIGMA_Z
from ptsim.metric import H3, Q3

from corpus import broken_corpus, defective_corpus, random_unbroken, unbroken_corpus
from oracle import hermitian_sylvester_nullity_bruteforce


def intertwining(h, eta):
    return np.linalg.norm(h.conj().T @ eta - eta @ h)


def sys_diag(*vals):
    n = len(vals)
    eye = np.eye(n, dtype=complex)
    return PTSystem(np.diag(vals).astype(complex), validate_pt_pair(eye, eye))


class TestPositiveMetric:
    def test_hermitian_case(self):
        m = positive_metric(sys_diag(1.0, -1.0))
        assert m.positive_definite
        assert intertwining(np.diag([1.0, -1.0]).astype(complex), m.eta) <= 1e-12

    def test_h0_and_paper_eta_direction(self):
        sys = gunther_system(np.pi / 6)
        m = positive_metric(sys)
        assert m.positive_definite
        assert intertwining(sys.H, m.eta) <= 1e-10
        # the Hermitian solutions of H^dag X = X H form a 2-dimensional
        # space, and the paper's eta(alpha) is one of them
        assert hermitian_sylvester_nullity_bruteforce(sys.H) == 2
        eta = gunther_eta(np.pi / 6)
        assert np.array_equal(eta, eta.conj().T)
        assert intertwining(sys.H, eta) <= 1e-10 * np.linalg.norm(eta)

    def test_h3_from_q_frame(self):
        eye = np.eye(3, dtype=complex)
        sys = PTSystem(H3, validate_pt_pair(eye, eye))
        m = positive_metric(sys)
        assert m.positive_definite
        assert intertwining(H3, m.eta) <= 1e-10
        # direct construction from the triangular frame obeys the same residual
        eta_q = np.linalg.inv(Q3 @ Q3.conj().T)
        assert intertwining(H3, eta_q) <= 1e-10

    def test_positivity_criterion_both_directions(self):
        for sys in unbroken_corpus():
            m = positive_metric(sys)
            assert m.positive_definite and m.min_eigenvalue > 0
            assert intertwining(sys.H, m.eta) <= 1e-10 * max(1.0, np.linalg.norm(sys.H))
        for sys in broken_corpus() + defective_corpus():
            with pytest.raises(errors.NotUnbrokenError):
                positive_metric(sys)

    def test_without_a_pair(self):
        # the spectrum alone decides, and the metric comes from the same eigenframe
        for sys in unbroken_corpus():
            m, pairless = positive_metric(sys), positive_metric(PTSystem(sys.H, None))
            assert np.array_equal(m.eta, pairless.eta) and m.min_eigenvalue == pairless.min_eigenvalue
        for sys in broken_corpus() + defective_corpus():
            with pytest.raises(errors.NotUnbrokenError):
                positive_metric(PTSystem(sys.H, None))

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_svd_metric_matches_inverse_gram(self, n):
        # eta = X S^-2 X^dag from the SVD of the unit-column frame, against
        # (Psi Psi^dag)^{-1}; both carry errors of order eps kappa(Psi)^2
        sys = random_unbroken(np.random.default_rng(70 + n), n)
        m = positive_metric(sys)
        frame = classify(sys.H, sys.pt).eigenframe
        psi = frame / np.linalg.norm(frame, axis=0, keepdims=True)
        ref = np.linalg.inv(psi @ psi.conj().T)
        ref = 0.5 * (ref + ref.conj().T)
        bound = 1e-12 * np.linalg.cond(psi) ** 2
        assert np.linalg.norm(m.eta - ref) <= bound * np.linalg.norm(ref)
        lam_min = np.linalg.eigvalsh(ref)[0]
        assert abs(m.min_eigenvalue - lam_min) <= bound * lam_min
        w, v = m.eigh
        assert np.all(np.diff(w) >= 0) and w[0] == m.min_eigenvalue
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12 * n
        assert np.linalg.norm((v * w) @ v.conj().T - m.eta) <= 1e-12 * np.linalg.norm(m.eta)

class TestVerifyMetric:
    def test_sigma_z_identity(self):
        m = verify_metric(SIGMA_Z, np.eye(2))
        assert m.positive_definite

    def test_h0_eta_eigenvalues(self):
        alpha = np.pi / 6
        m = verify_metric(gunther_system(alpha).H, gunther_eta(alpha))
        assert m.positive_definite
        assert m.min_eigenvalue == pytest.approx(2.0 / (1.0 + np.sin(alpha)))
        assert m.min_eigenvalue == pytest.approx(4.0 / 3.0)

    def test_indefinite_metric(self):
        # Hermitian and intertwining, but not positive
        m = verify_metric(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]))
        assert not m.positive_definite
        assert m.min_eigenvalue == pytest.approx(-1.0)

    def test_order_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            verify_metric(SIGMA_Z, np.eye(3))

    def test_not_intertwining(self):
        with pytest.raises(errors.NotIntertwiningError):
            verify_metric(gunther_system(np.pi / 6).H, SIGMA_Z)

    def test_not_hermitian(self):
        with pytest.raises(errors.NotHermitianError):
            verify_metric(SIGMA_Z, np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["H", "eta"])
    def test_non_finite_input_is_parse_error(self, name, value):
        # a NaN H once passed every residual test; a NaN eta read as not Hermitian
        alpha = np.pi / 6
        args = {"H": gunther_system(alpha).H.copy(), "eta": gunther_eta(alpha)}
        args[name][0, 0] = value
        with pytest.raises(errors.ParseError, match=f"verify_metric: {name} must be finite"):
            verify_metric(args["H"], args["eta"])


class TestScalarSum2d:
    def test_sigma_z(self):
        m, t = scalar_sum_metric_2d(PTSystem(SIGMA_Z, validate_pt_pair(np.eye(2), np.eye(2))))
        assert t == pytest.approx(2.0)
        assert m.eta == pytest.approx(np.eye(2), abs=1e-10)

    def test_h0_construction(self):
        sys = gunther_system(np.pi / 6)
        m, t = scalar_sum_metric_2d(sys)
        assert np.linalg.det(m.eta).real == pytest.approx(1.0, abs=1e-10)
        assert t == pytest.approx(np.trace(m.eta).real, abs=1e-10)
        assert np.linalg.norm(m.eta + np.linalg.inv(m.eta) - t * np.eye(2)) <= 1e-10
        assert t >= 2.0

    def test_paper_eta_normalization(self):
        # det-normalizing the printed eta(alpha) also satisfies the identity;
        # its eigenvalues are sqrt(3) and 1/sqrt(3), so t = 4/sqrt(3)
        alpha = np.pi / 6
        eta = gunther_eta(alpha)
        det = np.linalg.det(eta).real
        assert det == pytest.approx(16.0 / 3.0)
        eta_n = eta / np.sqrt(det)
        m = eta_n + np.linalg.inv(eta_n)
        t = np.trace(m).real / 2.0
        assert np.linalg.norm(m - t * np.eye(2)) <= 1e-10
        assert t == pytest.approx(4.0 / np.sqrt(3.0), abs=1e-12)

    def test_wrong_dimension(self):
        eye = np.eye(3, dtype=complex)
        with pytest.raises(errors.WrongDimensionError):
            scalar_sum_metric_2d(PTSystem(np.diag([1.0, 2.0, 3.0]).astype(complex),
                                          validate_pt_pair(eye, eye)))

    def test_random_corpus(self):
        rng = np.random.default_rng(13)
        from corpus import random_unbroken

        for _ in range(20):
            sys = random_unbroken(rng, 2)
            m, t = scalar_sum_metric_2d(sys)
            assert np.linalg.norm(m.eta + np.linalg.inv(m.eta) - t * np.eye(2)) <= 1e-10
            w = np.linalg.eigvalsh(m.eta)
            assert t == pytest.approx(w[0] + 1.0 / w[0], abs=1e-8)


class TestObstructionDemo:
    def test_report(self):
        demo = scalar_sum_obstruction_demo()
        assert demo["obstruction_entry_13"] == 1.0 + 0.0j
        assert demo["obstruction_entry_13_spread"] == 0.0
        assert demo["min_residual"] > 0.1
        assert demo["samples"] == 21**3

    def test_default_grid_minimum(self):
        # the value a scan that inverts each sampled metric gives
        assert scalar_sum_obstruction_demo()["min_residual"] == pytest.approx(0.245330011402608, rel=1e-15)

    def test_peak_memory_stays_chunked(self):
        # one stacked batch of all 21^3 samples peaks at about 3 MiB
        scalar_sum_obstruction_demo()
        tracemalloc.start()
        try:
            scalar_sum_obstruction_demo()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_real_form_equals_the_complex_matrix_scan(self):
        # the same chunked scan on the complex 3x3 sums m = p_1 + p_2 + p_3,
        # with numpy's Frobenius norm: the minimum is the same double
        qinv, axis = metric._Q3_INV, np.geomspace(0.1, 10.0, metric._GRID_POINTS)
        g = qinv.conj()[:, :, None] * qinv[:, None, :]
        f = Q3.T[:, :, None] * Q3.T.conj()[:, None, :]
        p = [axis[:, None, None] * g[l] + f[l] / axis[:, None, None] for l in range(3)]
        p23 = (p[1][:, None] + p[2][None, :]).reshape(-1, 3, 3)
        best = np.inf
        for p1 in p[0]:
            m = p1 + p23
            t = np.trace(m, axis1=1, axis2=2).real / 3.0
            best = min(best, float(np.linalg.norm(m - t[:, None, None] * np.eye(3), axis=(1, 2)).min()))
        assert scalar_sum_obstruction_demo()["min_residual"] == best

    def test_matches_per_sample_loop(self):
        # reference: the scan one diagonal A at a time
        qinv = np.linalg.inv(Q3)
        axis = np.geomspace(0.1, 10.0, 21)
        best = np.inf
        for a1 in axis:
            for a2 in axis:
                for a3 in axis:
                    eta = qinv.conj().T @ np.diag([a1, a2, a3]) @ qinv
                    m = eta + np.linalg.inv(eta)
                    best = min(best, np.linalg.norm(m - np.trace(m).real / 3.0 * np.eye(3)))
        demo = scalar_sum_obstruction_demo()
        assert demo["samples"] == 21**3
        assert demo["min_residual"] == pytest.approx(best, rel=1e-12)

    def test_identity_sample(self):
        qinv = np.linalg.inv(Q3)
        eta = qinv.conj().T @ qinv
        m = eta + np.linalg.inv(eta)
        t = np.trace(m).real / 3.0
        assert np.linalg.norm(m - t * np.eye(3)) > 0.1

    def test_extended_h4_coupling_vanishes(self):
        # appending a spectrally separated level forces the coupling block of
        # every metric to vanish: the block-diagonal solutions, H3's 3 and the
        # new level's 1, already fill the whole solution space
        alpha0 = 10.0
        h4 = np.zeros((4, 4), dtype=complex)
        h4[:3, :3] = H3
        h4[3, 3] = alpha0
        assert hermitian_sylvester_nullity_bruteforce(H3) == 3
        assert hermitian_sylvester_nullity_bruteforce(h4) == 4
