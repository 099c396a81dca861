import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptsim
from ptsim import Kind, classify, errors
from ptsim.linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Z,
    Tolerances,
    _has_clustered_rank_deficit,
    eig,
    eigen_power,
    matrix_exp,
    orthonormal_extension,
    psd_power,
)
from ptsim.metric import H3

from corpus import broken_corpus, defective_corpus, random_unbroken, unbroken_corpus
from oracle import expm_taylor, quadratic_eigs_2x2


def h0_matrix(alpha, s=1.0):
    return s * np.array(
        [[1j * np.sin(alpha), 1.0], [1.0, -1j * np.sin(alpha)]], dtype=complex
    )


def random_complex(rng, n, scale=1.0):
    return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2 * n)


def test_no_callable_takes_a_tol_argument():
    # no callable takes a tolerance: checks read the fixed table DEFAULT_TOL
    hits = []
    for info in pkgutil.iter_modules(ptsim.__path__):
        mod = importlib.import_module(f"ptsim.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                fn = getattr(member, "fget", None) or getattr(member, "func", None) or member
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn) and "tol" in inspect.signature(fn).parameters:
                    hits.append(f"{mod.__name__}.{name}" + (f".{attr}" if attr else ""))
    assert hits == []
    assert DEFAULT_TOL == Tolerances(eq_tol=1e-10, real_tol=1e-9, defect_cond=1e12, psd_tol=1e-12)


def test_module_cutoffs_are_in_the_table():
    # orthonormal_extension's rank test, the eigenvalue-cluster window and
    # rank test, a vanished experiment branch, a vanished simulation target,
    # post_select's unit-norm test and the two fixture tolerances of ``ptsim paper``
    assert (DEFAULT_TOL.rank_tol, DEFAULT_TOL.cluster_tol, DEFAULT_TOL.branch_tol, DEFAULT_TOL.target_tol,
            DEFAULT_TOL.unit_tol, DEFAULT_TOL.fixture_tol,
            DEFAULT_TOL.evolution_fixture_tol) == (1e-10, 1e-6, 1e-14, 1e-12, 1e-8, 1e-10, 1e-8)


class TestEig:
    def test_pauli_x(self):
        d = eig(SIGMA_X)
        assert sorted(np.real(d.eigenvalues)) == pytest.approx([-1.0, 1.0])
        assert not d.defective

    def test_h3_spectrum(self):
        d = eig(H3)
        assert sorted(np.real(d.eigenvalues)) == pytest.approx([1.0, 2.0, 3.0])
        assert not d.defective

    def test_h0_spectrum_vs_quadratic_oracle(self):
        h = h0_matrix(np.pi / 6)
        d = eig(h)
        expected = sorted(quadratic_eigs_2x2(h), key=lambda z: z.real)
        got = sorted(d.eigenvalues, key=lambda z: z.real)
        assert got == pytest.approx(expected, abs=1e-12)
        assert sorted(np.real(d.eigenvalues)) == pytest.approx(
            [-np.cos(np.pi / 6), np.cos(np.pi / 6)]
        )

    def test_nonsquare_rejected(self):
        with pytest.raises(errors.NonSquareError):
            eig(np.zeros((2, 3)))

    def test_condition_number_has_the_bits_of_cond(self):
        frames = eig(random_complex(np.random.default_rng(8), 6)[None]).eigenvector_matrix
        for h in (H3[None], h0_matrix(0.4)[None], frames):
            d = eig(h)
            assert np.array_equal(d.condition_estimate, np.linalg.cond(d.eigenvector_matrix))

    def test_singular_frame_is_infinitely_conditioned(self, monkeypatch):
        # an exactly dependent frame: kappa is inf, with no divide warning
        frame = np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=complex)
        monkeypatch.setattr(np.linalg, "eig", lambda a: (np.zeros((1, 2), dtype=complex), frame))
        d = eig(np.zeros((1, 2, 2)))
        assert d.condition_estimate[0] == np.inf and d.defective[0]

    @pytest.mark.parametrize("fn", [eig, matrix_exp])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_parse_error(self, fn, value):
        # bad input (exit 2), not LAPACK's "did not converge" (exit 5)
        with pytest.raises(errors.ParseError, match=f"{fn.__name__}: matrix must be finite"):
            fn(np.array([[1.0, value], [0.0, 2.0]]))

    def test_jordan_block_flagged_defective(self):
        assert eig(np.array([[0, 1], [0, 0]], dtype=complex)).defective

    def test_non_finite_output_names_the_member(self, monkeypatch):
        # LAPACK output with a NaN in the last member's frame: one verdict for
        # the stack, and the failing member named only in a longer stack
        lapack_eig = np.linalg.eig

        def nan_in_last_member(a):
            lam, psi = lapack_eig(a)
            psi[-1, 0, 0] = np.nan
            return lam, psi

        monkeypatch.setattr(np.linalg, "eig", nan_in_last_member)
        stack = np.array([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])], dtype=complex)
        for a, where in ((stack, "eig: member 1"), (stack[0], "eig"), (stack[:1], "eig")):
            with pytest.raises(errors.NumericalFailureError, match=f"^{where} produced non-finite output$"):
                eig(a)
        with pytest.raises(errors.NumericalFailureError, match="^eig: member 1 produced non-finite output$"):
            classify(stack)

    def test_residual_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_complex(rng, rng.integers(2, 6))
            d = eig(a)
            if d.defective:
                continue
            res = np.linalg.norm(
                a @ d.eigenvector_matrix - d.eigenvector_matrix @ np.diag(d.eigenvalues)
            )
            assert res <= 1e-10 * max(1.0, np.linalg.norm(a))


class TestClusterCheck:
    """eig's cluster check: one vectorized pass, the SVD only for close pairs."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []

        def counted(*args, _fn=np.linalg.svd, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_matches_the_greedy_loop(self):
        # the pairwise loop that the vectorized check replaced, kept as the reference
        def greedy(lam, psi, window):
            unassigned = list(range(len(lam)))
            while unassigned:
                i = unassigned.pop(0)
                cluster = [i] + [j for j in unassigned if abs(lam[i] - lam[j]) <= window]
                unassigned = [j for j in unassigned if j not in cluster]
                if len(cluster) > 1:
                    s = np.linalg.svd(psi[:, cluster], compute_uv=False)
                    if s[-1] <= 1e-6 * max(1.0, s[0]):
                        return True
            return False

        rng = np.random.default_rng(9)
        systems = unbroken_corpus() + broken_corpus() + defective_corpus()
        # a chain 0, 8e-7, 1.6e-6: the window joins neighbours but not the ends
        mats = [s.H for s in systems] + [np.eye(3), np.diag([1.0, 1.0 + 1e-7, 2.0]),
                                         np.diag([0.0, 8e-7, 1.6e-6]),
                                         np.array([[1.0, 1.0], [1e-14, 1.0]])]
        mats += [np.diag([1.0, 1.0, 1.0 + 5e-7, 3.0]) + 1e-9 * rng.normal(size=(4, 4))
                 for _ in range(5)]
        for h in mats:
            lam, psi = np.linalg.eig(np.asarray(h, dtype=complex))
            window = 1e-6 * max(1.0, float(np.max(np.abs(lam))))
            assert _has_clustered_rank_deficit(lam[None], psi[None])[0] == greedy(lam, psi, window)

    def test_perturbed_jordan_block_is_defective(self, svd_calls):
        # 1e-14 splits the eigenvalue by 2e-7, inside the cluster window; the
        # frame's condition (~1e7) is below defect_cond, so the cluster decides
        h = np.array([[1.0, 1.0], [1e-14, 1.0]], dtype=complex)
        d = eig(h)
        assert d.condition_estimate < DEFAULT_TOL.defect_cond
        assert d.defective and len(svd_calls) == 1
        assert classify(h).kind is Kind.DEFECTIVE

    def test_separated_spectrum_takes_no_svd(self, svd_calls):
        assert not eig(random_unbroken(np.random.default_rng(8), 16).H).defective
        assert svd_calls == []

    @pytest.mark.parametrize("h", [np.eye(3), np.diag([1.0, 1.0 + 1e-7, 2.0])])
    def test_close_eigenvalues_with_independent_vectors(self, h, svd_calls):
        assert not eig(h).defective
        assert len(svd_calls) == 1


class TestMatrixExp:
    def test_zero(self):
        assert matrix_exp(np.zeros((3, 3))) == pytest.approx(np.eye(3))

    def test_diagonal(self):
        got = matrix_exp(-1j * (np.pi / 2) * SIGMA_Z)
        assert got == pytest.approx(np.diag([-1j, 1j]), abs=1e-14)

    def test_taylor_oracle(self):
        a = -1j * h0_matrix(np.pi / 6)
        assert np.linalg.norm(matrix_exp(a) - expm_taylor(a, terms=30)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inverse_property(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, int(rng.integers(2, 5)))
        a = a / max(1.0, np.linalg.norm(a, 2) / 2.0)  # ||A|| <= 2
        prod = matrix_exp(a) @ matrix_exp(-a)
        assert np.linalg.norm(prod - np.eye(a.shape[0])) <= 1e-10

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_skew_hermitian_generator(self, n):
        # a skew-Hermitian generator -itK, against V e^{-itw} V^dag from
        # the eigh factors of K, a route that shares no code with expm
        rng = np.random.default_rng(n)
        k = random_complex(rng, n, scale=3.0)
        k = 0.5 * (k + k.conj().T)
        w, v = np.linalg.eigh(k)
        for t in (0.1, 1.0, 2.5):
            u = matrix_exp(-1j * t * k)
            assert np.linalg.norm(u - (v * np.exp(-1j * t * w)) @ v.conj().T) <= 1e-12
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-13


    @pytest.mark.parametrize("lam", [0.0, 0.7, -1.2 + 0.5j])
    def test_jordan_block(self, lam):
        # a defective A: e^{lam I + N} = e^lam (I + N) for the nilpotent N
        got = matrix_exp(np.array([[lam, 1.0], [0.0, lam]], dtype=complex))
        assert np.linalg.norm(got - np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]])) <= 1e-14


class TestPrincipalSqrt:
    def test_identity(self):
        assert psd_power(np.eye(4), 0.5) == pytest.approx(np.eye(4))

    def test_diag(self):
        assert psd_power(np.diag([4.0, 9.0]).astype(complex), 0.5) == pytest.approx(
            np.diag([2.0, 3.0])
        )

    def test_tau_closed_form(self):
        alpha = np.pi / 6
        eta = ptsim.gunther_eta(alpha)
        tau = psd_power(eta - np.eye(2), 0.5)
        expected = (1 / np.cos(alpha)) * np.array(
            [[1, -1j * np.sin(alpha)], [1j * np.sin(alpha), 1]], dtype=complex
        )
        assert tau == pytest.approx(expected, abs=1e-12)
        assert tau @ tau == pytest.approx(eta - np.eye(2), abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitianError):
            psd_power(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)

    def test_rejects_indefinite(self):
        with pytest.raises(errors.NotPSDError):
            psd_power(np.diag([1.0, -1.0]).astype(complex), 0.5)

    def test_stack_is_each_member(self):
        # one eigh of the stack, with each member's bits of its own call
        rng = np.random.default_rng(31)
        b = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        a = b @ b.conj().mT + np.eye(3)
        p = np.array([-0.5, 0.5]).reshape(2, 1, 1)
        stacked = psd_power(a, p)
        assert stacked.shape == (2, 5, 3, 3)
        for i in range(5):
            assert np.array_equal(stacked[:, i], psd_power(a[i], p[..., 0])), i

    @pytest.mark.parametrize("bad, error, text", [
        (np.array([[0, 1], [0, 0]], dtype=complex), errors.NotHermitianError, "input is not Hermitian"),
        (np.diag([1.0, -1.0]).astype(complex), errors.NotPSDError, "eigenvalue -1.000e+00 below -psd_tol"),
        (np.diag([1.0, 0.0]).astype(complex), errors.NotPositiveDefiniteError, "negative power of a singular matrix")])
    def test_refusal_names_the_member(self, bad, error, text):
        stack = np.array([np.eye(2, dtype=complex), bad, np.eye(2, dtype=complex)])
        with pytest.raises(error, match=f"^psd_power: member 1: {re.escape(text)}"):
            psd_power(stack, -0.5)
        with pytest.raises(error, match=f"^psd_power: {re.escape(text)}"):
            psd_power(bad, -0.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_square_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        b = random_complex(rng, n)
        a = b @ b.conj().T  # Hermitian PSD
        s = psd_power(a, 0.5)
        assert np.linalg.norm(s @ s - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(s - s.conj().T) <= 1e-12
        assert np.linalg.eigvalsh(s).min() >= -1e-12


class TestEigenPower:
    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("p", [0.5, -0.5, 1.0, -1.0])
    def test_column_scaling_equals_the_diag_product(self, n, p):
        # every entry of V diag(d) has one nonzero term, so scaling V's
        # columns gives the same bits as multiplying by diag(d)
        b = random_complex(np.random.default_rng(n), n)
        w, v = np.linalg.eigh(b @ b.conj().T + np.eye(n))
        s = v @ np.diag(w**p) @ v.conj().T
        assert np.array_equal(eigen_power(w, v, p), 0.5 * (s + s.conj().T))


class TestOrthonormalExtension:
    def test_e1_in_2d(self):
        q = orthonormal_extension([np.array([1.0, 0.0], dtype=complex)], 2)
        assert q == pytest.approx(np.eye(2))

    def test_diagonal_vector(self):
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        q = orthonormal_extension([v], 2)
        assert q[:, 0] == pytest.approx(v)
        assert abs(q[:, 1].conj() @ v) <= 1e-12
        assert np.linalg.norm(q[:, 1]) == pytest.approx(1.0)

    def test_e1_e3_in_4d(self):
        e = np.eye(4, dtype=complex)
        q = orthonormal_extension([e[:, 0], e[:, 2]], 4)
        comp = q[:, 2:]
        # completion must span {e2, e4}
        proj = comp @ comp.conj().T
        target = np.outer(e[:, 1], e[:, 1]) + np.outer(e[:, 3], e[:, 3])
        assert proj == pytest.approx(target, abs=1e-12)

    def test_dependent_input(self):
        v = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(errors.DependentInputError):
            orthonormal_extension([v, v], 2)

    def test_near_dependent_input(self):
        e = np.eye(8, dtype=complex)
        with pytest.raises(errors.DependentInputError):
            orthonormal_extension([e[:, 0], e[:, 3], e[:, 0] + 1e-12 * e[:, 5]], 8)

    @pytest.mark.parametrize("dim", [2, 8, 32, 64])
    def test_unitary_and_reproduces_orthonormal_input(self, dim):
        rng = np.random.default_rng(dim)
        basis, _ = np.linalg.qr(random_complex(rng, dim))
        k = max(1, dim // 3)
        q = orthonormal_extension(list(basis[:, :k].T), dim)
        assert np.linalg.norm(q.conj().T @ q - np.eye(dim)) <= 1e-13
        assert np.max(np.abs(q[:, :k] - basis[:, :k])) <= 1e-14

    def test_spans_non_orthonormal_input(self):
        rng = np.random.default_rng(4)
        v = random_complex(rng, 6)[:, :3]
        q = orthonormal_extension(list(v.T), 6)
        lead = q[:, :3]
        assert np.linalg.norm(lead @ lead.conj().T @ v - v) <= 1e-13

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        vs = list(random_complex(rng, 16)[:, :5].T)
        assert np.array_equal(orthonormal_extension(vs, 16), orthonormal_extension(vs, 16))
