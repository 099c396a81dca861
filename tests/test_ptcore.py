import numpy as np
import pytest

from ptsim import (
    Kind,
    PTSystem,
    classify,
    errors,
    gunther_system,
    is_pt_symmetric,
    linalg,
    ptcore,
    validate_pt_pair,
)
from ptsim.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from ptsim.metric import H3, Q3

from corpus import broken_corpus, defective_corpus, random_broken, random_defective, random_unbroken, unbroken_corpus

EYE2 = np.eye(2, dtype=complex)


def broken_2x2():
    h = np.array([[2j, 1], [1, -2j]], dtype=complex)
    pair = validate_pt_pair(SIGMA_X, EYE2)
    return PTSystem(h, pair)


class TestValidatePTPair:
    def test_identity_pair(self):
        pair = validate_pt_pair(EYE2, EYE2)
        assert pair.PT == pytest.approx(EYE2)

    def test_sigma_x_parity(self):
        pair = validate_pt_pair(SIGMA_X, EYE2)
        assert pair.PT == pytest.approx(SIGMA_X)

    def test_sigma_y_time_reversal_rejected(self):
        # sigma_y conj(sigma_y) = -I
        with pytest.raises(errors.NotInvolutoryTError):
            validate_pt_pair(SIGMA_X, SIGMA_Y)

    def test_non_involutory_p(self):
        with pytest.raises(errors.NotInvolutoryPError):
            validate_pt_pair(2 * EYE2, EYE2)

    def test_non_commuting_pair(self):
        # both involutory, but sigma_z sigma_x - sigma_x sigma_z = 2i sigma_y
        with pytest.raises(errors.NonCommutingError, match="PT != T conj") as exc:
            validate_pt_pair(SIGMA_Z, SIGMA_X)
        assert exc.value.exit_code == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pair_is_parse_error(self, value):
        # a NaN P once passed all three residual tests
        bad = SIGMA_X.copy()
        bad[1, 1] = value
        with pytest.raises(errors.ParseError, match="validate_pt_pair: P must be finite"):
            validate_pt_pair(bad, EYE2)
        with pytest.raises(errors.ParseError, match="validate_pt_pair: T must be finite"):
            validate_pt_pair(SIGMA_X, bad)


class TestIsPTSymmetric:
    def test_real_symmetric_identity_pair(self):
        pair = validate_pt_pair(EYE2, EYE2)
        h = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
        assert is_pt_symmetric(h, pair)

    def test_h0_family(self):
        pair = validate_pt_pair(SIGMA_X, EYE2)
        for alpha in (0.3, np.pi / 6, 1.2):
            for s in (0.5, 1.0, 2.0):
                assert is_pt_symmetric(gunther_system(alpha, s).H, pair)

    def test_imaginary_diagonal_fails(self):
        pair = validate_pt_pair(EYE2, EYE2)
        assert not is_pt_symmetric(np.diag([1j, 1j]), pair)


class TestClassify:
    @pytest.mark.parametrize("with_pair", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_parse_error(self, value, with_pair):
        # refused before the PT-symmetry residual and before LAPACK
        sys = gunther_system(np.pi / 6)
        h = sys.H.copy()
        h[0, 1] = value
        with pytest.raises(errors.ParseError, match="classify: matrix must be finite"):
            classify(h, sys.pt if with_pair else None)

    def test_h0_unbroken(self):
        sys = gunther_system(np.pi / 6)
        c = classify(sys.H, sys.pt)
        assert c.kind is Kind.UNBROKEN
        assert sorted(np.real(c.spectrum)) == pytest.approx(
            [-np.cos(np.pi / 6), np.cos(np.pi / 6)]
        )

    def test_h3_unbroken(self):
        c = classify(H3, validate_pt_pair(np.eye(3), np.eye(3)))
        assert c.kind is Kind.UNBROKEN
        assert sorted(np.real(c.spectrum)) == pytest.approx([1.0, 2.0, 3.0])

    def test_broken_2x2(self):
        sys = broken_2x2()
        c = classify(sys.H, sys.pt)
        assert c.kind is Kind.BROKEN_DIAGONALIZABLE
        assert sorted(np.imag(c.spectrum)) == pytest.approx([-np.sqrt(3), np.sqrt(3)])

    def test_corpus_kinds(self):
        # with and without the pair: the spectrum alone decides these
        for corpus, kind in ((unbroken_corpus, Kind.UNBROKEN),
                             (broken_corpus, Kind.BROKEN_DIAGONALIZABLE),
                             (defective_corpus, Kind.DEFECTIVE)):
            for sys in corpus():
                assert classify(sys.H, sys.pt).kind is kind
                assert classify(sys.H).kind is kind

    def test_not_pt_symmetric_kind(self):
        pair = validate_pt_pair(EYE2, EYE2)
        c = classify(np.diag([1j, 2.0]), pair)
        assert c.kind is Kind.NOT_PT_SYMMETRIC

    def test_similarity_invariance(self):
        rng = np.random.default_rng(5)
        samples = [gunther_system(np.pi / 6).H, broken_2x2().H, H3]
        for h in samples:
            base = classify(h)
            for _ in range(5):
                r = rng.normal(size=h.shape)
                while np.linalg.cond(r) > 50:
                    r = rng.normal(size=h.shape)
                moved = classify(r @ h @ np.linalg.inv(r))
                assert moved.kind is base.kind
                key = lambda z: (round(z.real, 6), round(z.imag, 6))
                assert sorted(moved.spectrum, key=key) == pytest.approx(
                    sorted(base.spectrum, key=key), abs=1e-7
                )


class TestFactorizations:
    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counted(*args, _fn=np.linalg.eig, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counted)
        return calls

    @pytest.mark.parametrize("sys", [unbroken_corpus()[0], broken_corpus()[0]],
                             ids=["unbroken", "broken"])
    def test_one_eig_per_hamiltonian(self, sys, eig_calls):
        # classify runs the one eig; from_hamiltonian reads it
        PTSystem.from_hamiltonian(sys.H)
        assert len(eig_calls) == 1


class TestClassifyStack:
    def test_members_match_single_calls(self):
        # one verdict per member of a mixed stack, as each would get alone
        rng = np.random.default_rng(31)
        systems = [random_unbroken(rng, 4), random_broken(rng, 4), random_defective(rng, 4)]
        eye = np.eye(4, dtype=complex)
        h = [s.H for s in systems] + [np.diag([1.0, 2j, 3.0, 4.0])]
        pts = [s.pt for s in systems] + [validate_pt_pair(eye, eye)]
        stacked = classify(np.array(h), pts)
        assert [c.kind for c in stacked] == [Kind.UNBROKEN, Kind.BROKEN_DIAGONALIZABLE, Kind.DEFECTIVE,
                                             Kind.NOT_PT_SYMMETRIC]
        for c, hi, pt in zip(stacked, h, pts, strict=True):
            one = classify(hi, pt)
            assert c.kind is one.kind and c.condition_estimate == one.condition_estimate
            assert np.array_equal(c.spectrum, one.spectrum)
            assert (c.eigenframe is None) == (one.eigenframe is None)
            assert c.eigenframe is None or np.array_equal(c.eigenframe, one.eigenframe)

    def test_non_finite_member_is_named(self):
        h = np.array([np.eye(2), [[1.0, np.nan], [0.0, 2.0]]])
        with pytest.raises(errors.ParseError, match="^classify: member 1: matrix must be finite$"):
            classify(h)

    def test_non_finite_member_with_pairs_is_named(self):
        # refused before the PT-symmetry residual of the stack
        sys = gunther_system(np.pi / 6)
        h = np.array([sys.H, sys.H, sys.H])
        h[2, 1, 0] = np.inf
        with pytest.raises(errors.ParseError, match="^classify: member 2: matrix must be finite$"):
            classify(h, [sys.pt] * 3)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_input_is_checked_once(self, stacked, monkeypatch):
        # classify checks H and hands the checked stack to eig's LAPACK pass,
        # which does not check it again
        whos, check = [], linalg._require_square
        for module in (linalg, ptcore):
            monkeypatch.setattr(module, "_require_square",
                                lambda a, who, stack=False: whos.append(who) or check(a, who, stack))
        sys = gunther_system(np.pi / 6)
        c = classify(np.array([sys.H]), [sys.pt])[0] if stacked else classify(sys.H, sys.pt)
        assert whos == ["classify"] and c.kind is Kind.UNBROKEN

    def test_h_norm_is_the_frobenius_norm(self):
        for sys in unbroken_corpus() + broken_corpus():
            assert classify(sys.H, sys.pt).h_norm == np.linalg.norm(sys.H)


class TestFromHamiltonian:
    def test_real_diagonal(self):
        # an orthonormal real eigenframe gives T = I
        sys = PTSystem.from_hamiltonian(np.diag([1.0, 2.0, 3.0]))
        assert sys.pt.PT == pytest.approx(np.eye(3), abs=1e-12)
        assert classify(sys.H, sys.pt).kind is Kind.UNBROKEN

    def test_broken_keeps_its_kind(self):
        # a complex-conjugate pair is swapped by the built T, so H stays
        # PT-symmetric and classifies as broken under its new pair
        for sys in broken_corpus():
            built = PTSystem.from_hamiltonian(sys.H)
            assert is_pt_symmetric(built.H, built.pt)
            assert classify(built.H, built.pt).kind is Kind.BROKEN_DIAGONALIZABLE

    def test_broken_spectrum_is_paired_once(self, monkeypatch):
        # the pairing that told broken from not PT-symmetric in classify is
        # the one the pair is built from; an all-real spectrum needs none
        calls = []
        pair = ptcore._pair_spectrum
        monkeypatch.setattr(ptcore, "_pair_spectrum", lambda lam: calls.append(1) or pair(lam))
        for sys, expected in ((broken_2x2(), 1), (unbroken_corpus()[0], 0)):
            calls.clear()
            PTSystem.from_hamiltonian(sys.H)
            assert len(calls) == expected

    def test_defective_refused(self):
        with pytest.raises(errors.DefectiveInputError):
            PTSystem.from_hamiltonian(defective_corpus()[0].H)

    def test_not_pt_symmetric_refused(self):
        with pytest.raises(errors.NotPTSymmetricError):
            PTSystem.from_hamiltonian(np.diag([1.0, 1j]))

    def test_nested_list(self):
        # a list classifies like an array, and the pair is built from its order
        sys = PTSystem.from_hamiltonian([[1.0, 0.0], [0.0, 2.0]])
        assert isinstance(sys.H, np.ndarray) and sys.H.dtype == complex
        assert sys.pt.PT == pytest.approx(np.eye(2), abs=1e-12)


class TestConstructPT:
    """PT = Psi K conj(Psi^{-1}) as from_hamiltonian builds it from H's eigenframe."""

    def test_identity(self):
        # a diagonal real H has the frame I, so K = I gives PT = I
        assert PTSystem.from_hamiltonian(np.diag([1.0, 2.0, 3.0])).pt.PT == pytest.approx(np.eye(3))

    def test_h3_frame(self):
        # H3's eigenframe is the unit-triangular Q3 up to column scaling
        pair = PTSystem.from_hamiltonian(H3).pt
        t, ptm = pair.T, pair.PT
        assert t @ t.conj() == pytest.approx(np.eye(3), abs=1e-10)
        assert H3 @ ptm == pytest.approx(ptm @ H3.conj(), abs=1e-10)

    def test_real_frame_collapses(self):
        # a real H with a real spectrum has a real frame: PT = Psi Psi^{-1} = I
        rng = np.random.default_rng(2)
        psi = rng.normal(size=(3, 3))
        while np.linalg.cond(psi) > 50:
            psi = rng.normal(size=(3, 3))
        h = psi @ np.diag([1.0, 2.0, 3.5]) @ np.linalg.inv(psi)
        assert PTSystem.from_hamiltonian(h).pt.PT == pytest.approx(np.eye(3), abs=1e-12)

    def test_round_trip_gives_valid_pt(self):
        # the pair from_hamiltonian builds, conjugate pairs swapped
        for sys in unbroken_corpus()[:4] + [broken_2x2()]:
            ptm = PTSystem.from_hamiltonian(sys.H).pt.PT
            assert ptm @ ptm.conj() == pytest.approx(np.eye(ptm.shape[0]), abs=1e-8)
            res = sys.H @ ptm - ptm @ sys.H.conj()
            assert np.linalg.norm(res) <= 1e-8 * max(1.0, np.linalg.norm(sys.H))

    def test_one_condition_number(self, monkeypatch):
        # classify's kappa(Psi), from one svdvals of the frame, is the only
        # one: the pair is not checked twice
        calls = []
        svdvals = np.linalg.svdvals
        monkeypatch.setattr(np.linalg, "svdvals", lambda *a, **k: calls.append(1) or svdvals(*a, **k))
        for sys in (broken_2x2(), unbroken_corpus()[0]):
            calls.clear()
            PTSystem.from_hamiltonian(sys.H)
            assert len(calls) == 1
