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

    @pytest.mark.parametrize("with_pair", [False, True])
    @pytest.mark.parametrize("sys", [unbroken_corpus()[0], broken_corpus()[0]], ids=["unbroken", "broken"])
    def test_one_eig_per_classify(self, sys, with_pair, eig_calls):
        classify(sys.H, sys.pt if with_pair else None)
        assert len(eig_calls) == 1

    def test_one_eig_per_stack(self, eig_calls):
        rng = np.random.default_rng(41)
        systems = [random_unbroken(rng, 3) for _ in range(3)]
        classify(np.array([s.H for s in systems]), [systems[0].pt, None, systems[2].pt])
        assert len(eig_calls) == 1

    def test_classify_goes_through_linalg_eig(self, monkeypatch):
        # the one eig entry point, so a wrapper around linalg.eig sees classify's call
        calls, eig = [], linalg.eig
        monkeypatch.setattr(ptcore, "eig", lambda a: calls.append(a.shape) or eig(a))
        classify(np.array([unbroken_corpus()[0].H] * 2))
        assert calls == [(2, 2, 2)]

    def test_one_condition_number(self, monkeypatch):
        # kappa(Psi) comes from one svdvals of the frame, with or without a pair
        calls = []
        svdvals = np.linalg.svdvals
        monkeypatch.setattr(np.linalg, "svdvals", lambda *a, **k: calls.append(1) or svdvals(*a, **k))
        for sys in (broken_2x2(), unbroken_corpus()[0]):
            for pt in (None, sys.pt):
                calls.clear()
                classify(sys.H, pt)
                assert len(calls) == 1


class TestPairless:
    """Without a PT pair, the spectrum alone gives the verdict (the corpus
    kinds are in ``TestClassify.test_corpus_kinds``)."""

    @pytest.mark.parametrize("h", [np.diag([1.0, 1j]), np.diag([1j, 2.0]), np.diag([1.0 + 1j, 1.0 + 1j])])
    def test_spectrum_not_conjugation_closed(self, h):
        c = classify(h)
        assert c.kind is Kind.NOT_PT_SYMMETRIC and c.eigenframe is None

    def test_conjugate_pair_and_real_eigenvalue(self):
        assert classify(np.diag([2.0, 1.0 - 1j, 1.0 + 1j])).kind is Kind.BROKEN_DIAGONALIZABLE

    def test_broken_spectrum_is_paired_once(self, monkeypatch):
        # the conjugation test runs once for a spectrum not all real, never for an all-real one
        calls = []
        closed = ptcore._conjugation_closed
        monkeypatch.setattr(ptcore, "_conjugation_closed", lambda lam: calls.append(1) or closed(lam))
        for sys, expected in ((broken_2x2(), 1), (unbroken_corpus()[0], 0)):
            calls.clear()
            classify(sys.H)
            assert len(calls) == expected

    def test_nested_list(self):
        c = classify([[1.0, 0.0], [0.0, 2.0]])
        assert c.kind is Kind.UNBROKEN and c.spectrum.dtype == complex


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

    def test_members_with_and_without_pairs_match_single_calls(self):
        # None stands for a member without a pair, which its spectrum alone judges;
        # diag(1, 2j, 3, 4) fails the identity pair, and without one 2j has no conjugate
        rng = np.random.default_rng(37)
        eye = np.eye(4, dtype=complex)
        unbroken, broken = random_unbroken(rng, 4), random_broken(rng, 4)
        h = [unbroken.H, unbroken.H, broken.H, broken.H, np.diag([1.0, 2j, 3.0, 4.0]), np.diag([1.0, 2j, 3.0, 4.0])]
        pts = [unbroken.pt, None, broken.pt, None, validate_pt_pair(eye, eye), None]
        stacked = classify(np.array(h), pts)
        assert [c.kind for c in stacked] == [Kind.UNBROKEN] * 2 + [Kind.BROKEN_DIAGONALIZABLE] * 2 + [
            Kind.NOT_PT_SYMMETRIC] * 2
        for c, hi, pt in zip(stacked, h, pts, strict=True):
            one = classify(hi, pt)
            assert c.kind is one.kind and c.h_norm == one.h_norm
            assert np.array_equal(c.spectrum, one.spectrum)

    def test_pair_count_must_match_the_stack(self):
        sys = gunther_system(np.pi / 6)
        with pytest.raises(errors.DimensionMismatchError, match="order mismatch"):
            classify(np.array([sys.H] * 3), [sys.pt, None])

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
    def test_input_is_checked_before_eig(self, stacked, monkeypatch):
        # classify checks H, naming itself, before its symmetry test and eig;
        # eig, the one entry point to the LAPACK pass, checks what it is given
        whos, check = [], linalg._require_square
        for module in (linalg, ptcore):
            monkeypatch.setattr(module, "_require_square",
                                lambda a, who, stack=False: whos.append(who) or check(a, who, stack))
        sys = gunther_system(np.pi / 6)
        c = classify(np.array([sys.H]), [sys.pt])[0] if stacked else classify(sys.H, sys.pt)
        assert whos == ["classify", "eig"] and c.kind is Kind.UNBROKEN

    def test_h_norm_is_the_frobenius_norm(self):
        for sys in unbroken_corpus() + broken_corpus():
            assert classify(sys.H, sys.pt).h_norm == np.linalg.norm(sys.H)
