"""PT operator pairs, symmetry validation and unbroken/broken classification.

Conventions: T is the representation matrix of the anti-linear time-reversal
operator, so its action on a vector v is T @ conj(v). The product operator PT
is likewise anti-linear with matrix P @ T.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import errors
from .linalg import DEFAULT_TOL as TOL, _eig, _norms, _require_finite, _require_square, fro, rel_scale

__all__ = ["PTPair", "PTSystem", "Kind", "Classification", "validate_pt_pair", "is_pt_symmetric", "classify"]


@dataclass(frozen=True, eq=False)
class PTPair:
    P: np.ndarray
    T: np.ndarray
    PT: np.ndarray

    @property
    def dim(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True, eq=False)
class PTSystem:
    H: np.ndarray
    pt: PTPair

    @staticmethod
    def from_hamiltonian(h) -> "PTSystem":
        """Build a PT pair for a diagonalizable H from its eigenframe.

        Takes P = I and T = Psi K conj(Psi^{-1}), which is a valid
        time-reversal matrix whenever the spectrum is closed under
        conjugation. K swaps the eigenvectors of each conjugate pair, so T
        is Psi[:, swapped] conj(Psi^{-1})[order, :]: one inv of the frame
        that ``classify`` kept, whose kappa(Psi) it has already held to
        ``defect_cond``.
        """
        c = classify(h)
        if c.kind is Kind.DEFECTIVE:
            raise errors.DefectiveInputError("from_hamiltonian: H is defective")
        if c.kind is Kind.NOT_PT_SYMMETRIC:
            raise errors.NotPTSymmetricError("from_hamiltonian: spectrum not conjugation-closed")
        pairs, reals = c.pairing or ([], list(range(len(c.spectrum))))
        order = [i for pair in pairs for i in pair] + reals
        swapped = [i for pair in pairs for i in pair[::-1]] + reals
        psi = c.eigenframe
        ptm = psi[:, swapped] @ np.linalg.inv(psi).conj()[order, :]
        pair = validate_pt_pair(np.eye(len(c.spectrum), dtype=complex), ptm)
        return PTSystem(np.asarray(h, dtype=complex), pair)


class Kind(Enum):
    UNBROKEN = "UnbrokenPT"
    BROKEN_DIAGONALIZABLE = "BrokenDiagonalizable"
    DEFECTIVE = "Defective"
    NOT_PT_SYMMETRIC = "NotPTSymmetric"


@dataclass(frozen=True, eq=False)
class Classification:
    """``condition_estimate`` is the 2-norm condition number of the eigenframe
    that ``eig`` computed, kept whether or not the frame is. ``h_norm`` is
    ||H||_F, the scale of the PT-symmetry test, kept for the later tests of H.
    ``pairing`` is ``_pair_spectrum`` of a spectrum not all real, else None."""

    kind: Kind
    spectrum: np.ndarray
    eigenframe: np.ndarray | None
    condition_estimate: float
    h_norm: float
    pairing: tuple | None = None


def validate_pt_pair(p, t) -> PTPair:
    p = np.asarray(p, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if p.shape != t.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise errors.DimensionMismatchError("validate_pt_pair: P, T must be square of equal order")
    _require_finite("validate_pt_pair", P=p, T=t)
    n = p.shape[0]
    eye = np.eye(n)
    if fro(p @ p - eye) > TOL.eq_tol * rel_scale(p @ p):
        raise errors.NotInvolutoryPError("P^2 != I")
    if fro(t @ t.conj() - eye) > TOL.eq_tol * rel_scale(t @ t.conj()):
        raise errors.NotInvolutoryTError("T conj(T) != I")
    if fro(p @ t - t @ p.conj()) > TOL.eq_tol * max(rel_scale(p), rel_scale(t)):
        raise errors.NonCommutingError("PT != T conj(P)")
    return PTPair(p, t, p @ t)


def is_pt_symmetric(h, pt: PTPair) -> bool:
    """H PT = PT conj(H) within eq_tol; a verdict per member of a stack h (b, n, n) with a pair each."""
    h = np.asarray(h, dtype=complex)
    return _pt_verdict(h, pt)[0] if h.ndim == 3 else bool(_pt_verdict(h[None], [pt])[0][0])


def _pt_verdict(hs, pts) -> tuple:
    """``is_pt_symmetric`` of a stack hs with a pair each, and ||H||_F per member."""
    m = np.array([p.PT for p in pts])
    if hs.shape[-2] != hs.shape[-1] or m.shape != hs.shape:
        raise errors.DimensionMismatchError("is_pt_symmetric: order mismatch")
    commutator, h_norm = _norms(hs @ m - m @ hs.conj(), hs)
    return commutator <= TOL.eq_tol * np.maximum(1.0, h_norm), h_norm


def classify(h, pt: PTPair | None = None):
    """Unbroken/broken/defective verdict from the spectrum and eigenframe.

    A PT pair is optional: diagonalizability plus an all-real spectrum is a
    complete criterion for unbrokenness. If the spectrum is not closed under
    conjugation the matrix cannot be PT-symmetric at all. This is the
    module's only eig of H; from_hamiltonian reads it. A stack h (b, n, n),
    with pt None or a pair per member, gives b Classifications from one eig;
    H is checked for finiteness once, before the symmetry test and eig.
    """
    h = _require_square(h, "classify", stack=True)
    hs, pts = (h, pt) if h.ndim == 3 else (h[None], None if pt is None else [pt])
    symmetric, h_norm = (np.ones(len(hs), dtype=bool), _norms(hs)[0]) if pts is None else _pt_verdict(hs, pts)
    d = _eig(hs)
    lam = d.eigenvalues
    real = np.logical_and.reduce(np.abs(lam.imag) <= TOL.real_tol * np.maximum(1.0, np.abs(lam)), axis=-1)
    out = []
    for i, (sym, defective, unbroken, cond, norm) in enumerate(zip(
            symmetric.tolist(), d.defective.tolist(), real.tolist(), d.condition_estimate.tolist(), h_norm.tolist())):
        pairing = None if not sym or defective or unbroken else _pair_spectrum(lam[i])
        kind = (Kind.NOT_PT_SYMMETRIC if not sym else Kind.DEFECTIVE if defective else Kind.UNBROKEN if unbroken
                else Kind.NOT_PT_SYMMETRIC if pairing is None else Kind.BROKEN_DIAGONALIZABLE)
        frame = d.eigenvector_matrix[i] if kind in (Kind.UNBROKEN, Kind.BROKEN_DIAGONALIZABLE) else None
        out.append(Classification(kind, lam[i], frame, cond, norm, pairing))
    return out if h.ndim == 3 else out[0]


def _pair_spectrum(spectrum):
    """Indices of conjugate pairs (Im > 0 first) and of real eigenvalues;
    None if a complex eigenvalue has no conjugate partner."""
    pairs, reals = [], []
    used = [False] * len(spectrum)
    for i, lam in enumerate(spectrum):
        if used[i]:
            continue
        if abs(lam.imag) <= TOL.real_tol * max(1.0, abs(lam)):
            reals.append(i)
            used[i] = True
            continue
        match = None
        for j in range(len(spectrum)):
            if j == i or used[j]:
                continue
            if abs(spectrum[j] - np.conj(lam)) <= TOL.real_tol * max(1.0, abs(lam)):
                match = j
                break
        if match is None:
            return None
        used[i] = used[match] = True
        if lam.imag > 0:
            pairs.append((i, match))
        else:
            pairs.append((match, i))
    return pairs, reals

