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
from .linalg import DEFAULT_TOL as TOL, _failures, _norms, _require_finite, _require_square, eig, fro, rel_scale

__all__ = ["PTPair", "PTSystem", "Kind", "Classification", "validate_pt_pair", "is_pt_symmetric", "classify"]


@dataclass(frozen=True, eq=False)
class PTPair:
    P: np.ndarray
    T: np.ndarray
    PT: np.ndarray


@dataclass(frozen=True, eq=False)
class PTSystem:
    """H with the PT pair its caller supplies, or with None: a system without
    a pair is judged by its spectrum alone, since a diagonalizable H whose
    spectrum is closed under conjugation is pseudo-Hermitian whether or not
    its antilinear symmetry is written down (Mostafazadeh, J. Math. Phys. 43,
    205 (2002))."""

    H: np.ndarray
    pt: PTPair | None


class Kind(Enum):
    UNBROKEN = "UnbrokenPT"
    BROKEN_DIAGONALIZABLE = "BrokenDiagonalizable"
    DEFECTIVE = "Defective"
    NOT_PT_SYMMETRIC = "NotPTSymmetric"


@dataclass(frozen=True, eq=False)
class Classification:
    """``condition_estimate`` is the 2-norm condition number of the eigenframe
    that ``eig`` computed, kept whether or not the frame is. ``h_norm`` is
    ||H||_F, the scale of the PT-symmetry test, kept for the later tests of H."""

    kind: Kind
    spectrum: np.ndarray
    eigenframe: np.ndarray | None
    condition_estimate: float
    h_norm: float


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


def _pt_commutator(hs, pts) -> np.ndarray:
    """H PT - PT conj(H) per member of a stack hs with a pair or None each
    (pts None: no pairs). A member without a pair is tested against PT = 0,
    which every H commutes with, so its spectrum alone decides."""
    m = np.array([np.zeros(hs.shape[1:], dtype=complex) if p is None else p.PT
                  for p in ([None] * len(hs) if pts is None else pts)])
    if hs.shape[-2] != hs.shape[-1] or m.shape != hs.shape:
        raise errors.DimensionMismatchError("is_pt_symmetric: order mismatch")
    return hs @ m - m @ hs.conj()


def _pt_verdict(hs, pts) -> tuple:
    """``is_pt_symmetric`` of a stack hs with a pair or None each, and ||H||_F per member."""
    commutator, h_norm = _norms(_pt_commutator(hs, pts), hs)
    return commutator <= TOL.eq_tol * np.maximum(1.0, h_norm), h_norm


def classify(h, pt: PTPair | None = None):
    """Unbroken/broken/defective verdict from the spectrum and eigenframe.

    A PT pair is optional: diagonalizability plus an all-real spectrum is a
    complete criterion for unbrokenness. If the spectrum is not closed under
    conjugation the matrix cannot be PT-symmetric at all. This is the
    package's only eig of H, which a supplied-metric dilation runs only to
    read H's eigenframe or to name a refusal's cause. A stack h (b, n, n),
    with pt None or a pair or None per member, gives b Classifications from
    one eig; H is checked for finiteness before the symmetry test and eig.
    """
    h = _require_square(h, "classify", stack=True)
    hs, pts = (h, pt) if h.ndim == 3 else (h[None], None if pt is None else [pt])
    symmetric, h_norm = _pt_verdict(hs, pts)
    d = eig(hs)
    lam = d.eigenvalues
    real = np.logical_and.reduce(np.abs(lam.imag) <= TOL.real_tol * np.maximum(1.0, np.abs(lam)), axis=-1)
    out = []
    for i, (sym, defective, unbroken, cond, norm) in enumerate(zip(
            symmetric.tolist(), d.defective.tolist(), real.tolist(), d.condition_estimate.tolist(), h_norm.tolist())):
        kind = (Kind.NOT_PT_SYMMETRIC if not sym else Kind.DEFECTIVE if defective else Kind.UNBROKEN if unbroken
                else Kind.BROKEN_DIAGONALIZABLE if _conjugation_closed(lam[i]) else Kind.NOT_PT_SYMMETRIC)
        frame = d.eigenvector_matrix[i] if kind in (Kind.UNBROKEN, Kind.BROKEN_DIAGONALIZABLE) else None
        out.append(Classification(kind, lam[i], frame, cond, norm))
    return out if h.ndim == 3 else out[0]


def _require_unbroken(cs, who: str) -> list:
    """The Classifications cs; NotUnbrokenError, naming ``who`` (and the member), at the first not UNBROKEN."""
    for i, where in _failures([c.kind is Kind.UNBROKEN for c in cs], who):
        raise errors.NotUnbrokenError(f"{where}: classification is {cs[i].kind.value}")
    return cs


def _conjugation_closed(spectrum) -> bool:
    """Has every complex eigenvalue a conjugate partner of its own?"""
    used = [False] * len(spectrum)
    for i, lam in enumerate(spectrum):
        tol = TOL.real_tol * max(1.0, abs(lam))
        if not used[i] and abs(lam.imag) > tol:
            match = next((j for j in range(len(spectrum))
                          if j != i and not used[j] and abs(spectrum[j] - np.conj(lam)) <= tol), None)
            if match is None:
                return False
            used[match] = True
        used[i] = True
    return True
