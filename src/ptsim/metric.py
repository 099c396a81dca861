"""Metric operators: construction, verification, signatures, and the
scalar-sum (eta + eta^{-1} = t I) analysis with its 3x3 obstruction witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .linalg import (
    DEFAULT_TOL as TOL,
    _require_square,
    eigen_power,
    fro,
    is_hermitian,
    rel_scale,
)
from .ptcore import Classification, Kind, PTSystem, classify

__all__ = [
    "MetricOperator",
    "SignatureReport",
    "positive_metric",
    "verify_metric",
    "metric_signature",
    "scalar_sum_metric_2d",
    "verify_scalar_sum",
    "scalar_sum_obstruction_demo",
    "H3",
    "Q3",
]

# Upper-triangular witness with spectrum {1,2,3}: unbroken, yet no metric of
# the form eta + eta^{-1} = t I exists.
Q3 = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=complex)
H3 = np.array([[1, 1, 1], [0, 2, 1], [0, 0, 3]], dtype=complex)
# exact inverse of the unit upper-triangular Q3
_Q3_INV = np.array([[1, -1, 0], [0, 1, -1], [0, 0, 1]], dtype=complex)
_GRID_POINTS = 21  # per axis of the obstruction demo's grid of diagonal A


@dataclass(frozen=True)
class MetricOperator:
    """``eigh`` is (w, V), eta = V diag(w) V^dag with w ascending, when the
    constructor factored eta (``positive_metric``), else None."""

    eta: np.ndarray
    positive_definite: bool
    min_eigenvalue: float
    eigh: tuple | None = None


@dataclass(frozen=True)
class SignatureReport:
    epsilons: tuple
    frame: np.ndarray


def positive_metric(sys: PTSystem, classification: Classification | None = None) -> MetricOperator:
    """Canonical positive-definite metric eta = (Psi Psi^dag)^{-1}.

    Psi is the eigenframe with unit-norm columns; the output is one
    representative of the multi-dimensional metric family. A caller that
    has already classified sys passes that result, so H is factored once.
    One SVD Psi = X S Y^dag gives eta = X S^{-2} X^dag, kept as ``eigh``, and
    lambda_min = s_max^{-2}, which keeps its digits near an exceptional point.
    """
    c = classify(sys.H, sys.pt) if classification is None else classification
    if c.kind is not Kind.UNBROKEN:
        raise errors.NotUnbrokenError(f"positive_metric: classification is {c.kind.value}")
    psi = c.eigenframe / np.linalg.norm(c.eigenframe, axis=0, keepdims=True)
    x, s, _ = np.linalg.svd(psi)  # s descending, so s^{-2} ascending
    w = s**-2.0
    return MetricOperator(eigen_power(w, x, 1.0), bool(w[0] > TOL.psd_tol), float(w[0]), (w, x))


def _check_metric_equations(h, eta, who: str) -> tuple[float, float]:
    """Refuse an eta that is not Hermitian or does not satisfy H^dag eta = eta H,
    naming the caller ``who``; return (rel_scale(H), rel_scale(eta)).

    Positivity is left to the caller, which factors eta once in the form it
    needs: ``verify_metric`` takes its eigenvalues, ``build_dilation`` the
    eigh of eta - I.
    """
    if h.shape != eta.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise errors.DimensionMismatchError(f"{who}: order mismatch")
    h_scale, eta_scale = rel_scale(h), rel_scale(eta)
    if not fro(eta - eta.conj().T) <= TOL.eq_tol * eta_scale:
        raise errors.NotHermitianError(f"{who}: eta is not Hermitian")
    if fro(h.conj().T @ eta - eta @ h) > TOL.eq_tol * h_scale * eta_scale:
        raise errors.NotIntertwiningError(f"{who}: H^dag eta != eta H")
    return h_scale, eta_scale


def verify_metric(h, eta) -> MetricOperator:
    h = np.asarray(h, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    _check_metric_equations(h, eta, "verify_metric")
    w = np.linalg.eigvalsh(0.5 * (eta + eta.conj().T))
    return MetricOperator(eta, bool(w.min() > TOL.psd_tol), float(w.min()))


def metric_signature(sys: PTSystem, eta) -> SignatureReport:
    """Sign vector of the metric in the eigenframe (simple spectrum only)."""
    c = classify(sys.H, sys.pt)
    if c.kind is not Kind.UNBROKEN:
        raise errors.NotUnbrokenError("metric_signature: system is not unbroken")
    verify_metric(sys.H, eta)
    lam = c.spectrum
    scale = max(1.0, float(np.max(np.abs(lam))))
    if np.count_nonzero(np.abs(lam[:, None] - lam[None, :]) <= TOL.real_tol * scale) > len(lam):
        raise errors.DegenerateSpectrumUnsupportedError(
            "metric_signature: repeated eigenvalues are refused")
    psi = c.eigenframe
    gram = psi.conj().T @ np.asarray(eta, dtype=complex) @ psi
    off = gram - np.diag(np.diag(gram))
    if fro(off) > 1e-8 * rel_scale(gram):
        raise errors.NumericalFailureError("metric_signature: Gram matrix is not diagonal")
    diag = np.real(np.diag(gram))
    eps = tuple(1 if v > 0 else -1 for v in diag)
    frame = psi / np.sqrt(np.abs(diag))[None, :]
    return SignatureReport(eps, frame)


def scalar_sum_metric_2d(sys: PTSystem):
    """det-normalized metric of a 2x2 unbroken system, with eta + eta^{-1} = t I."""
    if sys.H.shape[0] != 2:
        raise errors.WrongDimensionError("scalar_sum_metric_2d: n must be 2")
    base = positive_metric(sys)
    det = np.linalg.det(base.eta).real
    eta = base.eta / np.sqrt(det)
    t = float(np.trace(eta).real)
    res = fro(eta + np.linalg.inv(eta) - t * np.eye(2))
    if res > TOL.eq_tol * max(1.0, t):
        raise errors.NumericalFailureError(f"scalar_sum_metric_2d: residual {res:.3e}")
    w = np.linalg.eigvalsh(eta)
    return MetricOperator(eta, True, float(w.min())), t


def verify_scalar_sum(eta):
    """t such that eta + eta^{-1} = t I, or None if no such t exists."""
    eta = _require_square(eta, "verify_scalar_sum")
    if not is_hermitian(eta):
        raise errors.NotHermitianError("verify_scalar_sum: eta is not Hermitian")
    w = np.linalg.eigvalsh(0.5 * (eta + eta.conj().T))
    if w.min() <= TOL.psd_tol:
        raise errors.NotPositiveDefiniteError("verify_scalar_sum: eta is not positive-definite")
    n = eta.shape[0]
    m = eta + np.linalg.inv(eta)
    t = float(np.trace(m).real) / n
    if fro(m - t * np.eye(n)) <= TOL.eq_tol * max(1.0, abs(t)):
        return t
    return None


def scalar_sum_obstruction_demo() -> dict:
    """Lemma-4 witness for H3: no positive metric achieves eta + eta^{-1} = t I.

    Every positive metric of H3 has the form Q^{-dag} A Q^{-1} with diagonal
    A > 0. The demo scans A over a log grid on [0.1, 10]^3 with
    ``_GRID_POINTS`` per axis, reports the best-case residual at the optimal t
    per sample, and verifies the exact obstruction: entry (1,3) of
    A Q^{-1} Q^{-dag} A + Q^dag Q is constantly 1, while (t A)_{13} = 0 for
    any diagonal A.

    No matrix is inverted: for A = diag(a), eta + eta^{-1} is the closed form
    p_1(a_1) + p_2(a_2) + p_3(a_3), with p_l(a) = a G_l + F_l / a,
    G_l = Q^{-dag} e_l e_l^dag Q^{-1} and F_l = Q e_l e_l^dag Q^dag.
    """
    qinv = _Q3_INV
    gram_inv = qinv @ qinv.conj().T  # Q^{-1} Q^{-dag}
    gram = Q3.conj().T @ Q3
    axis = np.geomspace(0.1, 10.0, _GRID_POINTS)

    # (A Q^{-1} Q^{-dag} A + Q^dag Q)_{13} depends on a1 and a3 only
    entry13 = np.abs(axis[:, None] * gram_inv[0, 2] * axis[None, :] + gram[0, 2])
    # g[l] = G_l and f[l] = F_l, and p(l) holds p_l at every grid value
    g = qinv.conj()[:, :, None] * qinv[:, None, :]
    f = Q3.T[:, :, None] * Q3.T.conj()[:, None, :]

    # p_l is Hermitian, so it is kept as its real diagonal d and its upper
    # off-diagonal entries u, each as 3 rows over the grid:
    # ||m - t I||_F^2 = sum (d_i - t)^2 + 2 sum |u_ij|^2
    def p(l):
        m = axis[:, None, None] * g[l] + f[l] / axis[:, None, None]
        return np.diagonal(m, axis1=1, axis2=2).real.T, m[:, [0, 0, 1], [1, 2, 2]].T

    # the grid^2 sums p_2 + p_3 are formed once; p_1 is added per value of a1,
    # which bounds the temporaries to _GRID_POINTS^2 samples
    (d1, u1), (d2, u2), (d3, u3) = p(0), p(1), p(2)
    d23 = (d2[:, :, None] + d3[:, None, :]).reshape(3, -1)
    u23 = (u2[:, :, None] + u3[:, None, :]).reshape(3, -1)
    min_sq = np.inf
    for k in range(_GRID_POINTS):
        d, u = d1[:, k, None] + d23, u1[:, k, None] + u23
        dev = d - (d[0] + d[1] + d[2]) / 3.0
        usq = u.real**2 + u.imag**2
        sq = dev[0] ** 2 + dev[1] ** 2 + dev[2] ** 2 + 2.0 * (usq[0] + usq[1] + usq[2])
        min_sq = min(min_sq, float(sq.min()))
    min_residual = math.sqrt(min_sq)

    return {
        "min_residual": min_residual,
        # A-independent, so reported at A = I
        "obstruction_entry_13": complex((gram_inv + gram)[0, 2]),
        "obstruction_entry_13_spread": float(entry13.max() - entry13.min()),
        "samples": _GRID_POINTS**3,
    }
