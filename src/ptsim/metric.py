"""Metric operators: construction, verification, and the
scalar-sum (eta + eta^{-1} = t I) analysis with its 3x3 obstruction witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .linalg import DEFAULT_TOL as TOL, _failures, _norms, _require_finite, eigen_power, fro
from .ptcore import Classification, PTSystem, _require_unbroken, classify

__all__ = ["MetricOperator", "positive_metric", "verify_metric", "scalar_sum_metric_2d", "scalar_sum_obstruction_demo",
           "H3", "Q3"]

# Upper-triangular witness with spectrum {1,2,3}: unbroken, yet no metric of
# the form eta + eta^{-1} = t I exists.
Q3 = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=complex)
H3 = np.array([[1, 1, 1], [0, 2, 1], [0, 0, 3]], dtype=complex)
# exact inverse of the unit upper-triangular Q3
_Q3_INV = np.array([[1, -1, 0], [0, 1, -1], [0, 0, 1]], dtype=complex)
_GRID_POINTS = 21  # per axis of the obstruction demo's grid of diagonal A


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """``eigh`` is (w, V), eta = V diag(w) V^dag with w ascending, when the
    constructor factored eta (``positive_metric``), else None."""

    eta: np.ndarray
    positive_definite: bool
    min_eigenvalue: float
    eigh: tuple | None = None


def positive_metric(sys, classification: Classification | list | None = None) -> MetricOperator:
    """Canonical positive-definite metric eta = (Psi Psi^dag)^{-1}.

    Psi is the eigenframe with unit-norm columns; the output is one
    representative of the multi-dimensional metric family. A caller that
    has already classified sys passes that result, so H is factored once.
    One SVD Psi = X S Y^dag gives eta = X S^{-2} X^dag, kept as ``eigh``, and
    lambda_min = s_max^{-2}, which keeps its digits near an exceptional point.
    A sequence of same-order systems (and classifications) gives stacked fields.
    """
    single = isinstance(sys, PTSystem)
    systems, cs = ([sys], [classification]) if single else (list(sys), classification)
    if classification is None:
        cs = classify(np.array([m.H for m in systems]), [m.pt for m in systems])
    frames = np.array([c.eigenframe for c in _require_unbroken(cs, "positive_metric")])
    x, s, _ = np.linalg.svd(frames / np.linalg.norm(frames, axis=-2, keepdims=True))
    w = s**-2.0  # s descending, so w ascending
    eta, lo = eigen_power(w, x, 1.0), w[:, 0]
    if single:
        return MetricOperator(eta[0], bool(lo[0] > TOL.psd_tol), float(lo[0]), (w[0], x[0]))
    return MetricOperator(eta, lo > TOL.psd_tol, lo, (w, x))


def _metric_verdicts(h, eta, who: str, *more) -> tuple:
    """Refuse, naming ``who``, an eta that is not a finite stack of h's shape (b, n, n) (H is the caller's
    to check); then whether each member's eta is Hermitian and satisfies H^dag eta = eta H (judged by
    ``_refuse_metric``), ||H||_F per member and the norms of the stacks ``more``, from one ``_norms``
    pass. Positivity is left to the caller, which factors eta once: by eigvalsh or the eigh of eta - I."""
    if h.shape != eta.shape or h.ndim != 3 or h.shape[-1] != h.shape[-2]:
        raise errors.DimensionMismatchError(f"{who}: order mismatch")
    if not np.isfinite(eta).all():
        for _, where in _failures(np.isfinite(eta).all(axis=(-2, -1)), who):
            raise errors.ParseError(f"{where}: eta must be finite")
    eta_norm, skew, intertwining, h_norm, *norms = _norms(eta, eta - eta.conj().mT, h.conj().mT @ eta - eta @ h, h,
                                                         *more)
    eta_scale = np.maximum(1.0, eta_norm)
    hermitian = skew <= TOL.eq_tol * eta_scale
    return (hermitian, intertwining <= TOL.eq_tol * np.maximum(1.0, h_norm) * eta_scale), h_norm, norms


def _refuse_metric(hermitian, intertwining, who: str) -> None:
    """Refuse, naming ``who``, the first member whose eta fails a verdict of ``_metric_verdicts``."""
    for _, where in _failures(hermitian, who):
        raise errors.NotHermitianError(f"{where}: eta is not Hermitian")
    for _, where in _failures(intertwining, who):
        raise errors.NotIntertwiningError(f"{where}: H^dag eta != eta H")


def verify_metric(h, eta) -> MetricOperator:
    h = np.asarray(h, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    _require_finite("verify_metric", H=h)
    _refuse_metric(*_metric_verdicts(h[None], eta[None], "verify_metric")[0], "verify_metric")
    w = np.linalg.eigvalsh(0.5 * (eta + eta.conj().T))
    return MetricOperator(eta, bool(w.min() > TOL.psd_tol), float(w.min()))


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
    G_l = Q^{-dag} e_l e_l^dag Q^{-1} and F_l = Q e_l e_l^dag Q^dag. The
    whole grid is scanned as one real matrix product, and only the value of
    a1 that holds its minimum is scanned again term by term, so
    ``min_residual`` is the double a sample-by-sample scan gives.
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

    # the grid^2 sums p_2 + p_3 are formed once, as 3 x grid^2 rows
    (d1, u1), (d2, u2), (d3, u3) = p(0), p(1), p(2)
    d23 = (d2[:, :, None] + d3[:, None, :]).reshape(3, -1)
    u23 = (u2[:, :, None] + u3[:, None, :]).reshape(3, -1)

    def row_sq(k):
        """The squared residuals of the grid^2 samples with a1 = axis[k]."""
        d, u = d1[:, k, None] + d23, u1[:, k, None] + u23
        dev = d - (d[0] + d[1] + d[2]) / 3.0
        usq = u.real**2 + u.imag**2
        return dev[0] ** 2 + dev[1] ** 2 + dev[2] ** 2 + 2.0 * (usq[0] + usq[1] + usq[2])

    # With each diagonal centred on its mean (e = d - mean), a sample's
    # squared residual is |e1 + e23|^2 + 2 |u1 + u23|^2 = a_k + c_j + 2 x_k . y_j,
    # so one (grid x 9) @ (9 x grid^2) product gives all grid^3 of them. It
    # differs from row_sq by about eps (max a + max c) (at most 1.4 times that
    # on the default grid), so only the rows whose product minimum lies within
    # 64 times that of the smallest can hold row_sq's minimum; those rows (one
    # on the default grid) are summed again by row_sq, to keep its double.
    e1, e23 = d1 - d1.mean(axis=0), d23 - d23.mean(axis=0)
    a = (e1**2).sum(axis=0) + 2.0 * (u1.real**2 + u1.imag**2).sum(axis=0)
    c = (e23**2).sum(axis=0) + 2.0 * (u23.real**2 + u23.imag**2).sum(axis=0)
    x = np.concatenate([e1, u1.real, u1.imag]).T
    y = np.concatenate([e23, 2.0 * u23.real, 2.0 * u23.imag])
    row_min = (a[:, None] + c + 2.0 * (x @ y)).min(axis=1)
    margin = 64 * np.finfo(float).eps * (a.max() + c.max())
    min_sq = min(float(row_sq(k).min()) for k in np.flatnonzero(row_min <= row_min.min() + margin))
    min_residual = math.sqrt(min_sq)

    return {
        "min_residual": min_residual,
        # A-independent, so reported at A = I
        "obstruction_entry_13": complex((gram_inv + gram)[0, 2]),
        "obstruction_entry_13_spread": float(entry13.max() - entry13.min()),
        "samples": _GRID_POINTS**3,
    }
