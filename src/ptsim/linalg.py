"""Dense complex linear-algebra primitives used by every other module.

All matrices are numpy complex arrays. Operations are pure functions; values
may be shared freely across threads. Everything runs on numpy but
``matrix_exp``, which is scipy's ``expm`` and imports it on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "EigenDecomposition",
    "eig",
    "matrix_exp",
    "psd_power",
    "eigen_power",
    "eigen_evolve",
    "orthonormal_extension",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "fro",
    "rel_scale",
    "is_hermitian",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Tolerances:
    """The fixed table of numerical tolerances, ``DEFAULT_TOL``. Functions
    read it directly; none takes a tolerance as an argument.

    eq_tol      residual tolerance for matrix equalities
    real_tol    relative tolerance for "this eigenvalue is real"
    defect_cond eigenvector-matrix condition number above which we refuse
    psd_tol     eigenvalue nonnegativity window
    """

    eq_tol: float = 1e-10
    real_tol: float = 1e-9
    defect_cond: float = 1e12
    psd_tol: float = 1e-12


DEFAULT_TOL = Tolerances()


def fro(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def rel_scale(a) -> float:
    """max(1, ||A||_F), the denominator for relative residual checks."""
    return max(1.0, fro(a))


def _require_finite(who: str, **values) -> None:
    """A ParseError (exit 2) naming the first of values, each a number or an
    array, that is or holds a NaN or an infinity."""
    for name, value in values.items():
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise errors.ParseError(f"{who}: {name} must be finite")


def _require_square(a, who: str) -> np.ndarray:
    """a as a complex array; a NonSquareError unless it is a square matrix, and
    a ParseError if it holds a NaN or an infinity, which LAPACK cannot take."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise errors.NonSquareError(f"{who}: expected a square matrix, got shape {a.shape}")
    _require_finite(who, matrix=a)
    return a


def is_hermitian(a) -> bool:
    a = np.asarray(a, dtype=complex)
    return fro(a - a.conj().T) <= DEFAULT_TOL.eq_tol * rel_scale(a)


def is_real_eigenvalue(lam: complex) -> bool:
    return abs(lam.imag) <= DEFAULT_TOL.real_tol * max(1.0, abs(lam))


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray
    eigenvector_matrix: np.ndarray
    condition_estimate: float
    defective: bool


def eig(a) -> EigenDecomposition:
    """Eigendecomposition with a defectiveness verdict.

    The defective flag is raised when the eigenvector matrix is too
    ill-conditioned to trust, or when a cluster of nearly equal eigenvalues
    comes with nearly dependent eigenvectors (geometric multiplicity
    deficit). We refuse to classify such inputs further rather than
    silently mis-handle a Jordan block.
    """
    a = _require_square(a, "eig")
    try:
        lam, psi = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise errors.NumericalFailureError(f"eig did not converge: {exc}") from exc
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(psi))):
        raise errors.NumericalFailureError("eig produced non-finite output")

    cond = float(np.linalg.cond(psi))
    defective = bool(not np.isfinite(cond) or cond > DEFAULT_TOL.defect_cond)

    if not defective:
        defective = _has_clustered_rank_deficit(lam, psi)

    return EigenDecomposition(lam, psi, cond, defective)


def _has_clustered_rank_deficit(lam, psi) -> bool:
    # A Jordan block perturbed at machine precision splits its eigenvalue by
    # ~sqrt(eps), so the cluster window must be much wider than real_tol.
    n = len(lam)
    scale = max(1.0, float(np.max(np.abs(lam))))
    window = max(DEFAULT_TOL.real_tol, 1e-6) * scale
    close = np.abs(lam[:, None] - lam[None, :]) <= window
    if np.count_nonzero(close) == n:  # no pair is close: the common case
        return False
    # greedy clusters: the first unassigned eigenvalue and all still
    # unassigned within the window of it
    unassigned = np.ones(n, dtype=bool)
    for i in range(n):
        if unassigned[i]:
            cluster = np.flatnonzero(close[i] & unassigned)
            unassigned[cluster] = False
            if len(cluster) > 1:
                s = np.linalg.svd(psi[:, cluster], compute_uv=False)
                if s[-1] <= 1e-6 * max(1.0, s[0]):
                    return True
    return False


def matrix_exp(a) -> np.ndarray:
    """e^{A} by scipy's Pade scaling-and-squaring ``expm`` (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)), which needs no eigenvectors,
    so a defective or non-normal A is no special case. An evolution under a
    Hermitian K with kept eigh factors is ``eigen_evolve`` instead.
    """
    a = _require_square(a, "matrix_exp")
    import scipy.linalg  # loaded here, so importing ptsim does not load it

    return scipy.linalg.expm(a)


def psd_power(a, p: float) -> np.ndarray:
    """A^p for Hermitian PSD A via a single eigenframe.

    Using one eigh call per matrix keeps powers mutually consistent, e.g.
    psd_power(A, 0.5) @ psd_power(A, -0.5) = I to rounding. Eigenvalues in
    [-psd_tol, 0) are clamped to zero; anything below the window is rejected.
    """
    a = _require_square(a, "psd_power")
    if not is_hermitian(a):
        raise errors.NotHermitianError("psd_power: input is not Hermitian within eq_tol")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    if np.min(w) < -DEFAULT_TOL.psd_tol:
        raise errors.NotPSDError(f"psd_power: eigenvalue {np.min(w):.3e} below -psd_tol")
    w = np.clip(w, 0.0, None)
    if p < 0 and np.min(w) == 0.0:
        raise errors.NotPositiveDefiniteError("psd_power: negative power of a singular matrix")
    return eigen_power(w, v, p)


def eigen_power(w, v, p: float) -> np.ndarray:
    """V diag(w^p) V^dag, Hermitian-symmetrized, from the eigh factors (w, V)."""
    s = (v * w**p) @ v.conj().T  # column scaling: each entry of V diag(d) has one term
    return 0.5 * (s + s.conj().T)


def eigen_evolve(w, v, t: float, x) -> np.ndarray:
    """e^{-itK} x = V (e^{-itw} . (V^dag x)) for x of shape (d,) or (d, m), from
    the eigh factors (w, V) of a Hermitian K (Higham, Functions of Matrices, ch. 10)."""
    return v @ (np.exp(-1j * t * w) * (v.conj().T @ x).T).T


def orthonormal_extension(vectors, dim: int) -> np.ndarray:
    """Complete the given independent vectors to an orthonormal basis.

    Returns a dim x dim unitary whose first k columns span span(vectors),
    from one complete Householder QR of [V | I]. Each column is multiplied by
    the phase of its R diagonal, so the leading columns are the Gram-Schmidt
    orthonormalization of the input (orthonormal input is reproduced in
    place) and the output is deterministic. Input whose j-th residual |R_jj|
    falls below 1e-10 max(1, ||v_j||) is rejected as dependent.
    """
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if any(v.shape[0] != dim for v in vs):
        raise errors.DimensionMismatchError("orthonormal_extension: vector length != dim")
    k = len(vs)
    if k > dim:
        raise errors.DependentInputError("orthonormal_extension: more vectors than dim")

    v = np.array(vs, dtype=complex).reshape(k, dim).T
    q, r = np.linalg.qr(np.hstack([v, np.eye(dim, dtype=complex)]), mode="complete")
    diag = np.diagonal(r)
    mag = np.abs(diag)
    if np.any(mag[:k] <= 1e-10 * np.maximum(1.0, np.linalg.norm(v, axis=0))):
        raise errors.DependentInputError("orthonormal_extension: dependent input vectors")
    phase = np.divide(diag, mag, out=np.ones(dim, dtype=complex), where=mag > 0.0)
    return q * phase
