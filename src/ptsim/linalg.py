"""Dense complex linear-algebra primitives used by every other module.

All matrices are numpy complex arrays. Operations are pure functions; values
may be shared freely across threads. Everything runs on numpy but
``matrix_exp``, which is scipy's ``expm`` and imports it on its first call.
``eig`` and ``eigen_power`` also take a stack (b, n, n) and factor it in one
pass with the bits of b calls; an error about one member of a longer stack
names it ("eig: member 3: ...").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = [
    "Tolerances", "DEFAULT_TOL", "EigenDecomposition", "eig", "matrix_exp", "psd_power", "eigen_power",
    "eigen_evolve", "orthonormal_extension", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "fro", "rel_scale",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_identity = functools.lru_cache(maxsize=1)(lambda n: _read_only(np.eye(n))[0])  # I of the last order, read-only


@dataclass(frozen=True)
class Tolerances:
    """The fixed table of numerical tolerances, ``DEFAULT_TOL``. Functions
    read it directly; none takes a tolerance as an argument.
    """

    eq_tol: float = 1e-10  # residual tolerance for matrix equalities
    real_tol: float = 1e-9  # relative tolerance for "this eigenvalue is real"
    defect_cond: float = 1e12  # eigenvector-matrix condition number above which we refuse
    psd_tol: float = 1e-12  # eigenvalue nonnegativity window
    rank_tol: float = 1e-10  # relative |R_jj| at or below which orthonormal_extension's vectors are dependent
    cluster_tol: float = 1e-6  # relative width of an eigenvalue cluster, and singular-value floor of its eigenvectors
    branch_tol: float = 1e-14  # norm at or below which a unit state's simulated branch has vanished
    target_tol: float = 1e-12  # norm at or below which rho' e^{-itH} rho annihilates a unit state
    unit_tol: float = 1e-8  # distance of a norm from 1 beyond which post_select refuses a state as not unit
    fixture_tol: float = 1e-10  # residual bound of each closed-form check of ``ptsim paper``
    evolution_fixture_tol: float = 1e-8  # ... and of its top-block evolution check


DEFAULT_TOL = Tolerances()


def fro(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def rel_scale(a) -> float:
    """max(1, ||A||_F), the denominator for relative residual checks."""
    return max(1.0, fro(a))


def _norms(*stacks) -> np.ndarray:
    """fro of each member of each complex stack (b, ...) of one shape, a row per
    stack; vecdot takes the BLAS dots that fro takes, so the bits are fro's."""
    x = (np.concatenate(stacks) if len(stacks) > 1 else stacks[0]).reshape(len(stacks) * len(stacks[0]), -1)
    sq = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
    return np.sqrt(sq).reshape(len(stacks), -1)


def _failures(ok, who: str) -> list:
    """[(i, where)] for the first member i whose verdict in ok is not True, else
    []; where names member i if ok has more than one. Read as
    ``for i, where in _failures(ok, who): raise ...``."""
    ok = ok.tolist() if isinstance(ok, np.ndarray) else ok
    if all(ok):
        return []
    i = ok.index(False)
    return [(i, who if len(ok) == 1 else f"{who}: member {i}")]


def _require_finite(who: str, **values) -> None:
    """A ParseError (exit 2) naming the first of values, each a number or an
    array, that is or holds a NaN or an infinity."""
    for name, value in values.items():
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise errors.ParseError(f"{who}: {name} must be finite")


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _require_square(a, who: str, stack: bool = False) -> np.ndarray:
    """a as a complex array; a NonSquareError unless it is a square matrix (or,
    with stack, a stack (b, n, n) of them), and a ParseError if it holds a NaN
    or an infinity, which LAPACK cannot take."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]:
        raise errors.NonSquareError(f"{who}: expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        for _, where in _failures(np.isfinite(a).all(axis=(-2, -1)).reshape(-1), who):
            raise errors.ParseError(f"{where}: matrix must be finite")
    return a


@dataclass(frozen=True, eq=False)
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
    silently mis-handle a Jordan block. A stack (b, n, n) is factored in one
    LAPACK pass, and the fields are stacked.
    """
    a = _require_square(a, "eig", stack=True)
    try:
        lam, psi = np.linalg.eig(a if a.ndim == 3 else a[None])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise errors.NumericalFailureError(f"eig did not converge: {exc}") from exc
    for _, where in _failures(np.isfinite(lam).all(axis=-1) & np.isfinite(psi).all(axis=(-2, -1)), "eig"):
        raise errors.NumericalFailureError(f"{where} produced non-finite output")
    s = np.linalg.svdvals(psi)  # kappa = s_max / s_min, cond's bits; unit columns keep s_max > 0
    with np.errstate(divide="ignore"):  # so s_min = 0 gives inf, with no warning
        cond = s[:, 0] / s[:, -1]
    defective = ~(cond <= DEFAULT_TOL.defect_cond) | _has_clustered_rank_deficit(lam, psi)
    if a.ndim == 3:
        return EigenDecomposition(lam, psi, cond, defective)
    return EigenDecomposition(lam[0], psi[0], float(cond[0]), bool(defective[0]))


def _has_clustered_rank_deficit(lam, psi):
    """Per member of stacks lam (b, n), psi (b, n, n): do nearly equal
    eigenvalues come with nearly dependent eigenvectors?"""
    # A Jordan block perturbed at machine precision splits its eigenvalue by
    # ~sqrt(eps), so the cluster window must be much wider than real_tol.
    n = lam.shape[-1]
    window = max(DEFAULT_TOL.real_tol, DEFAULT_TOL.cluster_tol) * np.maximum(1.0, np.abs(lam).max(axis=-1))
    close = np.abs(lam[:, :, None] - lam[:, None, :]) <= window[:, None, None]
    deficit = np.zeros(len(lam), dtype=bool)
    # members with a close pair; where none is close (the common case), only the diagonal counts
    for m in np.flatnonzero(close.sum(axis=(1, 2)) > n) if np.count_nonzero(close) > len(lam) * n else ():
        # greedy clusters: the first unassigned eigenvalue and all still
        # unassigned within the window of it
        unassigned = np.ones(n, dtype=bool)
        for i in range(n):
            if unassigned[i] and not deficit[m]:
                cluster = np.flatnonzero(close[m, i] & unassigned)
                unassigned[cluster] = False
                if len(cluster) > 1:
                    s = np.linalg.svd(psi[m][:, cluster], compute_uv=False)
                    deficit[m] = s[-1] <= DEFAULT_TOL.cluster_tol * max(1.0, s[0])
    return deficit


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
    psd_power(A, 0.5) @ psd_power(A, -0.5) = I to rounding, and a column
    (k, 1) of powers gives the stack of them from that one eigh. Eigenvalues in
    [-psd_tol, 0) are clamped to zero; anything below the window is rejected.
    """
    a = _require_square(a, "psd_power")
    if fro(a - a.conj().T) > DEFAULT_TOL.eq_tol * rel_scale(a):
        raise errors.NotHermitianError("psd_power: input is not Hermitian within eq_tol")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    if np.min(w) < -DEFAULT_TOL.psd_tol:
        raise errors.NotPSDError(f"psd_power: eigenvalue {np.min(w):.3e} below -psd_tol")
    w = np.clip(w, 0.0, None)
    if np.min(p) < 0 and np.min(w) == 0.0:
        raise errors.NotPositiveDefiniteError("psd_power: negative power of a singular matrix")
    return eigen_power(w, v, p)


def eigen_power(w, v, p: float) -> np.ndarray:
    """V diag(w^p) V^dag, Hermitian-symmetrized, from the eigh factors (w, V) or their stacks."""
    s = (v * (w**p)[..., None, :]) @ v.conj().mT  # column scaling: each entry of V diag(d) has one term
    return 0.5 * (s + s.conj().mT)


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
    falls below ``rank_tol`` max(1, ||v_j||) is rejected as dependent.
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
    if np.any(mag[:k] <= DEFAULT_TOL.rank_tol * np.maximum(1.0, np.linalg.norm(v, axis=0))):
        raise errors.DependentInputError("orthonormal_extension: dependent input vectors")
    phase = np.divide(diag, mag, out=np.ones(dim, dtype=complex), where=mag > 0.0)
    return q * phase
