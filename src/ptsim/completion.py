"""Realize linear maps between n-dim subspaces of C^{2n} as
unitary-then-project-then-normalize, the physical primitive behind every
non-unitary pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .linalg import DEFAULT_TOL as TOL, _failures, _norms, _require_finite, fro, orthonormal_extension

__all__ = [
    "SubspaceMap",
    "CompletionResult",
    "unitary_completion",
    "zero_map_completion",
    "post_select",
]


@dataclass(frozen=True, eq=False)
class SubspaceMap:
    """A: M -> N in the given orthonormal bases (2n x n columns each)."""

    m_basis: np.ndarray
    n_basis: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        m, nb, a = (np.asarray(x, dtype=complex) for x in (self.m_basis, self.n_basis, self.action))
        object.__setattr__(self, "m_basis", m)
        object.__setattr__(self, "n_basis", nb)
        object.__setattr__(self, "action", a)
        _require_finite("SubspaceMap", m_basis=m, n_basis=nb, action=a)
        if m.shape != nb.shape or m.ndim != 2:
            raise errors.DimensionMismatchError("SubspaceMap: basis shapes differ")
        ambient, k = m.shape
        if ambient != 2 * k:
            raise errors.DimensionMismatchError("SubspaceMap: ambient dim must be twice the subspace dim")
        if a.shape != (k, k):
            raise errors.DimensionMismatchError("SubspaceMap: action must be k x k")
        eye = np.eye(k)
        for name, b in (("M", m), ("N", nb)):
            if fro(b.conj().T @ b - eye) > TOL.eq_tol * max(1.0, k):
                raise errors.DependentInputError(f"SubspaceMap: {name} basis is not orthonormal")


@dataclass(frozen=True, eq=False)
class CompletionResult:
    U: np.ndarray
    P_N: np.ndarray
    scale: float


def _frame(basis: np.ndarray) -> np.ndarray:
    """[B | B-perp]: the unitary whose leading columns are the orthonormal basis B."""
    return orthonormal_extension(list(basis.T), basis.shape[0])


def _completion(c: np.ndarray, frames: list, scales) -> list:
    """U_j = [N | N-perp] W_j [M | M-perp]^dag for each C_j = A_j/||A_j|| or 0 on
    the first axis of c, with (full_m, full_n) = frames[j] and scale scales[j].

    full_m and full_n are unitary frames whose leading k columns are the
    bases of M and N; None stands for the coordinate frame I, which is then
    neither formed nor multiplied by, and gives P_N = diag(1, ..., 1, 0, ..., 0).
    W is Halmos's unitary dilation of the contraction C (Summa Brasil. Math.
    2, 125 (1950)): with one SVD of all of c, C = X S Y^dag and
    R = (I - S^2)^{1/2}, W = [[C, X R X^dag], [Y R Y^dag, -C^dag]]. U maps M
    onto the images N C + N-perp (I - C^dag C)^{1/2}, so P_N U = scale N A on
    M; with C = 0, U maps M onto N-perp.
    """
    x, s, yh = np.linalg.svd(c)
    r = np.sqrt(np.maximum(1.0 - s**2, 0.0))
    k = c.shape[-1]
    w = np.empty(c.shape[:-2] + (2 * k, 2 * k), dtype=complex)
    w[..., :k, :k], w[..., :k, k:] = c, (x * r[..., None, :]) @ x.conj().mT
    w[..., k:, :k], w[..., k:, k:] = yh.conj().mT @ (r[..., :, None] * yh), -c.conj().mT
    out = []
    for w_j, (full_m, full_n), scale in zip(w, frames, scales):
        if full_n is None:
            u, p_n = w_j, np.zeros(w_j.shape, dtype=complex)
            p_n[..., :k, :k] = np.eye(k)
        else:
            u, p_n = full_n @ w_j, full_n[..., :k] @ full_n[..., :k].conj().mT
        out.append(CompletionResult(u if full_m is None else u @ full_m.conj().mT, p_n, scale))
    return out


def _contractions(actions, who: str, zero, a_norm=None) -> tuple:
    """(C, scales) of the actions A_j (each k x k, or a stack of them) as one stack:
    C_j = A_j/||A_j||_F and scale 1/||A_j||_F, with one norm each (a_norm, if
    the caller's wider pass has formed them) and one zero-map verdict, which
    names ``who``, the member of a longer stack by its index, and zero[j]."""
    actions = np.asarray(actions, dtype=complex)
    if a_norm is None:
        (a_norm,) = _norms(actions.reshape((-1,) + actions.shape[-2:]))
        a_norm = a_norm.reshape(actions.shape[:-2])
    if not a_norm.all():  # a zero norm: name the first member with one, and its side
        ok = (a_norm != 0.0).reshape(len(actions), -1)
        for i, where in _failures(ok.all(axis=0), who):
            raise errors.ZeroMapError(f"{where}: {zero[ok[:, i].argmin()]}")
    return actions / a_norm[..., None, None], 1.0 / a_norm


def _completions(sides: list, who: str) -> list:
    """``_completion`` of each side (A_j, frames[j], zero[j]) at the ``_contractions`` of the A_j: one SVD."""
    actions, frames, zero = zip(*sides)
    c, scales = _contractions(actions, who, zero)
    return _completion(c, frames, scales)


def unitary_completion(m: SubspaceMap) -> CompletionResult:
    """Unitary U and projection P_N with P_N U v = scale * A v on M.

    Columns of A, scaled to unit total energy, give the N-components of the
    images; the deficit goes into N-perp.
    """
    frames = (_frame(m.m_basis), _frame(m.n_basis))
    return _completions([(m.action, frames, "zero map; use zero_map_completion")], "unitary_completion")[0]


def zero_map_completion(m: SubspaceMap) -> CompletionResult:
    """U sending M onto N-perp, so P_N U vanishes on M."""
    if fro(m.action) != 0.0:
        raise errors.DimensionMismatchError("zero_map_completion: action is nonzero")
    return _completion(m.action[None], [(_frame(m.m_basis), _frame(m.n_basis))], [0.0])[0]


def post_select(state, p):
    """Project, renormalize, and report the branch probability.

    P acts on the first axis of state. A (dim, m) block is a state of the
    system times an m-dim spectator factor that P leaves alone, so the result
    equals post-selecting its ravel under kron(P, I_m); norms are Frobenius.
    A vanishing branch returns (zeros, 0.0) rather than erroring.
    """
    state = np.asarray(state, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if p.shape != (state.shape[0],) * 2:
        raise errors.DimensionMismatchError(f"post_select: P {p.shape} does not fit {state.shape[0]} rows")
    p_tol = TOL.eq_tol * max(1.0, fro(p))
    if fro(p @ p - p) > p_tol or fro(p - p.conj().T) > p_tol:
        raise errors.NotProjectionError("post_select: P is not an orthogonal projection")
    nrm = np.linalg.norm(state)
    if not abs(nrm - 1.0) <= TOL.unit_tol:  # written so that a NaN norm fails it
        raise errors.NotNormalizedError("post_select: state must be unit-norm")
    out = p @ state
    prob = float(np.linalg.norm(out) ** 2)
    if prob <= TOL.psd_tol:
        return np.zeros_like(state), 0.0
    return out / np.linalg.norm(out), prob
