"""Hermitian dilation of an unbroken Hamiltonian onto the doubled space.

The dilation record carries the coupling matrix tau = (eta - I)^{1/2}, the
four blocks of Hhat = [[H1, H2], [H2^dag, H4]], and the defining residuals:
    H1 + H2 tau = H
    H2^dag + H4 tau = tau H
Evolution under Hhat restricted to the graph subspace Y_tau = {(psi; tau psi)}
reproduces e^{-itH} in the top block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from . import errors
from .linalg import (
    DEFAULT_TOL as TOL,
    _require_square,
    eigen_evolve,
    eigen_power,
    fro,
    is_hermitian,
    rel_scale,
)
from .metric import _check_metric_equations, positive_metric
from .ptcore import Kind, PTSystem, classify

__all__ = [
    "Dilation",
    "build_dilation",
    "embed_state",
    "dilated_evolution",
    "embedding_membership",
    "in_tau_subspace",
]


@dataclass(frozen=True)
class Dilation:
    """The dilation record. ``build_dilation`` makes its arrays read-only.

    eta - I = V diag(w) V^dag is kept as (``eta_minus_i_w``, ``eta_minus_i_v``):
    the canonical metric's SVD factors, shifted, or one eigh of a supplied
    eta - I. Hhat is factored once into ``hhat_eigh`` = (w, V), which gives
    every e^{-itHhat}. ``ytau_q`` is the complete Q of [I; tau]: its first n
    columns (``ytau_frame``) are an orthonormal basis of Y_tau, the rest one
    of Y_tau-perp.
    """

    H: np.ndarray
    eta: np.ndarray
    eta_minus_i_w: np.ndarray
    eta_minus_i_v: np.ndarray
    tau: np.ndarray
    ytau_q: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    H4: np.ndarray
    Hhat: np.ndarray
    hhat_eigh: tuple
    residuals: dict

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def ytau_frame(self) -> np.ndarray:
        return self.ytau_q[:, :self.dim]

    def eta_power(self, p: float) -> np.ndarray:
        """eta^p = V diag((w + 1)^p) V^dag."""
        return eigen_power(self.eta_minus_i_w + 1.0, self.eta_minus_i_v, p)

    @cached_property
    def stage_cache(self) -> dict:
        """Pipeline stages built on this dilation, keyed by scheme.

        Filled by ``pipeline.scheme_stages``. Entries stay valid because the
        arrays they are computed from cannot be written.
        """
        return {}

    def to_obj(self) -> dict:
        from .io import matrix_to_obj

        out = {k: matrix_to_obj(getattr(self, k)) for k in ("H", "eta", "tau", "H1", "H2", "H4", "Hhat")}
        out["residuals"] = {k: float(v) for k, v in self.residuals.items()}
        return out


def build_dilation(
    sys: PTSystem,
    eta=None,
    margin: float = 1.05,
    h1_choice: str = "zero",
    h1=None,
) -> Dilation:
    """Assemble Hhat from (H, eta, H1).

    eta=None constructs the canonical positive metric and rescales it so its
    smallest eigenvalue equals ``margin`` (> 1 keeps tau invertible). A
    supplied eta must already satisfy lambda_min > 1; a caller who wants it
    rescaled passes c * eta. h1_choice is one of "zero", "paper"
    (H1 = tau H tau eta^{-1} + H eta^{-1}) or "supplied".
    """
    if not (isinstance(margin, Real) and 1.0 < margin < np.inf):
        raise errors.ParseError(f"build_dilation: margin must be finite and > 1, got {margin!r}")
    c = classify(sys.H, sys.pt)
    if c.kind is not Kind.UNBROKEN:
        raise errors.NotUnbrokenError(f"build_dilation: classification is {c.kind.value}")
    h = np.array(sys.H, dtype=complex)
    n = h.shape[0]

    if eta is None:
        base = positive_metric(sys, c)
        scale = margin / base.min_eigenvalue
        eta, w, v = scale * base.eta, scale * base.eigh[0] - 1.0, base.eigh[1]
        h_scale, eta_scale, shifted = rel_scale(h), rel_scale(eta), eta - np.eye(n)
    else:
        eta = np.array(eta, dtype=complex)
        h_scale, eta_scale = _check_metric_equations(h, eta, "build_dilation")
        # one eigh of eta - I both tests lambda_min(eta) > 1 and factors tau
        shifted = eta - np.eye(n)
        w, v = np.linalg.eigh(0.5 * (shifted + shifted.conj().T))
        if w[0] <= 0.0:
            raise errors.EtaNotGreaterThanIError(f"build_dilation: lambda_min(eta) = {1.0 + w[0]:.6g} <= 1")

    if np.sqrt(w[0]) <= TOL.psd_tol:
        raise errors.NumericalFailureError("build_dilation: tau is singular (eta at boundary)")
    tau = eigen_power(w, v, 0.5)
    tau_inv = np.linalg.inv(tau)
    ytau_q, _ = np.linalg.qr(np.vstack([np.eye(n, dtype=complex), tau]), mode="complete")

    if h1_choice == "zero":
        h1m = np.zeros((n, n), dtype=complex)
    elif h1_choice == "paper":
        eta_inv = eigen_power(w + 1.0, v, -1.0)
        h1m = tau @ h @ tau @ eta_inv + h @ eta_inv
        h1m = 0.5 * (h1m + h1m.conj().T)
    elif h1_choice == "supplied":
        if h1 is None:
            raise errors.ParseError("build_dilation: h1_choice 'supplied' needs an H1 matrix")
        h1m = np.array(h1, dtype=complex)
        if h1m.shape != (n, n) or not is_hermitian(h1m):
            raise errors.SuppliedH1NotHermitianError("build_dilation: supplied H1 is not Hermitian")
    else:
        raise errors.ParseError(f"unknown h1_choice {h1_choice!r}")

    h2 = (h - h1m) @ tau_inv
    h4 = (tau @ h - h2.conj().T) @ tau_inv
    hhat = np.empty((2 * n, 2 * n), dtype=complex)
    hhat[:n, :n], hhat[:n, n:], hhat[n:, :n], hhat[n:, n:] = h1m, h2, h2.conj().T, h4

    residuals = {
        "hermiticity": fro(hhat - hhat.conj().T) / h_scale,
        "eq_h1h2": fro(h1m + h2 @ tau - h) / h_scale,
        "eq_h2h4": fro(h2.conj().T + h4 @ tau - tau @ h) / h_scale,
        "tau_sq": fro(tau @ tau - shifted) / eta_scale,
    }
    hhat = 0.5 * (hhat + hhat.conj().T)
    hhat_eigh = np.linalg.eigh(hhat)
    for a in (h, eta, w, v, tau, ytau_q, h1m, h2, h4, hhat, *hhat_eigh):
        a.setflags(write=False)
    return Dilation(h, eta, w, v, tau, ytau_q, h1m, h2, h4, hhat, tuple(hhat_eigh), residuals)


def in_tau_subspace(x, tau) -> bool:
    x = np.asarray(x, dtype=complex).reshape(-1)
    tau = _require_square(tau, "in_tau_subspace")
    n = tau.shape[0]
    if x.shape[0] != 2 * n:
        raise errors.DimensionMismatchError("in_tau_subspace: length mismatch")
    return np.linalg.norm(x[n:] - tau @ x[:n]) <= TOL.eq_tol * max(1.0, np.linalg.norm(x)) * max(
        1.0, fro(tau)
    )


def embed_state(psi, d: Dilation) -> np.ndarray:
    """(psi; tau psi) / sqrt(psi^dag eta psi), a unit vector in Y_tau."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != d.dim:
        raise errors.DimensionMismatchError(f"embed_state: psi length {psi.shape[0]} != {d.dim}")
    if np.linalg.norm(psi) == 0.0:
        raise errors.ZeroVectorError("embed_state: zero input")
    return np.concatenate([psi, d.tau @ psi]) / np.sqrt(np.vdot(psi, d.eta @ psi).real)


def dilated_evolution(d: Dilation, t: float, xhat) -> np.ndarray:
    xhat = np.asarray(xhat, dtype=complex).reshape(-1)
    if not in_tau_subspace(xhat, d.tau):
        raise errors.NotInSubspaceError("dilated_evolution: input is not in Y_tau")
    return eigen_evolve(*d.hhat_eigh, t, xhat)


def embedding_membership(hhat, h, x) -> bool:
    """Power condition P1 Hhat^k x = H^k P1 x for k = 0..2n.

    By Cayley-Hamilton on the 2n-dimensional Hhat, powers beyond the
    dimension add nothing.
    """
    hhat = np.asarray(hhat, dtype=complex)
    h = np.asarray(h, dtype=complex)
    x = np.asarray(x, dtype=complex).reshape(-1)
    n = h.shape[0]
    if hhat.shape != (2 * n, 2 * n) or x.shape[0] != 2 * n:
        raise errors.DimensionMismatchError("embedding_membership: shape mismatch")
    y = x.copy()
    z = x[:n].copy()
    for _ in range(2 * n + 1):
        scale = max(1.0, np.linalg.norm(y), np.linalg.norm(z))
        if np.linalg.norm(y[:n] - z) > TOL.eq_tol * scale:
            return False
        y = hhat @ y
        z = h @ z
    return True
