"""Hermitian dilation of an unbroken Hamiltonian onto the doubled space.

The dilation record carries the coupling matrix tau = (eta - I)^{1/2}, the
factor of Hhat on Y_tau, the four blocks of Hhat = [[H1, H2], [H2^dag, H4]]
and the defining residuals:
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
from .linalg import (DEFAULT_TOL as TOL, _failures, _identity, _norms, _read_only, _require_finite,
                     _require_square, eigen_evolve, eigen_power, fro)
from .metric import _metric_verdicts, _refuse_metric, positive_metric
from .ptcore import Classification, PTPair, PTSystem, _pt_commutator, _require_unbroken, classify

__all__ = [
    "Dilation",
    "build_dilation",
    "dilated_evolution",
    "embedding_membership",
    "in_tau_subspace",
]


@dataclass(frozen=True, eq=False)
class Dilation:
    """The dilation record. ``build_dilation`` makes its arrays read-only.

    ``classification`` is ``classify(H, pt)``, H's spectrum Lambda, eigenframe
    Psi and kappa(Psi), which give every e^{-itH} (``propagate``): the one a
    canonical build made eta from, or after a supplied eta one eig on first
    read, which raises NotUnbrokenError unless H is UNBROKEN. ``h_norm`` =
    ||H||_F scales ``residuals``. eta - I = V diag(w) V^dag is kept as
    (``eta_minus_i_w``, ``eta_minus_i_v``): the canonical metric's SVD
    factors, shifted, or one eigh of a supplied eta - I. One reduced QR
    gives [I; tau] = Q1 R, R = ``ytau_r`` (R^dag R = eta); ``ytau_q`` =
    [Q1 | J Q1], J = [[0, -I], [I, 0]], holds orthonormal bases of Y_tau (Q1,
    ``ytau_frame``) and Y_tau-perp, both invariant under Hhat. Q1^dag Hhat Q1
    = R H R^{-1} for every H1, the equivalent Hermitian Hamiltonian
    (Mostafazadeh, J. Math. Phys. 43, 205 (2002)), whose eigh (w_Y, V_Y),
    w_Y being H's spectrum, the build keeps as ``ytau_v`` = V_Y and
    ``ytau_eigh`` = (w_Y, Q1 V_Y); it forms nothing else of Hhat. H1 (by
    ``h1_choice``; ``h1_supplied`` holds a supplied one), H2, H4, Hhat,
    ``hhat_eigh`` = (w, [Q1 V_Y | Q2 V_perp]) (w ascends within each half,
    not across them) and ``residuals`` are formed on first read.
    """

    H: np.ndarray
    pt: PTPair | None
    h_norm: float
    eta: np.ndarray
    eta_minus_i_w: np.ndarray
    eta_minus_i_v: np.ndarray
    tau: np.ndarray
    ytau_q: np.ndarray
    ytau_r: np.ndarray
    ytau_v: np.ndarray
    ytau_eigh: tuple
    h1_choice: str
    h1_supplied: np.ndarray | None
    built_classification: Classification | None

    @cached_property
    def classification(self) -> Classification:
        c = classify(self.H, self.pt) if self.built_classification is None else self.built_classification
        _require_unbroken([c], "Dilation.classification")
        _read_only(c.spectrum, c.eigenframe)
        return c

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def ytau_frame(self) -> np.ndarray:
        return self.ytau_q[:, :self.dim]

    @cached_property
    def eigenframe_inverse(self) -> np.ndarray:
        """Psi^{-1}, one inv formed on first use and kept read-only."""
        return _read_only(np.linalg.inv(self.classification.eigenframe))[0]

    def propagate(self, t: float, x) -> np.ndarray:
        """e^{-itH} x = Psi (e^{-it Lambda} . (Psi^{-1} x)) for x of shape (n,) or (n, m),
        in O(n^2 m) work from H's kept eigenframe, at every kappa(Psi) that ``classify`` accepts."""
        c = self.classification
        return c.eigenframe @ (np.exp(-1j * t * c.spectrum) * (self.eigenframe_inverse @ x).T).T

    @cached_property
    def _blocks(self) -> tuple:
        return tuple(x[0] for x in _hhat_blocks([self]))

    # the four blocks are formed together on the first read of any of them
    H1, H2, H4, Hhat = (property(lambda self, i=i: self._blocks[i]) for i in range(4))

    @cached_property
    def hhat_eigh(self) -> tuple:
        q2 = self.ytau_q[:, self.dim:]  # Y_tau-perp, the other invariant block
        w, v = np.linalg.eigh(q2.conj().T @ (self.Hhat @ q2))
        return _read_only(np.concatenate([self.ytau_eigh[0], w]), np.hstack([self.ytau_eigh[1], q2 @ v]))

    @cached_property
    def residuals(self) -> dict:
        """The defining residuals: Hhat's hermiticity before symmetrization,
        H1 + H2 tau - H and H2^dag + H4 tau - tau H, each over max(1, ||H||_F),
        and tau^2 - (eta - I) over max(1, ||eta||_F)."""
        h, eta, tau, h1, h2, h4 = (x[None] for x in (self.H, self.eta, self.tau, self.H1, self.H2, self.H4))
        # hhat - hhat^dag vanishes off its diagonal blocks: its norm is the hypot of theirs
        norms = _norms(h1 - h1.conj().mT, h4 - h4.conj().mT, h1 + h2 @ tau - h, h2.conj().mT + h4 @ tau - tau @ h,
                       tau @ tau - (eta - np.eye(self.dim)), eta)[:, 0]
        norms[1], h_scale = np.hypot(norms[0], norms[1]), max(1.0, self.h_norm)
        scaled = norms[1:5] / np.array([h_scale, h_scale, h_scale, max(1.0, norms[5])])
        return dict(zip(("hermiticity", "eq_h1h2", "eq_h2h4", "tau_sq"), scaled.tolist()))

    @cached_property
    def stage_cache(self) -> dict:
        """Pipeline stages built on this dilation, keyed by scheme.

        Filled by ``pipeline.scheme_stages``. Entries stay valid because the
        arrays they are computed from cannot be written.
        """
        return {}


def build_dilation(sys, eta=None, margin: float = 1.05, h1_choice: str = "zero", h1=None):
    """The dilation of (H, eta, H1) for one PTSystem, or for a sequence of
    same-order systems with one eta (and h1) each: every layer then runs once
    on their stack, and the list of Dilations has the bits of single builds.
    A single system is the batch of one; an error about one system of a
    longer sequence names it ("build_dilation: member 3: ...").

    eta=None takes the canonical metric, from classify's eigenframe, rescaled to
    lambda_min = ``margin`` (> 1 keeps tau invertible). A supplied eta needs
    lambda_min > 1 (pass c * eta to rescale); passing H's PT test, H^dag eta =
    eta H and a Hermitian R H R^{-1}, it makes H quasi-Hermitian, and no eig of
    H is made but to name a broken or defective H as the cause of a refusal.
    h1_choice is "zero", "paper" (H1 = tau H tau eta^{-1} + H eta^{-1}) or
    "supplied", the one choice that takes the matrix h1.
    """
    if not (isinstance(margin, Real) and 1.0 < margin < np.inf):
        raise errors.ParseError(f"build_dilation: margin must be finite and > 1, got {margin!r}")
    single = isinstance(sys, PTSystem)
    systems = [sys] if single else list(sys)
    if not systems or len({np.shape(m.H) for m in systems}) != 1:
        raise errors.DimensionMismatchError("build_dilation: expected one or more systems of one order")
    h = np.array([m.H for m in systems], dtype=complex)
    b, n = h.shape[0], h.shape[-1]
    if h1_choice == "supplied":
        if h1 is None:
            raise errors.ParseError("build_dilation: h1_choice 'supplied' needs an H1 matrix")
        (h1,) = _read_only(np.array([h1] if single else h1, dtype=complex))
        for _, where in _failures(np.isfinite(h1.reshape(len(h1), -1)).all(axis=1), "build_dilation"):
            raise errors.ParseError(f"{where}: H1 must be finite")
        skew, h1_norm = _norms(h1 - h1.conj().mT, h1) if h1.shape == h.shape else ([np.inf], [1.0])
        for _, where in _failures(skew <= TOL.eq_tol * np.maximum(1.0, h1_norm), "build_dilation"):
            raise errors.SuppliedH1NotHermitianError(f"{where}: supplied H1 is not Hermitian")
    elif h1 is not None:
        raise errors.ParseError(f"build_dilation: an H1 matrix needs h1_choice 'supplied', not {h1_choice!r}")
    elif h1_choice not in ("zero", "paper"):
        raise errors.ParseError(f"build_dilation: unknown h1_choice {h1_choice!r}")
    pts, eye, supplied = [m.pt for m in systems], _identity(n), eta is not None
    cs = [None] * b if supplied else _require_unbroken(classify(h, pts), "build_dilation")
    if not supplied:
        h_norm = np.array([c.h_norm for c in cs])
        base = positive_metric(systems, cs)
        scale = margin / base.min_eigenvalue
        eta, w, v = scale[:, None, None] * base.eta, scale[:, None] * base.eigh[0] - 1.0, base.eigh[1]
    else:
        eta = np.array([eta] if single else eta, dtype=complex)
        # H's PT test joins the metric equations' norm pass; one eigh of eta - I tests lambda_min(eta) > 1
        commutator = _pt_commutator(_require_square(h, "build_dilation", stack=True), pts)
        (hermitian, intertwining), h_norm, (commutator,) = _metric_verdicts(h, eta, "build_dilation", commutator)
        w, v = np.linalg.eigh(0.5 * (eta + eta.conj().mT) - eye)

    # every verdict waits for the factors, to be judged in one pass, so tau is factored at w clamped to 0
    w_min, w = w[:, 0], np.maximum(w, 0.0)
    tau = eigen_power(w, v, 0.5)
    i_tau = np.empty((b, 2 * n, n), dtype=complex)
    i_tau[:, :n], i_tau[:, n:] = eye, tau
    q1, r = np.linalg.qr(i_tau)  # reduced: [I; tau] = Q1 R
    # Q2 = J Q1, J = [[0, -I], [I, 0]]: J (x; tau x) = (-tau x; x) is orthogonal to Y_tau, as tau is Hermitian
    ytau_q = np.concatenate([q1, np.concatenate([-q1[:, n:], q1[:, :n]], axis=1)], axis=2)
    # R H R^{-1} = R H Q1_top, with sqrt(lambda_min(eta)) times a solve's error: Q1_top is R^{-1} to eps absolute
    hy = r @ h @ q1[:, :n] if max(w_min.tolist()) <= 63.0 else np.linalg.solve(r.mT, (r @ h).mT).mT  # solved above 64 I
    hy_dag = hy.conj().mT
    tau_ok = np.sqrt(w[:, 0]) > TOL.psd_tol
    ok = [tau_ok]
    if supplied:  # H is quasi-Hermitian once R H R^{-1} is Hermitian: H^dag eta = eta H in the R frame
        h_tol = TOL.eq_tol * np.maximum(1.0, h_norm)
        quasi_hermitian = _norms(hy - hy_dag)[0] <= h_tol
        ok += [hermitian, intertwining, commutator <= h_tol, w_min > 0.0, quasi_hermitian]
    if not all(np.concatenate(ok).tolist()):  # one verdict pass; the first failure is refused in this order
        if supplied:  # a broken, defective or (by the same PT test, bit for bit) not PT-symmetric H first
            _require_unbroken(classify(h, pts), "build_dilation")
            _refuse_metric(hermitian, intertwining, "build_dilation")
            for i, where in _failures(w_min > 0.0, "build_dilation"):
                raise errors.EtaNotGreaterThanIError(f"{where}: lambda_min(eta) = {1.0 + w_min[i]:.6g} <= 1")
        for _, where in _failures(tau_ok, "build_dilation"):
            raise errors.NumericalFailureError(f"{where}: tau is singular (eta at boundary)")
        for _, where in _failures(quasi_hermitian, "build_dilation"):
            raise errors.NotIntertwiningError(f"{where}: R H R^{{-1}} is not Hermitian")
    wy, vy = np.linalg.eigh(0.5 * (hy + hy_dag))
    q1vy = q1 @ vy
    _read_only(h, eta, w, v, tau, ytau_q, r, vy, wy, q1vy)
    out = [Dilation(h[i], pts[i], float(h_norm[i]), eta[i], w[i], v[i], tau[i], ytau_q[i], r[i], vy[i],
                    (wy[i], q1vy[i]), h1_choice, None if h1 is None else h1[i], c) for i, c in enumerate(cs)]
    return out[0] if single else out


def _hhat_blocks(ds) -> tuple:
    """Read-only stacks (H1, H2 = (H - H1) tau^{-1}, H4 = (tau H - H2^dag) tau^{-1},
    Hhat = [[H1, H2], [H2^dag, H4]] symmetrized) of the dilations ds of one build."""
    h, tau, w, v = (np.array([getattr(d, f) for d in ds]) for f in ("H", "tau", "eta_minus_i_w", "eta_minus_i_v"))
    b, n = h.shape[:2]
    if ds[0].h1_choice == "paper":
        eta_inv = eigen_power(w + 1.0, v, -1.0)
        h1 = tau @ h @ tau @ eta_inv + h @ eta_inv
        h1 = 0.5 * (h1 + h1.conj().mT)
    else:
        h1 = np.array([np.zeros_like(d.H) if d.h1_supplied is None else d.h1_supplied for d in ds])
    tau_inv = np.linalg.inv(tau)
    h2 = (h - h1) @ tau_inv
    h4 = (tau @ h - h2.conj().mT) @ tau_inv
    hhat = np.empty((b, 2 * n, 2 * n), dtype=complex)
    hhat[:, :n, :n], hhat[:, :n, n:], hhat[:, n:, :n], hhat[:, n:, n:] = h1, h2, h2.conj().mT, h4
    hhat = 0.5 * (hhat + hhat.conj().mT)
    return _read_only(h1, h2, h4, hhat)


def in_tau_subspace(x, tau) -> bool:
    x = np.asarray(x, dtype=complex).reshape(-1)
    tau = _require_square(tau, "in_tau_subspace")
    n = tau.shape[0]
    if x.shape[0] != 2 * n:
        raise errors.DimensionMismatchError("in_tau_subspace: length mismatch")
    return np.linalg.norm(x[n:] - tau @ x[:n]) <= TOL.eq_tol * max(1.0, np.linalg.norm(x)) * max(1.0, fro(tau))


def dilated_evolution(d: Dilation, t: float, xhat) -> np.ndarray:
    xhat = np.asarray(xhat, dtype=complex).reshape(-1)
    _require_finite("dilated_evolution", t=t, xhat=xhat)
    if not in_tau_subspace(xhat, d.tau):
        raise errors.NotInSubspaceError("dilated_evolution: input is not in Y_tau")
    return eigen_evolve(*d.ytau_eigh, t, xhat)


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
    _require_finite("embedding_membership", hhat=hhat, h=h, x=x)
    y = x.copy()
    z = x[:n].copy()
    for _ in range(2 * n + 1):
        scale = max(1.0, np.linalg.norm(y), np.linalg.norm(z))
        if np.linalg.norm(y[:n] - z) > TOL.eq_tol * scale:
            return False
        y = hhat @ y
        z = h @ z
    return True
