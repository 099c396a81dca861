"""Two-party experiment: entangled input, local two-level evolution on
Alice's side (direct, or simulated through the dilated pipeline with
post-selection), sigma_y measurements on both sides, Bob marginals and the
signaling gap delta_S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .dilation import build_dilation
from .linalg import DEFAULT_TOL as TOL, SIGMA_X, _failures, _require_finite, eigen_evolve
from .pipeline import (gunther_eta, gunther_propagator, gunther_system, preparation_completion,
                       resolve_rho, scheme_stages)

__all__ = [
    "ExperimentConfig",
    "JointStats",
    "bell_plus_x_state",
    "run_experiment",
    "whole_system_bob_marginals",
    "sweep_delta_s",
]

_Y_BASIS = np.array([[1.0, 1.0], [1j, -1j]], dtype=complex) / np.sqrt(2.0)  # columns |+y>, |-y>
_Y_DAG, _Y_CONJ = _Y_BASIS.conj().T, _Y_BASIS.conj()
_ALICE_UNITARIES = (np.eye(2, dtype=complex), SIGMA_X)
_ALICE_STATES = np.array(_ALICE_UNITARIES) @ (np.eye(2, dtype=complex) / np.sqrt(2.0))  # u_a x I on the Bell state


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    s: float = 1.0
    t: float = 1.0
    scheme: str = "identity"  # identity | metric_sandwich
    mode: str = "direct_eq71"  # direct_eq71 | simulated_eq73

    def __post_init__(self):
        _require_finite("ExperimentConfig", alpha=self.alpha, s=self.s, t=self.t)
        if abs(self.alpha) >= np.pi / 2:
            raise errors.NotUnbrokenError("ExperimentConfig: |alpha| must be < pi/2")
        for name, allowed in (("scheme", ("identity", "metric_sandwich")),
                              ("mode", ("direct_eq71", "simulated_eq73"))):
            if getattr(self, name) not in allowed:
                raise errors.ParseError(f"ExperimentConfig: unknown {name} {getattr(self, name)!r}; "
                                        f"use one of {', '.join(allowed)}")


@dataclass(frozen=True, eq=False)
class JointStats:
    table: np.ndarray  # [k, a, b] over outcomes {+y, -y}
    bob_marginals: np.ndarray  # [k, b]
    delta_s: float
    p_success: np.ndarray  # per-branch success probability (1.0 in direct mode)


def bell_plus_x_state() -> np.ndarray:
    """(|+x +x> + |-x -x>)/sqrt(2) = (|00> + |11>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def run_experiment(cfg: ExperimentConfig) -> JointStats:
    """Both Alice branches of the experiment, in direct or simulated mode: the grid of one.

    Each mode acts on Alice's side of an (Alice, Bob) block as op x I_Bob:
    rho' e^{-itH} rho, or the dilated pipeline's Kraus operator K(t), whose
    squared norm is the branch's success probability. The energy offset E0 and
    Bob's trivial evolution are global phases, which no outcome depends on.
    """
    return JointStats(*(x[0, 0] for x in _grid([cfg.alpha], [cfg.t], cfg.s, cfg.scheme, cfg.mode)))


def _grid(alphas: list, ts: list, s: float, scheme: str, mode: str) -> tuple:
    """``run_experiment``'s (table, Bob marginals, delta_S, p_success) at every (alpha, t), stacked (A, T, ...)."""
    # each alpha's H, eta and e^{-itH} are the scalar closed forms, cheaper than the array forms at a few alphas
    if simulated := mode == "simulated_eq73":  # K(t) of the stages of one stacked build
        d = build_dilation([gunther_system(a, s) for a in alphas], eta=list(map(gunther_eta, alphas)),
                           h1_choice="paper")
        channel = scheme_stages(d, scheme).kraus(ts)
    else:  # rho' e^{-itH} rho: identity's are I, and every alpha's metric_sandwich pair comes from one eigh
        channel = np.array([gunther_propagator(a, s, t=ts) for a in alphas])
        if scheme == "metric_sandwich":
            rho, rho_prime = resolve_rho(scheme, np.array(list(map(gunther_eta, alphas))))
            channel = rho_prime[..., None, :, :] @ channel @ rho[..., None, :, :]
    weights = np.abs(_Y_DAG @ (channel[..., None, :, :] @ _ALICE_STATES) @ _Y_CONJ) ** 2  # [alpha, t, k, a, b]
    norm_sq = weights.sum(axis=(-2, -1))  # ||final_k||^2, as the y basis is orthonormal
    # a branch vanishes at norm <= branch_tol or, simulated, at the larger bound p_success <= psd_tol
    ok = norm_sq > TOL.psd_tol if simulated else np.sqrt(norm_sq) > TOL.branch_tol
    for i, where in _failures(list(map(all, ok.reshape(-1, 2).tolist())), "run_experiment"):  # points alpha-major
        raise errors.ZeroFinalStateError(f"{where}: {mode} branch {ok.reshape(-1, 2)[i].argmin()} vanished")
    bob = (table := weights / norm_sq[..., None, None]).sum(axis=-2)  # [alpha, t, k, b]
    return table, bob, np.abs(bob[..., 0, 0] - bob[..., 1, 0]), norm_sq if simulated else np.ones(norm_sq.shape)


def whole_system_bob_marginals(cfg: ExperimentConfig) -> np.ndarray:
    """Bob's {+y, -y} marginals from the un-post-selected evolution.

    The prepared (dilated Alice, Bob) block, before any projection, is
    evolved under Hhat; Bob's reduced density matrix is traced out of the
    4-dimensional dilated Alice factor.
    """
    d = build_dilation(gunther_system(cfg.alpha, cfg.s), eta=gunther_eta(cfg.alpha), h1_choice="paper")
    prep = preparation_completion(d, resolve_rho(cfg.scheme, d)[0])

    out = np.zeros((2, 2))
    for k, state in enumerate(_ALICE_STATES):  # u_a x I on the Bell state
        xi = eigen_evolve(*d.hhat_eigh, cfg.t, prep.U @ np.concatenate([state, np.zeros_like(state)]))
        rho_bob = xi.T @ xi.conj()  # trace over the dilated Alice factor
        out[k] = np.real(np.diag(_Y_DAG @ rho_bob @ _Y_BASIS))
    return out


def sweep_delta_s(alphas, ts, scheme: str, mode: str = "simulated_eq73", s: float = 1.0) -> list[dict]:
    """One ``run_experiment`` row per (alpha, t), alpha-major, from one stack (``_grid``): one stacked
    ``build_dilation``, stage build and ``SchemeStages.kraus`` for every t, or in direct mode one ``resolve_rho``."""
    alphas, ts = list(map(float, alphas)), list(map(float, ts))
    if not (alphas and ts):
        return []
    for alpha, t in zip(alphas + alphas[:1] * (len(ts) - 1), ts[:1] * len(alphas) + ts[1:]):
        ExperimentConfig(alpha, s, t, scheme, mode)  # its checks, of every alpha and every t
    *_, delta_s, p_success = _grid(alphas, ts, s, scheme, mode)
    return [{"alpha": alpha, "t": t, "scheme": scheme, "delta_s": d, "p_success_1": p1, "p_success_2": p2}
            for alpha, row, p_row in zip(alphas, delta_s.tolist(), p_success.tolist())
            for t, d, (p1, p2) in zip(ts, row, p_row)]
