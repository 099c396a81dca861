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


def _paper_dilations(cfgs) -> list:
    """The paper's dilation of each of the configs, from one stacked build."""
    return build_dilation([gunther_system(c.alpha, c.s) for c in cfgs], eta=[gunther_eta(c.alpha) for c in cfgs],
                          h1_choice="paper")


def run_experiment(cfg: ExperimentConfig) -> JointStats:
    """Both Alice branches of the experiment, in direct or simulated mode.

    Each mode acts on Alice's side of an (Alice, Bob) block as op x I_Bob:
    rho' e^{-itH} rho, or the dilated pipeline's Kraus operator K(t), whose
    squared norm is the branch's success probability. The energy offset E0 and
    Bob's trivial evolution are global phases, which no outcome depends on.
    """
    return _experiment_stats(cfg, _channels([cfg])[0](cfg.t))


def _channels(cfgs) -> list:
    """t -> Alice's operator at each config's alpha: K(t) of its stages, one stacked build for all of
    them, or rho' e^{-itH} rho with (rho, rho') formed once."""
    if cfgs[0].mode == "simulated_eq73":
        return [scheme_stages(d, c.scheme).kraus for c, d in zip(cfgs, _paper_dilations(cfgs))]
    return [lambda t, c=c, rhos=resolve_rho(c.scheme, gunther_eta(c.alpha)):
            rhos[1] @ gunther_propagator(c.alpha, c.s, t=t) @ rhos[0] for c in cfgs]


def _experiment_stats(cfg: ExperimentConfig, channel: np.ndarray) -> JointStats:
    """``run_experiment`` with Alice's operator at cfg.t."""
    weights = np.abs(_Y_DAG @ (channel @ _ALICE_STATES) @ _Y_CONJ) ** 2  # [k, a, b] = |<a b|final_k>|^2
    norm_sq = weights.sum(axis=(1, 2))  # ||final_k||^2, as the y basis is orthonormal
    simulated = cfg.mode == "simulated_eq73"  # p_success is norm_sq; it stays 1 in direct mode
    # a branch vanishes at norm <= branch_tol or, simulated, at the larger bound p_success <= psd_tol
    ok = norm_sq > TOL.psd_tol if simulated else np.sqrt(norm_sq) > TOL.branch_tol
    for k, _ in _failures(ok, "run_experiment"):
        raise errors.ZeroFinalStateError(f"run_experiment: {cfg.mode} branch {k} vanished")
    table = weights / norm_sq[:, None, None]
    bob = table.sum(axis=1)  # [k, b]
    return JointStats(table, bob, float(abs(bob[0, 0] - bob[1, 0])), norm_sq if simulated else np.ones(2))


def whole_system_bob_marginals(cfg: ExperimentConfig) -> np.ndarray:
    """Bob's {+y, -y} marginals from the un-post-selected evolution.

    The prepared (dilated Alice, Bob) block, before any projection, is
    evolved under Hhat; Bob's reduced density matrix is traced out of the
    4-dimensional dilated Alice factor.
    """
    (d,) = _paper_dilations([cfg])
    prep = preparation_completion(d, resolve_rho(cfg.scheme, d)[0])

    out = np.zeros((2, 2))
    for k, state in enumerate(_ALICE_STATES):  # u_a x I on the Bell state
        xi = eigen_evolve(*d.hhat_eigh, cfg.t, prep.U @ np.concatenate([state, np.zeros_like(state)]))
        rho_bob = xi.T @ xi.conj()  # trace over the dilated Alice factor
        out[k] = np.real(np.diag(_Y_DAG @ rho_bob @ _Y_BASIS))
    return out


def sweep_delta_s(alphas, ts, scheme: str, mode: str = "simulated_eq73", s: float = 1.0) -> list[dict]:
    """One ``run_experiment`` row per (alpha, t); every alpha's operator is formed once (``_channels``),
    in simulated mode from one stacked ``build_dilation`` call, and every t reads it."""
    grid = [[ExperimentConfig(alpha=alpha, s=s, t=t, scheme=scheme, mode=mode) for t in ts] for alpha in alphas]
    channels = _channels([row[0] for row in grid]) if grid and grid[0] else []
    return [{"alpha": float(cfg.alpha), "t": float(cfg.t), "scheme": scheme, "delta_s": js.delta_s,
             "p_success_1": float(js.p_success[0]), "p_success_2": float(js.p_success[1])}
            for row, channel in zip(grid, channels) for cfg in row for js in [_experiment_stats(cfg, channel(cfg.t))]]
