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
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def _measure_joint(state: np.ndarray) -> np.ndarray:
    """2x2 table of |<a b|state>|^2 over a, b in {+y, -y} for an (Alice, Bob) block."""
    return np.abs(_Y_DAG @ state @ _Y_CONJ) ** 2


def _paper_dilation(cfg):
    """The paper's dilation of cfg, or of each of a list of configs from one stacked build."""
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    ds = build_dilation([gunther_system(c.alpha, c.s) for c in cfgs], eta=[gunther_eta(c.alpha) for c in cfgs],
                        h1_choice="paper")
    return ds if isinstance(cfg, list) else ds[0]


def run_experiment(cfg: ExperimentConfig) -> JointStats:
    """Both Alice branches of the experiment, in direct or simulated mode.

    Each mode acts on Alice's side of an (Alice, Bob) block as op x I_Bob:
    rho' e^{-itH} rho, or the dilated pipeline's Kraus operator K(t), whose
    squared norm is the branch's success probability. The energy offset E0 and
    Bob's trivial evolution are global phases, which no outcome depends on.
    """
    stages = scheme_stages(_paper_dilation(cfg), cfg.scheme) if cfg.mode == "simulated_eq73" else None
    return _experiment_stats(cfg, stages)


def _experiment_stats(cfg: ExperimentConfig, stages) -> JointStats:
    """``run_experiment`` on cfg's stages, built once per alpha; None in direct mode."""
    if stages is None:
        rho, rho_prime = resolve_rho(cfg.scheme, gunther_eta(cfg.alpha))
        channel = rho_prime @ gunther_propagator(cfg.alpha, cfg.s, t=cfg.t) @ rho
    else:
        channel = stages.kraus(cfg.t)
    weights = _measure_joint(channel @ _ALICE_STATES)  # [k, a, b], unnormalized
    norm_sq = weights.sum(axis=(1, 2))  # ||final_k||^2, as the y basis is orthonormal
    p_success = norm_sq if stages is not None else np.ones(2)  # stays 1 in direct mode
    for k, _ in _failures((np.sqrt(norm_sq) > TOL.branch_tol) & (p_success > TOL.psd_tol), "run_experiment"):
        raise errors.ZeroFinalStateError(f"run_experiment: {cfg.mode} branch {k} vanished")
    table = weights / norm_sq[:, None, None]
    bob = table.sum(axis=1)  # [k, b]
    return JointStats(table, bob, float(abs(bob[0, 0] - bob[1, 0])), p_success)


def whole_system_bob_marginals(cfg: ExperimentConfig) -> np.ndarray:
    """Bob's {+y, -y} marginals from the un-post-selected evolution.

    The prepared (dilated Alice, Bob) block, before any projection, is
    evolved under Hhat; Bob's reduced density matrix is traced out of the
    4-dimensional dilated Alice factor.
    """
    psi = bell_plus_x_state().reshape(2, 2)
    d = _paper_dilation(cfg)
    prep = preparation_completion(d, resolve_rho(cfg.scheme, d)[0])

    out = np.zeros((2, 2))
    for k, u_a in enumerate(_ALICE_UNITARIES):
        state = u_a @ psi
        xi = eigen_evolve(*d.hhat_eigh, cfg.t, prep.U @ np.concatenate([state, np.zeros_like(state)]))
        rho_bob = xi.T @ xi.conj()  # trace over the dilated Alice factor
        out[k] = np.real(np.diag(_Y_BASIS.conj().T @ rho_bob @ _Y_BASIS))
    return out


def sweep_delta_s(alphas, ts, scheme: str, mode: str = "simulated_eq73", s: float = 1.0) -> list[dict]:
    """One ``run_experiment`` row per (alpha, t); in simulated mode every
    alpha's dilation comes from one stacked ``build_dilation`` call, its
    stages are built once, and every t reads its K(t)."""
    grid = [[ExperimentConfig(alpha=alpha, s=s, t=t, scheme=scheme, mode=mode) for t in ts] for alpha in alphas]
    simulated = mode == "simulated_eq73" and grid and grid[0]
    stages = [scheme_stages(d, scheme) for d in _paper_dilation([r[0] for r in grid])] if simulated else [None] * len(grid)
    points = [(cfg, _experiment_stats(cfg, st)) for cfgs, st in zip(grid, stages) for cfg in cfgs]
    return [{"alpha": float(cfg.alpha), "t": float(cfg.t), "scheme": scheme, "delta_s": js.delta_s,
             "p_success_1": float(js.p_success[0]), "p_success_2": float(js.p_success[1])} for cfg, js in points]
