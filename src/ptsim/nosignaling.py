"""Two-party experiment: entangled input, local two-level evolution on
Alice's side (direct, or simulated through the dilated pipeline with
post-selection), sigma_y measurements on both sides, Bob marginals and the
signaling gap delta_S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .dilation import Dilation, build_dilation
from .linalg import DEFAULT_TOL as TOL, SIGMA_X, _require_finite, eigen_evolve
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
_ALICE_UNITARIES = (np.eye(2, dtype=complex), SIGMA_X)


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


@dataclass(frozen=True)
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
    return np.abs(_Y_BASIS.conj().T @ state @ _Y_BASIS.conj()) ** 2


def _paper_dilation(cfg: ExperimentConfig) -> Dilation:
    return build_dilation(gunther_system(cfg.alpha, cfg.s), eta=gunther_eta(cfg.alpha), h1_choice="paper")


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
    psi = bell_plus_x_state().reshape(2, 2)
    if stages is None:
        rho, rho_prime = resolve_rho(cfg.scheme, gunther_eta(cfg.alpha))
        channel = rho_prime @ gunther_propagator(cfg.alpha, cfg.s, t=cfg.t) @ rho
    else:
        channel = stages.kraus(cfg.t)
    table = np.zeros((2, 2, 2))
    p_success = np.ones(2)  # stays 1 in direct mode
    for k, u_a in enumerate(_ALICE_UNITARIES):
        final = channel @ (u_a @ psi)
        nrm = np.linalg.norm(final)
        if stages is not None:
            p_success[k] = nrm**2
        if nrm <= 1e-14 or p_success[k] <= TOL.psd_tol:
            raise errors.ZeroFinalStateError(f"run_experiment: {cfg.mode} branch {k} vanished")
        table[k] = _measure_joint(final / nrm)

    bob = table.sum(axis=1)  # [k, b]
    delta_s = float(abs(bob[0, 0] - bob[1, 0]))
    return JointStats(table, bob, delta_s, p_success)


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
    """One ``run_experiment`` row per (alpha, t); in simulated mode each alpha's
    dilation and stages are built once and every t reads its K(t)."""
    rows = []
    for alpha in alphas:
        stages = None
        for t in ts:
            cfg = ExperimentConfig(alpha=alpha, s=s, t=t, scheme=scheme, mode=mode)
            if stages is None and mode == "simulated_eq73":
                stages = scheme_stages(_paper_dilation(cfg), scheme)
            stats = _experiment_stats(cfg, stages)
            rows.append({"alpha": float(alpha), "t": float(t), "scheme": scheme,
                         "delta_s": stats.delta_s, "p_success_1": float(stats.p_success[0]),
                         "p_success_2": float(stats.p_success[1])})
    return rows
