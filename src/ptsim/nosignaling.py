"""Two-party experiment: entangled input, local two-level evolution on
Alice's side (direct, or simulated through the dilated pipeline with
post-selection), sigma_y measurements on both sides, Bob marginals and the
signaling gap delta_S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .completion import post_select
from .dilation import Dilation, build_dilation
from .linalg import DEFAULT_TOL, SIGMA_X, Tolerances, matrix_exp
from .pipeline import SchemeStages, gunther_eta, gunther_system, resolve_rho, scheme_stages

__all__ = [
    "ExperimentConfig",
    "JointStats",
    "bell_plus_x_state",
    "run_experiment",
    "whole_system_bob_marginals",
    "sweep_delta_s",
]

PLUS_Y = np.array([1.0, 1j], dtype=complex) / np.sqrt(2.0)
MINUS_Y = np.array([1.0, -1j], dtype=complex) / np.sqrt(2.0)
_ALICE_UNITARIES = (np.eye(2, dtype=complex), SIGMA_X)


@dataclass
class ExperimentConfig:
    alpha: float
    s: float = 1.0
    e0: float = 0.0
    t: float = 1.0
    scheme: str = "identity"  # identity | metric_sandwich | custom
    mode: str = "direct_eq71"  # direct_eq71 | simulated_eq73
    rho: np.ndarray | None = None
    rho_prime: np.ndarray | None = None

    def __post_init__(self):
        if abs(self.alpha) >= np.pi / 2:
            raise errors.NotUnbrokenError("ExperimentConfig: |alpha| must be < pi/2")


@dataclass(frozen=True)
class JointStats:
    table: np.ndarray  # [k, a, b] over outcomes {+y, -y}
    bob_marginals: np.ndarray  # [k, b]
    delta_s: float
    p_success: np.ndarray  # per-branch success probability (1.0 in direct mode)

    def to_obj(self) -> dict:
        return {
            "table": [[[float(x) for x in row] for row in block] for block in self.table],
            "bob_marginals": [[float(x) for x in row] for row in self.bob_marginals],
            "delta_s": float(self.delta_s),
            "p_success": [float(x) for x in self.p_success],
        }


def bell_plus_x_state() -> np.ndarray:
    """(|+x +x> + |-x -x>)/sqrt(2) = (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def _measure_joint(state: np.ndarray) -> np.ndarray:
    """2x2 table of |<a b|state>|^2 over a, b in {+y, -y}."""
    out = np.zeros((2, 2))
    for ia, a in enumerate((PLUS_Y, MINUS_Y)):
        for ib, b in enumerate((PLUS_Y, MINUS_Y)):
            amp = np.kron(a, b).conj() @ state
            out[ia, ib] = float(abs(amp) ** 2)
    return out


def _paper_dilation(cfg: ExperimentConfig, tol: Tolerances) -> Dilation:
    sys = gunther_system(cfg.alpha, cfg.s, cfg.e0, tol)
    return build_dilation(sys, eta=gunther_eta(cfg.alpha), h1_choice="paper", tol=tol)


def _simulated_branch(st: SchemeStages, u_full: np.ndarray, psi_joint, tol: Tolerances):
    """Run the dilated pipeline on Alice's factor of a two-qubit state.

    Full space ordering: (ancilla, Alice, Bob); Alice-side 4x4 pipeline
    operators lift as kron(op, I_Bob), and u_full is the lifted evolution.
    Returns the post-selected Alice x Bob state and the product of branch
    probabilities.
    """
    eye2 = np.eye(2, dtype=complex)
    xi1 = np.concatenate([psi_joint, np.zeros(4, dtype=complex)])  # ancilla |0>

    prep = st.preparation
    xi, p_prep = post_select(np.kron(prep.U, eye2) @ xi1, np.kron(prep.P_N, eye2), tol)
    if p_prep == 0.0:
        raise errors.ZeroBranchError("simulated branch: preparation vanished")

    xi = u_full @ xi

    extr = st.extraction
    xi, p1 = post_select(np.kron(extr.U, eye2) @ xi, np.kron(extr.P_N, eye2), tol)
    if p1 == 0.0:
        raise errors.ZeroBranchError("simulated branch: extraction vanished")
    p0 = np.zeros((8, 8), dtype=complex)
    p0[:4, :4] = np.eye(4)
    xi, p2 = post_select(xi, p0, tol)

    return xi[:4], float(p_prep * p1 * p2)


def run_experiment(cfg: ExperimentConfig, tol: Tolerances = DEFAULT_TOL) -> JointStats:
    psi = bell_plus_x_state()
    eye2 = np.eye(2, dtype=complex)
    bob_phase = np.exp(-1j * cfg.t) * eye2  # Bob's trivial Hamiltonian: the global phase e^{-it}
    if cfg.mode == "direct_eq71":
        h0 = gunther_system(cfg.alpha, cfg.s, cfg.e0, tol).H
        u0 = matrix_exp(-1j * cfg.t * h0, tol)
        rho, rho_prime = resolve_rho(cfg.scheme, gunther_eta(cfg.alpha), cfg.rho, cfg.rho_prime, tol)
        channel = np.kron(rho_prime @ u0 @ rho, bob_phase)
    elif cfg.mode == "simulated_eq73":
        d = _paper_dilation(cfg, tol)
        st = scheme_stages(d, cfg.scheme, cfg.rho, cfg.rho_prime, tol)
        u_full = np.kron(matrix_exp(-1j * cfg.t * d.Hhat, tol), bob_phase)
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    table = np.zeros((2, 2, 2))
    p_success = np.ones(2)
    for k, u_a in enumerate(_ALICE_UNITARIES):
        psi_k = np.kron(u_a, eye2) @ psi
        if cfg.mode == "direct_eq71":
            final = channel @ psi_k
            nrm = np.linalg.norm(final)
            if nrm <= 1e-14:
                raise errors.ZeroBranchError("direct branch: channel annihilated the state")
            final = final / nrm
        else:
            final, p_success[k] = _simulated_branch(st, u_full, psi_k, tol)
        table[k] = _measure_joint(final)

    bob = table.sum(axis=1)  # [k, b]
    delta_s = float(abs(bob[0, 0] - bob[1, 0]))
    return JointStats(table, bob, delta_s, p_success)


def whole_system_bob_marginals(cfg: ExperimentConfig, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Bob's {+y, -y} marginals from the un-post-selected 8-dim evolution.

    The prepared state (before any projection) is evolved under
    kron(Hhat, I); Bob's reduced density matrix is traced out of the
    4-dimensional dilated Alice factor.
    """
    psi = bell_plus_x_state()
    d = _paper_dilation(cfg, tol)
    prep = scheme_stages(d, cfg.scheme, cfg.rho, cfg.rho_prime, tol).preparation
    eye2 = np.eye(2, dtype=complex)
    u_prep = np.kron(prep.U, eye2)
    u_evo = np.kron(matrix_exp(-1j * cfg.t * d.Hhat, tol), eye2)

    out = np.zeros((2, 2))
    for k, u_a in enumerate(_ALICE_UNITARIES):
        psi_k = np.kron(u_a, eye2) @ psi
        xi = u_evo @ (u_prep @ np.concatenate([psi_k, np.zeros(4, dtype=complex)]))
        m = xi.reshape(4, 2)
        rho_bob = m.T @ m.conj()  # trace over the dilated Alice factor
        out[k, 0] = float(np.real(PLUS_Y.conj() @ rho_bob @ PLUS_Y))
        out[k, 1] = float(np.real(MINUS_Y.conj() @ rho_bob @ MINUS_Y))
    return out


def sweep_delta_s(alphas, ts, scheme: str, mode: str = "simulated_eq73",
                  s: float = 1.0, tol: Tolerances = DEFAULT_TOL) -> list[dict]:
    rows = []
    for alpha in alphas:
        for t in ts:
            cfg = ExperimentConfig(alpha=alpha, s=s, t=t, scheme=scheme, mode=mode)
            stats = run_experiment(cfg, tol)
            rows.append(
                {
                    "alpha": float(alpha),
                    "t": float(t),
                    "scheme": scheme,
                    "delta_s": stats.delta_s,
                    "p_success_1": float(stats.p_success[0]),
                    "p_success_2": float(stats.p_success[1]),
                }
            )
    return rows
