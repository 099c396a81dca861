"""Three-stage probabilistic simulation of an unbroken Hamiltonian:
couple an ancilla and map into the graph subspace (pre-simulation), run the
unitary dilated evolution (simulation), map back and measure out the ancilla
(post-simulation). Branch probabilities are computed analytically; optional
binomial sampling is layered on top for realism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import errors
from .completion import CompletionResult, frame_completion, post_select
from .dilation import Dilation, build_dilation
from .linalg import DEFAULT_TOL as TOL, SIGMA_X, eigen_evolve, fro, matrix_exp, psd_power
from .ptcore import PTSystem, validate_pt_pair

__all__ = [
    "SchemeStages",
    "resolve_rho",
    "scheme_stages",
    "SimulationConfig",
    "SimulationTrace",
    "run_simulation",
    "sample_successes",
    "gunther_hamiltonian",
    "gunther_eta",
    "gunther_system",
    "gunther_projection",
    "gunther_propagator",
    "reproduce_gunther_example",
]


def resolve_rho(scheme: str, eta, rho=None, rho_prime=None):
    """(rho, rho') of a scheme: identity | metric_sandwich | custom.

    eta is a metric, or a Dilation, whose factors of eta - I give its powers.
    """
    if isinstance(eta, Dilation):
        n, eta_power = eta.dim, eta.eta_power
    else:
        n, eta_power = eta.shape[0], lambda p: psd_power(eta, p)
    if scheme == "identity":
        eye = np.eye(n, dtype=complex)
        return eye, eye
    if scheme == "metric_sandwich":
        return eta_power(-0.5), eta_power(0.5)
    if scheme == "custom":
        if rho is None or rho_prime is None:
            raise errors.ParseError("custom scheme requires rho and rho_prime")
        rho, rho_prime = np.asarray(rho, dtype=complex), np.asarray(rho_prime, dtype=complex)
        if rho.shape != (n, n) or rho_prime.shape != (n, n):
            raise errors.DimensionMismatchError(
                f"custom scheme: rho {rho.shape} and rho_prime {rho_prime.shape} must be {n}x{n}")
        return rho, rho_prime
    raise errors.ParseError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class SchemeStages:
    """The stage operators of a scheme on one dilation.

    They are the scheme's (rho, rho'), the two completions these induce and
    the dilation's eigh factors (w, V) of Hhat, which evolve every t. It
    holds no reference to the dilation, so a dilation that keeps its stages
    forms no reference cycle and is freed as soon as it is dropped.

    A successful run is one Kraus operator of a quantum instrument (Nielsen
    & Chuang, ch. 8), K(t) = L diag(e^{-itw}) R, whose factors
    ``kraus_right`` R = V^dag P_prep U_prep[:, :n] (2n x n) and
    ``kraus_left`` L = U_extr[:n, :] V (n x 2n) are formed once with the
    stages. K(t) psi = sqrt(p_total) xi4[:n].
    """

    rho: np.ndarray
    rho_prime: np.ndarray
    preparation: CompletionResult
    extraction: CompletionResult
    hhat_eigh: tuple
    kraus_left: np.ndarray
    kraus_right: np.ndarray

    def run(self, psi, t: float):
        """The stage sequence on a unit state psi of shape (n,) or (n, m).

        The m columns of a block are a spectator factor (Bob) that no stage
        acts on. Returns (xi1, xi2, xi3, xi4, p_prepare, p_post).
        """
        psi = np.asarray(psi)
        if psi.ndim not in (1, 2) or psi.shape[0] != self.rho.shape[1]:
            raise errors.DimensionMismatchError(
                f"SchemeStages.run: psi of shape {psi.shape} does not fit n = {self.rho.shape[1]}")
        # stage 1: couple the ancilla in |0>
        xi1 = np.concatenate([psi, np.zeros_like(psi)])

        # stage 2: unitary + post-selection onto Y_tau
        prep = self.preparation
        xi2, p_prepare = post_select(prep.U @ xi1, prep.P_N)
        if p_prepare == 0.0:
            raise errors.ZeroFinalStateError("preparation branch vanished")

        # stage 3: unitary dilated evolution
        xi3 = eigen_evolve(*self.hhat_eigh, t, xi2)

        # stage 4: unitary + post-selection onto X1, which is the ancilla
        # measurement: extraction.P_N is the projector onto ancilla |0>
        extr = self.extraction
        xi4, p_post = post_select(extr.U @ xi3, extr.P_N)
        if p_post == 0.0:
            raise errors.ZeroFinalStateError("extraction branch vanished")
        return xi1, xi2, xi3, xi4, p_prepare, p_post

    def kraus(self, t: float) -> np.ndarray:
        """K(t), the n x n Kraus operator of a successful run at time t."""
        return (self.kraus_left * np.exp(-1j * t * self.hhat_eigh[0])) @ self.kraus_right

    def kraus_apply(self, t: float, psi) -> np.ndarray:
        """K(t) psi for psi of shape (n,) or (n, m), in O(n 2n m) work.

        The m columns of a block are a spectator factor (Bob), so this is
        K(t) x I_m on its ravel; the squared (Frobenius) norm of the result
        is the success probability of a unit psi.
        """
        phase = np.exp(-1j * t * self.hhat_eigh[0])
        return self.kraus_left @ (phase * (self.kraus_right @ psi).T).T


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def scheme_stages(d: Dilation, scheme: str, rho=None, rho_prime=None) -> SchemeStages:
    """The stages of a scheme on d.

    The built-in schemes are built once per dilation and kept on it, keyed
    by scheme, with read-only arrays, so every t and every state run on one
    dilation shares (rho, rho'), both completions and the Kraus factors. A
    custom scheme is built per call, since its factors are caller-owned
    arrays.

    P_prep = Q1 Q1^dag, with Q1 = ``d.ytau_frame``, is an orthogonal
    projection exactly when Q1 has orthonormal columns; that is checked here,
    once, so the Kraus factors need no per-call projector test.
    """
    if scheme in d.stage_cache:
        return d.stage_cache[scheme]
    n, q1 = d.dim, d.ytau_frame
    if fro(q1.conj().T @ q1 - np.eye(n)) > TOL.eq_tol * max(1.0, np.sqrt(n)):
        raise errors.NotProjectionError("scheme_stages: the Y_tau frame is not orthonormal")
    r, r_prime = resolve_rho(scheme, d, rho, rho_prime)
    prep, extr = preparation_completion(d, r), extraction_completion(d, r_prime)
    v = d.hhat_eigh[1]
    kraus_right = v.conj().T @ (q1 @ (q1.conj().T @ prep.U[:, :n]))
    kraus_left = extr.U[:n, :] @ v
    st = SchemeStages(r, r_prime, prep, extr, d.hhat_eigh, kraus_left, kraus_right)
    if scheme != "custom":
        _read_only(r, r_prime, prep.U, prep.P_N, extr.U, extr.P_N, kraus_left, kraus_right)
        d.stage_cache[scheme] = st
    return st


@dataclass
class SimulationConfig:
    sys: PTSystem
    dilation: Dilation
    t: float
    psi: np.ndarray
    scheme: str = "identity"  # identity | metric_sandwich | custom
    rho: np.ndarray | None = None
    rho_prime: np.ndarray | None = None

    def stages(self) -> SchemeStages:
        return scheme_stages(self.dilation, self.scheme, self.rho, self.rho_prime)


@dataclass(frozen=True)
class SimulationTrace:
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    xi4: np.ndarray
    xi5: np.ndarray
    p_prepare: float
    p_post: float
    p_total: float
    final_formula_check: float
    probability_check: float

    def to_obj(self) -> dict:
        from .io import vector_to_obj

        return {k: vector_to_obj(v) if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


def preparation_completion(d: Dilation, rho) -> CompletionResult:
    """Completion for the induced map (phi; 0) -> (rho phi; tau rho phi).

    Its frames are the coordinate frame [X1 | X1-perp] = I, passed as None so
    that it is never formed, and the dilation's complete Q of [I; tau].
    """
    action = d.ytau_frame.conj().T @ np.vstack([rho, d.tau @ rho])
    return frame_completion(None, d.ytau_q, action)


def extraction_completion(d: Dilation, rho_prime) -> CompletionResult:
    """Completion for the induced map (phi; tau phi) -> (rho' phi; 0),
    on the frames of ``preparation_completion`` in reverse.
    """
    action = rho_prime @ d.ytau_frame[:d.dim, :]
    return frame_completion(d.ytau_q, None, action)


def run_simulation(cfg: SimulationConfig) -> SimulationTrace:
    if not math.isfinite(cfg.t):
        raise errors.ParseError(f"run_simulation: t = {cfg.t} is not finite")
    d = cfg.dilation
    n = d.dim
    st = cfg.stages()
    psi = np.asarray(cfg.psi, dtype=complex).reshape(-1)
    if psi.shape[0] != n:
        raise errors.DimensionMismatchError("run_simulation: psi has the wrong length")
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise errors.ZeroVectorError("run_simulation: zero input state")
    psi = psi / nrm

    ut = matrix_exp(-1j * cfg.t * d.H)
    target = st.rho_prime @ (ut @ (st.rho @ psi))
    if np.linalg.norm(target) <= 1e-12:
        raise errors.ZeroFinalStateError("run_simulation: rho' U(t) rho annihilates psi")

    xi1, xi2, xi3, xi4, p_prepare, p_post = st.run(psi, cfg.t)
    xi5 = xi4[:n]
    final_formula_check = float(np.linalg.norm(xi5 - target / np.linalg.norm(target)))
    p_total = float(p_prepare * p_post)
    # the stage route against the instrument: p_total = ||K(t) psi||^2
    probability_check = abs(p_total - float(np.linalg.norm(st.kraus_apply(cfg.t, psi)) ** 2)) / p_total
    return SimulationTrace(
        xi1, xi2, xi3, xi4, xi5, float(p_prepare), float(p_post), p_total,
        final_formula_check, probability_check,
    )


def sample_successes(trace: SimulationTrace, samples: int, seed: int) -> dict:
    """Binomial draw of pipeline successes at the analytic branch probability."""
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, Integral) or isinstance(value, bool) or value < 0:
            raise errors.ParseError(f"sample_successes: {name} must be an integer >= 0, got {value!r}")
    rng = np.random.default_rng(seed)
    successes = int(rng.binomial(samples, trace.p_total))
    return {"samples": samples, "successes": successes, "p_total": trace.p_total}


# ---------------------------------------------------------------------------
# worked two-level example (alpha, s, E0 family)
# ---------------------------------------------------------------------------


def gunther_hamiltonian(alpha: float, s: float = 1.0, e0: float = 0.0) -> np.ndarray:
    return np.array(
        [[e0 + 1j * s * np.sin(alpha), s], [s, e0 - 1j * s * np.sin(alpha)]], dtype=complex
    )


def gunther_eta(alpha: float) -> np.ndarray:
    return (2.0 / np.cos(alpha) ** 2) * np.array(
        [[1.0, -1j * np.sin(alpha)], [1j * np.sin(alpha), 1.0]], dtype=complex
    )


# the family's PT pair (sigma_x, I), validated once and shared read-only
_GUNTHER_PT = validate_pt_pair(SIGMA_X.copy(), np.eye(2, dtype=complex))
_read_only(_GUNTHER_PT.P, _GUNTHER_PT.T, _GUNTHER_PT.PT)


def gunther_system(alpha: float, s: float = 1.0, e0: float = 0.0) -> PTSystem:
    return PTSystem(gunther_hamiltonian(alpha, s, e0), _GUNTHER_PT)


def gunther_projection(alpha: float) -> np.ndarray:
    """Closed-form orthogonal projection onto Y_tau for the two-level family."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    return 0.5 * np.array(
        [
            [1, 1j * sa, ca, 0],
            [-1j * sa, 1, 0, ca],
            [ca, 0, 1, -1j * sa],
            [0, ca, 1j * sa, 1],
        ],
        dtype=complex,
    )


def gunther_propagator(alpha: float, s: float = 1.0, e0: float = 0.0, t: float = 1.0) -> np.ndarray:
    """Closed-form e^{-itH} for the two-level family.

    H - e0 I squares to w^2 I with w = s cos(alpha), so
    e^{-itH} = e^{-it e0} [cos(wt) I - i t sinc(wt) (H - e0 I)], where
    sinc(x) = sin(x)/x and sinc(0) = 1.
    """
    wt = s * np.cos(alpha) * t
    sinc = np.sin(wt) / wt if wt != 0.0 else 1.0
    k = gunther_hamiltonian(alpha, s, 0.0)  # H - e0 I
    return np.exp(-1j * t * e0) * (np.cos(wt) * np.eye(2) - 1j * t * sinc * k)


def _gunther_hhat(alpha: float, s: float, e0: float) -> np.ndarray:
    """Closed-form Hhat = I x (e0 I + b sigma_x) - c sigma_y x sigma_z, entry by
    entry, with b = s cos^2(alpha) and c = s sin(alpha) cos(alpha)."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    b, ic = s * ca**2, 1j * (s * ca * sa)
    return np.array([[e0, b, ic, 0], [b, e0, 0, -ic], [-ic, 0, e0, b], [0, ic, b, e0]], dtype=complex)


def reproduce_gunther_example(alpha: float, s: float = 1.0, e0: float = 0.0, t: float = 1.0) -> dict:
    """Entrywise comparison of the construction against its closed forms.

    Returns residuals for tau, H1, H2, H4, the tensor form of Hhat, the
    Y_tau projection, the preparation amplitude cos(alpha)/2 along the
    embedded initial state, and the top-block evolution identity against
    ``gunther_propagator``.
    """
    for name, value in (("alpha", alpha), ("s", s), ("e0", e0), ("t", t)):
        if not math.isfinite(value):
            raise errors.ParseError(f"reproduce_gunther_example: {name} = {value} is not finite")
    sys = gunther_system(alpha, s, e0)
    eta = gunther_eta(alpha)
    d = build_dilation(sys, eta=eta, h1_choice="paper")
    sa, ca = np.sin(alpha), np.cos(alpha)

    tau_cf = (1.0 / ca) * np.array([[1.0, -1j * sa], [1j * sa, 1.0]], dtype=complex)
    h1_cf = np.array([[e0, s * ca**2], [s * ca**2, e0]], dtype=complex)
    h2_cf = np.diag([1j * s * sa * ca, -1j * s * sa * ca]).astype(complex)
    hhat_cf = _gunther_hhat(alpha, s, e0)

    psi_i = np.array([1.0, 0.0], dtype=complex)
    chi_i = (1.0 / ca) * np.array([1.0, 1j * sa], dtype=complex)
    psi_hat = np.concatenate([psi_i, chi_i])

    prep = preparation_completion(d, np.eye(2, dtype=complex))
    w = prep.P_N @ prep.U @ np.concatenate([psi_i, np.zeros(2)])
    amp = (psi_hat.conj() @ w) / (psi_hat.conj() @ psi_hat)
    amp_residual = abs(amp - ca / 2.0) + np.linalg.norm(w - amp * psi_hat)

    xhat = np.concatenate([psi_i, d.tau @ psi_i])
    evolved = eigen_evolve(*d.hhat_eigh, t, xhat)
    top_target = gunther_propagator(alpha, s, e0, t) @ psi_i
    evo_residual = float(
        np.linalg.norm(evolved[:2] - top_target)
        + np.linalg.norm(evolved[2:] - d.tau @ top_target)
    )

    return {
        "tau": fro(d.tau - tau_cf),
        "h1": fro(d.H1 - h1_cf),
        "h2": fro(d.H2 - h2_cf),
        "h4": fro(d.H4 - h1_cf),
        "hhat_tensor": fro(d.Hhat - hhat_cf),
        "p_ytau": fro(prep.P_N - gunther_projection(alpha)),
        "prep_amplitude": float(amp_residual),
        "evolution_top": evo_residual,
    }
