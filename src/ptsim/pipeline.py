"""Three-stage probabilistic simulation of an unbroken Hamiltonian:
couple an ancilla and map into the graph subspace (pre-simulation), run the
unitary dilated evolution (simulation), map back and measure out the ancilla
(post-simulation). Branch probabilities are computed analytically; optional
binomial sampling is layered on top for realism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from . import errors
from .completion import CompletionResult, _completion, _completions, _contractions, post_select
from .dilation import Dilation, build_dilation
from .linalg import (DEFAULT_TOL as TOL, SIGMA_X, _identity, _norms, _read_only, _require_finite, eigen_evolve,
                     eigen_power, psd_power)
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

    eta is a metric, a stack (b, n, n) of them or a Dilation, whose factors of
    eta - I give its powers; metric_sandwich forms both as one stack.
    """
    dilated = isinstance(eta, Dilation)
    n, ndim = (eta.dim, eta.H.ndim) if dilated else (eta.shape[-1], eta.ndim)
    if scheme == "identity":
        eye = np.eye(n, dtype=complex)
        return eye, eye
    if scheme == "metric_sandwich":
        p = np.array([-0.5, 0.5]).reshape((2,) + (1,) * (ndim - 1))
        powers = eigen_power(eta.eta_minus_i_w + 1.0, eta.eta_minus_i_v, p) if dilated else psd_power(eta, p)
        return powers[0], powers[1]
    if scheme == "custom":
        if rho is None or rho_prime is None:
            raise errors.ParseError("custom scheme requires rho and rho_prime")
        rho, rho_prime = np.asarray(rho, dtype=complex), np.asarray(rho_prime, dtype=complex)
        _require_finite("custom scheme", rho=rho, rho_prime=rho_prime)
        if rho.shape != (n, n) or rho_prime.shape != (n, n):
            raise errors.DimensionMismatchError(
                f"custom scheme: rho {rho.shape} and rho_prime {rho_prime.shape} must be {n}x{n}")
        return rho, rho_prime
    raise errors.ParseError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True, eq=False)
class SchemeStages:
    """The stage operators of a scheme on a dilation, stacked as it is: (rho, rho'), the
    contractions C of the two stage actions with their scales and frames, and
    ``ytau_eigh`` = (w_Y, Q1 V_Y), Hhat's eigenpairs on Y_tau, where every
    prepared state lies, which evolve every t. ``run`` forms the dense
    completions (U, P_N, scale) of ``preparation_completion`` and
    ``extraction_completion`` from these, as one stack, on its first call. No
    reference to the dilation is held, so a dilation that keeps its stages
    forms no reference cycle. ``run`` is per-system.

    A successful run is one Kraus operator of a quantum instrument (Nielsen
    & Chuang, ch. 8) on Y_tau: K(t) = L diag(e^{-itw_Y}) R, with the n x n
    factors ``kraus_right`` R = V_Y^dag C_prep and ``kraus_left`` L = C_extr V_Y,
    formed once with the stages. Halmos's dilation keeps C as its top-left
    block, so these are V_Y^dag Q1^dag U_prep[:, :n] and U_extr[:n, :] Q1 V_Y.
    K(t) psi = sqrt(p_total) xi4[:n].
    """

    rho: np.ndarray
    rho_prime: np.ndarray
    _contractions: np.ndarray
    _scales: np.ndarray
    _frames: tuple
    ytau_eigh: tuple
    kraus_left: np.ndarray
    kraus_right: np.ndarray

    @cached_property
    def _completed(self) -> list:
        out = _completion(self._contractions, self._frames, self._scales)
        _read_only(*(a for c in out for a in (c.U, c.P_N)))
        return out

    def run(self, psi, t: float):
        """The stage sequence of one system on a unit state psi of shape (n,) or (n, m).

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
        prep, extr = self._completed
        xi2, p_prepare = post_select(prep.U @ xi1, prep.P_N)
        if p_prepare == 0.0:
            raise errors.ZeroFinalStateError("preparation branch vanished")

        # stage 3: unitary dilated evolution, on Y_tau
        xi3 = eigen_evolve(*self.ytau_eigh, t, xi2)

        # stage 4: unitary + post-selection onto X1, which is the ancilla
        # measurement: extr.P_N is the projector onto ancilla |0>
        xi4, p_post = post_select(extr.U @ xi3, extr.P_N)
        if p_post == 0.0:
            raise errors.ZeroFinalStateError("extraction branch vanished")
        return xi1, xi2, xi3, xi4, p_prepare, p_post

    def kraus(self, t) -> np.ndarray:
        """K(t), the n x n Kraus operator of a successful run at time t; a 1-D t gives every K(t), (..., T, n, n).

        ``kraus(t) @ psi`` takes a state or an (n, m) block, whose m columns
        are a spectator factor (Bob); the squared (Frobenius) norm of the
        result is the success probability of a unit psi.
        """
        _require_finite("SchemeStages.kraus", t=t)
        phase = np.exp(np.multiply.outer(-1j * np.asarray(t), self.ytau_eigh[0]))  # (T, ..., n) for a 1-D t
        k = (self.kraus_left * phase[..., None, :]) @ self.kraus_right
        return k.swapaxes(0, -3) if k.ndim > self.kraus_left.ndim else k  # a t axis goes after the stack axis


def scheme_stages(d: Dilation, scheme: str, rho=None, rho_prime=None) -> SchemeStages:
    """The stages of a scheme on d, stacked as d is.

    The built-in schemes are built once per dilation and kept on it, keyed
    by scheme, with read-only arrays, so every t and every state run on one
    dilation shares (rho, rho'), the Kraus factors and, once a run has formed
    them, both completions. A custom scheme is built per call, since its
    factors are caller-owned arrays.

    P_prep = Q1 Q1^dag, with Q1 = ``d.ytau_frame``, is an orthogonal
    projection exactly when Q1 has orthonormal columns; that is checked here,
    once, in the actions' norm pass, so no run needs a projector test. Only
    the custom scheme takes rho and rho'; a built-in one refuses them before
    its cached stages are read.
    """
    if scheme != "custom" and (rho is not None or rho_prime is not None):
        raise errors.ParseError(f"scheme {scheme!r} takes no rho or rho_prime; use scheme 'custom'")
    if scheme in d.stage_cache:
        return d.stage_cache[scheme]
    n, q1 = d.dim, d.ytau_frame
    r, r_prime = resolve_rho(scheme, d, rho, rho_prime)
    actions, frames, zero = zip(*_stage_sides(d, r, r_prime))
    # one norm pass, of every member: both actions and the frame's distance from orthonormal
    stack = np.array([*actions, q1.conj().mT @ q1 - _identity(n)])
    norms = _norms(stack.reshape(-1, n, n)).reshape(stack.shape[:-2])
    if not all(norms[2].reshape(-1) <= TOL.eq_tol * max(1.0, n**0.5)):
        raise errors.NotProjectionError("scheme_stages: the Y_tau frame is not orthonormal")
    c, scales = _contractions(stack[:2], "scheme_stages", zero, norms[:2])
    kraus_right, kraus_left = d.ytau_v.conj().mT @ c[0], c[1] @ d.ytau_v
    st = SchemeStages(r, r_prime, c, scales, frames, d.ytau_eigh, kraus_left, kraus_right)
    if scheme != "custom":
        _read_only(r, r_prime, c, scales, kraus_left, kraus_right)
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


@dataclass(frozen=True, eq=False)
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


def _stage_sides(d: Dilation, rho=None, rho_prime=None) -> list:
    """The sides (action, frames, zero-map text) of ``completion._completions``
    for (phi; 0) -> (rho phi; tau rho phi) and (phi; tau phi) -> (rho' phi; 0),
    on the coordinate frame I (None, so never formed) and ``ytau_q``. In the
    basis Q1 of [I; tau] = Q1 R the actions are R rho = Q1^dag (rho; tau rho)
    and rho' Q1_top = rho' R^{-1}; a stacked d gives stacks."""
    q, r, n, sides = d.ytau_q, d.ytau_r, d.dim, []
    if rho is not None:
        sides.append((r @ rho, (None, q), "the preparation stage is a zero map (rho = 0)"))
    if rho_prime is not None:
        sides.append((rho_prime @ q[..., :n, :n], (q, None), "the extraction stage is a zero map (rho' = 0)"))
    return sides


def preparation_completion(d, rho) -> CompletionResult:
    """Completion for the induced map (phi; 0) -> (rho phi; tau rho phi), of a
    dilation, stacked as it is (``_stage_sides``)."""
    return _completions(_stage_sides(d, rho=rho), "preparation_completion")[0]


def extraction_completion(d: Dilation, rho_prime) -> CompletionResult:
    """Completion for the induced map (phi; tau phi) -> (rho' phi; 0), on the
    frames of ``preparation_completion`` in reverse (``_stage_sides``)."""
    return _completions(_stage_sides(d, rho_prime=rho_prime), "extraction_completion")[0]


def run_simulation(cfg: SimulationConfig) -> SimulationTrace:
    psi = np.asarray(cfg.psi, dtype=complex).reshape(-1)
    _require_finite("run_simulation", t=cfg.t, psi=psi)
    d = cfg.dilation
    n = d.dim
    st = scheme_stages(d, cfg.scheme, cfg.rho, cfg.rho_prime)
    if psi.shape[0] != n:
        raise errors.DimensionMismatchError("run_simulation: psi has the wrong length")
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise errors.ZeroVectorError("run_simulation: zero input state")
    psi = psi / nrm

    target = st.rho_prime @ d.propagate(cfg.t, st.rho @ psi)
    if (target_norm := np.linalg.norm(target)) <= TOL.target_tol:
        raise errors.ZeroFinalStateError("run_simulation: rho' U(t) rho annihilates psi")

    xi1, xi2, xi3, xi4, p_prepare, p_post = st.run(psi, cfg.t)
    xi5 = xi4[:n]
    final_formula_check = float(np.linalg.norm(xi5 - target / target_norm))
    p_total = float(p_prepare * p_post)
    # the stage route against the closed form K(t) = c rho' e^{-itH} rho: p_total = c^2 ||target||^2
    probability_check = abs(p_total - float((st._scales.prod() * target_norm) ** 2)) / p_total
    return SimulationTrace(xi1, xi2, xi3, xi4, xi5, float(p_prepare), float(p_post), p_total,
                           final_formula_check, probability_check)


def sample_successes(trace: SimulationTrace, samples: int, seed: int) -> dict:
    """Binomial draw of pipeline successes at the analytic branch probability."""
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, Integral) or isinstance(value, bool) or value < 0:
            raise errors.ParseError(f"sample_successes: {name} must be an integer >= 0, got {value!r}")
    if not trace.p_total <= 1.0 + TOL.unit_tol:  # below, one that rounded above 1 is drawn at 1
        raise errors.NumericalFailureError(f"sample_successes: p_total {trace.p_total!r} exceeds 1")
    rng = np.random.default_rng(seed)
    successes = int(rng.binomial(samples, min(trace.p_total, 1.0)))
    return {"samples": samples, "successes": successes, "p_total": trace.p_total}


# ---------------------------------------------------------------------------
# worked two-level example (alpha, s, E0 family)
# ---------------------------------------------------------------------------


def _matrix(*rows) -> np.ndarray:
    """The complex matrix with these rows of entries; array entries broadcast to
    a stack (..., r, c). So the family's closed forms below take arrays too."""
    if all(isinstance(e, (int, float, complex)) for row in rows for e in row):  # numbers: one matrix
        return np.array(rows, dtype=complex)
    out = np.empty(np.broadcast(*(e for row in rows for e in row)).shape + (len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def gunther_hamiltonian(alpha, s=1.0, e0=0.0) -> np.ndarray:
    _require_finite("gunther_hamiltonian", alpha=alpha, s=s, e0=e0)
    isa = 1j * s * np.sin(alpha)
    return _matrix((e0 + isa, s), (s, e0 - isa))


def gunther_eta(alpha) -> np.ndarray:
    _require_finite("gunther_eta", alpha=alpha)
    return np.asarray(2.0 / np.cos(alpha) ** 2)[..., None, None] * _matrix((1.0, -1j * np.sin(alpha)),
                                                                            (1j * np.sin(alpha), 1.0))


# the family's PT pair (sigma_x, I), validated once and shared read-only
_GUNTHER_PT = validate_pt_pair(SIGMA_X.copy(), np.eye(2, dtype=complex))
_read_only(_GUNTHER_PT.P, _GUNTHER_PT.T, _GUNTHER_PT.PT)


def gunther_system(alpha: float, s: float = 1.0, e0: float = 0.0) -> PTSystem:
    return PTSystem(gunther_hamiltonian(alpha, s, e0), _GUNTHER_PT)


def gunther_projection(alpha) -> np.ndarray:
    """Closed-form orthogonal projection onto Y_tau for the two-level family."""
    _require_finite("gunther_projection", alpha=alpha)
    sa, ca = np.sin(alpha), np.cos(alpha)
    return 0.5 * _matrix((1, 1j * sa, ca, 0), (-1j * sa, 1, 0, ca), (ca, 0, 1, -1j * sa), (0, ca, 1j * sa, 1))


def gunther_propagator(alpha, s=1.0, e0=0.0, t=1.0) -> np.ndarray:
    """Closed-form e^{-itH} for the two-level family.

    H - e0 I squares to w^2 I with w = s cos(alpha), so
    e^{-itH} = e^{-it e0} [cos(wt) I - i t sinc(wt) (H - e0 I)], where
    sinc(x) = sin(x)/x and sinc(0) = 1.
    """
    _require_finite("gunther_propagator", alpha=alpha, s=s, e0=e0, t=t)
    k = gunther_hamiltonian(alpha, s, 0.0)  # H - e0 I
    alpha, s, e0, t = (np.asarray(x)[..., None, None] for x in (alpha, s, e0, t))
    wt = s * np.cos(alpha) * t
    sinc = np.where(wt != 0.0, np.sin(wt) / np.where(wt != 0.0, wt, 1.0), 1.0)
    return np.exp(-1j * t * e0) * (np.cos(wt) * np.eye(2) - 1j * t * sinc * k)


def _gunther_hhat(alpha, s, e0) -> np.ndarray:
    """Closed-form Hhat = I x (e0 I + b sigma_x) - c sigma_y x sigma_z, entry by
    entry, with b = s cos^2(alpha) and c = s sin(alpha) cos(alpha)."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    b, ic = s * ca**2, 1j * (s * ca * sa)
    return _matrix((e0, b, ic, 0), (b, e0, 0, -ic), (-ic, 0, e0, b), (0, ic, b, e0))


def reproduce_gunther_example(alpha, s=1.0, e0=0.0, t=1.0) -> dict:
    """Entrywise comparison of the construction against its closed forms.

    Returns residuals for tau, H1, H2, H4, the tensor form of Hhat, the
    Y_tau projection, the preparation amplitude cos(alpha)/2 along the
    embedded initial state, and the top-block evolution identity against
    ``gunther_propagator``. The parameters broadcast: each point is one
    system of a single stacked ``build_dilation``, and each residual is an
    array of the broadcast shape, or a float when all four are scalars (the
    batch of one). An error names a failing point by its flat index.
    """
    _require_finite("reproduce_gunther_example", alpha=alpha, s=s, e0=e0, t=t)
    shape = np.broadcast_shapes(*map(np.shape, (alpha, s, e0, t)))
    alpha, s, e0, t = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel() for x in (alpha, s, e0, t))
    d = build_dilation([PTSystem(h, _GUNTHER_PT) for h in gunther_hamiltonian(alpha, s, e0)],
                       eta=gunther_eta(alpha), h1_choice="paper")
    tau, (hw, hv), h1, h2, h4, hhat = d.tau, d.ytau_eigh, d.H1, d.H2, d.H4, d.Hhat
    sa, ca = np.sin(alpha), np.cos(alpha)
    tau_cf = (1.0 / ca)[:, None, None] * _matrix((1.0, -1j * sa), (1j * sa, 1.0))
    h1_cf = _matrix((e0, s * ca**2), (s * ca**2, e0))
    h2_cf = _matrix((1j * s * sa * ca, 0), (0, -1j * s * sa * ca))
    psi_i = np.array([1.0, 0.0], dtype=complex)
    psi_hat = _matrix((1.0, 0.0, 1.0 / ca, (1.0 / ca) * (1j * sa)))[:, 0]  # (psi_i; chi_i)
    prep = preparation_completion(d, np.eye(2, dtype=complex))
    w = prep.P_N @ prep.U @ np.concatenate([psi_i, np.zeros(2)])
    amp, norm2 = ((psi_hat.conj()[:, None, :] @ y[:, :, None])[:, 0, 0] for y in (w, psi_hat))  # a dot per point
    amp = amp / norm2

    xhat = np.concatenate([np.broadcast_to(psi_i, (len(tau), 2)), tau @ psi_i], axis=-1)
    evolved = (hv @ (np.exp(-1j * t[:, None] * hw) * (hv.conj().mT @ xhat[..., None])[..., 0])[..., None])[..., 0]
    top_target = gunther_propagator(alpha, s, e0, t) @ psi_i
    top, bottom = _norms(evolved[:, :2] - top_target, evolved[:, 2:] - (tau @ top_target[..., None])[..., 0])

    residuals = dict(zip(("tau", "h1", "h2", "h4", "hhat_tensor", "p_ytau"), [
        *_norms(tau - tau_cf, h1 - h1_cf, h2 - h2_cf, h4 - h1_cf),
        *_norms(hhat - _gunther_hhat(alpha, s, e0), prep.P_N - gunther_projection(alpha))]))
    residuals["prep_amplitude"] = np.abs(amp - ca / 2.0) + _norms(w - amp[:, None] * psi_hat)[0]
    residuals["evolution_top"] = top + bottom
    return {name: float(r[0]) if shape == () else r.reshape(shape) for name, r in residuals.items()}
