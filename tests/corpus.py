"""Fixed random corpora of unbroken / broken / defective systems.

Everything is generated from fixed seeds so test expectations are stable.
"""

from functools import reduce

import numpy as np

from ptsim import PTPair, PTSystem, gunther_eta, gunther_hamiltonian, gunther_propagator, validate_pt_pair
from ptsim.linalg import SIGMA_X, SIGMA_Y


def well_conditioned_frame(rng, n, smin=0.5, smax=2.0):
    """Random complex invertible matrix with condition number <= smax/smin."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q1, _ = np.linalg.qr(a)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q2, _ = np.linalg.qr(b)
    s = rng.uniform(smin, smax, size=n)
    return q1 @ np.diag(s) @ q2


def separated_reals(rng, n, lo=-2.0, hi=2.0):
    base = np.linspace(lo, hi, n)
    return rng.permutation(base + rng.uniform(-0.05, 0.05, size=n))


def random_unbroken(rng, n):
    lam = separated_reals(rng, n)
    psi = well_conditioned_frame(rng, n)
    psi_inv = np.linalg.inv(psi)
    h = psi @ np.diag(lam).astype(complex) @ psi_inv
    ptm = psi @ psi_inv.conj()
    pair = validate_pt_pair(np.eye(n, dtype=complex), ptm)
    return PTSystem(h, pair)


def random_broken(rng, n):
    """One conjugate pair, the rest real; PT built from the eigenframe."""
    assert n >= 2
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(0.3, 1.5)
    lams = [a + 1j * b, a - 1j * b] + list(separated_reals(rng, n - 2)) if n > 2 else [
        a + 1j * b,
        a - 1j * b,
    ]
    psi = well_conditioned_frame(rng, n)
    psi_inv = np.linalg.inv(psi)
    h = psi @ np.diag(lams).astype(complex) @ psi_inv
    k = np.eye(n, dtype=complex)[[1, 0, *range(2, n)]]  # swaps the pair, fixes the reals
    ptm = psi @ k @ psi_inv.conj()
    pair = validate_pt_pair(np.eye(n, dtype=complex), ptm)
    return PTSystem(h, pair)


def random_defective(rng, n):
    """Real matrix with one size-2 Jordan block; P = T = I is a valid pair."""
    assert n >= 2
    lam0 = rng.uniform(-1.5, 1.5)
    j = np.zeros((n, n))
    j[0, 0] = j[1, 1] = lam0
    j[0, 1] = 1.0
    rest = separated_reals(rng, n - 2) if n > 2 else []
    for i, v in enumerate(rest):
        j[2 + i, 2 + i] = v + 3.0  # keep away from lam0
    r = None
    while r is None or np.linalg.cond(r) > 20:
        r = rng.normal(size=(n, n))
    h = (r @ j @ np.linalg.inv(r)).astype(complex)
    eye = np.eye(n, dtype=complex)
    pair = validate_pt_pair(eye, eye)
    return PTSystem(h, pair)


def _kron(factors):
    return reduce(np.kron, factors)


def gunther_tensor(rng, m, min_gap=1e-3):
    """A tensor sum of m members of the worked two-level family, with closed forms.

    H = sum_j I x ... x H(alpha_j, s_j) x ... x I on n = 2^m, with the PT
    pair (sigma_x x ... x sigma_x, I). Its spectrum is {sum_j +-s_j cos alpha_j},
    redrawn until no two sums are closer than min_gap; eta = x_j eta(alpha_j)
    is a positive metric with lambda_min = prod_j 2 / (1 + |sin alpha_j|) > 1.
    Returns (system, eta, propagator, spectrum), where propagator(t, p) is
    eta^p e^{-itH} eta^{-p} = x_j eta_j^p e^{-itH_j} eta_j^{-p}, each factor
    in closed form: eta_j = 2 / cos^2(alpha_j) (I + sin(alpha_j) sigma_y), and
    sigma_y^2 = I gives (I + a sigma_y)^p from (1 + a)^p and (1 - a)^p.
    """
    while True:
        alpha, s = rng.uniform(-1.0, 1.0, size=m), rng.uniform(0.5, 2.0, size=m)
        omega = s * np.cos(alpha)
        signs = 1 - 2 * ((np.arange(2**m)[:, None] >> np.arange(m)[::-1]) & 1)  # row k: the signs of basis state k
        spectrum = signs @ omega
        if np.diff(np.sort(spectrum)).min(initial=np.inf) >= min_gap:
            break
    eye = np.eye(2, dtype=complex)
    h = sum(_kron([eye] * j + [gunther_hamiltonian(alpha[j], s[j])] + [eye] * (m - 1 - j)) for j in range(m))
    pair = validate_pt_pair(_kron([SIGMA_X] * m), np.eye(2**m, dtype=complex))

    def eta_power(j, p):
        a = np.sin(alpha[j])
        return (2.0 / np.cos(alpha[j]) ** 2) ** p * (
            0.5 * ((1 + a) ** p + (1 - a) ** p) * eye + 0.5 * ((1 + a) ** p - (1 - a) ** p) * SIGMA_Y)

    def propagator(t, p=0.0):
        return _kron([eta_power(j, p) @ gunther_propagator(alpha[j], s[j], 0.0, t) @ eta_power(j, -p)
                     for j in range(m)])

    return PTSystem(h, pair), _kron([gunther_eta(a) for a in alpha]), propagator, spectrum


def near_ep_tensor(k, m):
    """H(pi/2 - 10^-k) x I + I x H(0.4), with a third factor H(0.9) at m = 3,
    and the pair (sigma_x x ... x sigma_x, I): the worked family's tensor sum,
    its first factor 10^-k from its exceptional point. Returns (system,
    eta(alpha_1) x eta(0.4) x ..., a positive metric, and e^{-iH} in closed form)."""
    alphas = [np.pi / 2 - 10.0**-k, 0.4, 0.9][:m]
    eye = np.eye(2, dtype=complex)
    h = sum(_kron([eye] * j + [gunther_hamiltonian(a)] + [eye] * (m - 1 - j)) for j, a in enumerate(alphas))
    pair = validate_pt_pair(_kron([SIGMA_X] * m), np.eye(2**m, dtype=complex))
    return (PTSystem(h, pair), _kron([gunther_eta(a) for a in alphas]),
            _kron([gunther_propagator(a, 1.0, 0.0, 1.0) for a in alphas]))


def unbroken_corpus(count=10, seed=20240817):
    rng = np.random.default_rng(seed)
    return [random_unbroken(rng, 2 + i % 3) for i in range(count)]


def broken_corpus(count=5, seed=20240818):
    rng = np.random.default_rng(seed)
    return [random_broken(rng, 2 + i % 3) for i in range(count)]


def defective_corpus(count=5, seed=20240819):
    rng = np.random.default_rng(seed)
    return [random_defective(rng, 2 + i % 3) for i in range(count)]
