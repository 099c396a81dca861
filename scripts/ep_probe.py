#!/usr/bin/env python3
"""Probe the worked example towards its exceptional point.

For k = 1..K, runs reproduce_gunther_example at alpha = pi/2 - 10^-k and
prints its worst closed-form residual, or the ptsim error it raises with
that error's CLI exit code. At alpha = pi/2 the two eigenvalues of H
coalesce, so the metric's gap lambda_min - 1 closes like 10^-2k / 4.

With --m 2 or 3 it probes the tensor sum H(alpha) x I + I x H(0.4), with a
third factor H(0.9) at m = 3, on n = 2^m with the pair (sigma_x x ... x
sigma_x, I). For each k it simulates the uniform state to t = 1 under the
identity scheme, once with the canonical metric and once with the supplied
eta(alpha) x eta(0.4) x ..., and prints each run's error against the
closed-form e^{-iH}, or the error it raises.
"""

import argparse
from functools import reduce

import numpy as np

from ptsim import (PTSystem, SimulationConfig, build_dilation, errors, gunther_eta, gunther_hamiltonian,
                   gunther_propagator, reproduce_gunther_example, run_simulation, validate_pt_pair)
from ptsim.linalg import SIGMA_X


def outcome(label, run):
    """'label value' of run(), or the ptsim error it raises with its exit code."""
    try:
        value = run()
    except errors.PTSimError as exc:
        return f"{type(exc).__name__} (exit {exc.exit_code})"
    return f"{label} {value:.3g}"


def tensor_runs(alpha, m):
    """The canonical-metric and the supplied-metric run at alpha, each a
    callable giving ||xi5 - e^{-iH} psi / ||e^{-iH} psi||||."""
    alphas = [alpha, 0.4, 0.9][:m]
    eye = np.eye(2, dtype=complex)
    h = sum(reduce(np.kron, [eye] * j + [gunther_hamiltonian(a)] + [eye] * (m - 1 - j)) for j, a in enumerate(alphas))
    system = PTSystem(h, validate_pt_pair(reduce(np.kron, [SIGMA_X] * m), np.eye(2**m, dtype=complex)))
    psi = np.full(2**m, 2.0 ** (-m / 2), dtype=complex)
    target = reduce(np.kron, [gunther_propagator(a) for a in alphas]) @ psi
    target /= np.linalg.norm(target)

    def run(eta):
        trace = run_simulation(SimulationConfig(sys=system, dilation=build_dilation(system, eta=eta), t=1.0, psi=psi))
        return np.linalg.norm(trace.xi5 - target)

    return [lambda: run(None), lambda: run(reduce(np.kron, [gunther_eta(a) for a in alphas]))]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=8, help="largest k, so the smallest distance 10^-k")
    ap.add_argument("--m", type=int, default=1, choices=(1, 2, 3), help="factors of the tensor sum")
    args = ap.parse_args()

    print(f"{'k':>2} {'alpha':>20}  " + ("outcome" if args.m == 1 else f"{'canonical eta':<36} supplied eta"))
    for k in range(1, args.k_max + 1):
        alpha = np.pi / 2 - 10.0**-k
        if args.m == 1:
            outcomes = outcome("worst residual", lambda: max(reproduce_gunther_example(alpha).values()))
        else:
            canonical, supplied = (outcome("error", run) for run in tensor_runs(alpha, args.m))
            outcomes = f"{canonical:<36} {supplied}"
        print(f"{k:>2} {alpha:>20.17g}  {outcomes}")


if __name__ == "__main__":
    main()
