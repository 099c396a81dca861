#!/usr/bin/env python3
"""Probe the worked example towards its exceptional point.

For k = 1..K, runs reproduce_gunther_example at alpha = pi/2 - 10^-k and
prints its worst closed-form residual, or the ptsim error it raises with
that error's CLI exit code. At alpha = pi/2 the two eigenvalues of H
coalesce, so the metric's gap lambda_min - 1 closes like 10^-2k / 4.
"""

import argparse

import numpy as np

from ptsim import errors, reproduce_gunther_example


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=8, help="largest k, so the smallest distance 10^-k")
    args = ap.parse_args()

    print(f"{'k':>2} {'alpha':>20}  outcome")
    for k in range(1, args.k_max + 1):
        alpha = np.pi / 2 - 10.0**-k
        try:
            worst = max(reproduce_gunther_example(alpha).values())
        except errors.PTSimError as exc:
            outcome = f"{type(exc).__name__} (exit {exc.exit_code})"
        else:
            outcome = f"worst residual {worst:.3g}"
        print(f"{k:>2} {alpha:>20.17g}  {outcome}")


if __name__ == "__main__":
    main()
