#!/usr/bin/env python3
"""Print the closed-form residual table for the two-level worked example.

Each row compares the constructed dilation (tau, blocks, tensor form,
graph-subspace projection, preparation amplitude, evolution identity)
against its closed form for one (alpha, s, E0) point.
"""

import argparse

import numpy as np

from ptsim import reproduce_gunther_example

KEYS = ("tau", "h1", "h2", "h4", "hhat_tensor", "p_ytau", "prep_amplitude", "evolution_top")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", default="0.5235987755982988,0.7853981633974483,1.0",
                    help="comma-separated alpha values (radians)")
    ap.add_argument("--s", type=float, nargs="+", default=[1.0, 2.0])
    ap.add_argument("--e0", type=float, nargs="+", default=[0.0, 1.0])
    ap.add_argument("--t", type=float, default=1.0)
    args = ap.parse_args()

    alphas = [float(x) for x in args.alphas.split(",")]
    header = f"{'alpha':>8} {'s':>4} {'E0':>4} " + " ".join(f"{k:>13}" for k in KEYS)
    print(header)
    # one call builds every (alpha, s, E0) point of the grid as one stack
    grid = np.meshgrid(alphas, args.s, args.e0, indexing="ij")
    r = reproduce_gunther_example(*grid, t=args.t)
    for idx in np.ndindex(grid[0].shape):
        alpha, s, e0 = (g[idx] for g in grid)
        print(f"{alpha:8.4f} {s:4.1f} {e0:4.1f} " + " ".join(f"{r[k][idx]:13.3e}" for k in KEYS))
    worst = max(float(np.max(r[k])) for k in KEYS)
    print(f"\nworst residual: {worst:.3e}")


if __name__ == "__main__":
    main()
