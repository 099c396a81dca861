"""Fixed reference kernel, timed between ops to track the machine's speed.

On a shared machine the same code runs up to about 1.9x slower for spells of
seconds to minutes, and every op in such a spell slows alike. The kernel does
the program's kinds of work (a Python-level Gram-Schmidt over small complex
vectors, then a small LAPACK eig and inverse) and is timed between ops, so
the ratio of mean op time to mean kernel time cancels the machine's speed.
It never calls ptsim, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240817)
_A = _RNG.normal(size=(12, 12)) + 1j * _RNG.normal(size=(12, 12))
_REPEATS = 10  # about 5 ms on a 2-core x86 machine


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        q = []
        for v in _A.T:
            w = v.copy()
            for u in q:
                w = w - u * (u.conj() @ w)
            q.append(w / np.linalg.norm(w))
        np.linalg.eig(_A)
        np.linalg.inv(_A)
    return time.perf_counter() - start
