"""The four benchmark workloads.

Each workload draws its inputs from its own seeded generator, makes its
one-time program calls in ``setup``, runs one op in ``run`` and checks the
op's output in ``check`` against the acceptance gate's tolerances. Only
``setup`` and ``run`` call the program; input generation and checks are the
benchmark's own work and are never timed as part of an op.
``ACCURACY_OPS`` is how many ops, from the first, ``accuracy_digits`` covers;
an untraced run does at least that many.

Layer functions are looked up on their modules at call time, so the span
recorder sees every call made while it is active.
"""

from __future__ import annotations

import json

import numpy as np
from corpus import random_unbroken  # tests/corpus.py, read-only
from oracle import brute_nosignaling_delta_s  # tests/oracle.py, read-only

from ptsim import cli, dilation, nosignaling, pipeline

SIMULATION_TOL = 1e-10  # final_formula_check
RESTORED_TOL = 1e-10  # metric_sandwich delta_s
ORACLE_TOL = 1e-9  # identity delta_s against the brute-force oracle


def _random_state(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class SimulateFresh:
    """build_dilation + run_simulation on a new random unbroken system per op."""

    ACCURACY_OPS = 30

    def __init__(self, seed, n, workdir):
        self.rng = np.random.default_rng(seed)
        self.n = n

    def setup(self):
        pass

    def next_input(self):
        sys_ = random_unbroken(self.rng, self.n)
        return sys_, _random_state(self.rng, self.n), self.rng.uniform(0.5, 2.0)

    def run(self, inp):
        sys_, psi, t = inp
        d = dilation.build_dilation(sys_)
        cfg = pipeline.SimulationConfig(sys=sys_, dilation=d, t=t, psi=psi, scheme="metric_sandwich")
        return pipeline.run_simulation(cfg)

    def check(self, inp, trace):
        return trace.final_formula_check, trace.final_formula_check <= SIMULATION_TOL


class SimulateTSweep:
    """run_simulation on one prebuilt dilation, stepping t along a fine grid."""

    GRID = 1000  # points on t in [0.5, 2]
    ACCURACY_OPS = 30

    def __init__(self, seed, n, workdir):
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.sys = random_unbroken(self.rng, n)
        self.step = 0

    def setup(self):
        self.dilation = dilation.build_dilation(self.sys)

    def next_input(self):
        t = 0.5 + 1.5 * (self.step % self.GRID) / (self.GRID - 1)
        self.step += 1
        return t, _random_state(self.rng, self.n)

    def run(self, inp):
        t, psi = inp
        cfg = pipeline.SimulationConfig(
            sys=self.sys, dilation=self.dilation, t=t, psi=psi, scheme="metric_sandwich"
        )
        return pipeline.run_simulation(cfg)

    def check(self, inp, trace):
        return trace.final_formula_check, trace.final_formula_check <= SIMULATION_TOL


class NosignalSweep:
    """One point of the 15 alpha x 3 t x 2 scheme no-signaling grid per op.

    The seed fixes the order in which the 90 points are cycled.
    """

    ALPHAS = np.linspace(0.0, 1.4, 15)
    TS = (0.5, 1.0, 2.0)
    SCHEMES = ("identity", "metric_sandwich")
    ACCURACY_OPS = 90  # the whole grid, so the seed only changes its order

    def __init__(self, seed, n, workdir):
        rng = np.random.default_rng(seed)
        points = [(a, t, s) for a in self.ALPHAS for t in self.TS for s in self.SCHEMES]
        self.points = [points[i] for i in rng.permutation(len(points))]
        self.oracle = {(a, t): brute_nosignaling_delta_s(a, 1.0, t) for a in self.ALPHAS for t in self.TS}
        self.step = 0

    def setup(self):
        pass

    def next_input(self):
        point = self.points[self.step % len(self.points)]
        self.step += 1
        return point

    def run(self, inp):
        alpha, t, scheme = inp
        return nosignaling.sweep_delta_s([alpha], [t], scheme, mode="simulated_eq73")[0]

    def check(self, inp, row):
        alpha, t, scheme = inp
        if scheme == "metric_sandwich":
            return row["delta_s"], row["delta_s"] <= RESTORED_TOL
        residual = abs(row["delta_s"] - self.oracle[(alpha, t)])
        return residual, residual <= ORACLE_TOL


class PaperChecks:
    """``ptsim paper --json`` run in-process through cli.main.

    The op has no random input, so the seed does not change it. The residual
    is the largest worked-example residual; the obstruction checks are pass
    or fail.
    """

    ACCURACY_OPS = 30

    def __init__(self, seed, n, workdir):
        self.out = workdir / "paper_checks.json"

    def setup(self):
        pass

    def next_input(self):
        self.out.unlink(missing_ok=True)  # so check never reads an earlier op's file
        return None

    def run(self, inp):
        return cli.main(["paper", "--json", str(self.out)])

    def check(self, inp, code):
        if not self.out.is_file():
            return 1.0, False
        doc = json.loads(self.out.read_text())
        residual = max(c["residual"] for c in doc["checks"] if c["check"].startswith("worked_example"))
        return residual, code == 0 and doc["all_pass"]


WORKLOADS = {
    "simulate_fresh": SimulateFresh,
    "simulate_tsweep": SimulateTSweep,
    "nosignal_sweep": NosignalSweep,
    "paper_checks": PaperChecks,
}
