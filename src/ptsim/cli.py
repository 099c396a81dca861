"""Command-line front door.

Subcommands map one-to-one onto library operations; all numeric output comes
from library calls. Exit codes: 0 success, else the error's ``exit_code``:
2 parse, 3 dimension/type, 4 domain precondition, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys as _sys

import numpy as np

from . import errors, io
from .dilation import build_dilation
from .linalg import DEFAULT_TOL as TOL
from .metric import positive_metric, scalar_sum_obstruction_demo, verify_metric
from .nosignaling import ExperimentConfig, run_experiment, sweep_delta_s
from .pipeline import (
    SimulationConfig,
    gunther_system,
    reproduce_gunther_example,
    run_simulation,
    sample_successes,
)
from .ptcore import Kind, PTSystem, classify, is_pt_symmetric, validate_pt_pair

EXIT_OK = 0
EXIT_NUMERICAL = errors.NumericalFailureError.exit_code


@contextlib.contextmanager
def _writing(path, newline=None):
    """path opened for writing; an OSError becomes a ParseError (exit 2)."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise errors.ParseError(f"cannot write {path}: {exc}") from exc


def _emit(obj, out_path=None) -> None:
    text = io.dumps(obj)
    if out_path:
        with _writing(out_path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_system(read, h, p, t) -> PTSystem:
    """H with its validated (P, T) pair, or with None if neither is given: then
    H's spectrum alone decides. ``read`` makes a matrix of each given source,
    a file path or a config entry."""
    h, p, t = read(h), *(read(x) if x else None for x in (p, t))
    if (p is None) != (t is None):
        raise errors.ParseError("a PT pair needs both P and T, not one of them")
    return PTSystem(h, None if p is None else validate_pt_pair(p, t))


def cmd_classify(args) -> int:
    sys = _load_system(io.load_matrix, args.matrix, args.P, args.T)
    c = classify(sys.H, sys.pt)
    _emit({"kind": c.kind.value, "spectrum": np.stack([c.spectrum.real, c.spectrum.imag], -1).tolist()}, args.out)
    return EXIT_OK


def cmd_metric(args) -> int:
    sys = _load_system(io.load_matrix, args.matrix, args.P, args.T)
    if args.eta and sys.pt is not None and not is_pt_symmetric(sys.H, sys.pt):
        raise errors.NotUnbrokenError(f"metric: classification is {Kind.NOT_PT_SYMMETRIC.value}")
    m = verify_metric(sys.H, io.load_matrix(args.eta)) if args.eta else positive_metric(sys)
    _emit({"eta": m.eta, "positive_definite": m.positive_definite, "min_eigenvalue": m.min_eigenvalue}, args.out)
    return EXIT_OK


def cmd_dilate(args) -> int:
    sys = _load_system(io.load_matrix, args.matrix, args.P, args.T)
    eta = io.load_matrix(args.eta) if args.eta else None
    h1_choice, h1 = args.h1, None
    if h1_choice not in ("zero", "paper"):
        h1 = io.load_matrix(h1_choice)
        h1_choice = "supplied"
    d = build_dilation(sys, eta=eta, margin=args.margin, h1_choice=h1_choice, h1=h1)
    matrices = {k: getattr(d, k) for k in ("H", "eta", "tau", "H1", "H2", "H4", "Hhat")}
    _emit({**matrices, "residuals": d.residuals}, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.samples < 0:
        raise errors.ParseError(f"--samples must be >= 0, got {args.samples}")
    try:
        with open(args.config) as fh:
            cfgobj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ParseError(f"cannot read config: {exc}") from exc
    try:
        if "alpha_params" in cfgobj and cfgobj["alpha_params"]:
            ap = {"s": 1.0, "E0": 0.0, **cfgobj["alpha_params"]}
            sys = gunther_system(*(float(ap[k]) for k in ("alpha", "s", "E0")))
        else:
            sys = _load_system(io.matrix_from_obj, cfgobj["hamiltonian"], cfgobj.get("P"), cfgobj.get("T"))
        scheme = cfgobj.get("scheme", "identity")
        rho = io.matrix_from_obj(cfgobj["rho"]) if cfgobj.get("rho") else None
        rho_prime = io.matrix_from_obj(cfgobj["rho_prime"]) if cfgobj.get("rho_prime") else None
        t = float(cfgobj["t"])
        psi = io.vector_from_obj(cfgobj["psi"])
        seed = cfgobj.get("seed")
        if seed is not None and (type(seed) is not int or seed < 0):
            raise errors.ParseError(f"seed must be a non-negative integer, got {seed!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.ParseError(f"malformed config: {exc}") from exc

    eta = io.matrix_from_obj(cfgobj["eta"]) if cfgobj.get("eta") else None
    d = build_dilation(sys, eta=eta, h1_choice=cfgobj.get("h1", "zero"))
    cfg = SimulationConfig(sys=sys, dilation=d, t=t, psi=psi, scheme=scheme, rho=rho,
                           rho_prime=rho_prime)
    trace = run_simulation(cfg)
    out = dict(vars(trace))
    if args.samples:
        out["sampling"] = sample_successes(trace, args.samples, seed if seed is not None else 0)
    _emit(out, args.out)
    return EXIT_OK


def cmd_nosignal(args) -> int:
    alpha = np.deg2rad(args.alpha_deg) if args.alpha_deg is not None else args.alpha
    if alpha is None:
        raise errors.ParseError("nosignal: --alpha or --alpha-deg is required")
    scheme = {"metric": "metric_sandwich"}.get(args.scheme, args.scheme)
    if args.sweep:
        try:
            ts = [float(x) for x in args.t_grid.split(",")] if args.t_grid else [args.t]
        except ValueError as exc:
            raise errors.ParseError(f"nosignal: malformed --t-grid: {exc}") from exc
        rows = sweep_delta_s([alpha], ts, scheme, mode=args.mode, s=args.s)
        with _writing(args.sweep, newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["alpha", "t", "scheme", "delta_s", "p_success_1", "p_success_2"]
            )
            writer.writeheader()
            writer.writerows(rows)
        _emit({"rows": len(rows), "csv": args.sweep}, args.out)
        return EXIT_OK
    cfg = ExperimentConfig(alpha=alpha, s=args.s, t=args.t, scheme=scheme, mode=args.mode)
    stats = run_experiment(cfg)
    _emit({"table": stats.table.tolist(), "bob_marginals": stats.bob_marginals.tolist(),
           "delta_s": stats.delta_s, "p_success": stats.p_success.tolist()}, args.out)
    return EXIT_OK


def cmd_paper(args) -> int:
    """Regenerate every closed-form fixture check and print a pass/fail table."""
    checks = []

    def check(name, residual, tolerance, passed):
        checks.append({"check": name, "residual": residual, "tolerance": tolerance, "pass": passed})

    grid = [(alpha, s, e0) for alpha in (np.pi / 6, np.pi / 4, 1.0) for s in (1.0, 2.0) for e0 in (0.0, 1.0)]
    rep = {name: resids.tolist() for name, resids in reproduce_gunther_example(*np.array(grid).T, t=1.0).items()}
    for i, (alpha, s, e0) in enumerate(grid):
        label = f"worked_example[alpha={alpha:.6g},s={s:g},E0={e0:g}]"
        for name, resids in rep.items():
            tol = TOL.evolution_fixture_tol if name == "evolution_top" else TOL.fixture_tol
            check(f"{label}.{name}", resids[i], tol, resids[i] <= tol)
    demo = scalar_sum_obstruction_demo()
    entry = demo["obstruction_entry_13"]
    check("scalar_sum_obstruction.entry_13", abs(entry - 1.0), 0.0, entry == 1.0)
    check("scalar_sum_obstruction.grid_min_residual_exceeds_0.1", demo["min_residual"], 0.1,
          bool(demo["min_residual"] > 0.1))
    all_pass = all(c["pass"] for c in checks)
    if args.json_out:
        _emit({"checks": checks, "all_pass": all_pass}, args.json_out)
    else:
        for c in checks:
            mark = "PASS" if c["pass"] else "FAIL"
            print(f"{mark}  {c['check']}  residual={c['residual']:.3e}")
        print("all checks passed" if all_pass else "FAILURES present")
    return EXIT_OK if all_pass else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    """Usage errors (a bad choice, a missing argument) are ParseErrors, so
    they print one "error: " line and exit 2 like every other bad input."""

    def error(self, message):
        raise errors.ParseError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ptsim", description="PT-symmetric quantum mechanics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    # the matrix H, its optional (P, T) pair and the output file
    system = argparse.ArgumentParser(add_help=False)
    for arg in ("matrix", "--P", "--T", "--out"):
        system.add_argument(arg)

    c = sub.add_parser("classify", parents=[system], help="classify a Hamiltonian")
    c.set_defaults(func=cmd_classify)

    m = sub.add_parser("metric", parents=[system], help="construct or verify a metric operator")
    m.add_argument("--eta", help="verify this metric instead of constructing one")
    m.set_defaults(func=cmd_metric)

    d = sub.add_parser("dilate", parents=[system], help="build the Hermitian dilation")
    d.add_argument("--margin", type=float, default=1.05)
    d.add_argument("--h1", default="zero", help="zero | paper | path-to-matrix-file")
    d.add_argument("--eta", help="use this metric (must satisfy lambda_min > 1)")
    d.set_defaults(func=cmd_dilate)

    s = sub.add_parser("simulate", help="run the three-stage simulation pipeline")
    s.add_argument("config")
    s.add_argument("--samples", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=cmd_simulate)

    n = sub.add_parser("nosignal", help="two-party no-signaling experiment")
    n.add_argument("--alpha", type=float)
    n.add_argument("--alpha-deg", type=float, dest="alpha_deg")
    n.add_argument("--s", type=float, default=1.0)
    n.add_argument("--t", type=float, default=1.0)
    n.add_argument("--t-grid", dest="t_grid")
    n.add_argument("--scheme", default="identity", choices=["identity", "metric", "metric_sandwich"])
    n.add_argument("--mode", default="simulated_eq73",
                   choices=["direct_eq71", "simulated_eq73"])
    n.add_argument("--sweep", help="write a CSV sweep to this path")
    n.add_argument("--out")
    n.set_defaults(func=cmd_nosignal)

    pp = sub.add_parser("paper", help="regenerate all closed-form fixture checks")
    pp.add_argument("--json", dest="json_out")
    pp.set_defaults(func=cmd_paper)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except errors.PTSimError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
