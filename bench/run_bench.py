"""ptsim benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload simulate_fresh --seed 1 --seconds 30 --trace 0

One client, one process, one op in flight. ``--trace 0`` prints the
end-to-end metrics and times set-up in fresh processes spread over the
measured window; ``--trace 1`` alternates untraced and traced loops, half the
time each, and prints the per-layer metrics. Every op's output is
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
the run environment, goes to ``.bench_results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / ".bench_results"
SETUP_PROBES = 7  # fresh processes timed per untraced run for setup_s
TRACE_BLOCKS = 5  # untraced/traced loop pairs in a traced run
RESIDUAL_FLOOR = 1e-16
REFERENCE_INTERVAL_S = 0.1  # time the reference kernel after an op at most this often

# Every end-to-end figure of an untraced run, with its unit. All are printed
# and stored, with the error rate; END_TO_END are the ones in the JSON line
# and in BENCHMARK.json. Slow spells of a shared machine move raw op times by
# up to ~1.9x between runs, so regressions are judged on op_cost_rel, which
# divides them by the reference kernel timed in the same spells.
UNITS = {
    "setup_s": "s",
    "op_cost_rel": "ref",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "reference_ms": "ms",
}
END_TO_END = ("setup_s", "op_cost_rel", "accuracy_digits", "peak_rss_mb")


def _use_checkout():
    """Put the checkout's src/ and tests/ first on the import path."""
    missing = [p for p in ("src/ptsim/__init__.py", "tests/oracle.py", "tests/corpus.py") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"error: {ROOT} is not a ptsim checkout (missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _cap_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)


def _make(name, seed, n, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, n, workdir)


def _loop(w, acc, seconds=None, ops=None, recorder=None, min_ops=0):
    """Run ops back to back until ``ops`` are done or ``seconds`` have passed.

    A timed loop also goes on until ``acc`` holds ``min_ops`` samples.
    Samples are appended to ``acc``; an op's id is its index in ``acc``. The
    reference kernel is timed after the first op and then at most every
    REFERENCE_INTERVAL_S, and its time is left out of ``wall_s``.
    """
    from ptsim import errors
    from reference import reference_seconds

    done, reference_s, last_reference = 0, 0.0, -math.inf
    start = time.perf_counter()
    while True:
        inp = w.next_input()
        if recorder is not None:
            recorder.op_id = len(acc["latencies"])
        t0 = time.perf_counter()
        try:
            out = w.run(inp)
            raised = False
        except errors.PTSimError:
            raised = True
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.op_id = None
        residual, ok = (1.0, False) if raised else w.check(inp, out)
        acc["latencies"].append(t1 - t0)
        acc["residuals"].append(residual)
        acc["failed"] += not ok
        done += 1
        if t1 - last_reference >= REFERENCE_INTERVAL_S:
            acc["reference"].append(reference_seconds())
            reference_s += acc["reference"][-1]
            last_reference = time.perf_counter()
        if ops is not None:
            if done >= ops:
                break
        elif time.perf_counter() - start >= seconds and len(acc["latencies"]) >= min_ops:
            break
    acc["wall_s"] += time.perf_counter() - start - reference_s


def _samples():
    return {"latencies": [], "residuals": [], "reference": [], "failed": 0, "wall_s": 0.0}


def measure(name, seed, n=16, seconds=None, ops=None, trace=False, workdir=RESULTS_DIR, probe=None):
    """Set up, warm up and run one workload in this process.

    The ``seconds`` after the warm-up op are cut into loops, each getting an
    equal share of the time left (or ``ops`` ops). Untraced, there are
    SETUP_PROBES loops, and ``probe()``, if given, runs before each one; its
    results are returned as ``setup_s`` and its time counts in ``seconds``.
    Traced, untraced and traced loops alternate in TRACE_BLOCKS pairs, so
    that slow spells of a shared machine hit both sides alike. Returns the
    raw samples and, when traced, the span recorder.
    """
    w = _make(name, seed, n, workdir)
    w.setup()
    w.run(w.next_input())  # warm-up op, not measured
    start = time.perf_counter()

    def share(loops_left):
        if seconds is None:
            return None
        return max(0.0, seconds - (time.perf_counter() - start)) / loops_left

    untraced = _samples()
    if not trace:
        setup = []
        for i in range(SETUP_PROBES):
            if probe is not None:
                setup.append(probe())
            _loop(w, untraced, share(SETUP_PROBES - i), ops, min_ops=w.ACCURACY_OPS)
        return {"untraced": untraced, "setup_s": setup, "accuracy_ops": w.ACCURACY_OPS}
    from spans import SpanRecorder

    traced, recorder = _samples(), SpanRecorder()
    for i in range(TRACE_BLOCKS):
        _loop(w, untraced, share(2 * (TRACE_BLOCKS - i)), ops)
        with recorder:
            _loop(w, traced, share(2 * (TRACE_BLOCKS - i) - 1), ops, recorder)
    return {"untraced": untraced, "traced": traced, "recorder": recorder}


def end_to_end_metrics(loop, setup_samples, accuracy_ops):
    """The figures of an untraced run.

    ``setup_s`` is the fastest of the fresh-process probes: set-up does fixed
    work, so a slower probe only shows a slow spell of the machine.
    ``accuracy_digits`` covers the first ``accuracy_ops`` ops, whose inputs
    the seed fixes, so the machine's speed does not change which ops count.
    """
    lat_ms = [1e3 * x for x in loop["latencies"]]
    reference_ms = 1e3 * statistics.fmean(loop["reference"])
    return {
        "setup_s": min(setup_samples),
        "op_cost_rel": statistics.fmean(lat_ms) / reference_ms,
        "accuracy_digits": -math.log10(max(max(loop["residuals"][:accuracy_ops]), RESIDUAL_FLOOR)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(lat_ms) / loop["wall_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
        "reference_ms": reference_ms,
    }


def per_layer_metrics(result):
    untraced, traced = result["untraced"], result["traced"]
    out = result["recorder"].layer_metrics(traced["latencies"])
    out["trace.overhead_ratio"] = (len(traced["latencies"]) / traced["wall_s"]) / (
        len(untraced["latencies"]) / untraced["wall_s"]
    )
    return out


def per_layer_unit(metric):
    if metric.endswith(".calls_per_op"):
        return "calls/op"
    if metric.endswith("_ms_per_op"):
        return "ms/op"
    return "ratio"


def setup_probe(name, seed):
    """Set-up time of one fresh process: import ptsim, one-time calls, warm-up op.

    Input generation is excluded. Runs in the probe child.
    """
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (numpy, scipy and ptsim load here)

    imported = time.perf_counter() - t0
    w = _make(name, seed, 16, RESULTS_DIR)
    t1 = time.perf_counter()
    w.setup()
    t2 = time.perf_counter()
    inp = w.next_input()
    t3 = time.perf_counter()
    w.run(inp)
    t4 = time.perf_counter()
    return imported + (t2 - t1) + (t4 - t3)


def _probe_setup_s(name, seed):
    """Run setup_probe in a fresh process and return its set-up time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed, name, ops):
    import numpy as np
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    blas["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "workload": name,
        "seed": seed,
        "ops": ops,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="ptsim benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="length of the measured window (required)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_probe:
        parser.error("--seconds is required")

    _use_checkout()
    _cap_blas_threads()
    RESULTS_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    probe = None if args.trace else lambda: _probe_setup_s(args.workload, args.seed)
    result = measure(args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace), probe=probe)
    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(loop["latencies"]) for loop in loops)
    failed = sum(loop["failed"] for loop in loops)

    if args.trace:
        values = per_layer_metrics(result)
        figures = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        metrics = figures
    else:
        values = end_to_end_metrics(result["untraced"], result["setup_s"], result["accuracy_ops"])
        figures = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        metrics = {k: figures[k] for k in END_TO_END}

    ops = {"untraced": len(result["untraced"]["latencies"])}
    if args.trace:
        ops["traced"] = len(result["traced"]["latencies"])
    record = {
        "environment": environment(args.seed, args.workload, ops),
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": figures,
        "setup_s_samples": result.get("setup_s"),
        "op_latencies_ms": {k: [1e3 * x for x in loop["latencies"]]
                            for k, loop in zip(("untraced", "traced"), loops)},
    }
    stem = f"{args.workload}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS_DIR / f"{args.workload}-spans.json").write_text(json.dumps(result["recorder"].dump()) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {ops}")
    print(f"  {'error_rate':<58} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for k, m in figures.items():
        print(f"  {k:<58} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
