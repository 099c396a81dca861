"""Outside-in span recorder for the ptsim layers.

Each listed function is wrapped in the module that defines it and under every
name that binds it in a loaded ``ptsim`` module, because ``ptcore``,
``metric``, ``dilation``, ``completion``, ``pipeline``, ``nosignaling``,
``cli`` and the package itself import these functions by name. The
defining-module patch also covers calls made through module globals and
function-local imports. Nothing under ``src/`` changes, and nothing is
patched outside a ``with SpanRecorder()`` block.

Spans (span index, start, end, parent record, op id) stay in memory until
the caller aggregates or writes them.
"""

from __future__ import annotations

import functools
import sys
import time

SPANS = (
    "linalg.eig",
    "linalg.matrix_exp",
    "linalg.psd_power",
    "linalg.orthonormal_extension",
    "ptcore.classify",
    "metric.positive_metric",
    "metric.scalar_sum_obstruction_demo",
    "dilation.build_dilation",
    "completion.unitary_completion",
    "completion.post_select",
    "pipeline.run_simulation",
    "pipeline.preparation_completion",
    "pipeline.extraction_completion",
    "pipeline.reproduce_gunther_example",
    "nosignaling.run_experiment",
)

# post_select returns (state, branch probability); the mean probability is the
# share of post-selection attempts that keep their outcome.
_POST_SELECT = "completion.post_select"


class SpanRecorder:
    """Context manager that wraps the ptsim layer functions while active.

    Set ``op_id`` around each benchmark op; spans opened while it is None
    (set-up, warm-up) are recorded but left out of the per-op metrics.
    """

    def __init__(self):
        self.records: list = []  # (span index, start, end, parent record or -1, op id)
        self.branch_probs: list = []  # (op id, probability) per post_select call
        self.op_id = None
        self._stack: list = []
        self._patches: list = []  # (module, attribute, original)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name == "ptsim" or name.startswith("ptsim.")]
        for idx, span in enumerate(SPANS):
            mod_name, func_name = span.split(".")
            original = getattr(sys.modules["ptsim." + mod_name], func_name)
            wrapper = self._wrap(idx, original, span == _POST_SELECT)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, idx, fn, observe_prob):
        records, stack = self.records, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[me] = (idx, start, end, parent, self.op_id)
            if observe_prob:
                self.branch_probs.append((self.op_id, out[1]))
            return out

        return wrapper

    def layer_metrics(self, op_seconds: list) -> dict:
        """The per-layer metrics over the ops numbered 0..len(op_seconds)-1.

        Self time is a span's duration minus that of its direct children;
        spans of one thread nest strictly, so the children never overlap.
        """
        nops = len(op_seconds)
        child = [0.0] * len(self.records)
        for idx, start, end, parent, op in self.records:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(SPANS)
        busy = [0.0] * len(SPANS)
        own = [0.0] * len(SPANS)
        covered = 0.0
        for rec, (idx, start, end, parent, op) in enumerate(self.records):
            if op is None:
                continue
            calls[idx] += 1
            busy[idx] += end - start
            own[idx] += end - start - child[rec]
            if parent < 0:
                covered += end - start
        out = {}
        for idx, span in enumerate(SPANS):
            out[f"{span}.calls_per_op"] = calls[idx] / nops
            out[f"{span}.busy_ms_per_op"] = 1e3 * busy[idx] / nops
            out[f"{span}.self_ms_per_op"] = 1e3 * own[idx] / nops
        probs = [p for op, p in self.branch_probs if op is not None]
        # 0 when the workload never post-selects (paper_checks)
        out[f"{_POST_SELECT}.kept_ratio"] = sum(probs) / len(probs) if probs else 0.0
        out["trace.coverage"] = covered / sum(op_seconds)
        return out

    def dump(self) -> dict:
        """The recorded spans, times in microseconds from the first span."""
        t0 = self.records[0][1] if self.records else 0.0
        return {
            "fields": ["span", "start_us", "end_us", "parent", "op"],
            "span_names": list(SPANS),
            "spans": [
                [idx, (start - t0) * 1e6, (end - t0) * 1e6, parent, op]
                for idx, start, end, parent, op in self.records
            ],
        }
