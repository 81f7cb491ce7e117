"""Span tracing of ssqpbench from outside the package.

``Tracer.installed()`` replaces the package functions at the places where their
callers look them up (module globals of the calling module, and methods on
their classes) with wrappers that record one span per call: name, start, end
and parent span.  Spans live in flat arrays while a pass runs and are reduced
to per-layer numbers, or written out, when it ends.  Nothing inside ``src/``
changes, and the wrappers return the wrapped function's own result, so a
traced pass writes the same traces as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

import ssqpbench.algorithms
import ssqpbench.baselines
import ssqpbench.harness
import ssqpbench.problem_model
import ssqpbench.problems
import ssqpbench.qp_subproblem
import ssqpbench.schedules

# (owner, attribute, span name).  A module owner is the module whose global the
# caller reads, which is not always the module that defines the function.
_TARGETS = [
    (ssqpbench.harness, "run_experiment", "harness.run_experiment"),
    (ssqpbench.harness, "write_trace", "harness.write"),
    (ssqpbench.harness, "generate_regression_problem", "problems.build"),
    (ssqpbench.harness, "make_usv_problem", "problems.build"),
    (ssqpbench.harness, "straight_line_path", "problems.build"),
    (ssqpbench.harness, "ssqp_run", "algorithms.loop"),
    (ssqpbench.harness, "ssqp_skip_run", "algorithms.loop"),
    (ssqpbench.harness, "varas_run", "algorithms.loop"),
    (ssqpbench.harness, "primal_dual_run", "baselines.loop"),
    (ssqpbench.algorithms, "ssqp_step", "algorithms.step"),
    (ssqpbench.algorithms, "ssqp_skip_step", "algorithms.step"),
    (ssqpbench.baselines, "primal_dual_step", "baselines.step"),
    (ssqpbench.algorithms, "sfo_query", "problem_model.sfo_query"),
    (ssqpbench.baselines, "sfo_query", "problem_model.sfo_query"),
    (ssqpbench.algorithms, "full_gradient", "problem_model.full_gradient"),
    (ssqpbench.problem_model.ConstrainedProblem, "component_values_grads", "problem_model.component_eval"),
    (ssqpbench.problem_model.ConstrainedProblem, "constraint_values_grads", "problem_model.constraint_eval"),
    (ssqpbench.algorithms, "penalty_objective", "penalty.objective"),
    (ssqpbench.algorithms, "violation_report", "penalty.violation"),
    (ssqpbench.algorithms, "solve_canonical_qp", "qp_subproblem.solve"),
    (ssqpbench.problems, "solve_canonical_qp", "qp_subproblem.solve"),
    (ssqpbench.qp_subproblem, "solve_canonical_qp", "qp_subproblem.solve"),
    (ssqpbench.qp_subproblem, "dense_oracle_qp", "qp_subproblem.dense_oracle"),
    (ssqpbench.schedules.SsqpConvexSchedule, "stepsize", "schedules"),
    (ssqpbench.schedules.SsqpStronglyConvexSchedule, "stepsize", "schedules"),
    (ssqpbench.schedules.TunedConstantSchedule, "stepsize", "schedules"),
    (ssqpbench.schedules.SkipSchedule, "parameters", "schedules"),
    (ssqpbench.schedules.VarasSchedule, "epoch_params", "schedules"),
    (ssqpbench.schedules.VarasSchedule, "normalized_theta", "schedules"),
]

# The root span of a pass; its self time is the benchmark's own code.
ROOT = "bench.pass"
SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [name for _, _, name in _TARGETS]))
QP = SPAN_NAMES.index("qp_subproblem.solve")
DENSE = SPAN_NAMES.index("qp_subproblem.dense_oracle")


class Tracer:
    """Flat in-memory span store for one pass: 24 bytes per span."""

    def __init__(self) -> None:
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # one entry per qp_subproblem.solve span, read off the returned QpSolution
        self.qp_span = array("q")
        self.qp_sweeps = array("q")
        self.qp_converged = array("b")
        self.qp_kkt = array("d")

    def _wrap(self, fn, kind: int):
        kinds, parents, starts, ends, stack = self.kind, self.parent, self.start, self.end, self._stack
        perf = time.perf_counter
        if kind == QP:
            qp_span, qp_sweeps, qp_conv, qp_kkt = self.qp_span, self.qp_sweeps, self.qp_converged, self.qp_kkt

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if kind == QP:
                qp_span.append(idx)
                qp_sweeps.append(out.sweeps)
                qp_conv.append(out.converged)
                qp_kkt.append(out.kkt_residual)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name in _TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, SPAN_NAMES.index(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self):
        """The pass span: every span recorded inside it is its descendant."""
        idx = len(self.kind)
        self.kind.append(SPAN_NAMES.index(ROOT))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict:
        return {
            "names": np.array(SPAN_NAMES),
            "kind": np.frombuffer(self.kind, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "qp_span": np.frombuffer(self.qp_span, dtype=np.int64),
            "qp_sweeps": np.frombuffer(self.qp_sweeps, dtype=np.int64),
            "qp_converged": np.frombuffer(self.qp_converged, dtype=np.int8),
            "qp_kkt": np.frombuffer(self.qp_kkt, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per-span-name call counts and self seconds, plus QP statistics.

        Self time is a span's duration minus the durations of its direct
        children; wrapper cost outside a child's interval lands in its parent.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        kind, parent = a["kind"], a["parent"]
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = np.bincount(kind, weights=dur - child_sum, minlength=len(SPAN_NAMES))
        calls = np.bincount(kind, minlength=len(SPAN_NAMES))
        qp_dur = dur[a["qp_span"]]
        dense = np.flatnonzero(kind == DENSE)
        fallbacks = int(np.count_nonzero(kind[parent[dense]] == QP)) if dense.size else 0
        return {
            "spans": int(len(dur)),
            "root_s": float(dur[kind == SPAN_NAMES.index(ROOT)].sum()),
            "self_s": {n: float(self_s[i]) for i, n in enumerate(SPAN_NAMES)},
            "calls": {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)},
            "qp_us": qp_dur * 1e6,
            "qp_sweeps": a["qp_sweeps"],
            "qp_nonconverged": int(np.count_nonzero(a["qp_converged"] == 0)),
            "qp_max_kkt": float(a["qp_kkt"].max()) if len(a["qp_kkt"]) else 0.0,
            "dense_fallbacks": fallbacks,
        }
