"""The names the outside-in benchmark under ``bench/`` patches in the package.

``bench/tracer.py`` wraps package functions where their callers look them up,
through ``owner.__dict__``, and ``bench/workloads.py`` wraps the four solver
loops in ``ssqpbench.harness``.  A refactor that moves one of them (say, turns a
method into a field) would break ``bench/run.py --trace 1`` without failing any
other test.  The last test runs the bench's own ``--quick`` smoke pass.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssqpbench.harness as harness
from ssqpbench import (
    OracleCounters,
    PrimalDualSchedule,
    RunConfig,
    SkipSchedule,
    TunedConstantSchedule,
    VarasSchedule,
)
from ssqpbench.problems import random_quadratic_problem

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the names ``workloads.capture_runs`` replaces in ssqpbench.harness
WORKLOAD_RUNS = ("ssqp_run", "ssqp_skip_run", "varas_run", "primal_dual_run")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_trace_target_is_patchable(tracer):
    assert tracer._TARGETS
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in tracer._TARGETS
        if attr not in owner.__dict__ or not callable(owner.__dict__[attr])
    ]
    assert missing == []


def tiny_run_config(name, problem):
    mu, smooth = problem.strong_convexity, problem.smoothness
    x0 = np.zeros(problem.dim)
    if name == "varas_run":
        schedule = VarasSchedule(n=problem.n_components, mu=mu, smoothness_gamma=smooth)
        return RunConfig(gamma=1.0, schedule=schedule, x0=x0, epochs=2, seed=3)
    schedule = {
        "ssqp_run": TunedConstantSchedule(eta=0.05),
        "ssqp_skip_run": SkipSchedule(mu=mu, smoothness=smooth),
        "primal_dual_run": PrimalDualSchedule(eta_x=0.05, eta_lambda=0.05),
    }[name]
    return RunConfig(gamma=1.0, schedule=schedule, x0=x0, horizon=5, seed=3)


def test_workload_runs_live_in_harness():
    source = (BENCH / "workloads.py").read_text()
    problem = random_quadratic_problem(seed=1, dim=3, n=4)
    for name in WORKLOAD_RUNS:
        assert f'"{name}"' in source
        run = harness.__dict__.get(name)
        assert callable(run), name
        # capture_runs reads out[0] as the final iterate and out[-1] as the counters
        out = run(problem, tiny_run_config(name, problem))
        assert isinstance(out[0], np.ndarray) and out[0].shape == (problem.dim,), name
        assert isinstance(out[-1], OracleCounters), name


def test_bench_quick_smoke_passes():
    # the bench's own smoke run: every workload tiny, traced and untraced
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=600, env=env, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == 8  # four workloads, traced and untraced
    assert all(r["correct"] is True for r in results), results
