"""The names the outside-in benchmark under ``bench/`` patches in the package.

``bench/tracer.py`` wraps package functions where their callers look them up,
through ``owner.__dict__``, and ``bench/workloads.py`` wraps the four solver
loops in ``ssqpbench.harness``.  A refactor that moves one of them (say, turns a
method into a field) would break ``bench/run.py --trace 1`` without failing any
other test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ssqpbench.harness as harness

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


def test_workload_runs_live_in_harness():
    source = (BENCH / "workloads.py").read_text()
    for name in WORKLOAD_RUNS:
        assert f'"{name}"' in source
        assert callable(harness.__dict__.get(name)), name
