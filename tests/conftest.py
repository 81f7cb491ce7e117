"""Shared fixtures."""

import dataclasses

import pytest

import ssqpbench.algorithms as algorithms
import ssqpbench.qp_subproblem as qp_subproblem
from ssqpbench.harness import BenchConfig, run_experiment
from ssqpbench.problems import generate_regression_problem

# the shipped regression instance (criteria 3 and 4) and USV instance (criterion 8)
REGRESSION_SPEC = {"seed": 11, "d": 14, "n": 450, "critical": 10, "tolerance": 1.3}
USV_SPEC = {"kind": "usv", "seed": 7, "n": 100, "horizon": 40}


@pytest.fixture
def pattern_solves(monkeypatch):
    """The argument lists of every ``_solve_pattern_system`` call the test makes."""
    calls = []
    kernel = qp_subproblem._solve_pattern_system

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(qp_subproblem, "_solve_pattern_system", counting)
    return calls


@pytest.fixture
def refreshed_y(monkeypatch):
    """SSQP-Skip steps that first set y to the sample's stochastic gradient.

    With p = 1 this collapses SSQP-Skip to SSQP.  ``ssqp_skip_run`` calls the
    step through the ``algorithms`` module global, so every step is wrapped.
    """
    step = algorithms.ssqp_skip_step

    def refreshed(state, sample, *args, **kwargs):
        state = dataclasses.replace(state, y=sample.stochastic_gradient.copy())
        return step(state, sample, *args, **kwargs)

    monkeypatch.setattr(algorithms, "ssqp_skip_step", refreshed)


@pytest.fixture
def recorded_steps(monkeypatch):
    """What every SSQP and VARAS step of the test's runs receives and returns.

    The loops call ``ssqp_step``, ``varas_step``, ``sfo_query`` and
    ``full_gradient`` through the ``algorithms`` module globals, so wrapping
    those sees every step.  ``"ssqp"`` records hold ``x_t``, ``x_next``,
    ``eta`` and ``sample``.  ``"varas"`` records hold the inner step ``t``
    (counted from 1 after each full gradient pass), the drawn ``index``,
    ``y``, ``x_prev``, ``z`` (z_t), ``z_plus``, ``x`` (x_t), ``n_tilde`` and
    ``alpha``.
    """
    records = {"ssqp": [], "varas": []}
    since_pass = {"t": 0, "index": None}
    ssqp_step, varas_step = algorithms.ssqp_step, algorithms.varas_step
    sfo_query, full_gradient = algorithms.sfo_query, algorithms.full_gradient

    def recording_ssqp(state, sample, eta, *args, **kwargs):
        new = ssqp_step(state, sample, eta, *args, **kwargs)
        records["ssqp"].append({"x_t": state.x, "x_next": new.x, "eta": eta, "sample": sample})
        return new

    def recording_varas(x_prev, z_prev, y, n_tilde, sample, warm, counters, constants):
        x, answer = varas_step(x_prev, z_prev, y, n_tilde, sample, warm, counters, constants)
        alpha, mb, one_mb = constants[:3]
        since_pass["t"] += 1
        records["varas"].append({
            "t": since_pass["t"], "index": since_pass["index"], "y": y, "x_prev": x_prev,
            "z": answer.u, "z_plus": (z_prev + mb * y) / one_mb, "x": x,
            "n_tilde": n_tilde, "alpha": alpha,
        })
        return x, answer

    def recording_query(problem, x, batch, *args, **kwargs):
        since_pass["index"] = int(batch[0])
        return sfo_query(problem, x, batch, *args, **kwargs)

    def recording_pass(*args, **kwargs):
        since_pass["t"] = 0
        return full_gradient(*args, **kwargs)

    monkeypatch.setattr(algorithms, "ssqp_step", recording_ssqp)
    monkeypatch.setattr(algorithms, "varas_step", recording_varas)
    monkeypatch.setattr(algorithms, "sfo_query", recording_query)
    monkeypatch.setattr(algorithms, "full_gradient", recording_pass)
    return records


def _record_qmo_calls(config: BenchConfig, out_dir) -> list:
    """Every ``(qp, tol, warm)`` the run passes to ``solve_canonical_qp``.

    The loops call the solver through the ``algorithms`` module global, which
    is where the bench's tracer wraps it too.
    """
    calls = []
    solve = algorithms.solve_canonical_qp

    def recording(qp, tol=1e-9, warm=None):
        calls.append((qp, tol, warm))
        return solve(qp, tol=tol, warm=warm)

    algorithms.solve_canonical_qp = recording
    try:
        run_experiment(config, output_dir=out_dir)
    finally:
        algorithms.solve_canonical_qp = solve
    return calls


@pytest.fixture(scope="session")
def qmo_stream(tmp_path_factory):
    """The QMO traffic of short runs on the shipped instances, keyed by loop.

    ``"ssqp"``: one 300-step SSQP seed on the regression instance (the bench's
    reg-ssqp loop); ``"varas"``: one 10-epoch VARAS seed on the USV instance
    (usv-varas).  Each value is the list of ``(qp, tol, warm)`` arguments in
    call order, so a test can replay real traffic, warm starts included.
    """
    problem, _ = generate_regression_problem(**REGRESSION_SPEC)
    ssqp = BenchConfig.from_dict({
        "problem": {"kind": "regression", **REGRESSION_SPEC}, "algorithm": "ssqp", "gamma": 100.0,
        "schedule": {"kind": "ssqp_strongly_convex", "mu": problem.strong_convexity,
                     "smoothness": problem.smoothness},
        "seeds": [0], "horizon": 300, "checkpoint_stride": 50,
    })
    varas = BenchConfig.from_dict({
        "problem": USV_SPEC, "algorithm": "varas", "gamma": 1e6,
        "schedule": {"kind": "varas", "mu": 0.0, "smoothness_gamma": 350.0},
        "seeds": [0], "epochs": 10, "checkpoint_stride": 1,
    })
    return {
        "ssqp": _record_qmo_calls(ssqp, tmp_path_factory.mktemp("qmo_ssqp")),
        "varas": _record_qmo_calls(varas, tmp_path_factory.mktemp("qmo_varas")),
    }
