"""Shared fixtures."""

import pytest

import ssqpbench.qp_subproblem as qp_subproblem


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
