"""Penalty-based stochastic SQP solvers with an oracle-complexity benchmark harness."""

__version__ = "0.1.0"

from .problem_model import (
    L1,
    BoxIndicator,
    ConstrainedProblem,
    NonFiniteEvaluationError,
    OracleCounters,
    SfoSample,
    StreamingUnsupportedError,
    Zero,
    full_gradient,
    sfo_query,
)
from .penalty import (
    ViolationReport,
    gamma_from_slater,
    penalty_objective,
    violation_report,
)
from .qp_subproblem import (
    CanonicalQp,
    QpSolution,
    dense_oracle_qp,
    kkt_residual,
    qp_objective,
    solve_canonical_qp,
)
from .schedules import (
    SkipSchedule,
    SsqpConvexSchedule,
    SsqpStronglyConvexSchedule,
    TunedConstantSchedule,
    VarasSchedule,
)
from .algorithms import (
    DivergenceError,
    RunConfig,
    RunTrace,
    SkipState,
    SsqpState,
    TraceRow,
    ssqp_run,
    ssqp_skip_run,
    ssqp_skip_step,
    ssqp_step,
    three_point_audit,
    varas_run,
)
from .baselines import (
    PrimalDualSchedule,
    PrimalDualState,
    primal_dual_run,
    primal_dual_step,
)
from .problems import (
    ReferenceSolveError,
    ResidualRegressionProblem,
    UsvProblem,
    brute_force_optimum,
    generate_current_ensemble,
    generate_regression_problem,
    load_regression_csv,
    make_usv_problem,
    minimal_feasible_tolerance,
    path_from_decision,
    random_quadratic_problem,
    solve_kkt_quadratic,
    straight_line_path,
    usv_component_block,
)
from .harness import (
    BenchConfig,
    ConfigError,
    calls_to_threshold,
    read_trace,
    run_experiment,
    slope_fit,
    write_trace,
)
