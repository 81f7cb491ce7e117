"""Benchmark harness: config handling, run orchestration, trace files, and analysis.

Traces are CSV files with a fixed column order and 17-significant-digit
floats, one per seed, with a JSON metadata document that is itself a valid
re-runnable config.  Analysis helpers compute calls-to-threshold summaries and
log-log / log-linear rate slopes over the final decade of a trace.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .algorithms import (
    DivergenceError,
    RunConfig,
    TraceRow,
    ssqp_run,
    ssqp_skip_run,
    varas_run,
)
from .baselines import PrimalDualSchedule, primal_dual_run
from .penalty import gamma_from_slater
from .problem_model import ConstrainedProblem, NonFiniteEvaluationError
from .problems import (
    generate_regression_problem,
    load_regression_csv,
    make_usv_problem,
    random_quadratic_problem,
    straight_line_path,
)
from .schedules import (
    SkipSchedule,
    SsqpConvexSchedule,
    SsqpStronglyConvexSchedule,
    TunedConstantSchedule,
    VarasSchedule,
)

__all__ = [
    "BenchConfig",
    "ConfigError",
    "TRACE_COLUMNS",
    "write_trace",
    "read_trace",
    "run_experiment",
    "resolve_output_dir",
    "calls_to_threshold",
    "slope_fit",
]

TRACE_COLUMNS = ("iter", "sfo", "qmo", "gap", "rel_gap", "max_viol", "sum_viol", "dist_sq", "wall")
OUTPUT_DIR_ENV = "SSQPBENCH_OUTPUT_DIR"

_ALGORITHMS = ("ssqp", "ssqp-skip", "varas", "primal-dual")
_PROBLEMS = ("usv", "regression", "regression-file", "quadratic")


class ConfigError(ValueError):
    """Invalid benchmark configuration."""


@dataclass
class BenchConfig:
    """Validated benchmark configuration (mirrors the JSON schema 1:1)."""

    problem: dict
    algorithm: str
    schedule: dict
    gamma: float
    seeds: list[int]
    horizon: int = 0
    epochs: int = 0
    batch_size: int = 1
    checkpoint_stride: int = 0  # 0 = auto ceil(T/500)
    output_dir: str = "traces"
    cost_model_m: float = 1.0
    reference: Optional[dict] = None  # {"x_star": [...], "f_star": float}
    gamma_provenance: str = "tuned"  # or "certified"
    slater: Optional[dict] = None  # {"margin": nu, "gap": beta_bar}

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        schema = fields(cls)
        unknown = set(doc) - {f.name for f in schema}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for f in schema:
            if f.default is MISSING and f.name not in doc:
                raise ConfigError(f"missing required config field '{f.name}'")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {_ALGORITHMS}")
        if not isinstance(self.problem, dict) or self.problem.get("kind") not in _PROBLEMS:
            raise ConfigError(f"problem.kind must be one of {_PROBLEMS}")
        if not isinstance(self.gamma, (int, float)) or not self.gamma > 0:
            raise ConfigError("gamma must be a positive number")
        if not self.seeds or not all(isinstance(s, int) for s in self.seeds):
            raise ConfigError("seeds must be a nonempty list of integers")
        if self.algorithm == "varas":
            if self.epochs < 1:
                raise ConfigError("varas requires epochs >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.cost_model_m < 1:
            raise ConfigError("cost_model_m must be >= 1")
        if self.gamma_provenance not in ("tuned", "certified"):
            raise ConfigError("gamma_provenance must be 'tuned' or 'certified'")
        if self.gamma_provenance == "certified":
            if not self.slater or "margin" not in self.slater or "gap" not in self.slater:
                raise ConfigError("certified gamma needs slater = {margin, gap}")
            floor = gamma_from_slater(self.slater["gap"], self.slater["margin"])
            if self.gamma < floor - 1e-12:
                raise ConfigError(f"gamma {self.gamma} below certified level {floor}")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Trace files


def _format_value(value: float) -> str:
    return f"{value:.17g}"


def write_trace(path: str | Path, rows: list[TraceRow]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [str(r.iteration), str(r.sfo), str(r.qmo)]
                + [_format_value(v) for v in (r.gap, r.rel_gap, r.max_viol, r.sum_viol, r.dist_sq, r.wall)]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: str | Path) -> list[TraceRow]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise ValueError(f"{path}: not a trace file (bad header)")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}: malformed trace row: {line!r}")
        rows.append(
            TraceRow(
                iteration=int(parts[0]),
                sfo=int(parts[1]),
                qmo=int(parts[2]),
                gap=float(parts[3]),
                rel_gap=float(parts[4]),
                max_viol=float(parts[5]),
                sum_viol=float(parts[6]),
                dist_sq=float(parts[7]),
                wall=float(parts[8]),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Problem / schedule construction


def build_problem(config: BenchConfig) -> tuple[ConstrainedProblem, np.ndarray]:
    """Instantiate the configured problem; returns (problem, default x0)."""
    spec = dict(config.problem)
    kind = spec.pop("kind")
    seed = spec.pop("seed", 0)
    if kind == "usv":
        problem, usv = make_usv_problem(seed=seed, **spec)
        return problem, straight_line_path(usv)
    if kind == "regression":
        problem, _ = generate_regression_problem(seed=seed, **spec)
        return problem, np.zeros(problem.dim)
    if kind == "regression-file":
        problem, _ = load_regression_csv(seed=seed, **spec)
        return problem, np.zeros(problem.dim)
    if kind == "quadratic":
        problem = random_quadratic_problem(seed=seed, **spec)
        return problem, np.zeros(problem.dim)
    raise ConfigError(f"unknown problem kind {kind!r}")


def build_schedule(config: BenchConfig, problem: ConstrainedProblem):
    spec = dict(config.schedule)
    kind = spec.pop("kind", None)
    try:
        if kind == "ssqp_convex":
            spec.pop("eta0", None)
            return SsqpConvexSchedule(**spec)
        if kind == "ssqp_strongly_convex":
            spec.pop("offset", None)
            return SsqpStronglyConvexSchedule(**spec)
        if kind == "tuned_constant":
            return TunedConstantSchedule(**spec)
        if kind == "skip":
            spec.pop("omega", None)
            return SkipSchedule(**spec)
        if kind == "varas":
            spec.pop("s0", None)
            spec.setdefault("n", problem.n_components)
            return VarasSchedule(**spec)
        if kind == "primal_dual":
            return PrimalDualSchedule(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad schedule parameters: {exc}") from exc
    raise ConfigError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# Orchestration


def resolve_output_dir(config: BenchConfig) -> Path:
    """Directory run_experiment writes to: SSQPBENCH_OUTPUT_DIR if set, else the config's."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    return Path(override) if override else Path(config.output_dir)


def run_experiment(config: BenchConfig, output_dir: Optional[str | Path] = None) -> dict:
    """Execute all configured seeds; writes one trace CSV per seed plus metadata.

    Returns the metadata document.  The metadata's ``config`` key fed back to
    run_experiment reproduces the traces byte-for-byte.  A seed that diverges
    writes its partial trace and a seed whose oracle evaluation is non-finite
    writes none; the other seeds still run, ``metadata.json`` records each
    seed's status (``ok``, ``diverged`` or ``non-finite``) and, under
    ``qp_nonconverged``, its count of QMO answers that did not certify (null
    for a non-finite seed); the first such error is then re-raised.
    """
    problem, x0 = build_problem(config)
    schedule = build_schedule(config, problem)
    out = Path(output_dir) if output_dir is not None else resolve_output_dir(config)
    out.mkdir(parents=True, exist_ok=True)

    x_star = f_star = None
    if config.reference:
        x_star = np.asarray(config.reference["x_star"], dtype=float) if config.reference.get("x_star") is not None else None
        f_star = config.reference.get("f_star")

    stride = config.checkpoint_stride
    if stride == 0:
        span = config.epochs if config.algorithm == "varas" else config.horizon
        stride = max(1, math.ceil(span / 500)) if span else 1

    trace_files = {}
    seed_status = {}
    qp_nonconverged = {}
    first_error = None
    started = time.time()
    for seed in config.seeds:
        fname = f"{config.algorithm}_seed{seed}.csv"
        if config.algorithm != "varas" and config.horizon == 0:
            # degenerate metadata-only run: empty trace per seed
            write_trace(out / fname, [])
            trace_files[seed] = fname
            seed_status[seed] = "ok"
            qp_nonconverged[seed] = 0
            continue
        run_cfg = RunConfig(
            gamma=config.gamma,
            schedule=schedule,
            x0=x0.copy(),
            horizon=config.horizon if config.algorithm != "varas" else 0,
            epochs=config.epochs if config.algorithm == "varas" else 0,
            batch_size=config.batch_size,
            seed=seed,
            checkpoint_stride=stride,
            x_star=x_star,
            f_star=f_star,
            cost_model_m=config.cost_model_m,
        )
        try:
            if config.algorithm == "ssqp":
                _, _, trace, counters = ssqp_run(problem, run_cfg)
            elif config.algorithm == "ssqp-skip":
                _, trace, counters = ssqp_skip_run(problem, run_cfg)
            elif config.algorithm == "varas":
                _, trace, counters = varas_run(problem, run_cfg)
            else:
                _, trace, counters = primal_dual_run(problem, run_cfg)
            seed_status[seed] = "ok"
        except DivergenceError as exc:
            trace, counters = exc.trace, exc.counters
            seed_status[seed] = "diverged"
            first_error = first_error or exc
        except NonFiniteEvaluationError as exc:
            (out / fname).unlink(missing_ok=True)  # no stale trace from an earlier run
            seed_status[seed] = "non-finite"
            qp_nonconverged[seed] = None
            first_error = first_error or exc
            continue
        qp_nonconverged[seed] = counters.qmo_nonconverged
        write_trace(out / fname, trace.rows)
        trace_files[seed] = fname

    meta = {
        "version": __version__,
        "config": config.to_dict(),
        "schedule_resolved": schedule.as_dict(),
        "checkpoint_stride_resolved": stride,
        "gamma_provenance": config.gamma_provenance,
        "trace_files": {str(k): v for k, v in trace_files.items()},
        "seed_status": {str(k): v for k, v in seed_status.items()},
        "qp_nonconverged": {str(k): v for k, v in qp_nonconverged.items()},
        "measured_seconds_informational": time.time() - started,
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    if first_error is not None:
        raise first_error
    return meta


# ---------------------------------------------------------------------------
# Analysis


def calls_to_threshold(
    traces: list[list[TraceRow]], metric: str, threshold: float
) -> dict:
    """First-crossing SFO/QMO/wall counts per seed, averaged over crossers.

    ``metric`` is one of dist_sq, gap, rel_gap, max_viol, sum_viol.  Seeds
    whose trace never crosses are reported as censored and excluded from the
    means.
    """
    if metric not in ("dist_sq", "gap", "rel_gap", "max_viol", "sum_viol"):
        raise ValueError(f"unsupported metric {metric!r}")
    crossings = []
    censored = 0
    for rows in traces:
        hit = next((r for r in rows if getattr(r, metric) <= threshold), None)
        if hit is None:
            censored += 1
        else:
            crossings.append((hit.sfo, hit.qmo, hit.wall))
    result = {
        "metric": metric,
        "threshold": threshold,
        "seeds": len(traces),
        "censored": censored,
    }
    if crossings:
        arr = np.asarray(crossings, dtype=float)
        result.update(
            mean_sfo=float(arr[:, 0].mean()),
            mean_qmo=float(arr[:, 1].mean()),
            mean_wall=float(arr[:, 2].mean()),
        )
    return result


def slope_fit(
    rows: list[TraceRow],
    metric: str,
    mode: str = "loglog",
    window: str = "final-decade",
) -> tuple[float, float]:
    """Least-squares rate fit over the trace tail; returns (slope, r_squared).

    loglog fits log(metric) against log(iteration); loglinear fits
    log(metric) against the iteration index (geometric decay).  The
    final-decade window keeps rows with iteration > max_iter / 10.
    """
    pts = [(r.iteration, getattr(r, metric)) for r in rows if r.iteration > 0]
    if window == "final-decade":
        top = max(it for it, _ in pts)
        pts = [(it, v) for it, v in pts if it > top / 10.0]
    if len(pts) < 10:
        raise ValueError("need at least 10 checkpoint rows in the fit window")
    values = np.array([v for _, v in pts])
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError("metric must be positive and finite in the fit window (diverged or fully converged run)")
    xs = np.array([it for it, _ in pts], dtype=float)
    if mode == "loglog":
        xs = np.log(xs)
    elif mode != "loglinear":
        raise ValueError("mode must be 'loglog' or 'loglinear'")
    ys = np.log(values)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2
