"""Benchmark harness: config handling, run orchestration, trace files, and analysis.

Traces are CSV files with a fixed column order and 17-significant-digit
floats, one per seed, with a JSON metadata document that is itself a valid
re-runnable config.  Analysis helpers compute calls-to-threshold summaries and
log-log / log-linear rate slopes over the final decade of a trace.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .algorithms import (
    SKIP_SCHEDULES,
    SSQP_SCHEDULES,
    VARAS_SCHEDULES,
    DivergenceError,
    RunConfig,
    TraceRow,
    ssqp_run,
    ssqp_skip_run,
    varas_run,
)
from .baselines import PRIMAL_DUAL_SCHEDULES, primal_dual_run
from .penalty import gamma_from_slater
from .problem_model import ConstrainedProblem, NonFiniteEvaluationError
from .problems import (
    generate_regression_problem,
    load_regression_csv,
    make_usv_problem,
    random_quadratic_problem,
    straight_line_path,
)
from .schedules import VarasSchedule

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

# TraceRow's fields in order are the trace columns, ``iter`` naming ``iteration``: the
# integer counts are written as they are and the floats with 17 significant digits
_ROW_TYPES = get_type_hints(TraceRow)
TRACE_COLUMNS = tuple("iter" if name == "iteration" else name for name in _ROW_TYPES)
_ROW_FORMAT = ",".join("{}" if kind is int else "{:.17g}" for kind in _ROW_TYPES.values())
_row_values = attrgetter(*_ROW_TYPES)
OUTPUT_DIR_ENV = "SSQPBENCH_OUTPUT_DIR"

# algorithm -> (its run function, looked up in this module when a seed runs;
# the config field that sets the run's length; the schedule classes it accepts)
_ALGORITHMS = {
    "ssqp": ("ssqp_run", "horizon", SSQP_SCHEDULES),
    "ssqp-skip": ("ssqp_skip_run", "horizon", SKIP_SCHEDULES),
    "varas": ("varas_run", "epochs", VARAS_SCHEDULES),
    "primal-dual": ("primal_dual_run", "horizon", PRIMAL_DUAL_SCHEDULES),
}
# schedule kind -> class
_SCHEDULES = {cls.kind: cls for *_, accepted in _ALGORITHMS.values() for cls in accepted}
# problem kind -> its instance factory, looked up in this module when a problem is built
_PROBLEMS = {
    "usv": "make_usv_problem",
    "regression": "generate_regression_problem",
    "regression-file": "load_regression_csv",
    "quadratic": "random_quadratic_problem",
}
# trace columns that calls_to_threshold and slope_fit accept as ``metric``: every one after qmo but wall
_METRICS = TRACE_COLUMNS[3:-1]


class ConfigError(ValueError):
    """Invalid benchmark configuration."""


def _number(value, types=(int, float)) -> bool:
    """True for an instance of ``types`` that is not a bool (Python's bool is an int)."""
    return isinstance(value, types) and not isinstance(value, bool)


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
            raise ConfigError(f"algorithm must be one of {tuple(_ALGORITHMS)}")
        kinds = tuple(_PROBLEMS)  # matched by equality, so an unhashable kind is a config error too
        if not isinstance(self.problem, dict) or self.problem.get("kind") not in kinds:
            raise ConfigError(f"problem.kind must be one of {kinds}")
        if not _number(self.gamma) or not self.gamma > 0:
            raise ConfigError("gamma must be a positive number")
        seeds = self.seeds if isinstance(self.seeds, (list, tuple)) else [None]
        if not seeds or not all(_number(s, int) for s in seeds) or len(set(seeds)) < len(seeds):
            raise ConfigError("seeds must be a nonempty list of distinct integers")
        for name, low in (("horizon", 0), ("epochs", 0), ("batch_size", 1), ("checkpoint_stride", 0)):
            if not _number(getattr(self, name), int) or getattr(self, name) < low:
                raise ConfigError(f"{name} must be an integer >= {low}")
        if _ALGORITHMS[self.algorithm][1] == "epochs" and self.epochs < 1:
            raise ConfigError(f"{self.algorithm} requires epochs >= 1")
        if not _number(self.cost_model_m) or not self.cost_model_m >= 1:
            raise ConfigError("cost_model_m must be a number >= 1")
        ref = self.reference
        if ref is not None:
            if not isinstance(ref, dict) or not set(ref) <= {"x_star", "f_star"}:
                raise ConfigError("reference must be an object with keys among x_star, f_star")
            x_star = ref.get("x_star", [])
            numbers = [ref.get("f_star", 0.0), *x_star] if isinstance(x_star, (list, tuple)) else [None]
            if not all(_number(v) and math.isfinite(v) for v in numbers):
                raise ConfigError("reference x_star (a list) and f_star must hold finite numbers")
        if self.slater is not None and not (isinstance(self.slater, dict) and all(map(_number, self.slater.values()))):
            raise ConfigError("slater must map margin and gap to numbers")
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


def write_trace(path: str | Path, rows: list[TraceRow]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for r in rows:
        lines.append(_ROW_FORMAT.format(*_row_values(r)))
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
        rows.append(TraceRow(*[kind(part) for kind, part in zip(_ROW_TYPES.values(), parts)]))
    return rows


# ---------------------------------------------------------------------------
# Problem / schedule construction


def build_problem(config: BenchConfig) -> tuple[ConstrainedProblem, np.ndarray]:
    """Instantiate the configured problem; returns (problem, default x0).

    A key that the kind's factory does not take, or a value of a type it
    cannot use, is a ``ConfigError``.
    """
    spec = dict(config.problem)
    kind = spec.pop("kind")
    if kind not in _PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    factory = globals()[_PROBLEMS[kind]]
    unknown = set(spec) - set(inspect.signature(factory).parameters)
    if unknown:
        raise ConfigError(f"unknown {kind} problem keys: {sorted(unknown)}")
    spec.setdefault("seed", 0)
    try:
        built = factory(**spec)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} problem parameters: {exc}") from exc
    if kind == "quadratic":
        return built, np.zeros(built.dim)
    problem, instance = built
    return problem, straight_line_path(instance) if kind == "usv" else np.zeros(problem.dim)


def build_schedule(config: BenchConfig, problem: ConstrainedProblem):
    """The configured schedule; ``as_dict`` output builds it back.

    A derived key in the config must equal the value the schedule computes
    from its fields, and SSQP-Skip needs a strongly convex problem; either
    failure is a ``ConfigError``.
    """
    spec = dict(config.schedule)
    kind = spec.pop("kind", None)
    cls = _SCHEDULES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    if cls not in _ALGORITHMS[config.algorithm][2]:
        raise ConfigError(f"algorithm {config.algorithm!r} cannot run a {kind!r} schedule")
    if config.algorithm == "ssqp-skip" and problem.strong_convexity <= 0:
        raise ConfigError("SSQP-Skip requires a strongly convex problem (mu > 0)")
    derived = {name: spec.pop(name) for name in cls.derived if name in spec}
    if cls is VarasSchedule:
        spec.setdefault("n", problem.n_components)
    try:
        schedule = cls(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad schedule parameters: {exc}") from exc
    for name, value in derived.items():
        computed = getattr(schedule, name)
        if value != computed:
            raise ConfigError(f"schedule key {name!r} is {value!r}, but the fields give {computed!r}")
    return schedule


# ---------------------------------------------------------------------------
# Orchestration


def resolve_output_dir(config: BenchConfig) -> Path:
    """Directory run_experiment writes to: SSQPBENCH_OUTPUT_DIR if set, else the config's."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    return Path(override) if override else Path(config.output_dir)


def _run_seed(run, problem: ConstrainedProblem, run_cfg: RunConfig, path: Path):
    """Run one seed and write its trace; returns its record and the typed error it ended with."""
    try:
        *_, trace, counters = run(problem, run_cfg)
        status, error = "ok", None
    except DivergenceError as exc:
        trace, counters, status, error = exc.trace, exc.counters, "diverged", exc
    except NonFiniteEvaluationError as exc:
        return ("non-finite", None, None), exc
    write_trace(path, trace)
    return (status, path.name, (counters.qmo_nonconverged, counters.sfo_calls, counters.qmo_calls)), error


def run_experiment(config: BenchConfig, output_dir: Optional[str | Path] = None) -> dict:
    """Execute all configured seeds; writes one trace CSV per seed plus metadata.

    Returns the metadata document.  The metadata's ``config`` key fed back to
    run_experiment reproduces the traces byte-for-byte.  Before the first seed
    runs, the configured seeds' old traces are deleted and ``metadata.json``
    is written with every seed ``pending``; it is replaced atomically after
    each seed, so it always records each seed's status.  A seed that diverges
    writes its partial trace (``diverged``) and a seed whose oracle evaluation
    is non-finite writes none (``non-finite``); the other seeds still run, and
    the first such error is re-raised at the end.  Any other exception marks
    its seed ``error`` and propagates at once.  ``qp_nonconverged`` maps each
    seed to its count of QMO answers that did not certify and
    ``sfo_calls``/``qmo_calls`` to its oracle counts at the end of its run;
    each is null for a seed that has none (``non-finite``, ``error`` or
    ``pending``).
    """
    problem, x0 = build_problem(config)
    schedule = build_schedule(config, problem)
    run_name, length_field, _ = _ALGORITHMS[config.algorithm]
    length = getattr(config, length_field)
    stride = config.checkpoint_stride or max(1, math.ceil(length / 500))
    reference = config.reference or {}
    x_star = np.asarray(reference["x_star"], dtype=float) if "x_star" in reference else None
    f_star = reference.get("f_star")
    if x_star is not None and len(x_star) != problem.dim:
        raise ConfigError(f"reference x_star has {len(x_star)} entries for a problem of dimension {problem.dim}")
    out = Path(output_dir) if output_dir is not None else resolve_output_dir(config)
    out.mkdir(parents=True, exist_ok=True)

    # seed -> (status, trace file, (qp_nonconverged, sfo_calls, qmo_calls)), None where it has none
    records = {seed: ("pending", None, None) for seed in config.seeds}
    meta = {
        "version": __version__,
        "config": config.to_dict(),
        "schedule_resolved": schedule.as_dict(),
        "checkpoint_stride_resolved": stride,
    }
    started = time.time()

    def write_manifest() -> None:
        meta["trace_files"] = {str(s): f for s, (_, f, _) in records.items() if f}
        meta["seed_status"] = {str(s): status for s, (status, _, _) in records.items()}
        for i, key in enumerate(("qp_nonconverged", "sfo_calls", "qmo_calls")):
            meta[key] = {str(s): None if c is None else c[i] for s, (_, _, c) in records.items()}
        meta["measured_seconds_informational"] = time.time() - started
        tmp = out / "metadata.json.tmp"
        tmp.write_text(json.dumps(meta) + "\n")
        os.replace(tmp, out / "metadata.json")

    paths = {seed: out / f"{config.algorithm}_seed{seed}.csv" for seed in config.seeds}
    for path in paths.values():
        path.unlink(missing_ok=True)
    write_manifest()
    first_error = None
    for seed in config.seeds:
        try:
            if length == 0:
                # degenerate metadata-only run: empty trace per seed
                write_trace(paths[seed], [])
                records[seed], error = ("ok", paths[seed].name, (0, 0, 0)), None
            else:
                run_cfg = RunConfig(
                    gamma=config.gamma,
                    schedule=schedule,
                    x0=x0.copy(),
                    batch_size=config.batch_size,
                    seed=seed,
                    checkpoint_stride=stride,
                    x_star=x_star,
                    f_star=f_star,
                    cost_model_m=config.cost_model_m,
                    **{length_field: length},
                )
                records[seed], error = _run_seed(globals()[run_name], problem, run_cfg, paths[seed])
        except BaseException:
            records[seed] = ("error", None, None)
            raise
        finally:
            write_manifest()
        first_error = first_error or error
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
    if metric not in _METRICS:
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


def slope_fit(rows: list[TraceRow], metric: str, mode: str = "loglog") -> tuple[float, float]:
    """Least-squares rate fit over the trace tail; returns (slope, r_squared).

    ``metric`` is one of the metrics calls_to_threshold accepts.  loglog fits
    log(metric) against log(iteration); loglinear fits log(metric) against
    the iteration index (geometric decay).  The fit window is the final
    decade: rows with iteration > max_iter / 10.
    """
    if metric not in _METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    pts = [(r.iteration, getattr(r, metric)) for r in rows if r.iteration > 0]
    top = max((it for it, _ in pts), default=0)
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
