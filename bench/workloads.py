"""The four benchmark workloads: instances, passes and output checks.

Every workload is closed-loop: one process, one thread, each call waiting for
the previous one.  A pass is a fixed amount of work derived from the workload
seed; the solver workloads run it through ``harness.run_experiment`` (the code
path behind ``ssqpbench run``) and ``qp-family`` through ``solve_canonical_qp``.

Why these four:
- ``reg-ssqp``: SSQP on the regression instance; QMO-bound warm path with a
  small pattern system (d=14, m=10).
- ``reg-skip``: SSQP-Skip plus the primal-dual baseline on the same instance;
  SFO- and loop-bound, and the bypass for any QMO change.
- ``usv-varas``: VARAS on the USV instance; QMO-bound with a large dense
  pattern system (d=76, m=39), and the only per-index component loop.
- ``qp-family``: cold solves of criterion 1's random QPs (Zero, Box and L1
  regularizers); the only workload that runs dual sweeps and box/L1 pattern
  refinement in bulk.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ssqpbench import harness, qp_subproblem
from ssqpbench.harness import BenchConfig
from ssqpbench.penalty import violation_report
from ssqpbench.problem_model import L1, BoxIndicator, Zero
from ssqpbench.problems import brute_force_optimum, make_usv_problem, path_from_decision
from ssqpbench.schedules import SkipSchedule

# Criterion 3/4 regression instance and criterion 8 USV instance.
REG_PROBLEM = {"kind": "regression", "seed": 11, "d": 14, "n": 450, "critical": 10, "tolerance": 1.3}
REG_GAMMA = 100.0
USV_PROBLEM = {"kind": "usv", "seed": 7, "n": 100, "horizon": 40}
USV_GAMMA = 1e6

# Pass sizes.  Solver cost varies by run seed (12% per SSQP seed at 300
# steps), so a pass runs many short seeds rather than one long one.  ``quick``
# is a smoke-test size whose checks skip the size-dependent ones (recorded
# values, thresholds).
SIZES = {
    "reg-ssqp": {"full": {"seeds": 8, "horizon": 300}, "quick": {"seeds": 1, "horizon": 60}},
    "reg-skip": {"full": {"seeds": 4, "horizon": 3000}, "quick": {"seeds": 1, "horizon": 2000}},
    "usv-varas": {"full": {"seeds": 1, "epochs": 18}, "quick": {"seeds": 1, "epochs": 6}},
    "qp-family": {"full": {"qps": 2000, "oracle": 100}, "quick": {"qps": 60, "oracle": 10}},
}

# dist_sq threshold of sfo_to_eps / qmo_to_eps, and the caps the final trace
# row of every SSQP / Skip run must meet.  The caps sit at about twice the
# worst value over 40 run seeds at the commit that added them (seven times for
# SSQP's violation); Skip's drift iterate is not kept feasible between QPs.
EPS = {"reg-ssqp": 0.1, "reg-skip": 0.01}
FINAL_DIST_CAP = {"reg-ssqp": 0.4, "reg-skip": 0.03}
FINAL_VIOL_CAP = {"reg-ssqp": 1e-2, "reg-skip": 0.5}
# Final dist_sq of the first run seed at the default and hold-out workload
# seeds, recorded at the commit that added this benchmark.  A later change may
# move them at rounding level only.
RECORDED_DIST_SQ = {
    ("reg-ssqp", 0): 0.05491736785805253,
    ("reg-ssqp", 7919): 0.02833893447089292,
    ("reg-skip", 0): 0.007276958856218017,
    ("reg-skip", 7919): 0.0056899226766414105,
}
RECORDED_RTOL = 1e-3
QP_KKT_TOL = 1e-9


def run_seeds(seed: int, count: int) -> list[int]:
    """Run seeds for one pass, drawn from the workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------------------
# Set-up: what a fresh interpreter does before the first pass


def build_instance(workload: str, seed: int, quick: bool) -> tuple[dict, dict]:
    """Build the instance and its reference; returns (instance doc, split seconds).

    The instance doc is JSON-serialisable so that a set-up probe process can
    hand it to the measuring process.
    """
    t0 = time.process_time()
    if workload == "qp-family":
        draws = qp_draws(seed, SIZES[workload]["quick" if quick else "full"]["qps"])
        t1 = time.process_time()
        return {"qps": len(draws)}, {"build_s": t1 - t0, "reference_s": 0.0}
    spec = REG_PROBLEM if workload.startswith("reg-") else USV_PROBLEM
    gamma = REG_GAMMA if workload.startswith("reg-") else USV_GAMMA
    config = BenchConfig.from_dict(
        {"problem": spec, "algorithm": "ssqp", "schedule": {}, "gamma": gamma, "seeds": [0]}
    )
    problem, x0 = harness.build_problem(config)
    t1 = time.process_time()
    doc = {"mu": problem.strong_convexity, "smoothness": problem.smoothness}
    if workload.startswith("reg-"):
        x_star, f_star = brute_force_optimum(problem, gamma, x0=x0, tol=1e-10)
        doc["reference"] = {"x_star": [float(v) for v in x_star], "f_star": float(f_star)}
    t2 = time.process_time()
    return doc, {"build_s": t1 - t0, "reference_s": t2 - t1}


def qp_draws(seed: int, count: int) -> list[qp_subproblem.CanonicalQp]:
    """Criterion 1's random canonical QPs: d <= 6, m <= 5, Zero/Box/L1 in thirds."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    out = []
    for _ in range(count):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(0, 6))
        kind = rng.integers(3)
        if kind == 0:
            reg = Zero()
        elif kind == 1:
            lo = rng.uniform(-2.0, 0.0, size=d)
            reg = BoxIndicator(lower=lo, upper=lo + rng.uniform(0.5, 3.0, size=d))
        else:
            reg = L1(weight=float(rng.uniform(0.0, 2.0)))
        out.append(
            qp_subproblem.CanonicalQp(
                rho=float(rng.uniform(0.2, 5.0)),
                anchor=rng.standard_normal(d),
                linear=rng.standard_normal(d),
                regularizer=reg,
                hinge_weight=float(rng.uniform(0.0, 10.0)),
                offsets=rng.standard_normal(m),
                slopes=rng.standard_normal((m, d)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Passes


@dataclass
class RunRecord:
    """Return value of one solver run, captured where harness calls it."""

    algorithm: str
    seed: int
    x: np.ndarray
    sfo: int
    qmo: int


@contextlib.contextmanager
def capture_runs(sink: list):
    """Record (final iterate, counters) of every run harness starts."""
    names = ("ssqp_run", "ssqp_skip_run", "varas_run", "primal_dual_run")
    originals = {n: harness.__dict__[n] for n in names}

    def make(name, fn):
        @functools.wraps(fn)
        def run(problem, config):
            out = fn(problem, config)
            counters = out[-1]
            sink.append(RunRecord(name, config.seed, out[0], counters.sfo_calls, counters.qmo_calls))
            return out

        return run

    try:
        for name, fn in originals.items():
            setattr(harness, name, make(name, fn))
        yield sink
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)


@dataclass
class PassOutput:
    """What one pass produced; ``ops`` is the number of operations it attempted."""

    ops: int
    errors: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # file name -> bytes
    qp_results: list = field(default_factory=list)
    qp_us: np.ndarray = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.traces):
            h.update(name.encode() + b"\0" + self.traces[name])
        for sol in filter(None, self.qp_results):
            h.update(np.asarray(sol.u, dtype=float).tobytes())
            h.update(np.float64(sol.objective).tobytes())
        return h.hexdigest()


class Workload:
    """One workload at one seed and size: the pass and the output checks."""

    def __init__(self, name: str, seed: int, quick: bool, instance: dict, out_dir: Path):
        self.name = name
        self.seed = seed
        self.quick = quick
        self.size = SIZES[name]["quick" if quick else "full"]
        self.instance = instance
        self.out_dir = out_dir
        self.configs = []
        self.qps = []
        if name == "qp-family":
            self.qps = qp_draws(seed, self.size["qps"])
        else:
            self.configs = [BenchConfig.from_dict(doc) for doc in self._config_docs()]

    def _config_docs(self) -> list[dict]:
        seeds = run_seeds(self.seed, self.size["seeds"])
        inst = self.instance
        if self.name == "usv-varas":
            return [
                {
                    "problem": USV_PROBLEM, "algorithm": "varas",
                    "schedule": {"kind": "varas", "mu": 0.0, "smoothness_gamma": 350.0},
                    "gamma": USV_GAMMA, "seeds": seeds,
                    "epochs": self.size["epochs"], "checkpoint_stride": 5,
                }
            ]
        common = {"problem": REG_PROBLEM, "gamma": REG_GAMMA, "seeds": seeds, "horizon": self.size["horizon"]}
        if self.name == "reg-ssqp":
            return [
                dict(
                    common, algorithm="ssqp", checkpoint_stride=10, reference=inst["reference"],
                    schedule={"kind": "ssqp_strongly_convex", "mu": inst["mu"], "smoothness": inst["smoothness"]},
                )
            ]
        # criterion 4 gives both runs x_star only, so the gap column stays nan
        ref = {"x_star": inst["reference"]["x_star"]}
        return [
            dict(
                common, algorithm="ssqp-skip", checkpoint_stride=200, reference=ref,
                schedule={"kind": "skip", "mu": inst["mu"], "smoothness": inst["smoothness"]},
            ),
            dict(
                common, algorithm="primal-dual", checkpoint_stride=200, reference=ref,
                schedule={"kind": "primal_dual", "eta_x": 0.005, "eta_lambda": 0.002},
            ),
        ]

    @property
    def ops_per_pass(self) -> int:
        return len(self.qps) if self.qps else sum(len(c.seeds) for c in self.configs)

    def run_pass(self) -> PassOutput:
        """One pass.  Only the work inside this call is timed."""
        if self.qps:
            return self._qp_pass()
        out = PassOutput(ops=self.ops_per_pass)
        with capture_runs(out.runs):
            for config in self.configs:
                try:
                    harness.run_experiment(config, output_dir=self.out_dir)
                except Exception as exc:  # counted as failed operations, never hidden
                    out.errors.append((len(config.seeds), f"{type(exc).__name__}: {exc}"))
        return out

    def _qp_pass(self) -> PassOutput:
        out = PassOutput(ops=len(self.qps))
        lat = np.empty(len(self.qps))
        perf = time.process_time  # CPU time: steal and preemption stay out of it
        results = out.qp_results
        for i, qp in enumerate(self.qps):
            t0 = perf()
            try:
                sol = qp_subproblem.solve_canonical_qp(qp)
            except Exception as exc:  # counted as a failed operation
                out.errors.append((1, f"QP {i}: {type(exc).__name__}: {exc}"))
                sol = None
            lat[i] = perf() - t0
            results.append(sol)
        out.qp_us = lat * 1e6
        return out

    def collect_traces(self, out: PassOutput) -> None:
        """Read the pass's trace files (outside the timed region)."""
        for config in self.configs:
            for seed in config.seeds:
                name = f"{config.algorithm}_seed{seed}.csv"
                out.traces[name] = (self.out_dir / name).read_bytes()

    # -- checks ------------------------------------------------------------

    def check(self, out: PassOutput) -> list[tuple[str, bool, int]]:
        """Output checks of one pass: (description, passed, operations affected)."""
        if self.qps:
            return self._check_qps(out)
        checks = [(f"no exception ({msg})", False, n) for n, msg in out.errors]
        if out.errors:
            return checks
        traces = {name: harness.read_trace(self.out_dir / name) for name in out.traces}
        by_alg = {}
        for rec in out.runs:
            by_alg.setdefault(rec.algorithm, []).append(rec)
        if self.name == "usv-varas":
            checks += self._check_usv(by_alg["varas_run"], traces)
        else:
            checks += self._check_reg(by_alg, traces)
        return checks

    def _check_reg(self, by_alg, traces) -> list:
        checks = []
        horizon = self.size["horizon"]
        seeds = self.configs[0].seeds
        main = "ssqp_run" if self.name == "reg-ssqp" else "ssqp_skip_run"
        main_file = "ssqp" if self.name == "reg-ssqp" else "ssqp-skip"
        expected_sfo = horizon if self.name == "reg-ssqp" else horizon + 1  # Skip draws one initial sample
        for rec in by_alg[main]:
            final = traces[f"{main_file}_seed{rec.seed}.csv"][-1]
            checks.append((f"{main} seed {rec.seed}: sfo {rec.sfo} == {expected_sfo}", rec.sfo == expected_sfo, 1))
            if self.name == "reg-ssqp":
                checks.append((f"ssqp seed {rec.seed}: qmo {rec.qmo} == {horizon}", rec.qmo == horizon, 1))
            if not self.quick:
                viol_cap, dist_cap = FINAL_VIOL_CAP[self.name], FINAL_DIST_CAP[self.name]
                checks.append(
                    (f"{main} seed {rec.seed}: final max_viol {final.max_viol:.3g} <= {viol_cap}",
                     final.max_viol <= viol_cap, 1)
                )
                checks.append(
                    (f"{main} seed {rec.seed}: final dist_sq {final.dist_sq:.4g} <= {dist_cap}",
                     final.dist_sq <= dist_cap, 1)
                )
        if not self.quick:
            key = (self.name, self.seed)
            first = traces[f"{main_file}_seed{seeds[0]}.csv"][-1].dist_sq
            if key in RECORDED_DIST_SQ:
                want = RECORDED_DIST_SQ[key]
                checks.append(
                    (f"final dist_sq {first!r} matches recorded {want!r} (rtol {RECORDED_RTOL})",
                     abs(first - want) <= RECORDED_RTOL * abs(want), 1)
                )
        if self.name == "reg-skip":
            checks += self._check_skip(by_alg, horizon, traces)
        return checks

    def _check_skip(self, by_alg, horizon, traces) -> list:
        checks = []
        if not self.quick:
            # A run that never reaches EPS counts its full length, so that one
            # lucky primal-dual dip cannot stand for the whole pass.
            eps = EPS[self.name]
            mean_sfo = {}
            for alg, prefix in (("ssqp_skip_run", "ssqp-skip"), ("primal_dual_run", "primal-dual")):
                rows = [traces[f"{prefix}_seed{rec.seed}.csv"] for rec in by_alg[alg]]
                mean_sfo[alg] = float(np.mean([next((r.sfo for r in t if r.dist_sq <= eps), t[-1].sfo) for t in rows]))
            skip_sfo, base_sfo = mean_sfo["ssqp_skip_run"], mean_sfo["primal_dual_run"]
            checks.append(
                (f"skip reaches dist_sq {eps} in {skip_sfo:.0f} SFO calls on average, primal-dual in {base_sfo:.0f}",
                 skip_sfo < base_sfo, sum(len(v) for v in by_alg.values()))
            )
        sched = SkipSchedule(mu=self.instance["mu"], smoothness=self.instance["smoothness"])
        ps = np.array([sched.parameters(t)[1] for t in range(horizon)])
        mean, sd = float(ps.sum()), float(np.sqrt((ps * (1 - ps)).sum()))
        band = math.sqrt(horizon + sched.omega)
        # Criterion 4's band bounds the expected QMO count; sum p_t sits about
        # 2% under its upper edge, so a single seed's count is compared with
        # the expectation instead, at 5 standard deviations.
        checks.append(
            (f"skip expected qmo {mean:.1f} in [{0.25 * band:.1f}, {4 * band:.1f}]",
             0.25 * band <= mean <= 4 * band, len(by_alg["ssqp_skip_run"]))
        )
        for rec in by_alg["ssqp_skip_run"]:
            checks.append(
                (f"skip seed {rec.seed}: qmo {rec.qmo} within 5 sd of {mean:.1f}", abs(rec.qmo - mean) <= 5 * sd, 1)
            )
        for rec in by_alg["primal_dual_run"]:
            checks.append((f"primal-dual seed {rec.seed}: sfo {rec.sfo} == {horizon}", rec.sfo == horizon, 1))
            checks.append((f"primal-dual seed {rec.seed}: qmo {rec.qmo} == 0", rec.qmo == 0, 1))
        return checks

    def _check_usv(self, runs, traces) -> list:
        checks = []
        config = self.configs[0]
        problem, x0 = harness.build_problem(config)
        schedule = harness.build_schedule(config, problem)
        inner = sum(schedule.epoch_length(s) for s in range(1, config.epochs + 1))
        straight = problem.objective_value(x0)
        spec = {k: v for k, v in USV_PROBLEM.items() if k != "kind"}
        _, usv = make_usv_problem(**spec)
        for rec in runs:
            want_sfo = config.epochs * problem.n_components + inner
            checks.append((f"varas seed {rec.seed}: sfo {rec.sfo} == {want_sfo}", rec.sfo == want_sfo, 1))
            checks.append((f"varas seed {rec.seed}: qmo {rec.qmo} == {inner}", rec.qmo == inner, 1))
            viol = violation_report(problem, rec.x).max_violation
            checks.append((f"varas seed {rec.seed}: max violation {viol:.2e} <= 1e-3", viol <= 1e-3, 1))
            path = path_from_decision(usv, rec.x)
            exact = bool(np.array_equal(path[0], usv.p_start) and np.array_equal(path[-1], usv.p_dest))
            checks.append((f"varas seed {rec.seed}: endpoints exact", exact, 1))
            if not self.quick:
                ratio = problem.objective_value(rec.x) / straight
                checks.append((f"varas seed {rec.seed}: energy ratio {ratio:.4f} <= 0.5", ratio <= 0.5, 1))
        return checks

    def _check_qps(self, out: PassOutput) -> list:
        bad = [
            i for i, sol in enumerate(out.qp_results)
            if sol is not None and not (sol.converged and sol.kkt_residual <= QP_KKT_TOL)
        ]
        checks = [(f"no exception ({msg})", False, n) for n, msg in out.errors]
        checks.append((f"{len(bad)} QPs non-converged or kkt > {QP_KKT_TOL:g}", not bad, len(bad)))
        return checks

    def check_oracle(self, out: PassOutput) -> tuple[list, float]:
        """Compare the first QPs with dense_oracle_qp; untimed.  Returns (checks, seconds)."""
        count = min(self.size["oracle"], len(self.qps))
        t0 = time.process_time()
        worse = []
        for i in range(count):
            sol = out.qp_results[i]
            ref = qp_subproblem.dense_oracle_qp(self.qps[i])
            if sol is None or np.max(np.abs(sol.u - ref.u), initial=0.0) > 1e-6 or abs(sol.objective - ref.objective) > 1e-8:
                worse.append(i)
        elapsed = time.process_time() - t0
        return [(f"{count - len(worse)}/{count} QPs agree with dense_oracle_qp", not worse, len(worse))], elapsed

    # -- end-to-end numbers from the written traces -------------------------

    def to_eps(self) -> dict:
        """harness.calls_to_threshold on the last pass's SSQP or Skip traces (reg-* only)."""
        if self.name not in EPS:
            return {}
        config = self.configs[0]
        rows = [harness.read_trace(self.out_dir / f"{config.algorithm}_seed{s}.csv") for s in config.seeds]
        return harness.calls_to_threshold(rows, "dist_sq", EPS[self.name])
