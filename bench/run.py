"""Outside-in benchmark of ssqpbench.

    python3 bench/run.py --workload reg-ssqp --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another
    python3 bench/run.py --quick                   # tiny sizes, asserts every metric is reported

Workloads (see ``workloads.py`` for why each exists): ``reg-ssqp``,
``reg-skip``, ``usv-varas``, ``qp-family``.  A run sets up the workload
several times in fresh interpreters, runs one warm-up pass whose outputs are
checked, then repeats the pass for ``--seconds`` seconds:

- ``--trace 0``: untraced passes only; prints the end-to-end metrics.  The
  gated time is ``run_rel``: the median CPU time of a pass divided by the
  median CPU time of a fixed NumPy loop (``calibrate``) run after every pass,
  which cancels most of the slowdown other tenants of a shared machine cause.  ``run_s`` (CPU seconds)
  and ``run_wall_s`` are reported beside it.
- ``--trace 1``: untraced and traced passes alternate; prints the per-layer
  metrics from the spans, the tracing overhead (traced minus untraced median)
  and self-checks that the per-layer self seconds add up to the traced pass
  time and that traced passes write byte-identical traces.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable report (environment, metrics with units, checks, trace fingerprint).
Everything is also written to ``.bench_out/<workload>/result-trace<k>.json``.

The workload seed draws the run seeds and the QP inputs; the package only sees
the generated inputs.  Seed 0 is the default for baselines; seed 7919 is kept
for checking a claim on data not used while writing it.  Numbers are only
comparable between runs with the same environment record.  Times are CPU
seconds (``time.process_time``) unless named ``wall``; spans are wall time.
"""

import os

# BLAS and OpenMP must be pinned before NumPy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("reg-ssqp", "reg-skip", "usv-varas", "qp-family")
DEFAULT_SEED = 0
SETUP_PROBES = 5
MIN_PASSES = 3

# Metrics in the final JSON line: (name, unit).  The per-layer list carries
# self time as a share of the traced pass for every layer that some workload
# never enters, so that no layer reports a constant zero time; the report
# above the JSON line gives the same layers in seconds.
END_TO_END = (("run_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("qp_subproblem.calls", "count"),
    ("qp_subproblem.self_s", "s"),
    ("qp_subproblem.self_share", "ratio"),
    ("qp_subproblem.us_p50", "us"),
    ("qp_subproblem.us_p99", "us"),
    ("qp_subproblem.warm_hit_ratio", "ratio"),
    ("qp_subproblem.sweeps_mean", "count"),
    ("qp_subproblem.dense_fallbacks", "count"),
    ("qp_subproblem.nonconverged", "count"),
    ("qp_subproblem.max_kkt", "residual"),
    ("problem_model.sfo_units", "count"),
    ("problem_model.sfo_query.calls", "count"),
    ("problem_model.sfo_query.self_share", "ratio"),
    ("problem_model.constraint_eval.calls", "count"),
    ("problem_model.constraint_eval.self_share", "ratio"),
    ("problem_model.component_eval.calls", "count"),
    ("problem_model.component_eval.self_share", "ratio"),
    ("problem_model.full_gradient.self_share", "ratio"),
    ("problem_model.constraint_use_ratio", "ratio"),
    ("algorithms.loop_self_share", "ratio"),
    ("algorithms.step_self_share", "ratio"),
    ("baselines.self_share", "ratio"),
    ("schedules.calls", "count"),
    ("schedules.self_share", "ratio"),
    ("penalty.calls", "count"),
    ("penalty.self_share", "ratio"),
    ("problems.self_share", "ratio"),
    ("harness.self_share", "ratio"),
    ("harness.write_share", "ratio"),
    ("harness.trace_bytes", "B"),
    ("setup.import_s", "s"),
    ("setup.instance_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.spans", "count"),
)
# Layer groups: report name -> span names (see tracer._TARGETS).
LAYERS = {
    "qp_subproblem.self_s": ("qp_subproblem.solve", "qp_subproblem.dense_oracle"),
    "problem_model.sfo_query.self_s": ("problem_model.sfo_query",),
    "problem_model.constraint_eval.self_s": ("problem_model.constraint_eval",),
    "problem_model.component_eval.self_s": ("problem_model.component_eval",),
    "problem_model.full_gradient.self_s": ("problem_model.full_gradient",),
    "algorithms.loop_self_s": ("algorithms.loop",),
    "algorithms.step_self_s": ("algorithms.step",),
    "baselines.self_s": ("baselines.loop", "baselines.step"),
    "schedules.self_s": ("schedules",),
    "penalty.self_s": ("penalty.objective", "penalty.violation"),
    "problems.self_s": ("problems.build",),
    "harness.self_s": ("harness.run_experiment",),
    "harness.write_s": ("harness.write",),
    "bench.self_s": ("bench.pass",),
}
# Report-only metrics (not in the JSON line), by workload family.
REPORT_UNITS = {
    "failed_ratio": "ratio",
    "run_s": "s",
    "run_wall_s": "s",
    "calib_s": "s",
    "sfo_to_eps": "calls",
    "qmo_to_eps": "calls",
    "qp_us_p50": "us",
    "qp_us_p99": "us",
    "problems.build_s": "s",
    "problems.reference_s": "s",
    "qp_subproblem.oracle_s": "s",
}


def _share_name(layer: str) -> str:
    return layer.replace("self_s", "self_share").replace("write_s", "write_share")


def environment() -> dict:
    """What must match before two results may be compared."""
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "ssqpbench").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def probe_setup(workload: str, seed: int, quick: bool, count: int) -> list[dict]:
    """Run the set-up probe ``count`` times, each in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)] + (["--quick"] if quick else [])
    probes = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def calibrate() -> float:
    """CPU seconds of a fixed NumPy loop that no change to the package touches.

    Other tenants of a shared machine slow this process by up to 2x for tens
    of seconds at a time, in CPU time as well as wall time.  The median pass
    divided by the median loop, both taken in the same run, cancels much of
    that: over ten runs per workload on a 2-vCPU shared VM its spread
    (IQR/median) was 0.04-0.15, against 0.07-0.16 for the CPU seconds alone.
    """
    a = np.linspace(-1.0, 1.0, 140).reshape(10, 14)
    x = np.zeros(14)
    c0 = time.process_time()
    for _ in range(8000):
        y = a @ x + 0.1
        x = np.clip(x - 0.01 * (a.T @ np.maximum(y, 0.0)), -1.0, 1.0)
        float(np.linalg.norm(x))
    return time.process_time() - c0


def layer_metrics(summary: dict, pass_s: float) -> dict:
    """Per-layer numbers of one traced pass."""
    self_s, calls = summary["self_s"], summary["calls"]
    out = {}
    for layer, spans in LAYERS.items():
        out[layer] = sum(self_s[s] for s in spans)
        out[_share_name(layer)] = out[layer] / pass_s
    qp_us, sweeps = summary["qp_us"], summary["qp_sweeps"]
    n_qp = len(qp_us)
    out.update({
        "qp_subproblem.calls": n_qp,
        "qp_subproblem.us_p50": float(np.median(qp_us)) if n_qp else 0.0,
        "qp_subproblem.us_p99": float(np.quantile(qp_us, 0.99)) if n_qp else 0.0,
        "qp_subproblem.warm_hit_ratio": float(np.mean(sweeps == 0)) if n_qp else 0.0,
        "qp_subproblem.sweeps_mean": float(np.mean(sweeps)) if n_qp else 0.0,
        "qp_subproblem.dense_fallbacks": summary["dense_fallbacks"],
        "qp_subproblem.nonconverged": summary["qp_nonconverged"],
        "qp_subproblem.max_kkt": summary["qp_max_kkt"],
        "problem_model.sfo_query.calls": calls["problem_model.sfo_query"],
        "problem_model.constraint_eval.calls": calls["problem_model.constraint_eval"],
        "problem_model.component_eval.calls": calls["problem_model.component_eval"],
        "schedules.calls": calls["schedules"],
        "penalty.calls": calls["penalty.objective"] + calls["penalty.violation"],
        "baselines.calls": calls["baselines.loop"] + calls["baselines.step"],
        "trace.spans": summary["spans"],
        "trace.self_sum_ratio": sum(self_s.values()) / pass_s,
    })
    bundles = calls["problem_model.constraint_eval"]
    out["problem_model.constraint_use_ratio"] = n_qp / bundles if bundles else 0.0
    return out


class Measurement:
    """Passes of one workload run and their accounting.

    The warm-up pass is checked in full; every later pass must write the same
    bytes, so it fails the same operations, or all of them if it differs.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failed_per_pass = 0
        self.reference_digest = None
        self.mismatched = 0

    def settle_warm_up(self, warm, checks) -> None:
        self.failed_per_pass = min(warm.ops, sum(n for _, ok, n in checks if not ok))
        self.reference_digest = None if warm.errors else warm.digest()
        self.attempted += warm.ops
        self.failed += self.failed_per_pass

    def timed_pass(self, tracer=None):
        """One pass; returns (output, CPU seconds, wall seconds, same bytes as warm-up)."""
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is None:
            out = self.wl.run_pass()
        else:
            with tracer.installed(), tracer.root():
                out = self.wl.run_pass()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.wl.collect_traces(out)
        same = out.digest() == self.reference_digest
        self.mismatched += not same
        self.attempted += out.ops
        self.failed += self.failed_per_pass if same else out.ops
        return out, cpu, wall, same


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    import tracer as tracing
    import workloads

    probes = probe_setup(name, seed, quick, 1 if quick else SETUP_PROBES)
    out_dir = ROOT / ".bench_out" / name
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.Workload(name, seed, quick, probes[-1]["instance"], out_dir)

    warm = wl.run_pass()
    wl.collect_traces(warm)
    checks = wl.check(warm)
    report = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "problems.build_s": statistics.median(p["build_s"] for p in probes),
        "problems.reference_s": statistics.median(p["reference_s"] for p in probes),
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
    }
    report["setup.instance_s"] = report["problems.build_s"] + report["problems.reference_s"]
    hit = {} if warm.errors else wl.to_eps()
    if hit:
        report["sfo_to_eps"] = hit.get("mean_sfo", float("nan"))
        report["qmo_to_eps"] = hit.get("mean_qmo", float("nan"))
    if name == "qp-family":
        oracle_checks, report["qp_subproblem.oracle_s"] = wl.check_oracle(warm)
        checks += oracle_checks
    meas = Measurement(wl)
    meas.settle_warm_up(warm, checks)

    untraced, untraced_wall, traced, layer_runs, qp_lat = [], [], [], [], []
    tracer = None
    calib = [calibrate()]
    deadline = time.perf_counter() + seconds
    while True:
        out, cpu, wall, _ = meas.timed_pass()
        calib.append(calibrate())
        untraced.append(cpu)
        untraced_wall.append(wall)
        if out.qp_us is not None:
            qp_lat.append(out.qp_us)
        if trace:
            tracer = tracing.Tracer()
            _, cpu, wall, same = meas.timed_pass(tracer)
            traced.append(cpu)
            layer_runs.append(layer_metrics(tracer.summary(), wall))
            if not same:
                checks.append(("traced pass writes byte-identical traces", False, 0))
        if time.perf_counter() >= deadline and len(untraced) >= (2 if quick else MIN_PASSES):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report.update({
        "run_s": statistics.median(untraced),
        "run_s.samples": len(untraced),
        "run_wall_s": statistics.median(untraced_wall),
        "run_rel": statistics.median(untraced) / statistics.median(calib),
        "calib_s": statistics.median(calib),
        "peak_rss_mb": peak_rss_mb,
    })
    if qp_lat:
        per_qp = np.median(np.vstack(qp_lat), axis=0)
        report["qp_us_p50"] = float(np.median(per_qp))
        report["qp_us_p99"] = float(np.quantile(per_qp, 0.99))
        report["qp_us.samples"] = len(per_qp)
    if trace:
        for key in layer_runs[0]:
            report[key] = statistics.median(r[key] for r in layer_runs)
        report["trace.run_s"] = statistics.median(traced)
        report["trace.overhead_s"] = report["trace.run_s"] - report["run_s"]
        report["trace.samples"] = len(traced)
        ratio = report["trace.self_sum_ratio"]
        checks.append((f"per-layer self seconds sum to {ratio:.4f} of the traced pass (within 5%)",
                            abs(ratio - 1.0) <= 0.05, 0))
        np.savez(out_dir / "spans.npz", **tracer.arrays())
    report["problem_model.sfo_units"] = sum(r.sfo for r in warm.runs)
    report["harness.trace_bytes"] = sum(len(b) for b in warm.traces.values())
    if meas.mismatched:
        checks.append((f"{meas.mismatched} passes wrote traces that differ from the warm-up pass", False, 0))
    report["failed_ratio"] = meas.failed / meas.attempted

    fingerprint = {"sha256": meas.reference_digest}
    if warm.traces:
        fingerprint["final_rows"] = {
            n: warm.traces[n].decode().strip().splitlines()[-1] for n in sorted(warm.traces)[:2]
        }
    elif warm.qp_results and warm.qp_results[-1] is not None:
        last = warm.qp_results[-1]
        fingerprint["final_rows"] = {"last_qp": f"objective={last.objective!r} sweeps={last.sweeps}"}

    correct = all(ok for _, ok, _ in checks)
    listed = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {n: {"value": report[n], "unit": u} for n, u in listed},
    }
    return {"workload": name, "seed": seed, "trace": int(trace), "quick": quick, "result": result,
            "report": report, "checks": checks, "fingerprint": fingerprint}


def unit_of(key: str) -> str:
    units = dict(END_TO_END + PER_LAYER)
    units.update(REPORT_UNITS)
    if key in units:
        return units[key]
    if key.endswith("_share"):
        return "ratio"
    return "s" if key.endswith("_s") else "count"


def print_report(run: dict, env: dict) -> None:
    rep = run["report"]
    head = f"[{run['workload']} seed={run['seed']} trace={run['trace']}{' quick' if run['quick'] else ''}]"
    print(f"{head} env: " + json.dumps(env, sort_keys=True))
    for key in sorted(rep):
        if key.endswith(".samples"):
            continue
        value = rep[key]
        extra = ""
        if key in ("run_s", "run_wall_s", "run_rel"):
            extra = f"  (median of {rep['run_s.samples']} passes)"
        elif key.startswith("qp_us"):
            extra = f"  (per-QP median over passes, {rep['qp_us.samples']} QPs)"
        elif key == "trace.run_s":
            extra = f"  (median of {rep['trace.samples']} traced passes)"
        print(f"{head} {key} = {value:.6g} {unit_of(key)}{extra}")
    for text, ok, _ in run["checks"]:
        print(f"{head} check {'PASS' if ok else 'FAIL'}: {text}")
    print(f"{head} trace sha256 = {run['fingerprint']['sha256']}")
    for fname, row in run["fingerprint"].get("final_rows", {}).items():
        print(f"{head} final row {fname}: {row}")


def required_metrics(trace: bool, workload: str) -> dict:
    """Every metric the report and JSON line must carry, with its unit."""
    need = dict(PER_LAYER if trace else END_TO_END)
    need.update({"failed_ratio": "ratio", "run_s": "s"})
    if trace:
        need.update({layer: "s" for layer in LAYERS})
        need.update({"problems.build_s": "s", "problems.reference_s": "s"})
    if workload.startswith("reg-"):
        need.update({"sfo_to_eps": "calls", "qmo_to_eps": "calls"})
    if workload == "qp-family":
        need.update({"qp_us_p50": "us", "qp_us_p99": "us", "qp_subproblem.oracle_s": "s"})
    return need


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, traced and untraced, asserting every metric is reported")
    args = parser.parse_args(argv)

    if not (SRC / "ssqpbench" / "__init__.py").is_file():
        print(f"ssqpbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.quick else (bool(args.trace),)
    seconds = min(args.seconds, 1.0) if args.quick else args.seconds
    runs, missing = [], []
    for name in names:
        for trace in modes:
            run = run_workload(name, args.seed, seconds, trace, args.quick)
            print_report(run, env)
            out_file = ROOT / ".bench_out" / name / f"result-trace{int(trace)}.json"
            out_file.write_text(json.dumps(dict(run, env=env), indent=1, default=str) + "\n")
            print(json.dumps(run["result"]))
            runs.append(run)
            for key, unit in required_metrics(trace, name).items():
                have = run["result"]["metrics"].get(key, {}).get("unit") or (unit_of(key) if key in run["report"] else None)
                if have != unit:
                    missing.append(f"{name} trace={int(trace)}: {key} [{unit}] missing or unit {have}")
    if args.quick:
        for line in missing:
            print(f"quick: {line}", file=sys.stderr)
        return 1 if missing or not all(r["result"]["correct"] for r in runs) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
