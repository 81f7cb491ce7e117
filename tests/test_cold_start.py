"""Import footprint: SciPy's optimizer loads only when a regression instance
whose critical rows cannot be interpolated is built, and ``fractions`` only
when the exact QP oracle runs.

The checks run in a fresh interpreter, because other test modules import
SciPy and ``fractions`` themselves.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
out = Path(sys.argv[2])

import ssqpbench
from ssqpbench import BenchConfig, run_experiment
from ssqpbench.cli import main

OPT = "scipy.optimize"


def require(ok, what):
    if not ok:
        raise SystemExit(f"failed: {what}")


require(OPT not in sys.modules, "import ssqpbench leaves scipy.optimize unloaded")

usv = BenchConfig.from_dict({
    "problem": {"kind": "usv", "seed": 7, "n": 4, "horizon": 6},
    "algorithm": "varas",
    "schedule": {"kind": "varas", "mu": 0.0, "smoothness_gamma": 350.0},
    "gamma": 50.0, "seeds": [0], "epochs": 2, "checkpoint_stride": 1,
})
run_experiment(usv, output_dir=out / "usv")
# the quadratic config gets its reference from the CLI, so its traces carry gap and dist_sq
config = out / "quadratic.json"
config.write_text(json.dumps({
    "problem": {"kind": "quadratic", "seed": 3, "dim": 3, "n": 8, "m": 2},
    "algorithm": "ssqp",
    "schedule": {"kind": "tuned_constant", "eta": 0.05},
    "gamma": 20.0, "seeds": [0], "horizon": 60, "checkpoint_stride": 2,
}))
require(main(["reference", str(config), "--update"]) == 0, "reference exit code")
run_experiment(BenchConfig.from_dict(json.loads(config.read_text())), output_dir=out / "quadratic")
require(OPT not in sys.modules, "USV VARAS and quadratic SSQP runs leave it unloaded")

require(main(["report", str(out / "quadratic"), "--threshold", "1e9"]) == 0, "report exit code")
require(main(["slope", str(out / "quadratic" / "ssqp_seed0.csv"), "--metric", "dist_sq"]) == 0, "slope exit code")
require(OPT not in sys.modules, "report and slope leave it unloaded")

from ssqpbench.problems import generate_regression_problem

# the shipped instance: 10 independent critical rows in d = 14 are interpolated
generate_regression_problem(seed=11, d=14, n=450, critical=10, tolerance=1.3)
require(OPT not in sys.modules, "a build whose critical rows have full row rank leaves it unloaded")

generate_regression_problem(seed=4, d=3, n=20, critical=4, tolerance=5.0)
require(OPT in sys.modules, "a regression build loads it for its feasibility LP")
print("footprint ok")
"""


def test_scipy_optimize_loads_only_for_a_regression_build(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "footprint ok"


FRACTIONS_SCRIPT = r"""
import sys

sys.path.insert(0, sys.argv[1])
import ssqpbench

assert "fractions" not in sys.modules, "import ssqpbench loads fractions"
qp = ssqpbench.CanonicalQp(rho=1.0, anchor=[0.0], linear=[0.0], regularizer=ssqpbench.Zero(),
                           hinge_weight=10.0, offsets=[1.0], slopes=[[-1.0]])
assert ssqpbench.dense_oracle_qp(qp).u.tolist() == [1.0]
assert "fractions" in sys.modules, "the exact oracle imports it"
print("fractions ok")
"""


def test_fractions_loads_only_for_the_exact_oracle():
    done = subprocess.run([sys.executable, "-c", FRACTIONS_SCRIPT, str(SRC)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "fractions ok"
