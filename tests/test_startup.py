"""Importing the package and any 1-D or 3-D run load numpy alone: no solve,
fit, study or rate prediction loads scipy.  A process that only calls the
fit and study drivers does not load the modules of the command line either."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import math
import sys

from miscpde import cli, pde_solver, theory
from miscpde.random_field import FieldSpec


def loaded_scipy():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


field, qoi = FieldSpec(1, 2.5, 6), pde_solver.default_qoi_spec(1)
model = cli.fit_driver(field, qoi, 3, 2, 2.0)
cli.study_driver(field, qoi, [20.0, 80.0], mode="apriori", error_model=model)
cli.study_driver(field, qoi, [20.0, 80.0], mode="deterministic")
after_1d = loaded_scipy()

field3, qoi3 = FieldSpec(3, 4.5, 4), pde_solver.default_qoi_spec(3)
values = [pde_solver.solve_qoi((1, 1, 1), y, field3, qoi3) for y in ({}, {1: 0.5})]
model3 = cli.fit_driver(field3, qoi3, 3, 2)
study3 = cli.study_driver(field3, qoi3, [2000.0, 8000.0], mode="apriori", error_model=model3)
root = theory.solve_E_delta(1.0, 0.01)
after_3d = loaded_scipy()
# Taken before compare_driver: numpy.random loads hashlib through secrets and hmac.
cli_modules = sorted({"hashlib", "_hashlib", "argparse", "csv"} & set(sys.modules))

cli.compare_driver(field, qoi, [20.0, 80.0], model, n_random_vars=3, seed=0)
after_compare = loaded_scipy()

# perfbench/tracer.py reaches scipy's CG through this module attribute.
import scipy.sparse.linalg

print(json.dumps({
    "after_1d": after_1d,
    "after_3d": after_3d,
    "after_compare": after_compare,
    "cli_modules": cli_modules,
    "finite_3d": all(math.isfinite(v) for v in values + [study3.reference, root]),
    "spla": pde_solver.spla is scipy.sparse.linalg,
}))
"""


def test_runs_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["after_1d"] == []
    # The d = 3 sine transforms are numpy matrix products and FFTs, and the
    # PCG applies its operator matrix-free.
    assert result["after_3d"] == []
    assert result["after_compare"] == []
    # The command line loads argparse, csv and hashlib in the functions
    # that use them, so a process running only the drivers holds none.
    assert result["cli_modules"] == []
    assert result["finite_3d"] is True
    assert result["spla"] is True
