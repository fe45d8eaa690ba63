"""Correctness gate: every repetition's driver outputs against stored golden values.

The golden values in ``golden.json`` were recorded from the drivers'
return values, not from ``runs.csv``.  Estimates must agree to 1e-10
relative, the estimator form-consistency tolerance; work and set sizes
must agree exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

REL_TOL = 1e-10

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Criterion 7's convergence requirement on the fitted log-log slope.
SLOPE_AT_MOST = {"study-1d": -0.5}


def workload_names() -> list[str]:
    return sorted(json.loads(GOLDEN_PATH.read_text()))


def load_golden(workload: str, size: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[workload][size]


def golden_from(outputs: dict) -> dict:
    """The seed-independent part of a repetition's outputs, as stored in golden.json."""
    keys = ("budgets", "work", "estimates", "set_sizes", "reference",
            "misc_work", "misc_err", "mimc_work")
    return {k: outputs[k] for k in keys if k in outputs}


def _close(value: float, expected: float, scale: float) -> bool:
    return abs(value - expected) <= REL_TOL * scale


def check(workload: str, outputs: dict, golden: dict) -> list[str]:
    """Problems found in one repetition's outputs; empty when it passes."""
    problems = []
    for key, expected in golden.items():
        if key not in outputs:
            problems.append(f"{key}: missing")
            continue
        value = outputs[key]
        if key == "reference":
            ok = _close(value, expected, abs(expected))
        elif key == "estimates":
            ok = len(value) == len(expected) and all(
                _close(v, e, abs(e)) for v, e in zip(value, expected))
        elif key == "misc_err":
            # |estimate - reference| inherits the tolerance of both terms.
            ok = len(value) == len(expected) and all(
                _close(v, e, 2.0 * abs(golden["reference"])) for v, e in zip(value, expected))
        else:
            ok = value == expected
        if not ok:
            problems.append(f"{key}: got {value}, golden {expected}")
    if workload in SLOPE_AT_MOST and not outputs["slope"] <= SLOPE_AT_MOST[workload]:
        problems.append(f"slope {outputs['slope']} above {SLOPE_AT_MOST[workload]}")
    if "mimc_err" in outputs:
        if not outputs["misc_err"][-1] <= outputs["mimc_err"][-1]:
            problems.append(f"final budget: misc error {outputs['misc_err'][-1]} "
                            f"above mimc error {outputs['mimc_err'][-1]}")
        recheck = outputs["mimc_recheck"]
        if recheck != outputs["mimc_err"][: len(recheck)]:
            problems.append(f"mimc errors {outputs['mimc_err']} not reproduced "
                            f"by direct estimates {recheck}")
    return problems
