"""The paper's 3-D example at seven budgets, an opt-in slow test.

Deselected by default; run it with ``pytest -m slow``.  It takes 8-11 s
on a shared 2-core host.
"""

import math

import pytest

from miscpde.cli import fit_driver, study_driver
from miscpde.pde_solver import QoISpec
from miscpde.random_field import FieldSpec

pytestmark = pytest.mark.slow


def test_seven_budget_3d_study_converges():
    field, qoi = FieldSpec(d=3, nu=4.5, max_modes=10), QoISpec(0.2, (0.3, 0.2, 0.6))
    model = fit_driver(field, qoi, n_modes=6, depth=2)
    result = study_driver(field, qoi, [2000.0 * 4**t for t in range(7)],
                          mode="apriori", error_model=model)
    errors = [r.abs_error for r in result.records]
    assert all(math.isfinite(r.estimate) for r in result.records)
    assert math.isfinite(result.reference)
    assert result.slope <= -0.5
    assert errors[-1] < errors[0]
    # Guards the sets against summation drift, as criterion 7 does in 1-D.
    assert result.evaluator.cache.misses == 28_444
    assert result.evaluator.solved_dof == 32_462_168
    print(f"\n3-D study: slope {result.slope:.4f}, errors {errors[0]:.3e} -> {errors[-1]:.3e}")
