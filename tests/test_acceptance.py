"""Acceptance suite: one test per shipped criterion, each printing a
pass line with its measured quantity.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they complete."""

import math

import numpy as np
import pytest

from miscpde import adaptation, quadrature, theory
from miscpde.adaptation import ErrorModel, fit_rates
from miscpde.cli import compare_driver, fit_driver, study_driver
from miscpde.misc_core import MiscEvaluator, MixedIndex, mimc_estimate
from miscpde.pde_solver import default_qoi_spec, solve_qoi
from miscpde.quadrature import SparseLevelVector, cc_points, cc_weights, level_to_nodes
from miscpde.random_field import FieldSpec

from test_misc_core import random_closed_set

SLV = SparseLevelVector


def report(number, label, detail):
    print(f"\n[criterion {number:2d}] PASS - {label}: {detail}")


@pytest.fixture(scope="module")
def field1():
    return FieldSpec(d=1, nu=2.5, max_modes=24)


@pytest.fixture(scope="module")
def qoi1():
    return default_qoi_spec(1)


@pytest.fixture(scope="module")
def fitted_model(field1, qoi1):
    return fit_driver(field1, qoi1, n_modes=16, depth=3)


def test_criterion_01_lebesgue_curve():
    values = {beta: quadrature.leb_delta(beta) for beta in range(1, 13)}
    peak = max(values, key=values.get)
    assert peak == 3
    assert abs(values[3] - 1.067) <= 0.01
    report(1, "Lebesgue curve", f"max at beta=3, value {values[3]:.6f}")


def test_criterion_02_quadrature_exactness_and_nesting():
    worst = 0.0
    for beta in range(1, 7):
        pts, wts = cc_points(beta), cc_weights(beta)
        for k in range(level_to_nodes(beta)):
            exact = 0.0 if k % 2 else 1.0 / (k + 1)
            worst = max(worst, abs(float(np.dot(wts, pts**k)) - exact))
    assert worst < 1e-12
    for beta in range(2, 9):
        assert cc_points(beta + 1)[::2].tolist() == cc_points(beta).tolist()
    assert 0.0 in cc_points(2).tolist()
    report(2, "quadrature exactness + nesting", f"worst moment error {worst:.2e}")


def test_criterion_03_estimator_consistency_suite(field1, qoi1):
    rng = np.random.default_rng(2718)
    evaluator = MiscEvaluator(field1, qoi1)
    worst_rel = 0.0
    for _ in range(50):
        iset = random_closed_set(rng, spatial_dim=1, n_vars=4, max_level=4, max_members=25)
        assert sum(iset.coefficients.values()) == 1
        surplus = evaluator.evaluate(iset, "surplus")
        combo = evaluator.evaluate(iset, "combination")
        rel = abs(surplus.value - combo.value) / max(1e-300, abs(surplus.value))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-10
        repeat = evaluator.evaluate(iset, "surplus")
        assert repeat.solves == 0
    report(3, "estimator consistency (50 sets)", f"worst form disagreement {worst_rel:.2e}")


def test_criterion_04_deterministic_spatial_order(field1, qoi1):
    reference = solve_qoi((9,), {}, field1, qoi1)
    errors = [abs(solve_qoi((a,), {}, field1, qoi1) - reference) for a in range(1, 6)]
    slope = -float(np.polyfit(range(1, 6), np.log2(errors), 1)[0])
    assert abs(slope - 2.0) <= 0.2
    report(4, "spatial order (d=1)", f"self-convergence slope {slope:.3f}")


def test_criterion_05_deterministic_combination_technique_3d():
    field3 = FieldSpec(d=3, nu=4.5, max_modes=4)
    budgets = [32_000 * 4**t for t in range(5)]
    study = study_driver(
        field3, default_qoi_spec(3), budgets,
        mode="deterministic", error_model=ErrorModel(r_fem=2.0, g_tilde=()),
    )
    assert abs(study.slope + 1.38) <= 0.25
    report(5, "combination technique (d=3)", f"fitted slope {study.slope:.3f}")


def test_criterion_06_rate_predictor():
    assert theory.r_misc_example(2.5, 1, 1.0, "theory") == 0.5
    assert theory.r_misc_example(4.5, 3, 1.0, "theory") == 0.0
    for nu in (2.0, 3.0, 4.5, 6.0):
        for d in (1, 3):
            rates = theory.predict_all_variants(nu, d, 1.0)
            ordered = [rates[v] if rates[v] is not None else 0.0
                       for v in ("theory", "square", "improved")]
            assert ordered[0] <= ordered[1] <= ordered[2]
    report(6, "rate predictor", "closed forms exact, variants ordered on the example grid")


def test_criterion_07_stochastic_convergence_1d(field1, qoi1, fitted_model):
    budgets = [80 * 4**t for t in range(8)]
    study = study_driver(field1, qoi1, budgets, mode="apriori", error_model=fitted_model)
    assert study.slope <= -0.5
    # Guards the sets against summation drift: a grid value that moves by
    # one rounding changes the fitted rates, and with them the exact
    # profit classes of the reference set.
    assert study.evaluator.cache.misses == 248_068
    assert abs(study.reference - 1.4091049104) <= 1e-10
    report(7, "stochastic convergence (d=1, nu=2.5)",
           f"slope {study.slope:.3f} <= -0.5 at work {study.records[-1].work}")


def test_criterion_08_ellipse_scale_solver():
    worst = 0.0
    for b0 in np.linspace(0.25, 4.0, 10):
        for fraction in np.geomspace(1e-4, 0.5, 10):
            delta = fraction * math.exp(-b0)
            root = theory.solve_E_delta(float(b0), float(delta))
            assert root > 2.0
            worst = max(worst, abs(theory.e_delta_equation(root, float(b0), float(delta))))
    assert worst < 1e-10
    report(8, "ellipse-scale solver", f"worst residual {worst:.2e} on the 100-point grid")


def test_criterion_09_rate_fit_oracle():
    truth = ErrorModel(r_fem=2.0, g_tilde=(0.45, 0.9, 1.7, 2.2), c_e=1.9)
    samples = []
    for j in range(1, 5):
        for t in range(1, 4):
            index = MixedIndex((1,), SLV({j: 1 + t}))
            samples.append((index, adaptation.error_contribution_model(index, truth)))
    fitted = fit_rates(samples, truth.r_fem)
    drift = max(abs(a - b) for a, b in zip(fitted.g_tilde, truth.g_tilde))
    drift = max(drift, abs(fitted.c_e - truth.c_e))
    assert drift < 1e-8
    incomplete = [s for s in samples if 3 not in s[0].beta.support]
    with pytest.raises(adaptation.RateFitError) as err:
        fit_rates(incomplete, truth.r_fem)
    assert 3 in err.value.unidentifiable
    report(9, "rate-fit oracle", f"synthetic recovery drift {drift:.2e}, rank deficiency flagged")


def test_criterion_10_mimc_baseline(field1, qoi1, fitted_model):
    # Degenerate zero-variance case telescopes exactly.
    levels = [(1,), (2,), (3,)]
    degenerate = mimc_estimate(levels, [3, 3, 3], field1, qoi1, 0, seed=9)
    evaluator = MiscEvaluator(field1, qoi1)
    telescoped = sum(evaluator.delta_det(a, SLV()) for a in levels)
    assert degenerate.value == telescoped
    assert degenerate.standard_error == 0.0

    # Fixed seeds reproduce bit-identically.
    a = mimc_estimate([(1,), (2,)], [60, 12], field1, qoi1, 6, seed=41)
    b = mimc_estimate([(1,), (2,)], [60, 12], field1, qoi1, 6, seed=41)
    assert a.value == b.value

    # At the largest shared budget the collocation estimator wins.
    budgets = [320 * 4**t for t in range(5)]
    comparison = compare_driver(field1, qoi1, budgets, fitted_model,
                                n_random_vars=12, seed=1234)
    final = comparison.rows[-1]
    misc_err, mimc_err = final[2], final[4]
    assert misc_err <= mimc_err
    report(10, "Monte Carlo baseline",
           f"exact telescoping, seeded reruns identical, final errors "
           f"misc {misc_err:.2e} <= mimc {mimc_err:.2e}")
