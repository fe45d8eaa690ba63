"""The closed-form 1-D solve, its batching, and the per-grid evaluator built on it."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from miscpde.misc_core import IndexSet, MiscEvaluator, MixedIndex, downward_closure
from miscpde.pde_solver import (
    DiscreteSolution,
    SolverError,
    _assemble_sparse,
    _staggered_coefficients,
    qoi,
    solve,
    solve_qoi,
    solve_qoi_batch,
    unknowns,
)
from miscpde.quadrature import SparseLevelVector as SLV
from miscpde.random_field import mode_ordering


def random_rows(rng, count, n_vars, density=1.0):
    rows = rng.uniform(-1.0, 1.0, (count, n_vars))
    rows[rng.uniform(size=rows.shape) > density] = 0.0
    return rows


def sparse_solution(alpha, y, field_spec):
    a_stag = _staggered_coefficients(alpha, y, mode_ordering(field_spec))
    matrix, _ = _assemble_sparse(alpha, a_stag)
    return spsolve(matrix.tocsc(), np.ones(matrix.shape[0]))


class TestBatchInvariance:
    @pytest.mark.parametrize("level", [1, 4, 9])
    def test_row_value_independent_of_batch(self, field1, qoi1, level):
        rng = np.random.default_rng(level)
        rows = random_rows(rng, 53, field1.max_modes, density=0.6)
        whole = solve_qoi_batch((level,), rows, field1, qoi1)
        split = np.concatenate([solve_qoi_batch((level,), rows[:20], field1, qoi1),
                                solve_qoi_batch((level,), rows[20:], field1, qoi1)])
        alone = np.array([solve_qoi_batch((level,), row[None], field1, qoi1)[0] for row in rows])
        reversed_ = solve_qoi_batch((level,), rows[::-1], field1, qoi1)[::-1]
        assert np.array_equal(whole, split)
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, reversed_)

    def test_trailing_zero_columns_do_not_change_values(self, field1, qoi1):
        rows = random_rows(np.random.default_rng(3), 7, 3)
        padded = np.hstack([rows, np.zeros((7, field1.max_modes - 3))])
        assert np.array_equal(solve_qoi_batch((5,), rows, field1, qoi1),
                              solve_qoi_batch((5,), padded, field1, qoi1))

    def test_scalar_entry_point_matches_batch(self, field1, qoi1):
        rows = random_rows(np.random.default_rng(4), 5, 4, density=0.5)
        batch = solve_qoi_batch((3,), rows, field1, qoi1)
        for row, value in zip(rows, batch):
            y = {j + 1: float(v) for j, v in enumerate(row)}
            assert solve_qoi((3,), y, field1, qoi1) == value


class TestClosedForm:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_qoi_matches_sparse_direct_solve(self, field1, qoi1, level):
        rng = np.random.default_rng(10 + level)
        rows = random_rows(rng, 4, field1.max_modes)
        batch = solve_qoi_batch((level,), rows, field1, qoi1)
        for row, value in zip(rows, batch):
            y = {j + 1: float(v) for j, v in enumerate(row)}
            dense = sparse_solution((level,), y, field1)
            expected = qoi(DiscreteSolution((level,), dense), qoi1)
            assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_solution_matches_sparse_direct_solve(self, field1, level):
        rng = np.random.default_rng(20 + level)
        y = {j + 1: float(v) for j, v in enumerate(rng.uniform(-1, 1, field1.max_modes))}
        values = solve((level,), y, field1).values
        dense = sparse_solution((level,), y, field1)
        assert values.shape == dense.shape
        assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()


class TestGuards:
    @pytest.mark.parametrize("y1", [1e3, -1e3, np.nan, np.inf])
    def test_non_finite_coefficient_raises_solver_error(self, field1, qoi1, y1):
        rows = np.array([[0.5, 0.1], [y1, 0.0]])
        with pytest.raises(SolverError):
            solve_qoi_batch((3,), rows, field1, qoi1)
        with pytest.raises(SolverError):
            solve((3,), {1: float(y1)}, field1)

    def test_variables_beyond_the_modes_rejected(self, field1, qoi1):
        rows = np.zeros((2, field1.max_modes + 2))
        solve_qoi_batch((2,), rows, field1, qoi1)  # zero columns are harmless
        rows[1, -1] = 0.3
        with pytest.raises(IndexError):
            solve_qoi_batch((2,), rows, field1, qoi1)
        with pytest.raises(IndexError):
            solve_qoi((2,), {field1.max_modes + 1: 0.3}, field1, qoi1)

    def test_shape_and_dimension_checks(self, field1, field3, qoi1):
        with pytest.raises(ValueError):
            solve_qoi_batch((2,), np.zeros(3), field1, qoi1)
        with pytest.raises(ValueError):
            solve_qoi_batch((2, 2, 2), np.zeros((1, 3)), field3, qoi1)


class TestGridEvaluation:
    def test_3d_batch_matches_point_solves(self, field3, qoi3):
        rows = np.array([[0.0, 0.0], [0.4, -0.3]])
        batch = solve_qoi_batch((1, 1, 1), rows, field3, qoi3)
        assert batch[0] == solve_qoi((1, 1, 1), {}, field3, qoi3)
        assert batch[1] == solve_qoi((1, 1, 1), {1: 0.4, 2: -0.3}, field3, qoi3)

    def test_threaded_3d_grid_matches_serial(self, field3, qoi3):
        beta = SLV({1: 2, 2: 2})
        serial = MiscEvaluator(field3, qoi3).tensor_value((1, 1, 1), beta)
        threaded = MiscEvaluator(field3, qoi3, threads=2).tensor_value((1, 1, 1), beta)
        assert serial == threaded

    def test_solved_dof_counts_every_cached_point_once(self, field1, qoi1):
        ev = MiscEvaluator(field1, qoi1)
        for top in (MixedIndex((2,), SLV({1: 2, 2: 2})), MixedIndex((3,), SLV({1: 3}))):
            ev.evaluate(IndexSet(downward_closure({top})), "surplus")
        assert ev.solved_dof == sum(unknowns(alpha) for alpha, _ in ev.cache.values)
        assert ev.cache.misses == len(ev.cache.values)

    def test_evaluation_order_does_not_change_values(self, field1, qoi1):
        iset = IndexSet(downward_closure({MixedIndex((2,), SLV({1: 3, 2: 2}))}))
        fresh = MiscEvaluator(field1, qoi1).evaluate(iset).value
        warmed = MiscEvaluator(field1, qoi1)
        warmed.tensor_value((2,), SLV({2: 2}))
        warmed.tensor_value((1,), SLV({1: 3, 2: 2}))
        assert warmed.evaluate(iset).value == fresh
