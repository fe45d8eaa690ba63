"""The batched solvers (closed form in 1-D, sine-transform preconditioned CG in 3-D)
and the per-grid evaluator."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from miscpde import pde_solver
from miscpde.misc_core import IndexSet, MiscEvaluator, MixedIndex, downward_closure
from miscpde.pde_solver import (
    _BLOCK_ENTRIES,
    _sine_solve,
    DiscreteSolution,
    SolverError,
    qoi,
    solve,
    solve_qoi,
    solve_qoi_batch,
    unknowns,
)
from miscpde.quadrature import SparseLevelVector as SLV


def random_rows(rng, count, n_vars, density=1.0):
    rows = rng.uniform(-1.0, 1.0, (count, n_vars))
    rows[rng.uniform(size=rows.shape) > density] = 0.0
    return rows


@pytest.fixture(scope="session")
def sparse_solution(assembled_operator):
    def direct(alpha, y, field_spec):
        matrix = assembled_operator(alpha, y, field_spec)
        return spsolve(matrix.tocsc(), np.ones(matrix.shape[0]))
    return direct


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
    def test_qoi_matches_sparse_direct_solve(self, field1, qoi1, sparse_solution, level):
        rng = np.random.default_rng(10 + level)
        rows = random_rows(rng, 4, field1.max_modes)
        batch = solve_qoi_batch((level,), rows, field1, qoi1)
        for row, value in zip(rows, batch):
            y = {j + 1: float(v) for j, v in enumerate(row)}
            dense = sparse_solution((level,), y, field1)
            expected = qoi(DiscreteSolution((level,), dense), qoi1)
            assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_solution_matches_sparse_direct_solve(self, field1, sparse_solution, level):
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


class TestJacobiPCG:
    """The d > 1 batch: one preconditioned CG over the variable-coefficient rows."""

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 1, 3), (2, 2, 2)])
    def test_row_value_independent_of_batch(self, field3, qoi3, alpha):
        rng = np.random.default_rng(sum(alpha))
        rows = random_rows(rng, 9, field3.max_modes, density=0.5)
        rows[4] = 0.0
        whole = solve_qoi_batch(alpha, rows, field3, qoi3)
        split = np.concatenate([solve_qoi_batch(alpha, rows[:4], field3, qoi3),
                                solve_qoi_batch(alpha, rows[4:], field3, qoi3)])
        alone = np.array([solve_qoi_batch(alpha, row[None], field3, qoi3)[0] for row in rows])
        reversed_ = solve_qoi_batch(alpha, rows[::-1], field3, qoi3)[::-1]
        assert np.array_equal(whole, split)
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, reversed_)

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 1, 1), (2, 1, 3), (1, 1, 6)])
    def test_matches_sparse_direct_solve(self, field3, qoi3, sparse_solution, alpha):
        rows = random_rows(np.random.default_rng(30), 3, field3.max_modes)
        batch = solve_qoi_batch(alpha, rows, field3, qoi3)
        for row, value in zip(rows, batch):
            y = {j + 1: float(v) for j, v in enumerate(row)}
            values = solve(alpha, y, field3).values
            dense = sparse_solution(alpha, y, field3).reshape(values.shape)
            assert np.abs(values - dense).max() <= 1e-10 * np.abs(dense).max()
            expected = qoi(DiscreteSolution(alpha, dense), qoi3)
            assert abs(value - expected) <= 1e-10 * abs(expected)

    def test_zero_rows_take_the_constant_coefficient_value(self, field3, qoi3):
        rows = random_rows(np.random.default_rng(31), 5, 4)
        rows[[0, 3]] = 0.0
        batch = solve_qoi_batch((2, 1, 2), rows, field3, qoi3)
        anchor = solve_qoi((2, 1, 2), {}, field3, qoi3)
        assert batch[0] == anchor and batch[3] == anchor
        assert not np.any(np.delete(batch, [0, 3]) == anchor)

    def test_batch_beyond_one_block_matches_row_by_row(self, field3, qoi3):
        count = _BLOCK_ENTRIES // unknowns((1, 1, 1)) + 7
        rows = random_rows(np.random.default_rng(32), count, 3)
        batch = solve_qoi_batch((1, 1, 1), rows, field3, qoi3)
        alone = [solve_qoi_batch((1, 1, 1), row[None], field3, qoi3)[0] for row in rows]
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("y1", [1e3, -1e3, np.nan, np.inf])
    def test_non_finite_coefficient_raises_solver_error(self, field3, qoi3, y1):
        rows = np.array([[0.5, 0.1], [y1, 0.0]])
        with pytest.raises(SolverError):
            solve_qoi_batch((1, 1, 1), rows, field3, qoi3)
        with pytest.raises(SolverError):
            solve((1, 1, 1), {1: float(y1)}, field3)

    def test_exhausted_iterations_raise_solver_error(self, field3, qoi3, monkeypatch):
        monkeypatch.setattr(pde_solver, "CG_RTOL", -1.0)  # no row ever converges
        # Iterating past convergence ends in 0/0; NaN never passes the stopping rule.
        with pytest.raises(SolverError) as info, np.errstate(over="ignore", invalid="ignore"):
            solve_qoi_batch((1, 1, 1), np.array([[0.5, 0.1]]), field3, qoi3)
        assert "did not converge in 12500 iterations" in str(info.value)


class TestSineTransformPreconditioner:
    """z = S L^-1 (S r): the a == 1 sine-transform solve with diagonal scaling."""

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 1, 6), (1, 1, 10)])
    def test_iterations_per_row_do_not_grow_with_the_grid(self, field3, monkeypatch, alpha):
        # Counts the matvecs of the block-diagonal matrix, which every CG
        # iteration makes once, whatever its preconditioner.
        matvecs = 0
        assemble = pde_solver._block_diagonal

        class Counting:
            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, vector):
                nonlocal matvecs
                matvecs += 1
                return self.matrix @ vector

        monkeypatch.setattr(pde_solver, "_block_diagonal", lambda *args: Counting(assemble(*args)))
        rng = np.random.default_rng(40)
        for _ in range(3):
            matvecs = 0
            y = {j + 1: float(v) for j, v in enumerate(rng.uniform(-1.0, 1.0, field3.max_modes))}
            solve(alpha, y, field3)
            # One more matvec checks the backward error of the solution.
            assert matvecs - 1 <= 15

    @pytest.mark.parametrize("alpha", [(1, 1, 4), (3, 2, 1), (2, 2, 2)])
    def test_transform_row_independent_of_batch(self, alpha):
        rng = np.random.default_rng(sum(alpha))
        size = unknowns(alpha)
        for count in range(1, 10):
            r = rng.uniform(-1.0, 1.0, (count, size))
            r[count // 2] = 0.0
            whole = _sine_solve(alpha, r)
            alone = np.array([_sine_solve(alpha, row[None])[0] for row in r])
            reversed_ = _sine_solve(alpha, r[::-1])[::-1]
            assert np.array_equal(whole, alone)
            assert np.array_equal(whole, reversed_)
            assert not whole[count // 2].any()

    @pytest.mark.parametrize("alpha", [(1, 1, 4), (3, 2, 1), (2, 2, 2)])
    def test_solve_row_independent_of_batch(self, field3, qoi3, alpha):
        rng = np.random.default_rng(50 + sum(alpha))
        for count in range(1, 10):
            rows = random_rows(rng, count, field3.max_modes)
            rows[count // 2] = 0.0
            whole = solve_qoi_batch(alpha, rows, field3, qoi3)
            alone = np.array([solve_qoi_batch(alpha, row[None], field3, qoi3)[0] for row in rows])
            reversed_ = solve_qoi_batch(alpha, rows[::-1], field3, qoi3)[::-1]
            assert np.array_equal(whole, alone)
            assert np.array_equal(whole, reversed_)

    def test_transform_solves_the_constant_coefficient_operator(self, field3, assembled_operator):
        alpha = (2, 1, 3)
        r = np.random.default_rng(60).uniform(-1.0, 1.0, (2, unknowns(alpha)))
        matrix = assembled_operator(alpha, {}, field3)
        for row, solution in zip(r, _sine_solve(alpha, r)):
            assert np.abs(matrix @ solution - row).max() <= 1e-10 * np.abs(row).max()


class TestGridEvaluation:
    def test_3d_batch_matches_point_solves(self, field3, qoi3):
        rows = np.array([[0.0, 0.0], [0.4, -0.3]])
        batch = solve_qoi_batch((1, 1, 1), rows, field3, qoi3)
        assert batch[0] == solve_qoi((1, 1, 1), {}, field3, qoi3)
        assert batch[1] == solve_qoi((1, 1, 1), {1: 0.4, 2: -0.3}, field3, qoi3)

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
