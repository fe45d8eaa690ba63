"""The batched solvers (closed form in 1-D, sine-transform preconditioned CG in 3-D)
and the evaluator's batches per spatial level."""

import itertools
import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from miscpde import misc_core, pde_solver
from miscpde.misc_core import IndexSet, MiscEvaluator, MixedIndex, corners
from miscpde.pde_solver import (
    _BLOCK_ENTRIES,
    _apply,
    _operator,
    _sine_solve,
    _solve_pcg,
    SolverError,
    solve_qoi,
    solve_qoi_batch,
    unknowns,
)
from miscpde.quadrature import SparseLevelVector as SLV
from miscpde.quadrature import cc_points, cc_weights, new_node_count
from miscpde.random_field import mode_ordering
from test_misc_core import downward_closure

from test_misc_core import random_closed_set


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
    def test_qoi_matches_sparse_direct_solve(self, field1, qoi1, sparse_solution, window_average,
                                             level):
        rng = np.random.default_rng(10 + level)
        rows = random_rows(rng, 4, field1.max_modes)
        batch = solve_qoi_batch((level,), rows, field1, qoi1)
        for row, value in zip(rows, batch):
            y = {j + 1: float(v) for j, v in enumerate(row)}
            dense = sparse_solution((level,), y, field1)
            expected = window_average((level,), dense, qoi1)
            assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_solution_matches_sparse_direct_solve(self, field1, sparse_solution, field_1d, level):
        row = np.random.default_rng(20 + level).uniform(-1, 1, field1.max_modes)
        y = {j + 1: float(v) for j, v in enumerate(row)}
        values = field_1d(level, row, field1)
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
            solve_qoi((3,), {1: float(y1)}, field1, qoi1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_error_names_the_row_within_the_batch(self, field1, qoi1, field3, qoi3, d):
        field_spec, qoi_spec, alpha = (field1, qoi1, (6,)) if d == 1 else (field3, qoi3, (1, 1, 1))
        rows = random_rows(np.random.default_rng(5), 200, 2)
        rows[:10] = 0.0
        rows[150] = [1e3, 0.0]
        # Row 150 lies past the first block: 42 rows of 192 midpoints in 1-D,
        # and in 3-D, where the zero rows leave the PCG blocks, 65 rows.
        assert 140 >= _BLOCK_ENTRIES // (unknowns(alpha) + (d == 1))
        with pytest.raises(SolverError) as info:
            solve_qoi_batch(alpha, rows, field_spec, qoi_spec)
        assert info.value.row == 150
        assert "(row 150)" in str(info.value) and "np.float64" not in str(info.value)

    def test_backward_error_failure_names_the_row(self, field3, qoi3, monkeypatch):
        # A NaN norm fails the backward-error check of that row alone and
        # leaves its iterations as they were.
        rows = random_rows(np.random.default_rng(34), 160, 3)
        rows[:10] = 0.0
        target = 150
        assert _BLOCK_ENTRIES // unknowns((1, 1, 1)) < target - 10
        operator = pde_solver._operator

        def nan_norm(alpha, Y, modes):
            diag, couplings, norm_a = operator(alpha, Y, modes)
            norm_a[[np.array_equal(y, rows[target]) for y in Y]] = np.nan
            return diag, couplings, norm_a

        monkeypatch.setattr(pde_solver, "_operator", nan_norm)
        with pytest.raises(SolverError, match="backward error") as info:
            solve_qoi_batch((1, 1, 1), rows, field3, qoi3)
        assert info.value.row == target
        assert f"(row {target})" in str(info.value)

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
    def test_matches_sparse_direct_solve(self, field3, qoi3, sparse_solution, window_average,
                                         alpha):
        rows = random_rows(np.random.default_rng(30), 3, field3.max_modes)
        batch = solve_qoi_batch(alpha, rows, field3, qoi3)
        for row, value in zip(rows, batch):
            y = {j + 1: float(v) for j, v in enumerate(row)}
            (values,) = _solve_pcg(alpha, row[None], mode_ordering(field3))
            dense = sparse_solution(alpha, y, field3)
            assert np.abs(values - dense).max() <= 1e-10 * np.abs(dense).max()
            expected = window_average(alpha, dense, qoi3)
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
            solve_qoi((1, 1, 1), {1: float(y1)}, field3, qoi3)

    def test_exhausted_iterations_raise_solver_error(self, field3, qoi3, monkeypatch):
        monkeypatch.setattr(pde_solver, "CG_RTOL", -1.0)  # no row ever converges
        # Iterating past convergence ends in 0/0; NaN never passes the stopping rule.
        with pytest.raises(SolverError) as info, np.errstate(over="ignore", invalid="ignore"):
            solve_qoi_batch((1, 1, 1), np.array([[0.5, 0.1]]), field3, qoi3)
        assert f"did not converge in {pde_solver.PCG_MAX_ITERATIONS} iterations" in str(info.value)


class TestMatrixFreeOperator:
    """The flux-form operator as a flat stencil, against an assembled CSR matrix."""

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 1, 3), (1, 1, 6)])
    def test_apply_and_norm_match_the_assembled_operator(self, field3, assembled_operator, alpha):
        rng = np.random.default_rng(70 + sum(alpha))
        rows = random_rows(rng, 3, field3.max_modes)
        u = rng.uniform(-1.0, 1.0, (3, unknowns(alpha)))
        diagonals, couplings, norms = _operator(alpha, rows, mode_ordering(field3))
        applied = _apply(diagonals, couplings, u)
        for row, vector, got, diagonal, norm in zip(rows, u, applied, diagonals, norms):
            matrix = assembled_operator(alpha, {j + 1: float(v) for j, v in enumerate(row)}, field3)
            expected = matrix @ vector
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.abs(diagonal - matrix.diagonal()).max() <= 1e-13 * matrix.diagonal().max()
            expected_norm = abs(matrix).sum(axis=1).max()
            assert abs(norm - expected_norm) <= 1e-13 * expected_norm

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 1, 3), (1, 1, 6)])
    def test_apply_after_rows_are_dropped(self, field3, assembled_operator, alpha):
        # PCG drops converged rows from the diagonal and every coupling.
        rng = np.random.default_rng(75 + sum(alpha))
        rows = random_rows(rng, 4, field3.max_modes)
        diagonals, couplings, _ = _operator(alpha, rows, mode_ordering(field3))
        keep = np.array([False, True, False, True])
        u = rng.uniform(-1.0, 1.0, (2, unknowns(alpha)))
        applied = _apply(diagonals[keep], [(stride, w[keep]) for stride, w in couplings], u)
        for row, vector, got in zip(rows[keep], u, applied):
            matrix = assembled_operator(alpha, {j + 1: float(v) for j, v in enumerate(row)}, field3)
            expected = matrix @ vector
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestSineTransformPreconditioner:
    """z = S L^-1 (S r): the a == 1 sine-transform solve with diagonal scaling."""

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 1, 6), (1, 1, 10)])
    def test_iterations_per_row_do_not_grow_with_the_grid(self, field3, qoi3, monkeypatch, alpha):
        # Counts the applies of the stencil operator, which every CG
        # iteration makes once, whatever its preconditioner.
        matvecs = 0
        apply = pde_solver._apply

        def counting(diag, couplings, u):
            nonlocal matvecs
            matvecs += 1
            return apply(diag, couplings, u)

        monkeypatch.setattr(pde_solver, "_apply", counting)
        rng = np.random.default_rng(40)
        for _ in range(3):
            matvecs = 0
            y = {j + 1: float(v) for j, v in enumerate(rng.uniform(-1.0, 1.0, field3.max_modes))}
            solve_qoi(alpha, y, field3, qoi3)
            assert matvecs > 0
            # One more apply checks the backward error of the solution.
            assert matvecs - 1 <= 15

    def test_broken_preconditioner_fails_within_a_fixed_count(self, field3, qoi3, monkeypatch):
        # Reversing the last axis of the spectral coefficients makes the
        # preconditioner non-symmetric, and CG stalls.  At alpha = (1,1,10),
        # N = 76,775, so a cap that grows with N would run for minutes.
        alpha = (1, 1, 10)
        counts = pde_solver.interior_counts(alpha)
        transform = pde_solver._sine_transform

        def reversed_lines(alpha, r):
            spectral = transform(r, counts) * pde_solver._sine_divisors(alpha)
            flipped = spectral.reshape(len(r), *counts)[..., ::-1].reshape(len(r), -1)
            return transform(flipped, counts)

        matvecs = 0
        apply = pde_solver._apply

        def counting(diag, couplings, u):
            nonlocal matvecs
            matvecs += 1
            assert matvecs <= 500, "PCG still running after 500 iterations"
            return apply(diag, couplings, u)

        monkeypatch.setattr(pde_solver, "_sine_solve", reversed_lines)
        monkeypatch.setattr(pde_solver, "_apply", counting)
        with pytest.raises(SolverError, match="did not converge"):
            solve_qoi(alpha, {j: 1.0 for j in range(1, field3.max_modes + 1)}, field3, qoi3)

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


def solved_blocks(ev):
    """The evaluator's solved point values as {(alpha, block items): values},
    each block's values in ``quadrature.block_points`` order."""
    blocks = [(tuple(zip([c + 1 for c in columns], levels)), size)
              for (levels, columns), size in zip(ev._blocks, ev._sizes)]
    return {(alpha, items): ev.cache.values[start : start + size]
            for alpha, table in ev.cache.starts.items()
            for (items, size), start in zip(blocks, table.tolist()) if start >= 0}


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
        blocks = solved_blocks(ev)
        for (_, items), values in blocks.items():
            assert len(values) == math.prod(new_node_count(b) for _, b in items)
        assert ev.solved_dof == sum(unknowns(alpha) * len(v) for (alpha, _), v in blocks.items())
        assert ev.cache.misses == sum(len(v) for v in blocks.values())

    def test_evaluation_order_does_not_change_values(self, field1, qoi1):
        iset = IndexSet(downward_closure({MixedIndex((2,), SLV({1: 3, 2: 2}))}))
        fresh = MiscEvaluator(field1, qoi1).evaluate(iset).value
        warmed = MiscEvaluator(field1, qoi1)
        warmed.tensor_value((2,), SLV({2: 2}))
        warmed.tensor_value((1,), SLV({1: 3, 2: 2}))
        assert warmed.evaluate(iset).value == fresh


def grid_by_grid(ev, iset, mode):
    """The estimator from one-grid ``tensor_value`` calls, summed in the
    order that ``evaluate`` sums."""
    value = 0.0
    for m in iset.members:
        if mode == "combination":
            c = iset.coefficients[m]
            if c != 0:
                value += c * ev.tensor_value(m.alpha, m.beta)
            continue
        support, total = m.beta.support, 0.0
        for sign, lowered in corners(tuple(b for _, b in m.beta.items())):
            beta, inner = SLV(zip(support, lowered)), 0.0
            for corner_sign, alpha in corners(m.alpha):
                inner += corner_sign * ev.tensor_value(alpha, beta)
            total += sign * inner
        value += total
    return value


BATCHED_SETS = {
    "d1": (1, [MixedIndex((3,), SLV({1: 4, 2: 3})), MixedIndex((2,), SLV({1: 2, 3: 2, 4: 2}))]),
    "d3": (3, [MixedIndex((2, 1, 2), SLV({1: 3, 2: 2})), MixedIndex((1, 2, 1), SLV({1: 2, 3: 2})),
               MixedIndex((1, 1, 1), SLV({4: 3}))]),
}


@pytest.fixture
def recorded(monkeypatch):
    """Records each ``solve_qoi_batch`` call as (flush number or None, alpha, rows)."""
    calls, flushes = [], []
    solve_batch, solve_pending = pde_solver.solve_qoi_batch, MiscEvaluator._solve_pending

    def batch(alpha, Y, *args):
        calls.append((flushes[-1] if flushes else None, tuple(alpha), len(Y)))
        return solve_batch(alpha, Y, *args)

    def pending(evaluator, *args):
        flushes.append(len(calls))
        try:
            solve_pending(evaluator, *args)
        finally:
            flushes.append(None)

    monkeypatch.setattr(pde_solver, "solve_qoi_batch", batch)
    monkeypatch.setattr(MiscEvaluator, "_solve_pending", pending)
    return calls


def check_batches(ev, iset, mode, calls):
    """A fresh ``evaluate`` against one-grid evaluation; returns the alphas
    solved in each flush, after checking there is one call per alpha."""
    value = ev.evaluate(iset, mode).value
    calls = list(calls)
    single = MiscEvaluator(ev.field_spec, ev.qoi_spec)
    assert value == grid_by_grid(single, iset, mode)
    assert (ev.cache.misses, ev.cache.hits) == (single.cache.misses, single.cache.hits)
    assert ev.solved_dof == single.solved_dof
    blocks, single_blocks = solved_blocks(ev), solved_blocks(single)
    assert blocks.keys() == single_blocks.keys()
    assert all(np.array_equal(v, single_blocks[k]) for k, v in blocks.items())
    assert ev.cache.grids == single.cache.grids
    assert sum(rows for _, _, rows in calls) == ev.cache.misses
    flushes = {}
    for flush, alpha, rows in calls:
        if flush is None:
            assert rows == 1          # the y = 0 anchor, through solve_qoi
        else:
            flushes.setdefault(flush, []).append(alpha)
    assert all(len(alphas) == len(set(alphas)) for alphas in flushes.values())
    return list(flushes.values())


class TestBatchedEvaluation:
    """``evaluate`` solves each evaluation's new points in one batch per alpha."""

    @pytest.mark.parametrize("bound", [None, 8])
    @pytest.mark.parametrize("mode", ["combination", "surplus"])
    @pytest.mark.parametrize("name", sorted(BATCHED_SETS))
    def test_fresh_evaluate_matches_grid_by_grid(self, field1, qoi1, field3, qoi3, recorded,
                                                 monkeypatch, name, mode, bound):
        d, tops = BATCHED_SETS[name]
        field_spec, qoi_spec = (field1, qoi1) if d == 1 else (field3, qoi3)
        if bound is not None:
            monkeypatch.setattr(misc_core, "_FLUSH_POINTS", bound)
        ev = MiscEvaluator(field_spec, qoi_spec)
        flushes = check_batches(ev, IndexSet(downward_closure(set(tops))), mode, recorded)
        if bound is None:
            assert ev.cache.misses < misc_core._FLUSH_POINTS
            assert len(flushes) == 1
        else:
            assert len(flushes) > 1

    def test_default_bound_is_crossed(self, field1, qoi1, recorded):
        tops = [MixedIndex((3,), SLV({1: 5, 2: 4, 3: 2})),
                MixedIndex((2,), SLV({1: 4, 2: 2, 3: 3, 4: 2})),
                MixedIndex((1,), SLV({1: 3, 2: 3, 4: 3, 5: 2}))]
        ev = MiscEvaluator(field1, qoi1)
        flushes = check_batches(ev, IndexSet(downward_closure(set(tops))), "surplus", recorded)
        assert ev.cache.misses > misc_core._FLUSH_POINTS
        assert len(flushes) > 1

    def test_repeated_and_cached_grids_cost_lookups(self, field3, qoi3):
        ev = MiscEvaluator(field3, qoi3)
        grids = [((1, 1, 2), SLV({1: 2})), ((1, 1, 1), SLV({1: 2})), ((1, 1, 2), SLV({1: 2}))]
        values = ev.tensor_values(grids)
        assert values[0] == values[2] == ev.tensor_value(*grids[0])
        assert (ev.cache.misses, ev.cache.hits) == (6, 0)
        assert ev.tensor_values(grids[::-1]) == values[::-1]
        assert (ev.cache.misses, ev.cache.hits) == (6, 0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_blocks_solve_every_grid_point_once(self, field1, qoi1, field3, qoi3, d):
        """At two nested checkpoints, the solved points are the distinct
        points of the grids evaluated so far, and each grid's value is
        the row-major weighted sum of one-row solves."""
        field_spec, qoi_spec = (field1, qoi1) if d == 1 else (field3, qoi3)
        n_vars = 4
        rng = np.random.default_rng(80 + d)
        top = random_closed_set(rng, spatial_dim=d, n_vars=n_vars, max_level=3 if d == 3 else 4,
                                max_members=12 if d == 3 else 25)
        inner = IndexSet(downward_closure(top.members[: len(top) // 2]))
        assert len(inner) < len(top)
        ev = MiscEvaluator(field_spec, qoi_spec)
        one_row = {}
        for iset, mode in ((inner, "combination"), (top, "surplus")):
            ev.evaluate(iset, mode)
            points = set()
            for (alpha, items), value in ev.cache.grids.items():
                weights, values = [], []
                for combo in itertools.product(*(zip(cc_points(b), cc_weights(b)) for _, b in items)):
                    y = dict(zip((j for j, _ in items), (p for p, _ in combo)))
                    row = tuple(y.get(j, 0.0) for j in range(1, n_vars + 1))
                    if (alpha, row) not in one_row:
                        one_row[alpha, row] = solve_qoi_batch(alpha, np.array([row]), field_spec,
                                                              qoi_spec)[0]
                    points.add((alpha, row))
                    weights.append(math.prod(w for _, w in combo))
                    values.append(one_row[alpha, row])
                # np.sum is the pairwise row-major sum that the evaluator reduces grids with.
                assert value == float(np.sum(np.array(weights) * np.array(values)))
            assert ev.cache.misses == len(points)

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_refused_batch_leaves_its_grids_unsolved(self, field1, qoi1, field3, qoi3, d):
        """A batch the solver refuses solves none of its blocks, so a later
        call solves them as a fresh evaluator does."""
        field_spec, qoi_spec = (field1, qoi1) if d == 1 else (field3, qoi3)
        alpha = (2,) + (1,) * (d - 1)
        good, bad = SLV({1: 3, 2: 2}), SLV({1: 2, field_spec.max_modes + 1: 2})
        ev, fresh = MiscEvaluator(field_spec, qoi_spec), MiscEvaluator(field_spec, qoi_spec)
        with pytest.raises(IndexError):
            ev.tensor_values([(alpha, good), (alpha, bad)])
        assert ev.cache.misses == 0
        assert ev.tensor_value(alpha, good) == fresh.tensor_value(alpha, good)
        assert ev.cache.misses == fresh.cache.misses

    @pytest.mark.parametrize("d", [1, 3])
    def test_grouped_sums_match_per_grid_sums_in_any_order(self, field1, qoi1, field3, qoi3, d):
        """Grids reduced together, as rows of one array, equal the row-major
        ``np.sum`` of each grid alone bit for bit, whatever their order,
        their split into calls and the calls in between."""
        field_spec, qoi_spec = (field1, qoi1) if d == 1 else (field3, qoi3)
        n_vars = 4
        rng = np.random.default_rng(90 + d)
        # Many grids share a level tuple and an alpha, so most groups hold
        # several rows of 9 to 81 points.
        alphas = [(1,) * d, (2,) + (1,) * (d - 1)]
        levels = [{j: b for j, b in zip(js, bs)} for r in (1, 2, 3)
                  for js in itertools.combinations(range(1, n_vars + 1), r)
                  for bs in itertools.product((2, 3) if r == 3 else (2, 3, 4), repeat=r)]
        grids = [(alpha, SLV(beta).items()) for alpha in alphas for beta in levels]
        ev = MiscEvaluator(field_spec, qoi_spec)
        values = {}
        for chunk in np.array_split(rng.permutation(len(grids)), 3):
            batch = [grids[k] for k in chunk]
            values.update(zip(batch, ev.tensor_values((alpha, SLV(items)) for alpha, items in batch)))
            alpha, items = grids[rng.integers(len(grids))]
            ev.mixed_difference(MixedIndex(alpha, SLV(items)))
        assert len(values) == len(grids)
        for (alpha, items), value in values.items():
            points = list(itertools.product(*(cc_points(b) for _, b in items)))
            rows = np.zeros((len(points), n_vars))
            rows[:, [j - 1 for j, _ in items]] = points
            weights = [math.prod(w) for w in itertools.product(*(cc_weights(b) for _, b in items))]
            solved = solve_qoi_batch(alpha, rows, field_spec, qoi_spec)
            assert value == float(np.sum(np.array(weights) * solved))
