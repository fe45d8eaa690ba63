import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

from miscpde import cli, pde_solver
from miscpde.pde_solver import (
    QoISpec,
    SolverError,
    _parameter_row,
    _solve_constant,
    _solve_pcg,
    default_qoi_spec,
    interior_axes,
    interior_counts,
    mesh_sizes,
    solve_qoi,
    unknowns,
)
from miscpde.random_field import FieldSpec, a_on_axes, mode_ordering


class TestGrid:
    def test_mesh_sizes(self):
        assert mesh_sizes((1,)) == (1 / 6,)
        assert mesh_sizes((2, 1)) == (1 / 12, 1 / 6)

    def test_interior_counts(self):
        assert interior_counts((1,)) == (5,)
        assert interior_counts((1, 1, 1)) == (5, 5, 5)
        assert interior_counts((3,)) == (23,)

    def test_unknowns(self):
        assert unknowns((1,)) == 5
        assert unknowns((1, 1, 1)) == 125
        assert unknowns((2, 1, 1)) == 11 * 25

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            mesh_sizes((0,))
        with pytest.raises(ValueError):
            solve_qoi((1, 1), {}, FieldSpec(d=1, nu=2.5, max_modes=2), default_qoi_spec(1))


class TestSolve:
    def test_constant_coefficient_exact_1d(self, field1, field_1d):
        # Centered differences reproduce the quadratic x(1-x)/2 exactly.
        for level in (1, 3):
            x = interior_axes((level,))[0]
            assert np.abs(field_1d(level, np.zeros(0), field1) - x * (1 - x) / 2).max() < 1e-12

    def test_constant_coefficient_3d_vs_dense(self, field3, assembled_operator):
        u = _solve_constant((1, 1, 1))
        assert u.shape == (5, 5, 5)
        matrix = assembled_operator((1, 1, 1), {}, field3)
        dense = np.linalg.solve(matrix.toarray(), np.ones(125))
        assert np.abs(u.ravel() - dense).max() < 1e-12

    def test_variable_coefficient_3d_vs_dense(self, field3, assembled_operator):
        y = {1: 0.7, 2: -0.4}
        modes = mode_ordering(field3)
        (u,) = _solve_pcg((1, 1, 1), _parameter_row(y, modes), modes)
        matrix = assembled_operator((1, 1, 1), y, field3)
        dense = np.linalg.solve(matrix.toarray(), np.ones(125))
        assert np.abs(u - dense).max() < 1e-10

    def test_self_convergence_3d(self, field3):
        reference = solve_qoi((4, 4, 4), {}, field3, default_qoi_spec(3))
        e1 = abs(solve_qoi((1, 1, 1), {}, field3, default_qoi_spec(3)) - reference)
        e2 = abs(solve_qoi((2, 2, 2), {}, field3, default_qoi_spec(3)) - reference)
        assert 3.0 < e1 / e2 < 5.5

    def test_field_reciprocal_symmetry(self, field1, field_1d):
        modes = mode_ordering(field1)
        y = {1: 0.8, 3: -0.5}
        neg = {j: -v for j, v in y.items()}
        axes = [np.linspace(0.05, 0.95, 7)]
        assert np.allclose(a_on_axes(axes, y, modes) * a_on_axes(axes, neg, modes), 1.0)
        assert not np.allclose(field_1d(2, _parameter_row(y, modes), field1),
                               field_1d(2, _parameter_row(neg, modes), field1))

    def test_discrete_maximum_principle(self, field1, field_1d):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert field_1d(3, rng.uniform(-1, 1, 6), field1).min() >= 0.0

    def test_anisotropic_refinement(self, field3):
        # Field varying only in x1: its error responds to alpha_1 at second
        # order while the transverse components barely notice alpha_1.
        modes = mode_ordering(field3)
        j_x1 = next(
            j for j, m in enumerate(modes, start=1) if m.k == (1, 0, 0) and m.ell == (0, 1, 1)
        )
        y = {j_x1: 0.8}
        qs = default_qoi_spec(3)

        def f(alpha):
            return solve_qoi(alpha, y, field3, qs)

        drop_a = abs(f((2, 3, 3)) - f((1, 3, 3)))
        drop_b = abs(f((3, 3, 3)) - f((2, 3, 3)))
        assert 3.0 < drop_a / drop_b < 5.5
        transverse_coarse = abs(f((1, 2, 3)) - f((1, 1, 3)))
        transverse_fine = abs(f((3, 2, 3)) - f((3, 1, 3)))
        assert abs(transverse_coarse - transverse_fine) / transverse_coarse < 0.15

    def test_cg_residual_contract(self, field3, assembled_operator):
        y = {1: 0.9}
        modes = mode_ordering(field3)
        matrix = assembled_operator((2, 1, 1), y, field3)
        rhs = np.ones(matrix.shape[0])
        (u,) = _solve_pcg((2, 1, 1), _parameter_row(y, modes), modes)
        residual = np.linalg.norm(rhs - matrix @ u) / np.linalg.norm(rhs)
        assert residual <= 1e-10

    @pytest.mark.parametrize("alpha", [(1, 1, 9), (1, 1, 10)])
    def test_anisotropic_variable_coefficient_solves(self, field3, alpha):
        # 1535 and 3071 nodes on the finest axis; the preconditioned
        # iteration count does not grow with them.
        modes = mode_ordering(field3)
        u = _solve_pcg(alpha, _parameter_row({1: 0.5}, modes), modes)
        assert u.shape == (1, unknowns(alpha))
        assert u.min() > 0.0


class TestQoI:
    def exact_value(self, spec):
        integrand = lambda x: (
            spec.scale * x * (1 - x) / 2 * math.exp(-((x - spec.x0[0]) ** 2) / (2 * spec.sigma**2))
        )
        value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        return value

    def test_converges_to_reference_integral(self, field1):
        spec = default_qoi_spec(1)
        exact = self.exact_value(spec)
        errors = [abs(solve_qoi((a,), {}, field1, spec) - exact) for a in range(1, 7)]
        assert errors[-1] < 1e-5
        slope = np.polyfit(range(1, 7), np.log2(errors), 1)[0]
        assert abs(slope + 2.0) < 0.2

    def test_error_quarters_with_resolution(self, field1):
        spec = default_qoi_spec(1)
        exact = self.exact_value(spec)
        e3 = abs(solve_qoi((3,), {}, field1, spec) - exact)
        e4 = abs(solve_qoi((4,), {}, field1, spec) - exact)
        assert 3.2 < e3 / e4 < 4.8

    def test_window_validation(self):
        with pytest.raises(ValueError):
            QoISpec(sigma=-0.1)
        with pytest.raises(ValueError):
            QoISpec(x0=(1.5,))
        with pytest.raises(ValueError):
            default_qoi_spec(2)


class TestDeterminism:
    def test_bitwise_repeatability(self, field1):
        y = {1: 0.3, 2: -0.2}
        first = solve_qoi((3,), y, field1, default_qoi_spec(1))
        second = solve_qoi((3,), y, field1, default_qoi_spec(1))
        assert first == second

    def test_3d_base_solve_value(self, field3):
        first = solve_qoi((1, 1, 1), {}, field3, default_qoi_spec(3))
        second = solve_qoi((1, 1, 1), {}, field3, default_qoi_spec(3))
        assert first == second and math.isfinite(first)


# Row-by-row invariance of _sine_solve, run in a fresh interpreter so that
# the BLAS thread count is the one its environment sets.
INVARIANCE_SCRIPT = """
import json

import numpy as np

from miscpde.pde_solver import _SINE_MATRIX_MAX, _sine_solve, interior_counts

# Level 6 lines (n = 191) take the matrix, level 7 lines (n = 383) the FFT.
# (6, 4, 1) is large enough that the BLAS splits its products over threads.
alphas = [(6, 1, 1), (1, 6, 1), (1, 1, 6), (7, 1, 1), (1, 7, 1), (1, 1, 7), (6, 4, 1)]
rng = np.random.default_rng(7)
checked = {}
for alpha in alphas:
    r = rng.uniform(-1.0, 1.0, (3, int(np.prod(interior_counts(alpha)))))
    whole = _sine_solve(alpha, r)
    alone = [_sine_solve(alpha, r[k : k + 1])[0] for k in range(len(r))]
    checked[str(alpha)] = all(np.array_equal(a, w) for a, w in zip(alone, whole))
print(json.dumps({"matrix_max": _SINE_MATRIX_MAX, "checked": checked}))
"""

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Row-by-row invariance of the d > 1 operator, whose kappa is a matrix
# product over the modes, and of the values solved with it.  The rows
# activate different columns: y_1 alone, every column, and none.
OPERATOR_INVARIANCE_SCRIPT = """
import json

import numpy as np

from miscpde import FieldSpec, default_qoi_spec
from miscpde.pde_solver import _operator, solve_qoi_batch
from miscpde.random_field import mode_ordering

field, window = FieldSpec(3, 4.5, 10), default_qoi_spec(3)
modes = mode_ordering(field)
rng = np.random.default_rng(11)
rows = np.zeros((6, len(modes)))
rows[0, 0], rows[3, 0] = 0.8, -0.6
rows[1], rows[4] = rng.uniform(-1.0, 1.0, (2, len(modes)))


def operator_rows(Y):
    diag, couplings, norm = _operator(alpha, Y, modes)
    return [[diag[k], *(w[k] for _, w in couplings), norm[k : k + 1]] for k in range(len(Y))]


def same(first, second):
    return all(np.array_equal(a, b) for a, b in zip(first, second))


checked = {}
for alpha in [(1, 1, 1), (2, 1, 3), (3, 3, 3), (4, 3, 2)]:
    whole, values = operator_rows(rows), solve_qoi_batch(alpha, rows, field, window)
    alone = [operator_rows(rows[k : k + 1])[0] for k in range(len(rows))]
    reversed_ = operator_rows(rows[::-1])[::-1]
    alone_values = [solve_qoi_batch(alpha, rows[k : k + 1], field, window)[0] for k in range(len(rows))]
    reversed_values = solve_qoi_batch(alpha, rows[::-1], field, window)[::-1]
    checked[str(alpha)] = (all(same(a, w) and same(r, w) for a, r, w in zip(alone, reversed_, whole))
                           and np.array_equal(values, alone_values)
                           and np.array_equal(values, reversed_values))
print(json.dumps(checked))
"""


def run_with_threads(script: str, threads: str) -> str:
    """Runs ``script`` in a fresh interpreter with the given BLAS thread
    count ("default" leaves the environment's); returns its last line."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if threads != "default":
        env.update(dict.fromkeys(THREAD_VARIABLES, threads))
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


class TestSineTransform:
    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("level", range(1, 11))
    def test_matches_scipy_dstn(self, level, axis):
        counts = [5, 5, 5]
        counts[axis] = interior_counts((level,))[0]
        x = np.random.default_rng(10 * level + axis).uniform(-1.0, 1.0, (2, math.prod(counts)))
        ours = pde_solver._sine_transform(x, tuple(counts))
        # scipy's type-I transform is 2 sum_j x_j sin(pi j k / (n + 1)) per axis.
        oracle = scipy.fft.dstn(x.reshape(2, *counts), type=1, axes=(1, 2, 3)).reshape(2, -1) / 8
        assert np.abs(ours - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("threads", ["default", "1"])
    def test_solve_row_independent_of_batch_both_sides_of_the_switch(self, threads):
        result = json.loads(run_with_threads(INVARIANCE_SCRIPT, threads))
        # Levels 6 and 7 sit on each side of the matrix/FFT switch.
        assert 191 <= result["matrix_max"] < 383
        assert all(result["checked"].values()), result["checked"]


class TestOperatorInvariance:
    @pytest.mark.parametrize("threads", ["default", "1"])
    def test_operator_row_independent_of_batch(self, threads):
        checked = json.loads(run_with_threads(OPERATOR_INVARIANCE_SCRIPT, threads))
        assert len(checked) == 4 and all(checked.values()), checked


class TestSineTransformResidual:
    @pytest.fixture
    def corrupted_transform(self, monkeypatch):
        # A sine transform that is off by 0.1 %.
        transform = pde_solver._sine_transform
        monkeypatch.setattr(pde_solver, "_sine_transform",
                            lambda x, counts: 1.001 * transform(x, counts))

    @pytest.mark.parametrize("alpha", [(2, 1, 3), (1, 1, 10)])
    def test_accepted_solve_meets_the_contract(self, alpha):
        # (1, 1, 10) is where rounding alone takes |1 - Au| / |1| past 1e-10.
        assert _solve_constant(alpha).shape == interior_counts(alpha)

    def test_corrupted_transform_raises(self, field3, qoi3, corrupted_transform):
        with pytest.raises(SolverError) as info:
            solve_qoi((1, 1, 1), {}, field3, qoi3)
        assert info.value.residual > pde_solver.RESIDUAL_TOL

    def test_corrupted_transform_exits_3(self, corrupted_transform, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("problem.d = 3\nproblem.nu = 4.5\nproblem.max_modes = 10\n")
        assert cli.main(["solve", "--config", str(cfg), "--alpha", "1,1,1",
                         "--out", str(tmp_path)]) == 3
