import math

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

from miscpde import cli, pde_solver
from miscpde.pde_solver import (
    DiscreteSolution,
    QoISpec,
    SolverError,
    _parameter_row,
    _solve_pcg,
    default_qoi_spec,
    interior_counts,
    mesh_sizes,
    qoi,
    solve,
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
            solve((1, 1), {}, FieldSpec(d=1, nu=2.5, max_modes=2))


class TestSolve:
    def test_constant_coefficient_exact_1d(self, field1):
        # Centered differences reproduce the quadratic x(1-x)/2 exactly.
        for alpha in ((1,), (3,)):
            sol = solve(alpha, {}, field1)
            x = sol.axes[0]
            assert np.abs(sol.values - x * (1 - x) / 2).max() < 1e-12

    def test_constant_coefficient_3d_vs_dense(self, field3, assembled_operator):
        sol = solve((1, 1, 1), {}, field3)
        matrix = assembled_operator((1, 1, 1), {}, field3)
        dense = np.linalg.solve(matrix.toarray(), np.ones(125))
        assert np.abs(sol.values.ravel() - dense).max() < 1e-12

    def test_variable_coefficient_3d_vs_dense(self, field3, assembled_operator):
        y = {1: 0.7, 2: -0.4}
        sol = solve((1, 1, 1), y, field3)
        matrix = assembled_operator((1, 1, 1), y, field3)
        dense = np.linalg.solve(matrix.toarray(), np.ones(125))
        assert np.abs(sol.values.ravel() - dense).max() < 1e-10

    def test_self_convergence_3d(self, field3):
        reference = solve_qoi((4, 4, 4), {}, field3, default_qoi_spec(3))
        e1 = abs(solve_qoi((1, 1, 1), {}, field3, default_qoi_spec(3)) - reference)
        e2 = abs(solve_qoi((2, 2, 2), {}, field3, default_qoi_spec(3)) - reference)
        assert 3.0 < e1 / e2 < 5.5

    def test_field_reciprocal_symmetry(self, field1):
        modes = mode_ordering(field1)
        y = {1: 0.8, 3: -0.5}
        neg = {j: -v for j, v in y.items()}
        axes = [np.linspace(0.05, 0.95, 7)]
        assert np.allclose(a_on_axes(axes, y, modes) * a_on_axes(axes, neg, modes), 1.0)
        assert not np.allclose(solve((2,), y, field1).values, solve((2,), neg, field1).values)

    def test_discrete_maximum_principle(self, field1):
        rng = np.random.default_rng(7)
        for _ in range(5):
            y = {j + 1: float(v) for j, v in enumerate(rng.uniform(-1, 1, 6))}
            assert solve((3,), y, field1).values.min() >= 0.0

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
        u = solve(alpha, {1: 0.5}, field3).values
        assert u.shape == interior_counts(alpha)
        assert u.min() > 0.0


class TestQoI:
    def exact_value(self, spec):
        integrand = lambda x: (
            spec.scale * x * (1 - x) / 2 * math.exp(-((x - spec.x0[0]) ** 2) / (2 * spec.sigma**2))
        )
        value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        return value

    def test_zero_solution(self, field1):
        sol = DiscreteSolution((2,), np.zeros(interior_counts((2,))))
        assert qoi(sol, default_qoi_spec(1)) == 0.0

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

    def test_dimension_mismatch(self, field1):
        sol = solve((1,), {}, field1)
        with pytest.raises(ValueError):
            qoi(sol, default_qoi_spec(3))


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


class TestSineTransformResidual:
    @pytest.fixture
    def corrupted_transform(self, monkeypatch):
        # An inverse transform that is off by 0.1 %.
        idstn = scipy.fft.idstn
        monkeypatch.setattr(scipy.fft, "idstn", lambda x, **kwargs: 1.001 * idstn(x, **kwargs))

    @pytest.mark.parametrize("alpha", [(2, 1, 3), (1, 1, 10)])
    def test_accepted_solve_meets_the_contract(self, field3, alpha):
        # (1, 1, 10) is where rounding alone takes |1 - Au| / |1| past 1e-10.
        u = solve(alpha, {}, field3).values
        assert u.shape == interior_counts(alpha)

    def test_corrupted_transform_raises(self, field3, corrupted_transform):
        with pytest.raises(SolverError) as info:
            solve((1, 1, 1), {}, field3)
        assert info.value.residual > pde_solver.RESIDUAL_TOL

    def test_corrupted_transform_exits_3(self, corrupted_transform, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("problem.d = 3\nproblem.nu = 4.5\nproblem.max_modes = 10\n")
        assert cli.main(["solve", "--config", str(cfg), "--alpha", "1,1,1",
                         "--out", str(tmp_path)]) == 3
