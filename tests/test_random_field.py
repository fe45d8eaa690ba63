import math

import numpy as np
import pytest

from miscpde.random_field import (
    FieldSpec,
    ModeEnumerationError,
    SummabilityError,
    _check_active,
    a_on_axes,
    b_sequence,
    coefficient_A,
    kappa_on_axes,
    max_order,
    mode_ordering,
    p_bound,
)

SQRT3 = math.sqrt(3.0)


def kappa_eval(x, y, modes):
    """The log-coefficient at one spatial point for a sparse parameter
    vector, mode by mode: the pointwise oracle for ``kappa_on_axes``.

    ``y`` maps 1-based variable indices to values in [-1, 1]; missing
    variables sit at 0 and contribute nothing.
    """
    _check_active(y, modes)
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    total = 0.0
    for j, yj in sorted(y.items()):
        if yj == 0.0:
            continue
        mode = modes[j - 1]
        trig = math.prod(float(np.cos(np.pi * k * xi) if ell == 1 else np.sin(np.pi * k * xi))
                         for k, ell, xi in zip(mode.k, mode.ell, pt))
        total += yj * mode.amplitude * trig
    return total


def a_eval(x, y, modes):
    """The diffusion coefficient exp(kappa) at one spatial point."""
    return math.exp(kappa_eval(x, y, modes))


class TestCoefficient:
    def test_constant_mode(self):
        assert coefficient_A((0,), 2.5) == SQRT3
        assert coefficient_A((0, 0, 0), 4.5) == SQRT3

    def test_first_frequency(self):
        # sqrt(3) * sqrt(2) * 2^(-(2.5 + 0.5)/2) = sqrt(3)/2
        assert abs(coefficient_A((1,), 2.5) - SQRT3 / 2) < 1e-15

    def test_three_dimensional(self):
        expected = 2 * SQRT3 * 5.0**-3
        assert abs(coefficient_A((1, 1, 0), 4.5) - expected) < 1e-15

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            coefficient_A((1,), 0.0)


class TestModeOrdering:
    def test_first_mode_is_constant(self):
        modes = mode_ordering(FieldSpec(d=1, nu=2.5, max_modes=1))
        assert modes[0].k == (0,) and modes[0].ell == (1,)
        assert modes[0].amplitude == SQRT3

    def test_length_is_requested(self):
        for count in (1, 3, 17):
            assert len(mode_ordering(FieldSpec(d=1, nu=2.5, max_modes=count))) == count

    def test_low_frequencies_first(self):
        modes = mode_ordering(FieldSpec(d=1, nu=2.5, max_modes=3))
        assert [sum(m.k) for m in modes] == [0, 1, 1]

    def test_no_degenerate_selectors(self):
        for mode in mode_ordering(FieldSpec(d=3, nu=4.5, max_modes=40)):
            assert not any(k == 0 and l == 0 for k, l in zip(mode.k, mode.ell))

    def test_amplitudes_nonincreasing_brute_force(self):
        for spec in (FieldSpec(1, 2.5, 200), FieldSpec(3, 4.5, 200)):
            amps = [m.amplitude for m in mode_ordering(spec)]
            assert amps == sorted(amps, reverse=True)

    def test_deterministic(self):
        spec = FieldSpec(d=3, nu=4.5, max_modes=25)
        assert mode_ordering(spec) == mode_ordering(FieldSpec(d=3, nu=4.5, max_modes=25))

    def test_cap_error(self):
        with pytest.raises(ModeEnumerationError):
            mode_ordering(FieldSpec(d=1, nu=2.5, max_modes=10**7))


class TestEvaluation:
    def test_empty_parameter_vector(self, field1):
        modes = mode_ordering(field1)
        assert kappa_eval(0.5, {}, modes) == 0.0
        assert a_eval(0.5, {}, modes) == 1.0

    def test_single_sine_mode(self, field1):
        modes = mode_ordering(field1)
        # Mode 2 is (k=1, sine); at x = 1/2 the factor is sin(pi/2) = 1.
        assert modes[1].k == (1,) and modes[1].ell == (0,)
        assert abs(kappa_eval(0.5, {2: 1.0}, modes) - modes[1].amplitude) < 1e-15

    def test_odd_in_parameters(self, field1):
        modes = mode_ordering(field1)
        y = {1: 0.4, 2: -0.9, 3: 0.2}
        neg = {j: -v for j, v in y.items()}
        for x in (0.11, 0.5, 0.83):
            assert kappa_eval(x, neg, modes) == -kappa_eval(x, y, modes)
            assert abs(a_eval(x, y, modes) * a_eval(x, neg, modes) - 1.0) < 1e-14

    def test_active_index_beyond_enumeration(self, field1):
        modes = mode_ordering(field1)
        with pytest.raises(IndexError):
            kappa_eval(0.5, {9: 1.0}, modes)
        with pytest.raises(IndexError):
            kappa_on_axes([np.array([0.5])], {9: 1.0}, modes)

    def test_grid_matches_pointwise(self, field3):
        modes = mode_ordering(field3)
        axes = [np.linspace(0.1, 0.9, 4), np.linspace(0.2, 0.8, 3), np.linspace(0.0, 1.0, 5)]
        y = {1: 0.3, 4: -0.8, 7: 0.5}
        grid = kappa_on_axes(axes, y, modes)
        for i, xi in enumerate(axes[0]):
            for j, xj in enumerate(axes[1]):
                for k, xk in enumerate(axes[2]):
                    assert abs(grid[i, j, k] - kappa_eval((xi, xj, xk), y, modes)) < 1e-14


class TestBSequence:
    def test_constant_mode_all_orders(self, field1):
        for s in (0, 1, 2):
            assert b_sequence(s, field1).values[0] == SQRT3

    def test_first_derivative_of_first_frequency(self, field1):
        modes = mode_ordering(field1)
        b1 = b_sequence(1, field1)
        assert abs(b1.values[1] - modes[1].amplitude * math.pi) < 1e-14

    def test_monotone_in_order(self, field1):
        b0, b1, b2 = (b_sequence(s, field1).values for s in (0, 1, 2))
        assert all(x <= y <= z for x, y, z in zip(b0, b1, b2))

    def test_tail_summability_witness(self):
        # p = 0.4 sits above the admissible bound 1/3 for nu = 2.5, d = 1:
        # partial sums of b0^p must be Cauchy under doubling.  The
        # doubling increments shrink monotonically and fall below 5%
        # from J = 2048 on (the exact sequence needs one doubling more
        # than the ~512 ballpark suggests).
        p = 0.4
        sums = {}
        for count in (256, 512, 1024, 2048):
            b0 = b_sequence(0, FieldSpec(d=1, nu=2.5, max_modes=count)).as_array()
            sums[count] = float(np.sum(b0**p))
        changes = [
            abs(sums[2 * c] - sums[c]) / sums[2 * c] for c in (256, 512, 1024)
        ]
        assert changes == sorted(changes, reverse=True)
        assert changes[-1] < 0.05

    def test_field_bounds(self, field1):
        modes = mode_ordering(field1)
        cap = float(np.sum(b_sequence(0, field1).as_array()))
        rng = np.random.default_rng(2024)
        for _ in range(25):
            y = {j + 1: float(v) for j, v in enumerate(rng.uniform(-1, 1, len(modes)))}
            for x in rng.uniform(0, 1, 3):
                value = a_eval(float(x), y, modes)
                assert math.exp(-cap) <= value <= math.exp(cap)


class TestSummabilityBounds:
    def test_theory_bound(self):
        assert abs(p_bound(0, FieldSpec(1, 2.5, 1), "theory") - 1 / 3) < 1e-15

    def test_square_bound(self):
        assert abs(p_bound(0, FieldSpec(1, 2.5, 1), "square") - 1 / 6) < 1e-15

    def test_boundary_rejected(self):
        # s = nu - 3d/2 exactly puts the exponent at 1/2.
        with pytest.raises(SummabilityError):
            p_bound(1, FieldSpec(1, 2.5, 1), "theory")

    def test_exhausted_smoothness_rejected(self):
        with pytest.raises(SummabilityError):
            p_bound(9, FieldSpec(1, 2.5, 1), "theory")

    def test_max_order(self):
        spec = FieldSpec(1, 2.5, 1)
        assert max_order(spec, "theory") == 0
        assert max_order(spec, "square") == 1
        assert max_order(spec, "square", limit=1.0) == 2

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            p_bound(0, FieldSpec(1, 2.5, 1), "cubic")
