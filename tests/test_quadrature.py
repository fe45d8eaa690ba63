import itertools
import math

import numpy as np
import pytest

from miscpde.misc_core import MiscEvaluator
from miscpde.quadrature import (
    QuadratureLevelError,
    SparseLevelVector,
    cc_points,
    cc_weights,
    leb_delta,
    level_to_nodes,
    new_node_count,
    tensor_grid,
    tensor_quadrature,
)


def moment(k):
    # int_{-1}^{1} y^k dy/2
    return 0.0 if k % 2 else 1.0 / (k + 1)


def oracle_weights(points):
    """Independent route: solve the moment system directly."""
    m = len(points)
    vander = np.vander(np.asarray(points), increasing=True).T
    return np.linalg.solve(vander, np.array([moment(k) for k in range(m)]))


class TestLevelToNodes:
    @pytest.mark.parametrize("beta,expected", [(0, 0), (1, 1), (2, 3), (3, 5), (4, 9), (8, 129)])
    def test_values(self, beta, expected):
        assert level_to_nodes(beta) == expected

    def test_strictly_increasing(self):
        counts = [level_to_nodes(b) for b in range(1, 15)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_cap(self):
        with pytest.raises(QuadratureLevelError):
            level_to_nodes(31)
        with pytest.raises(QuadratureLevelError):
            level_to_nodes(-1)


class TestPoints:
    def test_level_one_is_midpoint(self):
        assert cc_points(1).tolist() == [0.0]

    def test_level_two(self):
        assert cc_points(2).tolist() == [1.0, 0.0, -1.0]

    def test_zero_level_rejected(self):
        with pytest.raises(QuadratureLevelError):
            cc_points(0)

    @pytest.mark.parametrize("beta", range(1, 9))
    def test_nestedness_bit_exact(self, beta):
        fine = cc_points(beta + 1)
        coarse = cc_points(beta)
        if beta == 1:
            assert 0.0 in fine.tolist()
        else:
            assert fine[::2].tolist() == coarse.tolist()

    @pytest.mark.parametrize("beta", range(2, 9))
    def test_strictly_decreasing_and_symmetric(self, beta):
        pts = cc_points(beta)
        assert all(a > b for a, b in zip(pts, pts[1:]))
        assert (pts + pts[::-1]).tolist() == [0.0] * len(pts)
        assert pts[len(pts) // 2] == 0.0


class TestWeights:
    def test_level_one(self):
        assert cc_weights(1).tolist() == [1.0]

    def test_level_two_moment_system(self):
        # 3x3 moment system has the closed solution (1/6, 2/3, 1/6).
        w = cc_weights(2)
        assert np.allclose(w, oracle_weights(cc_points(2)), atol=1e-15)
        assert np.allclose(w, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("beta", range(1, 9))
    def test_positive_and_normalized(self, beta):
        w = cc_weights(beta)
        assert w.min() > 0
        assert abs(w.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("beta", range(1, 7))
    def test_exactness(self, beta):
        pts, w = cc_points(beta), cc_weights(beta)
        for k in range(level_to_nodes(beta)):
            assert abs(np.dot(w, pts**k) - moment(k)) < 1e-12

    @pytest.mark.parametrize("beta", range(1, 7))
    def test_odd_symmetry(self, beta):
        pts, w = cc_points(beta), cc_weights(beta)
        for k in range(1, level_to_nodes(beta), 2):
            assert abs(np.dot(w, pts**k)) < 1e-14


class TestLebDelta:
    def test_base_level(self):
        assert leb_delta(1) == 1.0

    def test_level_two_oracle(self):
        # |2/3 - 1| + 1/6 + 1/6 by direct expansion.
        assert abs(leb_delta(2) - 2 / 3) < 1e-14

    def test_peak_at_three(self):
        values = {b: leb_delta(b) for b in range(1, 13)}
        assert max(values, key=values.get) == 3
        assert abs(values[3] - 16 / 15) < 1e-12

    def test_bounded_and_tends_to_one(self):
        for b in range(1, 13):
            assert leb_delta(b) <= 2.0
        assert abs(leb_delta(12) - 1.0) < 1e-5

    def test_weakly_decreasing_after_peak(self):
        values = [leb_delta(b) for b in range(3, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSparseLevelVector:
    def test_base_levels_not_stored(self):
        v = SparseLevelVector({1: 1, 3: 2, 7: 1})
        assert v.support == (3,)
        assert v.level(1) == 1 and v.level(3) == 2

    def test_excess_and_count(self):
        v = SparseLevelVector({2: 3, 5: 2})
        assert v.excess() == 3
        assert v.active_count() == 2
        assert v.max_level() == 3
        assert v.last_variable() == 5

    def test_bump_and_equality(self):
        v = SparseLevelVector({1: 2})
        assert v.bump(1) == SparseLevelVector({1: 3})
        assert v.bump(1, -1) == SparseLevelVector()
        assert hash(v) == hash(SparseLevelVector({1: 2}))

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseLevelVector({0: 2})
        with pytest.raises(ValueError):
            SparseLevelVector({1: 0})
        with pytest.raises(AttributeError):
            SparseLevelVector()._items = ()


class TestTensorQuadrature:
    def test_all_base_levels(self):
        calls = []

        def f(y):
            calls.append(dict(y))
            return 7.5

        assert tensor_quadrature(SparseLevelVector(), f) == 7.5
        assert calls == [{}]

    def test_single_variable_quadratic(self):
        value = tensor_quadrature(SparseLevelVector({1: 2}), lambda y: y.get(1, 0.0) ** 2)
        assert abs(value - 1 / 3) < 1e-14

    def test_product_quadratic(self):
        value = tensor_quadrature(
            SparseLevelVector({1: 2, 2: 2}),
            lambda y: y.get(1, 0.0) ** 2 * y.get(2, 0.0) ** 2,
        )
        assert abs(value - 1 / 9) < 1e-14

    def test_inactive_variables_at_zero(self):
        seen = set()

        def f(y):
            seen.update(y.keys())
            return 1.0

        tensor_quadrature(SparseLevelVector({4: 2}), f)
        assert seen == {4}

    def test_matches_pointwise_sum(self):
        # Bit for bit: row-major points, weights multiplied left to right,
        # accumulated one point at a time.
        beta = SparseLevelVector({1: 3, 2: 2, 4: 2})

        def f(y):
            return math.exp(y.get(1, 0.0) - 0.5 * y.get(2, 0.0) + y.get(4, 0.0) ** 3)

        axes = [list(zip(cc_points(b), cc_weights(b))) for _, b in beta.items()]
        total = 0.0
        for combo in itertools.product(*axes):
            y = dict(zip(beta.support, (pw[0] for pw in combo)))
            total += math.prod(pw[1] for pw in combo) * f(y)
        assert tensor_quadrature(beta, f) == total


GRIDS = [{1: 2}, {2: 3, 5: 2}, {1: 4, 3: 3, 4: 2}]


class TestTensorGrid:
    @pytest.mark.parametrize("levels", GRIDS)
    def test_weights_sum_to_one(self, levels):
        _, _, weights = tensor_grid(SparseLevelVector(levels))
        assert abs(weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("levels", GRIDS)
    def test_points_are_cc_points_per_axis(self, levels):
        beta = SparseLevelVector(levels)
        support, points, weights = tensor_grid(beta)
        assert support == beta.support
        expected = list(itertools.product(*(cc_points(b) for _, b in beta.items())))
        assert np.array_equal(points, np.array(expected))
        assert len(weights) == len(points)

    @pytest.mark.parametrize("levels", GRIDS)
    def test_ids_equal_cache_keys(self, levels, field1, qoi1):
        """The evaluator keys each grid point by its row y_1..y_J up to its last nonzero entry."""
        beta = SparseLevelVector(levels)
        support, points, _ = tensor_grid(beta)
        rows = np.zeros((len(points), field1.max_modes))
        rows[:, [j - 1 for j in support]] = points
        ev = MiscEvaluator(field1, qoi1)
        ev.tensor_value((1,), beta)
        assert set(ev.cache.values) == {((1,), np.trim_zeros(row, "b").tobytes()) for row in rows}
        assert ev.cache.misses == len(points)

    def test_empty_support_is_one_point(self):
        support, points, weights = tensor_grid(SparseLevelVector())
        assert support == ()
        assert points.shape == (1, 0)
        assert weights.tolist() == [1.0]


class TestPointIds:
    """A point's identity is the bytes of its coordinates, so nesting
    must hold bit for bit and y = 0 must never appear as -0.0."""

    def test_base_identity(self):
        assert cc_points(1).tobytes() == np.zeros(1).tobytes()
        assert cc_points(2).tobytes() == np.array([1.0, 0.0, -1.0]).tobytes()

    @pytest.mark.parametrize("beta", range(2, 8))
    def test_ids_follow_nesting(self, beta):
        fine = cc_points(beta + 1)
        coarse = cc_points(beta)
        assert fine[::2].tobytes() == coarse.tobytes()
        births = {v.tobytes() for v in fine[1::2]}
        assert len(births) == new_node_count(beta + 1)
        assert births.isdisjoint(v.tobytes() for v in coarse)

    def test_zero_has_fixed_id(self):
        # -0.0 == 0.0, but its bytes would make a second cache key for y = 0.
        for beta in range(1, 13):
            pts = cc_points(beta)
            assert not np.signbit(pts[pts == 0.0]).any()
            assert np.count_nonzero(pts == 0.0) == 1
