import itertools
import math
from functools import reduce

import numpy as np
import pytest

from miscpde.misc_core import MiscEvaluator
from miscpde.quadrature import (
    QuadratureLevelError,
    SparseLevelVector,
    block_layout,
    block_points,
    cc_points,
    cc_weights,
    leb_delta,
    level_to_nodes,
    new_node_count,
    node_births,
)
from test_batch_solver import solved_blocks


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

    def test_changed_level_and_equality(self):
        v = SparseLevelVector({1: 2})
        assert SparseLevelVector({**v.as_dict(), 1: 3}) == SparseLevelVector({1: 3})
        assert SparseLevelVector({**v.as_dict(), 1: 1}) == SparseLevelVector()
        assert hash(v) == hash(SparseLevelVector({1: 2}))

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseLevelVector({0: 2})
        with pytest.raises(ValueError):
            SparseLevelVector({1: 0})
        with pytest.raises(AttributeError):
            SparseLevelVector()._items = ()


def birth_levels(beta):
    """The level at which each point of ``cc_points(beta)`` first appears,
    found by membership in the coarser rules."""
    return np.array([min(c for c in range(1, beta + 1) if p in cc_points(c)) for p in cc_points(beta)])


def tensor_blocks(levels):
    """Oracle: the tensor grid of ``levels`` split into its nested blocks.

    Block ``c`` (a level vector with 1 <= c_k <= levels_k) holds the
    points first present at level c_k on every axis k.  Returns
    ``(blocks, order, weights)``: per block in row-major order of ``c``,
    its (axis, level) pairs at level >= 2, given as indices into the list
    of pairs (k, c) for every axis k and 2 <= c <= levels_k, and the
    (P_c, pairs) row-major product of their new points; ``order``, which
    takes the blocks' concatenated values to the grid's row-major order;
    and the raveled row-major outer-product weights.  An empty ``levels``
    is the single point y = 0 with weight 1.
    """
    blocks = []
    starts = [0, *itertools.accumulate(b - 1 for b in levels)]
    for block in itertools.product(*(range(1, b + 1) for b in levels)):
        above = [(k, c) for k, c in enumerate(block) if c >= 2]
        new = [cc_points(c)[birth_levels(c) == c] for _, c in above]
        points = np.array(list(itertools.product(*new))).reshape(math.prod(map(len, new)), len(above))
        blocks.append((tuple(starts[k] + c - 2 for k, c in above), points))
    # Each block lists its points in the grid's row-major order, so a
    # stable sort of the grid by block index concatenates the blocks.
    block_index = np.zeros((), dtype=int)
    for b in levels:
        block_index = block_index[..., None] * b + (birth_levels(b) - 1)
    order = np.argsort(np.argsort(block_index.ravel(), kind="stable"))
    weights = reduce(np.multiply.outer, (cc_weights(b) for b in levels), np.ones(1)).ravel()
    return tuple(blocks), order, weights


def block_pairs(levels):
    """(axis, level) of each block of ``tensor_blocks(levels)``."""
    table = [(k, c) for k, b in enumerate(levels) for c in range(2, b + 1)]
    return [[table[i] for i in indices] for indices, _ in tensor_blocks(levels)[0]]


def grid_points(levels):
    """The points of ``tensor_blocks(levels)`` in the grid's row-major order:
    each block's points on its axes, zero elsewhere, concatenated and
    permuted by ``order``."""
    blocks, order, _ = tensor_blocks(levels)
    rows = []
    for pairs, (_, points) in zip(block_pairs(levels), blocks):
        full = np.zeros((len(points), len(levels)))
        full[:, [k for k, _ in pairs]] = points
        rows.append(full)
    return np.concatenate(rows)[order]


GRIDS = [{1: 2}, {2: 3, 5: 2}, {1: 4, 3: 3, 4: 2}]


def grid_levels(levels):
    return tuple(b for _, b in SparseLevelVector(levels).items())


class TestTensorGrid:
    @pytest.mark.parametrize("levels", GRIDS)
    def test_weights_sum_to_one(self, levels):
        _, _, weights = tensor_blocks(grid_levels(levels))
        assert abs(weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("levels", GRIDS)
    def test_points_are_cc_points_per_axis(self, levels):
        beta = grid_levels(levels)
        expected = list(itertools.product(*(cc_points(b) for b in beta)))
        points = grid_points(beta)
        assert points.tobytes() == np.array(expected).tobytes()
        assert len(tensor_blocks(beta)[2]) == len(points)

    def test_weights_are_row_major_products(self):
        # Bit for bit: weights multiplied left to right in row-major order.
        beta = (3, 2, 2)
        expected = [math.prod(combo) for combo in itertools.product(*(cc_weights(b) for b in beta))]
        assert np.array_equal(tensor_blocks(beta)[2], expected)

    def test_quadratics(self):
        y = grid_points((2,))
        assert abs(np.sum(tensor_blocks((2,))[2] * y[:, 0] ** 2) - 1 / 3) < 1e-14
        y = grid_points((2, 2))
        value = np.sum(tensor_blocks((2, 2))[2] * y[:, 0] ** 2 * y[:, 1] ** 2)
        assert abs(value - 1 / 9) < 1e-14

    @pytest.mark.parametrize("levels", GRIDS)
    def test_blocks_partition_the_grid(self, levels, field1, qoi1):
        """Each block holds the points first present at its levels, and the
        evaluator caches one value array per block."""
        beta = SparseLevelVector(levels)
        blocks, order, _ = tensor_blocks(grid_levels(levels))
        assert sorted(order.tolist()) == list(range(len(order)))
        every = {tuple(pairs) for pairs in block_pairs(grid_levels(levels))}
        assert len(every) == len(blocks) == math.prod(grid_levels(levels))
        for pairs, (_, points) in zip(block_pairs(grid_levels(levels)), blocks):
            fresh = [[p for p in cc_points(b) if p not in cc_points(b - 1)] for _, b in pairs]
            assert points.tobytes() == np.array(list(itertools.product(*fresh))).tobytes()
        ev = MiscEvaluator(field1, qoi1)
        ev.tensor_value((1,), beta)
        support = beta.support
        assert set(solved_blocks(ev)) == {((1,), tuple((support[k], b) for k, b in pairs))
                                          for pairs in every}
        assert ev.cache.misses == len(order)

    def test_variables_outside_the_support_stay_at_zero(self, field1, qoi1):
        ev = MiscEvaluator(field1, qoi1)
        ev.tensor_value((1,), SparseLevelVector({4: 2}))
        assert set(solved_blocks(ev)) == {((1,), ()), ((1,), ((4, 2),))}

    @pytest.mark.parametrize("levels", GRIDS + [{}])
    def test_block_layout_places_every_point(self, levels):
        """Each grid point is the row of its nested block's ``block_points``
        that ``block_layout`` names, and the weights are the oracle's bit for bit."""
        beta = grid_levels(levels)
        block, offset, layout_weights = block_layout(beta)
        blocks, _, weights = tensor_blocks(beta)
        table = [(k, c) for k, b in enumerate(beta) for c in range(2, b + 1)]
        rows = []
        for k, row in zip(block, offset):
            pairs = [table[i] for i in blocks[k][0]]
            full = np.zeros(len(beta))
            full[[axis for axis, _ in pairs]] = block_points(tuple(c for _, c in pairs))[row]
            rows.append(full)
        assert np.array(rows).tobytes() == grid_points(beta).tobytes()
        assert layout_weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("beta", range(1, 8))
    def test_node_births_follow_nesting(self, beta):
        birth, rank = node_births(beta)
        assert birth.tolist() == birth_levels(beta).tolist()
        for c in range(1, beta + 1):
            assert rank[birth == c].tolist() == list(range(new_node_count(c)))

    def test_empty_support_is_one_point(self):
        blocks, order, weights = tensor_blocks(())
        assert [(pairs, points.shape) for pairs, points in blocks] == [((), (1, 0))]
        assert order.tolist() == [0]
        assert weights.tolist() == [1.0]


class TestPointIds:
    """A grid's points are taken from the blocks of the levels at which
    they first appear, so nesting must hold bit for bit, and y = 0, the
    coordinate of every variable at level 1, must never appear as -0.0."""

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
        # -0.0 == 0.0, but its bytes differ from the 0.0 of the variables at level 1.
        for beta in range(1, 13):
            pts = cc_points(beta)
            assert not np.signbit(pts[pts == 0.0]).any()
            assert np.count_nonzero(pts == 0.0) == 1
