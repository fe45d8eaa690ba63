"""Univariate nested Clenshaw-Curtis rules and tensorized quadrature.

All rules integrate against the uniform probability measure dy/2 on
[-1, 1], so weights of every level sum to 1.  Levels follow the doubling
node map m(0) = 0, m(1) = 1, m(beta) = 2^(beta-1) + 1, which makes the
point families nested.  Points are evaluated canonically (cosine of the
reduced angle, then symmetrized about an exact-zero midpoint) so that
the nesting is bit-exact and no point is -0.0.  A tensor grid therefore
splits into nested blocks, one per level vector below its own, each
holding the points first present at those levels (``block_points``);
the evaluator solves each block once, so nested grids share them.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Iterable, Mapping

import numpy as np

# m(30) would be ~5e8 nodes, far beyond anything evaluable at desk scale.
MAX_LEVEL = 30


class QuadratureLevelError(ValueError):
    """Raised for levels outside the supported range."""


def _check_level(beta: int, minimum: int = 1) -> None:
    if not isinstance(beta, (int, np.integer)):
        raise QuadratureLevelError(f"level must be an integer, got {beta!r}")
    if beta < minimum:
        raise QuadratureLevelError(f"level must be >= {minimum}, got {beta}")
    if beta > MAX_LEVEL:
        raise QuadratureLevelError(
            f"level {beta} exceeds the cap {MAX_LEVEL} (m(beta) would be astronomically large)"
        )


def level_to_nodes(beta: int) -> int:
    """Node count of the nested rule at level ``beta``.

    m(0) = 0, m(1) = 1 and m(beta) = 2^(beta-1) + 1 afterwards; strictly
    increasing on beta >= 1.
    """
    _check_level(beta, minimum=0)
    if beta == 0:
        return 0
    if beta == 1:
        return 1
    return 2 ** (beta - 1) + 1


def new_node_count(beta: int) -> int:
    """Number of points of level ``beta`` not already present at ``beta - 1``."""
    _check_level(beta)
    return level_to_nodes(beta) - level_to_nodes(beta - 1)


@lru_cache(maxsize=None)
def cc_points(beta: int) -> np.ndarray:
    """Clenshaw-Curtis abscissae of level ``beta``, strictly decreasing.

    Level 1 is the single point {0}; level beta >= 2 has m(beta) points
    cos(j*pi/(m-1)), j = 0..m-1.  The first half is evaluated directly,
    the midpoint is forced to exactly 0 and the second half mirrors the
    first, which makes cc_points(beta) a bit-exact subset of
    cc_points(beta + 1).
    """
    _check_level(beta)
    if beta == 1:
        pts = np.zeros(1)
    else:
        m = level_to_nodes(beta)
        pts = np.empty(m)
        half = np.cos(np.arange(m // 2) * np.pi / (m - 1))
        pts[: m // 2] = half
        pts[m // 2] = 0.0
        pts[m // 2 + 1 :] = -half[::-1]
    pts.setflags(write=False)
    return pts


def _weights_moment_system(points: np.ndarray) -> np.ndarray:
    # Exactness conditions sum_j w_j x_j^k = int y^k dy/2 for k < m.
    m = len(points)
    vander = np.vander(points, increasing=True).T
    moments = np.array([0.0 if k % 2 else 1.0 / (k + 1) for k in range(m)])
    return np.linalg.solve(vander, moments)


def _weights_cosine(m: int) -> np.ndarray:
    # Closed-form Clenshaw-Curtis weights (halved for the dy/2 measure);
    # n = m - 1 is even for every level >= 2 of the doubling rule.
    n = m - 1
    theta = np.pi * np.arange(1, n) / n
    v = np.ones(n - 1)
    for k in range(1, n // 2):
        v -= 2.0 * np.cos(2.0 * k * theta) / (4.0 * k * k - 1.0)
    v -= np.cos(n * theta) / (n * n - 1.0)
    w = np.empty(m)
    w[1:-1] = 2.0 * v / n
    w[0] = w[-1] = 1.0 / (n * n - 1.0)
    return w / 2.0


@lru_cache(maxsize=None)
def cc_weights(beta: int) -> np.ndarray:
    """Weights of the level-``beta`` rule, exact for y^k, k < m(beta), against dy/2.

    Small rules come from the explicit moment system; from m >= 9 on the
    standard cosine-sum closed form is used instead, which stays
    machine-accurate where the Vandermonde system would degrade.
    """
    _check_level(beta)
    if beta == 1:
        w = np.ones(1)
    else:
        m = level_to_nodes(beta)
        w = _weights_moment_system(cc_points(beta)) if m < 9 else _weights_cosine(m)
        w = 0.5 * (w + w[::-1])
    w.setflags(write=False)
    return w


def leb_delta(beta: int) -> float:
    """Lebesgue-type constant of the level increment beta-1 -> beta.

    Sum of |w_beta - w_{beta-1}| over shared points plus |w_beta| over
    new points, with value 1 at beta = 1.  Bounded by 2 (the rules have
    positive weights); numerically it peaks at beta = 3 and tends to 1.
    """
    _check_level(beta)
    if beta == 1:
        return 1.0
    w = cc_weights(beta)
    wp = cc_weights(beta - 1)
    if beta == 2:
        return float(abs(w[1] - wp[0]) + abs(w[0]) + abs(w[2]))
    shared = np.abs(w[::2] - wp).sum()
    new = np.abs(w[1::2]).sum()
    return float(shared + new)


def max_leb_delta(max_beta: int = 12) -> float:
    """Computed bound on the quadrature-increment operator norm, max over beta <= max_beta."""
    return max(leb_delta(b) for b in range(1, max_beta + 1))


class SparseLevelVector:
    """Sparse vector of quadrature levels over countably many variables.

    The implicit default level is 1 (the trivial single-node rule at
    y = 0); only levels >= 2 are stored, so the support is always
    finite.  Instances are immutable and hashable.
    """

    __slots__ = ("_items",)

    def __init__(self, levels: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = levels.items() if isinstance(levels, Mapping) else levels
        stored: dict[int, int] = {}
        for j, b in pairs:
            j = int(j)
            b = int(b)
            if j < 1:
                raise ValueError(f"variable indices are 1-based, got {j}")
            if b < 1:
                raise ValueError(f"levels must be >= 1, got {b} for variable {j}")
            if b > MAX_LEVEL:
                raise QuadratureLevelError(f"level {b} for variable {j} exceeds cap {MAX_LEVEL}")
            if b >= 2:
                stored[j] = b
        object.__setattr__(self, "_items", tuple(sorted(stored.items())))

    @property
    def support(self) -> tuple[int, ...]:
        """Variables with level > 1, ascending."""
        return tuple(j for j, _ in self._items)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def level(self, j: int) -> int:
        for jj, b in self._items:
            if jj == j:
                return b
        return 1

    def as_dict(self) -> dict[int, int]:
        return dict(self._items)

    def excess(self) -> int:
        """|beta - 1|: total levels above the base level."""
        return sum(b - 1 for _, b in self._items)

    def active_count(self) -> int:
        """|beta - 1|_0: number of variables above the base level."""
        return len(self._items)

    def max_level(self) -> int:
        return max((b for _, b in self._items), default=1)

    def last_variable(self) -> int:
        """Largest active variable index, 0 when none is active."""
        return self._items[-1][0] if self._items else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseLevelVector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"SparseLevelVector({dict(self._items)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("SparseLevelVector is immutable")


@lru_cache(maxsize=None)
def node_births(beta: int) -> tuple[np.ndarray, np.ndarray]:
    """For each point of ``cc_points(beta)``: the level at which it first
    appears, and its rank among the points that level adds."""
    birth = np.full(level_to_nodes(beta), beta)
    rank = np.zeros(level_to_nodes(beta), dtype=int)
    if beta > 1:
        # Level beta - 1 sits at index 1 of level 2 and at the even indices above.
        old = slice(1, 2) if beta == 2 else slice(0, None, 2)
        birth[old], rank[old] = node_births(beta - 1)
        rank[birth == beta] = np.arange(new_node_count(beta))
    for array in (birth, rank):
        array.setflags(write=False)
    return birth, rank


@lru_cache(maxsize=None)
def block_points(levels: tuple[int, ...]) -> np.ndarray:
    """Row-major product of the points that each of ``levels`` adds, (P, k):
    the nested block of a tensor grid whose points are new on every axis."""
    new = [cc_points(b)[node_births(b)[0] == b] for b in levels]
    axes = np.meshgrid(*new, indexing="ij")
    points = np.array(axes).reshape(len(levels), math.prod(map(len, new))).T
    points.setflags(write=False)
    return points


@lru_cache(maxsize=None)
def block_layout(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tensor grid of ``levels`` point by point, in row-major order: the
    row-major index of its nested block among the level vectors
    1 <= c <= levels, its row in that block's ``block_points``, and its
    weight, the product of the axes' weights.  An empty ``levels`` is the
    single point y = 0 with weight 1."""
    block = offset = np.zeros((), dtype=np.intp)
    for b in levels:
        birth, rank = node_births(b)
        counts = np.array([new_node_count(c) for c in range(1, b + 1)])[birth - 1]
        block = block[..., None] * b + (birth - 1)
        offset = offset[..., None] * counts + rank
    weights = reduce(np.multiply.outer, (cc_weights(b) for b in levels), np.ones(1))
    layout = block.ravel(), offset.ravel(), weights.ravel()
    for array in layout:
        array.setflags(write=False)
    return layout
