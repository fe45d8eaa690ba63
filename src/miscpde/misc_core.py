"""Mixed difference operators, the combination technique, and estimator evaluation.

A mixed index pairs a dense vector of spatial refinement levels with a
sparse vector of quadrature levels.  The estimator over a downward
closed set of mixed indices can be evaluated either by summing mixed
first-order differences (surplus form) or as a signed combination of
plain tensor approximations (combination technique); both share one
memoization cache keyed by the hierarchical identity of each
collocation point, so nested points are never solved twice.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import pde_solver, quadrature
from .pde_solver import QoISpec
from .quadrature import SparseLevelVector
from .random_field import FieldSpec


class IndexSetError(ValueError):
    """Raised when an operation requires a downward-closed index set."""


@dataclass(frozen=True)
class MixedIndex:
    """One difference operator: spatial levels (dense) and quadrature levels (sparse)."""

    alpha: tuple[int, ...]
    beta: SparseLevelVector

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        if any(a < 1 for a in self.alpha):
            raise ValueError(f"spatial levels must be >= 1, got {self.alpha}")
        if not isinstance(self.beta, SparseLevelVector):
            object.__setattr__(self, "beta", SparseLevelVector(self.beta))

    @property
    def spatial_dim(self) -> int:
        return len(self.alpha)

    def sort_key(self):
        return (self.alpha, self.beta.items())

    def parents(self) -> Iterable["MixedIndex"]:
        """Immediate predecessors: one component decremented (floor 1)."""
        for i, a in enumerate(self.alpha):
            if a > 1:
                yield MixedIndex(self.alpha[:i] + (a - 1,) + self.alpha[i + 1 :], self.beta)
        for j in self.beta.support:
            yield MixedIndex(self.alpha, self.beta.bump(j, -1))

    def bump_alpha(self, i: int) -> "MixedIndex":
        return MixedIndex(self.alpha[:i] + (self.alpha[i] + 1,) + self.alpha[i + 1 :], self.beta)

    def bump_beta(self, j: int) -> "MixedIndex":
        return MixedIndex(self.alpha, self.beta.bump(j))


def root_index(spatial_dim: int) -> MixedIndex:
    return MixedIndex((1,) * spatial_dim, SparseLevelVector())


def is_downward_closed(members: Iterable[MixedIndex]) -> bool:
    mset = set(members)
    return all(parent in mset for m in mset for parent in m.parents())


def corners(levels: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Signed corners of the binary box below ``levels``.

    One ``(sign, lowered)`` pair for each way of lowering every level
    above 1 by 0 or 1, in lexicographic bit order, with sign
    (-1)^(number lowered).  Levels at 1 are never lowered.
    """
    free = [i for i, v in enumerate(levels) if v > 1]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        lowered = list(levels)
        for i, bit in zip(free, bits):
            lowered[i] -= bit
        out.append(((-1) ** sum(bits), tuple(lowered)))
    return out


def downward_closure(members: Iterable[MixedIndex]) -> set[MixedIndex]:
    closed = set(members)
    stack = list(closed)
    while stack:
        for parent in stack.pop().parents():
            if parent not in closed:
                closed.add(parent)
                stack.append(parent)
    return closed


def dof_work(index: MixedIndex) -> int:
    """Exact incremental cost of one mixed difference: new quadrature
    points times spatial unknowns at the index's own refinement."""
    new_points = math.prod(
        quadrature.new_node_count(b) for _, b in index.beta.items()
    )
    return new_points * pde_solver.unknowns(index.alpha)


class IndexSet:
    """Immutable downward-closed collection of mixed indices.

    Combination coefficients are computed lazily from the members and
    always telescope to 1.
    """

    def __init__(self, members: Iterable[MixedIndex]):
        members = sorted(set(members), key=MixedIndex.sort_key)
        if not members:
            raise IndexSetError("an index set needs at least one member")
        dims = {m.spatial_dim for m in members}
        if len(dims) != 1:
            raise IndexSetError(f"mixed spatial dimensions in one set: {sorted(dims)}")
        if not is_downward_closed(members):
            raise IndexSetError("index set is not downward closed")
        self._members = tuple(members)
        self._member_set = frozenset(members)
        self._coefficients: dict[MixedIndex, int] | None = None

    @property
    def members(self) -> tuple[MixedIndex, ...]:
        return self._members

    @property
    def spatial_dim(self) -> int:
        return self._members[0].spatial_dim

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __contains__(self, index: MixedIndex) -> bool:
        return index in self._member_set

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def active_variables(self) -> tuple[int, ...]:
        out: set[int] = set()
        for m in self._members:
            out.update(m.beta.support)
        return tuple(sorted(out))

    @property
    def coefficients(self) -> dict[MixedIndex, int]:
        if self._coefficients is None:
            self._coefficients = combination_coefficients(self)
        return self._coefficients

    # Diagnostics used by the convergence-study records.
    def max_alpha_level(self) -> int:
        return max(max(m.alpha) for m in self._members)

    def max_beta_level(self) -> int:
        return max(m.beta.max_level() for m in self._members)

    def last_variable(self) -> int:
        return max((m.beta.last_variable() for m in self._members), default=0)

    def max_joint_variables(self) -> int:
        return max(m.beta.active_count() for m in self._members)

    def nominal_work(self) -> int:
        """Total work per the difference-wise decomposition (degrees of freedom)."""
        return sum(dof_work(m) for m in self._members)

    def to_json(self) -> str:
        payload = {
            "spatial_dim": self.spatial_dim,
            "members": [
                {
                    "alpha": list(m.alpha),
                    "beta": {str(j): b for j, b in m.beta.items()},
                    "coeff": self.coefficients[m],
                }
                for m in self._members
            ],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "IndexSet":
        payload = json.loads(text)
        members = [
            MixedIndex(
                tuple(entry["alpha"]),
                SparseLevelVector({int(j): b for j, b in entry["beta"].items()}),
            )
            for entry in payload["members"]
        ]
        return cls(members)


def combination_coefficients(index_set: IndexSet) -> dict[MixedIndex, int]:
    """Signed counts c_m = sum of (-1)^|offset| over binary forward offsets
    with m + offset in the set; over any downward-closed set they sum to 1.

    Computed backwards: each member distributes its sign to the members
    it is a binary offset above, which costs 2^(number of its
    above-base coordinates) instead of 2^(all active directions).
    """
    coeffs: dict[MixedIndex, int] = {m: 0 for m in index_set.members}
    for upper in index_set.members:
        d = upper.spatial_dim
        support = upper.beta.support
        for sign, lowered in corners(upper.alpha + tuple(b for _, b in upper.beta.items())):
            lower = MixedIndex(lowered[:d], SparseLevelVector(zip(support, lowered[d:])))
            if lower in coeffs:
                coeffs[lower] += sign
    return coeffs


@dataclass
class EvalCache:
    """Memoized values of F^alpha at collocation points with hit/miss counters."""

    values: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


@dataclass
class EstimatorResult:
    """Value of one estimator evaluation plus its work accounting."""

    value: float
    work: int              # difference-wise decomposition, in degrees of freedom
    solve_work: int        # degrees of freedom actually solved in this evaluation
    solves: int
    cache_hits: int
    mode: str


class MiscEvaluator:
    """Evaluates mixed differences and whole estimators with a shared cache.

    The uncached points of each tensor grid are solved in one batch;
    with ``threads > 1`` the per-point solves of d > 1 grids run on a
    thread pool.  Every solve is pure and sums are always reduced in a
    fixed deterministic order, so results do not depend on scheduling.
    """

    def __init__(self, field_spec: FieldSpec, qoi_spec: QoISpec, threads: int = 1):
        if field_spec.d != qoi_spec.d:
            raise ValueError("field and observation window disagree on the spatial dimension")
        self.field_spec = field_spec
        self.qoi_spec = qoi_spec
        self.threads = max(1, int(threads))
        self.cache = EvalCache()
        self.solved_dof = 0

    # -- tensor grids ------------------------------------------------------

    def tensor_value(self, alpha: tuple[int, ...], beta: SparseLevelVector) -> float:
        """Full tensor approximation: quadrature at level beta of F^alpha.

        Values are cached under (alpha, point id); the grid's uncached
        points are solved in one batch, and the values are reduced with
        the outer-product quadrature weights.
        """
        support, points, ids, weights = quadrature.tensor_grid(beta)
        keys = [(alpha, point_id) for point_id in ids]
        cached = self.cache.values
        values = [cached.get(k) for k in keys]
        missing = [i for i, v in enumerate(values) if v is None]
        self.cache.hits += len(keys) - len(missing)
        if missing:
            for i, value in zip(missing, self._solve(alpha, support, points[missing])):
                cached[keys[i]] = values[i] = float(value)
            self.cache.misses += len(missing)
            self.solved_dof += len(missing) * pde_solver.unknowns(alpha)
        return float(np.sum(weights * values))

    def _solve(self, alpha: tuple[int, ...], support: tuple[int, ...],
               points: np.ndarray) -> np.ndarray:
        if not support:
            # The y = 0 anchor alone goes through solve_qoi, the per-solve
            # entry point that perfbench/tracer.py counts.
            return np.array([pde_solver.solve_qoi(alpha, {}, self.field_spec, self.qoi_spec)])
        Y = np.zeros((len(points), support[-1]))
        Y[:, np.array(support) - 1] = points
        if self.threads > 1 and len(alpha) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                return np.concatenate(list(pool.map(
                    lambda row: pde_solver.solve_qoi_batch(alpha, row[None], self.field_spec,
                                                           self.qoi_spec),
                    Y,
                )))
        return pde_solver.solve_qoi_batch(alpha, Y, self.field_spec, self.qoi_spec)

    # -- difference operators ----------------------------------------------

    def delta_det(self, alpha: tuple[int, ...], beta: SparseLevelVector) -> float:
        """Spatial mixed difference: alternating sum over the corners below alpha."""
        total = 0.0
        for sign, lowered in corners(alpha):
            total += sign * self.tensor_value(lowered, beta)
        return total

    def mixed_difference(self, index: MixedIndex) -> float:
        """First-order difference in every direction, stochastic around spatial."""
        support = index.beta.support
        total = 0.0
        for sign, lowered in corners(tuple(b for _, b in index.beta.items())):
            total += sign * self.delta_det(index.alpha, SparseLevelVector(zip(support, lowered)))
        return total

    # -- estimator ----------------------------------------------------------

    def evaluate(self, index_set: IndexSet, mode: str = "combination") -> EstimatorResult:
        """Evaluate the estimator in surplus or combination form.

        The two forms agree up to roundoff; the combination form skips
        members with zero coefficient, so it can perform strictly less
        solve work on the same set.
        """
        if mode not in ("surplus", "combination"):
            raise ValueError(f"unknown evaluation mode {mode!r}")
        solves_before = self.cache.misses
        hits_before = self.cache.hits
        work_before = self.solved_dof
        if mode == "surplus":
            value = 0.0
            for m in index_set.members:
                value += self.mixed_difference(m)
        else:
            value = 0.0
            for m in index_set.members:
                c = index_set.coefficients[m]
                if c != 0:
                    value += c * self.tensor_value(m.alpha, m.beta)
        return EstimatorResult(
            value=value,
            work=index_set.nominal_work(),
            solve_work=self.solved_dof - work_before,
            solves=self.cache.misses - solves_before,
            cache_hits=self.cache.hits - hits_before,
            mode=mode,
        )


@dataclass
class MimcResult:
    value: float
    work: int
    level_means: tuple[float, ...]
    level_variances: tuple[float, ...]
    standard_error: float


def mimc_estimate(
    levels: Sequence[Sequence[int]],
    counts: Sequence[int],
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    n_random_vars: int,
    seed: int,
) -> MimcResult:
    """Multi-index Monte Carlo baseline on the same spatial differences.

    Each level contributes the sample mean of the spatial mixed
    difference at uniformly drawn parameters (y_1..y_N); N = 0 makes
    every sample the deterministic difference at y = 0, so the estimate
    telescopes with zero variance.  Fixed seeds reproduce bit-identical
    results.
    """
    if len(levels) != len(counts):
        raise ValueError("levels and sample counts must align")
    if any(c < 1 for c in counts):
        raise ValueError("sample counts must be positive")
    rng = np.random.default_rng(seed)
    evaluator_cost = 0
    means: list[float] = []
    variances: list[float] = []
    total = 0.0
    for alpha, m_samples in zip(levels, counts):
        alpha = pde_solver.validate_alpha(alpha)
        box = corners(alpha)
        corner_cost = sum(pde_solver.unknowns(a) for _, a in box)
        # One (M, N) draw is the same stream as M draws of N.
        draws = rng.uniform(-1.0, 1.0, (m_samples, n_random_vars))
        samples = np.zeros(m_samples)
        for sign, lowered in box:
            samples += sign * pde_solver.solve_qoi_batch(lowered, draws, field_spec, qoi_spec)
        evaluator_cost += m_samples * corner_cost
        if np.all(samples == samples[0]):
            # Zero-variance level (e.g. no sampled variables): the mean is
            # the telescoped value itself, bit-exactly.
            means.append(float(samples[0]))
            variances.append(0.0)
        else:
            means.append(float(samples.mean()))
            variances.append(float(samples.var(ddof=1)) if m_samples > 1 else 0.0)
        total += means[-1]
    stderr = math.sqrt(sum(v / c for v, c in zip(variances, counts)))
    return MimcResult(total, evaluator_cost, tuple(means), tuple(variances), stderr)
