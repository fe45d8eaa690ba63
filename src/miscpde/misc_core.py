"""Mixed difference operators, the combination technique, and estimator evaluation.

A mixed index pairs a dense vector of spatial refinement levels with a
sparse vector of quadrature levels.  The estimator over a downward
closed set is the sum of its mixed differences: over every prefix of a
listing at once, as prefix sums (``MiscEvaluator.prefix_estimates``), or
over one set in surplus or combination form.  All go through
``MiscEvaluator.tensor_values``.  It numbers the nested point blocks of
the quadrature grids (``quadrature.block_points``) once for every
spatial level and takes the grids an evaluation needs one level at a
time: one mask over its block table marks the blocks still to solve,
which are solved in batches of about ``_FLUSH_POINTS`` points; then its
grids of one level tuple are reduced together: their values gathered by
block number, times the shared weights, summed row by row.  No point is
solved twice, and every grid value is cached.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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

    @classmethod
    def _of(cls, alpha: tuple[int, ...], beta: SparseLevelVector) -> "MixedIndex":
        """The index of these valid levels, unchecked."""
        index = cls.__new__(cls)
        object.__setattr__(index, "alpha", alpha)
        object.__setattr__(index, "beta", beta)
        return index

    @property
    def spatial_dim(self) -> int:
        return len(self.alpha)

    def sort_key(self):
        return (self.alpha, self.beta.items())

    def parents(self) -> Iterable["MixedIndex"]:
        """Immediate predecessors: one component decremented (floor 1)."""
        for _, (alpha, beta_items) in _parent_levels(self.alpha, self.beta.items()):
            yield MixedIndex(alpha, SparseLevelVector(beta_items))


def root_index(spatial_dim: int) -> MixedIndex:
    return MixedIndex((1,) * spatial_dim, SparseLevelVector())


def _parent_levels(alpha: tuple[int, ...], beta_items: tuple[tuple[int, int], ...]):
    """``MixedIndex.parents`` on plain (alpha, beta items) tuples, each with
    its direction: -1 - i lowers alpha_i, j lowers beta_j."""
    for i, a in enumerate(alpha):
        if a > 1:
            yield -1 - i, (alpha[:i] + (a - 1,) + alpha[i + 1 :], beta_items)
    for k, (j, b) in enumerate(beta_items):
        lowered = ((j, b - 1),) if b > 2 else ()
        yield j, (alpha, beta_items[:k] + lowered + beta_items[k + 1 :])


def _parent_links(keys: Sequence) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{direction: (parent positions, child positions)} over the sort keys
    ``keys``, children ascending.  One pass numbers the keys by position
    and looks up each key's parents among the keys before it.  No keys,
    mixed spatial dimensions, a repeated key or a parent missing before
    its child raise ``IndexSetError``."""
    dims = {len(alpha) for alpha, _ in keys}
    if len(dims) != 1:
        raise IndexSetError(f"members of one spatial dimension needed, got {sorted(dims)}")
    position = {}
    links: dict[int, tuple[list[int], list[int]]] = {}
    for k, key in enumerate(keys):
        if position.setdefault(key, k) != k:
            raise IndexSetError(f"{key} is listed twice")
        for direction, parent in _parent_levels(*key):
            p = position.get(parent)
            if p is None:
                raise IndexSetError(f"{key} lacks its parent {parent} before it")
            parents, children = links.get(direction) or links.setdefault(direction, ([], []))
            parents.append(p)
            children.append(k)
    return {direction: (np.array(parents), np.array(children))
            for direction, (parents, children) in links.items()}


def corners(levels: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Signed corners of the binary box below ``levels``.

    One ``(sign, lowered)`` pair for each way of lowering every level
    above 1 by 0 or 1, in lexicographic bit order, with sign
    (-1)^(number lowered).  Levels at 1 are never lowered.
    """
    options = [(v, v - 1) if v > 1 else (v,) for v in levels]
    free = sum(len(choice) - 1 for choice in options)
    return list(zip(_corner_signs(free), itertools.product(*options)))


@functools.lru_cache(maxsize=None)
def _corner_signs(free: int) -> tuple[int, ...]:
    return tuple((-1) ** sum(bits) for bits in itertools.product((0, 1), repeat=free))


# new_node_count(b) at every level b a SparseLevelVector can hold, indexed by b.
_NEW_NODES = (0,) + tuple(quadrature.new_node_count(b)
                          for b in range(1, quadrature.MAX_LEVEL + 1))
_NODES = tuple(itertools.accumulate(_NEW_NODES))   # level_to_nodes(b), indexed by b
_unknowns = functools.lru_cache(maxsize=None)(pde_solver.unknowns)


def dof_work(index: MixedIndex) -> int:
    """Exact incremental cost of one mixed difference: new quadrature
    points times spatial unknowns at the index's own refinement.

    A ``MixedIndex`` holds valid levels only, so the counts are read
    from a table and a per-alpha cache without checks."""
    return math.prod([_NEW_NODES[b] for _, b in index.beta.items()]) * _unknowns(index.alpha)


class IndexSet:
    """Immutable downward-closed collection of mixed indices.

    Combination coefficients always telescope to 1; they are computed
    lazily from the parent links among the members.
    """

    def __init__(self, members: Iterable[MixedIndex]):
        # The set is the whole of its listing by total level, which puts
        # parents first: a parent is one level below its child.
        listing = sorted(set(members), key=lambda m: (sum(m.alpha) + m.beta.excess(), m.sort_key()))
        vars(self).update(vars(IndexSet.prefixes(listing, [len(listing)])[0]))

    @classmethod
    def prefixes(cls, listing: Sequence[MixedIndex], lengths: Iterable[int],
                 dofs: Sequence[int] | None = None) -> list["IndexSet"]:
        """The sets of the first n members of ``listing``, one per n in
        ``lengths``.  One pass over the members checks that each one's
        parents come before it, which makes every prefix downward closed;
        a prefix's links are the pass's links with a child position below
        n.  ``dofs``, if given, are the members' ``dof_work``."""
        keys = [m.sort_key() for m in listing]
        links = _parent_links(keys)
        spent = list(itertools.accumulate(dofs)) if dofs is not None else None
        ranked = sorted(range(len(listing)), key=keys.__getitem__)
        sets = []
        for n in lengths:
            if not 1 <= n <= len(listing):
                raise IndexSetError(f"no prefix of length {n} in a listing of {len(listing)}")
            index_set = cls.__new__(cls)
            # The members in sort-key order and their positions in the listing.
            index_set._positions = [k for k in ranked if k < n]
            index_set._members = tuple(map(listing.__getitem__, index_set._positions))
            index_set._links, index_set._work = links, spent and spent[n - 1]
            index_set._member_set = index_set._coefficients = None
            sets.append(index_set)
        return sets

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
        self._member_set = self._member_set or frozenset(self._members)
        return index in self._member_set

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

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
        if self._work is None:
            self._work = sum(dof_work(m) for m in self._members)
        return self._work

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
        """The set written by ``to_json``; every stored ``coeff`` must match
        the coefficient computed from the members."""
        payload = json.loads(text)
        stored = {
            MixedIndex(
                tuple(entry["alpha"]),
                SparseLevelVector({int(j): b for j, b in entry["beta"].items()}),
            ): entry.get("coeff")
            for entry in payload["members"]
        }
        index_set = cls(stored)
        for m in index_set.members:
            if stored[m] != index_set.coefficients[m]:
                raise IndexSetError(
                    f"member {m} stores coefficient {stored[m]!r}, "
                    f"the members give {index_set.coefficients[m]}"
                )
        return index_set


def combination_coefficients(index_set: IndexSet) -> dict[MixedIndex, int]:
    """Signed counts c_m = sum over e in {0,1}^D of (-1)^|e| chi_S(m + e), D
    the spatial and stochastic directions; over a downward-closed S they sum to 1.

    The sum factors as prod_d (I - T_d) chi_S, T_d one level forward in
    direction d: c starts at 1 on S, and each direction takes one signed
    pass over its parent links, c[parent] -= c[child] with the values from
    before the pass, all links at once (a parent has one child in each
    direction).  Every intermediate value stays on S: it is a signed sum
    of chi_S(m + e), and by downward closure m not in S implies m + e not
    in S, so it is 0 off S.  The members come in sort-key order.
    """
    n = len(index_set)
    c = np.ones(n, dtype=np.int64)
    for parents, children in index_set._links.values():
        m = np.searchsorted(children, n)
        c[parents[:m]] -= c[children[:m]]
    return dict(zip(index_set._members, c[index_set._positions].tolist()))


# An alpha's batch in tensor_values ends with the block that brings it to
# this many points: large enough for the per-call cost not to show, while
# a bound of 4096 raised the 1-D benchmark's peak RSS by 1.2 MB.
_FLUSH_POINTS = 1024

# The entry of an alpha's block table (``EvalCache.starts``) for a block
# not solved yet.
_UNSOLVED = -1


@dataclass
class EvalCache:
    """Memoized values of F^alpha at grid points and of whole tensor grids.

    ``values[:size]`` holds the solved point values of every alpha; block k
    of alpha's values starts at ``values[starts[alpha][k]]``, in
    ``quadrature.block_points`` order.  The hit/miss counters count points."""

    grids: dict = field(default_factory=dict)
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    size: int = 0
    starts: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


@dataclass
class EstimatorResult:
    """Value of one estimator evaluation plus its work accounting."""

    value: float
    work: int              # difference-wise decomposition, in degrees of freedom
    solve_work: int        # degrees of freedom actually solved in this evaluation
    solves: int


def _difference_terms(index: MixedIndex) -> list[tuple[int, SparseLevelVector, list]]:
    """The mixed difference at ``index`` as (sign, beta, signed spatial
    corners) for every corner of the stochastic box."""
    support = index.beta.support
    box = corners(index.alpha)
    return [(sign, SparseLevelVector(zip(support, lowered)), box)
            for sign, lowered in corners(tuple(b for _, b in index.beta.items()))]


def _difference_grids(terms) -> list[tuple[tuple[int, ...], SparseLevelVector]]:
    return [(alpha, beta) for _, beta, box in terms for _, alpha in box]


def _difference(terms, values) -> float:
    """The alternating sum of ``terms``, taking grid values from the iterator
    ``values`` in ``_difference_grids`` order: spatial corners innermost."""
    total = 0.0
    for sign, _, box in terms:
        inner = 0.0
        for corner_sign, _ in box:
            inner += corner_sign * next(values)
        total += sign * inner
    return total


class MiscEvaluator:
    """Evaluates mixed differences and whole estimators with a shared cache.

    Every value goes through ``tensor_values``, which caches each tensor
    grid's value under (alpha, beta items) and solves the points of all
    the grids it is given that are new at their alpha, alpha by alpha, in
    batches of about ``_FLUSH_POINTS`` points.  The nested blocks of the
    quadrature grids are numbered once, for every alpha; a grid reads its
    values by one gather through its blocks' starts in alpha's block table.
    """

    def __init__(self, field_spec: FieldSpec, qoi_spec: QoISpec):
        if field_spec.d != qoi_spec.d:
            raise ValueError("field and observation window disagree on the spatial dimension")
        self.field_spec = field_spec
        self.qoi_spec = qoi_spec
        self.cache = EvalCache()
        self.solved_dof = 0
        self._grids: dict[tuple, np.ndarray] = {}   # beta items -> its grid's block numbers
        self._blocks: list[tuple] = []              # block number -> its levels and columns
        self._sizes: list[int] = []                 # block number -> its point count

    # -- tensor grids ------------------------------------------------------

    def _grid(self, items: tuple[tuple[int, int], ...]) -> np.ndarray:
        """The numbers of the nested blocks of the grid with these beta
        items, row-major by block levels (axis k has levels 1 to b_k).  The
        last is the grid's own block, numbered on first use after its
        parents, which hold the blocks below its level on each axis."""
        blocks = self._grids.get(items)
        if blocks is None:
            levels = tuple(b for _, b in items)
            blocks = np.empty(levels, dtype=np.intp)
            for k, (j, b) in enumerate(items):
                blocks[(slice(None),) * k + (slice(b - 1) if b > 2 else 0,)] = self._grid(
                    items[:k] + (((j, b - 1),) if b > 2 else ()) + items[k + 1 :])
            blocks[(-1,) * len(levels)] = len(self._blocks)
            self._grids[items] = blocks
            self._blocks.append((levels, [j - 1 for j, _ in items]))
            self._sizes.append(math.prod(_NEW_NODES[b] for b in levels))
        return blocks

    def tensor_value(self, alpha: tuple[int, ...], beta: SparseLevelVector) -> float:
        """Full tensor approximation: quadrature at level beta of F^alpha."""
        return self.tensor_values([(alpha, beta)])[0]

    def tensor_values(self, grids: Iterable[tuple[tuple[int, ...], SparseLevelVector]]) -> list[float]:
        """Full tensor approximations of every (alpha, beta) in ``grids``.

        A grid evaluated before costs one lookup.  The others are taken one
        alpha at a time: one mask marks the nested blocks they hold that are
        not solved, which go by number into batches of about _FLUSH_POINTS
        points (``_solve_blocks``), each ending at a block boundary; then
        alpha's grids are reduced together by level tuple.  If alpha's first
        grid is the y = 0 grid and its point is new, ``solve_qoi`` solves it
        alone.  No solved row depends on its batch.
        """
        keys = [(alpha, beta.items()) for alpha, beta in grids]
        cache = self.cache
        new_grids: dict[tuple[int, ...], dict] = {}   # alpha -> {level tuple: [(items, blocks)]}
        for alpha, items in dict.fromkeys(keys):
            if (alpha, items) not in cache.grids:
                blocks = self._grid(items)
                new_grids.setdefault(alpha, {}).setdefault(blocks.shape, []).append((items, blocks))
        for alpha, groups in new_grids.items():
            table = cache.starts.get(alpha, np.empty(0, dtype=np.intp))
            if len(table) < len(self._blocks):
                table = cache.starts[alpha] = np.concatenate(
                    (table, np.full(max(len(self._blocks), 2 * len(table)) - len(table), _UNSOLVED)))
            needed = np.zeros(len(table), dtype=bool)
            needed[np.concatenate([b for m in groups.values() for _, b in m], axis=None)] = True
            new = np.flatnonzero(needed & (table == _UNSOLVED))
            misses = cache.misses
            if next(iter(groups)) == () and table[0] == _UNSOLVED:
                # alpha's first grid is y = 0 and its point (block 0 of every
                # grid) is new: solve_qoi, which perfbench/tracer.py counts, solves it.
                value = pde_solver.solve_qoi(alpha, {}, self.field_spec, self.qoi_spec)
                table[0] = self._store(np.array([value]))
                cache.misses += 1
                self.solved_dof += pde_solver.unknowns(alpha)
                new = new[1:]
            numbers, batch, count = new.tolist(), [], 0
            for k in numbers:
                batch.append(k)
                count += self._sizes[k]
                if count >= _FLUSH_POINTS or k == numbers[-1]:
                    self._solve_blocks(alpha, batch)
                    batch, count = [], 0
            # Every point of these grids is a hit unless it was solved here.
            cache.hits -= cache.misses - misses
            for levels, members in groups.items():
                cache.hits += len(members) * math.prod(map(_NODES.__getitem__, levels))
                block, offset, weights = quadrature.block_layout(levels)
                starts = table[np.array([blocks for _, blocks in members])]
                # take keeps the rows C-contiguous, so each row sums as np.sum sums it.
                values = cache.values[np.take(starts.reshape(len(members), -1), block, axis=1) + offset]
                sums = (values * weights).sum(axis=1)
                cache.grids.update(zip([(alpha, items) for items, _ in members], sums.tolist()))
        return [cache.grids[key] for key in keys]

    def _store(self, values: np.ndarray) -> int:
        """Append ``values`` to the cache's point values; returns where they start."""
        cache = self.cache
        start, cache.size = cache.size, cache.size + len(values)
        if cache.size > len(cache.values):
            cache.values = np.resize(cache.values, 2 * cache.size)
        cache.values[start : cache.size] = values
        return start

    def _solve_blocks(self, alpha: tuple[int, ...], numbers: list[int]) -> None:
        """Solve alpha's blocks ``numbers`` in one ``solve_qoi_batch`` call,
        placing the points of each level tuple's blocks by one indexed
        assignment, and enter where their values start in alpha's table."""
        blocks = [self._blocks[k] for k in numbers]
        sizes = np.array([self._sizes[k] for k in numbers])
        starts = np.cumsum(sizes) - sizes
        # Rows end at the batch's last variable; the solver rejects one
        # beyond max_modes as outside the enumerated modes.
        width = max((columns[-1] + 1 for _, columns in blocks if columns), default=0)
        Y = np.zeros((int(sizes.sum()), width))
        by_levels: dict[tuple, list] = {}
        for (levels, columns), start in zip(blocks, starts.tolist()):
            by_levels.setdefault(levels, []).append((start, columns))
        for levels, placed in by_levels.items():
            points = quadrature.block_points(levels)
            rows, cols = (np.array(v, dtype=np.intp) for v in zip(*placed))
            Y[(rows[:, None] + np.arange(len(points)))[..., None], cols[:, None, :]] = points
        base = self._store(pde_solver.solve_qoi_batch(alpha, Y, self.field_spec, self.qoi_spec))
        self.cache.starts[alpha][numbers] = base + starts
        self.cache.misses += len(Y)
        self.solved_dof += len(Y) * pde_solver.unknowns(alpha)

    # -- difference operators ----------------------------------------------

    def delta_det(self, alpha: tuple[int, ...], beta: SparseLevelVector) -> float:
        """Spatial mixed difference: alternating sum over the corners below alpha."""
        terms = [(1, beta, corners(alpha))]
        return _difference(terms, iter(self.tensor_values(_difference_grids(terms))))

    def mixed_difference(self, index: MixedIndex) -> float:
        """First-order difference in every direction, stochastic around spatial."""
        return self.mixed_differences([index])[0]

    def mixed_differences(self, indices: Iterable[MixedIndex]) -> list[float]:
        """``mixed_difference`` at each of ``indices``, their grids in one ``tensor_values`` call."""
        terms = [_difference_terms(index) for index in indices]
        values = iter(self.tensor_values(g for t in terms for g in _difference_grids(t)))
        return [_difference(t, values) for t in terms]

    # -- estimator ----------------------------------------------------------

    def prefix_estimates(self, index_set: IndexSet, lengths: Sequence[int]) -> list[float]:
        """The sums of the mixed differences of the first n members of
        ``index_set``'s listing, for each n in ``lengths``.  The members'
        grid values, from one ``tensor_values`` call, go in listing order;
        one pass per direction over its parent links, D[child] -= D[parent]
        (``combination_coefficients`` backward), turns them into differences."""
        D = np.empty(len(index_set))
        D[index_set._positions] = self.tensor_values((m.alpha, m.beta) for m in index_set._members)
        # A non-finite value (inf - inf) spreads NaN, which study_driver reports.
        with np.errstate(invalid="ignore"):
            for parents, children in index_set._links.values():
                m = np.searchsorted(children, len(D))
                D[children[:m]] -= D[parents[:m]]
        return np.cumsum(D)[np.asarray(lengths) - 1].tolist()

    def evaluate(self, index_set: IndexSet, mode: str = "combination") -> EstimatorResult:
        """Evaluate the estimator in surplus or combination form.

        The two forms agree up to roundoff; the combination form skips
        members with zero coefficient, so it can perform strictly less
        solve work on the same set.  Either form hands all of its grids
        (the corners of every member, or the members with a nonzero
        coefficient) to one ``tensor_values`` call.
        """
        if mode not in ("surplus", "combination"):
            raise ValueError(f"unknown evaluation mode {mode!r}")
        solves_before = self.cache.misses
        work_before = self.solved_dof
        value = 0.0
        if mode == "surplus":
            for difference in self.mixed_differences(index_set.members):
                value += difference
        else:
            weighted = [(c, m) for m, c in index_set.coefficients.items() if c != 0]
            for (c, _), v in zip(weighted, self.tensor_values((m.alpha, m.beta) for _, m in weighted)):
                value += c * v
        return EstimatorResult(
            value=value,
            work=index_set.nominal_work(),
            solve_work=self.solved_dof - work_before,
            solves=self.cache.misses - solves_before,
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
