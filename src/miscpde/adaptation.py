"""Profit-driven construction of estimator index sets and rate fitting.

A mixed index is admitted when its modeled error contribution per unit
of modeled work clears a threshold.  One greedy sweep admits candidates
best profit first, a whole profit class at a time.  Given a threshold,
it stops at the first class below it; given a work budget, it stops at
the first class that would take the set's exact degrees of freedom past
the budget.  Since the order does not depend on the budget, the set of
every budget of a study is a checkpoint of one sweep up to the largest
(``sweep_apriori``), in the manner of dimension-adaptive quadrature
(Gerstner & Griebel, Computing 71, 2003).  Error contributions follow
the fitted exponential decay model C_E * exp(-sum_j m(beta_j - 1) * g_j)
* 2^(-|alpha| * r_fem); work contributions the geometric model
C_W * 2^(sum_i gamma_i d_i alpha_i + |beta - 1|).  A brute-force mode
computes the true difference magnitudes over a small universe instead,
which serves as a benchmark.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import quadrature
from .misc_core import (
    IndexSet,
    MiscEvaluator,
    MixedIndex,
    corners,
    dof_work,
    downward_closure,
    levels_dof_work,
    root_index,
)
from .pde_solver import QoISpec
from .quadrature import SparseLevelVector
from .random_field import FieldSpec


class BudgetError(ValueError):
    """Work budget too small to hold even the root index."""


class RateFitError(ValueError):
    """Least-squares rate fit is not identifiable from the given samples."""

    def __init__(self, message: str, unidentifiable: tuple[int, ...] = ()):
        super().__init__(message)
        self.unidentifiable = unidentifiable


@dataclass(frozen=True)
class WorkModel:
    """Geometric cost model: per-dimension exponents and a constant."""

    gamma: tuple[float, ...]
    dims: tuple[int, ...]
    c_w: float = 1.0

    def __post_init__(self):
        if len(self.gamma) != len(self.dims):
            raise ValueError("gamma and dims must have the same length")
        if any(g < 1 for g in self.gamma):
            raise ValueError("cost exponents gamma must be >= 1")
        if not self.c_w > 0:
            raise ValueError("work constant must be positive")

    @property
    def spatial_dim(self) -> int:
        return len(self.gamma)


def isotropic_work_model(spatial_dim: int, gamma: float = 1.0) -> WorkModel:
    return WorkModel((gamma,) * spatial_dim, (1,) * spatial_dim)


@dataclass(frozen=True)
class ErrorModel:
    """Fitted decay model: spatial rate, per-variable stochastic rates, constant."""

    r_fem: float
    g_tilde: tuple[float, ...]
    c_e: float = 1.0
    residual: float = 0.0

    def __post_init__(self):
        if not self.r_fem > 0:
            raise ValueError("spatial rate must be positive")
        if any(not g > 0 for g in self.g_tilde):
            raise ValueError("stochastic rates must be positive")

    def to_json(self) -> str:
        return json.dumps(
            {
                "r_fem": self.r_fem,
                "c_e": self.c_e,
                "g_tilde": list(self.g_tilde),
                "residual": self.residual,
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "ErrorModel":
        data = json.loads(text)
        return cls(data["r_fem"], tuple(data["g_tilde"]), data["c_e"], data["residual"])


@dataclass(frozen=True)
class ProfitEntry:
    index: MixedIndex
    d_e: float
    d_w: float

    @property
    def profit(self) -> float:
        return self.d_e / self.d_w


def work_contribution(index: MixedIndex, model: WorkModel) -> float:
    """C_W * 2^(sum_i gamma_i d_i alpha_i + |beta - 1|)."""
    return _work(index.alpha, index.beta.items(), model)


def error_contribution_model(index: MixedIndex, model: ErrorModel) -> float:
    """C_E * exp(-sum_j m(beta_j - 1) g_j) * 2^(-|alpha| r_fem)."""
    return _error(index.alpha, index.beta.items(), model)


# The two models on plain (alpha, beta items) tuples, the form the greedy
# sweep keeps its candidates in.

def _work(alpha: tuple[int, ...], beta_items: tuple[tuple[int, int], ...],
          model: WorkModel) -> float:
    exponent = sum(g * d * a for g, d, a in zip(model.gamma, model.dims, alpha))
    exponent += sum(b - 1 for _, b in beta_items)
    return model.c_w * 2.0**exponent


def _error(alpha: tuple[int, ...], beta_items: tuple[tuple[int, int], ...],
           model: ErrorModel) -> float:
    decay = 0.0
    for j, b in beta_items:
        if j > len(model.g_tilde):
            raise IndexError(
                f"variable {j} is active but only {len(model.g_tilde)} stochastic rates are fitted"
            )
        decay += quadrature.level_to_nodes(b - 1) * model.g_tilde[j - 1]
    return model.c_e * math.exp(-decay) * 2.0 ** (-sum(alpha) * model.r_fem)


def profit_entry(index: MixedIndex, work_model: WorkModel, error_model: ErrorModel) -> ProfitEntry:
    return ProfitEntry(
        index,
        error_contribution_model(index, error_model),
        work_contribution(index, work_model),
    )


def _tie_break(index: MixedIndex):
    return (sum(index.alpha) + index.beta.excess(), index.alpha, index.beta.items())


@dataclass
class BuildResult:
    """Constructed set plus the diagnostics the builder saw."""

    index_set: IndexSet
    eps: float                         # smallest admitted profit
    profits: dict[MixedIndex, ProfitEntry]
    flagged: tuple[MixedIndex, ...]    # members present only to restore closure: always
                                       # empty, the greedy sets are closed by construction
    modeled_work: float
    dof_work_total: int
    next_profit: float | None          # best rejected profit; relaxing eps past it grows the set


def _candidate_variables(active: set[int], n_rates: int, frontier_width: int) -> list[int]:
    deepest = max(active, default=0)
    fresh = range(deepest + 1, min(deepest + frontier_width, n_rates) + 1)
    return sorted(set(active) | set(fresh))


def _bump(beta_items: tuple[tuple[int, int], ...], j: int) -> tuple[tuple[int, int], ...]:
    """``SparseLevelVector.bump(j).items()`` on plain items."""
    levels = dict(beta_items)
    levels[j] = levels.get(j, 1) + 1
    return tuple(sorted(levels.items()))


def build_set_apriori(
    work_model: WorkModel,
    error_model: ErrorModel,
    epsilon: float | None = None,
    work_budget: float | None = None,
    frontier_width: int = 2,
    universe: IndexSet | None = None,
) -> BuildResult:
    """Profit-threshold set construction from the a-priori models.

    Exactly one of ``epsilon`` (threshold mode) and ``work_budget``
    (budget mode) must be given.  Candidates are admitted best-profit
    first, one whole profit class at a time; because every rate is
    positive, profit decreases strictly along every coordinate, so the
    set is downward closed by construction.  Threshold mode stops at the
    first class whose profit is below ``epsilon``.  Budget mode stops at
    the first class that would take the exact degrees of freedom of the
    set above the budget; nothing is bisected, and a class that fits
    exactly is admitted.  New stochastic variables enter the candidate
    pool in mode order, at most ``frontier_width`` beyond the deepest
    variable activated so far.  An optional ``universe`` restricts the
    candidates, which makes the result comparable to a brute-force
    benchmark over the same universe.  This is the one-checkpoint case
    of ``sweep_apriori``.
    """
    if (epsilon is None) == (work_budget is None):
        raise ValueError("give exactly one of epsilon and work_budget")
    if work_budget is not None:
        return sweep_apriori(work_model, error_model, [work_budget], frontier_width, universe)[0]
    return _sweep(work_model, error_model, [lambda profit, dof: profit < epsilon],
                  frontier_width, universe)[0]


def sweep_apriori(
    work_model: WorkModel,
    error_model: ErrorModel,
    budgets: Sequence[float],
    frontier_width: int = 2,
    universe: IndexSet | None = None,
) -> list[BuildResult]:
    """Budget-mode sets for several strictly increasing budgets from one sweep.

    The greedy order does not depend on the budget, so the set of each
    budget is a prefix of the sweep for the largest one.  Entry k is
    checkpointed where ``build_set_apriori(work_budget=budgets[k])``
    stops, at the first profit class that would overflow that budget,
    and equals its result member for member, coefficient for
    coefficient and in every diagnostic.
    """
    budgets = list(budgets)
    if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must be non-empty and strictly increasing, got {budgets}")
    root = root_index(work_model.spatial_dim)
    if dof_work(root) > budgets[0]:
        raise BudgetError(
            f"budget {budgets[0]} cannot hold the root index (work {dof_work(root)})"
        )
    stops = [lambda profit, dof, budget=budget: dof > budget for budget in budgets]
    return _sweep(work_model, error_model, stops, frontier_width, universe)


def _sweep(work_model: WorkModel, error_model: ErrorModel, stops: list,
           frontier_width: int, universe: IndexSet | None) -> list[BuildResult]:
    """The greedy profit sweep, checkpointed once per stop rule.

    The root is always admitted.  Then candidates leave the heap one
    profit class at a time, best first.  Before a class is admitted the
    current rule ``stop(profit, dof)`` sees its profit and the degrees
    of freedom the set would total with it; when the rule holds, the set
    as it stands is checkpointed with ``next_profit = profit`` and the
    next rule takes over.  When no candidate is left, every remaining
    rule checkpoints the whole set with ``next_profit = None``.  The
    order of admission within a class changes no result.

    Candidates are plain ``(alpha, beta items)`` tuples; only admitted
    members become ``MixedIndex`` objects.  Combination coefficients are
    updated as members are admitted: admitting m adds (-1)^|e| to
    c[m - e] over the binary box below m.
    """
    n_rates = len(error_model.g_tilde)
    allowed = None if universe is None else {(m.alpha, m.beta.items()) for m in universe}
    seen: set = set()
    heap: list = []
    admitted: dict[MixedIndex, ProfitEntry] = {}   # in admission order
    # Members and their coefficients keyed by the dense level vector
    # alpha + (beta_1, ..., beta_n), whose binary box `corners` gives.
    members: dict[tuple[int, ...], MixedIndex] = {}
    coefficients: dict[tuple[int, ...], int] = {}
    spent_dof = 0
    eps = math.inf
    active: set[int] = set()
    offered = _candidate_variables(active, n_rates, frontier_width)

    def push(alpha, items) -> None:
        if (alpha, items) in seen or (allowed is not None and (alpha, items) not in allowed):
            return
        seen.add((alpha, items))
        d_e = _error(alpha, items, error_model)
        d_w = _work(alpha, items, work_model)
        heapq.heappush(heap, (-(d_e / d_w), alpha, items, d_e, d_w))

    def admit(alpha, items, d_e: float, d_w: float, dof: int) -> None:
        nonlocal spent_dof, eps, offered
        index = MixedIndex(alpha, SparseLevelVector(items))
        entry = ProfitEntry(index, d_e, d_w)
        admitted[index] = entry
        spent_dof += dof
        eps = min(eps, entry.profit)
        levels = dict(items)
        dense = alpha + tuple(levels.get(j, 1) for j in range(1, n_rates + 1))
        members[dense] = index
        for sign, lower in corners(dense):
            coefficients[lower] = coefficients.get(lower, 0) + sign
        for i in range(len(alpha)):
            push(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :], items)
        for j in offered:
            push(alpha, _bump(items, j))
        if not levels.keys() <= active:
            active.update(levels)
            grown = _candidate_variables(active, n_rates, frontier_width)
            if grown != offered:
                # The variable frontier moved: offer the fresh directions
                # to everything admitted so far, not just future members.
                fresh = [j for j in grown if j not in offered]
                offered = grown
                for member in admitted:
                    for j in fresh:
                        push(member.alpha, _bump(member.beta.items(), j))

    def checkpoint(next_profit: float | None) -> BuildResult:
        index_set = IndexSet(admitted, coefficients={
            index: coefficients.get(key, 0) for key, index in members.items()
        })
        return BuildResult(
            index_set=index_set,
            eps=eps,
            profits=dict(admitted),
            flagged=(),
            modeled_work=sum(entry.d_w for entry in admitted.values()),
            dof_work_total=spent_dof,
            next_profit=next_profit,
        )

    root = (1,) * work_model.spatial_dim
    admit(root, (), _error(root, (), error_model), _work(root, (), work_model),
          levels_dof_work(root, ()))
    results: list[BuildResult] = []
    rules = iter(stops)
    stop = next(rules)
    while True:
        group = []
        if heap:
            group = [heapq.heappop(heap)]
            while heap and heap[0][0] == group[0][0]:
                group.append(heapq.heappop(heap))
        dofs = [levels_dof_work(alpha, items) for _, alpha, items, _, _ in group]
        profit = -group[0][0] if group else None
        while stop is not None and (not group or stop(profit, spent_dof + sum(dofs))):
            results.append(checkpoint(profit))
            stop = next(rules, None)
        if stop is None:
            return results
        for (_, alpha, items, d_e, d_w), dof in zip(group, dofs):
            admit(alpha, items, d_e, d_w, dof)


BRUTE_FORCE_CAP = 500


@dataclass
class BruteForceResult:
    index_set: IndexSet
    eps: float
    profits: dict[MixedIndex, ProfitEntry]   # actual |difference| over actual work
    modeled_profits: dict[MixedIndex, float]  # same numerator over the geometric work model
    flagged: tuple[MixedIndex, ...]
    dof_work_total: int


def build_set_bruteforce(
    universe: IndexSet,
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    epsilon: float | None = None,
    work_budget: float | None = None,
    evaluator: MiscEvaluator | None = None,
    work_model: WorkModel | None = None,
) -> BruteForceResult:
    """Benchmark construction from exact difference magnitudes.

    Every universe member is evaluated once (the universe must be small:
    at most 500 members), profits are the actual |mixed difference| per
    degree of freedom, and selection is greedy by profit.  Threshold
    mode closes the selection downward afterwards, flagging the members
    added only for closure; budget mode only ever admits candidates
    whose predecessors are already in, so it needs no repair.
    """
    if (epsilon is None) == (work_budget is None):
        raise ValueError("give exactly one of epsilon and work_budget")
    if len(universe) > BRUTE_FORCE_CAP:
        raise ValueError(f"universe has {len(universe)} members, cap is {BRUTE_FORCE_CAP}")
    evaluator = evaluator or MiscEvaluator(field_spec, qoi_spec)
    work_model = work_model or isotropic_work_model(universe.spatial_dim)
    entries: dict[MixedIndex, ProfitEntry] = {}
    modeled: dict[MixedIndex, float] = {}
    for m in universe.members:
        d_e = abs(evaluator.mixed_difference(m))
        entries[m] = ProfitEntry(m, d_e, float(dof_work(m)))
        modeled[m] = d_e / work_contribution(m, work_model)

    root = root_index(universe.spatial_dim)
    if epsilon is not None:
        selected = {m for m, e in entries.items() if e.profit >= epsilon}
        selected.add(root)
        closed = downward_closure(selected)
        flagged = tuple(sorted(closed - selected, key=MixedIndex.sort_key))
        eps_effective = epsilon
    else:
        if dof_work(root) > work_budget:
            raise BudgetError(f"budget {work_budget} cannot hold the root index")
        closed = {root}
        spent = dof_work(root)
        eps_effective = entries[root].profit
        while True:
            frontier = [
                m for m in universe.members
                if m not in closed and all(p in closed for p in m.parents())
                and spent + dof_work(m) <= work_budget
            ]
            if not frontier:
                break
            best = min(frontier, key=lambda m: (-entries[m].profit, _tie_break(m)))
            closed.add(best)
            spent += dof_work(best)
            eps_effective = entries[best].profit
        flagged = ()
    index_set = IndexSet(closed)
    return BruteForceResult(
        index_set=index_set,
        eps=eps_effective,
        profits=entries,
        modeled_profits=modeled,
        flagged=flagged,
        dof_work_total=index_set.nominal_work(),
    )


def box_universe(spatial_dim: int, max_alpha: int, max_beta: int, n_vars: int) -> IndexSet:
    """Small rectangular universe for brute-force benchmarking."""
    import itertools as it

    members = []
    for alpha in it.product(range(1, max_alpha + 1), repeat=spatial_dim):
        for levels in it.product(range(1, max_beta + 1), repeat=n_vars):
            beta = SparseLevelVector({j + 1: b for j, b in enumerate(levels)})
            members.append(MixedIndex(alpha, beta))
    return IndexSet(members)


def fit_rates(samples: Iterable[tuple[MixedIndex, float]], r_fem: float) -> ErrorModel:
    """Least-squares fit of the stochastic rates and the model constant.

    Fits log C_E and g_j to
    -log|D| - |alpha| * r_fem * log 2 = -log C_E + sum_j m(beta_j - 1) g_j
    over the samples; exact duplicates collapse to one row, so
    duplicated pilot data cannot skew the fit.  Raises when a rate is
    not identifiable from the sample design.
    """
    unique: dict[MixedIndex, float] = {}
    for index, value in samples:
        if index in unique and unique[index] != value:
            raise RateFitError(f"conflicting sample values for {index}")
        unique[index] = value
    if not unique:
        raise RateFitError("no samples")
    if any(not v > 0 for v in unique.values()):
        raise RateFitError("difference magnitudes must be positive to take logarithms")

    variables = sorted({j for index in unique for j in index.beta.support})
    if not variables:
        raise RateFitError("no sample activates any stochastic variable")
    missing = [j for j in range(1, max(variables) + 1) if j not in variables]
    if missing:
        raise RateFitError(
            f"no samples activate variables {missing}", unidentifiable=tuple(missing)
        )

    rows = []
    targets = []
    for index, value in sorted(unique.items(), key=lambda kv: kv[0].sort_key()):
        row = [1.0] + [float(quadrature.level_to_nodes(index.beta.level(j) - 1)) for j in variables]
        rows.append(row)
        targets.append(-math.log(value) - sum(index.alpha) * r_fem * math.log(2.0))
    design = np.asarray(rows)
    target = np.asarray(targets)
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        _, sig, vt = np.linalg.svd(design)
        null = vt[rank:]
        implicated = [
            variables[i - 1]
            for i in range(1, design.shape[1])
            if np.abs(null[:, i]).max() > 1e-8
        ]
        raise RateFitError(
            f"rate fit is rank deficient; unidentifiable variables: {implicated}",
            unidentifiable=tuple(implicated),
        )
    residual = float(np.linalg.norm(design @ solution - target))
    g = solution[1:]
    if any(not gj > 0 for gj in g):
        raise RateFitError(f"fitted nonpositive stochastic rate(s): {g.tolist()}")
    return ErrorModel(
        r_fem=r_fem,
        g_tilde=tuple(float(v) for v in g),
        c_e=math.exp(-float(solution[0])),
        residual=residual,
    )


def pilot_samples(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    n_modes: int,
    depth: int,
    evaluator: MiscEvaluator | None = None,
    include_spatial: bool | None = None,
    include_mixed: bool | None = None,
) -> list[tuple[MixedIndex, float]]:
    """Pilot sweeps: per-variable quadrature levels, a spatial diagonal,
    and joint diagonals.

    The quadrature sweeps beta_j = 2 .. depth + 1 identify each g_j
    together with the shared constant; each runs at the coarsest mesh
    resolving the variable's frequency.  The spatial diagonal
    alpha = (1 + t) * 1 and the joint diagonals add rows that tie the
    constant to the given spatial rate.  Both default to one dimension
    only: in higher dimensions the product model misfits the isotropic
    spatial family badly enough to drive fitted rates negative, so the
    minimal identifiable design is the safe default there (the joint
    family also stays at depth 1 beyond one dimension, where its meshes
    get expensive).  Differences that rapid decay has pushed below the
    floating-point noise floor carry no rate information and are
    dropped; each variable keeps at least its first sweep level.
    """
    if depth < 2:
        raise ValueError("pilot depth must be at least 2 to identify rates and constant")
    if n_modes > field_spec.max_modes:
        raise ValueError("cannot sweep more variables than the field enumerates")
    if include_spatial is None:
        include_spatial = field_spec.d == 1
    if include_mixed is None:
        include_mixed = field_spec.d == 1
    evaluator = evaluator or MiscEvaluator(field_spec, qoi_spec)
    from .random_field import mode_ordering

    modes = mode_ordering(field_spec)
    base = abs(evaluator.tensor_value((1,) * field_spec.d, SparseLevelVector()))
    floor = 1e-13 * max(1.0, base)
    out = []

    def sweep(indices):
        kept_any = False
        for index in indices:
            value = abs(evaluator.mixed_difference(index))
            if value <= floor:
                if kept_any:
                    break
                raise RateFitError(
                    f"pilot difference at {index} ({value:.3e}) is below the noise floor; "
                    "the rate is not measurable at this resolution"
                )
            out.append((index, value))
            kept_any = True

    for j in range(1, n_modes + 1):
        alpha = (pilot_level(max(modes[j - 1].k)),) * field_spec.d
        sweep(MixedIndex(alpha, SparseLevelVector({j: 1 + t})) for t in range(1, depth + 1))
    if include_spatial:
        sweep(MixedIndex(((1 + t),) * field_spec.d, SparseLevelVector())
              for t in range(1, depth + 1))
    if include_mixed:
        mixed_depth = depth if field_spec.d == 1 else 1
        base_level = pilot_level(max(modes[0].k))
        sweep(MixedIndex((base_level + t,) * field_spec.d, SparseLevelVector({1: 1 + t}))
              for t in range(1, mixed_depth + 1))
    return out


def pilot_level(k_max: int) -> int:
    """Coarsest mesh level whose midpoint lattice resolves frequency k_max.

    The coarse grids sample trigonometric modes at nodes and cell
    midpoints; a mode with k a multiple of the lattice density vanishes
    identically there and its rate is unmeasurable.  Requiring
    3 * 2^level >= 2 k + 2 keeps the sampling above that resonance.
    """
    level = 1
    while 3 * 2**level < 2 * k_max + 2:
        level += 1
    return level
