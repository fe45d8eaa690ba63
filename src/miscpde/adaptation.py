"""Profit-driven construction of estimator index sets and rate fitting.

A mixed index's profit is its modeled error contribution per unit of
modeled work.  One greedy sweep admits candidates best profit first, a
whole profit class at a time, and stops at the first class that would
take the set's exact degrees of freedom past the work budget.  Since
the order does not depend on the budget, the set of every budget of a
study is a checkpoint of one sweep up to the largest
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
    dof_work,
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
    exponent = sum(g * d * a for g, d, a in zip(model.gamma, model.dims, index.alpha))
    exponent += sum(b - 1 for _, b in index.beta.items())
    return model.c_w * 2.0**exponent


def error_contribution_model(index: MixedIndex, model: ErrorModel) -> float:
    """C_E * exp(-sum_j m(beta_j - 1) g_j) * 2^(-|alpha| r_fem)."""
    decay = 0.0
    for j, b in index.beta.items():
        if j > len(model.g_tilde):
            raise IndexError(
                f"variable {j} is active but only {len(model.g_tilde)} stochastic rates are fitted"
            )
        decay += quadrature.level_to_nodes(b - 1) * model.g_tilde[j - 1]
    return model.c_e * math.exp(-decay) * 2.0 ** (-sum(index.alpha) * model.r_fem)


def _tie_break(index: MixedIndex):
    return (sum(index.alpha) + index.beta.excess(), index.alpha, index.beta.items())


@dataclass
class BuildResult:
    """Constructed set plus the diagnostics the builder saw."""

    index_set: IndexSet
    eps: float                         # smallest admitted profit
    profits: dict[MixedIndex, ProfitEntry]
    dof_work_total: int
    next_profit: float | None          # profit of the first class over the budget; None if none was left


def _candidate_variables(active: set[int], n_rates: int, frontier_width: int) -> list[int]:
    deepest = max(active, default=0)
    fresh = range(deepest + 1, min(deepest + frontier_width, n_rates) + 1)
    return sorted(set(active) | set(fresh))


def _bumps(beta_items: tuple[tuple[int, int], ...], variables: Iterable[int]):
    """``beta_items`` with each of the ascending ``variables`` raised one
    level in turn."""
    k, n = 0, len(beta_items)
    for j in variables:
        while k < n and beta_items[k][0] < j:
            k += 1
        if k < n and beta_items[k][0] == j:
            yield beta_items[:k] + ((j, beta_items[k][1] + 1),) + beta_items[k + 1 :]
        else:
            yield beta_items[:k] + ((j, 2),) + beta_items[k:]


def build_set_apriori(
    work_model: WorkModel,
    error_model: ErrorModel,
    work_budget: float,
    frontier_width: int = 2,
    universe: IndexSet | None = None,
) -> BuildResult:
    """The set of one work budget: ``sweep_apriori`` with one checkpoint."""
    return sweep_apriori(work_model, error_model, [work_budget], frontier_width, universe)[0]


def sweep_apriori(
    work_model: WorkModel,
    error_model: ErrorModel,
    budgets: Sequence[float],
    frontier_width: int = 2,
    universe: IndexSet | None = None,
) -> list[BuildResult]:
    """The sets of several strictly increasing work budgets from one greedy sweep.

    The root is always admitted.  Then candidates leave the heap one
    profit class at a time, best first.  Only admissible candidates are
    offered: each admitted member offers its children, and a child
    enters the heap, with its profit computed, once all its parents are
    in (the admissible frontier of Gerstner & Griebel, Computing 71,
    2003), so every set is downward closed by construction.  Because
    every rate is positive, a parent's profit is strictly higher than
    its child's, so the best candidate is always admissible and
    offering the others early would change no admission.  Before a class
    is admitted, every budget that the set's exact degrees of freedom
    would exceed with it checkpoints the set as it stands, with
    ``next_profit`` the class's profit; nothing is bisected, and a class
    that fits a budget exactly is admitted.  When no candidate is left,
    every remaining budget checkpoints the whole set with
    ``next_profit = None``.  The order of admission within a class
    changes no result.  The greedy order does not depend on the
    budgets, so entry k equals the one-budget build of ``budgets[k]``
    member for member and in every diagnostic.

    New stochastic variables enter the candidate pool in mode order, at
    most ``frontier_width`` (at least 1) beyond the deepest variable
    activated so far.  An optional ``universe`` restricts the
    candidates, which makes the result comparable to a brute-force
    benchmark over the same universe.  Candidates are plain
    ``(alpha, beta items)`` tuples until they leave the heap.
    """
    budgets = list(budgets)
    if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must be non-empty and strictly increasing, got {budgets}")
    if frontier_width < 1:
        raise ValueError(f"frontier_width must be at least 1, got {frontier_width}")
    root = (1,) * work_model.spatial_dim
    root_dof = dof_work(MixedIndex(root, SparseLevelVector()))
    if root_dof > budgets[0]:
        raise BudgetError(f"budget {budgets[0]} cannot hold the root index (work {root_dof})")
    n_rates = len(error_model.g_tilde)
    allowed = None if universe is None else {(m.alpha, m.beta.items()) for m in universe}
    # The terms of ``error_contribution_model`` and ``work_contribution``,
    # memoized: the same float expressions, combined in the same order, so
    # each profit is bit-identical.
    alpha_terms: dict = {}    # alpha -> (2^(-|alpha| r_fem), work exponent)
    decay_terms: dict = {}    # (j, b) -> m(b - 1) * g_j
    waiting: dict = {}        # candidate -> parents in so far, while some are not
    heap: list = []
    admitted: dict[MixedIndex, ProfitEntry] = {}   # in admission order
    covered: dict[int, int] = {}   # dropped variable -> leading members that offered it
    spent_dof = 0
    eps = math.inf
    active: set[int] = set()
    offered = _candidate_variables(active, n_rates, frontier_width)

    def profit_terms(alpha, items, excess: int) -> tuple[float, float]:
        terms = alpha_terms.get(alpha)
        if terms is None:
            terms = alpha_terms[alpha] = (
                2.0 ** (-sum(alpha) * error_model.r_fem),
                sum(g * d * a for g, d, a in zip(work_model.gamma, work_model.dims, alpha)),
            )
        decay = 0.0
        for item in items:
            term = decay_terms.get(item)
            if term is None:
                j, b = item
                term = decay_terms[item] = (
                    quadrature.level_to_nodes(b - 1) * error_model.g_tilde[j - 1])
            decay += term
        return (error_model.c_e * math.exp(-decay) * terms[0],
                work_model.c_w * 2.0 ** (terms[1] + excess))

    def offer(alpha, items, n_parents: int, excess: int) -> None:
        """One more of the ``n_parents`` parents of (alpha, items) is in."""
        key = (alpha, items)
        if allowed is not None and key not in allowed:
            return
        if n_parents > 1:
            count = waiting.get(key, 0) + 1
            if count < n_parents:
                waiting[key] = count
                return
            del waiting[key]
        d_e, d_w = profit_terms(alpha, items, excess)
        heapq.heappush(heap, (-(d_e / d_w), alpha, items, d_e, d_w))

    def offer_bumps(index: MixedIndex, variables) -> None:
        # A child's parents: one per spatial level above 1, one per variable.
        n_alpha, excess = sum(a > 1 for a in index.alpha), index.beta.excess() + 1
        for child in _bumps(index.beta.items(), variables):
            offer(index.alpha, child, n_alpha + len(child), excess)

    def admit(index: MixedIndex, d_e: float, d_w: float, dof: int) -> None:
        nonlocal spent_dof, eps, offered
        entry = ProfitEntry(index, d_e, d_w)
        admitted[index] = entry
        spent_dof += dof
        eps = min(eps, entry.profit)
        alpha, items = index.alpha, index.beta.items()
        n_parents, excess = sum(a > 1 for a in alpha) + len(items), index.beta.excess()
        for i, a in enumerate(alpha):
            offer(alpha[:i] + (a + 1,) + alpha[i + 1 :], items, n_parents + (a == 1), excess)
        offer_bumps(index, offered)
        variables = {j for j, _ in items}
        if not variables <= active:
            active.update(variables)
            grown = _candidate_variables(active, n_rates, frontier_width)
            if grown != offered:
                # The variable frontier moved.  Every member admitted so
                # far has offered each dropped variable; each fresh one
                # goes to the members that have not offered it yet.
                for j in offered:
                    if j not in grown:
                        covered[j] = len(admitted)
                fresh = [j for j in grown if j not in offered]
                offered = grown
                for j in fresh:
                    for member in list(admitted)[covered.pop(j, 0):]:
                        offer_bumps(member, (j,))

    def checkpoint(next_profit: float | None) -> BuildResult:
        return BuildResult(
            index_set=IndexSet(admitted),
            eps=eps,
            profits=dict(admitted),
            dof_work_total=spent_dof,
            next_profit=next_profit,
        )

    admit(MixedIndex(root, SparseLevelVector()), *profit_terms(root, (), 0), root_dof)
    results: list[BuildResult] = []
    while True:
        group = []
        if heap:
            group = [heapq.heappop(heap)]
            while heap and heap[0][0] == group[0][0]:
                group.append(heapq.heappop(heap))
        indices = [MixedIndex(alpha, SparseLevelVector(items)) for _, alpha, items, _, _ in group]
        dofs = [dof_work(index) for index in indices]
        profit = -group[0][0] if group else None
        while len(results) < len(budgets) and (
                not group or spent_dof + sum(dofs) > budgets[len(results)]):
            results.append(checkpoint(profit))
        if len(results) == len(budgets):
            return results
        for (_, _, _, d_e, d_w), index, dof in zip(group, indices, dofs):
            admit(index, d_e, d_w, dof)


BRUTE_FORCE_CAP = 500


@dataclass
class BruteForceResult:
    index_set: IndexSet
    eps: float
    profits: dict[MixedIndex, ProfitEntry]   # actual |difference| over actual work
    dof_work_total: int


def build_set_bruteforce(
    universe: IndexSet,
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    work_budget: float,
    evaluator: MiscEvaluator | None = None,
) -> BruteForceResult:
    """Benchmark construction from exact difference magnitudes.

    Every universe member is evaluated once (the universe must be small:
    at most 500 members), profits are the actual |mixed difference| per
    degree of freedom, and selection is greedy by profit within the work
    budget.  A member becomes a candidate once all its parents are in,
    so the set is downward closed by construction.  The best candidate
    is admitted if it fits the budget and dropped for good if it does
    not, since the work spent only grows; the greedy then goes on with
    the next best.
    """
    if len(universe) > BRUTE_FORCE_CAP:
        raise ValueError(f"universe has {len(universe)} members, cap is {BRUTE_FORCE_CAP}")
    root = root_index(universe.spatial_dim)
    if dof_work(root) > work_budget:
        raise BudgetError(f"budget {work_budget} cannot hold the root index")
    evaluator = evaluator or MiscEvaluator(field_spec, qoi_spec)
    entries: dict[MixedIndex, ProfitEntry] = {}
    for m in universe.members:
        entries[m] = ProfitEntry(m, abs(evaluator.mixed_difference(m)), float(dof_work(m)))
    waiting: dict[MixedIndex, int] = {}            # member -> parents not in yet
    children: dict[MixedIndex, list[MixedIndex]] = {}
    for m in universe.members:
        parents = list(m.parents())
        waiting[m] = len(parents)
        for parent in parents:
            children.setdefault(parent, []).append(m)

    def candidate(m: MixedIndex):
        return (-entries[m].profit, _tie_break(m), m)

    heap = [candidate(root)]
    admitted = []
    spent = 0
    while heap:
        _, _, best = heapq.heappop(heap)
        if spent + dof_work(best) > work_budget:
            continue
        admitted.append(best)
        spent += dof_work(best)
        for child in children.get(best, ()):
            waiting[child] -= 1
            if not waiting[child]:
                heapq.heappush(heap, candidate(child))
    index_set = IndexSet(admitted)
    return BruteForceResult(
        index_set=index_set,
        eps=entries[admitted[-1]].profit,
        profits=entries,
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
) -> list[tuple[MixedIndex, float]]:
    """Pilot sweeps: per-variable quadrature levels, a spatial diagonal,
    and joint diagonals.

    The quadrature sweeps beta_j = 2 .. depth + 1 identify each g_j
    together with the shared constant; each runs at the coarsest mesh
    resolving the variable's frequency.  The spatial diagonal
    alpha = (1 + t) * 1 and the joint diagonals add rows that tie the
    constant to the given spatial rate.  Both run in one dimension
    only: in higher dimensions the product model misfits the isotropic
    spatial family badly enough to drive fitted rates negative, so the
    minimal identifiable design is used there.  Differences that rapid
    decay has pushed below the floating-point noise floor carry no rate
    information and are dropped; each variable keeps at least its first
    sweep level.
    """
    if depth < 2:
        raise ValueError("pilot depth must be at least 2 to identify rates and constant")
    if n_modes > field_spec.max_modes:
        raise ValueError("cannot sweep more variables than the field enumerates")
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
    if field_spec.d == 1:
        sweep(MixedIndex((1 + t,), SparseLevelVector()) for t in range(1, depth + 1))
        base_level = pilot_level(max(modes[0].k))
        sweep(MixedIndex((base_level + t,), SparseLevelVector({1: 1 + t}))
              for t in range(1, depth + 1))
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
