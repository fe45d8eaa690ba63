"""Profit-driven construction of estimator index sets and rate fitting.

A mixed index's profit is its modeled error contribution per unit of
modeled work.  MISC keeps the mixed differences by the knapsack rule of
arXiv:1511.05393, as for quasi-optimal sparse grids (Nobile, Tamellini
& Tempone, Numer. Math. 2016): every index whose profit clears a
threshold.  Error contributions follow the fitted exponential decay
model C_E * exp(-sum_j m(beta_j - 1) * g_j) * 2^(-|alpha| * r_fem);
work contributions the paper's model 2^(sum_i d_i gamma_i alpha_i +
|beta - 1|) with one spatial direction per axis, the solver's one cost
exponent gamma and unit constant: 2^(sum_i gamma alpha_i + |beta - 1|).
The profit is then a product of one factor per coordinate, each below
1 above the base level, so every threshold set is downward closed and
a walk over the coordinates lists it directly (``sweep_apriori``).  The
set of a work budget is the longest run of whole profit classes, best
first, whose exact degrees of freedom fit; the sets of all the budgets
of a study are prefixes of one listing.  The dimension-adaptive builder
(``build_set_adaptive``) admits by measured difference magnitudes
instead, growing its candidates from the admitted members.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import quadrature
from .misc_core import (
    _NEW_NODES,
    _NODES,
    IndexSet,
    MiscEvaluator,
    MixedIndex,
    _unknowns,
    dof_work,
    root_index,
)
from .pde_solver import QoISpec
from .quadrature import SparseLevelVector
from .random_field import FieldSpec, mode_ordering


class BudgetError(ValueError):
    """Work budget too small to hold even the root index."""


class RateFitError(ValueError):
    """Least-squares rate fit is not identifiable from the given samples."""

    def __init__(self, message: str, unidentifiable: tuple[int, ...] = ()):
        super().__init__(message)
        self.unidentifiable = unidentifiable


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
        if not 0 < self.c_e < math.inf:
            raise ValueError(f"model constant c_e must be positive and finite, got {self.c_e}")

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


def work_contribution(index: MixedIndex, gamma: float = 1.0) -> float:
    """2^(sum_i gamma * alpha_i + |beta - 1|)."""
    exponent = sum(gamma * a for a in index.alpha)
    exponent += sum(b - 1 for _, b in index.beta.items())
    return 2.0**exponent


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


# Slack on the walk's log-profit bounds, far above the rounding of their
# float sums, so that no candidate above the cut is missed.
_SLACK = 1e-9
_LN2 = math.log(2.0)


def build_set_apriori(error_model: ErrorModel, work_budget: float, d: int,
                      gamma: float = 1.0) -> IndexSet:
    """The set of one work budget: ``sweep_apriori`` with one checkpoint."""
    return sweep_apriori(error_model, [work_budget], d, gamma)[0]


def sweep_apriori(error_model: ErrorModel, budgets: Sequence[float], d: int,
                  gamma: float = 1.0) -> list[IndexSet]:
    """The sets of several strictly increasing work budgets in ``d``
    spatial dimensions: prefixes of one listing, by (-profit, alpha,
    beta items), of the mixed indices over the fitted variables whose
    profit clears a cut (``_walk``).

    A budget's set is the longest prefix of whole profit classes whose
    exact DOF fit.  Each profit factor is below 1 above the base level,
    so parents come before children and every prefix is downward closed.
    Profits are the float expressions of ``error_contribution_model``
    over ``work_contribution``, so classes are exact and entry k equals
    the build of ``budgets[k]`` alone.  A listed candidate past
    ``quadrature.MAX_LEVEL`` raises ``QuadratureLevelError``.
    """
    budgets = list(budgets)
    if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must be non-empty and strictly increasing, got {budgets}")
    if not gamma >= 1:
        raise ValueError(f"the cost exponent gamma must be >= 1, got {gamma}")
    root_dof = dof_work(root_index(d))
    if root_dof > budgets[0]:
        raise BudgetError(f"budget {budgets[0]} cannot hold the root index (work {root_dof})")
    listing = sorted(_walk(error_model, budgets[-1], d, gamma)[0])
    vectors = {items: SparseLevelVector(items) for items in {row[2] for row in listing}}
    # The size of the listing up to the end of each profit class, and its DOF.
    sizes, totals = [], []
    for k, spent in enumerate(itertools.accumulate(row[3] for row in listing)):
        if k + 1 == len(listing) or listing[k + 1][0] != listing[k][0]:
            sizes.append(k + 1)
            totals.append(spent)
    ends = [bisect.bisect_right(totals, budget) - 1 for budget in budgets]
    # The walk lists valid spatial levels only.
    return IndexSet.prefixes([MixedIndex._of(alpha, vectors[items]) for _, alpha, items, _ in listing],
                             [sizes[c] for c in ends], [dof for *_, dof in listing])


def _alpha_terms(alpha: tuple[int, ...], gamma: float, r_fem: float):
    """(log factor, alpha, 2^(-|alpha| r_fem), work exponent, unknowns):
    the spatial terms of the profit, as in ``error_contribution_model``
    and ``work_contribution``, and of ``dof_work``."""
    exponent = sum(gamma * a for a in alpha)
    return (-_LN2 * (sum(alpha) * r_fem + exponent), alpha,
            2.0 ** (-sum(alpha) * r_fem), exponent, _unknowns(alpha))


def _walk(error_model: ErrorModel, budget: float, d: int, gamma: float):
    """The candidates whose profit clears a cut just below the profit
    class that takes the DOF above it past ``budget``, as rows
    (-profit, alpha, beta items, DOF), and the cut as a profit.

    The log profit is log(c_e) plus a spatial and a quadrature log
    factor.  Listed down to a floor by descending factor, with running
    sums of unknowns and new nodes, the spatial and the quadrature level
    vectors give the DOF above any log profit at one bisection per
    spatial vector.  The floor goes down until that DOF passes the
    budget; then the crossing is bisected to within the slack.
    """
    offset = math.log(error_model.c_e)
    root = _alpha_terms((1,) * d, gamma, error_model.r_fem)
    top = offset + root[0]   # the root's log profit
    steps = [-_LN2 * (error_model.r_fem + gamma)] * d

    def above(c: float):
        """Each spatial vector with the number of quadrature vectors
        that take it to a log profit of at least ``c``."""
        for spatial in alphas:
            if c - offset - spatial[0] > 0:
                break
            yield spatial, bisect.bisect_right(lowest, offset + spatial[0] - c)

    def work_above(c: float) -> float:
        return sum(spatial[4] * nodes[n] for spatial, n in above(c))

    # In the shipped studies the first floor already holds the budget.
    depth = 2.0 * math.log(budget / root[4]) + 1.0
    while True:
        levels = [range(1, int(depth / -step) + 2) for step in steps]
        alphas = sorted((_alpha_terms(alpha, gamma, error_model.r_fem)
                         for alpha in itertools.product(*levels)
                         if sum(s * a for s, a in zip(steps, alpha)) >= sum(steps) - depth),
                        key=lambda terms: -terms[0])
        betas = _quadrature_walk(error_model, -depth)
        lowest = [-quad[0] for quad in betas]
        nodes = [0, *itertools.accumulate(quad[4] for quad in betas)]
        if work_above(top - depth + 2 * _SLACK) > budget:
            break
        depth *= 2
    lo, hi = top - depth + 2 * _SLACK, top
    while hi - lo > _SLACK:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if work_above(mid) > budget else (lo, mid)
    cut = lo - _SLACK
    floor = math.exp(cut)
    rows = [(-profit, spatial[1], quad[1], spatial[4] * quad[4])
            for spatial, n in above(cut - _SLACK) for quad in betas[:n]
            if (profit := error_model.c_e * quad[2] * spatial[2] / 2.0 ** (spatial[3] + quad[3]))
            >= floor]
    return rows, floor


def _quadrature_walk(error_model: ErrorModel, floor: float):
    """(log factor, items, exp(-decay), |beta - 1|, new nodes) of every
    quadrature level vector over the fitted variables with a log factor
    of at least ``floor``, by descending factor.  The walk adds variables
    in increasing order, so the decay sums in the order of
    ``error_contribution_model``; a level past the cap gets infinitely
    many new nodes and ends its branch."""
    g = error_model.g_tilde
    # The largest factor of one level above the base among variables j, j + 1, ...
    best = [max(-gj - _LN2 for gj in g[j:]) for j in range(len(g))]
    found, stack = [], [((), 1, 0.0, 0, 1)]
    while stack:
        items, first, decay, excess, nodes = stack.pop()
        log_factor = -decay - _LN2 * excess
        found.append((log_factor, items, math.exp(-decay), excess, nodes))
        for j in range(first, len(g) + 1):
            if nodes == math.inf or log_factor + best[j - 1] < floor:
                break
            for b in range(2, quadrature.MAX_LEVEL + 2):
                term = decay + _NODES[b - 1] * g[j - 1]
                if -term - _LN2 * (excess + b - 1) < floor:
                    break
                stack.append((items + ((j, b),), j + 1, term, excess + b - 1,
                              nodes * (_NEW_NODES[b] if b <= quadrature.MAX_LEVEL else math.inf)))
    return sorted(found, key=lambda terms: -terms[0])


def build_set_adaptive(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    work_budget: float,
    evaluator: MiscEvaluator | None = None,
) -> IndexSet:
    """Dimension-adaptive construction from measured difference magnitudes
    (Gerstner & Griebel, Computing 71, 2003).

    The margin holds the candidates whose parents are all in: the forward
    neighbours of each admitted member along every spatial axis and along
    variables 1..min(max_modes, J + 1), J the largest admitted variable,
    so a new variable enters as root + e_(J + 1).  A candidate is measured
    once, by ``evaluator.mixed_difference``, when it joins the margin, and
    only if its DOF still fit the budget.  The best |difference| per DOF is
    admitted, ties broken by total level, alpha and beta items; one that no
    longer fits is dropped for good, since the work spent only grows.
    """
    root = root_index(field_spec.d)
    if dof_work(root) > work_budget:
        raise BudgetError(f"budget {work_budget} cannot hold the root index")
    evaluator = evaluator or MiscEvaluator(field_spec, qoi_spec)
    admitted: set[MixedIndex] = set()
    heap: list = []
    spent = last = 0

    def offer(m: MixedIndex):
        if spent + dof_work(m) <= work_budget and all(p in admitted for p in m.parents()):
            profit = abs(evaluator.mixed_difference(m)) / float(dof_work(m))
            heapq.heappush(heap, (-profit, sum(m.alpha) + m.beta.excess(), m.alpha,
                                  m.beta.items(), m))

    offer(root)
    while heap:
        *_, best = heapq.heappop(heap)
        if spent + dof_work(best) > work_budget:
            continue
        admitted.add(best)
        spent += dof_work(best)
        if best.beta.last_variable() > last:   # best is root + e_(last + 1)
            last += 1
            if last < field_spec.max_modes:
                offer(MixedIndex(root.alpha, SparseLevelVector({last + 1: 2})))
        for i, a in enumerate(best.alpha):
            offer(MixedIndex(best.alpha[:i] + (a + 1,) + best.alpha[i + 1:], best.beta))
        levels = best.beta.as_dict()
        for j in range(1, min(field_spec.max_modes, last + 1) + 1):
            offer(MixedIndex(best.alpha, SparseLevelVector({**levels, j: levels.get(j, 1) + 1})))
    return IndexSet(admitted)


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
    modes, steps = mode_ordering(field_spec), range(1, depth + 1)
    sweeps = [[MixedIndex((pilot_level(max(modes[j - 1].k)),) * field_spec.d,
                          SparseLevelVector({j: 1 + t})) for t in steps] for j in range(1, n_modes + 1)]
    if field_spec.d == 1:
        base_level = pilot_level(max(modes[0].k))
        sweeps.append([MixedIndex((1 + t,), SparseLevelVector()) for t in steps])
        sweeps.append([MixedIndex((base_level + t,), SparseLevelVector({1: 1 + t})) for t in steps])
    # The root's difference is the base grid's value.  All the sweeps are
    # measured in one call, also the levels past a sweep's stop.
    measured = iter(map(abs, MiscEvaluator(field_spec, qoi_spec).mixed_differences(
        [root_index(field_spec.d)] + [index for sweep in sweeps for index in sweep])))
    floor = 1e-13 * max(1.0, next(measured))
    out = []
    for sweep in sweeps:
        for index, value in zip(sweep, [next(measured) for _ in sweep]):
            if value <= floor:
                if index is not sweep[0]:
                    break
                raise RateFitError(
                    f"pilot difference at {index} ({value:.3e}) is below the noise floor; "
                    "the rate is not measurable at this resolution"
                )
            out.append((index, value))
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
