import hashlib
import heapq
import itertools
import math
import random

import numpy as np
import pytest

from miscpde.adaptation import (
    BudgetError,
    BuildResult,
    ErrorModel,
    ProfitEntry,
    RateFitError,
    WorkModel,
    _quadrature_walk,
    box_universe,
    build_set_apriori,
    build_set_bruteforce,
    error_contribution_model,
    fit_rates,
    isotropic_work_model,
    pilot_level,
    pilot_samples,
    sweep_apriori,
    work_contribution,
)
from miscpde.misc_core import (
    IndexSet,
    MiscEvaluator,
    MixedIndex,
    dof_work,
    is_downward_closed,
    root_index,
)
from miscpde.quadrature import QuadratureLevelError, SparseLevelVector, level_to_nodes

SLV = SparseLevelVector


def synthetic_samples(truth, n_vars=3, depth=3, alpha=(1,)):
    out = []
    for j in range(1, n_vars + 1):
        for t in range(1, depth + 1):
            index = MixedIndex(alpha, SLV({j: 1 + t}))
            out.append((index, error_contribution_model(index, truth)))
    return out


class TestModels:
    def test_work_contribution_values(self):
        wm1 = isotropic_work_model(1)
        assert work_contribution(root_index(1), wm1) == 2.0
        assert work_contribution(root_index(3), isotropic_work_model(3)) == 8.0

    def test_work_doubles_per_quadrature_level(self):
        wm = isotropic_work_model(1)
        base = work_contribution(MixedIndex((2,), SLV({1: 2})), wm)
        bumped = work_contribution(MixedIndex((2,), SLV({1: 3})), wm)
        assert bumped == 2.0 * base

    def test_error_contribution_root(self):
        em = ErrorModel(r_fem=2.0, g_tilde=())
        assert error_contribution_model(root_index(1), em) == 2.0**-2
        assert error_contribution_model(root_index(3), em) == 2.0**-6

    def test_error_decay_factors(self):
        em = ErrorModel(r_fem=2.0, g_tilde=(0.5,))
        level2 = error_contribution_model(MixedIndex((1,), SLV({1: 2})), em)
        level3 = error_contribution_model(MixedIndex((1,), SLV({1: 3})), em)
        assert abs(level3 / level2 - math.exp(-2 * 0.5)) < 1e-14
        finer = error_contribution_model(MixedIndex((2,), SLV({1: 2})), em)
        assert abs(finer / level2 - 2.0**-2) < 1e-14

    def test_unfitted_variable_rejected(self):
        em = ErrorModel(r_fem=2.0, g_tilde=(0.5,))
        with pytest.raises(IndexError):
            error_contribution_model(MixedIndex((1,), SLV({2: 2})), em)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(r_fem=0.0, g_tilde=())
        with pytest.raises(ValueError):
            ErrorModel(r_fem=2.0, g_tilde=(0.0,))
        with pytest.raises(ValueError):
            WorkModel((0.5,), (1,))

    def test_error_model_roundtrip(self):
        em = ErrorModel(r_fem=2.0, g_tilde=(0.31, 1.7), c_e=3.3, residual=0.125)
        assert ErrorModel.from_json(em.to_json()) == em


class TestAprioriConstruction:
    wm = isotropic_work_model(1)
    em = ErrorModel(r_fem=2.0, g_tilde=(0.6, 1.1, 1.9, 2.4))

    def test_root_budget_holds_only_the_root(self):
        result = build_set_apriori(self.wm, self.em, work_budget=5)
        assert result.index_set.members == (root_index(1),)

    def test_deterministic_sets_are_contiguous(self):
        # Without stochastic rates the profit is 2^(-3 alpha), so every
        # budget's set is {alpha <= astar} for some astar.
        em0 = ErrorModel(r_fem=2.0, g_tilde=())
        for budget in (5, 16, 100, 1000):
            members = build_set_apriori(self.wm, em0, work_budget=budget).index_set.members
            assert set(members) == {MixedIndex((a,), SLV()) for a in range(1, len(members) + 1)}

    def test_eps_is_the_smallest_admitted_profit(self):
        for budget in (5, 600, 20000):
            result = build_set_apriori(self.wm, self.em, work_budget=budget)
            assert result.eps == min(entry.profit for entry in result.profits.values())

    def test_budget_monotonicity(self):
        small = build_set_apriori(self.wm, self.em, work_budget=200)
        large = build_set_apriori(self.wm, self.em, work_budget=2000)
        assert set(small.index_set.members) < set(large.index_set.members)

    def test_always_downward_closed(self):
        for budget in (50, 600, 20000):
            result = build_set_apriori(self.wm, self.em, work_budget=budget)
            assert is_downward_closed(result.index_set.members)

    def test_budget_mode_maximality(self):
        # A larger budget's sweep admits the same members first, then the
        # class that stopped this one, which would overflow the budget.
        result = build_set_apriori(self.wm, self.em, work_budget=600)
        assert result.dof_work_total <= 600
        assert result.next_profit is not None
        admitted = list(build_set_apriori(self.wm, self.em, work_budget=10**6).profits.values())
        prefix, after = admitted[:len(result.index_set)], admitted[len(result.index_set):]
        assert {entry.index for entry in prefix} == set(result.index_set.members)
        stopping = list(itertools.takewhile(lambda e: e.profit == result.next_profit, after))
        assert stopping
        assert result.dof_work_total + sum(dof_work(e.index) for e in stopping) > 600

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            build_set_apriori(self.wm, self.em, work_budget=3)

    def test_slow_late_variable_enters_before_earlier_ones(self):
        # Variable 4 decays slowest, so it enters the set while variables
        # 2 and 3 stay out: no variable waits for the ones before it.
        em = ErrorModel(r_fem=2.0, g_tilde=(0.6, 6.0, 6.0, 0.3))
        result = build_set_apriori(self.wm, em, work_budget=800)
        support = {j for m in result.index_set for j in m.beta.support}
        assert {1, 4} <= support and not {2, 3} & support

    def test_universe_restriction(self):
        universe = box_universe(1, 2, 2, 1)
        result = build_set_apriori(self.wm, self.em, work_budget=10**6, universe=universe)
        assert set(result.index_set.members) == set(universe.members)


# Oracle for the a-priori builder, recorded from the implementation that
# ran one independent greedy build per budget and computed combination
# coefficients from scratch.  For each budget: the sha256 of
# IndexSet.to_json() (members and coefficients), eps and next_profit.
# d1 holds budgets 1279 and 1280: at 1280 a profit class fills the
# budget exactly and is admitted.  d1_unordered's rates are not in mode
# order; its digests, recorded when a sweep could open at most four
# variables past the deepest active one, are those of the threshold sets.
# deterministic_d1 starts at the root's own work, 5.
ORACLE_SETTINGS = {
    "d1": (1, 1.0, ErrorModel(2.0, (0.6, 1.1, 1.9, 2.4, 3.0, 3.5), 0.7), None),
    "d1_unordered": (1, 1.0, ErrorModel(2.0, (2.5, 2.0) + (0.3,) * 6), None),
    "d3": (3, 1.5, ErrorModel(3.0, (0.8, 1.2, 1.6, 2.0), 2.5), None),
    "universe": (1, 1.0, ErrorModel(2.0, (0.6, 1.1)), (5, 3, 2)),
    "deterministic_d1": (1, 1.0, ErrorModel(2.0, ()), None),
    "deterministic_d3": (3, 1.0, ErrorModel(2.0, ()), None),
}

BUDGET_ORACLE = {
    "d1": [
        (80, "395c800bfd0ce7896ccca45ca41a87b84886c13f0800b04d2396b0998e65fc30",
         0.003968910456411797, 0.003615913179847206),
        (320, "7b696643c2148c527c6d6dec41f7a9e168164c9642c75dc229e5eb2dc54411cd",
         0.0006018164693669541, 0.0005977064285345246),
        (1279, "906de43320b391b29bf35b6c07e69626fe5999eafb4891c094e289df962bc3b6",
         8.257097029540215e-05, 8.144700233823495e-05),
        (1280, "1749fb92dc411b685d572c0fa42a342be4ebf88ca727e91563a6fc7ee271b645",
         8.144700233823495e-05, 7.522705867086926e-05),
        (5120, "ac69041b96d536197a21aa458d0f2232822a7ba85233e8bc9525900af5c9dec6",
         8.221933086596099e-06, 7.805082204401503e-06),
        (20480, "a083d0266c7a826f6489fa6ab7950687ff961589c058be43829a3577f8a59ded",
         5.71820268610813e-07, 5.64036568638802e-07),
        (81920, "3cc38d3bb0e2b59092e65a466399c51d929d8d9982fd5aa0b444a42a5c35d295",
         2.732242543916632e-08, 2.6475929621375286e-08),
        (327680, "6aa5dd45c489834e8c7105916c7fe3804e46e4f04da31dc54db25887623b02c1",
         1.014667151430613e-09, 1.0036539412348753e-09),
    ],
    "d1_unordered": [
        (100, "fe5f75901e5a305fba26babc24235c16cf389867016e170d56c1d2dc3d57833d",
         0.04630113879260737, 0.017150363627938325),
        (400, "154f46e89bac70f0f6a6bc550310dbcf590b748a97754ecfce243759fe074c05",
         0.015625, 0.012705301866893724),
        (1600, "fd939ae4feffbd4750c5c8ae01c6f8623aa1f2c5abede4218dd454d16163656e",
         0.005130312413993675, 0.004706159561128158),
        (6400, "a1ccfec5f46875606b3cc0da0188ef06ac44efb0f33fa9523ebcb7360fce8287",
         0.0019003144570380616, 0.001743204376159608),
        (25600, "9fcfdbd5df37502804f839c05a80a6e3a0e8645d3101b854cab83a03eb212574",
         0.00047834542286321073, 0.00047834542286321057),
    ],
    "d3": [
        (2000, "6148da9403ba9bdc676f13b56d5c2d62867f2ac33ad82cc5222347c8f5039c7a",
         9.5367431640625e-06, 7.301063271363138e-06),
        (8000, "2c4368c5c7b7c326def5ccb56bd4b5935222831c0b8b2f52ef3a6b4c8f65b97a",
         1.4740592521468852e-06, 1.436205920754443e-06),
        (32000, "aef19692ca3a7dbd8623cc113ae244808b461bd46be26e869ced502989ca3905",
         1.4880371516313107e-07, 1.44982487261815e-07),
        (128000, "7b5b44fd5aca69894715228a563dcbd114d414e3d8fb0a1a10526f43ed5e2f6b",
         1.5021475978052316e-08, 1.4635729674182473e-08),
        (512000, "fef0ed2140bef3120a2e44d8f38a0bf7eee941169c32baf3d898341cf540fea5",
         1.224616935746994e-09, 1.016467853060842e-09),
    ],
    "universe": [
        (60, "cdc206f859efd6f45e87db48333e814c072de114e807b449191ba38db50fbaa1",
         0.0057088601266479565, 0.00516559025692458),
        (100, "37ae74da38d37b04480de599000142f43b8b9a5e2e048fbc09993d353b9c3c2b",
         0.004287590906984581, 0.0026005553413912465),
        (150, "85df7b209aad0b7cb8abec567aa04d5fc7bb42ee47fca29f98d2f493a387ca33",
         0.0011525989812887498, 0.000859737813381363),
        (1000000, "a135ba672751e95713e8cb930bcc86237451418c3f428de10fce788f3d9243a7",
         1.1628621226340557e-08, None),
    ],
    "deterministic_d1": [
        (5, "db83c3ca298c21db4ec11c04f67881b3cfeaae09590e15cc339f5f43bc139bd5",
         0.125, 0.015625),
        (100, "4fb62374dc84eabcc664ff99e6acf9a901c12627ce8ce2d93f945db7bb419e33",
         0.000244140625, 3.0517578125e-05),
        (1000, "cdc2fa14d3b6585218a68db3a09eb6fcbe7ab90290978ad46c009b65a60e9678",
         4.76837158203125e-07, 5.960464477539063e-08),
        (100000, "af0664bb98f48f48d1d9ef3f1024870f86e9ea2799639ba1fce745eef3e86d85",
         2.2737367544323206e-13, 2.842170943040401e-14),
    ],
    "deterministic_d3": [
        (125, "ad361a642fc64ab6fab6d3cac292a88c94c47bba1a35f160f57e019ed6ce8bca",
         0.001953125, 0.000244140625),
        (10000, "33c29f41fe392642c829e1ed0bf8528ac25f71479c683453171f58a7d125552b",
         3.0517578125e-05, 3.814697265625e-06),
        (1000000, "4d04df91baf4f197b7c0b02afec2a17c35e12ccd093ed35dd971accf72d0b523",
         7.450580596923828e-09, 9.313225746154785e-10),
    ],
}

def oracle_setting(name):
    d, gamma, error_model, box = ORACLE_SETTINGS[name]
    universe = box_universe(d, *box) if box else None
    return isotropic_work_model(d, gamma), error_model, universe


def assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model):
    assert hashlib.sha256(result.index_set.to_json().encode()).hexdigest() == digest
    assert result.eps == eps
    assert result.next_profit == next_profit
    assert result.dof_work_total == result.index_set.nominal_work()
    assert result.profits == {
        m: ProfitEntry(m, error_contribution_model(m, error_model), work_contribution(m, work_model))
        for m in result.index_set
    }


class TestSweepOracle:
    @pytest.mark.parametrize("name", sorted(BUDGET_ORACLE))
    def test_sweep_reproduces_every_budget(self, name, oracle_coefficients):
        work_model, error_model, universe = oracle_setting(name)
        rows = BUDGET_ORACLE[name]
        results = sweep_apriori(work_model, error_model, [row[0] for row in rows], universe)
        assert len(results) == len(rows)
        for result, (_, digest, eps, next_profit) in zip(results, rows):
            assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model)
            # The forward-offset oracle enumerates every active direction,
            # which is too slow beyond small sets.
            if len(result.index_set) <= 25:
                assert result.index_set.coefficients == oracle_coefficients(
                    result.index_set.members)

    @pytest.mark.parametrize("name", sorted(BUDGET_ORACLE))
    def test_single_builds_reproduce_every_budget(self, name):
        work_model, error_model, universe = oracle_setting(name)
        for budget, digest, eps, next_profit in BUDGET_ORACLE[name]:
            result = build_set_apriori(work_model, error_model, work_budget=budget,
                                       universe=universe)
            assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model)

    def test_budgets_must_increase(self):
        work_model, error_model, _ = oracle_setting("d1")
        for budgets in ([], [320, 80], [80, 80]):
            with pytest.raises(ValueError):
                sweep_apriori(work_model, error_model, budgets)
        with pytest.raises(BudgetError):
            sweep_apriori(work_model, error_model, [3, 80])

    def test_level_past_the_cap_raises(self):
        # Each level of variable 1 halves the profit and a spatial level
        # divides it by 2^61, so the sets climb variable 1 alone, with
        # 5 * 2^(b - 1) + 5 DOF up to level b.  The set of 5 * 2^40 would
        # end at level 30, and the class after it is level 31, past the cap.
        work_model, error_model = isotropic_work_model(1), ErrorModel(60.0, (1e-12,))
        top = sweep_apriori(work_model, error_model, [5 * 2**20])[0]
        assert top.index_set.max_beta_level() == 20
        with pytest.raises(QuadratureLevelError):
            sweep_apriori(work_model, error_model, [5 * 2**20, 5 * 2**40])


def eager_sweep(work_model, error_model, budgets, universe=None):
    """The greedy sweep as first written, the reference for ``sweep_apriori``:
    every admitted member offers every child at once, in every fitted
    variable, with its profit, whether or not the child's other parents
    are in."""
    root = (1,) * work_model.spatial_dim
    variables = range(1, len(error_model.g_tilde) + 1)
    allowed = None if universe is None else {(m.alpha, m.beta.items()) for m in universe}
    seen, heap, admitted = set(), [], {}
    state = {"spent": 0, "eps": math.inf}

    def push(alpha, items):
        if (alpha, items) in seen or (allowed is not None and (alpha, items) not in allowed):
            return
        seen.add((alpha, items))
        index = MixedIndex(alpha, SLV(items))
        d_e = error_contribution_model(index, error_model)
        d_w = work_contribution(index, work_model)
        heapq.heappush(heap, (-(d_e / d_w), alpha, items, d_e, d_w))

    def bump(items, j):
        levels = dict(items)
        levels[j] = levels.get(j, 1) + 1
        return tuple(sorted(levels.items()))

    def admit(alpha, items, d_e, d_w):
        index = MixedIndex(alpha, SLV(items))
        entry = ProfitEntry(index, d_e, d_w)
        admitted[index] = entry
        state["spent"] += dof_work(index)
        state["eps"] = min(state["eps"], entry.profit)
        for i in range(len(alpha)):
            push(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], items)
        for j in variables:
            push(alpha, bump(items, j))

    def checkpoint(next_profit):
        return BuildResult(IndexSet(admitted), state["eps"], dict(admitted), state["spent"],
                           next_profit)

    root_member = MixedIndex(root, SLV())
    admit(root, (), error_contribution_model(root_member, error_model),
          work_contribution(root_member, work_model))
    results = []
    while True:
        group = []
        if heap:
            group = [heapq.heappop(heap)]
            while heap and heap[0][0] == group[0][0]:
                group.append(heapq.heappop(heap))
        dofs = [dof_work(MixedIndex(alpha, SLV(items))) for _, alpha, items, _, _ in group]
        profit = -group[0][0] if group else None
        while len(results) < len(budgets) and (
                not group or state["spent"] + sum(dofs) > budgets[len(results)]):
            results.append(checkpoint(profit))
        if len(results) == len(budgets):
            return results
        for _, alpha, items, d_e, d_w in group:
            admit(alpha, items, d_e, d_w)


def bits(value):
    return None if value is None else value.hex()


def result_bits(result):
    """Every field of a ``BuildResult``, floats as ``float.hex``."""
    return (
        [(m.sort_key(), bits(e.d_e), bits(e.d_w)) for m, e in result.profits.items()],
        bits(result.eps),
        bits(result.next_profit),
        result.dof_work_total,
        hashlib.sha256(result.index_set.to_json().encode()).hexdigest(),
    )


def random_sweep_setting(seed):
    """A random sweep over d = 1..3.  Rates come from a pool of four values,
    so equal rates, and profit classes of several members, are common;
    with rates out of mode order, a variable can enter before an earlier
    one."""
    rng = random.Random(seed)
    d = 1 + seed % 3
    error_model = ErrorModel(
        r_fem=rng.choice((1.0, 2.0, 3.0)),
        g_tilde=tuple(rng.choice((0.3, 0.7, 1.2, 2.0)) for _ in range(rng.randint(0, 6))),
        c_e=rng.choice((0.5, 1.0, 2.5)),
    )
    work_model = isotropic_work_model(d, rng.choice((1.0, 1.5, 2.0)))
    universe = None
    if seed % 2:
        shape = {1: (6, 4, 3), 2: (4, 3, 2), 3: (3, 2, 2)}[d]
        universe = box_universe(d, *shape)
    root_dof = 5**d
    steps = sorted(rng.sample(range(0, 9 - d), 4))
    budgets = [root_dof * 4**t for t in steps]
    return work_model, error_model, budgets, universe


class TestRandomizedSweepOracle:
    @pytest.mark.parametrize("seed", range(36))
    def test_sweep_matches_eager_sweep(self, seed):
        work_model, error_model, budgets, universe = random_sweep_setting(seed)
        expected = eager_sweep(work_model, error_model, budgets, universe)
        results = sweep_apriori(work_model, error_model, budgets, universe)
        assert [result_bits(r) for r in results] == [result_bits(r) for r in expected]

    def test_settings_cover_profit_classes_and_unordered_variables(self):
        classes = unordered = 0
        for seed in range(36):
            work_model, error_model, budgets, universe = random_sweep_setting(seed)
            top = sweep_apriori(work_model, error_model, budgets, universe)[-1]
            profits = [entry.profit for entry in top.profits.values()]
            classes += len(profits) > len(set(profits))
            # A variable that enters after a later one.
            order = []
            for m in top.profits:
                order += [j for j in m.beta.support if j not in order]
            unordered += order != sorted(order)
        assert classes >= 20 and unordered >= 3


def random_threshold_setting(d, kind, seed):
    """Random error and work models in dimension ``d``, with cost exponents
    that differ per axis, and three budgets.  ``kind`` "box" adds a box
    universe, and "exhausted" the same box with a fourth budget at its
    whole work, so that the candidates run out."""
    rng = random.Random(100 * d + seed)
    error_model = ErrorModel(
        r_fem=rng.choice((1.0, 2.0, 3.0)),
        g_tilde=tuple(rng.choice((0.5, 0.9, 1.4, 2.0))
                      for _ in range(rng.randint(0, 4 if d == 1 else 3))),
        c_e=rng.choice((0.5, 1.0, 2.5)),
    )
    work_model = WorkModel(tuple(rng.choice((1.0, 1.5, 2.0)) for _ in range(d)), (1,) * d,
                           c_w=rng.choice((1.0, 3.0)))
    budgets = [5**d * 4**t for t in sorted(rng.sample(range(5 if d == 1 else 4), 3))]
    universe = None
    if kind is not None:
        universe = box_universe(d, *{1: (5, 3, 3), 3: (3, 2, 2)}[d])
        if kind == "exhausted":
            budgets.append(universe.nominal_work())
    return work_model, error_model, budgets, universe


def threshold_oracle(work_model, error_model, budgets, candidates):
    """Per budget, (members, eps, next_profit, DOF) of the longest prefix of
    whole profit classes whose DOF fits, over ``candidates`` by descending
    profit, with profits from the public model functions."""
    n_rates = len(error_model.g_tilde)
    rows = sorted(
        ((-(error_contribution_model(m, error_model) / work_contribution(m, work_model)), m)
         for m in candidates if m.beta.last_variable() <= n_rates),
        key=lambda row: (row[0], row[1].sort_key()),
    )
    classes, profits = [], []
    for key, group in itertools.groupby(rows, key=lambda row: row[0]):
        classes.append([m for _, m in group])
        profits.append(-key)
    out = []
    for budget in budgets:
        members, spent, k = set(), 0, 0
        while k < len(classes) and spent + sum(map(dof_work, classes[k])) <= budget:
            members.update(classes[k])
            spent += sum(map(dof_work, classes[k]))
            k += 1
        out.append((members, profits[k - 1], profits[k] if k < len(classes) else None, spent))
    return out


def box_around(result, n_rates):
    """Every mixed index with each spatial level, and each level of
    variables 1..n_rates, at most two above the highest in ``result``'s
    set, and the box's outer face: the members at a top level."""
    d = result.index_set.spatial_dim
    top_alpha = [max(m.alpha[i] for m in result.index_set) + 2 for i in range(d)]
    top_beta = [max(m.beta.level(j) for m in result.index_set) + 2 for j in range(1, n_rates + 1)]
    box, face = [], []
    for alpha in itertools.product(*(range(1, a + 1) for a in top_alpha)):
        for levels in itertools.product(*(range(1, b + 1) for b in top_beta)):
            m = MixedIndex(alpha, SLV({j + 1: b for j, b in enumerate(levels)}))
            box.append(m)
            if any(a == t for a, t in zip(alpha, top_alpha)) or any(
                    b == t for b, t in zip(levels, top_beta)):
                face.append(m)
    return box, face


class TestThresholdOracle:
    """Every checkpoint is the class-prefix set of the candidates by
    descending profit (enumerated over a box that provably holds it), and
    the unrestricted greedy sweep's checkpoint."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", [None, "box", "exhausted"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_checkpoints_are_threshold_sets(self, d, kind, seed):
        work_model, error_model, budgets, universe = random_threshold_setting(d, kind, seed)
        results = sweep_apriori(work_model, error_model, budgets, universe)
        if universe is None:
            candidates, face = box_around(results[-1], len(error_model.g_tilde))
            # Profits fall along every axis, so no candidate outside the
            # box reaches the largest budget's next class.
            assert all(error_contribution_model(m, error_model) / work_contribution(m, work_model)
                       < results[-1].next_profit for m in face)
        else:
            candidates = universe.members
        expected = threshold_oracle(work_model, error_model, budgets, candidates)
        for result, (members, eps, next_profit, spent) in zip(results, expected):
            assert set(result.index_set.members) == members
            assert (result.eps, result.next_profit, result.dof_work_total) == (
                eps, next_profit, spent)
            profits = [entry.profit for entry in result.profits.values()]
            assert profits == sorted(profits, reverse=True)
        if kind == "exhausted":
            assert results[-1].next_profit is None
        eager = eager_sweep(work_model, error_model, budgets, universe)
        assert [result_bits(r) for r in results] == [result_bits(r) for r in eager]


class TestQuadratureWalk:
    @pytest.mark.parametrize("seed", range(8))
    def test_lists_every_level_vector_above_the_floor(self, seed):
        # Rates in any order: the walk may prune a branch only when no
        # later variable can clear the floor.
        rng = random.Random(seed)
        g = tuple(rng.choice((0.2, 0.5, 1.4, 3.0, 6.0)) for _ in range(rng.randint(1, 4)))
        floor = -rng.uniform(2.0, 9.0)
        walked = _quadrature_walk(ErrorModel(2.0, g), floor)
        expected = set()
        for levels in itertools.product(range(1, 9), repeat=len(g)):
            items = tuple((j + 1, b) for j, b in enumerate(levels) if b > 1)
            if -sum(level_to_nodes(b - 1) * g[j - 1] + (b - 1) * math.log(2.0)
                    for j, b in items) >= floor:
                expected.add(items)
        assert {items for _, items, *_ in walked} == expected
        assert [terms[0] for terms in walked] == sorted((terms[0] for terms in walked), reverse=True)


class TestBruteForce:
    def test_single_member_universe(self, field1, qoi1):
        universe = box_universe(1, 1, 1, 0)
        result = build_set_bruteforce(universe, field1, qoi1, work_budget=5)
        assert result.index_set.members == (root_index(1),)
        root_entry = result.profits[root_index(1)]
        assert root_entry.d_w == 5.0
        assert root_entry.profit > 0

    def test_profits_reproducible(self, field1, qoi1):
        universe = box_universe(1, 3, 2, 1)
        first = build_set_bruteforce(universe, field1, qoi1, work_budget=100)
        second = build_set_bruteforce(universe, field1, qoi1, work_budget=100)
        assert {m: e.d_e for m, e in first.profits.items()} == {
            m: e.d_e for m, e in second.profits.items()
        }

    def test_budget_respected_and_closed(self, field1, qoi1):
        universe = box_universe(1, 4, 2, 2)
        result = build_set_bruteforce(universe, field1, qoi1, work_budget=120)
        assert result.dof_work_total <= 120
        assert is_downward_closed(result.index_set.members)

    def test_benchmark_ordering_at_matched_work(self, field1, qoi1):
        # Within a shared 45-member universe the exact-profit greedy beats
        # (or ties) the model-driven set against the universe-limited truth.
        universe = box_universe(1, 5, 3, 2)
        ev = MiscEvaluator(field1, qoi1)
        reference = ev.evaluate(universe).value
        samples = pilot_samples(field1, qoi1, 4, 3, ev)
        model = fit_rates(samples, 2.0)
        for budget in (60, 100, 150):
            bf = build_set_bruteforce(universe, field1, qoi1, work_budget=budget, evaluator=ev)
            ap = build_set_apriori(isotropic_work_model(1), model,
                                   work_budget=budget, universe=universe)
            err_bf = abs(ev.evaluate(bf.index_set).value - reference)
            err_ap = abs(ev.evaluate(ap.index_set).value - reference)
            assert err_bf <= err_ap

    def test_universe_cap(self, field1, qoi1):
        universe = box_universe(1, 6, 3, 3)  # 6 * 27 = 162, below cap
        assert len(universe) == 162
        big = box_universe(1, 8, 3, 4)
        with pytest.raises(ValueError):
            build_set_bruteforce(big, field1, qoi1, work_budget=100)


def rescan_bruteforce(universe, profits, work_budget):
    """The brute-force greedy as first written, the reference for
    ``build_set_bruteforce``: after every admission, rescan the whole
    universe for members whose parents are all in and that fit the
    budget, and admit the best.  Also says whether the best member with
    all parents in was ever passed over for not fitting."""
    def key(m):
        return (-profits[m].profit, sum(m.alpha) + m.beta.excess(), m.alpha, m.beta.items())

    root = root_index(universe.spatial_dim)
    closed = {root}
    spent = dof_work(root)
    eps = profits[root].profit
    skipped = False
    while True:
        frontier = [m for m in universe.members
                    if m not in closed and all(p in closed for p in m.parents())]
        fitting = [m for m in frontier if spent + dof_work(m) <= work_budget]
        if not fitting:
            break
        best = min(fitting, key=key)
        skipped |= best != min(frontier, key=key)
        closed.add(best)
        spent += dof_work(best)
        eps = profits[best].profit
    index_set = IndexSet(closed)
    return index_set, eps, index_set.nominal_work(), skipped


class SyntheticDifferences:
    """Stands in for ``MiscEvaluator``: |mixed differences| drawn from four
    values, so that profits tie."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.values = {}

    def mixed_difference(self, index):
        return self.values.setdefault(index, self.rng.choice((1e-3, 1e-2, 0.05, 0.2)))


class TestBruteForceOracle:
    def check(self, universe, budgets, evaluator):
        skipped = 0
        for budget in budgets:
            result = build_set_bruteforce(universe, None, None, budget, evaluator)
            index_set, eps, work, passed_over = rescan_bruteforce(universe, result.profits, budget)
            assert result.index_set == index_set
            assert result.eps == eps
            assert result.dof_work_total == work
            skipped += passed_over
        return skipped

    @pytest.mark.parametrize("shape", [(1, 5, 3, 2), (1, 4, 10, 1), (2, 3, 3, 1), (3, 2, 2, 2)])
    def test_synthetic_profits_match_rescan(self, shape):
        universe = box_universe(*shape)
        total = universe.nominal_work()
        budgets = sorted({int(total * f) for f in (0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.0)}
                         | {5**shape[0]})
        skipped = sum(self.check(universe, budgets, SyntheticDifferences(seed))
                      for seed in range(3))
        assert skipped > 0

    def test_measured_profits_match_rescan(self, field1, qoi1):
        universe = box_universe(1, 4, 3, 2)
        evaluator = MiscEvaluator(field1, qoi1)
        assert self.check(universe, [5, 40, 100, 200, 400, 1000], evaluator) > 0


class TestRateFit:
    truth = ErrorModel(r_fem=2.0, g_tilde=(0.4, 0.9, 1.3), c_e=2.2)

    def test_exact_recovery(self):
        fitted = fit_rates(synthetic_samples(self.truth), self.truth.r_fem)
        assert max(abs(a - b) for a, b in zip(fitted.g_tilde, self.truth.g_tilde)) < 1e-10
        assert abs(fitted.c_e - self.truth.c_e) < 1e-10
        assert fitted.residual < 1e-10

    def test_duplicates_do_not_reweight(self):
        samples = synthetic_samples(self.truth)
        assert fit_rates(samples + samples[:4], 2.0) == fit_rates(samples, 2.0)

    def test_conflicting_duplicates_rejected(self):
        samples = synthetic_samples(self.truth)
        clash = [(samples[0][0], samples[0][1] * 1.5)]
        with pytest.raises(RateFitError):
            fit_rates(samples + clash, 2.0)

    def test_rank_deficiency_lists_missing_variable(self):
        samples = [s for s in synthetic_samples(self.truth) if 2 not in s[0].beta.support]
        with pytest.raises(RateFitError) as err:
            fit_rates(samples, 2.0)
        assert err.value.unidentifiable == (2,)

    def test_nonpositive_magnitudes_rejected(self):
        samples = synthetic_samples(self.truth)
        samples[0] = (samples[0][0], 0.0)
        with pytest.raises(RateFitError):
            fit_rates(samples, 2.0)

    def test_purely_deterministic_samples_rejected(self):
        with pytest.raises(RateFitError):
            fit_rates([(root_index(1), 0.25)], 2.0)


class TestPilot:
    def test_depth_validation(self, field1, qoi1):
        with pytest.raises(ValueError):
            pilot_samples(field1, qoi1, 2, 1)

    def test_resonance_aware_levels(self):
        assert pilot_level(0) == 1
        assert pilot_level(1) == 1
        assert pilot_level(2) == 1
        assert pilot_level(3) == 2
        assert pilot_level(6) == 3

    def test_rates_increase_beyond_first_modes(self, field1, qoi1):
        samples = pilot_samples(field1, qoi1, 8, 3)
        model = fit_rates(samples, 2.0)
        g = model.g_tilde
        assert len(g) == 8
        assert np.mean(g[3:]) > np.mean(g[:3])
        assert all(b > a * 0.9 for a, b in zip(g[3:], g[4:]))

    def test_design_identifies_every_variable(self, field1, qoi1):
        samples = pilot_samples(field1, qoi1, 5, 2)
        swept = {j for index, _ in samples for j in index.beta.support}
        assert swept == {1, 2, 3, 4, 5}
