import hashlib
import heapq
import itertools
import math
import random

import numpy as np
import pytest

from miscpde.adaptation import (
    BudgetError,
    ErrorModel,
    RateFitError,
    _quadrature_walk,
    _walk,
    build_set_adaptive,
    build_set_apriori,
    error_contribution_model,
    fit_rates,
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
    root_index,
)
from miscpde.quadrature import QuadratureLevelError, SparseLevelVector, level_to_nodes
from miscpde.random_field import FieldSpec

SLV = SparseLevelVector


def synthetic_samples(truth, n_vars=3, depth=3, alpha=(1,)):
    out = []
    for j in range(1, n_vars + 1):
        for t in range(1, depth + 1):
            index = MixedIndex(alpha, SLV({j: 1 + t}))
            out.append((index, error_contribution_model(index, truth)))
    return out


def profit(m, error_model, gamma=1.0):
    """The modelled profit, from the public model functions."""
    return error_contribution_model(m, error_model) / work_contribution(m, gamma)


def children(m, n_rates):
    """m with one spatial level, or one level of a variable 1..n_rates, added."""
    for i in range(m.spatial_dim):
        yield MixedIndex(m.alpha[:i] + (m.alpha[i] + 1,) + m.alpha[i + 1:], m.beta)
    for j in range(1, n_rates + 1):
        yield MixedIndex(m.alpha, SLV({**dict(m.beta.items()), j: m.beta.level(j) + 1}))


def next_profit(index_set, error_model, gamma=1.0, allowed=None):
    """The best profit outside ``index_set``, among ``allowed`` if given,
    or None if every candidate is in.  Profits fall along every axis, so
    the best candidate outside a downward-closed set is a child of a
    member."""
    outside = {c for m in index_set for c in children(m, len(error_model.g_tilde))
               if c not in index_set and (allowed is None or c in allowed)}
    return max((profit(c, error_model, gamma) for c in outside), default=None)


def digest(index_set):
    """sha256 of ``IndexSet.to_json()``: the members and their coefficients."""
    return hashlib.sha256(index_set.to_json().encode()).hexdigest()


class TestModels:
    def test_work_contribution_values(self):
        assert work_contribution(root_index(1)) == 2.0
        assert work_contribution(root_index(3)) == 8.0
        assert work_contribution(root_index(3), 1.5) == 2.0**4.5
        # The exponent sums gamma * alpha_i term by term, as the walk does;
        # gamma * |alpha| rounds differently here.
        tilted = MixedIndex((1, 4, 1), SLV())
        assert work_contribution(tilted, 1.1) == 2.0 ** (1.1 * 1 + 1.1 * 4 + 1.1 * 1)
        assert work_contribution(tilted, 1.1) != 2.0 ** (1.1 * 6)

    def test_work_doubles_per_quadrature_level(self):
        base = work_contribution(MixedIndex((2,), SLV({1: 2})))
        bumped = work_contribution(MixedIndex((2,), SLV({1: 3})))
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
        for c_e in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="c_e"):
                ErrorModel(r_fem=2.0, g_tilde=(0.5,), c_e=c_e)
        with pytest.raises(ValueError, match="gamma"):
            sweep_apriori(ErrorModel(r_fem=2.0, g_tilde=()), [80], 1, gamma=0.5)

    def test_error_model_roundtrip(self):
        em = ErrorModel(r_fem=2.0, g_tilde=(0.31, 1.7), c_e=3.3, residual=0.125)
        assert ErrorModel.from_json(em.to_json()) == em


class TestAprioriConstruction:
    em = ErrorModel(r_fem=2.0, g_tilde=(0.6, 1.1, 1.9, 2.4))

    def test_root_budget_holds_only_the_root(self):
        assert build_set_apriori(self.em, 5, 1).members == (root_index(1),)

    def test_deterministic_sets_are_contiguous(self):
        # Without stochastic rates the profit is 2^(-3 alpha), so every
        # budget's set is {alpha <= astar} for some astar.
        em0 = ErrorModel(r_fem=2.0, g_tilde=())
        for budget in (5, 16, 100, 1000):
            members = build_set_apriori(em0, budget, 1).members
            assert set(members) == {MixedIndex((a,), SLV()) for a in range(1, len(members) + 1)}

    def test_admitted_profits_exceed_every_excluded_one(self):
        for budget in (5, 600, 20000):
            index_set = build_set_apriori(self.em, budget, 1)
            smallest = min(profit(m, self.em) for m in index_set)
            assert smallest > next_profit(index_set, self.em)

    def test_budget_monotonicity(self):
        small = build_set_apriori(self.em, 200, 1)
        large = build_set_apriori(self.em, 2000, 1)
        assert set(small.members) < set(large.members)

    def test_always_downward_closed(self):
        for budget in (50, 600, 20000):
            index_set = build_set_apriori(self.em, budget, 1)
            assert IndexSet(index_set.members) == index_set

    def test_budget_mode_maximality(self):
        # A larger budget's set holds this one and then the whole class
        # that stopped it, which would overflow the budget.
        small = build_set_apriori(self.em, 600, 1)
        assert small.nominal_work() <= 600
        rest = [m for m in build_set_apriori(self.em, 10**6, 1) if m not in small]
        best = max(profit(m, self.em) for m in rest)
        assert best == next_profit(small, self.em)
        stopping = [m for m in rest if profit(m, self.em) == best]
        assert small.nominal_work() + sum(map(dof_work, stopping)) > 600

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            build_set_apriori(self.em, 3, 1)

    def test_slow_late_variable_enters_before_earlier_ones(self):
        # Variable 4 decays slowest, so it enters the set while variables
        # 2 and 3 stay out: no variable waits for the ones before it.
        em = ErrorModel(r_fem=2.0, g_tilde=(0.6, 6.0, 6.0, 0.3))
        index_set = build_set_apriori(em, 800, 1)
        support = {j for m in index_set for j in m.beta.support}
        assert {1, 4} <= support and not {2, 3} & support


# Oracle for the a-priori builder, recorded from the implementation that
# ran one independent greedy build per budget and computed combination
# coefficients from scratch.  For each budget: the sha256 of
# IndexSet.to_json() (members and coefficients), eps and next_profit.
# d1 holds budgets 1279 and 1280: at 1280 a profit class fills the
# budget exactly and is admitted.  d1_unordered's rates are not in mode
# order; its digests, recorded when a sweep could open at most four
# variables past the deepest active one, are those of the threshold sets.
# deterministic_d1 starts at the root's own work, 5.  The universe rows,
# recorded when the a-priori builder took a universe, now check
# ``threshold_oracle`` over that universe.
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

def box_universe(spatial_dim, max_alpha, max_beta, n_vars):
    """Every mixed index with spatial levels 1..max_alpha and levels
    1..max_beta of variables 1..n_vars: the candidate pool of the
    threshold-oracle rows."""
    return [MixedIndex(alpha, SLV({j + 1: b for j, b in enumerate(levels)}))
            for alpha in itertools.product(range(1, max_alpha + 1), repeat=spatial_dim)
            for levels in itertools.product(range(1, max_beta + 1), repeat=n_vars)]


def oracle_setting(name):
    d, gamma, error_model, box = ORACLE_SETTINGS[name]
    return d, gamma, error_model, box_universe(d, *box) if box else None


def assert_matches_oracle(index_set, row, error_model, gamma, allowed=None):
    """The set's digest, and ``eps`` and ``next_profit`` derived from its members."""
    _, expected_digest, eps, next_eps = row
    assert digest(index_set) == expected_digest
    assert min(profit(m, error_model, gamma) for m in index_set) == eps
    assert next_profit(index_set, error_model, gamma, allowed) == next_eps


class TestSweepOracle:
    @pytest.mark.parametrize("name", sorted(BUDGET_ORACLE))
    def test_sweep_reproduces_every_budget(self, name, oracle_coefficients):
        d, gamma, error_model, universe = oracle_setting(name)
        rows = BUDGET_ORACLE[name]
        budgets = [row[0] for row in rows]
        if universe is None:
            sets = sweep_apriori(error_model, budgets, d, gamma)
        else:
            # The a-priori builder takes no universe; these rows check the
            # threshold oracle over a fixed candidate pool.
            sets = [IndexSet(members) for members, *_ in
                    threshold_oracle(error_model, budgets, universe, gamma)]
        assert len(sets) == len(rows)
        for index_set, row in zip(sets, rows):
            assert_matches_oracle(index_set, row, error_model, gamma,
                                  None if universe is None else set(universe))
            # The forward-offset oracle enumerates every active direction,
            # which is too slow beyond small sets.
            if len(index_set) <= 25:
                assert index_set.coefficients == oracle_coefficients(index_set.members)

    @pytest.mark.parametrize("name", sorted(set(BUDGET_ORACLE) - {"universe"}))
    def test_single_builds_reproduce_every_budget(self, name):
        d, gamma, error_model, _ = oracle_setting(name)
        for row in BUDGET_ORACLE[name]:
            assert_matches_oracle(build_set_apriori(error_model, row[0], d, gamma), row,
                                  error_model, gamma)

    def test_budgets_must_increase(self):
        d, gamma, error_model, _ = oracle_setting("d1")
        for budgets in ([], [320, 80], [80, 80]):
            with pytest.raises(ValueError):
                sweep_apriori(error_model, budgets, d, gamma)
        with pytest.raises(BudgetError):
            sweep_apriori(error_model, [3, 80], d, gamma)

    def test_level_past_the_cap_raises(self):
        # Each level of variable 1 halves the profit and a spatial level
        # divides it by 2^61, so the sets climb variable 1 alone, with
        # 5 * 2^(b - 1) + 5 DOF up to level b.  The set of 5 * 2^40 would
        # end at level 30, and the class after it is level 31, past the cap.
        error_model = ErrorModel(60.0, (1e-12,))
        top = sweep_apriori(error_model, [5 * 2**20], 1)[0]
        assert top.max_beta_level() == 20
        with pytest.raises(QuadratureLevelError):
            sweep_apriori(error_model, [5 * 2**20, 5 * 2**40], 1)


def eager_sweep(error_model, budgets, d, gamma=1.0):
    """The greedy sweep as first written, the reference for ``sweep_apriori``:
    every admitted member offers every child at once, in every fitted
    variable, with its profit, whether or not the child's other parents
    are in."""
    seen, heap, admitted = set(), [], []
    state = {"spent": 0}

    def push(m):
        if m not in seen:
            seen.add(m)
            heapq.heappush(heap, (-profit(m, error_model, gamma), m.alpha, m.beta.items(), m))

    def admit(m):
        admitted.append(m)
        state["spent"] += dof_work(m)
        for child in children(m, len(error_model.g_tilde)):
            push(child)

    admit(root_index(d))
    results = []
    while True:
        group = []
        if heap:
            group = [heapq.heappop(heap)]
            while heap and heap[0][0] == group[0][0]:
                group.append(heapq.heappop(heap))
        dofs = [dof_work(m) for *_, m in group]
        while len(results) < len(budgets) and (
                not group or state["spent"] + sum(dofs) > budgets[len(results)]):
            results.append(IndexSet(admitted))
        if len(results) == len(budgets):
            return results
        for *_, m in group:
            admit(m)


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
    gamma = rng.choice((1.0, 1.5, 2.0))
    steps = sorted(rng.sample(range(0, 9 - d), 4))
    budgets = [5**d * 4**t for t in steps]
    return error_model, budgets, d, gamma


class TestRandomizedSweepOracle:
    @pytest.mark.parametrize("seed", range(36))
    def test_sweep_matches_eager_sweep(self, seed):
        setting = random_sweep_setting(seed)
        assert list(map(digest, sweep_apriori(*setting))) == list(map(digest, eager_sweep(*setting)))

    def test_settings_cover_profit_classes_and_unordered_variables(self):
        classes = unordered = 0
        for seed in range(36):
            error_model, budgets, d, gamma = random_sweep_setting(seed)
            top = sweep_apriori(error_model, budgets, d, gamma)[-1]
            listing = sorted(((-profit(m, error_model, gamma), m.sort_key()), m) for m in top)
            profits = [key[0] for key, _ in listing]
            classes += len(profits) > len(set(profits))
            # A variable that enters after a later one.
            order = []
            for _, m in listing:
                order += [j for j in m.beta.support if j not in order]
            unordered += order != sorted(order)
        assert classes >= 20 and unordered >= 3


def random_threshold_setting(d, seed):
    """Random error models in dimension ``d``, a cost exponent that is not
    a dyadic fraction in some settings (so that the work exponent's sum
    depends on its order), and three budgets."""
    rng = random.Random(100 * d + seed)
    error_model = ErrorModel(
        r_fem=rng.choice((1.0, 2.0, 3.0)),
        g_tilde=tuple(rng.choice((0.5, 0.9, 1.4, 2.0))
                      for _ in range(rng.randint(0, 4 if d == 1 else 3))),
        c_e=rng.choice((0.5, 1.0, 2.5)),
    )
    gamma = rng.choice((1.0, 1.4, 1.5, 2.0))
    budgets = [5**d * 4**t for t in sorted(rng.sample(range(5 if d == 1 else 4), 3))]
    return error_model, budgets, d, gamma


def threshold_oracle(error_model, budgets, candidates, gamma=1.0):
    """Per budget, (members, eps, next_profit, DOF) of the longest prefix of
    whole profit classes whose DOF fits, over ``candidates`` by descending
    profit, with profits from the public model functions."""
    n_rates = len(error_model.g_tilde)
    rows = sorted(
        ((-profit(m, error_model, gamma), m) for m in candidates if m.beta.last_variable() <= n_rates),
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


def box_around(members, n_rates):
    """Every mixed index with each spatial level, and each level of
    variables 1..n_rates, at most two above the highest in ``members``,
    and the box's outer face: the members at a top level."""
    d = members[0].spatial_dim
    top_alpha = [max(m.alpha[i] for m in members) + 2 for i in range(d)]
    top_beta = [max(m.beta.level(j) for m in members) + 2 for j in range(1, n_rates + 1)]
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
    the greedy sweep's checkpoint."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("d", [1, 3])
    def test_checkpoints_are_threshold_sets(self, d, seed):
        error_model, budgets, d, gamma = random_threshold_setting(d, seed)
        sets = sweep_apriori(error_model, budgets, d, gamma)
        candidates, face = box_around(sets[-1].members, len(error_model.g_tilde))
        expected = threshold_oracle(error_model, budgets, candidates, gamma)
        # Profits fall along every axis, so no candidate outside the box
        # reaches the largest budget's next class.
        assert all(profit(m, error_model, gamma) < expected[-1][2] for m in face)
        for index_set, (members, eps, next_eps, spent) in zip(sets, expected):
            assert set(index_set.members) == members
            assert index_set.nominal_work() == spent
            assert min(profit(m, error_model, gamma) for m in index_set) == eps
            assert next_profit(index_set, error_model, gamma) == next_eps
        eager = eager_sweep(error_model, budgets, d, gamma)
        assert list(map(digest, sets)) == list(map(digest, eager))


class TestWalk:
    """``_walk`` lists exactly the candidates whose profit clears its cut,
    each with the profit of the public model functions, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [1, 3])
    def test_rows_are_the_candidates_above_the_cut(self, d, seed):
        error_model, budgets, d, gamma = random_threshold_setting(d, seed)
        rows, cut = _walk(error_model, budgets[-1], d, gamma)
        listed = {MixedIndex(alpha, SLV(items)): (-key, dof) for key, alpha, items, dof, *_ in rows}
        assert len(listed) == len(rows)
        for m, (p, dof) in listed.items():
            assert p.hex() == profit(m, error_model, gamma).hex()
            assert dof == dof_work(m)
        box, face = box_around(list(listed), len(error_model.g_tilde))
        assert all(profit(m, error_model, gamma) < cut for m in face)
        assert set(listed) == {m for m in box if profit(m, error_model, gamma) >= cut}
        # The cut lies below the class that takes the DOF past the budget.
        assert sum(dof for _, dof in listed.values()) > budgets[-1]

    def test_a_class_just_below_the_cut_is_left_out(self):
        # Variable 2's first level lies 1.8e-9 in log profit below variable
        # 1's, which crosses each budget: inside the walk's slack, yet
        # below the cut.
        error_model = ErrorModel(2.0, (1.0, 1.0 + 1.8e-9))
        near = MixedIndex((1,), SLV({2: 2}))
        for budget in (5, 9, 10, 12):
            rows, cut = _walk(error_model, budget, 1, 1.0)
            assert all(-key >= cut for key, *_ in rows)
            assert near not in {MixedIndex(alpha, SLV(items)) for _, alpha, items, *_ in rows}
            assert cut * (1 - 3e-9) < profit(near, error_model) < cut


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



class TestAdaptive:
    @pytest.mark.parametrize("d", [1, 3])
    def test_root_alone_at_root_work(self, d, field1, qoi1, field3, qoi3):
        field_spec, qoi_spec = (field1, qoi1) if d == 1 else (field3, qoi3)
        root = root_index(d)
        index_set = build_set_adaptive(field_spec, qoi_spec, dof_work(root))
        assert index_set.members == (root,)
        with pytest.raises(BudgetError):
            build_set_adaptive(field_spec, qoi_spec, dof_work(root) - 1)

    def test_sets_repeat_exactly(self, field1, qoi1):
        # A fresh evaluator, and one already warm from a larger build.
        warm = MiscEvaluator(field1, qoi1)
        build_set_adaptive(field1, qoi1, 2000, warm)
        first = build_set_adaptive(field1, qoi1, 400)
        assert build_set_adaptive(field1, qoi1, 400).to_json() == first.to_json()
        assert build_set_adaptive(field1, qoi1, 400, warm).to_json() == first.to_json()

    @pytest.mark.parametrize("d, budgets", [(1, [5, 40, 100, 400, 1000, 5000]),
                                            (3, [125, 500, 2000, 8000])], ids=["1", "3"])
    def test_sets_closed_within_budget(self, d, budgets, field1, qoi1, field3, qoi3):
        field_spec, qoi_spec = (field1, qoi1) if d == 1 else (field3, qoi3)
        evaluator = MiscEvaluator(field_spec, qoi_spec)
        for budget in budgets:
            index_set = build_set_adaptive(field_spec, qoi_spec, budget, evaluator)
            assert IndexSet(index_set.members) == index_set
            assert index_set.nominal_work() <= budget

    def test_variable_past_the_pilot_enters_in_3d(self, field3, qoi3):
        # The 3-D study fits rates for six variables (perfbench's study-3d);
        # measured profits need no fitted rate.
        index_set = build_set_adaptive(field3, qoi3, 8000)
        assert index_set.last_variable() > 6
        assert index_set.last_variable() <= field3.max_modes


def rescan_adaptive(field_spec, evaluator, work_budget):
    """The adaptive greedy rebuilt from scratch after every admission, the
    reference for ``build_set_adaptive``.  The margin is every index
    outside the set whose parents are all in, one level above a member
    along a spatial axis or a variable 1..min(max_modes, J + 1), J the
    largest admitted variable; the best member that fits, by |mixed
    difference| over DOF, is admitted.  Also says whether the best margin
    member was ever passed over for not fitting."""
    def key(m):
        return (-abs(evaluator.mixed_difference(m)) / dof_work(m),
                sum(m.alpha) + m.beta.excess(), m.alpha, m.beta.items())

    root = root_index(field_spec.d)
    closed = {root}
    spent = dof_work(root)
    skipped = False
    while True:
        top = min(field_spec.max_modes, max(m.beta.last_variable() for m in closed) + 1)
        margin = {c for m in closed for c in children(m, top)
                  if c not in closed and all(p in closed for p in c.parents())}
        fitting = [m for m in margin if spent + dof_work(m) <= work_budget]
        if not fitting:
            break
        best = min(fitting, key=key)
        skipped |= best != min(margin, key=key)
        closed.add(best)
        spent += dof_work(best)
    index_set = IndexSet(closed)
    assert index_set.nominal_work() == spent
    return index_set, skipped


class SyntheticDifferences:
    """Stands in for ``MiscEvaluator``: |mixed differences| drawn from four
    values, so that profits tie."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.values = {}

    def mixed_difference(self, index):
        return self.values.setdefault(index, self.rng.choice((1e-3, 1e-2, 0.05, 0.2)))


class TestAdaptiveOracle:
    def check(self, field_spec, budgets, evaluator):
        skipped = 0
        for budget in budgets:
            index_set = build_set_adaptive(field_spec, None, budget, evaluator)
            expected, passed_over = rescan_adaptive(field_spec, evaluator, budget)
            assert index_set == expected
            assert index_set.nominal_work() <= budget
            skipped += passed_over
        return skipped

    @pytest.mark.parametrize("d, max_modes", [(1, 2), (1, 6), (2, 3), (3, 2)])
    def test_synthetic_profits_match_rescan(self, d, max_modes):
        field_spec = FieldSpec(d=d, nu=2.5 * d, max_modes=max_modes)
        budgets = [5**d * f for f in (1, 3, 10, 30, 100, 300)]
        skipped = sum(self.check(field_spec, budgets, SyntheticDifferences(seed))
                      for seed in range(3))
        assert skipped > 0

    def test_measured_profits_match_rescan(self, field1, qoi1):
        evaluator = MiscEvaluator(field1, qoi1)
        assert self.check(field1, [5, 40, 100, 200, 400, 1000], evaluator) > 0


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
