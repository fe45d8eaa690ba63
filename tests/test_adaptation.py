import hashlib
import math

import numpy as np
import pytest

from miscpde.adaptation import (
    BudgetError,
    ErrorModel,
    RateFitError,
    WorkModel,
    box_universe,
    build_set_apriori,
    build_set_bruteforce,
    error_contribution_model,
    fit_rates,
    isotropic_work_model,
    pilot_level,
    pilot_samples,
    profit_entry,
    sweep_apriori,
    work_contribution,
)
from miscpde.misc_core import (
    IndexSet,
    MiscEvaluator,
    MixedIndex,
    combination_coefficients,
    is_downward_closed,
    root_index,
)
from miscpde.quadrature import SparseLevelVector

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

    def test_threshold_floor(self):
        result = build_set_apriori(self.wm, self.em, epsilon=1.0)
        assert result.index_set.members == (root_index(1),)

    def test_deterministic_threshold_is_contiguous(self):
        # Without stochastic rates the profit is 2^(-3 alpha): the
        # threshold set is exactly {alpha <= astar}.
        em0 = ErrorModel(r_fem=2.0, g_tilde=())
        eps = 2.0 ** (-3 * 3.5)
        result = build_set_apriori(self.wm, em0, epsilon=eps)
        expected = {MixedIndex((a,), SLV()) for a in (1, 2, 3)}
        assert set(result.index_set.members) == expected

    def test_threshold_members_clear_epsilon(self):
        eps = 1e-4
        result = build_set_apriori(self.wm, self.em, epsilon=eps)
        assert result.flagged == ()
        for m in result.index_set.members:
            assert result.profits[m].profit >= eps

    def test_threshold_monotonicity(self):
        loose = build_set_apriori(self.wm, self.em, epsilon=1e-5)
        tight = build_set_apriori(self.wm, self.em, epsilon=1e-3)
        assert set(tight.index_set.members) <= set(loose.index_set.members)

    def test_always_downward_closed(self):
        for eps in (1e-2, 1e-4, 1e-6):
            result = build_set_apriori(self.wm, self.em, epsilon=eps)
            assert is_downward_closed(result.index_set.members)

    def test_budget_mode_maximality(self):
        result = build_set_apriori(self.wm, self.em, work_budget=600)
        assert result.dof_work_total <= 600
        assert result.next_profit is not None
        relaxed = build_set_apriori(self.wm, self.em, epsilon=result.next_profit)
        assert relaxed.dof_work_total > 600

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            build_set_apriori(self.wm, self.em, work_budget=3)

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            build_set_apriori(self.wm, self.em)
        with pytest.raises(ValueError):
            build_set_apriori(self.wm, self.em, epsilon=1e-3, work_budget=100)

    def test_frontier_bounds_new_variables(self):
        # Wide rates would activate many variables; the frontier admits
        # them only a bounded distance past the deepest active one.
        em = ErrorModel(r_fem=2.0, g_tilde=(0.3,) * 8)
        narrow = build_set_apriori(self.wm, em, work_budget=2000, frontier_width=1)
        assert is_downward_closed(narrow.index_set.members)
        wide = build_set_apriori(self.wm, em, work_budget=2000, frontier_width=4)
        assert wide.index_set.last_variable() >= narrow.index_set.last_variable()

    def test_universe_restriction(self):
        universe = box_universe(1, 2, 2, 1)
        result = build_set_apriori(self.wm, self.em, epsilon=1e-9, universe=universe)
        assert set(result.index_set.members) <= set(universe.members)


# Oracle for the a-priori builder, recorded from the implementation that
# ran one independent greedy build per budget and computed combination
# coefficients from scratch.  For each budget: the sha256 of
# IndexSet.to_json() (members and coefficients), eps and next_profit.
# d1 holds budgets 1279 and 1280: at 1280 a profit class fills the
# budget exactly and is admitted.  deterministic_d1 starts at the root's
# own work, 5.
ORACLE_SETTINGS = {
    "d1": (1, 1.0, ErrorModel(2.0, (0.6, 1.1, 1.9, 2.4, 3.0, 3.5), 0.7), 2, None),
    "d1_fw1": (1, 1.0, ErrorModel(2.0, (2.5, 2.0) + (0.3,) * 6), 1, None),
    "d1_fw4": (1, 1.0, ErrorModel(2.0, (2.5, 2.0) + (0.3,) * 6), 4, None),
    "d3": (3, 1.5, ErrorModel(3.0, (0.8, 1.2, 1.6, 2.0), 2.5), 2, None),
    "universe": (1, 1.0, ErrorModel(2.0, (0.6, 1.1)), 2, (5, 3, 2)),
    "deterministic_d1": (1, 1.0, ErrorModel(2.0, ()), 2, None),
    "deterministic_d3": (3, 1.0, ErrorModel(2.0, ()), 2, None),
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
    "d1_fw1": [
        (100, "550045eff07b247af0a557cb4516b6b8620f184df8df36b5ee62dde5863b9a3a",
         0.005130312413993675, 0.017150363627938325),
        (400, "a5eacc2446e056fa8883a9ee06ace8691b0cac38868d265f92d3a772b7a72028",
         0.005130312413993675, 0.012705301866893724),
        (1600, "fd939ae4feffbd4750c5c8ae01c6f8623aa1f2c5abede4218dd454d16163656e",
         0.005130312413993675, 0.004706159561128158),
        (6400, "a1ccfec5f46875606b3cc0da0188ef06ac44efb0f33fa9523ebcb7360fce8287",
         0.0019003144570380616, 0.001743204376159608),
        (25600, "9fcfdbd5df37502804f839c05a80a6e3a0e8645d3101b854cab83a03eb212574",
         0.00047834542286321073, 0.00047834542286321057),
    ],
    "d1_fw4": [
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
EPSILON_ORACLE = [
    (0.01, "a9ca86868ee93f1f85928789b75d65116a01cf12f3ad84c55fe46c61f5280be6",
     0.0109375, 0.006543627090990284),
    (0.0001, "6957e91397da2442e2f54fab33d4f4ca1a32e0f6e1628cecad6873ea7687e819",
     0.0001008524108627656, 9.947959329979798e-05),
    (1e-06, "72959266819654adb23be9aafe37a4058218ebe11f4f2cebedb57ab62e2cd610",
     1.0137518684428193e-06, 9.75635275550188e-07),
]


def oracle_setting(name):
    d, gamma, error_model, frontier_width, box = ORACLE_SETTINGS[name]
    universe = box_universe(d, *box) if box else None
    return isotropic_work_model(d, gamma), error_model, frontier_width, universe


def assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model):
    assert hashlib.sha256(result.index_set.to_json().encode()).hexdigest() == digest
    assert result.eps == eps
    assert result.next_profit == next_profit
    assert result.flagged == ()
    assert result.dof_work_total == result.index_set.nominal_work()
    assert result.profits == {
        m: profit_entry(m, work_model, error_model) for m in result.index_set
    }


class TestSweepOracle:
    @pytest.mark.parametrize("name", sorted(BUDGET_ORACLE))
    def test_sweep_reproduces_every_budget(self, name):
        work_model, error_model, frontier_width, universe = oracle_setting(name)
        rows = BUDGET_ORACLE[name]
        results = sweep_apriori(work_model, error_model, [row[0] for row in rows],
                                frontier_width, universe)
        assert len(results) == len(rows)
        for result, (_, digest, eps, next_profit) in zip(results, rows):
            assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model)
        last = results[-1].index_set
        assert last.coefficients == combination_coefficients(IndexSet(last.members))

    @pytest.mark.parametrize("name", sorted(BUDGET_ORACLE))
    def test_single_builds_reproduce_every_budget(self, name):
        work_model, error_model, frontier_width, universe = oracle_setting(name)
        for budget, digest, eps, next_profit in BUDGET_ORACLE[name]:
            result = build_set_apriori(work_model, error_model, work_budget=budget,
                                       frontier_width=frontier_width, universe=universe)
            assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model)

    def test_threshold_builds_reproduce_oracle(self):
        work_model, error_model, frontier_width, _ = oracle_setting("d1")
        for epsilon, digest, eps, next_profit in EPSILON_ORACLE:
            result = build_set_apriori(work_model, error_model, epsilon=epsilon,
                                       frontier_width=frontier_width)
            assert_matches_oracle(result, digest, eps, next_profit, work_model, error_model)

    def test_budgets_must_increase(self):
        work_model, error_model, _, _ = oracle_setting("d1")
        for budgets in ([], [320, 80], [80, 80]):
            with pytest.raises(ValueError):
                sweep_apriori(work_model, error_model, budgets)
        with pytest.raises(BudgetError):
            sweep_apriori(work_model, error_model, [3, 80])


class TestBruteForce:
    def test_single_member_universe(self, field1, qoi1):
        universe = box_universe(1, 1, 1, 0)
        result = build_set_bruteforce(universe, field1, qoi1, epsilon=1e-12)
        assert result.index_set.members == (root_index(1),)
        root_entry = result.profits[root_index(1)]
        assert root_entry.d_w == 5.0
        assert root_entry.profit > 0

    def test_profits_reproducible(self, field1, qoi1):
        universe = box_universe(1, 3, 2, 1)
        first = build_set_bruteforce(universe, field1, qoi1, epsilon=1e-6)
        second = build_set_bruteforce(universe, field1, qoi1, epsilon=1e-6)
        assert {m: e.d_e for m, e in first.profits.items()} == {
            m: e.d_e for m, e in second.profits.items()
        }

    def test_threshold_closure_flags(self, field1, qoi1):
        universe = box_universe(1, 3, 2, 1)
        result = build_set_bruteforce(universe, field1, qoi1, epsilon=1e-6)
        assert is_downward_closed(result.index_set.members)
        for m in result.flagged:
            assert result.profits[m].profit < 1e-6

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
            build_set_bruteforce(big, field1, qoi1, epsilon=1e-6)


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
