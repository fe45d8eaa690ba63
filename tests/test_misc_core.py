import itertools
import math

import numpy as np
import pytest

from miscpde.misc_core import (
    EstimatorResult,
    IndexSet,
    IndexSetError,
    MiscEvaluator,
    MixedIndex,
    combination_coefficients,
    corners,
    dof_work,
    downward_closure,
    is_downward_closed,
    mimc_estimate,
    root_index,
)
from miscpde.pde_solver import solve_qoi, unknowns
from miscpde.quadrature import (
    SparseLevelVector,
    cc_points,
    cc_weights,
    level_to_nodes,
    new_node_count,
)

SLV = SparseLevelVector


def oracle_coefficients(members):
    """Independent route: the forward-offset definition, enumerated over
    all spatial dimensions and every variable active in the set."""
    members = set(members)
    dim = next(iter(members)).spatial_dim
    active = sorted({j for m in members for j in m.beta.support})
    out = {}
    for m in members:
        total = 0
        for bits in itertools.product((0, 1), repeat=dim + len(active)):
            alpha = tuple(a + b for a, b in zip(m.alpha, bits[:dim]))
            beta = m.beta
            for j, bit in zip(active, bits[dim:]):
                if bit:
                    beta = beta.bump(j)
            if MixedIndex(alpha, beta) in members:
                total += (-1) ** sum(bits)
        out[m] = total
    return out


def random_closed_set(rng, spatial_dim=1, n_vars=4, max_level=4, max_members=25, steps=60):
    members = {root_index(spatial_dim)}
    for _ in range(steps):
        if len(members) >= max_members:
            break
        base = sorted(members, key=MixedIndex.sort_key)[rng.integers(len(members))]
        coord = rng.integers(spatial_dim + n_vars)
        if coord < spatial_dim:
            candidate = base.bump_alpha(int(coord))
            if candidate.alpha[coord] > max_level:
                continue
        else:
            j = int(coord - spatial_dim + 1)
            candidate = base.bump_beta(j)
            if candidate.beta.level(j) > max_level:
                continue
        if all(p in members for p in candidate.parents()):
            members.add(candidate)
    return IndexSet(members)


class TestMixedIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixedIndex((0,), SLV())
        idx = MixedIndex((2, 1), {1: 3})
        assert isinstance(idx.beta, SLV)

    def test_parents(self):
        idx = MixedIndex((2, 1), SLV({3: 2}))
        parents = set(idx.parents())
        assert parents == {MixedIndex((1, 1), SLV({3: 2})), MixedIndex((2, 1), SLV())}

    def test_root_has_no_parents(self):
        assert list(root_index(3).parents()) == []


class TestIndexSet:
    def test_rejects_open_set(self):
        with pytest.raises(IndexSetError):
            IndexSet([MixedIndex((2,), SLV())])

    def test_closure_idempotent(self):
        members = {MixedIndex((2,), SLV({1: 2, 3: 2})), MixedIndex((1,), SLV({2: 3}))}
        closed = downward_closure(members)
        assert is_downward_closed(closed)
        assert downward_closure(closed) == closed

    def test_diagnostics(self):
        iset = IndexSet(downward_closure({MixedIndex((3, 1), SLV({2: 2, 5: 3}))}))
        assert iset.max_alpha_level() == 3
        assert iset.max_beta_level() == 3
        assert iset.last_variable() == 5
        assert iset.max_joint_variables() == 2

    def test_serialization_roundtrip(self):
        iset = IndexSet(downward_closure({MixedIndex((2, 2), SLV({1: 2, 4: 3}))}))
        text = iset.to_json()
        again = IndexSet.from_json(text)
        assert again == iset
        assert again.to_json() == text


def filtered_product(levels):
    """Independent route to the signed corners: every binary offset,
    dropping those that take a level to 0."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(levels)):
        lowered = tuple(a - b for a, b in zip(levels, bits))
        if all(v >= 1 for v in lowered):
            out.append(((-1) ** sum(bits), lowered))
    return out


class TestCorners:
    @pytest.mark.parametrize("levels", [(), (1,), (2, 2, 1), (3, 1, 2)])
    def test_matches_filtered_product(self, levels):
        assert corners(levels) == filtered_product(levels)

    def test_base_levels_are_never_lowered(self):
        assert corners((1, 1)) == [(1, (1, 1))]
        assert corners((4, 1)) == [(1, (4, 1)), (-1, (3, 1))]


class TestCombinationCoefficients:
    def test_single_member(self):
        iset = IndexSet([root_index(1)])
        assert iset.coefficients == {root_index(1): 1}

    def test_spatial_chain(self):
        iset = IndexSet([MixedIndex((1,), SLV()), MixedIndex((2,), SLV())])
        assert iset.coefficients[MixedIndex((1,), SLV())] == 0
        assert iset.coefficients[MixedIndex((2,), SLV())] == 1

    def test_against_forward_oracle_random(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            iset = random_closed_set(rng)
            assert iset.coefficients == oracle_coefficients(iset.members)

    def test_telescoping_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            iset = random_closed_set(rng, n_vars=3)
            assert sum(iset.coefficients.values()) == 1

    def test_open_set_rejected(self):
        with pytest.raises(IndexSetError):
            combination_coefficients(IndexSet([MixedIndex((2,), SLV())]))


class TestDifferences:
    def test_base_spatial_difference(self, field1, qoi1, shared_evaluator1):
        ev = shared_evaluator1
        base = ev.delta_det((1,), SLV())
        assert base == solve_qoi((1,), {}, field1, qoi1)

    def test_first_order_spatial_difference(self, field1, qoi1, shared_evaluator1):
        ev = shared_evaluator1
        expected = solve_qoi((2,), {}, field1, qoi1) - solve_qoi((1,), {}, field1, qoi1)
        assert abs(ev.delta_det((2,), SLV()) - expected) < 1e-15

    def test_two_dimensional_corner_expansion(self, field3, qoi3):
        # d = 3 spatial mixed difference expands to the full alternating
        # corner sum; verified against direct independent evaluations.
        ev = MiscEvaluator(field3, qoi3)
        alpha = (2, 2, 1)
        expected = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            shifted = tuple(a - b for a, b in zip(alpha, bits))
            if any(v == 0 for v in shifted):
                continue
            expected += (-1) ** sum(bits) * solve_qoi(shifted, {}, field3, qoi3)
        assert abs(ev.delta_det(alpha, SLV()) - expected) < 1e-15

    def test_mixed_difference_base(self, field1, qoi1, shared_evaluator1):
        ev = shared_evaluator1
        assert ev.mixed_difference(root_index(1)) == solve_qoi((1,), {}, field1, qoi1)

    def test_mixed_difference_single_quadrature_increment(self, field1, qoi1, shared_evaluator1):
        ev = shared_evaluator1
        # Q^(3)[F^1] - F^1(0) via an independent quadrature summation.
        pts, wts = cc_points(2), cc_weights(2)
        q_value = sum(w * solve_qoi((1,), {1: float(p)}, field1, qoi1) for p, w in zip(pts, wts))
        expected = q_value - solve_qoi((1,), {}, field1, qoi1)
        got = ev.mixed_difference(MixedIndex((1,), SLV({1: 2})))
        assert abs(got - expected) < 1e-14

    def test_spatial_decay_rate(self, field1, qoi1, shared_evaluator1):
        ev = shared_evaluator1
        beta = SLV({1: 2})
        values = [abs(ev.mixed_difference(MixedIndex((a,), beta))) for a in (2, 3, 4)]
        # Second-order differences shrink roughly 4x per level.
        assert 2.5 < values[0] / values[1] < 6.0
        assert 2.5 < values[1] / values[2] < 6.0


class TestEstimator:
    def test_minimal_set(self, field1, qoi1):
        ev = MiscEvaluator(field1, qoi1)
        result = ev.evaluate(IndexSet([root_index(1)]))
        assert result.value == solve_qoi((1,), {}, field1, qoi1)
        assert result.work == unknowns((1,))

    def test_two_forms_agree_on_random_sets(self, field1, qoi1, shared_evaluator1):
        rng = np.random.default_rng(31)
        ev = shared_evaluator1
        for _ in range(8):
            iset = random_closed_set(rng, max_members=15, max_level=3)
            surplus = ev.evaluate(iset, "surplus").value
            combo = ev.evaluate(iset, "combination").value
            assert abs(surplus - combo) <= 1e-10 * max(1.0, abs(surplus))

    def test_cache_prevents_resolves(self, field1, qoi1):
        ev = MiscEvaluator(field1, qoi1)
        iset = IndexSet(downward_closure({MixedIndex((2,), SLV({1: 2, 2: 2}))}))
        ev.evaluate(iset, "surplus")
        again = ev.evaluate(iset, "surplus")
        assert again.solves == 0

    def test_nested_points_share_cache(self, field1, qoi1):
        ev = MiscEvaluator(field1, qoi1)
        ev.evaluate(IndexSet(downward_closure({MixedIndex((1,), SLV({1: 2}))})))
        before = ev.cache.misses
        ev.evaluate(IndexSet(downward_closure({MixedIndex((1,), SLV({1: 3}))})))
        # Level 3 adds exactly m(3) - m(2) new abscissae.
        assert ev.cache.misses - before == level_to_nodes(3) - level_to_nodes(2)

    def test_work_decomposition(self, field1, qoi1):
        iset = IndexSet(downward_closure({MixedIndex((2,), SLV({1: 3, 2: 2}))}))
        total = 0
        for m in iset.members:
            new_points = math.prod(new_node_count(b) for _, b in m.beta.items())
            assert all(
                new_node_count(b) <= 2 ** (b - 1) for _, b in m.beta.items()
            )
            total += new_points * unknowns(m.alpha)
        assert iset.nominal_work() == total
        ev = MiscEvaluator(field1, qoi1)
        result = ev.evaluate(iset, "surplus")
        assert result.work == total
        assert result.solve_work == total  # fresh cache: every grid point is solved once

    def test_zero_coefficient_member_changes_only_surplus_work(self, field1, qoi1):
        chain = IndexSet([MixedIndex((1,), SLV()), MixedIndex((2,), SLV()),
                          MixedIndex((3,), SLV())])
        assert chain.coefficients[MixedIndex((2,), SLV())] == 0
        surplus = MiscEvaluator(field1, qoi1).evaluate(chain, "surplus")
        combo = MiscEvaluator(field1, qoi1).evaluate(chain, "combination")
        assert abs(surplus.value - combo.value) < 1e-12
        assert combo.value == solve_qoi((3,), {}, field1, qoi1)
        assert combo.solve_work == unknowns((3,))
        assert surplus.solve_work == sum(unknowns((a,)) for a in (1, 2, 3))
        assert surplus.work == combo.work

    def test_open_set_rejected(self, field1, qoi1):
        ev = MiscEvaluator(field1, qoi1)
        with pytest.raises(IndexSetError):
            ev.evaluate(IndexSet([MixedIndex((2,), SLV())]))

    def test_threaded_evaluation_matches_serial(self, field1, qoi1):
        iset = IndexSet(downward_closure({MixedIndex((2,), SLV({1: 3, 2: 2}))}))
        serial = MiscEvaluator(field1, qoi1).evaluate(iset).value
        threaded = MiscEvaluator(field1, qoi1, threads=4).evaluate(iset).value
        assert serial == threaded


class TestMimc:
    def test_degenerate_telescoping_is_exact(self, field1, qoi1):
        levels = [(1,), (2,), (3,)]
        result = mimc_estimate(levels, [4, 4, 4], field1, qoi1, 0, seed=11)
        ev = MiscEvaluator(field1, qoi1)
        expected = sum(ev.delta_det(a, SLV()) for a in levels)
        assert result.value == expected
        assert result.standard_error == 0.0

    def test_seed_reproducibility(self, field1, qoi1):
        a = mimc_estimate([(1,), (2,)], [40, 10], field1, qoi1, 3, seed=77)
        b = mimc_estimate([(1,), (2,)], [40, 10], field1, qoi1, 3, seed=77)
        assert a.value == b.value and a.level_means == b.level_means

    def test_single_level_clt_band(self, field1, qoi1, shared_evaluator1):
        # 10^4 uniform samples of F^1(y_1) against the high-level quadrature.
        result = mimc_estimate([(1,)], [10_000], field1, qoi1, 1, seed=123)
        truth = shared_evaluator1.tensor_value((1,), SLV({1: 6}))
        assert abs(result.value - truth) <= 3 * result.standard_error

    def test_work_accounting(self, field1, qoi1):
        result = mimc_estimate([(1,), (2,)], [10, 5], field1, qoi1, 2, seed=0)
        expected = 10 * unknowns((1,)) + 5 * (unknowns((2,)) + unknowns((1,)))
        assert result.work == expected

    def test_input_validation(self, field1, qoi1):
        with pytest.raises(ValueError):
            mimc_estimate([(1,)], [1, 2], field1, qoi1, 0, seed=0)
        with pytest.raises(ValueError):
            mimc_estimate([(1,)], [0], field1, qoi1, 0, seed=0)


class TestDofWork:
    def test_root(self):
        assert dof_work(root_index(1)) == 5
        assert dof_work(root_index(3)) == 125

    def test_quadrature_increment(self):
        assert dof_work(MixedIndex((1,), SLV({1: 2}))) == 2 * 5
        assert dof_work(MixedIndex((2,), SLV({1: 3, 2: 2}))) == 2 * 2 * 11
