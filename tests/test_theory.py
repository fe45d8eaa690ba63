import math

import numpy as np
import pytest

from miscpde.quadrature import max_leb_delta
from miscpde.random_field import BSequence, FieldSpec, b_sequence, max_order, p_bound
from miscpde.theory import (
    P_SAFETY_OFFSET,
    RateError,
    StochasticRateInputs,
    e_delta_equation,
    ellipse_radii,
    example_prediction,
    g_rates,
    predict_all_variants,
    r_det,
    r_misc,
    r_misc_example,
    solve_E_delta,
    stochastic_rates,
)


class TestEDelta:
    def test_residual_and_domain(self):
        root = solve_E_delta(1.0, 0.01)
        assert root > 2.0
        assert abs(e_delta_equation(root, 1.0, 0.01)) < 1e-10

    def test_monotone_in_delta(self):
        roots = [solve_E_delta(1.0, delta) for delta in (0.05, 0.01, 1e-3, 1e-4, 1e-5)]
        assert all(a > b for a, b in zip(roots, roots[1:]))
        assert all(r > 2.0 for r in roots)

    def test_delta_too_large(self):
        # Needs delta < exp(-|b0|_1).
        with pytest.raises(RateError):
            solve_E_delta(1.0, 0.5)

    def test_unresolvable_delta_is_reported(self):
        # The root for extremely small delta sits so close to 2 that no
        # double can meet the residual bound; that is an error, not a
        # silently loose answer.
        with pytest.raises(RateError):
            solve_E_delta(1.0, 1e-13)


class TestEllipseRadii:
    def test_unit_tau_radius(self):
        # b = (1,), p = 1/2, E = pi gives tau = 1 and rho = 1 + sqrt(2).
        params = ellipse_radii(BSequence(0, (1.0,)), 0.5, math.pi)
        assert abs(params.tau[0] - 1.0) < 1e-15
        assert abs(params.rho[0] - (1.0 + math.sqrt(2.0))) < 1e-15

    def test_smaller_entries_get_larger_radii(self):
        params = ellipse_radii(BSequence(0, (0.9, 0.5, 0.1)), 0.4, 3.0)
        assert params.tau[0] < params.tau[1] < params.tau[2]
        assert params.rho[0] < params.rho[1] < params.rho[2]

    def test_example_sequence_radii_grow(self):
        spec = FieldSpec(d=1, nu=2.5, max_modes=40)
        b0 = b_sequence(0, spec)
        params = ellipse_radii(b0, 1 / 3 + 1e-6, solve_E_delta(float(np.sum(b0.as_array())), 0.01))
        rho = np.asarray(params.rho)
        assert np.all(np.diff(rho) >= -1e-12)
        assert rho[-1] > rho[0]

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            ellipse_radii(BSequence(0, (1.0, 0.0)), 0.4, 3.0)

    def test_exponent_domain(self):
        with pytest.raises(ValueError):
            ellipse_radii(BSequence(0, (1.0,)), 1.2, 3.0)


class TestGRates:
    def test_small_radius_branch(self):
        # rho = 2 <= 2 * 1.067^(1/3): the plain log branch.
        assert g_rates((2.0,), 1.067) == (math.log(2.0),)

    def test_large_radius_branch(self):
        assert abs(g_rates((8.0,), 1.0)[0] - math.log(4.0)) < 1e-15

    def test_vanishing_limit(self):
        value = g_rates((1.0 + 1e-12,), 1.067)[0]
        assert 0.0 < value < 1e-11

    def test_invalid_radius(self):
        with pytest.raises(RateError):
            g_rates((1.0,), 1.067)

    def test_positive_for_example_field(self):
        inputs = StochasticRateInputs(FieldSpec(d=1, nu=2.5, max_modes=30), delta=0.01)
        rates = stochastic_rates(inputs, s=0)
        assert all(g > 0 for g in rates)
        assert inputs.leb_bound == max_leb_delta()


class TestRDet:
    def test_values(self):
        assert r_det(1, (1.0,), (1,)) == 1.0
        assert r_det(2, (1.0,) * 3, (1,) * 3) == pytest.approx(2 / 3)
        assert r_det(0, (1.0,), (1,)) == 0.0

    def test_multiplier(self):
        assert r_det(1, (1.0,), (1,), multiplier=2.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            r_det(-1, (1.0,), (1,))
        with pytest.raises(ValueError):
            r_det(1, (0.5,), (1,))


class TestRMisc:
    def test_branch_boundary(self):
        # r_det = 1 and p = 1/3 everywhere sit exactly on the boundary
        # r_det = 1/p - 2; the first branch applies.
        prediction = r_misc(1 / 3, lambda s: 1 / 3, lambda s: 0.0 if s == 0 else 1.0, 2)
        assert prediction.r_misc == 1.0

    def test_second_branch_value(self):
        # Known-input cross-check: (1/0.4 - 2) / (1 + (1/0.4 - 1/0.45)/5) = 9/19.
        prediction = r_misc(0.4, lambda s: 0.4 if s == 0 else 0.45,
                            lambda s: 0.0 if s == 0 else 5.0, 1)
        assert prediction.r_misc == pytest.approx(9 / 19, abs=1e-12)
        assert prediction.s_star == 1

    def test_degenerate_range(self):
        # s_max = 0: only the s = 0 branch contributes, and r_det(0) = 0.
        prediction = r_misc(0.3, lambda s: 0.3, lambda s: 0.0, 0)
        assert prediction.s_star == 0
        assert prediction.r_misc == 0.0

    def test_divergent_exponent(self):
        with pytest.raises(RateError):
            r_misc(0.5, lambda s: 0.5, lambda s: 1.0, 1)

    def test_violations_reported_not_clamped(self):
        prediction = r_misc(0.3, lambda s: 0.3 if s == 0 else 0.7, lambda s: float(s), 1)
        assert any("p_1" in w for w in prediction.warnings)


class TestClosedForm:
    def test_reference_values(self):
        assert r_misc_example(2.5, 1, 1.0, "theory") == 0.5
        assert r_misc_example(10.0, 1, 1.0, "theory") == 1.0
        assert r_misc_example(4.5, 3, 1.0, "theory") == 0.0

    def test_branch_switch(self):
        # nu/d >= 1/gamma + 5/2 caps the rate at 1/gamma.
        assert r_misc_example(3.5, 1, 1.0, "theory") == 1.0
        assert r_misc_example(3.4999, 1, 1.0, "theory") < 1.0

    def test_inadmissible(self):
        with pytest.raises(RateError):
            r_misc_example(2.0, 3, 1.0, "theory")
        with pytest.raises(RateError):
            r_misc_example(0.4, 1, 1.0, "square")
        with pytest.raises(ValueError):
            r_misc_example(2.5, 1, 1.0, "cubic")
        with pytest.raises(ValueError):
            example_prediction(2.5, 1, 1.0, "cubic")
        with pytest.raises(ValueError):
            r_misc_example(2.5, 1, 0.5, "theory")

    def test_monotone_in_nu_and_capped(self):
        rates = [r_misc_example(nu, 1, 1.0, "theory") for nu in (1.5, 2.0, 2.5, 3.0, 3.5, 6.0, 50.0)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 1.0

    def test_variant_ordering_on_example_grid(self):
        for nu in (2.0, 3.0, 4.5, 6.0):
            for d in (1, 3):
                rates = predict_all_variants(nu, d, 1.0)
                ordered = [rates[v] if rates[v] is not None else 0.0
                           for v in ("theory", "square", "improved")]
                assert ordered[0] <= ordered[1] <= ordered[2]

    def test_prediction_report_serializes(self):
        from miscpde.theory import VARIANTS

        assert set(predict_all_variants(2.5, 1, 1.0)) == set(VARIANTS)

    @pytest.mark.parametrize("variant", ["square", "improved"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_program_over_s_up_to_d_matches_every_order(self, variant, d):
        # The max over s <= d is the max over every admissible s, with the
        # same first maximizer, bit for bit.
        limit = 1.0 if variant == "improved" else 0.5
        for nu in (2.5, 4.5, 7.0, 20.0, 80.0):
            spec = FieldSpec(d=d, nu=nu, max_modes=1)
            p_of = lambda s: p_bound(s, spec, "square", limit) + P_SAFETY_OFFSET
            det_of = lambda s: r_det(s, (1.0,) * d, (1,) * d, multiplier=2.0)
            every = r_misc(p_of(0), p_of, det_of, max_order(spec, "square", limit),
                           improved=variant == "improved", variant=variant)
            capped = example_prediction(nu, d, 1.0, variant)
            assert (capped.r_misc.hex(), capped.s_star) == (every.r_misc.hex(), every.s_star)
            assert len(capped.r_det_by_s) <= d + 1
