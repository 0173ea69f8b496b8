import math
import sys
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest
import scipy.stats

from rosterstat.case import CaseValidationError, builtin_paper_case
from rosterstat.frequentist import (
    bonferroni_min,
    convolved_sum_test,
    elffers_pipeline,
    fisher_combine,
    pooled_test,
    ward_tail_p,
)

RKZ = ["RKZ-41", "RKZ-42"]


def exact_hg_tail(n, r, k, x_min):
    lo = max(x_min, max(0, k - (n - r)))
    return sum(
        Fraction(comb(r, x) * comb(n - r, k - x), comb(n, k))
        for x in range(lo, min(r, k) + 1)
    )


class TestWardTail:
    def test_jkz_bound(self):
        result = ward_tail_p(builtin_paper_case("corrected").ward("JKZ"))
        assert result.method == "per_ward_tail"
        assert 27 * result.p_value < 1.0 / 300_000

    def test_zero_threshold_is_one(self):
        from rosterstat.case import WardRoster

        w = WardRoster("w", 50, 10, 5, 0)
        assert ward_tail_p(w).p_value == 1.0

    def test_rkz41_exact_oracle(self):
        # P(X >= 1) = 1 - C(333,5)/C(336,5)
        exact = 1 - Fraction(comb(333, 5), comb(336, 5))
        got = ward_tail_p(builtin_paper_case("corrected").ward("RKZ-41"))
        assert got.p_value == pytest.approx(float(exact), rel=1e-12, abs=0)


class TestElffersPipeline:
    def test_original_variant_order_of_magnitude(self):
        result = elffers_pipeline(builtin_paper_case("original"), jkz_multiplier=27)
        # the published figure was "1 in 342 million"; only the order of
        # magnitude is asserted, reconstruction of the rounding is not possible
        assert 1e-10 <= result.p_value <= 1e-7
        assert not result.is_p_value
        assert "NOT a p-value" in result.notes

    def test_corrected_variant_exact_oracle(self):
        case = builtin_paper_case("corrected")
        exact = (
            27 * exact_hg_tail(1029, 142, 8, 8)
            * exact_hg_tail(336, 3, 5, 1)
            * exact_hg_tail(339, 58, 14, 5)
        )
        result = elffers_pipeline(case, jkz_multiplier=27)
        assert result.p_value == pytest.approx(float(exact), rel=1e-10, abs=0)

    def test_single_ward_multiplier_one(self):
        from rosterstat.case import CaseFile, WardRoster

        case = CaseFile("toy", "s", (WardRoster("A", 30, 10, 4, 3),))
        pipeline = elffers_pipeline(case, jkz_multiplier=1)
        assert pipeline.p_value == ward_tail_p(case.wards[0]).p_value

    def test_product_never_exceeds_components(self):
        case = builtin_paper_case("corrected")
        result = elffers_pipeline(case, jkz_multiplier=27)
        for name, tail, m in result.components:
            assert result.p_value <= min(1.0, m * tail) + 1e-15

    @pytest.mark.parametrize("multiplier", [2**1024, 10**400])
    def test_multiplier_past_the_float_range_rejected(self, multiplier):
        with pytest.raises(ValueError, match=r"^jkz_multiplier is past the float range"):
            elffers_pipeline(builtin_paper_case("original"), multiplier)

    def test_largest_float_multiplier_accepted(self):
        result = elffers_pipeline(builtin_paper_case("original"), int(sys.float_info.max))
        assert {name: m for name, _, m in result.components}["JKZ"] == sys.float_info.max
        assert 0.0 < result.p_value <= 1.0


class TestBonferroni:
    def test_definition(self):
        assert bonferroni_min([0.001], 27).p_value == pytest.approx(0.027, abs=0)

    def test_clamped(self):
        assert bonferroni_min([1.0, 1.0], 2).p_value == 1.0

    def test_matches_posthoc_for_equal_nurses(self):
        # 27 hypothetical nurses with the JKZ suspect's p among them
        tail = ward_tail_p(builtin_paper_case("corrected").ward("JKZ"))
        bon = bonferroni_min([tail.p_value] + [1.0] * 26, 27)
        assert bon.p_value == pytest.approx(27 * tail.p_value, rel=1e-12, abs=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bonferroni_min([], 5)


class TestPooled:
    def test_rkz_pool_exact(self):
        result = pooled_test(builtin_paper_case("corrected"), RKZ)
        assert result.p_value == pytest.approx(
            float(exact_hg_tail(675, 61, 19, 6)), rel=1e-11, abs=0)

    def test_single_ward_equals_per_ward(self):
        case = builtin_paper_case("corrected")
        assert pooled_test(case, ["RKZ-42"]).p_value == ward_tail_p(
            case.ward("RKZ-42")).p_value

    def test_toy_case_brute_force(self):
        from rosterstat.case import CaseFile, WardRoster

        w = WardRoster("A", 10, 3, 2, 1)
        case = CaseFile("toy", "s", (w, WardRoster("B", 10, 3, 2, 1)))
        result = pooled_test(case, ["A", "B"])
        assert result.p_value == pytest.approx(
            float(exact_hg_tail(20, 6, 4, 2)), rel=1e-12, abs=0)


class TestConvolvedSum:
    def test_rkz_pair_rounds_to_paper_value(self):
        result = convolved_sum_test(builtin_paper_case("corrected"), RKZ)
        assert f"{result.p_value:.2g}" == "0.022"
        assert result.statistic == 6.0

    def test_single_ward_equals_per_ward(self):
        case = builtin_paper_case("corrected")
        assert convolved_sum_test(case, ["RKZ-42"]).p_value == ward_tail_p(
            case.ward("RKZ-42")).p_value

    def test_two_tiny_wards_joint_enumeration(self):
        from rosterstat.case import CaseFile, WardRoster

        case = CaseFile("toy", "s", (
            WardRoster("A", 5, 2, 2, 1), WardRoster("B", 6, 3, 2, 2)))

        def pmf(n, r, k, x):
            return Fraction(comb(r, x) * comb(n - r, k - x), comb(n, k))

        exact = sum(
            pmf(5, 2, 2, a) * pmf(6, 3, 2, b)
            for a in range(3) for b in range(3) if a + b >= 3
        )
        result = convolved_sum_test(case, ["A", "B"])
        assert result.p_value == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_paper_ordering_convolved_above_pooled(self):
        case = builtin_paper_case("corrected")
        assert convolved_sum_test(case, RKZ).p_value > pooled_test(case, RKZ).p_value

    def test_three_wards_supported(self):
        case = builtin_paper_case("corrected")
        result = convolved_sum_test(case, ["JKZ", "RKZ-41", "RKZ-42"])
        assert 0.0 < result.p_value < 1.0

    def test_repeated_ward_rejected(self):
        # convolving one ward with itself would count its incidents twice
        with pytest.raises(CaseValidationError, match="'RKZ-42' is named more than once"):
            convolved_sum_test(builtin_paper_case("corrected"), ["RKZ-42", "RKZ-42"])

    def test_empty_ward_list_rejected(self):
        with pytest.raises(CaseValidationError, match="the ward list is empty"):
            convolved_sum_test(builtin_paper_case("corrected"), [])


class TestFisherCombine:
    def test_all_ones(self):
        result = fisher_combine([1.0, 1.0, 1.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_all_ones_statistic_is_positive_zero(self):
        # -2 * fsum([0.0, ...]) alone is -0.0, which prints as "-0.0"
        assert math.copysign(1.0, fisher_combine([1.0, 1.0]).statistic) == 1.0

    def test_single_value_passthrough(self):
        for p in (0.5, 0.031, 1.0, 1e-9):
            assert fisher_combine([p]).p_value == pytest.approx(p, rel=1e-12, abs=0)

    def test_rkz_tails_cross_checked_against_scipy(self):
        case = builtin_paper_case("corrected")
        tails = [ward_tail_p(case.ward(name)).p_value for name in RKZ]
        result = fisher_combine(tails)
        expected = scipy.stats.chi2.sf(result.statistic, 4)
        assert result.p_value == pytest.approx(expected, rel=1e-9, abs=0)
        # the combined p-value is far above the original pipeline's product
        pipeline = elffers_pipeline(builtin_paper_case("original"), 27)
        assert result.p_value > pipeline.p_value * 1e4

    def test_permutation_invariant(self):
        ps = [0.03, 0.4, 0.77]
        reference = fisher_combine(ps).p_value
        for perm in permutations(ps):
            assert fisher_combine(list(perm)).p_value == pytest.approx(
                reference, rel=1e-14, abs=0)

    def test_uniform_under_null(self):
        # combining three independent uniforms must itself be Uniform(0,1)
        rng = np.random.default_rng(2024)
        draws = rng.random((10_000, 3))
        combined = np.sort([fisher_combine(list(row)).p_value for row in draws])
        grid = (np.arange(1, 10_001)) / 10_000
        ks = float(np.max(np.maximum(np.abs(combined - grid),
                                     np.abs(combined - grid + 1 / 10_000))))
        assert ks < 0.02

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fisher_combine([0.5, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fisher_combine([0.5, 1.5])
        with pytest.raises(ValueError):
            fisher_combine([])


def test_result_in_unit_interval_or_raises():
    from rosterstat.frequentist import TestResult

    with pytest.raises(ValueError):
        TestResult(method="per_ward_tail", p_value=1.2)


def test_one_screen_builds_each_vector_and_the_pool_once(monkeypatch):
    """The methods of one analysis share each ward's pmf vector and one pool."""
    from rosterstat import case as case_module
    from rosterstat import distributions
    from rosterstat.case import CaseFile, WardRoster, pool_wards
    from rosterstat.poisson_model import conditional_binomial_test, estimate_mu

    case = CaseFile("screen", "s", (WardRoster("A", 300, 40, 9, 4),
                                    WardRoster("B", 250, 30, 7, 2),
                                    WardRoster("C", 410, 55, 12, 5)))
    names = ["A", "B", "C"]
    built = []

    def build(*args, **kwargs):
        built.append(WardRoster(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(case_module, "WardRoster", build)
    vectors = distributions._hypergeom_vector
    vectors.cache_clear()
    before = vectors.cache_info(), len(built)
    for ward in case.wards:
        ward_tail_p(ward)
    pooled_test(case, names)
    convolved_sum_test(case, names)
    conditional_binomial_test(case, names)
    for basis in ("exclude_suspect", "include_suspect"):
        estimate_mu(case, basis, names)
    after = vectors.cache_info(), len(built)
    # 3 wards and the pool; the convolution reads the 3 wards' vectors again.
    assert (after[0].misses - before[0].misses, after[0].hits - before[0].hits) == (4, 3)
    # pooled_test pools; the binomial test and both bases read that pool.
    assert after[1] - before[1] == 1 and pool_wards(case, names) is built[-1]
