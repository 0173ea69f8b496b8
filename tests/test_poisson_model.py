import math
from fractions import Fraction
from math import comb

import pytest

from rosterstat.case import builtin_paper_case
from rosterstat.poisson_model import (
    FAVORS_DEFENCE,
    FAVORS_PROSECUTION,
    IntensityEstimate,
    SuspectIntensity,
    conditional_binomial_test,
    estimate_mu,
    lr_poisson,
    observed_rate,
    verbal_scale,
)

RKZ = ["RKZ-41", "RKZ-42"]


@pytest.fixture
def case():
    return builtin_paper_case("corrected")


class TestEstimateMu:
    def test_exclude_suspect_rkz(self, case):
        mu = estimate_mu(case, "exclude_suspect", RKZ)
        assert (mu.numerator, mu.denominator) == (13, 614)

    def test_include_suspect_rkz(self, case):
        mu = estimate_mu(case, "include_suspect", RKZ)
        assert (mu.numerator, mu.denominator) == (19, 675)

    def test_default_names_pool_rkz(self, case):
        assert estimate_mu(case, "exclude_suspect").exact == Fraction(13, 614)

    def test_per_ward_values(self, case):
        assert estimate_mu(case, "exclude_suspect", ["RKZ-41"]).exact == Fraction(4, 333)
        assert estimate_mu(case, "include_suspect", ["RKZ-41"]).exact == Fraction(5, 336)
        assert estimate_mu(case, "exclude_suspect", ["RKZ-42"]).exact == Fraction(9, 281)
        assert estimate_mu(case, "include_suspect", ["RKZ-42"]).exact == Fraction(14, 339)

    def test_fixed_value(self, case):
        mu = estimate_mu(case, "fixed", fixed_value=0.05)
        assert mu.mu == 0.05
        assert mu.basis == "fixed"

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_fixed_value_must_be_positive_and_finite(self, case, value):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_mu(case, "fixed", fixed_value=value)

    def test_zero_incidents_rejected(self):
        from rosterstat.case import CaseFile, WardRoster

        quiet = CaseFile("q", "s", (WardRoster("A", 10, 3, 0, 0),))
        with pytest.raises(ValueError, match="intensity 0"):
            estimate_mu(quiet, "exclude_suspect", ["A"])


class TestLrPoisson:
    def test_prosecution_convention(self, case):
        mu = estimate_mu(case, "exclude_suspect", RKZ)
        lr = lr_poisson(mu, observed_rate(6, 61), 61, 6)
        assert lr.value == pytest.approx(90.7, abs=0.05)
        assert lr.verbal == "slightly more likely under H_p than under H_d"
        assert lr.direction == FAVORS_PROSECUTION

    def test_defence_convention(self, case):
        mu = estimate_mu(case, "include_suspect", RKZ)
        lr = lr_poisson(mu, observed_rate(6, 61), 61, 6)
        assert 24.5 <= lr.value <= 25.5
        assert lr.verbal == "slightly more likely under H_p than under H_d"

    def test_identical_hypotheses_give_one(self):
        mu = IntensityEstimate(mu=0.03, basis="fixed")
        lr = lr_poisson(mu, 0.03, 40, 3)
        assert lr.value == 1.0
        assert lr.direction == "neutral"

    def test_strictly_increasing_in_k(self):
        mu = IntensityEstimate(mu=0.02, basis="fixed")
        values = [lr_poisson(mu, 0.08, 50, k).value for k in range(0, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_mu_under_observed_rate(self):
        # a larger background intensity weakens the evidence, matching the
        # published 25 < 90.7 ordering for 19/675 > 13/614
        mu_l = observed_rate(6, 61)
        grid = [0.01, 0.02, 0.05, 0.09]
        values = [
            lr_poisson(IntensityEstimate(mu=m, basis="fixed"), mu_l, 61, 6).value
            for m in grid
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sub_unit_ratio_flips_direction(self):
        # an elevated suspect intensity with zero observed incidents makes
        # the evidence favor the defence
        mu = IntensityEstimate(mu=0.02, basis="fixed")
        lr = lr_poisson(mu, 0.1, 30, 0)
        assert lr.value < 1.0
        assert lr.direction == FAVORS_DEFENCE
        assert "under H_d" in lr.verbal

    def test_rejects_zero_shifts(self):
        mu = IntensityEstimate(mu=0.1, basis="fixed")
        with pytest.raises(ValueError):
            lr_poisson(mu, observed_rate(1, 5), 0, 1)


class TestVerbalScale:
    @pytest.mark.parametrize("lr,text", [
        (1.0, "equally likely under H_p as under H_d"),
        (90.7, "slightly more likely under H_p than under H_d"),
        (99.999, "slightly more likely under H_p than under H_d"),
        (100.0, "more likely under H_p than under H_d"),
        (999.0, "more likely under H_p than under H_d"),
        (1000.0, "much more likely under H_p than under H_d"),
        (7000.0, "much more likely under H_p than under H_d"),
        (10_000.0, "very much more likely under H_p than under H_d"),
        (1e9, "very much more likely under H_p than under H_d"),
    ])
    def test_bands(self, lr, text):
        assert verbal_scale(lr) == text

    def test_reciprocal_below_one(self):
        assert verbal_scale(1 / 250) == "more likely under H_d than under H_p"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verbal_scale(0.0)
        with pytest.raises(ValueError):
            verbal_scale(-2.0)


class TestConditionalBinomial:
    def test_rkz_pool_matches_direct_summation(self, case):
        p = Fraction(61, 675)
        exact = sum(
            Fraction(comb(19, x)) * p**x * (1 - p) ** (19 - x) for x in range(6, 20)
        )
        result = conditional_binomial_test(case, RKZ)
        assert result.p_value == pytest.approx(float(exact), rel=1e-10, abs=0)

    def test_agrees_with_pooled_hypergeometric(self, case):
        from rosterstat.frequentist import pooled_test

        binom = conditional_binomial_test(case, RKZ).p_value
        pooled = pooled_test(case, RKZ).p_value
        assert 1 / 1.5 <= binom / pooled <= 1.5

    def test_zero_threshold(self):
        from rosterstat.case import CaseFile, WardRoster

        case = CaseFile("t", "s", (WardRoster("A", 20, 5, 3, 0),))
        assert conditional_binomial_test(case, ["A"]).p_value == 1.0

    def test_suspect_with_all_shifts(self):
        from rosterstat.case import CaseFile, WardRoster

        case = CaseFile("t", "s", (WardRoster("A", 20, 20, 3, 3),))
        assert conditional_binomial_test(case, ["A"]).p_value == 1.0

class TestIntensityTypes:
    def test_estimate_consistency_enforced(self):
        with pytest.raises(ValueError):
            IntensityEstimate(mu=0.5, basis="exclude_suspect",
                              numerator=1, denominator=10)

    def test_observed_rate_invariant(self):
        s = observed_rate(6, 61)
        assert s.mu_L * 61 == pytest.approx(6.0, rel=1e-12, abs=0)
        assert s.exact * 61 == 6

    @pytest.mark.parametrize("numerator, denominator", [(0, 61), (6, 0), (-1, 61)])
    def test_suspect_intensity_needs_positive_counts(self, numerator, denominator):
        with pytest.raises(ValueError, match="positive counts"):
            SuspectIntensity(mu_L=0.1, rule="observed_rate",
                             numerator=numerator, denominator=denominator)

    def test_observed_rate_rejects_zero_incidents(self):
        with pytest.raises(ValueError):
            observed_rate(0, 61)
