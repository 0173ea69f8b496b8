import dataclasses
import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosterstat.case import CaseFile, WardRoster, builtin_paper_case
from rosterstat.distributions import binomial_tail
from rosterstat.poisson_model import (
    NEUTRAL,
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


def ratio(record):
    """The exact (numerator, denominator) pair an intensity record holds."""
    return record.numerator, record.denominator


def fixed(mu):
    """A fixed intensity whose counts are mu's binary fraction, as estimate_mu builds it."""
    return IntensityEstimate(mu, "fixed", *mu.as_integer_ratio())


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

    def test_per_ward_values(self, case):
        assert ratio(estimate_mu(case, "exclude_suspect", ["RKZ-41"])) == (4, 333)
        assert ratio(estimate_mu(case, "include_suspect", ["RKZ-41"])) == (5, 336)
        assert ratio(estimate_mu(case, "exclude_suspect", ["RKZ-42"])) == (9, 281)
        assert ratio(estimate_mu(case, "include_suspect", ["RKZ-42"])) == (14, 339)

    def test_fixed_value(self, case):
        mu = estimate_mu(case, "fixed=0.05", RKZ)
        assert mu.mu == 0.05
        assert mu.basis == "fixed"
        assert ratio(mu) == (0.05).as_integer_ratio()

    def test_fixed_counts_are_the_values_binary_fraction(self, case):
        # 0.02 is not 1/50 as a float: the counts are the float's own fraction
        mu = estimate_mu(case, "fixed=0.02", RKZ)
        assert ratio(mu) == (0.02).as_integer_ratio() == (5764607523034235, 2**58)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_fixed_value_must_be_positive_and_finite(self, case, value):
        with pytest.raises(ValueError, match="positive number"):
            estimate_mu(case, f"fixed={value!r}", RKZ)

    @pytest.mark.parametrize("basis", ["exclude_suspect", "include_suspect"])
    def test_dash_and_underscore_spellings_agree(self, case, basis):
        assert estimate_mu(case, basis.replace("_", "-"), RKZ) == estimate_mu(case, basis, RKZ)

    @pytest.mark.parametrize("spec", [
        "bogus", "fixed=abc", "fixed=", "fixed=inf", "fixed=-inf", "fixed=nan",
        "fixed=0", "fixed=-0.5", "fixed=0_05", "fixed= 0.05", "fixed=0.05 ", "fixed=\u0661",
    ])
    def test_bad_spec_rejected_with_the_flag_message(self, case, spec):
        with pytest.raises(ValueError) as info:
            estimate_mu(case, spec, RKZ)
        assert str(info.value) == (f"unknown --mu-basis {spec!r}; expected exclude-suspect, "
                                   "include-suspect or fixed=<finite positive number>")

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
        mu = IntensityEstimate(mu=0.03, basis="include_suspect", numerator=6, denominator=200)
        lr = lr_poisson(mu, observed_rate(3, 100), 40, 3)
        assert lr.value == 1.0
        assert lr.direction == "neutral"

    def test_strictly_increasing_in_k(self):
        mu = fixed(0.02)
        values = [lr_poisson(mu, observed_rate(8, 100), 50, k).value for k in range(0, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_mu_under_observed_rate(self):
        # a larger background intensity weakens the evidence, matching the
        # published 25 < 90.7 ordering for 19/675 > 13/614
        mu_l = observed_rate(6, 61)
        grid = [0.01, 0.02, 0.05, 0.09]
        values = [
            lr_poisson(fixed(m), mu_l, 61, 6).value
            for m in grid
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sub_unit_ratio_flips_direction(self):
        # an elevated suspect intensity with zero observed incidents makes
        # the evidence favor the defence
        mu = fixed(0.02)
        lr = lr_poisson(mu, observed_rate(1, 10), 30, 0)
        assert lr.value < 1.0
        assert lr.direction == FAVORS_DEFENCE
        assert "under H_d" in lr.verbal

    def test_subnormal_ratio_favors_the_defence(self):
        mu = fixed(5e-324)
        lr = lr_poisson(mu, observed_rate(3963, 1768), 331, 0)
        assert (lr.value, lr.direction) == (6e-323, FAVORS_DEFENCE)
        assert lr.verbal == "very much more likely under H_d than under H_p"

    def test_rejects_zero_shifts(self):
        mu = fixed(0.1)
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

    @pytest.mark.parametrize("lr", [6e-323, 5e-324])
    def test_subnormal_ratio_reads_in_the_top_band(self, lr):
        # 1 / lr overflows to inf, past the last finite band boundary
        assert verbal_scale(lr) == "very much more likely under H_d than under H_p"

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
        assert ratio(s) == (6, 61)

    @pytest.mark.parametrize("numerator, denominator", [(0, 61), (6, 0), (-1, 61)])
    def test_suspect_intensity_needs_positive_counts(self, numerator, denominator):
        with pytest.raises(ValueError, match="positive counts"):
            SuspectIntensity(mu_L=0.1, rule="observed_rate",
                             numerator=numerator, denominator=denominator)

    def test_observed_rate_rejects_zero_incidents(self):
        with pytest.raises(ValueError):
            observed_rate(0, 61)

    @pytest.mark.parametrize("record", [
        lambda: SuspectIntensity(0.5, "observed_rate", 6, 61),
        lambda: IntensityEstimate(0.1 + 1e-14, "include_suspect", 1, 10),
        lambda: IntensityEstimate(0.0, "fixed", 1, 2**1100),  # 0.0 is not positive
    ], ids=["6/61", "1/10", "underflow"])
    def test_value_must_be_the_float_of_its_counts(self, record):
        with pytest.raises(ValueError, match="is not the positive finite float that"):
            record()

    def test_counts_past_the_float_range_overflow(self):
        with pytest.raises(OverflowError):
            IntensityEstimate(1e300, "fixed", 10**400, 1)

    @pytest.mark.parametrize("kind", [IntensityEstimate, SuspectIntensity])
    def test_counts_are_required_and_the_only_exact_form(self, kind):
        assert not hasattr(kind, "ratio")
        fields = dataclasses.fields(kind)
        assert [f.name for f in fields][2:] == ["numerator", "denominator"]
        assert all(f.default is dataclasses.MISSING for f in fields)


@st.composite
def cases(draw):
    """One to three valid wards of at most 2**51 shifts, so every pool is within 2**53."""
    wards = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 2**51))
        r = draw(st.integers(0, n))
        x = draw(st.integers(0, r))
        wards.append(WardRoster(f"W{i}", n, r, x + draw(st.integers(0, n - r)), x))
    return CaseFile("t", "s", tuple(wards))


SPECS = (st.sampled_from(["exclude_suspect", "exclude-suspect", "include_suspect",
                          "include-suspect"])
         | st.floats(5e-324, 1.7e308).map(lambda v: f"fixed={v!r}"))


class TestRecordsHoldTheirExactFloat:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cases(), SPECS)
    def test_estimate_mu(self, case, spec):
        names = [w.name for w in case.wards]
        try:
            mu = estimate_mu(case, spec, names)
        except ValueError as exc:  # no incidents, or no shifts, in the basis
            assert "intensity" in str(exc)
            return
        assert mu.mu == mu.numerator / mu.denominator
        if spec.startswith("fixed="):
            assert ratio(mu) == float(spec[len("fixed="):]).as_integer_ratio()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 2**64), st.integers(1, 2**64))
    def test_observed_rate(self, incidents, shifts):
        mu_L = observed_rate(incidents, shifts)
        assert ratio(mu_L) == (incidents, shifts)
        assert mu_L.mu_L == mu_L.numerator / mu_L.denominator


def former_lr(mu, mu_L, r_j, k_j):
    """lr_poisson as first written, in Fraction arithmetic."""
    mu_exact = (Fraction(mu.mu) if mu.basis == "fixed"
                else Fraction(mu.numerator, mu.denominator))
    mu_L_exact = Fraction(mu_L.numerator, mu_L.denominator)
    log_lr = float((mu_exact - mu_L_exact) * r_j) + k_j * (
        math.log(mu_L_exact) - math.log(mu_exact)
    )
    value = math.exp(log_lr)
    if mu_exact == mu_L_exact:
        value = 1.0
    direction = NEUTRAL if value == 1.0 else (
        FAVORS_PROSECUTION if value > 1.0 else FAVORS_DEFENCE
    )
    return value.hex(), verbal_scale(value), direction


def lr_outcome(lr_of, *args):
    """The ratio's bits, band and direction, or the exception raised."""
    try:
        result = lr_of(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return result.value.hex(), result.verbal, result.direction


COUNTS = st.integers(1, 2**64)
ESTIMATES = (
    st.builds(lambda a, b, basis: IntensityEstimate(a / b, basis, a, b), COUNTS, COUNTS,
              st.sampled_from(["exclude_suspect", "include_suspect"]))
    | st.builds(fixed, st.floats(5e-324, 1e300) | st.integers(1, 10**6))
)
SUSPECT = st.builds(lambda a, b: SuspectIntensity(a / b, "observed_rate", a, b),
                    COUNTS, COUNTS)


def same_intensity(pair):
    """mu and mu_L equal as rationals, written with different numbers."""
    a, b, scale = pair
    return (IntensityEstimate(a / b, "include_suspect", a * scale, b * scale),
            SuspectIntensity(a / b, "observed_rate", a, b))


class TestIntegerRatioArithmetic:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(ESTIMATES, SUSPECT, st.integers(1, 10**9), st.integers(0, 10**6))
    def test_lr_poisson_is_bit_identical(self, mu, mu_L, r_j, k_j):
        expected = lr_outcome(former_lr, mu, mu_L, r_j, k_j)
        if expected[0] is OverflowError:  # lr_poisson names a ratio past the float range
            expected = (ValueError, f"the likelihood ratio at mu = {mu.mu!r} and "
                                    f"mu_L = {mu_L.mu_L!r} is outside the float range")
        assert lr_outcome(lr_poisson, mu, mu_L, r_j, k_j) == expected

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.tuples(COUNTS, COUNTS, st.integers(1, 1000)).map(same_intensity),
           st.integers(1, 10**9), st.integers(0, 10**6))
    def test_equal_intensities_are_bit_identical(self, intensities, r_j, k_j):
        mu, mu_L = intensities
        binary = fixed(mu.mu)
        same_float = SuspectIntensity(mu.mu, "observed_rate", *ratio(binary))
        for args in [(mu, mu_L), (binary, mu_L), (binary, same_float), (mu, same_float)]:
            got = lr_outcome(lr_poisson, *args, r_j, k_j)
            assert got == lr_outcome(former_lr, *args, r_j, k_j)
        assert lr_poisson(mu, mu_L, r_j, k_j).direction == NEUTRAL

    def test_paper_ratios_are_bit_identical(self, case):
        mu_L = observed_rate(6, 61)
        for basis in ("exclude_suspect", "include_suspect"):
            mu = estimate_mu(case, basis, RKZ)
            assert lr_outcome(lr_poisson, mu, mu_L, 61, 6) == (
                lr_outcome(former_lr, mu, mu_L, 61, 6))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 2**53).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.integers(0, min(n, 400)))))
    def test_conditional_binomial_note_spells_the_reduced_fraction(self, counts):
        n, r, k = counts
        x = max(0, k - (n - r))
        case = CaseFile("t", "s", (WardRoster("A", n, r, k, x),))
        result = conditional_binomial_test(case, ["A"])
        p = Fraction(r, n)
        assert result.notes.startswith(f"Binomial({k}, {p}) tail at {x}, ")
        assert result.p_value.hex() == binomial_tail(k, float(p), x).hex()
