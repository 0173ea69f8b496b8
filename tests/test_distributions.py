"""Kernel tests against exact rational and high-precision oracles.

The oracles here never share code with the implementation: binomial and
hypergeometric values come from big-integer fractions, the Poisson pmf
from mpmath, and the chi-squared survival function from numerical
quadrature of the density. The float-operand class keeps the kernels'
earlier expressions, with int operands inside each term, as a bit-for-bit
oracle for the float-operand kernels. A pmf is a (support_min, vector) pair;
the kernels check none of their vectors, so a property checks every kind of
vector they build.
"""

import math
from array import array
from fractions import Fraction
from itertools import accumulate
from math import comb
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rosterstat.case import CaseFile, WardRoster

from rosterstat import distributions
from rosterstat.distributions import (
    ConsistencyError,
    _hypergeom_vector,
    _tail,
    binomial_tail,
    chi2_survival_even,
    convolve,
    hypergeom_pmf,
    hypergeom_sum_tail,
    hypergeom_tail,
    poisson_dist,
)
from rosterstat.frequentist import convolved_sum_test, pooled_test, ward_tail_p


def exact_hg_pmf(n, r, k, x):
    return Fraction(comb(r, x) * comb(n - r, k - x), comb(n, k))


def exact_hg_tail(n, r, k, x_min):
    lo = max(x_min, max(0, k - (n - r)))
    return sum(exact_hg_pmf(n, r, k, x) for x in range(lo, min(r, k) + 1))


class TestHypergeomPmf:
    def test_enumeration_small(self):
        # all C(5,2)=10 incident placements equally likely, one has both
        assert hypergeom_pmf(5, 2, 2, 2) == pytest.approx(0.1, rel=1e-13, abs=0)

    def test_all_shifts_suspect(self):
        assert hypergeom_pmf(5, 5, 3, 3) == 1.0

    def test_jkz_point_probability(self):
        exact = exact_hg_pmf(1029, 142, 8, 8)
        got = hypergeom_pmf(1029, 142, 8, 8)
        assert got == pytest.approx(float(exact), rel=1e-12, abs=0)
        assert 27 * got < 1.0 / 300_000

    def test_out_of_support_returns_zero(self):
        assert hypergeom_pmf(10, 3, 2, 3) == 0.0
        assert hypergeom_pmf(10, 8, 9, 0) == 0.0  # x must be >= k-(n-r)=7

    def test_parameter_violations_raise(self):
        with pytest.raises(ValueError):
            hypergeom_pmf(10, 12, 2, 1)
        with pytest.raises(ValueError):
            hypergeom_pmf(10, 3, 12, 1)

    def test_normalization_sweep(self):
        for n in range(1, 21):
            for r in range(0, n + 1, max(1, n // 4)):
                for k in range(0, n + 1, max(1, n // 4)):
                    total = math.fsum(
                        hypergeom_pmf(n, r, k, x) for x in range(0, min(r, k) + 1)
                    )
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_p_cancellation_identity(self):
        # the conditional probability computed from binomial products must
        # not depend on the per-shift incident probability p
        for p in (0.1, 0.5, 0.9):
            for (n, r, k, x) in [(12, 5, 4, 2), (20, 7, 9, 3), (30, 11, 13, 6)]:
                num = (
                    comb(r, x) * p**x * (1 - p) ** (r - x)
                    * comb(n - r, k - x) * p ** (k - x) * (1 - p) ** (n - r - k + x)
                )
                den = comb(n, k) * p**k * (1 - p) ** (n - k)
                assert hypergeom_pmf(n, r, k, x) == pytest.approx(num / den, abs=1e-10)


class TestHypergeomTail:
    def test_pooled_rkz_exact(self):
        exact = float(exact_hg_tail(675, 61, 19, 6))
        assert hypergeom_tail(675, 61, 19, 6) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_whole_support_is_one(self):
        assert hypergeom_tail(50, 20, 10, 0) == 1.0

    def test_enumeration_oracle(self):
        assert hypergeom_tail(10, 3, 2, 1) == pytest.approx(8 / 15, rel=1e-13, abs=0)

    def test_nonincreasing_in_x_min(self):
        values = [hypergeom_tail(40, 15, 12, x) for x in range(0, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_equals_pmf_at_top(self):
        n, r, k = 40, 15, 12
        top = min(r, k)
        assert hypergeom_tail(n, r, k, top) == pytest.approx(
            hypergeom_pmf(n, r, k, top), rel=1e-12, abs=0
        )

    def test_beyond_support_is_zero(self):
        assert hypergeom_tail(10, 3, 2, 3) == 0.0

    @pytest.mark.parametrize("n, r, k, x_min", [
        (2000, 500, 200, 70),
        (5000, 1000, 300, 80),
        (10000, 2000, 1000, 260),
        # a tail just below 1: summing per-point pmfs overshot 1 by 1.2e-12
        (1555, 520, 266, 40),
        # 800 steps from the support's start to the mode: cumulating the
        # log-ratios from the start instead of the mode misses by 6e-13
        (2915, 1206, 1862, 812),
    ])
    def test_large_rosters_match_exact(self, n, r, k, x_min):
        exact = float(exact_hg_tail(n, r, k, x_min))
        assert hypergeom_tail(n, r, k, x_min) == pytest.approx(exact, rel=1e-13, abs=0)

    def test_support_ends_far_below_the_mode(self):
        # the ends are about 1e-30000 of the mode; the pmf is symmetric about
        # 25000, so P(X >= 25001) = P(X <= 24999) = 1 - P(X >= 25000)
        upper = hypergeom_tail(100_000, 50_000, 50_000, 25_000)
        assert upper + hypergeom_tail(100_000, 50_000, 50_000, 25_001) == pytest.approx(
            1.0, abs=1e-15)


class TestBinomialTail:
    def test_two_coin_flips(self):
        assert binomial_tail(2, 0.5, 1) == pytest.approx(0.75, rel=1e-13, abs=0)

    def test_whole_support(self):
        assert binomial_tail(7, 0.3, 0) == 1.0

    def test_summation_oracle_rkz(self):
        p = Fraction(61, 675)
        exact = sum(
            Fraction(comb(19, x)) * p**x * (1 - p) ** (19 - x) for x in range(6, 20)
        )
        got = binomial_tail(19, 61 / 675, 6)
        assert got == pytest.approx(float(exact), rel=1e-10, abs=0)
        # the conditional binomial and the pooled hypergeometric answer the
        # same question and must agree within a factor of 1.5
        pooled = hypergeom_tail(675, 61, 19, 6)
        assert 1 / 1.5 <= got / pooled <= 1.5

    def test_upper_plus_lower_is_one(self):
        for x in range(0, 13):
            upper = binomial_tail(12, 0.37, x)
            complement = math.fsum(
                math.comb(12, j) * 0.37**j * 0.63 ** (12 - j) for j in range(0, x)
            )
            assert upper + complement == pytest.approx(1.0, abs=1e-12)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            binomial_tail(5, 1.2, 1)
        with pytest.raises(ValueError):
            binomial_tail(5, -0.1, 1)


def extended_poisson_vector(support_min, vector, mean):
    """The Poisson kernel's pmf pair over a window plus one point each side.

    Built from the same log-ratios as poisson_dist; no point is added below 0.
    """
    lo = max(0, support_min - 1)
    log_mean = math.log(mean)
    return lo, distributions._from_log_ratios([
        log_mean - math.log(x + 1.0)
        for x in map(float, range(lo, support_min + len(vector)))
    ])


class TestPoissonDist:
    def test_zero_count(self):
        for m in (0.3, 1.7, 9.0):
            support_min, vector = poisson_dist(m)
            assert support_min == 0
            assert vector[0] == pytest.approx(math.exp(-m), rel=1e-13, abs=0)

    def test_degenerate_at_zero(self):
        support_min, vector = poisson_dist(0.0)
        assert (support_min, list(vector)) == (0, [1.0])

    @pytest.mark.parametrize("mean", [0.01, 0.37, 1.2915, 8.0, 61 * 13 / 614, 50.0,
                                      500.0, 9000.0])
    def test_high_precision_oracle(self, mean):
        support_min, vector = poisson_dist(mean)
        counts = range(support_min, support_min + len(vector))
        # 40 digits: log k! reaches about 1.2e5 in the widest window here, and its
        # rounding must stay well below the 1e-11 being checked
        with mpmath.workdps(40):
            m = mpmath.mpf(mean)
            exact = [float(mpmath.exp(-m + k * mpmath.log(m) - mpmath.loggamma(k + 1)))
                     for k in counts]
        for k, p, want in zip(counts, vector, exact):
            # subnormal points carry only their rounding's absolute error
            assert p == pytest.approx(want, rel=1e-11, abs=1e-320), (mean, k)

    def test_window_clipped_at_zero_and_centred_on_the_mean(self):
        assert poisson_dist(1000.0)[0] == 0
        support_min, vector = poisson_dist(1e4)
        assert (support_min, support_min + len(vector) - 1) == (5200, 14800)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.floats(-3.0, 6.0).map(lambda e: 10.0**e))
    def test_first_point_past_each_end_underflows(self, mean):
        support_min, vector = poisson_dist(mean)
        wider_min, wider = extended_poisson_vector(support_min, vector, mean)
        left = support_min - wider_min  # 1, or 0 at the support's edge
        assert wider[-1] == 0.0
        assert wider[:left].tolist() == [0.0] * left
        # the added zeros leave every point of the window bit for bit
        assert wider[left:-1] == vector

    @pytest.mark.parametrize("mean", [-0.5, math.inf, math.nan])
    def test_bad_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="non-negative and finite"):
            poisson_dist(mean)


class TestChi2SurvivalEven:
    def test_at_zero(self):
        assert chi2_survival_even(0.0, 2) == 1.0

    def test_dof_two_closed_form(self):
        assert chi2_survival_even(2.0, 2) == pytest.approx(math.exp(-1), rel=1e-13, abs=0)

    def test_quadrature_oracle_dof6(self):
        x = -2.0 * math.log(0.1 * 0.2 * 0.3)

        def density(t):
            return t**2 * math.exp(-t / 2) / 16.0  # chi2(6) density

        integral, err = quad(density, x, 200.0, limit=200)
        assert err < 1e-11
        assert chi2_survival_even(x, 6) == pytest.approx(integral, abs=1e-9)

    def test_strictly_decreasing_with_limits(self):
        xs = [0.0, 0.5, 1.0, 3.0, 10.0, 50.0]
        vals = [chi2_survival_even(x, 8) for x in xs]
        assert vals[0] == 1.0
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert chi2_survival_even(800.0, 8) < 1e-150

    def test_odd_dof_rejected(self):
        with pytest.raises(ValueError):
            chi2_survival_even(1.0, 3)


class TestConvolveTail:
    def test_paper_rkz_pair(self):
        pair = convolve(_hypergeom_vector(336, 3, 5), _hypergeom_vector(339, 58, 14))
        got = _tail(*pair, 6)
        exact = sum(
            exact_hg_pmf(336, 3, 5, a) * exact_hg_pmf(339, 58, 14, b)
            for a in range(0, 4)
            for b in range(0, 15)
            if a + b >= 6
        )
        assert got == pytest.approx(float(exact), rel=1e-11, abs=0)
        assert round(got, 3) == 0.022

    def test_minimum_sum_gives_one(self):
        d1 = _hypergeom_vector(8, 3, 6)  # support starts at 1
        d2 = _hypergeom_vector(5, 2, 2)
        assert _tail(*convolve(d1, d2), d1[0] + d2[0]) == 1.0

    def test_two_small_copies_brute_force(self):
        d = _hypergeom_vector(5, 2, 2)
        exact = sum(
            exact_hg_pmf(5, 2, 2, a) * exact_hg_pmf(5, 2, 2, b)
            for a in range(3)
            for b in range(3)
            if a + b >= 3
        )
        assert _tail(*convolve(d, d), 3) == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_matches_joint_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p1 = rng.dirichlet(np.ones(rng.integers(2, 25)))
            p2 = rng.dirichlet(np.ones(rng.integers(2, 25)))
            lo1, lo2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            s = int(rng.integers(0, lo1 + len(p1) + lo2 + len(p2)))
            brute = math.fsum(
                float(p1[i] * p2[j])
                for i in range(len(p1))
                for j in range(len(p2))
                if (lo1 + i) + (lo2 + j) >= s
            )
            got = _tail(*convolve((lo1, array("d", p1)), (lo2, array("d", p2))), s)
            assert got == pytest.approx(brute, abs=1e-12)


def test_clamp_only_near_boundary():
    # probabilities within 1e-12 of the boundary clamp; anything worse is a bug
    from rosterstat.distributions import _clamp_probability

    assert _clamp_probability(-5e-13) == 0.0
    assert _clamp_probability(1.0 + 5e-13) == 1.0
    with pytest.raises(ConsistencyError):
        _clamp_probability(1.001)
    with pytest.raises(ConsistencyError):
        _clamp_probability(-1e-6)


class TestTail:
    """_tail reads a pmf pair's upper slice; a slice that is no probability raises."""

    PAIR = (2, array("d", [0.25, 0.5, 0.25]))

    @pytest.mark.parametrize("x_min", [-5, 1, 2])
    def test_at_or_below_the_support_is_one(self, x_min):
        assert _tail(*self.PAIR, x_min) == 1.0

    @pytest.mark.parametrize("x_min, expected", [(3, 0.75), (4, 0.25), (5, 0.0), (9, 0.0)])
    def test_upper_slice_sums(self, x_min, expected):
        assert _tail(*self.PAIR, x_min) == expected

    def test_rounding_past_one_clamps(self):
        assert _tail(0, array("d", [0.0, 1.0 + 5e-13]), 1) == 1.0

    @pytest.mark.parametrize("probs", [[0.0, 1.1], [1.1, -0.1], [0.5, 0.5, -1e-6]])
    def test_a_slice_outside_zero_one_raises(self, probs):
        with pytest.raises(ConsistencyError, match="beyond tolerance"):
            _tail(0, array("d", probs), len(probs) - 1)

    @pytest.mark.parametrize("probs", [[0.5, math.nan], [0.5, math.nan, 0.5],
                                       [1.0, -1.0, math.nan]])
    def test_a_nan_in_the_slice_raises(self, probs):
        with pytest.raises(ConsistencyError, match="not a number"):
            _tail(0, array("d", probs), 1)


# Property tests over random rosters. derandomize keeps every run on the
# same examples, so a failure reproduces.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def rosters(draw, max_shifts=60):
    n = draw(st.integers(1, max_shifts))
    r = draw(st.integers(0, n))
    k = draw(st.integers(0, n))
    x = draw(st.integers(max(0, k - (n - r)), min(r, k)))
    return n, r, k, x


@st.composite
def wide_rosters(draw):
    """(n, r, k), n up to 2**53 and past it, whose support has at most 200 points.

    The support has min(r, k, n - r, n - k) + 1 points at most, so one of
    k and n - k is kept small while r ranges over all of [0, n].
    """
    n = draw(st.integers(1, 2**53) | st.integers(2**53, 2**80))
    r = draw(st.integers(0, n))
    small = draw(st.integers(0, min(n, 200)))
    k = n - small if draw(st.booleans()) else small
    return n, r, k


def exact_binomial_tails(trials, p):
    """P(X >= x) for x = 0..trials, as exact fractions."""
    p = Fraction(p)
    pmf = [comb(trials, x) * p**x * (1 - p) ** (trials - x) for x in range(trials + 1)]
    tails = [Fraction(0)]
    for mass in reversed(pmf):
        tails.append(tails[-1] + mass)
    return tails[:0:-1]


def exact_sum_tail(wards, s_min):
    """P(sum of independent per-ward counts >= s_min), by exact convolution."""
    pmf = {0: Fraction(1)}
    for n, r, k, _ in wards:
        lo, hi = max(0, k - (n - r)), min(r, k)
        step = {}
        for total, mass in pmf.items():
            for x in range(lo, hi + 1):
                step[total + x] = step.get(total + x, 0) + mass * exact_hg_pmf(n, r, k, x)
        pmf = step
    return sum(mass for total, mass in pmf.items() if total >= s_min)


def case_of(wards):
    return CaseFile("property", "s", tuple(
        WardRoster(f"W{i}", *counts) for i, counts in enumerate(wards)))


class TestKernelProperties:
    @PROPERTY
    @given(rosters(max_shifts=400))
    def test_hypergeom_tail_nonincreasing_and_steps_by_pmf(self, roster):
        n, r, k, _ = roster
        xs = range(max(0, k - (n - r)) - 1, min(r, k) + 2)
        tails = [hypergeom_tail(n, r, k, x) for x in xs]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        for x, upper, lower in zip(xs, tails, tails[1:]):
            assert upper - lower == pytest.approx(hypergeom_pmf(n, r, k, x), abs=1e-15)

    @PROPERTY
    @given(st.integers(0, 60), st.floats(0.0, 1.0))
    def test_binomial_tail_nonincreasing_and_exact(self, trials, p):
        tails = [binomial_tail(trials, p, x) for x in range(-1, trials + 2)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        exact = [1.0] + [float(t) for t in exact_binomial_tails(trials, p)] + [0.0]
        assert tails == pytest.approx(exact, rel=1e-12, abs=1e-300)

    @PROPERTY
    @given(st.lists(rosters(max_shifts=40), min_size=2, max_size=3))
    def test_convolved_sum_matches_exact(self, wards):
        s_min = sum(w[3] for w in wards)
        got = convolved_sum_test(case_of(wards), [f"W{i}" for i in range(len(wards))])
        exact = float(exact_sum_tail(wards, s_min))
        assert got.p_value == pytest.approx(exact, rel=1e-12, abs=0)
        assert [c[1] for c in got.components] == [hypergeom_tail(*w) for w in wards]
        lo, total = convolve(*(_hypergeom_vector(n, r, k) for n, r, k, _ in wards))
        tails = [_tail(lo, total, s) for s in range(lo - 1, lo + len(total) + 1)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @PROPERTY
    @given(rosters(max_shifts=400))
    def test_one_ward_convolved_sum_is_its_tail(self, roster):
        case = case_of([roster])
        assert convolved_sum_test(case, ["W0"]).p_value == ward_tail_p(case.wards[0]).p_value

    @PROPERTY
    @given(st.lists(wide_rosters() | rosters(max_shifts=400).map(lambda roster: roster[:3]),
                    min_size=1, max_size=3),
           st.integers(0, 600),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
               [5e-324, 0.5, 1.0 - 2**-53, 61 / 675]),
           st.floats(-3.0, 6.0).map(lambda e: 10.0**e) | st.just(0.0))
    def test_pmf_vectors_sum_to_one(self, wards, trials, p, mean):
        # no kernel checks its vectors, so this is where a NaN or negative entry shows
        pmfs = []
        for roster in wards:
            try:
                pmfs.append(_hypergeom_vector(*roster))
            except ValueError:  # past n = 2**53 a ratio can round to 0; see the bit-identity test
                pass
        if pmfs:
            pmfs.append(convolve(*pmfs))
        for _, vector in [*pmfs, binomial_vector(trials, p), poisson_dist(mean)]:
            assert type(vector) is array and vector.typecode == "d" and len(vector) > 0
            assert all(math.isfinite(v) and v >= 0.0 for v in vector)
            assert abs(math.fsum(vector) - 1.0) <= 1e-15

    @PROPERTY
    @given(st.lists(rosters(max_shifts=400), min_size=1, max_size=3))
    def test_pooled_tail_is_the_tail_of_summed_counts(self, wards):
        names = [f"W{i}" for i in range(len(wards))]
        n, r, k, x = (sum(column) for column in zip(*wards))
        assert pooled_test(case_of(wards), names).p_value == hypergeom_tail(n, r, k, x)


class TestHypergeomSumTail:
    @PROPERTY
    @given(st.lists(rosters(max_shifts=30), min_size=2, max_size=4), st.integers(-2, 2))
    def test_matches_the_exact_tail_under_the_bound(self, wards, shift):
        # k <= 30, so at most 31 points a ward and 2,883 products for 4 wards
        s_min = sum(w[3] for w in wards) + shift
        with mock.patch.object(distributions, "convolve", side_effect=AssertionError):
            got = hypergeom_sum_tail([w[:3] for w in wards], s_min)
        assert got == pytest.approx(float(exact_sum_tail(wards, s_min)), rel=1e-13, abs=0)

    # The first ward's points each meet one target of the last ward, t = 1,
    # the only t between its least sum, 0, and its most, 1: one product a point.
    @pytest.mark.parametrize("k, numpy_calls", [(2_999, 0), (3_000, 1)])
    def test_numpy_serves_only_past_the_bound(self, k, numpy_calls):
        assert distributions._SUM_TAIL_PRODUCTS == 3_000
        wards = [(10_000, 5_000, k), (10, 1, 1)]
        with mock.patch.object(distributions, "convolve", wraps=convolve) as spy:
            got = hypergeom_sum_tail(wards, 1_500)
        assert spy.call_count == numpy_calls
        numpys = _tail(*convolve(*(_hypergeom_vector(*w) for w in wards)), 1_500)
        if numpy_calls:
            assert got == numpys
        else:
            assert got == pytest.approx(numpys, rel=1e-13, abs=0)

    def test_rkz_pair_bits(self):
        # np.convolve gave 0.021553399072690983; exactly rounded it is 0.021553399072690972
        assert hypergeom_sum_tail([(336, 3, 5), (339, 58, 14)], 6) == 0.02155339907269098

    def test_no_ward_rejected(self):
        with pytest.raises(ValueError, match="at least one ward"):
            hypergeom_sum_tail([], 0)


def former_from_log_ratios(support_min, log_ratios):
    mode = sum(1 for v in log_ratios if v > 0)
    below = [-v for v in accumulate(reversed(log_ratios[:mode]))]
    below.reverse()
    probs = [math.exp(v) for v in (*below, 0.0, *accumulate(log_ratios[mode:]))]
    total = math.fsum(probs)
    return support_min, array("d", [p / total for p in probs])


def former_hypergeom_dist(n, r, k):
    lo = max(0, k - (n - r))
    return former_from_log_ratios(lo, [
        math.log((r - x) * (k - x) / ((x + 1) * (n - r - k + x + 1)))
        for x in map(float, range(lo, min(r, k)))
    ])


def former_binomial_vector(trials, success_prob):
    log_odds = math.log(success_prob) - math.log1p(-success_prob)
    return former_from_log_ratios(0, [
        math.log((trials - x) / (x + 1)) + log_odds for x in map(float, range(trials))
    ])


FROM_LOG_RATIOS = distributions._from_log_ratios


def binomial_vector(trials, success_prob):
    """The pmf pair binomial_tail builds, caught on its way to the tail."""
    built = []

    def keep(*args):
        built.append(FROM_LOG_RATIOS(*args))
        return built[-1]

    with mock.patch.object(distributions, "_from_log_ratios", keep):
        binomial_tail(trials, success_prob, 0)
    [vector] = built
    return 0, vector


def outcome(dist_of, *args):
    """A pmf pair's support start and bytes, or the exception it raised."""
    try:
        support_min, vector = dist_of(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return support_min, vector.tobytes()


def assert_hypergeom_matches_the_former_kernel(n, r, k):
    """Same bytes or same exception; where the former kernel's math.log
    failed, the same type with a message that names the roster."""
    now, former = outcome(_hypergeom_vector, n, r, k), outcome(former_hypergeom_dist, n, r, k)
    if former == (ValueError, "math domain error"):
        assert now[0] is ValueError and f"n={n}, r={r}, k={k} cannot be built" in now[1]
    else:
        assert now == former


class TestFloatOperandKernels:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(wide_rosters() | rosters(max_shifts=400).map(lambda roster: roster[:3]))
    def test_hypergeom_vector_is_bit_identical(self, roster):
        assert_hypergeom_matches_the_former_kernel(*roster)

    @pytest.mark.parametrize("roster", [
        (10**400, 0, 0), (10**400, 10**400, 5), (10**400, 5, 10**400), (10**400, 1, 1),
        (10**400, 10**400 - 5, 3), (2**53 + 1, 2**52, 7), (2**1100, 2**1099, 2),
    ])
    def test_unbounded_counts_match_the_former_kernel(self, roster):
        assert_hypergeom_matches_the_former_kernel(*roster)

    def test_a_vector_that_rounds_past_2_53_names_its_roster(self):
        roster = (53108094010586720, 53108094010586719, 53108094010586578)
        assert outcome(former_hypergeom_dist, *roster) == (ValueError, "math domain error")
        assert outcome(_hypergeom_vector, *roster) == (ValueError, (
            "hypergeometric pmf of n=53108094010586720, r=53108094010586719, "
            "k=53108094010586578 cannot be built: counts past 2**53 round when "
            "converted to floats"))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 600),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
               [5e-324, 0.5, 1.0 - 2**-53, 61 / 675]),
           st.integers(-2, 602))
    def test_binomial_vector_is_bit_identical(self, trials, p, x_min):
        assert outcome(binomial_vector, trials, p) == outcome(former_binomial_vector, trials, p)
        assert binomial_tail(trials, p, x_min).hex() == (
            _tail(*former_binomial_vector(trials, p), x_min).hex())

    def test_binomial_with_unbounded_trials_raises_as_before(self):
        assert outcome(binomial_vector, 10**400, 0.5)[0] is OverflowError
        assert outcome(binomial_vector, 10**400, 0.5) == (
            outcome(former_binomial_vector, 10**400, 0.5))


def hypergeom_outcomes(n, r, k):
    """The kept vector's bytes, and every tail and point value around the support."""
    support_min, vector = _hypergeom_vector(n, r, k)
    points = range(support_min - 1, support_min + len(vector) + 1)
    return (support_min, vector.tobytes(),
            [hypergeom_tail(n, r, k, x).hex() for x in points],
            [hypergeom_pmf(n, r, k, x).hex() for x in points])


class TestHypergeomMemo:
    """Keeping the vectors changes no value."""

    ROSTERS = [(60, 17, 9), (1029, 142, 8), (336, 3, 5), (5, 5, 3), (40, 0, 7), (2**60, 2**59, 6)]

    def test_cleared_and_warm_memo_agree(self):
        memo = distributions._hypergeom_vector
        memo.cache_clear()
        cold = [hypergeom_outcomes(*roster) for roster in self.ROSTERS]
        assert memo.cache_info().hits > 0  # each outcome read its roster's vector again
        assert [hypergeom_outcomes(*roster) for roster in self.ROSTERS] == cold

    def test_a_rejected_roster_keeps_nothing(self):
        memo = distributions._hypergeom_vector
        memo.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="need 0 <= r <= n"):
                hypergeom_tail(5, 6, 1, 0)
        assert memo.cache_info().currsize == 0

    def test_the_memo_stays_within_its_bound(self):
        memo = distributions._hypergeom_vector
        memo.cache_clear()
        for n in range(20, 20 + 3 * distributions._MEMO_SIZE):
            hypergeom_tail(n, 7, 5, 2)
        info = memo.cache_info()
        assert info.maxsize == distributions._MEMO_SIZE
        assert info.currsize == info.maxsize
        assert info.misses == 3 * distributions._MEMO_SIZE
