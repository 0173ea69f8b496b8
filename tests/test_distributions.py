"""Kernel tests against exact rational and high-precision oracles.

The oracles here never share code with the implementation: binomial and
hypergeometric values come from big-integer fractions, the Poisson pmf
from mpmath, and the chi-squared survival function from numerical
quadrature of the density. The float-operand class keeps the kernels'
earlier expressions, with int operands inside each term, as a bit-for-bit
oracle for the float-operand kernels; the last class checks that every
vector a kernel hands over unchecked would pass the public checks.
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
    DiscreteDist,
    binomial_tail,
    chi2_survival_even,
    convolve,
    hypergeom_dist,
    hypergeom_pmf,
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


def extended_poisson_vector(dist, mean):
    """The Poisson kernel's vector over dist's window plus one point each side.

    Built from the same log-ratios as poisson_dist; no point is added below 0.
    """
    lo = max(0, dist.support_min - 1)
    log_mean = math.log(mean)
    return distributions._from_log_ratios(lo, [
        log_mean - math.log(x + 1.0) for x in map(float, range(lo, dist.support_max + 1))
    ])


class TestPoissonDist:
    def test_zero_count(self):
        for m in (0.3, 1.7, 9.0):
            dist = poisson_dist(m)
            assert dist.support_min == 0
            assert dist.probabilities[0] == pytest.approx(math.exp(-m), rel=1e-13, abs=0)

    def test_degenerate_at_zero(self):
        dist = poisson_dist(0.0)
        assert (dist.support_min, list(dist.probabilities)) == (0, [1.0])

    @pytest.mark.parametrize("mean", [0.01, 0.37, 1.2915, 8.0, 61 * 13 / 614, 50.0,
                                      500.0, 9000.0])
    def test_high_precision_oracle(self, mean):
        dist = poisson_dist(mean)
        # 40 digits: log k! reaches about 1.2e5 in the widest window here, and its
        # rounding must stay well below the 1e-11 being checked
        with mpmath.workdps(40):
            m = mpmath.mpf(mean)
            exact = [float(mpmath.exp(-m + k * mpmath.log(m) - mpmath.loggamma(k + 1)))
                     for k in range(dist.support_min, dist.support_max + 1)]
        for k, p, want in zip(range(dist.support_min, dist.support_max + 1),
                              dist.probabilities, exact):
            # subnormal points carry only their rounding's absolute error
            assert p == pytest.approx(want, rel=1e-11, abs=1e-320), (mean, k)

    def test_window_clipped_at_zero_and_centred_on_the_mean(self):
        assert poisson_dist(1000.0).support_min == 0
        dist = poisson_dist(1e4)
        assert (dist.support_min, dist.support_max) == (5200, 14800)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.floats(-3.0, 6.0).map(lambda e: 10.0**e))
    def test_first_point_past_each_end_underflows(self, mean):
        dist = poisson_dist(mean)
        wider = extended_poisson_vector(dist, mean)
        left = dist.support_min - wider.support_min  # 1, or 0 at the support's edge
        assert wider.probabilities[-1] == 0.0
        assert wider.probabilities[:left].tolist() == [0.0] * left
        # the added zeros leave every point of the window bit for bit
        assert wider.probabilities[left:-1] == dist.probabilities

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
        d1 = hypergeom_dist(336, 3, 5)
        d2 = hypergeom_dist(339, 58, 14)
        got = convolve(d1, d2).tail(6)
        exact = sum(
            exact_hg_pmf(336, 3, 5, a) * exact_hg_pmf(339, 58, 14, b)
            for a in range(0, 4)
            for b in range(0, 15)
            if a + b >= 6
        )
        assert got == pytest.approx(float(exact), rel=1e-11, abs=0)
        assert round(got, 3) == 0.022

    def test_minimum_sum_gives_one(self):
        d1 = hypergeom_dist(8, 3, 6)  # support starts at 1
        d2 = hypergeom_dist(5, 2, 2)
        assert convolve(d1, d2).tail(d1.support_min + d2.support_min) == 1.0

    def test_two_small_copies_brute_force(self):
        d = hypergeom_dist(5, 2, 2)
        exact = sum(
            exact_hg_pmf(5, 2, 2, a) * exact_hg_pmf(5, 2, 2, b)
            for a in range(3)
            for b in range(3)
            if a + b >= 3
        )
        assert convolve(d, d).tail(3) == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_matches_joint_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p1 = rng.dirichlet(np.ones(rng.integers(2, 25)))
            p2 = rng.dirichlet(np.ones(rng.integers(2, 25)))
            d1 = DiscreteDist(int(rng.integers(0, 4)), p1)
            d2 = DiscreteDist(int(rng.integers(0, 4)), p2)
            s = int(rng.integers(0, d1.support_max + d2.support_max + 2))
            brute = math.fsum(
                float(p1[i] * p2[j])
                for i in range(len(p1))
                for j in range(len(p2))
                if (d1.support_min + i) + (d2.support_min + j) >= s
            )
            assert convolve(d1, d2).tail(s) == pytest.approx(brute, abs=1e-12)


class TestDiscreteDist:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteDist(0, np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteDist(0, np.array([1.1, -0.1]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [1.0, math.nan],
                                       [math.nan, -1.0, 2.0]])
    def test_rejects_nan(self, probs):
        with pytest.raises(ValueError):
            DiscreteDist(0, probs)


def test_clamp_only_near_boundary():
    # probabilities within 1e-12 of the boundary clamp; anything worse is a bug
    from rosterstat.distributions import _clamp_probability

    assert _clamp_probability(-5e-13) == 0.0
    assert _clamp_probability(1.0 + 5e-13) == 1.0
    with pytest.raises(ConsistencyError):
        _clamp_probability(1.001)
    with pytest.raises(ConsistencyError):
        _clamp_probability(-1e-6)


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
        total = convolve(*(hypergeom_dist(n, r, k) for n, r, k, _ in wards))
        tails = [total.tail(s) for s in range(total.support_min - 1, total.support_max + 2)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @PROPERTY
    @given(rosters(max_shifts=400))
    def test_one_ward_convolved_sum_is_its_tail(self, roster):
        case = case_of([roster])
        assert convolved_sum_test(case, ["W0"]).p_value == ward_tail_p(case.wards[0]).p_value

    @PROPERTY
    @given(st.lists(rosters(max_shifts=400), min_size=1, max_size=3))
    def test_pmf_vectors_sum_to_one(self, wards):
        dists = [hypergeom_dist(n, r, k) for n, r, k, _ in wards]
        for d in [*dists, convolve(*dists)]:
            assert abs(math.fsum(d.probabilities.tolist()) - 1.0) <= 1e-15

    @PROPERTY
    @given(st.lists(rosters(max_shifts=400), min_size=1, max_size=3))
    def test_pooled_tail_is_the_tail_of_summed_counts(self, wards):
        names = [f"W{i}" for i in range(len(wards))]
        n, r, k, x = (sum(column) for column in zip(*wards))
        assert pooled_test(case_of(wards), names).p_value == hypergeom_tail(n, r, k, x)


def former_from_log_ratios(support_min, log_ratios):
    mode = sum(1 for v in log_ratios if v > 0)
    below = [-v for v in accumulate(reversed(log_ratios[:mode]))]
    below.reverse()
    probs = [math.exp(v) for v in (*below, 0.0, *accumulate(log_ratios[mode:]))]
    total = math.fsum(probs)
    return DiscreteDist(support_min, [p / total for p in probs])


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
    """The pmf vector binomial_tail builds, caught on its way to the tail."""
    built = []

    def keep(*args):
        built.append(FROM_LOG_RATIOS(*args))
        return built[-1]

    with mock.patch.object(distributions, "_from_log_ratios", keep):
        binomial_tail(trials, success_prob, 0)
    [dist] = built
    return dist


def outcome(dist_of, *args):
    """A pmf vector's support start and bytes, or the exception it raised."""
    try:
        dist = dist_of(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return dist.support_min, dist.probabilities.tobytes()


def assert_hypergeom_matches_the_former_kernel(n, r, k):
    """Same bytes or same exception; where the former kernel's math.log
    failed, the same type with a message that names the roster."""
    now, former = outcome(hypergeom_dist, n, r, k), outcome(former_hypergeom_dist, n, r, k)
    if former == (ValueError, "math domain error"):
        assert now[0] is ValueError and f"n={n}, r={r}, k={k} cannot be built" in now[1]
    else:
        assert now == former


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
        assert outcome(hypergeom_dist, *roster) == (ValueError, (
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
            former_binomial_vector(trials, p).tail(x_min).hex())

    def test_binomial_with_unbounded_trials_raises_as_before(self):
        assert outcome(binomial_vector, 10**400, 0.5)[0] is OverflowError
        assert outcome(binomial_vector, 10**400, 0.5) == (
            outcome(former_binomial_vector, 10**400, 0.5))


class TestKernelVectorsPassThePublicChecks:
    """The kernels skip DiscreteDist's checks; the public constructor must
    accept each vector they build, and copy it bit for bit."""

    @staticmethod
    def assert_accepted_as_is(dist):
        assert type(dist.probabilities) is array and dist.probabilities.typecode == "d"
        checked = DiscreteDist(dist.support_min, dist.probabilities)
        assert checked.probabilities is not dist.probabilities
        assert (checked.support_min, checked.probabilities.tobytes()) == (
            dist.support_min, dist.probabilities.tobytes())

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(wide_rosters() | rosters(max_shifts=400).map(lambda roster: roster[:3]),
                    min_size=1, max_size=3),
           st.integers(0, 600),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
               [5e-324, 0.5, 1.0 - 2**-53, 61 / 675]),
           st.floats(-3.0, 6.0).map(lambda e: 10.0**e) | st.just(0.0))
    def test_every_kernel_vector(self, wards, trials, p, mean):
        dists = []
        for roster in wards:
            try:
                dists.append(hypergeom_dist(*roster))
            except ValueError:  # past n = 2**53 a ratio can round to 0; see the bit-identity test
                pass
        if dists:
            dists.append(convolve(*dists))
        for dist in [*dists, binomial_vector(trials, p), poisson_dist(mean)]:
            self.assert_accepted_as_is(dist)


def hypergeom_outcomes(n, r, k):
    """hypergeom_dist's bytes, and every tail and point value around the support."""
    dist = hypergeom_dist(n, r, k)
    points = range(dist.support_min - 1, dist.support_max + 2)
    return (dist.support_min, dist.probabilities.tobytes(),
            [hypergeom_tail(n, r, k, x).hex() for x in points],
            [hypergeom_pmf(n, r, k, x).hex() for x in points])


class TestHypergeomMemo:
    """The kept vectors are never handed out, and keeping them changes no value."""

    ROSTERS = [(60, 17, 9), (1029, 142, 8), (336, 3, 5), (5, 5, 3), (40, 0, 7), (2**60, 2**59, 6)]

    def test_writing_a_returned_vector_changes_no_later_result(self):
        want = hypergeom_outcomes(61, 17, 9)
        written = hypergeom_dist(61, 17, 9)
        for i in range(len(written.probabilities)):
            written.probabilities[i] = 0.5
        again = hypergeom_dist(61, 17, 9)
        assert again.probabilities is not written.probabilities
        assert hypergeom_outcomes(61, 17, 9) == want

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
