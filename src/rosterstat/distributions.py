"""Exact discrete-distribution kernels.

Each hypergeometric, binomial and Poisson pmf is built once, as a whole
vector, from the logs of its successive term ratios p(x+1)/p(x), cumulated
out from the mode (the term-ratio recurrence discussed by Loader, "Fast and
accurate computation of binomial probabilities", 2000). No binomial
coefficient is ever formed, so counts like C(1029, 142) never overflow. A
tail is the exactly rounded ``math.fsum`` of a slice of that vector. The
vectors are plain ``array('d')`` buffers built with ``math`` and
``itertools``, so the exact methods never load numpy at paper scale.
``hypergeom_sum_tail``, the tail of a sum of independent counts, conditions
on one count at a time and adds each value's products with ``math.fsum``, so
its bits do not depend on the CPU or on numpy's build. Past a bound on its
products it hands the vectors to ``convolve``, the one function that imports
numpy, for one ``np.convolve`` chain. Each kernel converts its integer counts
to floats once per call, which gives the same terms as int operands would,
bit for bit.
A pmf is one ``(support_min, vector)`` pair: the ``array('d')`` holds
P(X = support_min), P(X = support_min + 1), ... No outside input reaches a
vector, so none is checked: each is normalised by its own ``math.fsum`` or
convolved from such vectors.
Probabilities that land within 1e-12 of [0, 1] are clamped to the
boundary; anything further out raises, because a larger excursion means a
bug rather than rounding.

The hypergeometric vector is memoized. One analysis reads each ward's
vector twice (its own tail, then the convolution over wards) and the
pool's vector once, so the last ``_MEMO_SIZE`` (32) vectors are kept,
keyed by ``(n, r, k)`` and their types; the bound caps what is kept
between analyses. ``hypergeom_tail``, ``hypergeom_pmf`` and
``hypergeom_sum_tail`` read the kept vector in place and hand none of it out,
so no caller can change what the memo holds. A call that raises keeps nothing.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Sequence
from itertools import accumulate
from operator import mul

_CLAMP_TOL = 1e-12

# One analysis reuses only its own wards' vectors and its pool's, a handful
# at paper scale; the bound caps what is kept between analyses.
_MEMO_SIZE = 32

# hypergeom_sum_tail's work, counted in products formed. Its pure-Python sum
# spares a process the numpy import (13 MiB, and 0.13 s of a 0.24 s
# `convolved` CLI run without a bytecode cache), but costs 0.1-0.5 us a
# product, against a few ns for np.convolve, so past the bound the tail comes
# from convolve. Every paper-scale case is under it: 4 wards of 31 points
# each (k <= 30) need at most 2,883 products, and the paper's RKZ pair 4. At
# 2,000-3,000 products a tail took 0.2-0.6 ms, against 0.02-0.25 ms for
# np.convolve, on a shared 2-core Xeon under Python 3.11.
_SUM_TAIL_PRODUCTS = 3_000


class ConsistencyError(ArithmeticError):
    """A computed probability fell outside [0, 1] by more than rounding."""


def _clamp_probability(p: float) -> float:
    if 0.0 <= p <= 1.0:
        return p
    if p < 0.0:
        if p < -_CLAMP_TOL:
            raise ConsistencyError(f"probability {p!r} below 0 beyond tolerance")
        return 0.0
    if p > 1.0:
        if p > 1.0 + _CLAMP_TOL:
            raise ConsistencyError(f"probability {p!r} above 1 beyond tolerance")
        return 1.0
    raise ConsistencyError(f"probability {p!r} is not a number")


def _tail(support_min: int, probabilities: array, x_min: int) -> float:
    """P(X >= x_min) of the pmf pair, as an exactly rounded sum of the upper slice."""
    if x_min <= support_min:
        return 1.0
    return _clamp_probability(math.fsum(probabilities[x_min - support_min:]))


def _from_log_ratios(log_ratios: list[float]) -> array:
    """The pmf vector whose successive ratios p(x+1)/p(x) have these logs.

    The pmf must be log-concave (the ratios decrease), so its mode sits
    just after the last positive log-ratio. The logs are cumulated out from
    the mode, which keeps each point's rounding error to the steps between
    it and the mode, and every point is scaled by the mode's value before
    normalising, so nothing overflows.
    """
    mode = sum(map((0.0).__lt__, log_ratios))
    below = [-v for v in accumulate(reversed(log_ratios[:mode]))]
    below.reverse()
    probs = list(map(math.exp, (*below, 0.0, *accumulate(log_ratios[mode:]))))
    total = math.fsum(probs)
    return array("d", [p / total for p in probs])


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _hypergeom_vector(n: int, r: int, k: int) -> tuple[int, array]:
    """(support_min, pmf vector) of the hypergeometric; kept, so never written.

    P(X = x) is C(r,x) * C(n-r, k-x) / C(n,k), the conditional pmf of the
    suspect's incident count: incidents land uniformly on shifts, conditioned
    on the observed totals, which cancels the unknown per-shift incident
    probability.
    """
    if not (0 <= r <= n):
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    lo, hi = max(0, k - (n - r)), min(r, k)
    if lo == hi:  # one point: no ratio, so no count is converted to a float
        return lo, array("d", [1.0])
    # float(r) is the correctly rounded conversion Python makes of an int
    # operand inside a float term, so converting once leaves every term's bits.
    rf, kf, restf = float(r), float(k), float(n - r - k)
    try:
        log_ratios = [math.log((rf - x) * (kf - x) / ((x + 1.0) * (restf + x + 1.0)))
                      for x in map(float, range(lo, hi))]
    except ValueError:  # a ratio rounded to 0 or below
        raise ValueError(f"hypergeometric pmf of n={n}, r={r}, k={k} cannot be built: "
                         f"counts past 2**53 round when converted to floats") from None
    return lo, _from_log_ratios(log_ratios)


def hypergeom_pmf(n: int, r: int, k: int, x: int) -> float:
    """P(suspect saw exactly x of the k incidents | r of n shifts were hers)."""
    lo, vector = _hypergeom_vector(n, r, k)
    return vector[x - lo] if lo <= x < lo + len(vector) else 0.0


def hypergeom_tail(n: int, r: int, k: int, x_min: int) -> float:
    """P(suspect saw at least x_min incidents) under the conditional model."""
    return _tail(*_hypergeom_vector(n, r, k), x_min)


def binomial_tail(trials: int, success_prob: float, x_min: int) -> float:
    """P(X >= x_min) for X ~ Binomial(trials, success_prob)."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if not (0.0 <= success_prob <= 1.0):
        raise ValueError(f"success_prob must be in [0, 1], got {success_prob!r}")
    if success_prob == 0.0:
        return 1.0 if x_min <= 0 else 0.0
    if success_prob == 1.0:
        return 1.0 if x_min <= trials else 0.0
    log_odds = math.log(success_prob) - math.log1p(-success_prob)
    trials_f = float(trials)
    return _tail(0, _from_log_ratios([
        math.log((trials_f - x) / (x + 1.0)) + log_odds for x in map(float, range(trials))
    ]), x_min)


def convolve(*pmfs: tuple[int, array]) -> tuple[int, array]:
    """The pmf pair of the sum of independent variables with these pmf pairs.

    ``np.convolve`` sums each point's products through numpy's BLAS dot, in no
    fixed order, so a point's last bit depends on the numpy build, the CPU and
    BLAS's thread count (the CLI starts OpenBLAS with one thread).
    ``hypergeom_sum_tail`` calls it only past ``_SUM_TAIL_PRODUCTS``.
    """
    if not pmfs:
        raise ValueError("convolve needs at least one distribution")
    import numpy as np  # loaded here only, so the exact tests run without it

    # Each point is a sum of products of non-negative terms, and the total is
    # the product of the inputs' totals up to rounding, so the vector is as
    # valid as its inputs. array("d", bytes) copies numpy's doubles in one
    # frombytes call.
    probs = functools.reduce(np.convolve, [vector for _, vector in pmfs])
    return sum(lo for lo, _ in pmfs), array("d", probs.tobytes())


def hypergeom_sum_tail(wards: Sequence[tuple[int, int, int]], x_min: int) -> float:
    """P(X_1 + ... + X_m >= x_min) for independent hypergeometric counts, one per (n, r, k).

    Reads each ward's kept vector in place and conditions on one ward at a
    time, from the last back to the first. The last ward enters as its
    survival function, T_m(t) = P(X_m >= t), a running sum taken down from the
    top of its support. Each earlier ward j gives
    T_j(t) = sum_x p_j(x) T_{j+1}(t - x), the exactly rounded ``math.fsum``
    of its products, at only the t that x_min needs. The sums run in a fixed
    order, so the result does not depend on numpy's BLAS build or the CPU's
    kernel choice; the vectors' own bits still come from the platform's
    ``math.exp`` and ``math.log``. One ward gives its own tail. Past
    _SUM_TAIL_PRODUCTS products, the wards go to ``convolve`` instead.
    """
    if not wards:
        raise ValueError("hypergeom_sum_tail needs at least one ward")
    kept = [_hypergeom_vector(n, r, k) for n, r, k in wards]
    if len(kept) == 1:
        return _tail(*kept[0], x_min)
    # Ward j is asked for T_j(t) at each t in [low, high]: x_min less the most
    # and the least that the wards before j can sum to. T_j(t) is 1 at or
    # below the least sum of wards j, j+1, ... (least), 0 above their most
    # (most), and one product per point of ward j in between.
    asks = []
    low = high = x_min
    least = sum(lo for lo, _ in kept)
    most = sum(lo + len(vector) - 1 for lo, vector in kept)
    for lo, vector in kept:
        asks.append((low, high, least, most))
        hi = lo + len(vector) - 1
        low, high, least, most = low - hi, high - lo, least - lo, most - hi
    products = sum(len(vector) * max(0, min(high, most) - max(low - 1, least))
                   for (_, vector), (low, high, least, most) in zip(kept[:-1], asks))
    if products > _SUM_TAIL_PRODUCTS:
        return _tail(*convolve(*kept), x_min)
    (lo, vector), (low, high, least, most) = kept[-1], asks[-1]
    # survival[most - t] = P(X_m >= t), summed from the top down to the least t asked
    survival = list(accumulate(reversed(vector[max(low - lo, 1):])))
    tails = [1.0 if t <= least else 0.0 if t > most else survival[most - t]
             for t in range(low, high + 1)]
    for (_, vector), (low, high, least, most) in zip(kept[-2::-1], asks[-2::-1]):
        # tails[i] is T_{j+1}(t - hi_j + i), so T_j(t) pairs the window from
        # i = t - low with ward j's vector reversed
        reverse, width = vector[::-1], len(vector)
        tails = [1.0 if t <= least else 0.0 if t > most else
                 math.fsum(map(mul, reverse, tails[t - low:t - low + width]))
                 for t in range(low, high + 1)]
    return _clamp_probability(tails[0])


def poisson_dist(mean: float) -> tuple[int, array]:
    """Poisson(mean)'s pmf pair over the counts mean +- (40 * sqrt(mean) + 800), from 0.

    Every count outside that window has a scaled term that underflows to 0.0.
    """
    if not (0.0 <= mean < math.inf):
        raise ValueError(f"mean must be non-negative and finite, got {mean!r}")
    if mean == 0.0:
        return 0, array("d", [1.0])
    half_width = 40.0 * math.sqrt(mean) + 800.0
    counts = range(max(0, math.floor(mean - half_width)), math.ceil(mean + half_width))
    log_mean = math.log(mean)
    return counts.start, _from_log_ratios([log_mean - math.log(x + 1.0)
                                            for x in map(float, counts)])


def chi2_survival_even(x: float, dof: int) -> float:
    """Survival function of the chi-squared distribution with even dof.

    For dof = 2n the closed form Q(x) = exp(-x/2) * sum_{j<n} (x/2)^j / j!
    holds exactly, so no incomplete-gamma machinery is needed.
    """
    if dof <= 0 or dof % 2 != 0:
        raise ValueError(f"dof must be an even positive integer, got {dof}")
    if x < 0:
        raise ValueError(f"statistic must be non-negative, got {x!r}")
    n = dof // 2
    half = x / 2.0
    if half == 0.0:
        return 1.0
    log_half = math.log(half)
    terms = [math.exp(-half + j * log_half - math.lgamma(j + 1)) for j in range(n)]
    return _clamp_probability(math.fsum(terms))
