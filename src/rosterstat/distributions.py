"""Exact discrete-distribution kernels.

Each hypergeometric, binomial and Poisson pmf is built once, as a whole
vector, from the logs of its successive term ratios p(x+1)/p(x), cumulated
out from the mode (the term-ratio recurrence discussed by Loader, "Fast and
accurate computation of binomial probabilities", 2000). No binomial
coefficient is ever formed, so counts like C(1029, 142) never overflow. A
tail is the exactly rounded ``math.fsum`` of a slice of that vector. The
vectors are plain ``array('d')`` buffers built with ``math`` and
``itertools``, so the exact methods never load numpy; only ``convolve``,
the sum of independent counts, imports it, for one ``np.convolve`` chain
over their vectors. Each kernel converts its integer counts to floats once
per call, which gives the same terms as int operands would, bit for bit.
Probabilities that land within 1e-12 of [0, 1] are clamped to the
boundary; anything further out raises, because a larger excursion means a
bug rather than rounding.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

_CLAMP_TOL = 1e-12


class ConsistencyError(ArithmeticError):
    """A computed probability fell outside [0, 1] by more than rounding."""


def _clamp_probability(p: float) -> float:
    if p < 0.0:
        if p < -_CLAMP_TOL:
            raise ConsistencyError(f"probability {p!r} below 0 beyond tolerance")
        return 0.0
    if p > 1.0:
        if p > 1.0 + _CLAMP_TOL:
            raise ConsistencyError(f"probability {p!r} above 1 beyond tolerance")
        return 1.0
    return p


@dataclass(frozen=True)
class DiscreteDist:
    """A pmf over a contiguous integer support starting at ``support_min``."""

    support_min: int
    probabilities: array = field(repr=False)  # array('d')

    def __post_init__(self) -> None:
        probs = array("d", self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise ValueError("probabilities must be a nonempty vector")
        if min(probs) < 0:
            raise ValueError("probabilities must be non-negative")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= _CLAMP_TOL:  # also rejects a NaN entry
            raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-12")

    @property
    def support_max(self) -> int:
        return self.support_min + len(self.probabilities) - 1

    def tail(self, x_min: int) -> float:
        """P(X >= x_min), as an exactly rounded sum of the upper slice."""
        if x_min <= self.support_min:
            return 1.0
        upper = self.probabilities[x_min - self.support_min:]
        return _clamp_probability(math.fsum(upper))


def _from_log_ratios(support_min: int, log_ratios: list[float]) -> DiscreteDist:
    """The pmf whose successive ratios p(x+1)/p(x) have these logs.

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
    return DiscreteDist(support_min, [p / total for p in probs])


def hypergeom_dist(n: int, r: int, k: int) -> DiscreteDist:
    """The conditional pmf of the suspect's incident count, over its support.

    P(X = x) is C(r,x) * C(n-r, k-x) / C(n,k): incidents land uniformly on
    shifts, conditioned on the observed totals, which cancels the unknown
    per-shift incident probability.
    """
    if not (0 <= r <= n):
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    lo, hi = max(0, k - (n - r)), min(r, k)
    if lo == hi:  # one point: no ratio, so no count is converted to a float
        return DiscreteDist(lo, [1.0])
    # float(r) is the correctly rounded conversion Python makes of an int
    # operand inside a float term, so converting once leaves every term's bits.
    rf, kf, restf = float(r), float(k), float(n - r - k)
    return _from_log_ratios(lo, [
        math.log((rf - x) * (kf - x) / ((x + 1.0) * (restf + x + 1.0)))
        for x in map(float, range(lo, hi))
    ])


def hypergeom_pmf(n: int, r: int, k: int, x: int) -> float:
    """P(suspect saw exactly x of the k incidents | r of n shifts were hers)."""
    dist = hypergeom_dist(n, r, k)
    if not dist.support_min <= x <= dist.support_max:
        return 0.0
    return dist.probabilities[x - dist.support_min]


def hypergeom_tail(n: int, r: int, k: int, x_min: int) -> float:
    """P(suspect saw at least x_min incidents) under the conditional model."""
    return hypergeom_dist(n, r, k).tail(x_min)


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
    return _from_log_ratios(0, [
        math.log((trials_f - x) / (x + 1.0)) + log_odds for x in map(float, range(trials))
    ]).tail(x_min)


def convolve(*dists: DiscreteDist) -> DiscreteDist:
    """The distribution of the sum of independent variables with these pmfs."""
    if not dists:
        raise ValueError("convolve needs at least one distribution")
    import numpy as np  # loaded here only, so the exact tests run without it

    probs = functools.reduce(np.convolve, [d.probabilities for d in dists])
    return DiscreteDist(sum(d.support_min for d in dists), probs.tolist())


def poisson_dist(mean: float) -> DiscreteDist:
    """X ~ Poisson(mean) over the counts mean +- (40 * sqrt(mean) + 800), from 0.

    Every count outside that window has a scaled term that underflows to 0.0.
    """
    if not (0.0 <= mean < math.inf):
        raise ValueError(f"mean must be non-negative and finite, got {mean!r}")
    if mean == 0.0:
        return DiscreteDist(0, [1.0])
    half_width = 40.0 * math.sqrt(mean) + 800.0
    counts = range(max(0, math.floor(mean - half_width)), math.ceil(mean + half_width))
    log_mean = math.log(mean)
    return _from_log_ratios(counts.start, [log_mean - math.log(x + 1.0)
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
