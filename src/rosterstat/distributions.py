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
A kernel's vector is valid by construction (nonempty and non-negative,
normalised by its own ``math.fsum`` or convolved from such vectors), so it
is built once and handed over unchecked; a ``DiscreteDist`` built from
outside input is copied and checked.
Probabilities that land within 1e-12 of [0, 1] are clamped to the
boundary; anything further out raises, because a larger excursion means a
bug rather than rounding.

The hypergeometric vector is memoized. One analysis reads each ward's
vector twice (its own tail, then the convolution over wards) and the
pool's vector once, so the last ``_MEMO_SIZE`` (32) vectors are kept,
keyed by ``(n, r, k)`` and their types; the bound caps what is kept
between analyses. ``hypergeom_tail`` and ``hypergeom_pmf`` read the kept
vector in place; ``hypergeom_dist`` returns a copy, so no caller can change
what the memo holds. A call that raises keeps nothing.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

_CLAMP_TOL = 1e-12

# One analysis reuses only its own wards' vectors and its pool's, a handful
# at paper scale; the bound caps what is kept between analyses.
_MEMO_SIZE = 32


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
    """A pmf over a contiguous integer support starting at ``support_min``.

    The constructor copies ``probabilities`` into an ``array('d')`` and
    rejects an empty, negative, NaN or unnormalised vector. The kernels
    below skip that: their vectors are valid by construction and reach
    ``_kernel_dist`` already built as an ``array('d')``.
    """

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


def _kernel_dist(support_min: int, probabilities: array) -> DiscreteDist:
    """A DiscreteDist holding a kernel's own array('d'), neither copied nor checked."""
    dist = object.__new__(DiscreteDist)
    object.__setattr__(dist, "support_min", support_min)
    object.__setattr__(dist, "probabilities", probabilities)
    return dist


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
    return _kernel_dist(support_min, array("d", [p / total for p in probs]))


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _hypergeom_vector(n: int, r: int, k: int) -> tuple[int, array]:
    """(support_min, pmf vector) of the hypergeometric; kept, so never written."""
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
    return lo, _from_log_ratios(lo, log_ratios).probabilities


def hypergeom_dist(n: int, r: int, k: int) -> DiscreteDist:
    """The conditional pmf of the suspect's incident count, over its support.

    P(X = x) is C(r,x) * C(n-r, k-x) / C(n,k): incidents land uniformly on
    shifts, conditioned on the observed totals, which cancels the unknown
    per-shift incident probability.
    """
    lo, probs = _hypergeom_vector(n, r, k)
    return _kernel_dist(lo, probs[:])


def hypergeom_pmf(n: int, r: int, k: int, x: int) -> float:
    """P(suspect saw exactly x of the k incidents | r of n shifts were hers)."""
    dist = _kernel_dist(*_hypergeom_vector(n, r, k))
    if not dist.support_min <= x <= dist.support_max:
        return 0.0
    return dist.probabilities[x - dist.support_min]


def hypergeom_tail(n: int, r: int, k: int, x_min: int) -> float:
    """P(suspect saw at least x_min incidents) under the conditional model."""
    return _kernel_dist(*_hypergeom_vector(n, r, k)).tail(x_min)


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
    """The distribution of the sum of independent variables with these pmfs.

    ``np.convolve`` sums each point's products through numpy's BLAS dot, in no
    fixed order, so a point's last bit depends on the numpy build and the CPU.
    """
    if not dists:
        raise ValueError("convolve needs at least one distribution")
    import numpy as np  # loaded here only, so the exact tests run without it

    # Each point is a sum of products of non-negative terms, and the total is
    # the product of the inputs' totals up to rounding, so the vector is as
    # valid as its inputs. array("d", bytes) copies numpy's doubles in one
    # frombytes call.
    probs = functools.reduce(np.convolve, [d.probabilities for d in dists])
    return _kernel_dist(sum(d.support_min for d in dists), array("d", probs.tobytes()))


def poisson_dist(mean: float) -> DiscreteDist:
    """X ~ Poisson(mean) over the counts mean +- (40 * sqrt(mean) + 800), from 0.

    Every count outside that window has a scaled term that underflows to 0.0.
    """
    if not (0.0 <= mean < math.inf):
        raise ValueError(f"mean must be non-negative and finite, got {mean!r}")
    if mean == 0.0:
        return _kernel_dist(0, array("d", [1.0]))
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
