"""Independent reference values for the correctness checks.

scipy is the oracle for hypergeometric, binomial and chi-squared tails;
mpmath takes over where scipy's own accuracy is in doubt (a tail below
1e-250, where scipy's double-precision result may underflow) and for the
Poisson likelihood ratio, which is evaluated from exact fractions. This
module is imported only after the timed phase.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import stats

_TINY = 1e-250


def close(value: float, reference: float, rtol: float = 1e-9) -> bool:
    """Relative agreement; exact equality also passes (covers 0 and 1)."""
    if value == reference:
        return True
    return abs(value - reference) <= rtol * max(abs(value), abs(reference))


def _hypergeom_tail_mp(n: int, r: int, k: int, x_min: int) -> float:
    with mpmath.workdps(40):
        hi = min(r, k)
        total = mpmath.fsum(mpmath.binomial(r, x) * mpmath.binomial(n - r, k - x)
                            for x in range(x_min, hi + 1))
        return float(total / mpmath.binomial(n, k))


def hypergeom_tail(n: int, r: int, k: int, x_min: int) -> float:
    """P(X >= x_min), X ~ Hypergeometric(n shifts, r suspect shifts, k incidents)."""
    value = float(stats.hypergeom.sf(x_min - 1, n, r, k))
    if not math.isfinite(value) or value < _TINY:
        return _hypergeom_tail_mp(n, r, k, x_min)
    return value


def hypergeom_pmf_vector(n: int, r: int, k: int) -> tuple[int, np.ndarray]:
    """The pmf over its support: scipy's value at the mode, then term ratios.

    f(x+1)/f(x) = (r-x)(k-x) / ((x+1)(n-r-k+x+1)); the running products
    keep a relative error near (support size) x machine epsilon. scipy's
    own pmf vector is exact too but far slower on supports of thousands.
    """
    lo, hi = max(0, k - (n - r)), min(r, k)
    mode = min(max((k + 1) * (r + 1) // (n + 2), lo), hi)
    peak = float(stats.hypergeom.pmf(mode, n, r, k))
    x = np.arange(mode, hi, dtype=float)
    up = peak * np.cumprod((r - x) * (k - x) / ((x + 1) * (n - r - k + x + 1)))
    x = np.arange(mode - 1, lo - 1, -1, dtype=float)
    down = peak * np.cumprod((x + 1) * (n - r - k + x + 1) / ((r - x) * (k - x)))
    return lo, np.concatenate([down[::-1], [peak], up])


def convolved_tail(wards: list[tuple[int, int, int]], s_min: int) -> float:
    """P(sum of independent per-ward hypergeometric counts >= s_min).

    Every term of a convolution of pmfs is positive, so the direct
    convolution and the tail sum keep their relative accuracy.
    """
    support_min, probs = 0, np.ones(1)
    for n, r, k in wards:
        lo, pmf = hypergeom_pmf_vector(n, r, k)
        support_min += lo
        probs = np.convolve(probs, pmf)
    start = max(0, s_min - support_min)
    return math.fsum(probs[start:].tolist())


def binomial_tail(trials: int, p: float, x_min: int) -> float:
    value = float(stats.binom.sf(x_min - 1, trials, p))
    if not math.isfinite(value) or value < _TINY:
        with mpmath.workdps(40):
            mp_p = mpmath.mpf(p)
            return float(mpmath.fsum(
                mpmath.binomial(trials, x) * mp_p ** x * (1 - mp_p) ** (trials - x)
                for x in range(x_min, trials + 1)))
    return value


def chi2_survival(statistic: float, dof: int) -> float:
    return float(stats.chi2.sf(statistic, dof))


def poisson_lr(mu: Fraction, mu_l: Fraction, shifts: int, incidents: int) -> float:
    """exp((mu - mu_L) * r) * (mu_L / mu) ** k, evaluated at 40 digits."""
    with mpmath.workdps(40):
        mu_mp = mpmath.mpf(mu.numerator) / mu.denominator
        mu_l_mp = mpmath.mpf(mu_l.numerator) / mu_l.denominator
        return float(mpmath.exp((mu_mp - mu_l_mp) * shifts) * (mu_l_mp / mu_mp) ** incidents)


def odds_chain(prior_odds: float, lrs: list[float]) -> float:
    """The posterior odds as an exact product of the float inputs."""
    product = Fraction(prior_odds)
    for lr in lrs:
        product *= Fraction(lr)
    return float(product)
