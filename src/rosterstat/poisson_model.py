"""Poisson intensity model: likelihood ratios and the conditional test.

Each nurse's incident count is modelled as Poisson(mu * shifts). The
prosecution and defence differ only in how they estimate the background
intensity mu; the suspect's own intensity mu_L is fitted so her expected
count equals her observed count. All intensities are kept as exact integer
ratios (numerator, denominator) until the final floating-point evaluation,
which is one correctly rounded integer division per float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from rosterstat.case import CaseFile, pool_wards
from rosterstat.distributions import binomial_tail
from rosterstat.frequentist import TestResult

MU_BASES = ("exclude_suspect", "include_suspect", "fixed")

# The value of a fixed= spec: float() alone would also read digit-group
# underscores, outer whitespace and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

FAVORS_PROSECUTION = "favors_prosecution"
FAVORS_DEFENCE = "favors_defence"
NEUTRAL = "neutral"

# Verbal reporting bands for a likelihood ratio >= 1. Boundaries are
# closed on the left: [100, 1000) reads "more likely", etc.
_BANDS = (
    (100.0, "slightly more likely"),
    (1000.0, "more likely"),
    (10000.0, "much more likely"),
    (math.inf, "very much more likely"),
)


def _check_ratio(value: float, numerator: int, denominator: int) -> None:
    """Require positive counts whose correctly rounded quotient is value.

    Python's int true division rounds correctly, so (n / d, n, d) passes, as
    does (v, *v.as_integer_ratio()) for a positive finite float v; counts
    whose quotient is past the float range raise OverflowError.
    """
    if numerator <= 0 or denominator <= 0:
        raise ValueError(f"an intensity needs positive counts, got {numerator}/{denominator}")
    if not 0.0 < value == numerator / denominator:
        raise ValueError(f"intensity {value!r} is not the positive finite float that"
                         f" {numerator}/{denominator} rounds to")


@dataclass(frozen=True)
class IntensityEstimate:
    """Background incident intensity mu = numerator / denominator and its basis."""

    mu: float
    basis: str
    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.basis not in MU_BASES:
            raise ValueError(f"basis must be one of {MU_BASES}, got {self.basis!r}")
        _check_ratio(self.mu, self.numerator, self.denominator)


@dataclass(frozen=True)
class SuspectIntensity:
    """The suspect's own intensity mu_L = numerator / denominator.

    rule names how it was fitted; observed_rate is the only rule.
    """

    mu_L: float
    rule: str
    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        _check_ratio(self.mu_L, self.numerator, self.denominator)


def observed_rate(incidents: int, shifts: int) -> SuspectIntensity:
    """mu_L fitted so the suspect's expected count equals her observed count."""
    if incidents < 1 or shifts < 1:
        why = "the suspect has no shifts" if shifts < 1 else "no incidents on the suspect's shifts"
        raise ValueError(f"cannot fit the suspect's own intensity mu_L = {incidents}/{shifts}"
                         f" ({why}); LR undefined")
    return SuspectIntensity(incidents / shifts, "observed_rate", incidents, shifts)


def estimate_mu(case: CaseFile, basis: str, names: Sequence[str]) -> IntensityEstimate:
    """Estimate the background intensity over the named wards (pooled).

    basis is the --mu-basis spec, read here before any ward:
    'exclude_suspect' uses the other nurses' incidents and shifts (the
    prosecution's convention); 'include_suspect' uses all of them (the
    defence's), each also spelt with a dash; 'fixed=<value>' takes a finite
    positive value verbatim, with its float's exact binary fraction as the
    counts, and reads no ward, where <value> is an ASCII decimal literal
    such as 0.05 or 2e-3, with no '_' and no whitespace.
    """
    if basis.startswith("fixed=") and _DECIMAL.fullmatch(basis, len("fixed=")):
        value = float(basis[len("fixed="):])
        if math.isfinite(value) and value > 0:
            return IntensityEstimate(value, "fixed", *value.as_integer_ratio())
    spec, basis = basis, basis.replace("-", "_")
    if basis not in ("exclude_suspect", "include_suspect"):
        raise ValueError(f"unknown --mu-basis {spec!r}; expected exclude-suspect, "
                         "include-suspect or fixed=<finite positive number>")
    pool = pool_wards(case, names)
    numerator, denominator = pool.total_incidents, pool.total_shifts
    if basis == "exclude_suspect":
        numerator -= pool.suspect_incidents
        denominator -= pool.suspect_shifts
    if denominator == 0:
        raise ValueError(f"{pool.name}: zero shifts in the intensity denominator"
                         f" (basis {basis})")
    if numerator == 0:
        raise ValueError(f"{pool.name}: cannot fit intensity 0 (no incidents,"
                         f" basis {basis}); LR undefined")
    return IntensityEstimate(numerator / denominator, basis, numerator, denominator)


@dataclass(frozen=True)
class LikelihoodRatio:
    """A likelihood ratio with its verbal band and direction."""

    value: float
    verbal: str
    direction: str

    def __post_init__(self) -> None:
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"likelihood ratio must be positive and finite, got {self.value!r}")


def verbal_scale(lr: float) -> str:
    """Verbal band for a likelihood ratio.

    Ratios below 1 are described by their reciprocal with the hypothesis
    labels swapped, so no unlabeled sub-unit ratio is ever emitted; a
    subnormal ratio, whose reciprocal overflows to inf, reads in the top band.
    """
    if not lr > 0:
        raise ValueError(f"likelihood ratio must be positive, got {lr!r}")
    if lr == 1.0:
        return "equally likely under H_p as under H_d"
    if lr < 1.0:
        favored, other, magnitude = "H_d", "H_p", 1.0 / lr
    else:
        favored, other, magnitude = "H_p", "H_d", lr
    for upper, text in _BANDS:
        if magnitude < upper:
            break
    return f"{text} under {favored} than under {other}"


def lr_poisson(
    mu: IntensityEstimate,
    mu_L: SuspectIntensity,
    r_j: int,
    k_j: int,
) -> LikelihoodRatio:
    """LR = exp(mu*r_j - mu_L*r_j) * (mu_L / mu) ** k_j.

    The other nurses' Poisson factors are identical under both hypotheses
    and cancel, leaving only the suspect's term. Computed in log space from
    the records' numerator and denominator fields, mu = a/b and mu_L = c/d,
    all positive by construction: each int true division is correctly
    rounded, so every float is the one the exact rational rounds to.
    """
    if r_j < 1:
        raise ValueError(f"r_j must be >= 1, got {r_j}")
    if k_j < 0:
        raise ValueError(f"k_j must be >= 0, got {k_j}")
    a, b, c, d = mu.numerator, mu.denominator, mu_L.numerator, mu_L.denominator
    try:
        log_lr = (a * d - c * b) * r_j / (b * d) + k_j * (math.log(c / d) - math.log(a / b))
        value = math.exp(log_lr)
    except OverflowError:
        raise ValueError(f"the likelihood ratio at mu = {mu.mu!r} and mu_L = {mu_L.mu_L!r} "
                         "is outside the float range") from None
    direction = NEUTRAL if value == 1.0 else (
        FAVORS_PROSECUTION if value > 1.0 else FAVORS_DEFENCE
    )
    return LikelihoodRatio(value=value, verbal=verbal_scale(value), direction=direction)


def conditional_binomial_test(
    case: CaseFile,
    names: Sequence[str],
) -> TestResult:
    """Exact test of the suspect's count given the grand total of incidents.

    The named wards are pooled. Conditional on the total N incidents, the
    suspect's count is Binomial(N, p) with p = mu_L*r_L / (mu_L*r_L + mu*r).
    Under the null mu_L = mu the intensities cancel and p reduces to
    r_L / (r_L + r), needing no intensity estimate at all.
    """
    pool = pool_wards(case, names)
    total = pool.total_incidents
    shifts, all_shifts = pool.suspect_shifts, pool.total_shifts
    tail = binomial_tail(total, shifts / all_shifts, pool.suspect_incidents)
    g = math.gcd(shifts, all_shifts)
    p = f"{shifts // g}" if g == all_shifts else f"{shifts // g}/{all_shifts // g}"
    return TestResult(
        method="conditional_binomial",
        p_value=tail,
        statistic=float(pool.suspect_incidents),
        components=((pool.name, tail, 1.0),),
        notes=(
            f"Binomial({total}, {p}) tail at {pool.suspect_incidents}, "
            "conditional on the grand total of incidents"
        ),
    )
