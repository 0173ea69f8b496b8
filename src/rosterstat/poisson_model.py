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


@dataclass(frozen=True)
class IntensityEstimate:
    """Background incident intensity (incidents per shift) and its basis."""

    mu: float
    basis: str
    numerator: int = 0
    denominator: int = 0

    def __post_init__(self) -> None:
        if self.basis not in MU_BASES:
            raise ValueError(f"basis must be one of {MU_BASES}, got {self.basis!r}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"intensity must be positive and finite, got {self.mu!r}")
        if self.basis != "fixed":
            if self.denominator <= 0 or self.numerator <= 0:
                raise ValueError("data-derived intensities need positive counts")
            exact = self.numerator / self.denominator
            if not math.isclose(self.mu, exact, rel_tol=1e-12):
                raise ValueError(
                    f"mu {self.mu!r} inconsistent with {self.numerator}/{self.denominator}"
                )

    @property
    def ratio(self) -> tuple[int, int]:
        """mu as an exact (numerator, denominator) pair, denominator positive."""
        if self.basis == "fixed":
            return self.mu.as_integer_ratio()
        return self.numerator, self.denominator


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
        if self.numerator <= 0 or self.denominator <= 0:
            raise ValueError("the suspect's intensity needs positive counts")

    @property
    def ratio(self) -> tuple[int, int]:
        """mu_L as an exact (numerator, denominator) pair, denominator positive."""
        return self.numerator, self.denominator


def observed_rate(incidents: int, shifts: int) -> SuspectIntensity:
    """mu_L fitted so the suspect's expected count equals her observed count."""
    if shifts < 1:
        raise ValueError(f"shifts must be >= 1, got {shifts}")
    if incidents < 1:
        raise ValueError(f"cannot fit the suspect's own intensity mu_L = 0/{shifts}"
                         " (no incidents on the suspect's shifts); LR undefined")
    return SuspectIntensity(
        mu_L=incidents / shifts,
        rule="observed_rate",
        numerator=incidents,
        denominator=shifts,
    )


def estimate_mu(case: CaseFile, basis: str, names: Sequence[str]) -> IntensityEstimate:
    """Estimate the background intensity over the named wards (pooled).

    basis is the --mu-basis spec, read here before any ward:
    'exclude_suspect' uses the other nurses' incidents and shifts (the
    prosecution's convention); 'include_suspect' uses all of them (the
    defence's), each also spelt with a dash; 'fixed=<value>' takes a finite
    positive value verbatim and reads no ward, where <value> is an ASCII
    decimal literal such as 0.05 or 2e-3, with no '_' and no whitespace.
    """
    if basis.startswith("fixed=") and _DECIMAL.fullmatch(basis, len("fixed=")):
        value = float(basis[len("fixed="):])
        if math.isfinite(value) and value > 0:
            return IntensityEstimate(mu=value, basis="fixed")
    spec, basis = basis, basis.replace("-", "_")
    if basis not in ("exclude_suspect", "include_suspect"):
        raise ValueError(f"unknown --mu-basis {spec!r}; expected exclude-suspect, "
                         "include-suspect or fixed=<finite positive number>")
    pool = pool_wards(case, names)
    if basis == "include_suspect":
        numerator = pool.total_incidents
        denominator = pool.total_shifts
    else:
        numerator = pool.total_incidents - pool.suspect_incidents
        denominator = pool.total_shifts - pool.suspect_shifts
    if denominator == 0:
        raise ValueError(f"{pool.name}: zero shifts in the intensity denominator"
                         f" (basis {basis})")
    if numerator == 0:
        raise ValueError(f"{pool.name}: cannot fit intensity 0 (no incidents,"
                         f" basis {basis}); LR undefined")
    return IntensityEstimate(
        mu=numerator / denominator,
        basis=basis,
        numerator=numerator,
        denominator=denominator,
    )


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
    the exact ratios mu = a/b and mu_L = c/d that ``.ratio`` gives, both
    positive by construction: each int true division is correctly rounded,
    so every float is the one the exact rational rounds to.
    """
    if r_j < 1:
        raise ValueError(f"r_j must be >= 1, got {r_j}")
    if k_j < 0:
        raise ValueError(f"k_j must be >= 0, got {k_j}")
    a, b = mu.ratio
    c, d = mu_L.ratio
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
