"""Frequentist tests on roster data and their combinations.

Includes the original prosecution pipeline (per-ward tails with a post-hoc
multiplier, then a naive product across wards) purely for reproduction: the
product is branded as not being a p-value and cannot be mistaken for one.
The statistically sound alternatives are Bonferroni over nurses, pooling
wards before testing, the tail of the convolved per-ward counts, and
Fisher's chi-squared combination of independent p-values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from rosterstat.case import JKZ, CaseFile, WardRoster, named_wards, pool_wards
from rosterstat.distributions import chi2_survival_even, hypergeom_sum_tail, hypergeom_tail

NOT_A_P_VALUE = (
    "NOT a p-value: a product of per-ward tail probabilities shrinks with "
    "every factor and is biased small; under the null it is not uniformly "
    "distributed."
)

CONDITIONING_NOTE = (
    "conditional on the total number of incidents and the total number of "
    "shifts in each ward during the period under study"
)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test: p-value, optional statistic, component trail."""

    method: str
    p_value: float
    statistic: float | None = None
    components: tuple[tuple[str, float, float], ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p_value must lie in [0, 1], got {self.p_value!r}")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def is_p_value(self) -> bool:
        return self.method != "elffers_pipeline"


def ward_tail_p(w: WardRoster) -> TestResult:
    """Tail probability that the suspect saw at least her observed incidents."""
    p = hypergeom_tail(w.total_shifts, w.suspect_shifts, w.total_incidents,
                       w.suspect_incidents)
    return TestResult(
        method="per_ward_tail",
        p_value=p,
        components=((w.name, p, 1.0),),
        notes=f"{w.name}: {CONDITIONING_NOTE}",
    )


def elffers_pipeline(case: CaseFile, jkz_multiplier: int) -> TestResult:
    """The original prosecution computation: multiplied per-ward tails.

    The multiplier is applied to the JKZ ward only (or to the first ward of
    a case without a JKZ). The result is a probability-like score, NOT a
    p-value; the notes say so and is_p_value is False.
    """
    if jkz_multiplier < 1:
        raise ValueError(f"jkz_multiplier must be >= 1, got {jkz_multiplier!r}")
    if jkz_multiplier > sys.float_info.max:  # float() of a larger int may overflow
        raise ValueError("jkz_multiplier is past the float range (about 1.8e308)")
    multiplied = JKZ if any(w.name == JKZ for w in case.wards) else case.wards[0].name
    product = 1.0
    components = []
    for w in case.wards:
        tail = ward_tail_p(w).p_value
        m = float(jkz_multiplier) if w.name == multiplied else 1.0
        product *= min(1.0, m * tail)
        components.append((w.name, tail, m))
    return TestResult(
        method="elffers_pipeline",
        p_value=min(1.0, product),
        components=tuple(components),
        notes=NOT_A_P_VALUE + f" Multiplier {jkz_multiplier} applied to {multiplied} only.",
    )


def bonferroni_min(p_values: Sequence[float], nurse_count: int) -> TestResult:
    """Bonferroni multiple-comparison bound: nurse_count times the smallest p.

    Legitimate as a p-value when the per-nurse tests were planned before
    seeing the data; nurses without a supplied p implicitly contribute 1.
    """
    if not p_values:
        raise ValueError("bonferroni_min needs at least one p-value")
    for p in p_values:
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"component p-value out of [0, 1]: {p!r}")
    if nurse_count < 1:
        raise ValueError(f"nurse_count must be >= 1, got {nurse_count}")
    smallest = min(p_values)
    return TestResult(
        method="bonferroni",
        p_value=min(1.0, nurse_count * smallest),
        statistic=smallest,
        components=(("min", smallest, float(nurse_count)),),
        notes=f"smallest of {len(p_values)} per-nurse p-values times {nurse_count} nurses",
    )


def pooled_test(case: CaseFile, names: Sequence[str]) -> TestResult:
    """Tail test on the component-wise pooled counts of the named wards."""
    pool = pool_wards(case, names)
    p = hypergeom_tail(pool.total_shifts, pool.suspect_shifts, pool.total_incidents,
                       pool.suspect_incidents)
    return TestResult(
        method="pooled_tail",
        p_value=p,
        components=((pool.name, p, 1.0),),
        notes=f"pooled wards {list(names)}; {CONDITIONING_NOTE}",
    )


def convolved_sum_test(case: CaseFile, names: Sequence[str]) -> TestResult:
    """Tail of the sum of independent per-ward suspect-incident counts.

    Keeps each ward's own incident rate (unlike pooling) and asks for the
    probability that the total over wards reaches the suspect's total. At
    paper scale the tail is summed in a fixed order without numpy, so it does
    not depend on numpy's BLAS build or the CPU's kernel choice; past
    ``hypergeom_sum_tail``'s bound it comes from ``np.convolve``.
    """
    rosters = named_wards(case, names)
    s_min = sum(w.suspect_incidents for w in rosters)
    counts = [(w.total_shifts, w.suspect_shifts, w.total_incidents) for w in rosters]
    p = hypergeom_sum_tail(counts, s_min)
    components = tuple((w.name, hypergeom_tail(*c, w.suspect_incidents), 1.0)
                       for w, c in zip(rosters, counts))
    return TestResult(
        method="convolved_sum",
        p_value=p,
        statistic=float(s_min),
        components=components,
        notes=(
            f"P(sum of independent per-ward counts >= {s_min}) for wards "
            f"{list(names)}; each ward keeps its own incident rate; {CONDITIONING_NOTE}"
        ),
    )


def fisher_combine(p_values: Sequence[float]) -> TestResult:
    """Fisher's method: compare -2 * sum(ln p_i) with chi-squared(2n).

    A component p of exactly 0 is rejected: it can only come from numeric
    underflow upstream and must surface rather than be floored.
    """
    if not p_values:
        raise ValueError("fisher_combine needs at least one p-value")
    for p in p_values:
        if p == 0.0:
            raise ValueError("degenerate component p-value (exactly 0)")
        if not (0.0 < p <= 1.0):
            raise ValueError(f"component p-value out of (0, 1]: {p!r}")
    statistic = -2.0 * math.fsum(math.log(p) for p in p_values) + 0.0  # -0.0 becomes 0.0
    combined = chi2_survival_even(statistic, 2 * len(p_values))
    return TestResult(
        method="fisher_combined",
        p_value=combined,
        statistic=statistic,
        components=tuple((f"p{i + 1}", p, 1.0) for i, p in enumerate(p_values)),
        notes=f"-2*sum(ln p) over {len(p_values)} independent p-values",
    )
