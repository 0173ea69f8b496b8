"""Bayesian odds chaining over independent evidence items.

posterior odds = prior odds x product of likelihood ratios. Each update is
immutable and the chain is order-independent. The independence of the
evidence items is an assumption the caller must own; it is recorded on the
state so reports can display it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INDEPENDENCE_NOTE = (
    "Assumes the evidence items are mutually independent given each "
    "hypothesis; no dependence between items is modelled."
)


@dataclass(frozen=True)
class EvidenceItem:
    """One piece of evidence with its asserted likelihood ratio."""

    label: str
    lr: float
    provenance: str = ""

    def __post_init__(self) -> None:
        try:
            finite = math.isfinite(self.lr)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not (finite and self.lr > 0):
            raise ValueError(f"likelihood ratio must be positive and finite, got {self.lr!r}")


@dataclass(frozen=True)
class OddsState:
    """Prior odds plus the evidence applied so far."""

    prior_odds: float
    applied: tuple[EvidenceItem, ...] = ()
    posterior_odds: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (self.prior_odds > 0 and math.isfinite(self.prior_odds)):
            raise ValueError(f"prior odds must be positive and finite, got {self.prior_odds!r}")
        if self.posterior_odds is None:
            post = self.prior_odds
            for item in self.applied:
                post *= item.lr
            object.__setattr__(self, "posterior_odds", post)


def odds_from_probability(p: float) -> float:
    """Convert a probability in (0, 1) to odds p / (1 - p)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    return p / (1.0 - p)


def update(state: OddsState, evidence: EvidenceItem) -> OddsState:
    """Apply one evidence item, multiplying the posterior odds by its LR."""
    return OddsState(
        prior_odds=state.prior_odds,
        applied=state.applied + (evidence,),
        posterior_odds=state.posterior_odds * evidence.lr,
    )


def posterior_probability(state: OddsState) -> float:
    """Posterior probability odds / (1 + odds)."""
    return state.posterior_odds / (1.0 + state.posterior_odds)
