"""Bayesian odds chaining over independent evidence items.

posterior odds = prior odds x product of likelihood ratios. Each update is
immutable. The product is formed in the order the evidence is given and is
rejected at the item where it leaves the float range, so an order whose
partial products stay in range may pass where another is rejected. The
independence of the evidence items is an assumption the caller must own; it
is recorded on the state so reports can display it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INDEPENDENCE_NOTE = (
    "Assumes the evidence items are mutually independent given each "
    "hypothesis; no dependence between items is modelled."
)


def _require_positive_finite(value: float, name: str) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not (finite and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class EvidenceItem:
    """One piece of evidence with its asserted likelihood ratio."""

    label: str
    lr: float
    provenance: str = ""

    def __post_init__(self) -> None:
        _require_positive_finite(self.lr, "likelihood ratio")


@dataclass(frozen=True)
class OddsState:
    """Prior odds plus the evidence applied so far."""

    prior_odds: float
    applied: tuple[EvidenceItem, ...] = ()
    posterior_odds: float = field(init=False)

    def __post_init__(self) -> None:
        _require_positive_finite(self.prior_odds, "prior odds")
        post = self.prior_odds
        for item in self.applied:
            post = _times_lr(post, item)
        object.__setattr__(self, "posterior_odds", post)


def _times_lr(odds: float, item: EvidenceItem) -> float:
    """odds x item.lr; a product that overflows or underflows raises ValueError."""
    product = odds * item.lr
    if not 0.0 < product < math.inf:
        raise ValueError(
            f"posterior odds {'overflow' if product else 'underflow'} the float "
            f"range after evidence {item.label!r} "
            f"(odds {odds!r} x likelihood ratio {item.lr!r})"
        )
    return product


def odds_from_probability(p: float) -> float:
    """Convert a probability in (0, 1) to odds p / (1 - p)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    return p / (1.0 - p)


def update(state: OddsState, evidence: EvidenceItem) -> OddsState:
    """Apply one evidence item, multiplying the posterior odds by its LR."""
    return OddsState(state.prior_odds, state.applied + (evidence,))


def posterior_probability(state: OddsState) -> float:
    """Posterior probability odds / (1 + odds)."""
    return state.posterior_odds / (1.0 + state.posterior_odds)
