"""Poisson likelihood ratios and the Bayesian evidence chain.

Contrasts the two background-intensity conventions, shows the verbal scale
used to report likelihood ratios, and chains the four independent evidence
items through prior odds to a posterior.
"""

from rosterstat import (
    OddsState,
    builtin_paper_case,
    estimate_mu,
    lr_poisson,
    observed_rate,
    odds_from_probability,
    posterior_probability,
    update,
)

case = builtin_paper_case("corrected")
rkz = ["RKZ-41", "RKZ-42"]

print("=== likelihood ratio for the roster evidence (pooled RKZ) ===")
mu_l = observed_rate(6, 61)
for basis in ("exclude_suspect", "include_suspect"):
    mu = estimate_mu(case, basis, rkz)
    lr = lr_poisson(mu, mu_l, 61, 6)
    print(f"mu from {basis:16s} = {mu.numerator}/{mu.denominator}"
          f"  ->  LR = {lr.value:7.2f}  ({lr.verbal})")
print("\nBoth land in the same verbal band despite a factor ~3.6 gap,")
print("which is why courts are given words rather than raw numbers.")

print("\n=== chaining independent evidence items ===")
state = OddsState(prior_odds=1e-5)
for item in case.evidence:
    state = update(state, item)
    print(f"after {item.label:45s} odds = {state.posterior_odds:10.6f}")
print(f"posterior probability of guilt: {posterior_probability(state):.4f}")

strict = OddsState(prior_odds=odds_from_probability(1e-5))
for item in case.evidence:
    strict = update(strict, item)
print(f"with the strict p/(1-p) prior conversion: {strict.posterior_odds:.7f}")
