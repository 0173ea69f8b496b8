"""Statistical evaluation of suspicious coincidences in roster data.

Given counts of shifts and incidents for one or more hospital wards, this
package computes the evidence against a single nurse under four paradigms:

* conditional (hypergeometric) tail tests and their combinations,
* Poisson likelihood ratios with a verbal reporting scale,
* Bayesian odds chaining over independent evidence items,
* Monte Carlo calibration of the maximum relative risk among nurses.

All kernels are exact log-space computations; the Monte Carlo engine is
counter-based and reproduces bit-identical results for any worker count.
The engine, ``rosterstat.risk_sim``, is the one module that needs numpy at
import, so its names are loaded on first use: importing the package, or
running an exact method, leaves numpy unloaded.

The package re-exports only what the demos, the README quick start and the
benchmark (``perfbench/``) use. Everything else is imported from its own
module, for example ``from rosterstat.distributions import hypergeom_tail``.
"""

from rosterstat.bayes import (
    EvidenceItem,
    OddsState,
    odds_from_probability,
    posterior_probability,
    update,
)
from rosterstat.case import (
    CaseFile,
    WardRoster,
    builtin_paper_case,
    parse_case,
    pool_wards,
)
from rosterstat.frequentist import (
    bonferroni_min,
    convolved_sum_test,
    elffers_pipeline,
    fisher_combine,
    pooled_test,
    ward_tail_p,
)
from rosterstat.poisson_model import (
    conditional_binomial_test,
    estimate_mu,
    lr_poisson,
    observed_rate,
)

_RISK_SIM_NAMES = frozenset({
    "derive_sim_config",
    "exact_max_rr_tail",
    "observed_threshold",
    "relative_risk",
    "simulate_max_rr",
})


def __getattr__(name: str):
    # Not cached in the package namespace: each access reads the current
    # risk_sim binding, so a name rebound there (a tracer's wrapper, a test's
    # mock) is seen here too, and so is its restoration.
    if name in _RISK_SIM_NAMES:
        from rosterstat import risk_sim

        return getattr(risk_sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "CaseFile",
    "EvidenceItem",
    "OddsState",
    "WardRoster",
    "bonferroni_min",
    "builtin_paper_case",
    "conditional_binomial_test",
    "convolved_sum_test",
    "derive_sim_config",
    "elffers_pipeline",
    "estimate_mu",
    "exact_max_rr_tail",
    "fisher_combine",
    "lr_poisson",
    "observed_rate",
    "observed_threshold",
    "odds_from_probability",
    "parse_case",
    "pool_wards",
    "pooled_test",
    "posterior_probability",
    "relative_risk",
    "simulate_max_rr",
    "update",
    "ward_tail_p",
]
