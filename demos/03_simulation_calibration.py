"""Calibrating the observed relative risk by Monte Carlo.

Computes how often an innocent nurse's maximum relative risk, across a ward
of identical colleagues, would reach the observed value purely by chance.
Cross-checks the simulator against the exact calibration, on a small
instance and on the whole-RKZ paper configuration.
"""

from rosterstat import (
    builtin_paper_case,
    derive_sim_config,
    exact_max_rr_tail,
    observed_threshold,
    relative_risk,
    simulate_max_rr,
)
from rosterstat.risk_sim import SimulationConfig

case = builtin_paper_case("corrected")

print("=== observed relative risks ===")
rr_pool = relative_risk(6, 61, 13, 614)
print(f"pooled RKZ:  {rr_pool.value:.4f}")
rr_41 = observed_threshold(case, ["RKZ-41"])
print(f"RKZ-41:      {rr_41.value:.4f}")

print("\n=== chance of an innocent nurse hitting those values ===")
runs = {}
for label, wards, basis in [
    ("whole RKZ / rate excl. suspect", ["RKZ-41", "RKZ-42"], "exclude_suspect"),
    ("whole RKZ / rate incl. suspect", ["RKZ-41", "RKZ-42"], "include_suspect"),
    ("RKZ-41    / rate excl. suspect", ["RKZ-41"], "exclude_suspect"),
]:
    cfg = derive_sim_config(case, wards, basis, replicates=100_000, seed=0)
    threshold = observed_threshold(case, wards).value
    report = simulate_max_rr(cfg, threshold, workers=4)
    runs[label] = report
    print(f"{label}: P(max RR >= {threshold:.3f}) "
          f"= {report.p_value:.3f} +/- {report.std_error:.3f}")
print("\nEven the smallest of these is orders of magnitude above 1/342 million.")

print("\n=== simulator vs exact calibration ===")
# the exact tail conditions on the total count; count_cap 40 leaves far less
# than 1e-10 of each nurse's Poisson mass beyond it at these means
small = simulate_max_rr(SimulationConfig(nurse_count=3, shifts_per_nurse=1, mu=1.0,
                                         replicates=200_000, seed=11), threshold=1.8)
for label, sim in [("3 nurses, mean 1, RR >= 1.8", small),
                   ("whole RKZ / rate excl. suspect", runs["whole RKZ / rate excl. suspect"])]:
    cfg = sim.config
    exact = exact_max_rr_tail(cfg.nurse_count, cfg.shifts_per_nurse, cfg.mu,
                              sim.threshold, count_cap=40)
    print(f"{label}: simulated {sim.p_value:.5f} +/- {sim.std_error:.5f}, "
          f"exact {exact:.5f} (I = {cfg.nurse_count})")
