"""Relative risk and Monte Carlo calibration of its null distribution.

The question: among I nurses with equal shift counts and a common incident
intensity, how often does the *largest* relative risk reach the suspect's
observed value? Replicates draw each nurse's count from a Poisson; with
equal shifts the maximum relative risk belongs to the nurse with the most
incidents, so only the maximum and the total matter. A count is a uniform
inverted through the running sum of the poisson_dist vector, the pmf that
the exact oracle exact_max_rr_tail reads too.

Randomness is counter-based (Philox keyed by the master seed); replicate i
consumes a fixed, padded slice of the uniform stream, so any partition of
the replicate range across threads, and any block size, reproduces
bit-identical counts. Each thread advances one generator to the start of
its range and draws its blocks in turn. Blocks are sized by bytes
(_BLOCK_BYTES of uniforms and counts, or one replicate if that is larger),
so memory is about threads x max(budget, one replicate).
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from rosterstat.case import CaseFile, pool_wards
from rosterstat.distributions import poisson_dist
from rosterstat.poisson_model import estimate_mu

logger = logging.getLogger(__name__)

_BLOCK_BYTES = 2 << 20  # float64 uniforms plus int64 counts per block


@dataclass(frozen=True)
class RelativeRisk:
    """A nurse's incident rate relative to the pooled rate of the others."""

    value: float  # may be +inf when the others saw no incidents
    suspect_rate: float
    others_rate: float


def relative_risk(k_j: int, r_j: int, k_others: int, r_others: int) -> RelativeRisk:
    """(k_j / r_j) / (k_others / r_others), with the zero conventions.

    No incidents anywhere means no signal: the ratio is defined as 1.
    Incidents for the suspect but none for the others give +infinity.
    """
    if r_j < 1 or r_others < 1:
        raise ValueError("shift counts must be >= 1")
    if k_j < 0 or k_others < 0:
        raise ValueError("incident counts must be non-negative")
    suspect_rate = k_j / r_j
    others_rate = k_others / r_others
    if k_others == 0:
        value = 1.0 if k_j == 0 else math.inf
    else:
        value = suspect_rate / others_rate
    return RelativeRisk(value=value, suspect_rate=suspect_rate, others_rate=others_rate)


@dataclass(frozen=True)
class SimulationConfig:
    """One null-calibration setup: I equal-shift nurses, shared intensity."""

    nurse_count: int
    shifts_per_nurse: int
    mu: float
    replicates: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nurse_count < 2:
            raise ValueError(f"nurse_count must be >= 2, got {self.nurse_count}")
        if self.shifts_per_nurse < 1:
            raise ValueError(f"shifts_per_nurse must be >= 1, got {self.shifts_per_nurse}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")
        mean = self.mu * self.shifts_per_nurse
        if mean > 1e6:  # the table spans 80 * sqrt(mean) + 1,600 counts: 0.2 s at 10**6
            raise ValueError(f"per-nurse Poisson mean {mean!r} is above 10**6")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimulationReport:
    """Empirical tail probability of the maximum relative risk."""

    config: SimulationConfig
    threshold: float
    exceed_count: int
    p_value: float
    std_error: float
    degenerate_count: int  # replicates with zero incidents in total


def _poisson_inversion_table(mean: float) -> tuple[int, np.ndarray]:
    """First count and CDF table for inverting uniforms into Poisson draws.

    The table is the running sum of the poisson_dist vector, cut at its
    first entry equal to the full sum; a uniform at or past that entry maps
    to the count just after it.
    """
    dist = poisson_dist(mean)
    cdf = np.cumsum(dist.probabilities)
    return dist.support_min, cdf[: np.searchsorted(cdf, cdf[-1]) + 1]


def _exceeds(max_counts: np.ndarray, totals: np.ndarray, I: int,
             threshold: float) -> np.ndarray:
    """Vectorized exceedance of the maximum relative risk.

    Ties count as exceeding (>=). All-zero replicates have every relative
    risk equal to 1; a suspect holding all incidents has +infinity.
    """
    exceed = np.zeros(max_counts.shape, dtype=bool)
    all_zero = totals == 0
    all_mine = (totals == max_counts) & ~all_zero
    exceed[all_zero] = 1.0 >= threshold
    exceed[all_mine] = True
    rest = ~all_zero & ~all_mine
    exceed[rest] = (
        max_counts[rest] * (I - 1) >= threshold * (totals[rest] - max_counts[rest])
    )
    return exceed


def _simulate_range(cfg: SimulationConfig, threshold: float, first: int,
                    cdf: np.ndarray, start: int, stop: int, stride: int,
                    rows: int) -> tuple[int, int]:
    """Exceed/degenerate counts for replicates [start, stop).

    Works through the range in blocks of ``rows`` replicates, whose uniforms
    and counts fit in _BLOCK_BYTES unless one replicate alone is larger, so
    each thread holds about max(budget, one replicate).
    One generator is advanced to the range's first replicate; stride is a
    multiple of 4, so each block leaves it at the next replicate's offset
    and the counts do not depend on the block size. The table's first count
    is added to each maximum and total.
    """
    exceed = 0
    degenerate = 0
    bit_gen = np.random.Philox(key=cfg.seed)
    bit_gen.advance(start * stride // 4)  # Philox blocks hold 4 doubles
    gen = np.random.Generator(bit_gen)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        uniforms = gen.random((hi - lo, stride))
        counts = np.searchsorted(cdf, uniforms[:, : cfg.nurse_count], side="right")
        totals = counts.sum(axis=1) + first * cfg.nurse_count
        max_counts = counts.max(axis=1) + first
        flags = _exceeds(max_counts, totals, cfg.nurse_count, threshold)
        exceed += int(flags.sum())
        degenerate += int((totals == 0).sum())
    return exceed, degenerate


def simulate_max_rr(cfg: SimulationConfig, threshold: float,
                    workers: int = 1) -> SimulationReport:
    """Estimate P(max relative risk >= threshold) under the null.

    Deterministic given (seed, config, threshold): each replicate's counts
    come from a fixed slice of the Philox stream, so the report is
    bit-identical for any worker count.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    first, cdf = _poisson_inversion_table(cfg.mu * cfg.shifts_per_nurse)
    # pad each replicate's uniform block to a whole number of Philox blocks
    stride = 4 * math.ceil(cfg.nurse_count / 4)
    # a replicate larger than the budget is simulated alone
    rows = max(1, _BLOCK_BYTES // (8 * (stride + cfg.nurse_count)))
    # one range per thread; threads beyond the core count cannot run at once
    threads = min(workers, os.cpu_count() or 1, cfg.replicates)
    ranges = [(cfg.replicates * i // threads, cfg.replicates * (i + 1) // threads)
              for i in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda ab: _simulate_range(
            cfg, threshold, first, cdf, *ab, stride, rows), ranges))
    exceed, degenerate = map(sum, zip(*results))
    p = exceed / cfg.replicates
    return SimulationReport(
        config=cfg,
        threshold=threshold,
        exceed_count=exceed,
        p_value=p,
        std_error=math.sqrt(p * (1.0 - p) / cfg.replicates),
        degenerate_count=degenerate,
    )


def exact_max_rr_tail(I: int, r: int, mu: float, threshold: float,
                      count_cap: int) -> float:
    """Exact P(max relative risk >= threshold) by truncated enumeration.

    Independent oracle for simulate_max_rr, feasible only for I <= 4.
    count_cap must leave per-nurse Poisson mass below 1e-10 beyond it.
    """
    if not (2 <= I <= 4):
        raise ValueError(f"exact enumeration supports 2 <= I <= 4, got {I}")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    dist = poisson_dist(mu * r)
    lo, probs = dist.support_min, dist.probabilities
    pmf = [probs[k - lo] if 0 <= k - lo < len(probs) else 0.0 for k in range(count_cap + 1)]
    truncated = 1.0 - math.fsum(pmf)
    if truncated >= 1e-10:
        raise ValueError(
            f"count_cap={count_cap} leaves Poisson mass {truncated:.3e} >= 1e-10"
        )
    pieces = []
    for vector in product(range(count_cap + 1), repeat=I):
        total = sum(vector)
        biggest = max(vector)
        if total == 0:
            hit = 1.0 >= threshold
        elif total == biggest:
            hit = True
        else:
            hit = biggest * (I - 1) >= threshold * (total - biggest)
        if hit:
            prob = 1.0
            for k in vector:
                prob *= pmf[k]
            pieces.append(prob)
    return min(1.0, math.fsum(pieces))


def derive_sim_config(
    case: CaseFile,
    ward_names: Sequence[str],
    mu_basis: str,
    replicates: int = 100_000,
    seed: int = 0,
    fixed_value: float | None = None,
) -> SimulationConfig:
    """Build the equal-shift null configuration for the named wards.

    Every simulated nurse gets the suspect's shift count r; the nurse count
    is n/r rounded to nearest (the true head count is unknown, only total
    shifts are). Non-integral ratios are logged with both values.
    """
    pool = pool_wards(case, list(ward_names))
    r = pool.suspect_shifts
    if r == 0:
        raise ValueError("suspect has no shifts in the selected wards")
    ratio = pool.total_shifts / r
    nurse_count = round(ratio)
    if nurse_count != ratio:
        logger.info(
            "non-integral shifts ratio for %s: n/r = %d/%d = %.4f, using I = %d",
            pool.name, pool.total_shifts, r, ratio, nurse_count,
        )
    mu = estimate_mu(case, mu_basis, names=ward_names, fixed_value=fixed_value)
    return SimulationConfig(
        nurse_count=nurse_count,
        shifts_per_nurse=r,
        mu=mu.mu,
        replicates=replicates,
        seed=seed,
    )


def observed_threshold(case: CaseFile, ward_names: Sequence[str]) -> RelativeRisk:
    """The suspect's observed relative risk over the named wards."""
    pool = pool_wards(case, list(ward_names))
    return relative_risk(
        pool.suspect_incidents,
        pool.suspect_shifts,
        pool.total_incidents - pool.suspect_incidents,
        pool.total_shifts - pool.suspect_shifts,
    )
