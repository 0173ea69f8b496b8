"""Relative risk and the calibration of its null distribution.

The question: among I nurses with equal shift counts and a common incident
intensity, how often does the *largest* relative risk reach the suspect's
observed value? With equal shifts the maximum relative risk belongs to the
nurse with the most incidents, so only the maximum and the total matter.
simulate_max_rr draws each nurse's count by inverting a uniform through the
running sum of the poisson_dist vector; exact_max_rr_tail sums the same pmf
exactly, conditioning on the total.

Randomness is counter-based (Philox keyed by the master seed): replicate i
reads a fixed, padded slice of the uniform stream, so any partition of the
replicates across threads, and any block size, gives bit-identical counts
(see _simulate_range). Inversion is a guide table (Chen and Asau 1974; see
_bucket_table), and every count equals searchsorted(cdf, u, side="right").
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rosterstat.case import CaseFile, pool_wards
from rosterstat.distributions import poisson_dist
from rosterstat.poisson_model import estimate_mu

logger = logging.getLogger(__name__)

# per block: float64 uniforms, the intp bucket index, the counts and the
# searched-draw mask; the six paper rows ran as fast at 512 KiB as at 1 or
# 2 MiB (slower at 256 KiB), and a relative-risk process peaked about 2 MiB
# lower than at 2 MiB
_BLOCK_BYTES = 512 << 10
_BUCKETS = 1 << 12  # a power of two, so scaling by it is exact
# a replicate's block arrays take about 18 bytes per nurse, and a traced
# one-replicate run at I = 10**6 peaked at 17.0 MB; without a bound a valid
# ward with n = 10**9, r = 1 would ask for one 18 GB replicate
_MAX_NURSE_COUNT = 10**6
# exact_max_rr_tail's work: a chain step convolves at most L coefficients with
# c pmf terms, L * (c + 8) units with the flush, plus 50,000 for its calls. A
# unit took 0.06-0.4 ns on a shared 2-core Xeon (numpy 2.4), so a run at the
# bound takes up to 1.2 s; I = 10**5 at mean 1 would take 5e12 units. Terms
# below _FLUSH are dropped, moving no tail by 1e-100, so products stay normal:
# subnormal arithmetic ran one chain 6x slower
_EXACT_WORK, _FLUSH = 3 * 10**9, 2.0**-500


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
        if self.nurse_count > _MAX_NURSE_COUNT:
            raise ValueError(f"nurse_count {self.nurse_count} is above 10**6")
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
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


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
    risk equal to 1; a suspect holding all incidents has +infinity, which
    the product test meets at any finite threshold (0 >= 0).
    """
    if threshold == math.inf:  # inf * 0 would be NaN
        return (totals == max_counts) & (totals > 0)
    return np.where(totals == 0, 1.0 >= threshold,
                    max_counts * (I - 1) >= threshold * (totals - max_counts))


def _bucket_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scaled CDF and the bucket table for _invert.

    A uniform u lies in bucket floor(u * _BUCKETS). Where no CDF entry lies
    inside a bucket, every uniform in it inverts to the count at the
    bucket's start, which the table holds; a bucket with an entry inside
    holds len(cdf) + 1, above every count, so its draws are searched. The
    table takes the smallest unsigned dtype that holds that marker.
    """
    scaled = cdf * _BUCKETS
    starts = np.searchsorted(scaled, np.arange(_BUCKETS + 1.0), side="right")
    table = np.where(starts[1:] == starts[:-1], starts[:-1], len(cdf) + 1)
    return scaled, table.astype(np.min_scalar_type(len(cdf) + 1))


def _invert(scaled: np.ndarray, table: np.ndarray, scaled_u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for uniforms u scaled by _BUCKETS.

    Returns the counts in the table's dtype.
    """
    counts = table[scaled_u.astype(np.intp)]
    searched = counts == len(scaled) + 1
    counts[searched] = np.searchsorted(scaled, scaled_u[searched], side="right")
    return counts


def _simulate_range(cfg: SimulationConfig, threshold: float, first: int,
                    scaled: np.ndarray, table: np.ndarray, start: int, stop: int,
                    stride: int, rows: int) -> tuple[int, int]:
    """Exceed/degenerate counts for replicates [start, stop).

    Works through the range in blocks of ``rows`` replicates, whose arrays
    fit in _BLOCK_BYTES unless one replicate alone is larger, so each
    thread holds about max(budget, one replicate).
    One generator is advanced to the range's first replicate; stride is a
    multiple of 4, so each block leaves it at the next replicate's offset
    and the counts do not depend on the block size. The table's first count
    is added to each maximum and total.
    """
    exceed = 0
    degenerate = 0
    I = cfg.nurse_count
    bit_gen = np.random.Philox(key=cfg.seed)
    bit_gen.advance(start * stride // 4)  # Philox blocks hold 4 doubles
    gen = np.random.Generator(bit_gen)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        scaled_u = gen.random((hi - lo, stride))[:, :I]
        scaled_u *= _BUCKETS
        counts = _invert(scaled, table, scaled_u)
        totals = counts.sum(axis=1, dtype=np.int64) + first * I
        max_counts = counts.max(axis=1).astype(np.int64) + first
        flags = _exceeds(max_counts, totals, I, threshold)
        exceed += int(flags.sum())
        degenerate += int((totals == 0).sum())
    return exceed, degenerate


def simulate_max_rr(cfg: SimulationConfig, threshold: float,
                    workers: int = 1) -> SimulationReport:
    """Estimate P(max relative risk >= threshold) under the null.

    Deterministic given (seed, config, threshold): each replicate's counts
    come from a fixed slice of the Philox stream, so the report is
    bit-identical for any worker count. The calling thread simulates the
    first replicate range; the others, if any, run on a pool of threads,
    which (with concurrent.futures) is loaded only when it is needed.
    """
    if not threshold >= 0:  # NaN fails this too
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    first, cdf = _poisson_inversion_table(cfg.mu * cfg.shifts_per_nurse)
    scaled, table = _bucket_table(cdf)
    # pad each replicate's uniform block to a whole number of Philox blocks
    stride = 4 * math.ceil(cfg.nurse_count / 4)
    # per replicate: stride uniforms, then per nurse an intp bucket index, a
    # count and a mask byte; a replicate larger than the budget runs alone
    replicate_bytes = 8 * stride + (8 + table.itemsize + 1) * cfg.nurse_count
    rows = max(1, _BLOCK_BYTES // replicate_bytes)
    # one range per thread; threads beyond the core count cannot run at once
    threads = min(workers, os.cpu_count() or 1, cfg.replicates)
    ranges = [(cfg.replicates * i // threads, cfg.replicates * (i + 1) // threads)
              for i in range(threads)]

    def run(bounds: tuple[int, int]) -> tuple[int, int]:
        return _simulate_range(cfg, threshold, first, scaled, table, *bounds,
                               stride, rows)

    if threads == 1:
        results = [run(ranges[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            rest = pool.map(run, ranges[1:])
            results = [run(ranges[0]), *rest]
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
    """Exact P(max relative risk >= threshold), conditioning on the total N.

    The brute-enumeration sum over counts 0..count_cap, with _exceeds'
    conventions: total N adds [x^N] (P^I - P_c^I), P being the pmf polynomial
    cut at count_cap (which must leave under 1e-10 of the mass) and P_c its
    terms below the least maximum c(N) that exceeds. The absolute error is
    within 1e-15, so a tail near that size is not resolved in relative terms.
    """
    if not 2 <= I <= _MAX_NURSE_COUNT:
        raise ValueError(f"exact calibration needs 2 <= I <= 10**6, got {I}")
    if not threshold >= 0:  # NaN fails this too
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    dist = poisson_dist(mu * r)
    pmf = np.concatenate([np.zeros(dist.support_min), dist.probabilities])[:count_cap + 1]
    truncated = 1.0 - math.fsum(pmf)
    if truncated >= 1e-10:
        raise ValueError(f"count_cap={count_cap} leaves Poisson mass {truncated:.3e} >= 1e-10")
    pmf[pmf < _FLUSH] = 0.0
    d = len(pmf) - 1
    maxima = np.arange(1, d + 1)  # bisect for the last total each one exceeds at
    lo, hi = maxima, np.full(d, I * d)
    while np.any(lo < hi):
        mid = (lo + hi + 1) // 2
        hit = _exceeds(maxima, mid, I, threshold)
        lo, hi = np.where(hit, mid, lo), np.where(hit, hi, mid - 1)
    last = [0, *lo.tolist()]
    # (c, first, n): P_c^I's terms at totals first+1..n; c = d + 1 is P^I, from
    # total 0 when all-zero counts exceed
    chains = [(d + 1, -1 if 1.0 >= threshold else 0, last[d])] + [
        (c, last[c - 1], min(last[c], I * (c - 1))) for c in range(2, d + 1)
        if min(last[c], I * (c - 1)) > last[c - 1]]
    work = sum((I - 1) * ((n + 1) * (c + 8) + 50_000) for c, _, n in chains)
    if work > _EXACT_WORK:
        raise ValueError(f"exact calibration at I = {I}, count_cap = {count_cap} and threshold"
                         f" {threshold!r} needs {work:.2e} work units, above {_EXACT_WORK:.0e}")
    pieces = []
    for c, first, n in chains:  # I - 1 np.convolve calls each
        power = pmf[:c][:n + 1]
        for _ in range(I - 1):
            power = np.convolve(power, pmf[:c])[:n + 1]
            power[power < _FLUSH] = 0.0
        pieces.append(power[first + 1:] if c > d else -power[first + 1:])
    return min(1.0, max(0.0, math.fsum(np.concatenate(pieces))))


def derive_sim_config(
    case: CaseFile,
    ward_names: Sequence[str],
    mu_basis: str,
    replicates: int = 100_000,
    seed: int = 0,
) -> SimulationConfig:
    """Build the equal-shift null configuration for the named wards.

    Every simulated nurse gets the suspect's shift count r; the nurse count
    is n/r rounded to nearest (the true head count is unknown, only total
    shifts are). Non-integral ratios are logged with both values. A nurse
    count outside 2..10**6 is rejected naming the wards and n/r; then mu is
    estimated from mu_basis, the same spec estimate_mu reads.
    """
    pool = pool_wards(case, ward_names)
    n, r = pool.total_shifts, pool.suspect_shifts
    if r == 0:
        raise ValueError(f"{pool.name}: the suspect has no shifts, n/r = {n}/0")
    ratio = n / r
    nurse_count = round(ratio)
    if not 2 <= nurse_count <= _MAX_NURSE_COUNT:
        raise ValueError(f"{pool.name}: n/r = {n}/{r} rounds to I = {nurse_count};"
                         " the calibration needs 2 <= I <= 10**6")
    if nurse_count != ratio:
        logger.info(
            "non-integral shifts ratio for %s: n/r = %d/%d = %.4f, using I = %d",
            pool.name, n, r, ratio, nurse_count,
        )
    mu = estimate_mu(case, mu_basis, ward_names)
    if mu.mu * r > 1e6:  # SimulationConfig's bound, with the wards named
        raise ValueError(f"{pool.name}: n/r = {n}/{r}; the per-nurse Poisson mean"
                         f" mu * r = {mu.mu * r!r} is above 10**6")
    return SimulationConfig(
        nurse_count=nurse_count,
        shifts_per_nurse=r,
        mu=mu.mu,
        replicates=replicates,
        seed=seed,
    )


def observed_threshold(case: CaseFile, ward_names: Sequence[str]) -> RelativeRisk:
    """The suspect's observed relative risk over the named wards.

    Both the suspect and the others need shifts; if not, the error names
    the wards and n/r.
    """
    pool = pool_wards(case, ward_names)
    n, r = pool.total_shifts, pool.suspect_shifts
    if not 0 < r < n:
        raise ValueError(f"{pool.name}: n/r = {n}/{r}; the relative risk needs shifts"
                         " for both the suspect and the other nurses")
    return relative_risk(
        pool.suspect_incidents,
        pool.suspect_shifts,
        pool.total_incidents - pool.suspect_incidents,
        pool.total_shifts - pool.suspect_shifts,
    )
