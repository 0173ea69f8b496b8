import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosterstat import risk_sim
from rosterstat.case import builtin_paper_case
from rosterstat.distributions import poisson_dist
from rosterstat.risk_sim import (
    SimulationConfig,
    derive_sim_config,
    exact_max_rr_tail,
    observed_threshold,
    relative_risk,
    simulate_max_rr,
)

RKZ = ["RKZ-41", "RKZ-42"]
SRC = Path(__file__).resolve().parents[1] / "src"


class TestRelativeRisk:
    def test_published_rkz_value(self):
        rr = relative_risk(6, 61, 13, 614)
        assert rr.value == pytest.approx(4.65, abs=0.01)

    def test_equal_rates(self):
        assert relative_risk(2, 10, 4, 20).value == pytest.approx(1.0, abs=0)

    def test_rkz41_corrected_counts(self):
        assert relative_risk(1, 3, 4, 333).value == pytest.approx(27.75, rel=1e-12, abs=0)

    def test_infinite_when_others_quiet(self):
        assert relative_risk(2, 10, 0, 50).value == math.inf

    def test_one_when_no_incidents_at_all(self):
        assert relative_risk(0, 10, 0, 50).value == 1.0

    def test_zero_shifts_rejected(self):
        with pytest.raises(ValueError):
            relative_risk(1, 0, 1, 10)
        with pytest.raises(ValueError):
            relative_risk(1, 10, 1, 0)


class TestDeriveSimConfig:
    def test_whole_rkz(self):
        cfg = derive_sim_config(builtin_paper_case("corrected"), RKZ,
                                "exclude_suspect")
        assert (cfg.nurse_count, cfg.shifts_per_nurse) == (11, 61)
        assert cfg.mu == pytest.approx(13 / 614, abs=0)

    def test_rkz41(self):
        cfg = derive_sim_config(builtin_paper_case("corrected"), ["RKZ-41"],
                                "exclude_suspect")
        assert (cfg.nurse_count, cfg.shifts_per_nurse) == (112, 3)
        assert cfg.mu == pytest.approx(4 / 333, abs=0)

    def test_rkz42(self):
        cfg = derive_sim_config(builtin_paper_case("corrected"), ["RKZ-42"],
                                "include_suspect")
        assert (cfg.nurse_count, cfg.shifts_per_nurse) == (6, 58)
        assert cfg.mu == pytest.approx(14 / 339, abs=0)

    def test_zero_suspect_shifts_rejected(self):
        from rosterstat.case import CaseFile, WardRoster

        case = CaseFile("t", "s", (WardRoster("A", 30, 0, 3, 0),))
        with pytest.raises(ValueError, match=r"^A: the suspect has no shifts, n/r = 30/0$"):
            derive_sim_config(case, ["A"], "include_suspect")

    def test_nurse_count_over_the_bound_rejected_before_any_draw(self):
        from rosterstat.case import CaseFile, WardRoster

        # I = n/r = 10**9: one replicate would need about 18 GB
        case = CaseFile("t", "s", (WardRoster("A", 10**9, 1, 10, 1),
                                   WardRoster("B", 10, 0, 0, 0)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^A\+B: n/r = 1000000010/1 rounds to "
                                                 r"I = 1000000010; the calibration needs"):
                derive_sim_config(case, ["A", "B"], "include_suspect")
            with pytest.raises(ValueError, match=r"^nurse_count 1000001 is above 10\*\*6$"):
                SimulationConfig(nurse_count=10**6 + 1, shifts_per_nurse=1, mu=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        SimulationConfig(nurse_count=10**6, shifts_per_nurse=1, mu=1.0)


class TestSimulateMaxRr:
    def test_threshold_zero_gives_one(self):
        cfg = SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=0.02,
                               replicates=2000, seed=1)
        report = simulate_max_rr(cfg, 0.0)
        assert report.p_value == 1.0

    def test_nonincreasing_in_threshold(self):
        cfg = SimulationConfig(nurse_count=7, shifts_per_nurse=20, mu=0.05,
                               replicates=20_000, seed=3)
        values = [simulate_max_rr(cfg, t).p_value for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bit_identical_across_worker_counts(self, monkeypatch):
        # eight cores, so three and eight workers start pools of two and seven
        monkeypatch.setattr(risk_sim.os, "cpu_count", lambda: 8)
        cfg = SimulationConfig(nurse_count=11, shifts_per_nurse=61, mu=13 / 614,
                               replicates=30_000, seed=99)
        reports = [simulate_max_rr(cfg, 4.65, workers=w) for w in (1, 2, 3, 8)]
        assert all(report == reports[0] for report in reports)

    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(nurse_count=6, shifts_per_nurse=58, mu=9 / 281,
                               replicates=10_000, seed=7)
        assert simulate_max_rr(cfg, 2.69) == simulate_max_rr(cfg, 2.69)
        other = SimulationConfig(nurse_count=6, shifts_per_nurse=58, mu=9 / 281,
                                 replicates=10_000, seed=8)
        assert simulate_max_rr(cfg, 2.69) != simulate_max_rr(other, 2.69)

    def test_degenerate_replicates_counted(self):
        # tiny intensity: most replicates have no incidents at all
        cfg = SimulationConfig(nurse_count=3, shifts_per_nurse=2, mu=0.001,
                               replicates=5000, seed=11)
        report = simulate_max_rr(cfg, 2.0)
        assert report.degenerate_count > 4000
        # degenerate replicates (all risks = 1) never exceed a threshold > 1
        assert report.exceed_count <= report.config.replicates - report.degenerate_count

    def test_degenerate_exceed_at_low_threshold(self):
        cfg = SimulationConfig(nurse_count=3, shifts_per_nurse=2, mu=0.001,
                               replicates=5000, seed=11)
        report = simulate_max_rr(cfg, 1.0)
        assert report.exceed_count >= report.degenerate_count

    def test_std_error_formula(self):
        cfg = SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=0.05,
                               replicates=4000, seed=5)
        report = simulate_max_rr(cfg, 2.0)
        p = report.p_value
        assert report.std_error == pytest.approx(math.sqrt(p * (1 - p) / 4000), abs=0)

    def test_negative_threshold_rejected(self):
        cfg = SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=0.05,
                               replicates=100, seed=5)
        with pytest.raises(ValueError):
            simulate_max_rr(cfg, -1.0)

    def test_nan_threshold_rejected(self):
        cfg = SimulationConfig(3, 1, 1.0, replicates=1000)
        with pytest.raises(ValueError, match="threshold must be non-negative, got nan"):
            simulate_max_rr(cfg, math.nan)
        with pytest.raises(ValueError, match="threshold must be non-negative, got nan"):
            exact_max_rr_tail(3, 1, 1.0, math.nan, count_cap=30)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0])
    def test_mu_must_be_positive_and_finite(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=mu)

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (7, 7), (None, 1)])
    def test_thread_count_capped_at_cores(self, monkeypatch, cpus, expected):
        # a serial stand-in for the pool, so no real threads are started; the
        # calling thread runs one range, so the pool has one worker fewer and
        # a one-thread run has none
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg = SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=0.05,
                               replicates=3000, seed=5)
        serial = simulate_max_rr(cfg, 2.0, workers=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(risk_sim.os, "cpu_count", lambda: cpus)
        assert simulate_max_rr(cfg, 2.0, workers=1000) == serial
        assert seen == ([expected - 1] if expected > 1 else [])

    def test_one_worker_starts_no_thread(self, monkeypatch):
        cfg = SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=0.05,
                               replicates=3000, seed=5)

        def refuse(self):
            raise AssertionError(f"thread {self.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        simulate_max_rr(cfg, 2.0, workers=1)

    def test_one_worker_run_leaves_concurrent_futures_unloaded(self):
        script = (
            "import sys\n"
            "from rosterstat.risk_sim import SimulationConfig, simulate_max_rr\n"
            "simulate_max_rr(SimulationConfig(5, 10, 0.05, replicates=3000), 2.0)\n"
            "assert 'concurrent.futures' not in sys.modules, 'pool module loaded'\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=60)
        assert done.returncode == 0, done.stderr


def _reference_table(mean):
    """The inversion table as first written, with its own Poisson terms.

    None where its float sum stalls short of 1 - 1e-15 and the loop runs
    into its 10,000-term guard.
    """
    cdf = []
    total = 0.0
    k = 0
    while total < 1.0 - 1e-15:
        total += math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
        cdf.append(total)
        k += 1
        if k > 10_000:
            return None
    return cdf


class TestPoissonInversionTable:
    # 0.1 ... 15.0, where the old sum first stalls at 8.0, and some large means
    MEANS = [i / 10 for i in range(1, 151)] + [50.0, 100.0, 500.0, 2000.0, 9000.0]

    def test_table_is_monotone_and_covers_the_mass(self):
        for mean in self.MEANS:
            _, table = risk_sim._poisson_inversion_table(mean)
            assert (np.diff(table) >= 0).all(), mean
            assert table[-1] >= 1.0 - 1e-12, mean
            # cut at the first entry equal to the full sum
            assert (table[:-1] < table[-1]).all(), mean

    def test_uniforms_map_to_the_former_loops_counts(self):
        uniforms = np.random.default_rng(2024).random(100_000)
        stalled = []
        for mean in self.MEANS:
            reference = _reference_table(mean)
            if reference is None:
                stalled.append(mean)
                continue
            first, table = risk_sim._poisson_inversion_table(mean)
            got = first + np.searchsorted(table, uniforms, side="right")
            expected = np.searchsorted(reference, uniforms, side="right")
            assert (got == expected).all(), mean
        assert {8.0, 9.7, 10.3, 11.2, 12.6} <= set(stalled)

    def test_window_past_zero_offsets_the_counts(self, monkeypatch):
        # at a mean of 5,000 the window starts at count 1,371, not at 0
        first, table = risk_sim._poisson_inversion_table(5000.0)
        assert first == poisson_dist(5000.0).support_min == 1371
        cfg = SimulationConfig(nurse_count=3, shifts_per_nurse=1000, mu=5.0,
                               replicates=4000, seed=21)
        report = simulate_max_rr(cfg, 1.04)
        assert 0 < report.exceed_count < cfg.replicates
        # the same table padded with zero mass down to count 0 gives the same draws
        padded = (0, np.concatenate([np.zeros(first), table]))
        monkeypatch.setattr(risk_sim, "_poisson_inversion_table", lambda mean: padded)
        assert simulate_max_rr(cfg, 1.04) == report

    def test_mean_over_the_bound_rejected(self):
        SimulationConfig(nurse_count=2, shifts_per_nurse=10**6, mu=1.0)
        with pytest.raises(ValueError, match=r"^per-nurse Poisson mean 1000002.0 is above"):
            SimulationConfig(nurse_count=2, shifts_per_nurse=10**6 + 2, mu=1.0)


class TestBucketInversion:
    # 10**-3 ... 10**6, seven means a decade
    MEANS = [10 ** (e / 7) for e in range(-21, 43)]

    def test_counts_equal_the_binary_search(self):
        rng = np.random.default_rng(19)
        for mean in self.MEANS:
            _, cdf = risk_sim._poisson_inversion_table(mean)
            # every entry a uniform can equal, the float just below it, and
            # both ends of [0, 1)
            entries = cdf[cdf < 1.0]
            uniforms = np.concatenate([rng.random(50_000), entries,
                                       np.nextafter(entries, 0.0), [0.0, 1.0 - 2.0**-53]])
            scaled, table = risk_sim._bucket_table(cdf)
            counts = risk_sim._invert(scaled, table, uniforms * risk_sim._BUCKETS)
            np.testing.assert_array_equal(
                counts, np.searchsorted(cdf, uniforms, side="right"), err_msg=str(mean))

    def test_table_dtype_holds_the_search_marker(self):
        for mean, dtype in [(0.036, np.uint8), (10.0**6, np.uint16)]:
            _, cdf = risk_sim._poisson_inversion_table(mean)
            _, table = risk_sim._bucket_table(cdf)
            assert table.dtype == dtype
            assert table.max() == len(cdf) + 1


def _count_cap(mean):
    """The least count_cap that exact_max_rr_tail's 1e-10 mass check accepts."""
    dist = poisson_dist(mean)
    pmf = [0.0] * dist.support_min + list(dist.probabilities)
    return next(cap for cap in range(len(pmf)) if 1.0 - math.fsum(pmf[:cap + 1]) < 1e-10)


def _brute_max_rr_tail(I, r, mu, threshold, count_cap):
    """The oracle: the same truncated sum, over every count vector in turn."""
    dist = poisson_dist(mu * r)
    lo, probs = dist.support_min, dist.probabilities
    pmf = [probs[k - lo] if 0 <= k - lo < len(probs) else 0.0 for k in range(count_cap + 1)]
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


class TestExactOracle:
    def test_threshold_zero(self):
        assert exact_max_rr_tail(3, 5, 0.1, 0.0, count_cap=25) == 1.0

    def test_tiny_intensity_first_order(self):
        # with almost no incidents, exceedance above any large finite
        # threshold comes from the +infinity cases; to first order that is
        # 2 * P(X > 0) * P(X = 0) for two nurses
        mean = 0.005
        got = exact_max_rr_tail(2, 1, mean, 1e9, count_cap=20)
        first_order = 2 * (1 - math.exp(-mean)) * math.exp(-mean)
        assert got == pytest.approx(first_order, rel=1e-2)

    def test_enumeration_value_is_stable(self):
        value = exact_max_rr_tail(3, 1, 1.0, 1.0, count_cap=30)
        # threshold 1: exceed unless... every nonzero configuration has a
        # max with rr >= 1 or equals it; all-zero counts as rr = 1 >= 1
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_against_hand_summation_small(self):
        # I=2, threshold 3: max rr = max/(S-max); exceed iff max >= 3*(S-max),
        # plus the all-mine and all-zero(with thr>1: no) conventions
        mean = 0.7
        cap = 25

        def pois(k):
            return math.exp(-mean) * mean**k / math.factorial(k)

        brute = 0.0
        for a in range(cap + 1):
            for b in range(cap + 1):
                total, biggest = a + b, max(a, b)
                if total == 0:
                    hit = False  # rr = 1 < 3
                elif biggest == total:
                    hit = True
                else:
                    hit = biggest >= 3 * (total - biggest)
                if hit:
                    brute += pois(a) * pois(b)
        assert exact_max_rr_tail(2, 1, mean, 3.0, count_cap=cap) == pytest.approx(
            brute, rel=1e-12, abs=0)

    def test_truncation_bound_enforced(self):
        with pytest.raises(ValueError, match="mass"):
            exact_max_rr_tail(3, 10, 0.5, 1.0, count_cap=3)

    @pytest.mark.parametrize("I", [1, 10**6 + 1])
    def test_nurse_count_outside_the_simulator_range_rejected(self, I):
        with pytest.raises(ValueError, match=rf"needs 2 <= I <= 10\*\*6, got {I}$"):
            exact_max_rr_tail(I, 1, 0.5, 1.0, count_cap=25)

    def test_past_the_work_bound_refused_at_once(self):
        # 5.1e12 work units: 5 to 30 minutes of convolutions if it were run
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"I = 100000, count_cap = 12 and threshold"
                                             r" 3\.0 needs 5\.\d\de\+12 work units, above 3e\+09$"):
            exact_max_rr_tail(10**5, 1, 1.0, 3.0, count_cap=_count_cap(1.0))
        assert time.perf_counter() - start < 0.1

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(I=st.sampled_from([2, 3, 4]), r=st.sampled_from([1, 2]),
           mu=st.sampled_from([0.004, 0.3, 0.7, 1.0, 1.25]),
           threshold=st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.6456, math.inf]),
                               st.floats(0.0, 40.0)))
    def test_equals_brute_enumeration(self, I, r, mu, threshold):
        cap = _count_cap(mu * r)
        exact = exact_max_rr_tail(I, r, mu, threshold, cap)
        assert abs(exact - _brute_max_rr_tail(I, r, mu, threshold, cap)) <= 1e-15


def _reference_exceeds(max_counts, totals, I, threshold):
    """The exceedance rule as first written: one masked assignment per case."""
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


class TestExceedanceRule:
    def test_flags_equal_the_masked_rule(self):
        rng = np.random.default_rng(18)
        for _ in range(600):
            I = int(rng.integers(2, 13))
            # small means give all-zero and one-nurse replicates, large ones ties
            counts = rng.poisson(rng.choice([0.05, 0.5, 2.0, 20.0]), size=(40, I))
            max_counts, totals = counts.max(axis=1), counts.sum(axis=1)
            for threshold in (0.0, 0.5, 1.0, 1.5, 4.6456, 40.0, math.inf,
                              float(rng.uniform(0, 10))):
                np.testing.assert_array_equal(
                    risk_sim._exceeds(max_counts, totals, I, threshold),
                    _reference_exceeds(max_counts, totals, I, threshold))


# seed 0, 100,000 replicates: the six Monte Carlo rows of reproduce-paper
PAPER_ROWS = [
    (RKZ, "exclude_suspect", 10782, 0),
    (RKZ, "include_suspect", 4110, 0),
    (["RKZ-41"], "exclude_suspect", 79880, 1717),
    (["RKZ-41"], "include_suspect", 67830, 660),
    (["RKZ-42"], "exclude_suspect", 39057, 0),
    (["RKZ-42"], "include_suspect", 28876, 0),
]


def _paper_run(wards, basis, replicates=100_000):
    case = builtin_paper_case("corrected")
    cfg = derive_sim_config(case, wards, basis, replicates=replicates, seed=0)
    return cfg, observed_threshold(case, wards).value


class TestPaperCounts:
    @pytest.mark.parametrize("wards,basis,exceed,degenerate", PAPER_ROWS)
    def test_counts_are_pinned(self, wards, basis, exceed, degenerate):
        report = simulate_max_rr(*_paper_run(wards, basis))
        assert (report.exceed_count, report.degenerate_count) == (exceed, degenerate)

    # 37 rows divides neither the range nor its parts; 0 is a budget below
    # one replicate, which is then simulated alone
    @pytest.mark.parametrize("rows", [37, 0])
    @pytest.mark.parametrize("wards,basis", [(RKZ, "include_suspect"),
                                             (["RKZ-41"], "exclude_suspect")])
    def test_counts_do_not_depend_on_block_size(self, monkeypatch, wards, basis, rows):
        cfg, threshold = _paper_run(wards, basis, replicates=20_011)
        default = simulate_max_rr(cfg, threshold)
        stride = 4 * math.ceil(cfg.nurse_count / 4)
        # uniforms; then per nurse a bucket index, a uint8 count and a mask byte
        monkeypatch.setattr(risk_sim, "_BLOCK_BYTES",
                            rows * (8 * stride + 10 * cfg.nurse_count) + 5)
        for workers in (1, 2, 8):
            assert simulate_max_rr(cfg, threshold, workers=workers) == default


class TestPaperExactTails:
    # an independent mpmath evaluation of the conditioning sum gives these
    # tails to 5 decimals
    @pytest.mark.parametrize("wards,basis,figure", [
        (RKZ, "exclude_suspect", 0.10729),
        (RKZ, "include_suspect", 0.03999),
        (["RKZ-41"], "exclude_suspect", 0.79874),
        (["RKZ-41"], "include_suspect", 0.67729),
        (["RKZ-42"], "exclude_suspect", 0.38958),
        (["RKZ-42"], "include_suspect", 0.28939),
    ])
    def test_simulation_within_four_standard_errors(self, wards, basis, figure):
        cfg, threshold = _paper_run(wards, basis)
        exact = exact_max_rr_tail(cfg.nurse_count, cfg.shifts_per_nurse, cfg.mu, threshold,
                                  _count_cap(cfg.mu * cfg.shifts_per_nurse))
        assert exact == pytest.approx(figure, rel=0, abs=5e-6)
        sim = simulate_max_rr(cfg, threshold)
        assert abs(sim.p_value - exact) <= 4 * math.sqrt(exact * (1 - exact) / cfg.replicates)


class TestBlockMemory:
    # at I = 11 and 6 the stride is 12 and 8, so the uniforms are scaled in
    # place through a strided view
    @pytest.mark.parametrize("wards,I", [(["RKZ-41"], 112), (RKZ, 11), (["RKZ-42"], 6)])
    def test_traced_peak_stays_within_the_budget(self, wards, I):
        cfg, threshold = _paper_run(wards, "exclude_suspect")
        assert cfg.nurse_count == I
        # a process's first run imports numpy.random (about 0.7 MiB traced);
        # a one-replicate run loads it before tracing starts
        simulate_max_rr(dataclasses.replace(cfg, replicates=1), threshold)
        tracemalloc.start()
        try:
            simulate_max_rr(cfg, threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * risk_sim._BLOCK_BYTES

    def test_worker_count_does_not_size_the_partition(self):
        # the pool is capped at the core count, so few threads start
        cfg = SimulationConfig(nurse_count=5, shifts_per_nurse=10, mu=0.05,
                               replicates=2000, seed=5)
        serial = simulate_max_rr(cfg, 2.0)
        tracemalloc.start()
        try:
            report = simulate_max_rr(cfg, 2.0, workers=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report == serial

    def test_replicate_over_the_budget_is_simulated_alone(self):
        # I = 300,000: one replicate needs over 4.8 MB, over the 512 KiB budget
        cfg = SimulationConfig(nurse_count=300_000, shifts_per_nurse=1, mu=1e-5,
                               replicates=4, seed=3)
        replicate_bytes = 8 * (cfg.nurse_count + cfg.nurse_count)
        assert replicate_bytes > risk_sim._BLOCK_BYTES
        tracemalloc.start()
        try:
            report = simulate_max_rr(cfg, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * replicate_bytes
        assert report.exceed_count + report.degenerate_count > 0


class TestSimulationMatchesOracle:
    @pytest.mark.parametrize("I,mean_per_shift,threshold", [
        (2, 0.5, 2.0),
        (3, 1.0, 1.5),
        (3, 2.0, 3.0),
    ])
    def test_within_four_standard_errors(self, I, mean_per_shift, threshold):
        cfg = SimulationConfig(nurse_count=I, shifts_per_nurse=1,
                               mu=mean_per_shift, replicates=100_000, seed=13)
        sim = simulate_max_rr(cfg, threshold)
        exact = exact_max_rr_tail(I, 1, mean_per_shift, threshold, count_cap=40)
        se = max(sim.std_error, math.sqrt(exact * (1 - exact) / cfg.replicates))
        assert abs(sim.p_value - exact) <= 4 * se


class TestObservedThreshold:
    def test_whole_rkz(self):
        rr = observed_threshold(builtin_paper_case("corrected"), RKZ)
        assert rr.value == pytest.approx(4.6456, abs=1e-3)

    def test_rkz41(self):
        rr = observed_threshold(builtin_paper_case("corrected"), ["RKZ-41"])
        assert rr.value == pytest.approx(27.75, rel=1e-12, abs=0)

    @pytest.mark.parametrize("r_a,r_b", [(40, 10), (0, 0)])
    def test_suspect_with_every_shift_or_none_rejected(self, r_a, r_b):
        from rosterstat.case import CaseFile, WardRoster

        case = CaseFile("t", "s", (WardRoster("A", 40, r_a, 0, 0),
                                   WardRoster("B", 10, r_b, 0, 0)))
        with pytest.raises(ValueError, match=rf"^A\+B: n/r = 50/{r_a + r_b}; the relative"
                                             " risk needs shifts for both"):
            observed_threshold(case, ["A", "B"])
