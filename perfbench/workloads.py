"""The four benchmark workloads: seeded inputs, one op, and its checks.

Every workload builds its whole op list from the benchmark's ``--seed``
(rosters, case-file JSON, Monte Carlo seeds and the op order) and hands the
package only those generated inputs. The op list is cycled if a run outlives
it. Ops that draw random sizes are generated in small blocks with one draw
per stratum of each size (a Latin hypercube), so every block, and therefore
every run, holds the same spread of sizes whatever the seed.

Each workload offers ``run(op)``, timed by ``run.py``, and ``check(op,
result)`` plus ``extra_checks(first)``, which run after the timed phase and
return a list of problems per op; an op with a problem counts as failed.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import rosterstat as rs
from rosterstat import cli, report

BLOCK = 65_536  # replicates per Monte Carlo block, as in rosterstat.risk_sim


@dataclass(frozen=True)
class Op:
    index: int
    label: str
    payload: object


def stratified(rng: random.Random, m: int) -> list[float]:
    """m uniforms on [0, 1), one per equal-width stratum, in random order."""
    values = [(i + rng.random()) / m for i in range(m)]
    rng.shuffle(values)
    return values


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# roster generation
# ---------------------------------------------------------------------------


def _ward(rng: random.Random, name: str, n: int, r: int, k: int,
          nurse_count: int | None = None) -> dict:
    """One ward whose suspect count sits 0-2.5 standard deviations high."""
    share = r / n
    sd = math.sqrt(k * share * (1 - share))
    x = round(k * share + rng.uniform(0.0, 2.5) * sd)
    x = min(max(x, max(0, k - (n - r))), min(r, k))
    ward = {"name": name, "total_shifts": n, "suspect_shifts": r,
            "total_incidents": k, "suspect_incidents": x}
    if nurse_count is not None:
        ward["nurse_count"] = nurse_count
    return ward


def _give_both_sides_an_incident(wards: list[dict]) -> None:
    """Pooled, the suspect and the other nurses each need one incident:
    the suspect's fitted rate and the exclude-suspect background rate must
    be positive for the likelihood ratio to exist."""
    first = wards[0]
    if sum(w["suspect_incidents"] for w in wards) == 0:
        first["suspect_incidents"] = 1
    if sum(w["total_incidents"] - w["suspect_incidents"] for w in wards) == 0:
        first["suspect_incidents"] -= 1


def paper_scale_cases(rng: random.Random, count: int, prefix: str) -> list[dict]:
    """Case documents with 2-4 wards, n in 200..1500 and k in 3..30.

    Cases come in blocks of three (2, 3 and 4 wards); n and k are
    stratified over the nine wards of a block.
    """
    docs = []
    while len(docs) < count:
        sizes = [2, 3, 4]
        rng.shuffle(sizes)
        u_n, u_k = stratified(rng, 9), stratified(rng, 9)
        for size in sizes:
            wards = []
            for j in range(size):
                n = 200 + int(u_n.pop() * 1301)
                r = max(1, round(n * rng.uniform(0.03, 0.2)))
                k = 3 + int(u_k.pop() * 28)
                wards.append(_ward(rng, f"W{j + 1}", n, r, k, rng.randint(10, 40)))
            _give_both_sides_an_incident(wards)
            evidence = [
                {"label": f"E{i + 1}", "lr": 10 ** rng.uniform(-1.0, 4.0),
                 "provenance": "generated"}
                for i in range(rng.randint(2, 5))
            ]
            docs.append({
                "case_name": f"{prefix}-{len(docs)}",
                "suspect": "nurse A",
                "variant": rng.choice(["original", "corrected"]),
                "wards": wards,
                "evidence": evidence,
            })
    return docs[:count]


def large_cases(rng: random.Random, count: int) -> list[dict]:
    """Case documents with 2-8 wards, n log-uniform in 10^3..10^5, k <= 4000.

    Cases come in blocks of seven (2 to 8 wards); n and the incident rate
    (0.5% to 5% of shifts) are stratified over the wards of each case, so a
    case's cost depends mostly on its ward count.
    """
    docs = []
    while len(docs) < count:
        sizes = list(range(2, 9))
        rng.shuffle(sizes)
        for size in sizes:
            u_n, u_q = stratified(rng, size), stratified(rng, size)
            wards = []
            for j in range(size):
                n = round(10 ** (3.0 + 2.0 * u_n.pop()))
                k = max(2, min(4000, round(n * 10 ** (-2.3 + u_q.pop()))))
                r = max(1, round(n * rng.uniform(0.02, 0.2)))
                wards.append(_ward(rng, f"L{j + 1}", n, r, k))
            _give_both_sides_an_incident(wards)
            docs.append({"case_name": f"large-{len(docs)}", "suspect": "nurse A",
                         "variant": "corrected", "wards": wards})
    return docs[:count]


def case_from_doc(doc: dict) -> rs.CaseFile:
    return rs.CaseFile(
        case_name=doc["case_name"],
        suspect=doc["suspect"],
        variant=doc["variant"],
        wards=tuple(rs.WardRoster(**w) for w in doc["wards"]),
        evidence=tuple(rs.EvidenceItem(**e) for e in doc.get("evidence", ())),
    )


def _pooled_counts(case: rs.CaseFile) -> tuple[int, int, int, int]:
    """(n, r, k, x) summed over all wards, computed without the package."""
    return tuple(sum(getattr(w, f) for w in case.wards) for f in
                 ("total_shifts", "suspect_shifts", "total_incidents",
                  "suspect_incidents"))


class _Problems(list):
    def expect(self, label: str, value: float, reference: float,
               rtol: float = 1e-9) -> None:
        from oracle import close

        if not close(value, reference, rtol):
            self.append(f"{label}: got {value!r}, reference {reference!r}")


def _check_tails(problems: _Problems, case: rs.CaseFile, out: dict) -> None:
    """Per-ward, pooled, convolved and conditional binomial tails."""
    import oracle

    for w, tail in zip(case.wards, out["tails"], strict=True):
        problems.expect(f"tail {w.name}", tail.p_value, oracle.hypergeom_tail(
            w.total_shifts, w.suspect_shifts, w.total_incidents, w.suspect_incidents))
    n, r, k, x = _pooled_counts(case)
    problems.expect("pooled", out["pooled"].p_value, oracle.hypergeom_tail(n, r, k, x))
    problems.expect("convolved", out["convolved"].p_value, oracle.convolved_tail(
        [(w.total_shifts, w.suspect_shifts, w.total_incidents) for w in case.wards], x))
    problems.expect("conditional binomial", out["binomial"].p_value,
                    oracle.binomial_tail(k, r / n, x))


# ---------------------------------------------------------------------------
# screen-small
# ---------------------------------------------------------------------------


def screen_analysis(case: rs.CaseFile, prior: float) -> dict:
    """The full exact analysis of one case, ending in a machine report."""
    names = [w.name for w in case.wards]
    tails = [rs.ward_tail_p(w) for w in case.wards]
    p_values = [t.p_value for t in tails]
    nurse_count = max(w.nurse_count for w in case.wards)
    out = {
        "tails": tails,
        "bonferroni": rs.bonferroni_min(p_values, nurse_count),
        "pooled": rs.pooled_test(case, names),
        "convolved": rs.convolved_sum_test(case, names),
        "fisher": rs.fisher_combine(p_values),
        "binomial": rs.conditional_binomial_test(case, names),
        "lr": {},
        "odds": {},
    }
    pool = rs.pool_wards(case, names)
    mu_l = rs.observed_rate(pool.suspect_incidents, pool.suspect_shifts)
    for basis in ("exclude_suspect", "include_suspect"):
        mu = rs.estimate_mu(case, basis, names)
        out["lr"][basis] = (mu, rs.lr_poisson(mu, mu_l, pool.suspect_shifts,
                                              pool.suspect_incidents))
    for convention, odds in (("shortcut", prior),
                             ("strict", rs.odds_from_probability(prior))):
        state = rs.OddsState(prior_odds=odds)
        for item in case.evidence:
            state = rs.update(state, item)
        out["odds"][convention] = (state, rs.posterior_probability(state))

    entries = [report.result_entry(t.components[0][0], t) for t in tails]
    entries += [report.result_entry(key, out[key]) for key in
                ("bonferroni", "pooled", "convolved", "fisher", "binomial")]
    entries += [report.result_entry(f"likelihood ratio, {basis}", lr, mu=mu, mu_L=mu_l)
                for basis, (mu, lr) in out["lr"].items()]
    entries += [report.result_entry(f"odds chain, {c}", s, posterior_probability=p)
                for c, (s, p) in out["odds"].items()]
    out["rendered"] = report.render_machine(report.build_report(case, "screen", entries))
    return out


class ScreenSmall:
    name = "screen-small"
    op_count = 510

    def __init__(self, seed: int, workdir: Path, nproc: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        docs = paper_scale_cases(rng, self.op_count, "screen")
        self.ops = [Op(i, doc["case_name"], (case_from_doc(doc), 10 ** rng.uniform(-6, -2)))
                    for i, doc in enumerate(docs)]
        self.warmup = self.ops[0]

    def run(self, op: Op) -> dict:
        return screen_analysis(*op.payload)

    def digest(self, result: dict) -> int:
        return hash(result["rendered"])

    def check(self, op: Op, out: dict) -> list[str]:
        import oracle

        case, prior = op.payload
        problems = _Problems()
        _check_tails(problems, case, out)
        p_values = [t.p_value for t in out["tails"]]
        nurse_count = max(w.nurse_count for w in case.wards)
        problems.expect("bonferroni", out["bonferroni"].p_value,
                        min(1.0, nurse_count * min(p_values)), 0.0)
        statistic = -2.0 * math.fsum(math.log(p) for p in p_values)
        problems.expect("fisher", out["fisher"].p_value,
                        oracle.chi2_survival(statistic, 2 * len(p_values)))
        n, r, k, x = _pooled_counts(case)
        for basis, (mu, lr) in out["lr"].items():
            num, den = (k, n) if basis == "include_suspect" else (k - x, n - r)
            problems.expect(f"mu {basis}", mu.mu, num / den, 0.0)
            problems.expect(f"likelihood ratio {basis}", lr.value,
                            oracle.poisson_lr(Fraction(num, den), Fraction(x, r), r, x), 1e-10)
        for convention, (state, probability) in out["odds"].items():
            prior_odds = prior if convention == "shortcut" else prior / (1.0 - prior)
            odds = oracle.odds_chain(prior_odds, [e.lr for e in case.evidence])
            problems.expect(f"odds {convention}", state.posterior_odds, odds, 1e-12)
            problems.expect(f"posterior {convention}", probability, odds / (1 + odds), 1e-12)
        rendered = [e["p_value"] for e in json.loads(out["rendered"])["results"]
                    if "p_value" in e]
        if rendered != p_values + [out[key].p_value for key in
                                   ("bonferroni", "pooled", "convolved", "fisher", "binomial")]:
            problems.append("rendered report disagrees with the computed p-values")
        return problems

    def extra_checks(self, first: dict[int, object]) -> dict[int, list[str]]:
        return {}

    def peak_rss_mb(self) -> float:
        return max_rss_mb()


# ---------------------------------------------------------------------------
# exact-large
# ---------------------------------------------------------------------------


class ExactLarge(ScreenSmall):
    name = "exact-large"
    op_count = 140

    def __init__(self, seed: int, workdir: Path, nproc: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = [Op(i, doc["case_name"], case_from_doc(doc))
                    for i, doc in enumerate(large_cases(rng, self.op_count))]
        self.warmup = self.ops[0]

    def run(self, op: Op) -> dict:
        case = op.payload
        names = [w.name for w in case.wards]
        return {
            "tails": [rs.ward_tail_p(w) for w in case.wards],
            "pooled": rs.pooled_test(case, names),
            "convolved": rs.convolved_sum_test(case, names),
            "binomial": rs.conditional_binomial_test(case, names),
        }

    def digest(self, result: dict) -> tuple:
        return (tuple(t.p_value for t in result["tails"]), result["pooled"].p_value,
                result["convolved"].p_value, result["binomial"].p_value)

    def check(self, op: Op, out: dict) -> list[str]:
        problems = _Problems()
        _check_tails(problems, op.payload, out)
        return problems


# ---------------------------------------------------------------------------
# mc-calibrate
# ---------------------------------------------------------------------------

PAPER_WARD_SETS = (("RKZ-41", "RKZ-42"), ("RKZ-41",), ("RKZ-42",))
BASES = ("exclude_suspect", "include_suspect")


def mc_case(rng: random.Random, index: int, nurse_count: int, per_nurse: float) -> dict:
    """One ward of nurse_count equal-shift nurses, the suspect running high."""
    r = rng.randint(20, 120)
    n = nurse_count * r + rng.randrange(max(1, r // 3))
    others = max(1, round(per_nurse * (nurse_count - 1) * rng.uniform(0.8, 1.2)))
    x = min(r, max(1, round(per_nurse + rng.uniform(1.0, 3.0) * math.sqrt(per_nurse))))
    ward = {"name": "ward", "total_shifts": n, "suspect_shifts": r,
            "total_incidents": others + x, "suspect_incidents": x}
    return {"case_name": f"mc-{index}", "suspect": "nurse A", "variant": "corrected",
            "wards": [ward]}


class McCalibrate:
    name = "mc-calibrate"
    # I and incidents per nurse of the generated rosters: fixed grids, so
    # that every seed runs the same block shapes, inversion-table lengths and
    # memory high-water mark; the seed draws the rest of each roster
    nurse_counts = (2, 3, 5, 8, 12, 18, 28, 44, 70, 112)
    per_nurse_means = (0.5, 3.0)
    identity_max_nurses = 12

    def __init__(self, seed: int, workdir: Path, nproc: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.nproc = nproc
        # every worker simulates three whole blocks
        self.replicates = 3 * BLOCK * nproc
        paper = rs.builtin_paper_case("corrected")
        specs = [(f"paper {'+'.join(w)} {b}", paper, list(w), b)
                 for w in PAPER_WARD_SETS for b in BASES]
        for index, nurse_count in enumerate(self.nurse_counts):
            per_nurse = self.per_nurse_means[index % len(self.per_nurse_means)]
            doc = mc_case(rng, index, nurse_count, per_nurse)
            specs.append((f"generated I={nurse_count} {doc['case_name']}",
                          case_from_doc(doc), ["ward"], rng.choice(BASES)))
        rng.shuffle(specs)
        self.ops = [Op(i, label, (case, wards, basis, rng.randrange(2 ** 63)))
                    for i, (label, case, wards, basis) in enumerate(specs)]
        # a fixed warm-up (whole RKZ, I = 11) keeps set-up comparable across seeds
        self.warmup = Op(-1, "warm-up", (paper, ["RKZ-41", "RKZ-42"], BASES[0], seed))

    def calibrate(self, op: Op, workers: int):
        case, wards, basis, mc_seed = op.payload
        threshold = rs.observed_threshold(case, wards)
        cfg = rs.derive_sim_config(case, wards, basis, replicates=self.replicates,
                                   seed=mc_seed)
        return rs.simulate_max_rr(cfg, threshold.value, workers=workers)

    def run(self, op: Op):
        return self.calibrate(op, self.nproc)

    def digest(self, sim) -> tuple[int, int]:
        return sim.exceed_count, sim.degenerate_count

    def check(self, op: Op, sim) -> list[str]:
        case, wards, basis, mc_seed = op.payload
        problems = _Problems()
        n, r, k, x = (sum(getattr(case.ward(w), f) for w in wards) for f in
                      ("total_shifts", "suspect_shifts", "total_incidents",
                       "suspect_incidents"))
        cfg = sim.config
        if (cfg.nurse_count, cfg.shifts_per_nurse, cfg.replicates, cfg.seed) != (
                round(n / r), r, self.replicates, mc_seed):
            problems.append(f"unexpected simulation config {cfg}")
        num, den = (k, n) if basis == "include_suspect" else (k - x, n - r)
        problems.expect("mu", cfg.mu, num / den, 0.0)
        problems.expect("threshold", sim.threshold, (x / r) / ((k - x) / (n - r)), 1e-15)
        if not 0 <= sim.exceed_count <= self.replicates:
            problems.append(f"exceed_count {sim.exceed_count} out of range")
        p = sim.exceed_count / self.replicates
        problems.expect("p_value", sim.p_value, p, 0.0)
        problems.expect("std_error", sim.std_error,
                        math.sqrt(p * (1 - p) / self.replicates), 1e-12)
        return problems

    def extra_checks(self, first: dict[int, object]) -> dict[int, list[str]]:
        """Worker-count identity on a subset, and one exact I <= 4 oracle."""
        problems: dict[int, list[str]] = {}
        subset = [i for i, sim in first.items()
                  if sim.config.nurse_count <= self.identity_max_nurses]
        subset += [i for i, sim in first.items()
                   if sim.config.nurse_count == 112][:1]
        for i in subset:
            single = self.calibrate(self.ops[i], workers=1)
            if self.digest(single) != self.digest(first[i]):
                problems.setdefault(i, []).append(
                    f"workers=1 gives {self.digest(single)}, workers={self.nproc} "
                    f"gives {self.digest(first[i])}")
        small = [i for i, sim in first.items() if sim.config.nurse_count <= 4]
        if small:
            i = min(small, key=lambda j: first[j].config.nurse_count)
            sim = first[i]
            cfg = sim.config
            exact = rs.exact_max_rr_tail(cfg.nurse_count, cfg.shifts_per_nurse, cfg.mu,
                                         sim.threshold, _count_cap(cfg.mu * cfg.shifts_per_nurse))
            tolerance = 4 * math.sqrt(exact * (1 - exact) / cfg.replicates)
            if abs(sim.p_value - exact) > tolerance:
                problems.setdefault(i, []).append(
                    f"Monte Carlo {sim.p_value!r} is more than 4 standard errors "
                    f"from the exact tail {exact!r}")
        return problems

    def speedup(self, latencies: dict[int, list[float]]) -> float:
        """workers=1 time over workers=nproc time, summed over the same ops."""
        single = parallel = 0.0
        for i, samples in latencies.items():
            start = time.perf_counter()
            self.calibrate(self.ops[i], workers=1)
            single += time.perf_counter() - start
            parallel += sorted(samples)[len(samples) // 2]
        return single / parallel

    def peak_rss_mb(self) -> float:
        return max_rss_mb()


def _count_cap(mean: float) -> int:
    """Smallest cap leaving Poisson(mean) mass below 1e-11 beyond it."""
    cap = math.ceil(mean)
    while True:
        mass = math.fsum(math.exp(-mean + j * math.log(mean) - math.lgamma(j + 1))
                         for j in range(cap + 1))
        if 1.0 - mass < 1e-11:
            return cap
        cap += 1


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

COUNT_FIELDS = ("total_shifts", "suspect_shifts", "total_incidents", "suspect_incidents")


def _invalid_documents(rng: random.Random, doc: dict) -> dict[str, str]:
    """One case file per rejection class that parse_case enforces."""
    def mutate(change) -> str:
        bad = copy.deepcopy(doc)
        change(bad)
        return json.dumps(bad)

    def set_ward(bad: dict, counts: tuple[int, int, int, int]) -> None:
        bad["wards"][0].update(zip(COUNT_FIELDS, counts))

    text = json.dumps(doc)
    wrong_type = rng.choice(["12", 12.5, True])
    return {
        "malformed JSON": text[: rng.randrange(1, len(text) - 1)],
        "top level not an object": json.dumps([doc]),
        "unknown top-level key": mutate(lambda d: d.update(comment="none")),
        "missing top-level key": mutate(lambda d: d.pop(rng.choice(
            ["case_name", "suspect", "variant", "wards"]))),
        "ward not an object": mutate(lambda d: d["wards"].__setitem__(0, 5)),
        "unknown ward key": mutate(lambda d: d["wards"][0].update(shift_hours=8)),
        "missing ward key": mutate(lambda d: d["wards"][0].pop(rng.choice(
            ["name", *COUNT_FIELDS]))),
        "count not an integer": mutate(lambda d: d["wards"][0].update(
            {rng.choice(COUNT_FIELDS): wrong_type})),
        "total_shifts not positive": mutate(lambda d: set_ward(d, (0, 0, 0, 0))),
        "negative count": mutate(lambda d: set_ward(d, (100, 5, -1, 0))),
        "suspect_shifts over total_shifts": mutate(lambda d: set_ward(d, (100, 101, 3, 1))),
        "total_incidents over total_shifts": mutate(lambda d: set_ward(d, (100, 5, 101, 1))),
        "suspect_incidents over total_incidents": mutate(lambda d: set_ward(d, (100, 50, 3, 4))),
        "suspect_incidents over suspect_shifts": mutate(lambda d: set_ward(d, (100, 2, 10, 5))),
        "other incidents over other shifts": mutate(lambda d: set_ward(d, (10, 8, 6, 1))),
        "nurse_count not positive": mutate(lambda d: d["wards"][0].update(nurse_count=0)),
        "evidence not an object": mutate(lambda d: d["evidence"].__setitem__(0, "E1")),
        "unknown evidence key": mutate(lambda d: d["evidence"][0].update(weight=1)),
        "evidence without lr": mutate(lambda d: d["evidence"][0].pop("lr")),
        "evidence lr not positive": mutate(lambda d: d["evidence"][0].update(lr=-2.0)),
        "unknown variant": mutate(lambda d: d.update(variant="draft")),
        "no wards": mutate(lambda d: d.update(wards=[])),
        "duplicate ward names": mutate(lambda d: d["wards"].append(dict(d["wards"][0]))),
    }


def _method_args(rng: random.Random, method: str) -> list[str]:
    if method == "elffers":
        return ["--jkz-multiplier", str(rng.randint(1, 40))]
    if method == "poisson-lr":
        return ["--mu-basis", rng.choice(["exclude-suspect", "include-suspect"])]
    if method == "relative-risk":
        return ["--mu-basis", rng.choice(["exclude-suspect", "include-suspect"]),
                "--seed", str(rng.randrange(2 ** 32))]
    if method == "bayes":
        return ["--prior", repr(10 ** rng.uniform(-6.0, -2.0))]
    return []


def _option(args: list[str], flag: str, default: str | None = None) -> str | None:
    return args[args.index(flag) + 1] if flag in args else default


def expected_values(args: list[str]) -> list[float]:
    """The numbers an ``analyze`` run must print, from direct library calls."""
    if "--builtin" in args:
        case = rs.builtin_paper_case(_option(args, "--builtin"))
    else:
        case = rs.parse_case(Path(_option(args, "--case")).read_text(encoding="utf-8"))
    method = _option(args, "--method")
    names = [w.name for w in case.wards]
    if "RKZ-41" in names and "RKZ-42" in names:
        names = ["RKZ-41", "RKZ-42"]
    tails = [rs.ward_tail_p(case.ward(name)).p_value for name in names]
    basis = _option(args, "--mu-basis", "exclude-suspect").replace("-", "_")
    if method == "elffers":
        return [rs.elffers_pipeline(case, int(_option(args, "--jkz-multiplier"))).p_value]
    if method == "per-ward":
        return tails
    if method == "bonferroni":
        single = len(names) == 1 and case.ward(names[0]).nurse_count
        return [rs.bonferroni_min(tails, single or len(tails)).p_value]
    if method == "pooled":
        return [rs.pooled_test(case, names).p_value]
    if method == "convolved":
        return [rs.convolved_sum_test(case, names).p_value]
    if method == "fisher":
        return [rs.fisher_combine(tails).p_value]
    if method == "poisson-lr":
        pool = rs.pool_wards(case, names)
        mu = rs.estimate_mu(case, basis, names)
        mu_l = rs.observed_rate(pool.suspect_incidents, pool.suspect_shifts)
        return [rs.lr_poisson(mu, mu_l, pool.suspect_shifts, pool.suspect_incidents).value]
    if method == "binomial-cond":
        return [rs.conditional_binomial_test(case, names).p_value]
    if method == "bayes":
        prior = float(_option(args, "--prior"))
        values = []
        for odds in (prior, rs.odds_from_probability(prior)):
            state = rs.OddsState(prior_odds=odds)
            for item in case.evidence:
                state = rs.update(state, item)
            values.append(state.posterior_odds)
        return values
    threshold = rs.observed_threshold(case, names)
    cfg = rs.derive_sim_config(case, names, basis, seed=int(_option(args, "--seed")))
    return [threshold.value, rs.simulate_max_rr(cfg, threshold.value).p_value]


def reported_values(stdout: str, machine: bool) -> list[float]:
    """The headline number of each result entry, from either output form."""
    if machine:
        values = []
        for entry in json.loads(stdout)["results"]:
            if "p_value" in entry:
                values.append(entry["p_value"])
            elif "LikelihoodRatio" in entry:
                values.append(entry["LikelihoodRatio"]["value"])
            elif "OddsState" in entry:
                values.append(entry["OddsState"]["posterior_odds"])
            elif "RelativeRisk" in entry:
                values.append(entry["RelativeRisk"]["value"])
            else:
                values.append(entry["SimulationReport"]["p_value"])
        return values
    keys = {"p_value: ": None, "LikelihoodRatio: {value: ": ",",
            "OddsState: {": "posterior_odds: ", "RelativeRisk: {value: ": ",",
            "SimulationReport: {": "p_value: "}
    values = []
    for line in stdout.splitlines():
        body = line.removeprefix("    ")
        for key, marker in keys.items():
            if body.startswith(key):
                rest = body[len(key):]
                if marker is None:
                    values.append(float(rest))
                elif marker == ",":
                    values.append(float(rest.split(",")[0]))
                else:
                    values.append(float(rest.rsplit(marker, 1)[1].split(",")[0].rstrip("}")))
    return values


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


class CliSession:
    name = "cli-session"

    def __init__(self, seed: int, workdir: Path, nproc: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.tracer = None
        self.peak_kb = 0
        self._spans_file = workdir / "child-spans.jsonl"
        case_paths = []
        docs = paper_scale_cases(rng, 4, "cli")
        for doc in docs:
            path = workdir / f"{doc['case_name']}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            case_paths.append(str(path))
        invalid_paths = []
        for i, (label, text) in enumerate(_invalid_documents(rng, docs[0]).items()):
            path = workdir / f"invalid-{i}.json"
            path.write_text(text, encoding="utf-8")
            invalid_paths.append((label, str(path)))

        ops: list[tuple[str, list[str]]] = []
        for method in cli.METHODS:
            outputs = ["text", "machine"]
            rng.shuffle(outputs)
            sources = (["--builtin", rng.choice(["original", "corrected"])],
                       ["--case", rng.choice(case_paths)])
            for source, output in zip(sources, outputs):
                ops.append((f"analyze {method} {source[0][2:]} {output}",
                            ["analyze", *source, "--method", method,
                             "--output", output, *_method_args(rng, method)]))
        # relative-risk is the slowest analyze method; four more builtin runs of
        # it make the slowest tenth of ops one kind of op, so op_p90_ms
        # measures that kind instead of whichever quick op ran slowest
        for variant in ("original", "corrected"):
            for basis in ("exclude-suspect", "include-suspect"):
                output = rng.choice(["text", "machine"])
                ops.append((f"analyze relative-risk builtin {output}",
                            ["analyze", "--builtin", variant, "--method", "relative-risk",
                             "--output", output, "--mu-basis", basis,
                             "--seed", str(rng.randrange(2 ** 32))]))
        for label, path in invalid_paths:
            method = rng.choice(cli.METHODS)
            ops.append((f"invalid: {label}",
                        ["analyze", "--case", path, "--method", method,
                         "--output", rng.choice(["text", "machine"]),
                         *_method_args(rng, method)]))
        rng.shuffle(ops)
        # one reproduce-paper per pass, mid-list so that every run reaches it
        ops.insert(len(ops) // 2, ("reproduce-paper", ["reproduce-paper", "--output", "machine"]))
        self.ops = [Op(i, label, args) for i, (label, args) in enumerate(ops)]
        self.warmup = Op(-1, "warm-up", ["analyze", "--builtin", "corrected",
                                         "--method", "pooled"])
        self._expected_repro = None

    def run(self, op: Op) -> CliRun:
        if self.tracer is None:
            argv = [sys.executable, "-m", "rosterstat.cli", *op.payload]
            env = self.env
        else:
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")), *op.payload]
            env = dict(self.env, PERFBENCH_SPANS=str(self._spans_file))
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.root)
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.adopt_file(str(self._spans_file))
        return CliRun(child.returncode, out_path.read_text(encoding="utf-8"),
                      err_path.read_text(encoding="utf-8"))

    def digest(self, result: CliRun) -> tuple[int, int]:
        return result.code, hash(result.stdout)

    def check(self, op: Op, result: CliRun) -> list[str]:
        args = op.payload
        if op.label.startswith("invalid"):
            if result.code != 2 or result.stdout or not result.stderr.startswith("rosterstat: "):
                return [f"exit {result.code}, stderr {result.stderr!r}; "
                        "a rejected case file must exit 2 with a message"]
            return []
        if args[0] == "reproduce-paper":
            return self._check_reproduce(result)
        if result.code != 0:
            return [f"exit {result.code}: {result.stderr.strip()}"]
        try:
            got = reported_values(result.stdout, "machine" in args)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output ({exc!r})"]
        want = expected_values(args)
        if got != want:
            return [f"printed {got}, library gives {want}"]
        return []

    def _check_reproduce(self, result: CliRun) -> list[str]:
        if self._expected_repro is None:
            self._expected_repro = [asdict(row) for row in report.reproduce_paper()]
        rows = json.loads(result.stdout)["results"]
        failing = [row["label"] for row in rows if not row["passed"]]
        problems = []
        if result.code != 1 or failing != ["pooled RKZ tail"]:
            problems.append(f"exit {result.code} with failing rows {failing}; expected "
                            "exit 1 and only the pooled 0.0038 row failing")
        if rows != self._expected_repro:
            problems.append("reproduce-paper rows differ from the in-process values")
        return problems

    def extra_checks(self, first: dict[int, object]) -> dict[int, list[str]]:
        return {}

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


WORKLOADS = {w.name: w for w in (ScreenSmall, ExactLarge, McCalibrate, CliSession)}
