"""Analysis methods, report assembly and the built-in reproduction suite.

Every rendered result carries its method identifier, the data variant it
was computed on, and a caveat block stating the conditioning assumptions,
so no number can be quoted without its model scope. run_method computes
each analysis method; ``analyze`` and the reproduction suite both call it.
A report is a plain dict that holds the frozen result objects themselves;
each renderer reads them in one walk, a dataclass as its fields (their
names are read once per class). Machine output is written by that walk
directly, byte-equal to ``json.dumps(indent=2, allow_nan=False)``, with
``math.inf`` spelt "Infinity": a list, tuple or dict is told by its exact
type, and its ``str`` and finite ``float`` children are written in place,
without a call per leaf; every rarer kind (None, bools, ints, subclasses,
NaN, infinities, dataclasses) goes through one fallback that tests kinds in
json's order and raises json's errors.
The reproduction suite recomputes each published figure from the built-in
case and marks a row pass/fail against its stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from rosterstat import bayes, frequentist, poisson_model
from rosterstat.case import (
    JKZ,
    RKZ_41,
    RKZ_42,
    CaseFile,
    builtin_paper_case,
    named_wards,
    pool_wards,
)

GENERAL_CAVEATS = (
    "All conditional tests are computed given the observed totals of shifts "
    "and incidents; they measure association, not causation. Their validity "
    "rests on auxiliary assumptions (constant incident probability across "
    "shift types and time, independence between shifts, random assignment "
    "of nurses to shifts) that the data cannot confirm."
)


# Each dataclass's field names, in declaration order, read once per class.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _fields(obj: Any) -> dict[str, Any]:
    """A dataclass instance's (or class's) fields in declaration order, not copied."""
    cls = obj if isinstance(obj, type) else type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return {name: getattr(obj, name) for name in names}


def result_entry(label: str, result: Any, **extra: Any) -> dict:
    """A labelled result and its extra fields, as one report entry.

    A TestResult's fields go at the top level, followed by is_p_value; any
    other result sits under its class name. Nothing is copied: the entry
    holds the result objects, which the renderers read as their fields.
    """
    entry: dict[str, Any] = {"label": label}
    if isinstance(result, frequentist.TestResult):
        entry.update(_fields(result))
        entry["is_p_value"] = result.is_p_value
    else:
        entry[type(result).__name__] = result
    entry.update(extra)
    return entry


METHOD_CAVEATS = {
    "elffers": frequentist.NOT_A_P_VALUE,
    "bayes": bayes.INDEPENDENCE_NOTE,
}


def _parse_mu_basis(spec: str) -> tuple[str, float | None]:
    if spec.startswith("fixed="):
        try:
            value = float(spec.split("=", 1)[1])
        except ValueError:
            value = math.nan
        if math.isfinite(value) and value > 0:
            return "fixed", value
    elif spec.replace("-", "_") in ("exclude_suspect", "include_suspect"):
        return spec.replace("-", "_"), None
    raise SystemExit(
        f"rosterstat: unknown --mu-basis {spec!r}; expected exclude-suspect, "
        "include-suspect or fixed=<finite positive number>"
    )


def run_method(
    case: CaseFile,
    method: str,
    names: list[str],
    *,
    jkz_multiplier: int | None = None,
    mu_basis: str = "exclude-suspect",
    prior: float = 1e-5,
    seed: int = 0,
    replicates: int = 100_000,
    workers: int = 1,
) -> list[tuple[str, Any, dict]]:
    """Run one analysis method over the named wards of a case.

    Returns (label, result, extra fields) triples in report order; pass each
    to result_entry. The defaults are those of ``rosterstat analyze``.
    mu_basis is 'exclude-suspect', 'include-suspect' or 'fixed=<value>' and
    is parsed only by the methods that read it. The choices the package
    never defaults, a JKZ multiplier for 'elffers' and an evidence array for
    'bayes', end the program with a message when missing. Every method checks
    the ward list first, through case.named_wards.
    """
    wards = named_wards(case, names)
    if method == "elffers":
        if jkz_multiplier is None:
            raise SystemExit(
                "rosterstat: --method elffers requires --jkz-multiplier; the "
                "correction level is a subjective choice and is never defaulted"
            )
        outcome = frequentist.elffers_pipeline(case, jkz_multiplier)
        return [("multiplied per-ward tails", outcome, {})]
    if method == "per-ward":
        return [(w.name, frequentist.ward_tail_p(w), {}) for w in wards]
    if method == "bonferroni":
        tails = [frequentist.ward_tail_p(w).p_value for w in wards]
        own_count = wards[0].nurse_count if len(wards) == 1 else None
        nurse_count = own_count or len(tails)
        return [(f"Bonferroni over {names} with nurse_count={nurse_count}",
                 frequentist.bonferroni_min(tails, nurse_count), {})]
    if method == "pooled":
        return [(f"pooled tail over {names}", frequentist.pooled_test(case, names), {})]
    if method == "convolved":
        return [(f"convolved sum tail over {names}",
                 frequentist.convolved_sum_test(case, names), {})]
    if method == "fisher":
        tails = [frequentist.ward_tail_p(w).p_value for w in wards]
        return [(f"Fisher combination over {names}", frequentist.fisher_combine(tails), {})]
    if method == "poisson-lr":
        basis, fixed = _parse_mu_basis(mu_basis)
        mu = poisson_model.estimate_mu(case, basis, names, fixed_value=fixed)
        pool = pool_wards(case, names)
        mu_l = poisson_model.observed_rate(pool.suspect_incidents, pool.suspect_shifts)
        lr = poisson_model.lr_poisson(mu, mu_l, pool.suspect_shifts, pool.suspect_incidents)
        return [(f"Poisson likelihood ratio over {names}", lr, {"mu": mu, "mu_L": mu_l})]
    if method == "binomial-cond":
        return [(f"conditional binomial test over {names}",
                 poisson_model.conditional_binomial_test(case, names), {})]
    if method == "bayes":
        if not case.evidence:
            raise SystemExit("rosterstat: case file has no evidence array")
        shortcut = bayes.OddsState(prior, case.evidence)
        strict = bayes.OddsState(bayes.odds_from_probability(prior), case.evidence)
        return [
            (f"odds chain, prior probability {prior} used as prior odds", shortcut,
             {"posterior_probability": bayes.posterior_probability(shortcut)}),
            (f"odds chain, strict prior odds p/(1-p) of {prior}", strict,
             {"posterior_probability": bayes.posterior_probability(strict)}),
        ]
    if method == "relative-risk":
        from rosterstat import risk_sim  # imports numpy, so only when needed

        basis, fixed = _parse_mu_basis(mu_basis)
        threshold = risk_sim.observed_threshold(case, names)
        cfg = risk_sim.derive_sim_config(
            case, names, basis, replicates=replicates, seed=seed, fixed_value=fixed)
        sim = risk_sim.simulate_max_rr(cfg, threshold.value, workers=workers)
        return [(f"observed relative risk over {names}", threshold, {}),
                ("null calibration of the maximum relative risk", sim, {})]
    raise ValueError(f"unknown method {method!r}")


def build_report(case: CaseFile, method: str, results: list[dict]) -> dict:
    """The report document: the case summary, the entries and the caveats."""
    caveats = GENERAL_CAVEATS
    if method in METHOD_CAVEATS:
        caveats += " " + METHOD_CAVEATS[method]
    return {
        "case_name": case.case_name,
        "suspect": case.suspect,
        "variant": case.variant,
        "method": method,
        "results": results,
        "caveats": caveats,
    }


def render_text(report: dict) -> str:
    lines = [
        f"case: {report['case_name']} (suspect: {report['suspect']}, "
        f"data variant: {report['variant']})",
        f"method: {report['method']}",
        "",
    ]
    for entry in report["results"]:
        lines.append(f"- {entry['label']}")
        for key, value in entry.items():
            if key == "label":
                continue
            lines.append(f"    {key}: {_fmt(value)}")
    lines += ["", "caveats: " + report["caveats"]]
    return "\n".join(lines)


def render_machine(report: dict) -> str:
    return strict_json(report)


def strict_json(doc: Any) -> str:
    """``doc`` as strict JSON, written in one walk.

    The text is byte-equal to ``json.dumps(doc, indent=2, allow_nan=False)``
    with a dataclass read as its fields and ``math.inf`` spelt "Infinity".
    NaN and -inf raise ValueError, and any other object TypeError, with the
    messages json gives.
    """
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append ``value`` as indented JSON; ``newline`` ends with its indent.

    A list, tuple or dict is told by its exact type, and its ``str`` and
    finite ``float`` children are written in place, without a call; every
    rarer kind goes through ``_write_other``. ``x - x == 0.0`` holds for a
    finite float only: it is NaN for NaN and for either infinity.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(f"{separator}{_quote(item)}")
            elif kind is float and item - item == 0.0:
                out.append(f"{separator}{item!r}")
            else:
                out.append(separator)
                _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            kind = type(item)
            if kind is str:
                out.append(f"{separator}{_quote(key)}: {_quote(item)}")
            elif kind is float and item - item == 0.0:
                out.append(f"{separator}{_quote(key)}: {item!r}")
            else:
                out.append(f"{separator}{_quote(key)}: ")
                _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        _write_other(value, out, newline)


def _write_other(value: Any, out: list[str], newline: str) -> None:
    """Append any other value, testing its kind in the order json does."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, float):
        if value != value or value == -math.inf:
            raise ValueError(
                f"Out of range float values are not JSON compliant: {value!r}")
        out.append('"Infinity"' if value == math.inf else float.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _write(list(value), out, newline)
    elif isinstance(value, dict):
        _write(dict(value.items()), out, newline)
    elif is_dataclass(value):
        _write(_fields(value), out, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# reproduction suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReproRow:
    label: str
    paper_value: str
    computed: float
    tolerance: str
    passed: bool


def _two_sig_figs(x: float) -> str:
    return f"{x:.2g}"


def reproduce_paper(seed: int = 0, replicates: int = 100_000) -> list[ReproRow]:
    """Recompute every published figure from the built-in case.

    Each figure comes from run_method, the code ``analyze`` runs. Monte
    Carlo rows use the given seed (recorded in the row labels) and are
    deterministic. Returns one row per figure; the caller decides what a
    failed row means for the process exit status.
    """
    rows: list[ReproRow] = []
    corrected = builtin_paper_case("corrected")
    original = builtin_paper_case("original")
    rkz = corrected.default_ward_names()

    def single(case: CaseFile, method: str, names: list[str], **settings: Any) -> Any:
        [(_, result, _)] = run_method(case, method, names, **settings)
        return result

    # JKZ tail with the post-hoc multiplier of its 27 nurses
    bound = single(corrected, "bonferroni", [JKZ]).p_value
    rows.append(ReproRow(
        "JKZ post-hoc bound: 27 x per-ward tail", "< 1/300,000", bound,
        "strict inequality", bound < 1.0 / 300_000.0,
    ))

    # pooled RKZ tail
    pooled = single(corrected, "pooled", rkz).p_value
    rows.append(ReproRow(
        "pooled RKZ tail", "0.0038", pooled,
        "rounds to 0.0038 at 2 significant figures",
        _two_sig_figs(pooled) == "0.0038",
    ))

    # convolved per-ward sum
    convolved = single(corrected, "convolved", rkz).p_value
    rows.append(ReproRow(
        "convolved RKZ sum tail", "0.022", convolved,
        "rounds to 0.022 at 2 significant figures",
        _two_sig_figs(convolved) == "0.022",
    ))

    # ordering of the two revised tests
    rows.append(ReproRow(
        "convolved > pooled ordering", "0.022 > 0.0038", convolved - pooled,
        "strict inequality", convolved > pooled,
    ))

    # Poisson likelihood ratios
    lr1 = single(corrected, "poisson-lr", rkz, mu_basis="exclude_suspect")
    lr2 = single(corrected, "poisson-lr", rkz, mu_basis="include_suspect")
    rows.append(ReproRow(
        "likelihood ratio, background from other nurses (13/614)", "90.7",
        lr1.value, "+/- 0.05", abs(lr1.value - 90.7) <= 0.05,
    ))
    rows.append(ReproRow(
        "likelihood ratio, background from all nurses (19/675)", "about 25",
        lr2.value, "in [24.5, 25.5]", 24.5 <= lr2.value <= 25.5,
    ))
    slight = "slightly more likely under H_p than under H_d"
    rows.append(ReproRow(
        "verbal band for both likelihood ratios", "slightly more likely under H_p",
        float(lr1.verbal == slight and lr2.verbal == slight),
        "exact band match", lr1.verbal == slight and lr2.verbal == slight,
    ))

    # Bayesian chain (prior probability used directly as prior odds,
    # reproducing the published shortcut; the strict odds form is also shown)
    (_, state, extra), (_, strict_state, _) = run_method(corrected, "bayes", rkz, prior=1e-5)
    rows.append(ReproRow(
        "posterior odds (prior probability used as prior odds)", "8.75",
        state.posterior_odds, "exact product arithmetic (1e-12)",
        abs(state.posterior_odds - 8.75) < 1e-12,
    ))
    prob = extra["posterior_probability"]
    rows.append(ReproRow(
        "posterior probability of guilt", "close to 90%", prob,
        "in [0.897, 0.898]", 0.897 <= prob <= 0.898,
    ))
    rows.append(ReproRow(
        "posterior odds (strict odds p/(1-p) convention)", "roughly 8.75",
        strict_state.posterior_odds, "in [8.74, 8.76]",
        8.74 <= strict_state.posterior_odds <= 8.76,
    ))

    # Monte Carlo table: max relative risk among equal-shift nurses; each
    # run also gives the suspect's observed relative risk over its wards
    table = [
        ("whole RKZ", rkz, "exclude_suspect", 0.121),
        ("whole RKZ", rkz, "include_suspect", 0.042),
        ("RKZ-41", [RKZ_41], "exclude_suspect", 0.787),
        ("RKZ-41", [RKZ_41], "include_suspect", 0.681),
        ("RKZ-42", [RKZ_42], "exclude_suspect", 0.383),
        ("RKZ-42", [RKZ_42], "include_suspect", 0.286),
    ]
    runs = {
        (name, basis): run_method(corrected, "relative-risk", wards, mu_basis=basis,
                                  seed=seed, replicates=replicates)
        for name, wards, basis, _ in table
    }

    # relative risk
    rr = runs[("whole RKZ", "exclude_suspect")][0][1]
    rows.append(ReproRow(
        "suspect's relative risk over the RKZ", "about 4.65", rr.value,
        "in [4.64, 4.66]", 4.64 <= rr.value <= 4.66,
    ))

    p_sim = {key: run[1][1].p_value for key, run in runs.items()}
    for name, _, basis, target in table:
        p = p_sim[(name, basis)]
        rows.append(ReproRow(
            f"max-relative-risk p-value, {name}, mu basis {basis} "
            f"(seed {seed}, {replicates} replicates)",
            f"{target}", p, "+/- 0.05", abs(p - target) <= 0.05,
        ))
    exclude, include = (p_sim[("whole RKZ", basis)]
                        for basis in ("exclude_suspect", "include_suspect"))
    rows.append(ReproRow(
        "whole-RKZ ordering: p(include_suspect) < p(exclude_suspect)",
        "0.042 < 0.121", exclude - include, "strict inequality", include < exclude,
    ))

    # the original pipeline product, on the original data variant
    pipeline = single(original, "elffers", rkz, jkz_multiplier=27)
    rows.append(ReproRow(
        "original pipeline product (x27 at JKZ, original variant; NOT a p-value)",
        "reported as less than 1 in 342 million", pipeline.p_value,
        "order of magnitude: in [1e-10, 1e-7]; no equality asserted",
        1e-10 <= pipeline.p_value <= 1e-7,
    ))

    # conditional binomial vs pooled hypergeometric
    binom = single(corrected, "binomial-cond", rkz).p_value
    ratio = binom / pooled
    rows.append(ReproRow(
        "conditional binomial vs pooled hypergeometric",
        "almost the same", ratio, "ratio within a factor of 1.5",
        (1 / 1.5) <= ratio <= 1.5,
    ))

    uncorrected = single(original, "pooled", rkz).p_value
    rows.append(ReproRow(
        "pooled RKZ tail, exact value for reference (see notes)",
        "paper prints 0.0038; the exact >=6 tail with the corrected counts "
        f"is {_two_sig_figs(pooled)}, while the tail with the uncorrected 59 "
        f"shifts is {_two_sig_figs(uncorrected)}",
        pooled, "informational", True,
    ))
    return rows


def render_repro_table(rows: list[ReproRow]) -> str:
    lines = ["label | paper value | computed | tolerance | status"]
    lines.append("-" * 100)
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        lines.append(
            f"{row.label} | {row.paper_value} | {row.computed!r} | "
            f"{row.tolerance} | {status}"
        )
    failed = sum(1 for r in rows if not r.passed)
    lines.append("-" * 100)
    lines.append(f"{len(rows) - failed}/{len(rows)} rows pass")
    return "\n".join(lines)
