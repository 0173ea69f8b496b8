"""Analysis methods, report assembly and the built-in reproduction suite.

Every rendered result carries its method identifier, the data variant it
was computed on, and a caveat block stating the conditioning assumptions,
so no number can be quoted without its model scope. run_method computes
each analysis method; ``analyze`` and the reproduction suite both call it.
A report is a plain dict that holds the frozen result objects themselves;
each renderer reads them in one walk, a dataclass as its fields, named by
its class's ``__dataclass_fields__`` in declaration order. Machine output
is written by that walk directly, as strict JSON, for the kinds a report
holds (see strict_json).
The reproduction suite recomputes each published figure from the built-in
case and marks a row pass/fail against its stated tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
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


def result_entry(label: str, result: Any, **extra: Any) -> dict:
    """A labelled result and its extra fields, as one report entry.

    A TestResult's fields go at the top level, followed by is_p_value; any
    other result sits under its class name. Nothing is copied: the entry
    holds the result objects, which the renderers read as their fields.
    """
    entry: dict[str, Any] = {"label": label}
    if isinstance(result, frequentist.TestResult):
        for name in type(result).__dataclass_fields__:
            entry[name] = getattr(result, name)
        entry["is_p_value"] = result.is_p_value
    else:
        entry[type(result).__name__] = result
    entry.update(extra)
    return entry


METHOD_CAVEATS = {
    "elffers": frequentist.NOT_A_P_VALUE,
    "bayes": bayes.INDEPENDENCE_NOTE,
}


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
    mu_basis is the spec that poisson_model.estimate_mu reads (see there); it
    is passed unread to the two methods that use it, 'poisson-lr' and
    'relative-risk', and ignored by the rest. The choices the package
    never defaults, a JKZ multiplier for 'elffers' and an evidence array for
    'bayes', raise ValueError when missing. Every method checks the ward list
    first, through case.named_wards.
    """
    wards = named_wards(case, names)
    if method == "elffers":
        if jkz_multiplier is None:
            raise ValueError(
                "--method elffers requires --jkz-multiplier; the "
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
        underflowed = [w.name for w, p in zip(wards, tails) if p == 0.0]
        if underflowed:
            raise ValueError(f"{underflowed[0]}: its tail underflows to 0.0 (Fisher needs p > 0)")
        return [(f"Fisher combination over {names}", frequentist.fisher_combine(tails), {})]
    if method == "poisson-lr":
        mu = poisson_model.estimate_mu(case, mu_basis, names)
        pool = pool_wards(case, names)
        try:
            mu_l = poisson_model.observed_rate(pool.suspect_incidents, pool.suspect_shifts)
        except ValueError as exc:  # name the pooled wards, as estimate_mu's errors do
            raise ValueError(f"{pool.name}: {exc}") from None
        lr = poisson_model.lr_poisson(mu, mu_l, pool.suspect_shifts, pool.suspect_incidents)
        return [(f"Poisson likelihood ratio over {names}", lr, {"mu": mu, "mu_L": mu_l})]
    if method == "binomial-cond":
        return [(f"conditional binomial test over {names}",
                 poisson_model.conditional_binomial_test(case, names), {})]
    if method == "bayes":
        if not case.evidence:
            raise ValueError("case file has no evidence array")
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

        threshold = risk_sim.observed_threshold(case, names)
        cfg = risk_sim.derive_sim_config(
            case, names, mu_basis, replicates=replicates, seed=seed)
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
    with a dataclass instance read as its fields and ``math.inf`` spelt
    "Infinity". Each kind is told by its exact type: a dict with ``str``
    keys, a list, a tuple, a dataclass instance, and ``str``, ``int``,
    ``float``, bool and None. NaN and -inf raise json's ValueError; any
    other object, a subclass of these kinds or a dataclass class included,
    raises TypeError, as does a dict key that is not a ``str``.
    """
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append ``value`` as indented JSON; ``newline`` ends with its indent.

    A list, tuple or dict is told by its exact type, and a dataclass
    instance by its class's ``__dataclass_fields__``, whose fields are read
    in place. Their ``str``, finite ``float``, None and bool children are
    written in place, without a call; every other value goes through
    ``_write_other``. ``x - x == 0.0`` holds for a finite float only: it is
    NaN for NaN and for either infinity.
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
            elif item is None:
                out.append(f"{separator}null")
            elif kind is bool:
                out.append(f"{separator}{'true' if item else 'false'}")
            else:
                out.append(separator)
                _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
        return
    if kind is dict:
        if not value:
            out.append("{}")
            return
        pairs = value.items()
    else:
        names = getattr(kind, "__dataclass_fields__", None)
        if names is None:
            _write_other(value, out, newline)
            return
        if not names:
            out.append("{}")
            return
        pairs = zip(names, map(getattr, repeat(value), names))
    inner = newline + "  "
    separator = "{" + inner
    for key, item in pairs:
        kind = type(item)
        if kind is str:
            out.append(f"{separator}{_quote(key)}: {_quote(item)}")
        elif kind is float and item - item == 0.0:
            out.append(f"{separator}{_quote(key)}: {item!r}")
        elif item is None:
            out.append(f"{separator}{_quote(key)}: null")
        elif kind is bool:
            out.append(f"{separator}{_quote(key)}: {'true' if item else 'false'}")
        else:
            out.append(f"{separator}{_quote(key)}: ")
            _write(item, out, inner)
        separator = "," + inner
    out.append(newline + "}")


def _write_other(value: Any, out: list[str], newline: str) -> None:
    """Append an int, an infinity or a leaf at the top."""
    kind = type(value)
    if kind is int:
        out.append(repr(value))
    elif kind is float and value - value != 0.0:  # NaN or an infinity
        if value != math.inf:
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append('"Infinity"')
    elif kind is str or kind is float or kind is bool or value is None:
        out.append(json.dumps(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    names = getattr(type(value), "__dataclass_fields__", None)
    if names is not None:
        value = {name: getattr(value, name) for name in names}
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


# One builder per tolerance kind: each writes a row's tolerance text and its
# check from the same numbers, so the two cannot drift apart.
def _rounds_row(label: str, paper_value: str, computed: float) -> ReproRow:
    """Passes when ``computed`` rounds to the paper's figure at 2 significant figures."""
    return ReproRow(label, paper_value, computed,
                    f"rounds to {paper_value} at 2 significant figures",
                    _two_sig_figs(computed) == paper_value)


def _near_row(label: str, paper_value: float, computed: float, d: float) -> ReproRow:
    """Passes when ``computed`` is within ``d`` of the paper's figure."""
    return ReproRow(label, f"{paper_value}", computed, f"+/- {d}",
                    abs(computed - paper_value) <= d)


def _interval_row(label: str, paper_value: str, computed: float,
                  lo: float, hi: float) -> ReproRow:
    """Passes when ``computed`` lies in the closed interval [lo, hi]."""
    return ReproRow(label, paper_value, computed, f"in [{lo}, {hi}]", lo <= computed <= hi)


def _ordering_row(label: str, paper_value: str, smaller: float, larger: float) -> ReproRow:
    """Passes when ``smaller < larger``; the computed value is their difference."""
    return ReproRow(label, paper_value, larger - smaller, "strict inequality", smaller < larger)


def reproduce_paper(seed: int = 0, replicates: int = 100_000) -> list[ReproRow]:
    """Recompute every published figure from the built-in case.

    Each figure comes from run_method, the code ``analyze`` runs. Monte
    Carlo rows use the given seed (recorded in the row labels) and are
    deterministic. Returns one row per figure; the caller decides what a
    failed row means for the process exit status.
    """
    corrected = builtin_paper_case("corrected")
    original = builtin_paper_case("original")
    rkz = corrected.default_ward_names()

    def single(case: CaseFile, method: str, names: list[str], **settings: Any) -> Any:
        [(_, result, _)] = run_method(case, method, names, **settings)
        return result

    # JKZ tail with the post-hoc multiplier of its 27 nurses
    bound = single(corrected, "bonferroni", [JKZ]).p_value
    pooled = single(corrected, "pooled", rkz).p_value
    convolved = single(corrected, "convolved", rkz).p_value
    lr1 = single(corrected, "poisson-lr", rkz, mu_basis="exclude_suspect")
    lr2 = single(corrected, "poisson-lr", rkz, mu_basis="include_suspect")
    bands_match = lr1.verbal == lr2.verbal == "slightly more likely under H_p than under H_d"
    # the prior probability used directly as prior odds reproduces the
    # published shortcut; the strict odds form is shown beside it
    (_, state, extra), (_, strict, _) = run_method(corrected, "bayes", rkz, prior=1e-5)
    rows = [
        ReproRow("JKZ post-hoc bound: 27 x per-ward tail", "< 1/300,000", bound,
                 "strict inequality", bound < 1.0 / 300_000.0),
        _rounds_row("pooled RKZ tail", "0.0038", pooled),
        _rounds_row("convolved RKZ sum tail", "0.022", convolved),
        _ordering_row("convolved > pooled ordering", "0.022 > 0.0038", pooled, convolved),
        _near_row("likelihood ratio, background from other nurses (13/614)", 90.7,
                  lr1.value, 0.05),
        _interval_row("likelihood ratio, background from all nurses (19/675)", "about 25",
                      lr2.value, 24.5, 25.5),
        ReproRow("verbal band for both likelihood ratios", "slightly more likely under H_p",
                 float(bands_match), "exact band match", bands_match),
        ReproRow("posterior odds (prior probability used as prior odds)", "8.75",
                 state.posterior_odds, "exact product arithmetic (1e-12)",
                 abs(state.posterior_odds - 8.75) < 1e-12),
        _interval_row("posterior probability of guilt", "close to 90%",
                      extra["posterior_probability"], 0.897, 0.898),
        _interval_row("posterior odds (strict odds p/(1-p) convention)", "roughly 8.75",
                      strict.posterior_odds, 8.74, 8.76),
    ]

    # Monte Carlo table: max relative risk among equal-shift nurses; each
    # run also gives the suspect's observed relative risk over its wards,
    # which does not depend on the mu basis
    table = [
        ("whole RKZ", rkz, "exclude_suspect", 0.121),
        ("whole RKZ", rkz, "include_suspect", 0.042),
        ("RKZ-41", [RKZ_41], "exclude_suspect", 0.787),
        ("RKZ-41", [RKZ_41], "include_suspect", 0.681),
        ("RKZ-42", [RKZ_42], "exclude_suspect", 0.383),
        ("RKZ-42", [RKZ_42], "include_suspect", 0.286),
    ]
    observed, p_sim = {}, {}
    for name, wards, basis, _ in table:
        (_, observed[name], _), (_, sim, _) = run_method(
            corrected, "relative-risk", wards, mu_basis=basis, seed=seed, replicates=replicates)
        p_sim[name, basis] = sim.p_value
    rows.append(_interval_row("suspect's relative risk over the RKZ", "about 4.65",
                              observed["whole RKZ"].value, 4.64, 4.66))
    rows += [_near_row(f"max-relative-risk p-value, {name}, mu basis {basis} "
                       f"(seed {seed}, {replicates} replicates)",
                       target, p_sim[name, basis], 0.05)
             for name, _, basis, target in table]
    rows.append(_ordering_row(
        "whole-RKZ ordering: p(include_suspect) < p(exclude_suspect)", "0.042 < 0.121",
        p_sim["whole RKZ", "include_suspect"], p_sim["whole RKZ", "exclude_suspect"]))

    # the original pipeline product, on the original data variant
    pipeline = single(original, "elffers", rkz, jkz_multiplier=27).p_value
    ratio = single(corrected, "binomial-cond", rkz).p_value / pooled
    uncorrected = single(original, "pooled", rkz).p_value
    return rows + [
        ReproRow("original pipeline product (x27 at JKZ, original variant; NOT a p-value)",
                 "reported as less than 1 in 342 million", pipeline,
                 "order of magnitude: in [1e-10, 1e-7]; no equality asserted",
                 1e-10 <= pipeline <= 1e-7),
        ReproRow("conditional binomial vs pooled hypergeometric", "almost the same", ratio,
                 "ratio within a factor of 1.5", (1 / 1.5) <= ratio <= 1.5),
        ReproRow("pooled RKZ tail, exact value for reference (see notes)",
                 "paper prints 0.0038; the exact >=6 tail with the corrected counts "
                 f"is {_two_sig_figs(pooled)}, while the tail with the uncorrected 59 "
                 f"shifts is {_two_sig_figs(uncorrected)}",
                 pooled, "informational", True),
    ]


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
