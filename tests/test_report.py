"""The renderers read result objects in place and print what a copy would.

The reference below is the report layer as first written: every result is
deep-copied by ``dataclasses.asdict``, and a second walk spells an
infinite float as "Infinity" before encoding. The one-pass JSON writer is
checked against the encoder it replaced: a walk that reads a dataclass as
its fields, then ``json.dumps(indent=2, allow_nan=False)``.
"""

import json
import math
from collections import OrderedDict, namedtuple
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rosterstat import frequentist
from rosterstat.bayes import EvidenceItem, OddsState, posterior_probability, update
from rosterstat.case import JKZ, RKZ_41, RKZ_42, VARIANTS, CaseFile, WardRoster
from rosterstat.report import (
    GENERAL_CAVEATS,
    METHOD_CAVEATS,
    build_report,
    render_machine,
    render_text,
    result_entry,
    run_method,
    strict_json,
)
from rosterstat.risk_sim import SimulationConfig, SimulationReport, relative_risk

EXACT_METHODS = ("elffers", "per-ward", "bonferroni", "pooled", "convolved", "fisher",
                 "poisson-lr", "binomial-cond", "bayes")


def _reference_entry(label, result, **extra):
    entry = {"label": label}
    if isinstance(result, frequentist.TestResult):
        entry.update(asdict(result))
        entry["is_p_value"] = result.is_p_value
    else:
        entry[type(result).__name__] = asdict(result)
    entry.update({k: asdict(v) if is_dataclass(v) else v for k, v in extra.items()})
    return entry


def _reference_doc(case, method, runs):
    caveats = GENERAL_CAVEATS
    if method in METHOD_CAVEATS:
        caveats += " " + METHOD_CAVEATS[method]
    return {
        "case_name": case.case_name,
        "suspect": case.suspect,
        "variant": case.variant,
        "method": method,
        "results": [_reference_entry(label, result, **extra) for label, result, extra in runs],
        "caveats": caveats,
    }


def _spell_infinity(value):
    if isinstance(value, dict):
        return {k: _spell_infinity(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_infinity(v) for v in value]
    return "Infinity" if value == math.inf else value


def _reference_fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_reference_fmt(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_reference_fmt(v) for v in value) + "]"
    return str(value)


def _reference_text(doc):
    lines = [
        f"case: {doc['case_name']} (suspect: {doc['suspect']}, "
        f"data variant: {doc['variant']})",
        f"method: {doc['method']}",
        "",
    ]
    for entry in doc["results"]:
        lines.append(f"- {entry['label']}")
        lines += [f"    {key}: {_reference_fmt(value)}"
                  for key, value in entry.items() if key != "label"]
    lines += ["", "caveats: " + doc["caveats"]]
    return "\n".join(lines)


def assert_renders_like_the_reference(case, method, runs):
    report = build_report(case, method,
                          [result_entry(label, result, **extra) for label, result, extra in runs])
    doc = _reference_doc(case, method, runs)
    machine = render_machine(report)
    assert machine == json.dumps(_spell_infinity(doc), indent=2, allow_nan=False)
    assert render_text(report) == _reference_text(doc)
    return machine


@st.composite
def paper_wards(draw, name):
    # both the suspect and the others see incidents, so every method applies
    n = draw(st.integers(60, 2000))
    r = draw(st.integers(1, n // 2))
    k = draw(st.integers(2, 30))
    x = draw(st.integers(1, min(r, k - 1)))
    nurse_count = draw(st.none() | st.integers(1, 60))
    return WardRoster(name, n, r, k, x, nurse_count=nurse_count)


@st.composite
def paper_cases(draw):
    names = draw(st.lists(st.sampled_from([JKZ, RKZ_41, RKZ_42, "A", "B"]),
                          min_size=1, max_size=4, unique=True))
    evidence = st.builds(EvidenceItem, label=st.text(max_size=12),
                         lr=st.floats(0.01, 100.0), provenance=st.text(max_size=12))
    return CaseFile(
        case_name=draw(st.text(max_size=12)),
        suspect=draw(st.text(max_size=12)),
        wards=tuple(draw(paper_wards(name)) for name in names),
        variant=draw(st.sampled_from(VARIANTS)),
        evidence=tuple(draw(st.lists(evidence, min_size=1, max_size=4))),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(paper_cases())
def test_every_exact_method_renders_like_the_reference(case):
    names = case.default_ward_names()
    for method in EXACT_METHODS:
        assert_renders_like_the_reference(
            case, method, run_method(case, method, names, jkz_multiplier=27))


def test_infinite_and_nested_results_render_like_the_reference():
    case = CaseFile(case_name="direct", suspect="s",
                    wards=(WardRoster("A", 100, 10, 3, 3),), variant="corrected")
    config = SimulationConfig(nurse_count=10, shifts_per_nurse=10, mu=0.01,
                              replicates=100, seed=4)
    simulation = SimulationReport(config=config, threshold=math.inf, exceed_count=7,
                                  p_value=0.07, std_error=0.0255, degenerate_count=30)
    odds = OddsState(prior_odds=1e-5)
    for item in (EvidenceItem("first", 9.0, "report"), EvidenceItem("second", 0.5)):
        odds = update(odds, item)
    runs = [
        ("observed relative risk", relative_risk(3, 10, 0, 90), {}),
        ("null calibration", simulation, {}),
        ("odds chain", odds, {"posterior_probability": posterior_probability(odds)}),
    ]
    machine = assert_renders_like_the_reference(case, "relative-risk", runs)
    results = json.loads(machine)["results"]
    assert results[0]["RelativeRisk"]["value"] == "Infinity"
    assert results[1]["SimulationReport"]["threshold"] == "Infinity"
    assert results[1]["SimulationReport"]["config"]["seed"] == 4
    assert [e["label"] for e in results[2]["OddsState"]["applied"]] == ["first", "second"]


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return _plain({f.name: getattr(value, f.name) for f in fields(value)})
    return "Infinity" if value == math.inf else value


def _reference_strict_json(doc):
    return json.dumps(_plain(doc), indent=2, allow_nan=False)


@dataclass(frozen=True)
class Box:
    value: Any
    note: str = "boxed"


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Defaults:
    note: str = "class default"
    level: int = 3


class Text(str):
    pass


class Real(float):
    def __repr__(self):
        return f"Real({float.__repr__(self)})"


class Level(IntEnum):
    LOW = 1
    HIGH = 2**70


Pair = namedtuple("Pair", "left right")


def _simulation_reports():
    # mu * shifts_per_nurse stays within SimulationConfig's bound of 10**6
    configs = st.builds(SimulationConfig, nurse_count=st.integers(2, 10**6),
                        shifts_per_nurse=st.integers(1, 10**4),
                        mu=st.floats(1e-300, 100.0), replicates=st.integers(1, 10**9),
                        seed=st.integers(0, 2**64 - 1))
    return st.builds(SimulationReport, config=configs,
                     threshold=st.floats(0.0, allow_nan=False),
                     exceed_count=st.integers(0), p_value=st.floats(0.0, 1.0),
                     std_error=st.floats(0.0, 1.0), degenerate_count=st.integers(0))


JSON_LEAVES = (
    st.text() | st.integers(-(2**200), 2**200) | st.booleans() | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf])
    | st.text().map(Text) | st.floats(allow_nan=False, allow_infinity=False).map(Real)
    | st.sampled_from([Real(math.inf), Level.LOW, Level.HIGH])
    | st.sampled_from([Empty, Defaults])
    | st.builds(Empty) | _simulation_reports()
    | st.builds(OddsState, prior_odds=st.floats(1e-300, 1e290),
                applied=st.lists(st.builds(EvidenceItem, label=st.text(),
                                           lr=st.floats(1e-3, 1e3),
                                           provenance=st.text()), max_size=3).map(tuple))
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children) | st.builds(Box, children)
                      | st.builds(Pair, children, children)
                      | st.dictionaries(st.text(), children).map(OrderedDict)),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(JSON_TREES)
@example({"caf\u00e9 \U0001f600": ["\x00\x1f\"\\/\u2028", "", -0.0, 5e-324, 2**70],
          "nested": {"empty list": [], "empty dict": {}, "empty tuple": (),
                     "empty dataclass": Empty(), "inf": math.inf}})
@example([[[]], [{}], ((),), {"a": {"b": []}}, Box([]), Box({}), [Empty()], Pair([], {}),
          OrderedDict(), [Text(""), Real(-0.0), Real(math.inf), Level.HIGH], Defaults, Empty])
def test_strict_json_writes_the_bytes_json_dumps_writes(doc):
    assert strict_json(doc) == _reference_strict_json(doc)


def _outcome(render, doc):
    """The text rendered, or the type and message of the error raised."""
    try:
        return render(doc)
    except (ValueError, TypeError, AttributeError) as exc:
        return type(exc), str(exc)


def _oracle_error(doc):
    with pytest.raises((ValueError, TypeError)) as expected:
        _reference_strict_json(doc)
    return expected.type, str(expected.value)


OUT_OF_RANGE = st.sampled_from([math.nan, -math.inf, Real(math.nan), Real(-math.inf)])
HOLDS_OUT_OF_RANGE = (
    st.tuples(st.lists(JSON_LEAVES, max_size=3), OUT_OF_RANGE,
              st.lists(JSON_LEAVES, max_size=3)).map(lambda t: [*t[0], t[1], *t[2]])
    | OUT_OF_RANGE.map(lambda bad: (1.5, bad))
    | st.tuples(st.dictionaries(st.text(), JSON_LEAVES, max_size=3), OUT_OF_RANGE).map(
        lambda t: {**t[0], "\x00bad": t[1]})
    | st.builds(Box, OUT_OF_RANGE) | st.builds(lambda bad: Box("ok", bad), OUT_OF_RANGE)
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(JSON_TREES, HOLDS_OUT_OF_RANGE, JSON_TREES)
def test_out_of_range_children_raise_as_json_does(before, holder, after):
    doc = {"before": before, "holder": [holder], "after": after}
    expected = _outcome(_reference_strict_json, doc)
    assert expected[0] is ValueError
    assert _outcome(strict_json, doc) == expected


def test_dataclass_class_without_defaults_raises_as_json_does():
    doc = {"classes": [Defaults, Box]}
    expected = _outcome(_reference_strict_json, doc)
    assert expected[0] is AttributeError
    assert _outcome(strict_json, doc) == expected


@pytest.mark.parametrize("bad", [math.nan, -math.inf, Fraction(1, 3), {1, 2}],
                         ids=["nan", "-inf", "Fraction", "set"])
def test_strict_json_raises_as_json_does(bad):
    doc = {"results": [1.0, Box({"deep": bad})]}
    kind, message = _oracle_error(doc)
    with pytest.raises(kind) as raised:
        strict_json(doc)
    assert raised.type is kind and str(raised.value) == message
