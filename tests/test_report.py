"""The renderers read result objects in place and print what a copy would.

The reference below is the report layer as first written: every result is
deep-copied by ``dataclasses.asdict``, and a second walk spells an
infinite float as "Infinity" before encoding. The one-pass JSON writer is
checked against the encoder it replaced: a walk that reads a dataclass as
its fields, then ``json.dumps(indent=2, allow_nan=False)``.
"""

import importlib
import json
import math
import pkgutil
from collections import OrderedDict, namedtuple
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rosterstat
from rosterstat import frequentist
from rosterstat.bayes import EvidenceItem, OddsState, posterior_probability, update
from rosterstat.case import JKZ, RKZ_41, RKZ_42, VARIANTS, CaseFile, WardRoster
from rosterstat.report import (
    GENERAL_CAVEATS,
    METHOD_CAVEATS,
    ReproRow,
    _interval_row,
    _near_row,
    _ordering_row,
    _rounds_row,
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
    | st.builds(Empty) | _simulation_reports()
    | st.builds(OddsState, prior_odds=st.floats(1e-300, 1e290),
                applied=st.lists(st.builds(EvidenceItem, label=st.text(),
                                           lr=st.floats(1e-3, 1e3),
                                           provenance=st.text()), max_size=3).map(tuple))
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children) | st.builds(Box, children)),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(JSON_TREES)
@example({"caf\u00e9 \U0001f600": ["\x00\x1f\"\\/\u2028", "", -0.0, 5e-324, 2**70],
          "nested": {"empty list": [], "empty dict": {}, "empty tuple": (),
                     "empty dataclass": Empty(), "inf": math.inf}})
@example([[[]], [{}], ((),), {"a": {"b": []}}, Box([]), Box({}), [Empty()], Empty(), 2**70])
@example(math.inf)
def test_strict_json_writes_the_bytes_json_dumps_writes(doc):
    assert strict_json(doc) == _reference_strict_json(doc)


def _outcome(render, doc):
    """The text rendered, or the type and message of the error raised."""
    try:
        return render(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _oracle_error(doc):
    with pytest.raises((ValueError, TypeError)) as expected:
        _reference_strict_json(doc)
    return expected.type, str(expected.value)


OUT_OF_RANGE = st.sampled_from([math.nan, -math.inf])
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


class Text(str):
    pass


class Real(float):
    def __repr__(self):
        return f"Real({float.__repr__(self)})"


class Level(IntEnum):
    HIGH = 2**70


@pytest.mark.parametrize("value", [
    Text("ward"), Real(0.5), Level.HIGH, namedtuple("Pair", "left right")(1, 2),
    OrderedDict(a=1), Box,
], ids=["str subclass", "float subclass", "IntEnum", "namedtuple", "OrderedDict",
        "dataclass class"])
def test_a_kind_no_report_holds_raises_type_error_naming_its_type(value):
    """Each kind is told by its exact type, so a subclass or a class is refused."""
    message = f"^Object of type {type(value).__name__} is not JSON serializable$"
    for doc in (value, {"results": [1.0, Box({"deep": value})]}):
        with pytest.raises(TypeError, match=message):
            strict_json(doc)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, Fraction(1, 3), {1, 2}],
                         ids=["nan", "-inf", "Fraction", "set"])
def test_strict_json_raises_as_json_does(bad):
    doc = {"results": [1.0, Box({"deep": bad})]}
    kind, message = _oracle_error(doc)
    with pytest.raises(kind) as raised:
        strict_json(doc)
    assert raised.type is kind and str(raised.value) == message


class TestReproRowBuilders:
    """A row passes exactly at its tolerance's bounds and fails one float past them.

    The bounds of the first two kinds are chosen binary-exact, so that the
    float edge of the tolerance is the written one; the tolerance texts are
    those reproduce-paper has always printed for its rows.
    """

    def test_rounds_to_two_significant_figures(self):
        # 11.5 and 12.5 are exact binary ties, which %.2g rounds to the even 12
        for edge, outward in ((11.5, -math.inf), (12.5, math.inf)):
            assert _rounds_row("r", "12", edge).passed
            assert not _rounds_row("r", "12", math.nextafter(edge, outward)).passed

    @pytest.mark.parametrize("paper_value", ["0.0038", "0.022"])
    def test_rounds_text(self, paper_value):
        row = _rounds_row("r", paper_value, 0.5)
        assert row.paper_value == paper_value
        assert row.tolerance == f"rounds to {paper_value} at 2 significant figures"

    def test_within_a_distance(self):
        # 1 +/- 0.25: each difference from 1 here is exact (Sterbenz)
        for edge, outward in ((0.75, -math.inf), (1.25, math.inf)):
            assert _near_row("r", 1.0, edge, 0.25).passed
            assert not _near_row("r", 1.0, math.nextafter(edge, outward), 0.25).passed

    @pytest.mark.parametrize("paper_value, text", [
        (90.7, "90.7"), (0.121, "0.121"), (0.042, "0.042"), (0.787, "0.787"),
        (0.681, "0.681"), (0.383, "0.383"), (0.286, "0.286")])
    def test_within_text(self, paper_value, text):
        row = _near_row("r", paper_value, 0.5, 0.05)
        assert (row.paper_value, row.tolerance) == (text, "+/- 0.05")

    @pytest.mark.parametrize("lo, hi, text", [
        (24.5, 25.5, "in [24.5, 25.5]"), (0.897, 0.898, "in [0.897, 0.898]"),
        (8.74, 8.76, "in [8.74, 8.76]"), (4.64, 4.66, "in [4.64, 4.66]")])
    def test_closed_interval(self, lo, hi, text):
        for edge, outward in ((lo, -math.inf), (hi, math.inf)):
            assert _interval_row("r", "p", edge, lo, hi).passed
            assert not _interval_row("r", "p", math.nextafter(edge, outward), lo, hi).passed
        assert _interval_row("r", "p", lo, lo, hi).tolerance == text

    @pytest.mark.parametrize("smaller, larger", [(0.0038, 0.022), (0.042, 0.121)])
    def test_strict_inequality(self, smaller, larger):
        row = _ordering_row("r", "p", smaller, larger)
        assert row.passed and row.computed == larger - smaller
        assert row.tolerance == "strict inequality"
        # the bound itself fails, and one float inside it passes
        assert not _ordering_row("r", "p", larger, larger).passed
        assert _ordering_row("r", "p", math.nextafter(larger, -math.inf), larger).passed


@pytest.mark.parametrize("key", [1, 1.5, True, None], ids=["int", "float", "bool", "None"])
def test_strict_json_keys_must_be_str(key):
    """json.dumps writes these keys as strings; strict_json rejects them."""
    assert json.dumps({key: 2}) == f'{{"{json.dumps(key)}": 2}}'
    with pytest.raises(TypeError, match="must be a string"):
        strict_json({key: 2})


def test_every_dataclass_field_table_lists_its_fields_only():
    """The renderers read a record's names from ``__dataclass_fields__``.

    That table also lists a ClassVar or InitVar pseudo-field, which
    ``dataclasses.fields`` leaves out; no record the package defines has one.
    """
    classes = [
        value
        for info in pkgutil.iter_modules(rosterstat.__path__)
        for value in vars(importlib.import_module(f"rosterstat.{info.name}")).values()
        if isinstance(value, type) and is_dataclass(value)
        and value.__module__ == f"rosterstat.{info.name}"
    ]
    assert ReproRow in classes and SimulationReport in classes
    for cls in classes:
        assert tuple(cls.__dataclass_fields__) == tuple(f.name for f in fields(cls)), cls
