import gc
import json
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosterstat.case import (
    MAX_COUNT,
    VARIANTS,
    CaseFile,
    CaseValidationError,
    EvidenceItem,
    WardRoster,
    builtin_paper_case,
    named_wards,
    parse_case,
    pool_wards,
    serialize_case,
)

VALID_DOC = {
    "case_name": "demo",
    "suspect": "N.",
    "variant": "corrected",
    "wards": [
        {
            "name": "JKZ",
            "total_shifts": 1029,
            "suspect_shifts": 142,
            "total_incidents": 8,
            "suspect_incidents": 8,
            "nurse_count": 27,
        },
        {
            "name": "RKZ-41",
            "total_shifts": 336,
            "suspect_shifts": 3,
            "total_incidents": 5,
            "suspect_incidents": 1,
        },
    ],
}


class Token(str):
    """JSON text that a test writes into a case file unquoted."""


class TestParseCase:
    def test_accepts_valid_document(self):
        case = parse_case(json.dumps(VALID_DOC))
        jkz = case.ward("JKZ")
        assert (jkz.total_shifts, jkz.suspect_shifts) == (1029, 142)
        assert (jkz.total_incidents, jkz.suspect_incidents) == (8, 8)
        assert jkz.nurse_count == 27
        rkz = case.ward("RKZ-41")
        assert (rkz.total_shifts, rkz.suspect_shifts, rkz.total_incidents,
                rkz.suspect_incidents) == (336, 3, 5, 1)
        assert rkz.nurse_count is None

    def test_accepts_bytes(self):
        case = parse_case(json.dumps(VALID_DOC).encode("utf-8"))
        assert case.case_name == "demo"

    @pytest.mark.parametrize("data, where", [
        (b"\xff{}", "byte 0xff at offset 0 (invalid start byte)"),
        (json.dumps(VALID_DOC).encode("utf-8")[:-1] + b"\xc3",
         "unexpected end of data"),
        ("{\"case_name\": \"caf\u00e9\"}".encode("latin-1"), "byte 0xe9 at offset 18"),
    ], ids=["0xff", "truncated", "latin-1"])
    def test_bytes_that_are_not_utf8_rejected(self, data, where):
        with pytest.raises(CaseValidationError, match="^case file is not UTF-8 text: ") as exc:
            parse_case(data)
        assert where in str(exc.value)

    def test_invariant_violation_names_ward_and_field(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["wards"][0]["suspect_shifts"] = 2000
        with pytest.raises(CaseValidationError, match="JKZ.*suspect_shifts exceeds total_shifts"):
            parse_case(json.dumps(doc))

    def test_malformed_syntax_reports_line(self):
        with pytest.raises(CaseValidationError, match="line"):
            parse_case('{"case_name": "x",\n  "oops\n}')

    def test_deep_nesting_rejected(self):
        with pytest.raises(CaseValidationError, match="nests too deeply"):
            parse_case("[" * 100_000 + "]" * 100_000)

    def test_unknown_top_level_key_rejected(self):
        doc = dict(VALID_DOC, extra=1)
        with pytest.raises(CaseValidationError, match="unknown top-level"):
            parse_case(json.dumps(doc))

    def test_unknown_ward_key_rejected(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["wards"][0]["shift_total"] = 5
        with pytest.raises(CaseValidationError, match="unknown keys"):
            parse_case(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = json.loads(json.dumps(VALID_DOC))
        del doc["wards"][1]["total_incidents"]
        with pytest.raises(CaseValidationError, match="total_incidents"):
            parse_case(json.dumps(doc))

    def test_non_integer_count_rejected(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["wards"][0]["total_shifts"] = 1029.5
        with pytest.raises(CaseValidationError, match="decimal integer"):
            parse_case(json.dumps(doc))

    def test_bad_variant_rejected(self):
        doc = dict(VALID_DOC, variant="patched")
        with pytest.raises(CaseValidationError, match="variant"):
            parse_case(json.dumps(doc))

    def test_evidence_array(self):
        doc = dict(VALID_DOC)
        doc["evidence"] = [
            {"label": "E1", "lr": 0.5, "provenance": "expert"},
            {"label": "E2", "lr": 50},
        ]
        case = parse_case(json.dumps(doc))
        assert [e.lr for e in case.evidence] == [0.5, 50.0]
        assert case.evidence[0].provenance == "expert"

    @pytest.mark.parametrize("old, new, message", [
        ('"suspect_incidents": 1}', '"suspect_incidents": 1, "suspect_incidents": 0}',
         "RKZ-41: key 'suspect_incidents' is repeated"),
        ('"name": "JKZ",', '"name": "JKZ", "name": "JKZ-2",', "JKZ-2: key 'name' is repeated"),
        ('"lr": 0.5', '"lr": 0.5, "lr": 2', "evidence 'E1': key 'lr' is repeated"),
        ('"variant": "corrected"', '"variant": "corrected", "variant": "original"',
         "key 'variant' is repeated"),
    ], ids=["ward", "ward-name", "evidence", "top-level"])
    def test_repeated_key_rejected(self, old, new, message):
        text = json.dumps(dict(VALID_DOC, evidence=[{"label": "E1", "lr": 0.5}]))
        assert text.count(old) == 1
        with pytest.raises(CaseValidationError) as exc:
            parse_case(text.replace(old, new))
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", ["label", "lr"])
    def test_missing_evidence_key_named(self, key):
        entry = {"label": "E1", "lr": 0.5}
        del entry[key]
        with pytest.raises(CaseValidationError) as exc:
            parse_case(json.dumps(dict(VALID_DOC, evidence=[entry])))
        assert str(exc.value) == f"evidence #0: missing key {key!r}"

    @pytest.mark.parametrize("name", ["", "A,1", " B", "B ", "\tC", "D\n"])
    def test_name_the_wards_flag_cannot_select_rejected(self, name):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["wards"][1]["name"] = name
        with pytest.raises(CaseValidationError, match="^ward #1: name must be nonempty"):
            parse_case(json.dumps(doc))

    @pytest.mark.parametrize("path, value, message", [
        (("wards",), 5, "case file: wards must be an array"),
        (("evidence",), 5, "case file: evidence must be an array"),
        (("case_name",), [1], "case file: case_name must be a string"),
        (("suspect",), 7, "case file: suspect must be a string"),
        (("variant",), None, "case file: variant must be a string"),
        (("wards", 1, "name"), 7, "ward #1: name must be a string"),
        (("evidence", 1, "label"), 3, "evidence #1: label must be a string"),
        (("evidence", 0, "provenance"), ["x"], "evidence #0: provenance must be a string"),
        (("evidence", 1, "lr"), "0.5", "evidence #1: lr must be a number"),
        (("evidence", 1, "lr"), True, "evidence #1: lr must be a number"),
        (("evidence", 1, "lr"), 10**400, "evidence #1: lr is too large"),
        (("evidence", 1, "lr"), 0, r"^evidence #1: lr must be positive and finite, got 0\.0$"),
        (("evidence", 0, "lr"), -2, r"^evidence #0: lr must be positive and finite, got -2\.0$"),
        (("evidence", 1, "lr"), Token("1e400"),
         "^evidence #1: lr must be positive and finite, got inf$"),
        (("evidence", 1, "lr"), Token("NaN"), "^case file uses NaN, which is not strict JSON$"),
        (("evidence", 1, "lr"), Token("Infinity"),
         "^case file uses Infinity, which is not strict JSON$"),
        (("wards", 0, "total_shifts"), Token("-Infinity"),
         "^case file uses -Infinity, which is not strict JSON$"),
        # past int()'s 4,300-digit limit, which parse_case leaves as it is
        (("wards", 0, "total_shifts"), Token("9" * 5001),
         "^JKZ: total_shifts is an integer with too many digits to read$"),
        (("wards", 1, "nurse_count"), Token("-" + "1" * 5001),
         "^RKZ-41: nurse_count is an integer with too many digits to read$"),
        (("evidence", 1, "lr"), Token("9" * 5001),
         "^evidence #1: lr is an integer with too many digits to read$"),
        (("case_name",), Token("9" * 5001),
         "^case file: case_name is an integer with too many digits to read$"),
        # an explicit null is a value of the wrong kind, not a key left out
        (("wards", 0, "nurse_count"), None,
         "^JKZ: nurse_count must be a decimal integer, got None$"),
        (("wards", 1, "total_shifts"), None,
         "^RKZ-41: total_shifts must be a decimal integer, got None$"),
        (("evidence",), None, "^case file: evidence must be an array, got None$"),
        (("evidence", 0, "provenance"), None,
         "^evidence #0: provenance must be a string, got None$"),
        (("wards", 0, "total_shifts"), {"a": None},
         r"^JKZ: total_shifts must be a decimal integer, got \{'a': None\}$"),
    ], ids=["wards", "evidence", "case_name", "suspect", "variant", "ward-name",
            "label", "provenance", "lr-string", "lr-bool", "lr-huge-int", "lr-zero",
            "lr-negative", "lr-past-the-float-range", "NaN", "Infinity", "-Infinity",
            "count-5001-digits", "nurse-count-5001-digits", "lr-5001-digits",
            "case-name-5001-digits", "null-nurse-count", "null-count", "null-evidence",
            "null-provenance", "nested-null"])
    def test_wrong_json_type_rejected(self, path, value, message):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["evidence"] = [{"label": "E1", "lr": 0.5, "provenance": "expert"},
                           {"label": "E2", "lr": 50}]
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        text = json.dumps(doc)
        if isinstance(value, Token):
            text = text.replace(json.dumps(value), value)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(CaseValidationError, match=message):
            parse_case(text)
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("path, where", [
        (("case_name",), "case file"), (("suspect",), "case file"),
        (("wards", 1, "name"), "ward #1"), (("evidence", 0, "label"), "evidence #0"),
        (("evidence", 0, "provenance"), "evidence #0"),
    ])
    @pytest.mark.parametrize("char", ["\n", "\x00", "\x1b", "\x7f", "\x85", "\x9f",
                                      "\ud800", "\udc80", "\udfff"])
    def test_control_character_or_lone_surrogate_rejected(self, path, where, char):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["evidence"] = [{"label": "E1", "lr": 0.5, "provenance": "expert"}]
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = f"A{char}B"
        with pytest.raises(CaseValidationError) as raised:
            parse_case(json.dumps(doc))
        assert str(raised.value) == (f"{where}: {path[-1]} must be printable text, "
                                     f"got {char!r} at index 1")

    @pytest.mark.parametrize("text", ["\xa0", "\u00e9", "\u2028", "\U0001f600"])
    def test_printable_text_accepted(self, text):
        doc = dict(VALID_DOC, case_name=f"A{text}B", suspect=f"{text}")
        assert parse_case(json.dumps(doc)).case_name == f"A{text}B"

    def test_repeated_key_message_leaves_out_a_name_that_is_not_text(self):
        text = json.dumps(VALID_DOC).replace('"name": "JKZ"',
                                             '"name": "A\\nB", "suspect_shifts": 1')
        with pytest.raises(CaseValidationError) as raised:
            parse_case(text)
        assert str(raised.value) == "key 'suspect_shifts' is repeated"


@st.composite
def ward_rosters(draw, name):
    n = draw(st.integers(1, 5000))
    r = draw(st.integers(0, n))
    k = draw(st.integers(0, n))
    x = draw(st.integers(max(0, k - (n - r)), min(r, k)))
    nurse_count = draw(st.none() | st.integers(1, 500))
    return WardRoster(name, n, r, k, x, nurse_count=nurse_count)


# the text parse_case accepts: no control character and no lone surrogate
printable = st.characters(exclude_categories=("Cc", "Cs"))
evidence_items = st.builds(
    EvidenceItem,
    label=st.text(printable, max_size=20),
    lr=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    provenance=st.text(printable, max_size=20),
)


@st.composite
def case_files(draw):
    # the ward names parse_case accepts: nonempty, no comma, no outer whitespace
    selectable = st.text(printable, min_size=1, max_size=10).filter(
        lambda name: "," not in name and name == name.strip())
    names = draw(st.lists(selectable, min_size=1, max_size=4, unique=True))
    return CaseFile(
        case_name=draw(st.text(printable, max_size=20)),
        suspect=draw(st.text(printable, max_size=20)),
        wards=tuple(draw(ward_rosters(name)) for name in names),
        variant=draw(st.sampled_from(VARIANTS)),
        evidence=tuple(draw(st.lists(evidence_items, max_size=4))),
    )


class TestRoundTrip:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case_files())
    def test_generated_cases_round_trip(self, case):
        assert parse_case(serialize_case(case)) == case

    def test_parse_serialize_identity(self):
        case = parse_case(json.dumps(VALID_DOC))
        assert parse_case(serialize_case(case)) == case

    def test_builtin_round_trips(self):
        for variant in ("original", "corrected"):
            case = builtin_paper_case(variant)
            assert parse_case(serialize_case(case)) == case


class TestCodeBuiltRecords:
    """A record built in code applies the rules parse_case applies to a file."""

    WARDS = (WardRoster("A", 10, 2, 3, 1),)

    @pytest.mark.parametrize("build, message", [
        (lambda: WardRoster("A\n", 10, 2, 3, 1),
         "name must be nonempty, without commas or outer whitespace, got 'A\\n'"),
        (lambda: WardRoster("", 10, 2, 3, 1),
         "name must be nonempty, without commas or outer whitespace, got ''"),
        (lambda: WardRoster("A\x1bB", 10, 2, 3, 1),
         r"name must be printable text, got '\x1b' at index 1"),
        (lambda: WardRoster(7, 10, 2, 3, 1), "name must be a string, got 7"),
        (lambda: WardRoster("A", True, 0, 0, 0),
         "A: total_shifts must be a decimal integer, got True"),
        (lambda: WardRoster("A", 10.0, 2, 3, 1),
         "A: total_shifts must be a decimal integer, got 10.0"),
        (lambda: WardRoster("A", 10, 2, 3, None),
         "A: suspect_incidents must be a decimal integer, got None"),
        (lambda: EvidenceItem("e", 0), "lr must be positive and finite, got 0.0"),
        (lambda: EvidenceItem("e", "2"), "lr must be a number, got '2'"),
        (lambda: EvidenceItem("e", 10**400), "lr is too large"),
        (lambda: EvidenceItem("e\x00", 2.0),
         r"label must be printable text, got '\x00' at index 1"),
        (lambda: EvidenceItem("e", 2.0, "\ud800"),
         r"provenance must be printable text, got '\ud800' at index 0"),
        (lambda: CaseFile("t\x1f", "s", TestCodeBuiltRecords.WARDS),
         r"case file: case_name must be printable text, got '\x1f' at index 1"),
        (lambda: CaseFile("t", None, TestCodeBuiltRecords.WARDS),
         "case file: suspect must be a string, got None"),
        (lambda: CaseFile("t", "s", 5), "case file: wards must be an array, got 5"),
        (lambda: CaseFile("t", "s", TestCodeBuiltRecords.WARDS, evidence="E1"),
         "case file: evidence must be an array, got 'E1'"),
    ], ids=["newline-in-name", "empty-name", "escape-in-name", "name-not-a-string",
            "bool-count", "float-count", "none-count", "lr-zero", "lr-string", "lr-huge-int",
            "nul-in-label", "surrogate-in-provenance", "unit-separator-in-case-name",
            "suspect-none", "wards-not-an-array", "evidence-a-string"])
    def test_invalid_field_rejected_with_its_name(self, build, message):
        with pytest.raises(CaseValidationError) as raised:
            build()
        assert str(raised.value) == message

    def test_lr_is_held_as_a_float(self):
        item = EvidenceItem("e", 3)
        assert item.lr == 3.0 and type(item.lr) is float

    # unfiltered text, numbers of any kind: a case either fails to build or round-trips
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case_name=st.text(), suspect=st.text(), name=st.text(), label=st.text(),
           provenance=st.text(), lr=st.floats() | st.integers())
    def test_every_case_built_in_code_round_trips(self, case_name, suspect, name, label,
                                                   provenance, lr):
        try:
            case = CaseFile(case_name, suspect, (WardRoster(name, 10, 2, 3, 1),),
                            evidence=(EvidenceItem(label, lr, provenance),))
        except CaseValidationError:
            return
        assert parse_case(serialize_case(case)) == case


class TestWardRoster:
    AT_THE_BOUND = dict(total_shifts=2**53, suspect_shifts=2**52, total_incidents=2**52,
                        suspect_incidents=2**51, nurse_count=2**53)

    def test_counts_at_2_53_accepted(self):
        assert MAX_COUNT == 2**53
        WardRoster("W", **self.AT_THE_BOUND)

    @pytest.mark.parametrize("key", ["total_shifts", "suspect_shifts", "total_incidents",
                                     "suspect_incidents", "nurse_count"])
    @pytest.mark.parametrize("value", [2**53 + 1, 10**400])
    def test_counts_past_2_53_rejected(self, key, value):
        with pytest.raises(CaseValidationError) as raised:
            WardRoster("W", **dict(self.AT_THE_BOUND, **{key: value}))
        assert str(raised.value) == f"W: {key} must be at most 2**53"

    def test_case_file_count_past_2_53_rejected(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["wards"][1]["total_shifts"] = 10**400
        with pytest.raises(CaseValidationError) as raised:
            parse_case(json.dumps(doc))
        assert str(raised.value) == "RKZ-41: total_shifts must be at most 2**53"

    def test_pool_past_2_53_rejected(self):
        wards = (WardRoster("A", 2**53, 1, 1, 1), WardRoster("B", 1, 0, 0, 0))
        with pytest.raises(CaseValidationError, match=r"^A\+B: total_shifts must be at most"):
            pool_wards(CaseFile("c", "s", wards), ["A", "B"])

    @pytest.mark.parametrize("key", ["suspect_shifts", "total_incidents", "suspect_incidents"])
    def test_negative_count_names_its_field(self, key):
        counts = dict(total_shifts=10, suspect_shifts=2, total_incidents=2, suspect_incidents=1)
        with pytest.raises(CaseValidationError) as raised:
            WardRoster("A", **dict(counts, **{key: -1}))
        assert str(raised.value) == f"A: {key} must be non-negative, got -1"

    def test_rejects_incidents_beyond_other_shifts(self):
        with pytest.raises(CaseValidationError, match="other nurses"):
            WardRoster("w", total_shifts=10, suspect_shifts=8,
                       total_incidents=5, suspect_incidents=1)

    def test_rejects_suspect_incidents_over_suspect_shifts(self):
        with pytest.raises(CaseValidationError, match="suspect_shifts"):
            WardRoster("w", total_shifts=10, suspect_shifts=2,
                       total_incidents=5, suspect_incidents=3)


class TestBuiltinCase:
    def test_corrected_wards(self):
        case = builtin_paper_case("corrected")
        rows = [
            (w.total_shifts, w.suspect_shifts, w.total_incidents,
             w.suspect_incidents, w.nurse_count)
            for w in case.wards
        ]
        assert rows == [
            (1029, 142, 8, 8, 27),
            (336, 3, 5, 1, None),
            (339, 58, 14, 5, None),
        ]

    def test_original_differs_only_at_rkz41(self):
        original = builtin_paper_case("original")
        corrected = builtin_paper_case("corrected")
        assert original.ward("RKZ-41").suspect_shifts == 1
        assert corrected.ward("RKZ-41").suspect_shifts == 3
        assert original.ward("JKZ") == corrected.ward("JKZ")
        assert original.ward("RKZ-42") == corrected.ward("RKZ-42")

    def test_corrected_pools_to_rkz_totals(self):
        pool = pool_wards(builtin_paper_case("corrected"), ["RKZ-41", "RKZ-42"])
        assert (pool.total_shifts, pool.suspect_shifts,
                pool.total_incidents, pool.suspect_incidents) == (675, 61, 19, 6)
        assert pool.nurse_count is None

    def test_bad_variant(self):
        with pytest.raises(CaseValidationError):
            builtin_paper_case("fixed")


class TestPoolWards:
    def test_single_ward_identity_counts(self):
        case = builtin_paper_case("corrected")
        pool = pool_wards(case, ["RKZ-42"])
        ward = case.ward("RKZ-42")
        assert (pool.total_shifts, pool.suspect_shifts,
                pool.total_incidents, pool.suspect_incidents) == (
            ward.total_shifts, ward.suspect_shifts,
            ward.total_incidents, ward.suspect_incidents)

    def test_empty_list_rejected(self):
        with pytest.raises(CaseValidationError):
            pool_wards(builtin_paper_case("corrected"), [])

    def test_unknown_name_rejected(self):
        with pytest.raises(CaseValidationError):
            pool_wards(builtin_paper_case("corrected"), ["RKZ-43"])

    def test_order_independent(self):
        case = builtin_paper_case("corrected")
        a = pool_wards(case, ["RKZ-41", "RKZ-42"])
        b = pool_wards(case, ["RKZ-42", "RKZ-41"])
        assert (a.total_shifts, a.suspect_shifts, a.total_incidents,
                a.suspect_incidents) == (
            b.total_shifts, b.suspect_shifts, b.total_incidents,
            b.suspect_incidents)

    def test_associative_over_disjoint_lists(self):
        case = builtin_paper_case("corrected")
        all_three = pool_wards(case, ["JKZ", "RKZ-41", "RKZ-42"])
        partial = pool_wards(case, ["RKZ-41", "RKZ-42"])
        jkz = case.ward("JKZ")
        assert all_three.total_shifts == jkz.total_shifts + partial.total_shifts
        assert all_three.suspect_incidents == (
            jkz.suspect_incidents + partial.suspect_incidents)


@pytest.mark.parametrize("lookup", [
    lambda case, name: case.ward(name),
    lambda case, name: named_wards(case, ["RKZ-41", name]),
    lambda case, name: pool_wards(case, ["RKZ-41", name]),
], ids=["ward", "named_wards", "pool_wards"])
def test_unknown_ward_is_a_case_error_naming_ward_and_case(lookup):
    with pytest.raises(CaseValidationError) as info:
        lookup(builtin_paper_case("corrected"), "RKZ-43")
    assert str(info.value) == "no ward named 'RKZ-43' in case 'Lucia de B.'"


class TestPoolMemo:
    """Each case keeps its own pools, keyed by names; only valid names are kept."""

    CASE = CaseFile("memo", "s", (WardRoster("A", 100, 20, 6, 3),
                                  WardRoster("B", 80, 10, 4, 1)))

    def test_names_are_checked_after_a_pool_is_kept(self):
        pool_wards(self.CASE, ["A", "B"])
        with pytest.raises(CaseValidationError, match="named more than once"):
            pool_wards(self.CASE, ["A", "A"])
        with pytest.raises(CaseValidationError, match="list is empty"):
            pool_wards(self.CASE, [])
        with pytest.raises(CaseValidationError, match="nope"):
            pool_wards(self.CASE, ["nope"])

    def test_equal_names_with_other_counts_pool_apart(self):
        other = CaseFile("memo", "s", (WardRoster("A", 100, 20, 7, 3),
                                       WardRoster("B", 80, 10, 4, 1)))
        first, second = pool_wards(self.CASE, ["A", "B"]), pool_wards(other, ["A", "B"])
        assert (first.name, first.total_incidents) == ("A+B", 10)
        assert (second.name, second.total_incidents) == ("A+B", 11)

    LISTS = [["JKZ"], ["RKZ-41", "RKZ-42"], ["RKZ-42", "RKZ-41"], ["JKZ", "RKZ-41", "RKZ-42"]]

    def test_a_list_and_a_tuple_of_the_same_names_get_the_same_pool(self):
        case = builtin_paper_case("corrected")
        first = [pool_wards(case, names) for names in self.LISTS]
        assert all(pool_wards(case, names) is pool for names, pool in zip(self.LISTS, first))
        assert all(pool_wards(case, tuple(names)) is pool
                   for names, pool in zip(self.LISTS, first))

    def test_a_fresh_equal_case_pools_equally(self):
        pools = [pool_wards(builtin_paper_case("corrected"), names) for names in self.LISTS]
        assert [pool_wards(builtin_paper_case("corrected"), names)
                for names in self.LISTS] == pools

    def test_a_rejected_pool_keeps_nothing(self):
        big = CaseFile("big", "s", (WardRoster("A", MAX_COUNT, 1, 1, 1),
                                    WardRoster("B", MAX_COUNT, 1, 1, 1)))
        for _ in range(2):
            with pytest.raises(CaseValidationError, match="at most 2\\*\\*53"):
                pool_wards(big, ["A", "B"])

    def test_a_pool_is_released_with_its_case(self):
        case = CaseFile("gone", "s", (WardRoster("A", 90, 12, 5, 2),))
        pool = weakref.ref(pool_wards(case, ["A"]))
        del case
        gc.collect()
        assert pool() is None


class TestDefaultWardNames:
    def test_rkz_pair_in_fixed_order(self):
        doc = json.loads(json.dumps(VALID_DOC))
        rkz42 = dict(doc["wards"][1], name="RKZ-42")
        doc["wards"].insert(0, rkz42)
        case = parse_case(json.dumps(doc))
        assert [w.name for w in case.wards] == ["RKZ-42", "JKZ", "RKZ-41"]
        assert case.default_ward_names() == ["RKZ-41", "RKZ-42"]

    def test_builtin_case_uses_rkz_pair(self):
        assert builtin_paper_case("original").default_ward_names() == ["RKZ-41", "RKZ-42"]

    def test_one_rkz_ward_gives_all_wards_in_file_order(self):
        case = parse_case(json.dumps(VALID_DOC))
        assert case.default_ward_names() == ["JKZ", "RKZ-41"]

    NO_RKZ = CaseFile("c", "s", (WardRoster("W2", 200, 20, 10, 4),
                                 WardRoster("W1", 150, 30, 12, 5)))

    def test_no_rkz_ward_gives_all_wards_in_file_order(self):
        assert self.NO_RKZ.default_ward_names() == ["W2", "W1"]


def test_case_requires_unique_ward_names():
    w = WardRoster("w", 10, 2, 1, 1)
    with pytest.raises(CaseValidationError, match="unique"):
        CaseFile(case_name="x", suspect="s", wards=(w, w))


def test_case_reads_its_wards_from_any_iterable():
    w = WardRoster("w", 10, 2, 1, 1)
    assert CaseFile(case_name="x", suspect="s", wards=iter([w])).wards == (w,)
    with pytest.raises(CaseValidationError, match="at least one ward"):
        CaseFile(case_name="x", suspect="s", wards=iter([]))
