import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosterstat.bayes import EvidenceItem
from rosterstat.case import (
    MAX_COUNT,
    VARIANTS,
    CaseFile,
    CaseValidationError,
    WardRoster,
    builtin_paper_case,
    parse_case,
    pool_wards,
    serialize_case,
)
from rosterstat.poisson_model import conditional_binomial_test, estimate_mu

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

    def test_invariant_violation_names_ward_and_field(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["wards"][0]["suspect_shifts"] = 2000
        with pytest.raises(CaseValidationError, match="JKZ.*suspect_shifts exceeds total_shifts"):
            parse_case(json.dumps(doc))

    def test_malformed_syntax_reports_line(self):
        with pytest.raises(CaseValidationError, match="line"):
            parse_case('{"case_name": "x",\n  "oops\n}')

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
    ], ids=["wards", "evidence", "case_name", "suspect", "variant", "ward-name",
            "label", "provenance", "lr-string", "lr-bool", "lr-huge-int"])
    def test_wrong_json_type_rejected(self, path, value, message):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["evidence"] = [{"label": "E1", "lr": 0.5, "provenance": "expert"},
                           {"label": "E2", "lr": 50}]
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(CaseValidationError, match=message):
            parse_case(json.dumps(doc))


@st.composite
def ward_rosters(draw, name):
    n = draw(st.integers(1, 5000))
    r = draw(st.integers(0, n))
    k = draw(st.integers(0, n))
    x = draw(st.integers(max(0, k - (n - r)), min(r, k)))
    nurse_count = draw(st.none() | st.integers(1, 500))
    return WardRoster(name, n, r, k, x, nurse_count=nurse_count)


evidence_items = st.builds(
    EvidenceItem,
    label=st.text(max_size=20),
    lr=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    provenance=st.text(max_size=20),
)


@st.composite
def case_files(draw):
    # the ward names parse_case accepts: nonempty, no comma, no outer whitespace
    selectable = st.text(min_size=1, max_size=10).filter(
        lambda name: "," not in name and name == name.strip())
    names = draw(st.lists(selectable, min_size=1, max_size=4, unique=True))
    return CaseFile(
        case_name=draw(st.text(max_size=20)),
        suspect=draw(st.text(max_size=20)),
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
        with pytest.raises(KeyError):
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

    def test_methods_default_to_these_wards(self):
        case, names = self.NO_RKZ, ["W2", "W1"]
        for basis in ("exclude_suspect", "include_suspect"):
            assert estimate_mu(case, basis) == estimate_mu(case, basis, names)
        assert conditional_binomial_test(case) == conditional_binomial_test(case, names)


def test_case_requires_unique_ward_names():
    w = WardRoster("w", 10, 2, 1, 1)
    with pytest.raises(CaseValidationError, match="unique"):
        CaseFile(case_name="x", suspect="s", wards=(w, w))
