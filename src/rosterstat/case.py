"""Case-file data model: wards, counts, variants, parsing.

A case file is UTF-8 JSON with top-level keys ``case_name``, ``suspect``,
``variant`` and ``wards``; each ward object carries ``name``,
``total_shifts``, ``suspect_shifts``, ``total_incidents``,
``suspect_incidents`` and optionally ``nurse_count``. An optional top-level
``evidence`` array (objects with ``label``, ``lr``, ``provenance``) feeds
the Bayesian chain. Unknown keys are rejected.

The two data variants are first-class: the headline number in the original
analysis was computed before the RKZ-41 shift count was corrected from 1
to 3, and the two datasets must never be conflated silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from rosterstat.bayes import EvidenceItem

VARIANTS = ("original", "corrected")

JKZ = "JKZ"
RKZ_41 = "RKZ-41"
RKZ_42 = "RKZ-42"

# The largest count a ward may hold: every count up to 2**53 is exactly a
# float, so each operand the kernels convert to a float is exact.
MAX_COUNT = 2**53


class CaseValidationError(ValueError):
    """A roster or case file violates a structural invariant."""


@dataclass(frozen=True)
class WardRoster:
    """Shift and incident counts for one ward.

    total_shifts is the ward total n, suspect_shifts the suspect's r,
    total_incidents the ward total k, suspect_incidents the suspect's x.
    Every count, nurse_count included, is at most MAX_COUNT = 2**53.
    """

    name: str
    total_shifts: int
    suspect_shifts: int
    total_incidents: int
    suspect_incidents: int
    nurse_count: int | None = None

    def __post_init__(self) -> None:
        n, r = self.total_shifts, self.suspect_shifts
        k, x = self.total_incidents, self.suspect_incidents
        if n <= 0:
            raise CaseValidationError(f"{self.name}: total_shifts must be positive, got {n}")
        if r < 0 or k < 0 or x < 0:
            raise CaseValidationError(f"{self.name}: counts must be non-negative")
        for key in (*_COUNT_KEYS, "nurse_count"):
            value = getattr(self, key)
            if value is not None and value > MAX_COUNT:
                raise CaseValidationError(f"{self.name}: {key} must be at most 2**53")
        if r > n:
            raise CaseValidationError(f"{self.name}: suspect_shifts exceeds total_shifts")
        if k > n:
            raise CaseValidationError(f"{self.name}: total_incidents exceeds total_shifts")
        if x > k:
            raise CaseValidationError(f"{self.name}: suspect_incidents exceeds total_incidents")
        if x > r:
            raise CaseValidationError(f"{self.name}: suspect_incidents exceeds suspect_shifts")
        if k - x > n - r:
            raise CaseValidationError(
                f"{self.name}: other nurses' incidents exceed their shifts"
            )
        if self.nurse_count is not None and self.nurse_count <= 0:
            raise CaseValidationError(f"{self.name}: nurse_count must be positive")


@dataclass(frozen=True)
class CaseFile:
    """A named collection of ward rosters for one suspect."""

    case_name: str
    suspect: str
    wards: tuple[WardRoster, ...]
    variant: str = "corrected"
    evidence: tuple[EvidenceItem, ...] = ()

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise CaseValidationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if not self.wards:
            raise CaseValidationError("a case needs at least one ward")
        names = [w.name for w in self.wards]
        if len(set(names)) != len(names):
            raise CaseValidationError(f"ward names must be unique, got {names}")
        object.__setattr__(self, "wards", tuple(self.wards))
        object.__setattr__(self, "evidence", tuple(self.evidence))

    def ward(self, name: str) -> WardRoster:
        for w in self.wards:
            if w.name == name:
                return w
        raise KeyError(f"no ward named {name!r} in case {self.case_name!r}")

    def default_ward_names(self) -> list[str]:
        """The wards analysed when none are named.

        The RKZ pair, in the order RKZ-41, RKZ-42, when both are present,
        matching the published analysis; otherwise every ward in file order.
        """
        names = [w.name for w in self.wards]
        if RKZ_41 in names and RKZ_42 in names:
            return [RKZ_41, RKZ_42]
        return names


_COUNT_KEYS = ("total_shifts", "suspect_shifts", "total_incidents", "suspect_incidents")
_WARD_KEYS = {"name", "nurse_count", *_COUNT_KEYS}
_CASE_KEYS = {"case_name", "suspect", "variant", "wards", "evidence"}
_EVIDENCE_KEYS = {"label", "lr", "provenance"}


def _require(obj: dict, key: str, where: str, kinds: type | tuple[type, ...], what: str):
    """obj[key] if it is one of the JSON kinds given (never a boolean)."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CaseValidationError(f"{where}: {key} must be {what}, got {value!r}")
    return value


def parse_case(text: str | bytes) -> CaseFile:
    """Parse and fully validate a case file."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseValidationError(
            f"malformed case file at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise CaseValidationError("case file must be a JSON object")
    unknown = set(raw) - _CASE_KEYS
    if unknown:
        raise CaseValidationError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("case_name", "suspect", "variant", "wards"):
        if key not in raw:
            raise CaseValidationError(f"missing required key {key!r}")
    wards = []
    for i, entry in enumerate(_require(raw, "wards", "case file", list, "an array")):
        if not isinstance(entry, dict):
            raise CaseValidationError(f"ward #{i} must be an object")
        unknown = set(entry) - _WARD_KEYS
        if unknown:
            raise CaseValidationError(f"ward #{i}: unknown keys {sorted(unknown)}")
        if "name" not in entry:
            raise CaseValidationError(f"ward #{i}: missing key 'name'")
        name = _require(entry, "name", f"ward #{i}", str, "a string")
        if not name or "," in name or name != name.strip():  # --wards splits on "," and strips
            raise CaseValidationError(f"ward #{i}: name must be nonempty, without commas "
                                      f"or outer whitespace, got {name!r}")
        for key in _COUNT_KEYS:
            if key not in entry:
                raise CaseValidationError(f"{name}: missing key {key!r}")
        counts = {key: _require(entry, key, name, int, "a decimal integer")
                  for key in (*_COUNT_KEYS, "nurse_count") if key in entry}
        wards.append(WardRoster(name=name, **counts))
    evidence = []
    raw.setdefault("evidence", [])
    for i, entry in enumerate(_require(raw, "evidence", "case file", list, "an array")):
        if not isinstance(entry, dict):
            raise CaseValidationError(f"evidence #{i} must be an object")
        unknown = set(entry) - _EVIDENCE_KEYS
        if unknown:
            raise CaseValidationError(f"evidence #{i}: unknown keys {sorted(unknown)}")
        if "label" not in entry or "lr" not in entry:
            raise CaseValidationError(f"evidence #{i}: needs 'label' and 'lr'")
        where = f"evidence #{i}"
        entry.setdefault("provenance", "")
        try:
            lr = float(_require(entry, "lr", where, (int, float), "a number"))
        except OverflowError:
            raise CaseValidationError(f"{where}: lr is too large") from None
        evidence.append(EvidenceItem(
            label=_require(entry, "label", where, str, "a string"),
            lr=lr,
            provenance=_require(entry, "provenance", where, str, "a string"),
        ))
    return CaseFile(
        case_name=_require(raw, "case_name", "case file", str, "a string"),
        suspect=_require(raw, "suspect", "case file", str, "a string"),
        wards=tuple(wards),
        variant=_require(raw, "variant", "case file", str, "a string"),
        evidence=tuple(evidence),
    )


def serialize_case(case: CaseFile) -> str:
    """Render a CaseFile back to its file format (round-trips parse_case)."""
    wards = []
    for w in case.wards:
        entry = {
            "name": w.name,
            "total_shifts": w.total_shifts,
            "suspect_shifts": w.suspect_shifts,
            "total_incidents": w.total_incidents,
            "suspect_incidents": w.suspect_incidents,
        }
        if w.nurse_count is not None:
            entry["nurse_count"] = w.nurse_count
        wards.append(entry)
    doc: dict = {
        "case_name": case.case_name,
        "suspect": case.suspect,
        "variant": case.variant,
        "wards": wards,
    }
    if case.evidence:
        doc["evidence"] = [
            {"label": e.label, "lr": e.lr, "provenance": e.provenance}
            for e in case.evidence
        ]
    return json.dumps(doc, indent=2)


def builtin_paper_case(variant: str = "corrected") -> CaseFile:
    """The built-in three-ward case, in either data variant.

    The original variant records 1 suspect shift at RKZ-41; the corrected
    variant records the later-discovered 3. JKZ and RKZ-42 are identical in
    both. The evidence list carries the four independent items used in the
    published Bayesian chain.
    """
    if variant not in VARIANTS:
        raise CaseValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    rkz41_shifts = 3 if variant == "corrected" else 1
    wards = (
        WardRoster(JKZ, 1029, 142, 8, 8, nurse_count=27),
        WardRoster(RKZ_41, 336, rkz41_shifts, 5, 1),
        WardRoster(RKZ_42, 339, 58, 14, 5),
    )
    evidence = (
        EvidenceItem("E1: never confessed", 0.5, "asserted by De Vos"),
        EvidenceItem("E2: toxic substances in two patients", 50.0, "asserted by De Vos"),
        EvidenceItem("E3: 14 incidents during suspect's shifts", 7000.0, "asserted by De Vos"),
        EvidenceItem("E4: diary entry about a compulsion", 5.0, "asserted by De Vos"),
    )
    return CaseFile(
        case_name="Lucia de B.",
        suspect="Lucia",
        wards=wards,
        variant=variant,
        evidence=evidence,
    )


def named_wards(case: CaseFile, names: list[str] | tuple[str, ...]) -> list[WardRoster]:
    """The named wards of a case, in the order named.

    Raises CaseValidationError when no ward is named or one is named twice,
    and KeyError for a name the case does not have.
    """
    if not names:
        raise CaseValidationError("no ward named: the ward list is empty")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CaseValidationError(f"ward {name!r} is named more than once")
    return [case.ward(name) for name in names]


def pool_wards(case: CaseFile, names: list[str] | tuple[str, ...]) -> WardRoster:
    """Component-wise sum of the named wards' counts.

    nurse_count is dropped: it is undefined for a pool of wards.
    """
    rosters = named_wards(case, names)
    return WardRoster(
        name="+".join(names),
        total_shifts=sum(w.total_shifts for w in rosters),
        suspect_shifts=sum(w.suspect_shifts for w in rosters),
        total_incidents=sum(w.total_incidents for w in rosters),
        suspect_incidents=sum(w.suspect_incidents for w in rosters),
        nurse_count=None,
    )
