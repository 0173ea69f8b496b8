"""Case-file data model: wards, counts, evidence, variants, parsing.

A case file is UTF-8 JSON with top-level keys ``case_name``, ``suspect``,
``variant`` and ``wards``; each ward object carries ``name``,
``total_shifts``, ``suspect_shifts``, ``total_incidents``,
``suspect_incidents`` and optionally ``nurse_count``. An optional top-level
``evidence`` array (objects with ``label``, ``lr``, ``provenance``) feeds
the Bayesian chain (``rosterstat.bayes`` imports EvidenceItem from here).

WardRoster, EvidenceItem and CaseFile each check every field they hold, in
code or from a file, so parse_case reads back all that serialize_case writes.
parse_case checks only the document: its syntax (NaN, Infinity, -Infinity and
a repeated key are rejected), each object's keys, and where each entry is.

The two data variants are first-class: the headline number in the original
analysis was computed before the RKZ-41 shift count was corrected from 1
to 3, and the two datasets must never be conflated silently.

Each case keeps its pooled rosters, keyed by the ward names, so the pooled
methods of one analysis share one pool, which is freed with its case.

serialize_case writes a case back as an indented case file: every field of
CaseFile, WardRoster and EvidenceItem in its declaration order (so
``variant`` follows ``wards``), leaving out a ward's ``nurse_count`` when it
is None and ``evidence`` when it is empty.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass

VARIANTS = ("original", "corrected")

JKZ = "JKZ"
RKZ_41 = "RKZ-41"
RKZ_42 = "RKZ-42"

# The largest count a ward may hold: every count up to 2**53 is exactly a
# float, so each operand the kernels convert to a float is exact.
MAX_COUNT = 2**53


class CaseValidationError(ValueError):
    """A roster or case file violates a structural invariant."""


class _Unplaced(CaseValidationError):
    """A field's error that leaves out where the field is, which parse_case adds."""


# What parse_case passes a record for a key left out, for a key given as null
# (not read as left out) and for an integer literal past int()'s digit limit.
_ABSENT, _NULL, _TOO_LONG = object(), object(), object()
# a C0, DEL or C1 control character, or a lone surrogate, which UTF-8 cannot encode
_NOT_TEXT = re.compile(r"[\x00-\x1f\x7f-\x9f\ud800-\udfff]")


def _kind(key: str, value: object, kinds: type | tuple[type, ...], what: str) -> None:
    """Reject value unless it is one of the JSON kinds given (never a boolean)."""
    if value is _ABSENT:
        raise _Unplaced(f"missing key {key!r}")
    if value is _TOO_LONG:
        raise _Unplaced(f"{key} is an integer with too many digits to read")
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise _Unplaced(f"{key} must be {what}, got {None if value is _NULL else value!r}")


def _text(key: str, value: object) -> None:
    """Reject value unless it is a string that a report can print as it is."""
    _kind(key, value, str, "a string")
    if bad := _NOT_TEXT.search(value):
        raise _Unplaced(f"{key} must be printable text, got {bad[0]!r} at index {bad.start()}")


@dataclass(frozen=True)
class WardRoster:
    """Shift and incident counts for one ward.

    total_shifts is the ward total n, suspect_shifts the suspect's r,
    total_incidents the ward total k, suspect_incidents the suspect's x.
    Every count, nurse_count included, is an int of at most MAX_COUNT = 2**53.
    """

    name: str
    total_shifts: int
    suspect_shifts: int
    total_incidents: int
    suspect_incidents: int
    nurse_count: int | None = None

    def __post_init__(self) -> None:
        name = self.name
        _kind("name", name, str, "a string")
        if not name or "," in name or name != name.strip():  # --wards splits on "," and strips
            raise _Unplaced(f"name must be nonempty, without commas or outer whitespace, "
                            f"got {name!r}")
        _text("name", name)
        try:
            for key in list(self.__dataclass_fields__)[1:]:  # the counts after the name
                value = getattr(self, key)
                if value is not None or key != "nurse_count":
                    _kind(key, value, int, "a decimal integer")
                    if value > MAX_COUNT:
                        raise _Unplaced(f"{key} must be at most 2**53")
            n, r = self.total_shifts, self.suspect_shifts
            k, x = self.total_incidents, self.suspect_incidents
            if n <= 0:
                raise _Unplaced(f"total_shifts must be positive, got {n}")
            for key, value in (("suspect_shifts", r), ("total_incidents", k),
                               ("suspect_incidents", x)):
                if value < 0:
                    raise _Unplaced(f"{key} must be non-negative, got {value}")
            for failed, why in ((r > n, "suspect_shifts exceeds total_shifts"),
                                (k > n, "total_incidents exceeds total_shifts"),
                                (x > k, "suspect_incidents exceeds total_incidents"),
                                (x > r, "suspect_incidents exceeds suspect_shifts"),
                                (k - x > n - r, "other nurses' incidents exceed their shifts")):
                if failed:
                    raise _Unplaced(why)
            if self.nurse_count is not None and self.nurse_count <= 0:
                raise _Unplaced("nurse_count must be positive")
        except _Unplaced as exc:
            raise CaseValidationError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class EvidenceItem:
    """One piece of evidence with its asserted likelihood ratio, held as a float."""

    label: str
    lr: float
    provenance: str = ""

    def __post_init__(self) -> None:
        _text("label", self.label)
        _kind("lr", self.lr, (int, float), "a number")
        try:
            lr = float(self.lr)
        except OverflowError:
            raise _Unplaced("lr is too large") from None
        if not 0.0 < lr < math.inf:
            raise _Unplaced(f"lr must be positive and finite, got {lr!r}")
        object.__setattr__(self, "lr", lr)
        _text("provenance", self.provenance)


@dataclass(frozen=True)
class CaseFile:
    """A named collection of ward rosters for one suspect, indexed by ward name."""

    case_name: str
    suspect: str
    wards: tuple[WardRoster, ...]
    variant: str = "corrected"
    evidence: tuple[EvidenceItem, ...] = ()

    def __post_init__(self) -> None:
        try:
            for key in ("wards", "evidence"):  # a list, a tuple or an iterator
                _kind(key, getattr(self, key), (list, tuple, Iterator), "an array")
                object.__setattr__(self, key, tuple(getattr(self, key)))
            _text("case_name", self.case_name)
            _text("suspect", self.suspect)
            _kind("variant", self.variant, str, "a string")
        except _Unplaced as exc:
            raise CaseValidationError(f"case file: {exc}") from None
        if self.variant not in VARIANTS:
            raise CaseValidationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.wards:
            raise CaseValidationError("a case needs at least one ward")
        by_name = {w.name: w for w in self.wards}
        if len(by_name) != len(self.wards):
            raise CaseValidationError(
                f"ward names must be unique, got {[w.name for w in self.wards]}")
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_pools", {})

    def ward(self, name: str) -> WardRoster:
        w = self._by_name.get(name)
        if w is None:
            raise CaseValidationError(f"no ward named {name!r} in case {self.case_name!r}")
        return w

    def default_ward_names(self) -> list[str]:
        """The wards analysed when none are named.

        The RKZ pair, in the order RKZ-41, RKZ-42, when both are present,
        matching the published analysis; otherwise every ward in file order.
        """
        names = [w.name for w in self.wards]
        if RKZ_41 in names and RKZ_42 in names:
            return [RKZ_41, RKZ_42]
        return names


def _absent(record: type) -> dict[str, object]:
    """_ABSENT for each key a file must give: each field not defaulting to None, "" or ()."""
    return {key: _ABSENT for key, field in record.__dataclass_fields__.items()
            if field.default is MISSING or field.default not in (None, "", ())}


def _read_int(literal: str) -> int | object:
    """json.loads's parse_int: the records name the field of a _TOO_LONG literal."""
    try:
        return int(literal)
    except ValueError:
        return _TOO_LONG


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is rejected, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                break
            seen.add(key)
        name, label = obj.get("name"), obj.get("label")
        where = (f"{name}: " if isinstance(name, str) and not _NOT_TEXT.search(name) else
                 f"evidence {label!r}: " if isinstance(label, str) else "")
        raise CaseValidationError(f"{where}key {key!r} is repeated")
    return obj


def _no_constant(token: str) -> float:
    """json.loads reads NaN, Infinity and -Infinity; strict JSON has no such token."""
    raise CaseValidationError(f"case file uses {token}, which is not strict JSON")


def not_utf8(exc: UnicodeDecodeError) -> CaseValidationError:
    """The rejection of case-file bytes that do not decode as UTF-8."""
    return CaseValidationError(f"case file is not UTF-8 text: byte "
                               f"{exc.object[exc.start]:#04x} at offset {exc.start}"
                               f" ({exc.reason})")


def _records(record: type, entries: list, where: str) -> tuple:
    """A case-file array as records; a message places its entry as ``where #i``."""
    records = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CaseValidationError(f"{where} #{i} must be an object")
        if unknown := entry.keys() - record.__dataclass_fields__.keys():
            raise CaseValidationError(f"{where} #{i}: unknown keys {sorted(unknown)}")
        nulls = {key: _NULL for key, value in entry.items() if value is None}
        try:
            records.append(record(**_absent(record) | entry | nulls))
        except _Unplaced as exc:
            raise CaseValidationError(f"{where} #{i}: {exc}") from None
    return tuple(records)


def parse_case(text: str | bytes) -> CaseFile:
    """Parse and fully validate a case file; bytes must be UTF-8 text."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise not_utf8(exc) from None
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant,
                         parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise CaseValidationError(
            f"malformed case file at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise CaseValidationError("case file nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise CaseValidationError("case file must be a JSON object")
    if unknown := raw.keys() - CaseFile.__dataclass_fields__.keys():
        raise CaseValidationError(f"unknown top-level keys: {sorted(unknown)}")
    for key in _absent(CaseFile):
        if key not in raw:
            raise CaseValidationError(f"missing required key {key!r}")
    for key, record in (("wards", WardRoster), ("evidence", EvidenceItem)):
        if isinstance(raw.get(key), list):  # CaseFile names any other kind
            raw[key] = _records(record, raw[key], key.removesuffix("s"))  # ward #i
    return CaseFile(**raw)


def serialize_case(case: CaseFile) -> str:
    """Render a CaseFile back to its file format (round-trips parse_case)."""
    doc = asdict(case)
    for ward in doc["wards"]:
        if ward["nurse_count"] is None:
            del ward["nurse_count"]
    if not doc["evidence"]:
        del doc["evidence"]
    return json.dumps(doc, indent=2)


def builtin_paper_case(variant: str = "corrected") -> CaseFile:
    """The built-in three-ward case, in either data variant.

    The original variant records 1 suspect shift at RKZ-41; the corrected
    variant records the later-discovered 3. JKZ and RKZ-42 are identical in
    both. The evidence list carries the four independent items used in the
    published Bayesian chain.
    """
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

    Raises CaseValidationError when no ward is named, one is named twice,
    or one is a name the case does not have.
    """
    if not names:
        raise CaseValidationError("no ward named: the ward list is empty")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise CaseValidationError(f"ward {name!r} is named more than once")
        seen.add(name)
    return [case.ward(name) for name in names]


def pool_wards(case: CaseFile, names: list[str] | tuple[str, ...]) -> WardRoster:
    """Component-wise sum of the named wards' counts, kept in the case.

    nurse_count is dropped: it is undefined for a pool of wards.
    """
    key = tuple(names)
    pool = case._pools.get(key)
    if pool is None:
        rosters = named_wards(case, key)
        pool = case._pools[key] = WardRoster(
            name="+".join(w.name for w in rosters),
            total_shifts=sum(w.total_shifts for w in rosters),
            suspect_shifts=sum(w.suspect_shifts for w in rosters),
            total_incidents=sum(w.total_incidents for w in rosters),
            suspect_incidents=sum(w.suspect_incidents for w in rosters),
            nurse_count=None,
        )
    return pool
