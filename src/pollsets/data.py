"""Survey data model for set-valued poll responses.

A respondent either names a single party (decided) or the full set of
parties they are still pondering between (undecided).  Sets are stored
as bitmasks over a fixed party registry, so a whole consideration set
fits in one machine word and subset/intersection tests are single AND
operations.

All types are immutable after construction and safe to share across
threads.  Weighted totals use exactly rounded summation (math.fsum) so
aggregate statistics do not depend on respondent order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

MAX_REGISTRY = 32


class SurveyFormatError(ValueError):
    """Raised when a survey document cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PartyRegistry:
    """Ordered, fixed set of party codes all indices refer to."""

    options: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        if not 2 <= len(self.options) <= MAX_REGISTRY:
            raise ValueError(f"registry must hold 2..{MAX_REGISTRY} options, got {len(self.options)}")
        if any(not code for code in self.options):
            raise ValueError("registry codes must be nonempty")
        if len(set(self.options)) != len(self.options):
            raise ValueError("registry codes must be unique")
        object.__setattr__(self, "_index", {code: i for i, code in enumerate(self.options)})

    def __len__(self) -> int:
        return len(self.options)

    def __contains__(self, code: str) -> bool:
        return code in self._index

    def index(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise KeyError(f"unknown party code {code!r}") from None

    def set_of(self, codes) -> PartySet:
        """Build a PartySet from an iterable of registered codes."""
        mask = 0
        for code in codes:
            mask |= 1 << self.index(code)
        return PartySet(mask)

    def singleton(self, code: str) -> PartySet:
        return PartySet(1 << self.index(code))

    def full_set(self) -> PartySet:
        return PartySet((1 << len(self.options)) - 1)

    def codes_of(self, s: PartySet) -> tuple[str, ...]:
        return tuple(self.options[i] for i in s.indices())

    def label_of(self, s: PartySet) -> str:
        return "+".join(self.codes_of(s))


@dataclass(frozen=True, order=False)
class PartySet:
    """Nonempty set of registry options, stored as a bitmask."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError("party set must be nonempty")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_singleton(self) -> bool:
        return self.mask & (self.mask - 1) == 0

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def contains_index(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def issubset(self, other: PartySet) -> bool:
        return self.mask & ~other.mask == 0

    def intersects(self, other: PartySet) -> bool:
        return self.mask & other.mask != 0

    def intersection_size(self, other: PartySet) -> int:
        return (self.mask & other.mask).bit_count()

    def sort_key(self) -> tuple[int, ...]:
        """Registry-index lexicographic key; the deterministic tie order."""
        return self.indices()

    def fits(self, registry: PartyRegistry) -> bool:
        return self.mask < (1 << len(registry))


@dataclass(frozen=True)
class Covariates:
    """Binary covariate vector with its shared label sequence."""

    values: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.values) != len(self.names):
            raise ValueError("covariate values and names differ in length")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("covariates must be binary 0/1")


@dataclass(frozen=True)
class Respondent:
    """One weighted survey answer: a consideration set plus optional covariates."""

    weight: float
    set: PartySet
    covariates: Covariates | None = None

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be positive and finite, got {self.weight}")

    @property
    def decided(self) -> bool:
        return self.set.is_singleton


@dataclass(frozen=True)
class Survey:
    """One poll wave: a registry, a covariate schema, and weighted respondents."""

    registry: PartyRegistry
    schema: tuple[str, ...]
    respondents: tuple[Respondent, ...]
    wave: str = ""
    dropped_rows: int = 0
    total_weight: float = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "respondents", tuple(self.respondents))
        for r in self.respondents:
            if not r.set.fits(self.registry):
                raise ValueError("respondent set references options outside the registry")
            if r.covariates is not None and r.covariates.names != self.schema:
                raise ValueError("respondent covariates do not match the survey schema")
        total = math.fsum(r.weight for r in self.respondents)
        if self.respondents and total <= 0:
            raise ValueError("total weight must be positive")
        object.__setattr__(self, "total_weight", total)

    def __len__(self) -> int:
        return len(self.respondents)

    @property
    def n_undecided(self) -> int:
        return sum(1 for r in self.respondents if not r.decided)

    @property
    def n_decided(self) -> int:
        return len(self.respondents) - self.n_undecided


@dataclass(frozen=True)
class SurveyDiagnostics:
    """Read-only summary emitted by validate()."""

    n: int
    total_weight: float
    undecided_unweighted: float
    undecided_weighted: float
    dropped_rows: int
    option_counts: dict[str, int]


def _csv_rows(text: str):
    """CSV records of ``text``; a malformed document raises SurveyFormatError."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", line=reader.line_num) from None


def parse_survey(text: str, registry: PartyRegistry, schema) -> Survey:
    """Parse a survey CSV document.

    Expected header: ``weight,parties,<one column per schema label>``.
    The ``parties`` cell holds semicolon-separated registry codes.  Rows
    naming a code outside the registry are dropped and counted (the
    analysis is restricted to the registered options, and truncating a
    consideration set would change its meaning).  Structural problems
    (malformed CSV, bad weight, non-binary covariate, empty parties
    cell, a code repeated within one cell) raise SurveyFormatError with
    the offending line number.  A leading UTF-8 byte order mark, as
    spreadsheet exports write it, is skipped.
    """
    schema = tuple(schema)
    reader = _csv_rows(text.removeprefix("\ufeff"))
    try:
        header = next(reader)
    except StopIteration:
        raise SurveyFormatError("empty document, expected a header row") from None
    expected = ["weight", "parties", *schema]
    if header != expected:
        raise SurveyFormatError(f"header {header!r} does not match expected {expected!r}", line=1)

    respondents: list[Respondent] = []
    dropped = 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise SurveyFormatError(f"expected {len(expected)} columns, got {len(row)}", line=lineno)
        try:
            weight = float(row[0])
        except ValueError:
            raise SurveyFormatError(f"weight {row[0]!r} is not a number", line=lineno) from None
        if not (math.isfinite(weight) and weight > 0):
            raise SurveyFormatError(f"weight must be positive and finite, got {row[0]}", line=lineno)
        codes = [c.strip() for c in row[1].split(";") if c.strip()]
        if not codes:
            raise SurveyFormatError("empty parties cell", line=lineno)
        if len(set(codes)) != len(codes):
            raise SurveyFormatError(f"party code repeated in {row[1]!r}", line=lineno)
        if any(code not in registry for code in codes):
            dropped += 1
            continue
        values = []
        for label, cell in zip(schema, row[2:]):
            if cell not in ("0", "1"):
                raise SurveyFormatError(f"covariate {label!r} must be 0 or 1, got {cell!r}", line=lineno)
            values.append(int(cell))
        cov = Covariates(tuple(values), schema) if schema else None
        respondents.append(Respondent(weight, registry.set_of(codes), cov))
    return Survey(registry, schema, tuple(respondents), dropped_rows=dropped)


def survey_to_csv(s: Survey) -> str:
    """Serialize back to the parse_survey CSV format."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["weight", "parties", *s.schema])
    for r in s.respondents:
        cells = [repr(r.weight), ";".join(s.registry.codes_of(r.set))]
        if s.schema:
            if r.covariates is None:
                raise ValueError("cannot serialize a respondent without covariates under a nonempty schema")
            cells.extend(str(v) for v in r.covariates.values)
        writer.writerow(cells)
    return out.getvalue()


def survey_to_json(s: Survey) -> str:
    doc = {
        "registry": list(s.registry.options),
        "schema": list(s.schema),
        "respondents": [
            {
                "weight": r.weight,
                "parties": list(s.registry.codes_of(r.set)),
                "covariates": list(r.covariates.values) if r.covariates is not None else None,
            }
            for r in s.respondents
        ],
        "wave": s.wave,
    }
    return json.dumps(doc, indent=2) + "\n"


def survey_from_json(text: str) -> Survey:
    doc = json.loads(text)
    registry = PartyRegistry(tuple(doc["registry"]))
    schema = tuple(doc["schema"])
    respondents = []
    for rec in doc["respondents"]:
        cov = None
        if rec.get("covariates") is not None:
            cov = Covariates(tuple(rec["covariates"]), schema)
        respondents.append(Respondent(float(rec["weight"]), registry.set_of(rec["parties"]), cov))
    return Survey(registry, schema, tuple(respondents), wave=doc.get("wave", ""))


def undecided_share(s: Survey) -> tuple[float, float]:
    """Unweighted and weighted fraction of undecided respondents."""
    if not s.respondents:
        raise ValueError("undecided_share of an empty survey")
    n_und = s.n_undecided
    w_und = math.fsum(r.weight for r in s.respondents if not r.decided)
    return n_und / len(s.respondents), w_und / s.total_weight


def group_counts(s: Survey, top: int | None = None) -> dict[PartySet, tuple[int, float]]:
    """Distinct consideration sets with (count, total weight), biggest first.

    Ties in count are ordered by the registry-index lexicographic order
    of the set, so output is deterministic across runs.
    """
    counts: dict[PartySet, int] = {}
    weights: dict[PartySet, list[float]] = {}
    for r in s.respondents:
        counts[r.set] = counts.get(r.set, 0) + 1
        weights.setdefault(r.set, []).append(r.weight)
    ordered = sorted(counts, key=lambda ps: (-counts[ps], ps.sort_key()))
    if top is not None:
        ordered = ordered[:top]
    return {ps: (counts[ps], math.fsum(weights[ps])) for ps in ordered}


def validate(s: Survey) -> SurveyDiagnostics:
    """Compute a diagnostics report; never mutates and never raises."""
    n = len(s.respondents)
    if n:
        unw, wgt = undecided_share(s)
    else:
        unw = wgt = 0.0
    option_counts = {
        code: sum(1 for r in s.respondents if r.set.contains_index(i))
        for i, code in enumerate(s.registry.options)
    }
    return SurveyDiagnostics(
        n=n,
        total_weight=s.total_weight,
        undecided_unweighted=unw,
        undecided_weighted=wgt,
        dropped_rows=s.dropped_rows,
        option_counts=option_counts,
    )
