"""Survey data model for set-valued poll responses.

A respondent either names a single party (decided) or the full set of
parties they are still pondering between (undecided).  Sets are stored
as bitmasks over a fixed party registry, so a whole consideration set
fits in one machine word and subset/intersection tests are single AND
operations.

Every estimator reads a survey through its cell table (``Survey.cells``,
a ``CellTable``): the distinct (consideration set, covariate pattern)
cells, each respondent's cell and weight as columns in respondent
order, and each distinct set's raw weights.  Covariates are binary and
sets are bitmasks, so a survey has at most 2^p x (2^K - 1) cells and
usually far fewer than respondents; a bound or a forecast costs one
step per distinct set or cell plus one exactly rounded sum, not one
Python step per respondent.  ``parse_survey`` validates each distinct
parties cell and covariate tuple once and shares the resulting objects
across the rows that repeat them, so building the table costs one
identity probe per row and field.

Weighted totals use exactly rounded summation (math.fsum).  fsum
returns the correctly rounded sum of its inputs whatever their order,
so summing the concatenated weight lists of the matching sets gives the
same bits as summing the matching respondents one by one: the table
keeps each set's raw weights for that reason, not a rounded total.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

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
        for code in self.options:
            if not code:
                raise ValueError("registry codes must be nonempty")
            if "," in code or ";" in code:
                raise ValueError(f"registry code {code!r} contains ',' or ';', which separate codes")
            if code != code.strip():
                raise ValueError(f"registry code {code!r} has leading or trailing whitespace")
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
    """One weighted survey answer: a consideration set, plus covariates under a schema."""

    weight: float
    set: PartySet
    covariates: Covariates | None = None

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be positive and finite, got {self.weight}")

    @property
    def decided(self) -> bool:
        return self.set.is_singleton


@dataclass(frozen=True, eq=False)
class CellTable:
    """A survey's distinct (consideration set, covariate pattern) cells.

    ``sets`` and ``covariates`` hold each distinct set and covariate
    object once, in order of first appearance (``None`` stands for
    the respondents of a survey without a covariate schema).  Cell g
    pairs ``sets[cell_set[g]]`` with ``covariates[cell_covariates[g]]``.
    Respondent i falls in cell ``index[i]`` and weighs ``weights[i]``,
    so a cell's weights in respondent order are
    ``weights[index == g]``.  ``set_weights[j]`` lists the raw weights
    of the respondents holding ``sets[j]``, for exactly rounded sums.
    """

    sets: tuple[PartySet, ...]
    covariates: tuple[Covariates | None, ...]
    cell_set: np.ndarray
    cell_covariates: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    set_weights: tuple[list[float], ...]

    def __post_init__(self):
        for name, dtype in (("cell_set", np.intp), ("cell_covariates", np.intp), ("index", np.intp), ("weights", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("sets", "covariates", "set_weights"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @classmethod
    def of(cls, respondents) -> CellTable:
        """Group respondents into cells in one pass.

        Set and covariate objects are looked up by identity, so rows
        sharing them (as parsed and simulated rows do) cost one
        dictionary probe each; the first row holding a new object is
        matched by value.
        """
        by_mask: dict[int, tuple[PartySet, int, list[float], dict[int, int]]] = {}
        by_value: dict[Covariates | None, int] = {}
        groups: dict[int, tuple[PartySet, int, list[float], dict[int, int]]] = {}
        patterns: dict[int, int] = {}
        cell_set: list[int] = []
        cell_covariates: list[int] = []
        index: list[int] = []
        weights: list[float] = []
        for r in respondents:
            ps, cov = r.set, r.covariates
            try:
                _, si, set_weights, cells_of_set = groups[id(ps)]
            except KeyError:
                group = by_mask.setdefault(ps.mask, (ps, len(by_mask), [], {}))
                _, si, set_weights, cells_of_set = groups[id(ps)] = group
            try:
                ci = patterns[id(cov)]
            except KeyError:
                ci = patterns[id(cov)] = by_value.setdefault(cov, len(by_value))
            g = cells_of_set.get(ci)
            if g is None:
                g = cells_of_set[ci] = len(cell_set)
                cell_set.append(si)
                cell_covariates.append(ci)
            set_weights.append(r.weight)
            index.append(g)
            weights.append(r.weight)
        return cls(
            [ps for ps, _, _, _ in by_mask.values()],
            list(by_value),
            cell_set,
            cell_covariates,
            index,
            weights,
            [ws for _, _, ws, _ in by_mask.values()],
        )

    def design_rows(self, category_of_set, n_covariates: int):
        """Design arrays of the respondents whose set has a category, in respondent order.

        ``category_of_set[j]`` is the category of ``sets[j]``, or -1 to
        leave its respondents out.  Returns ``x`` (an intercept column,
        then the covariate values), ``y`` (the category) and ``w`` (the
        weight).
        """
        cell_category = np.asarray(category_of_set, dtype=np.intp)[self.cell_set]
        keep = np.flatnonzero(cell_category[self.index] >= 0)
        cells = self.index[keep]
        x = self.pattern_rows(n_covariates)[self.cell_covariates[cells]]
        return x, cell_category[cells], self.weights[keep]

    def pattern_rows(self, n_covariates: int) -> np.ndarray:
        """One design row per ``covariates`` entry: 1.0, then its values."""
        rows = [(1, *cov.values) if cov is not None else (1,) for cov in self.covariates]
        return np.array(rows, dtype=float).reshape(len(rows), 1 + n_covariates)


@dataclass(frozen=True)
class Survey:
    """One poll wave: a registry, a covariate schema, and weighted respondents.

    A respondent has covariates exactly when the schema is nonempty,
    and they carry the schema's names; construction checks this once
    per distinct covariate object, so no estimator has to.  ``cells``
    is the survey's cell table, built from ``respondents``; every
    estimator reads it instead of the respondents.
    """

    registry: PartyRegistry
    schema: tuple[str, ...]
    respondents: tuple[Respondent, ...]
    wave: str = ""
    dropped_rows: int = 0
    total_weight: float = field(init=False, compare=False)
    cells: CellTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "respondents", tuple(self.respondents))
        cells = CellTable.of(self.respondents)
        if not all(ps.fits(self.registry) for ps in cells.sets):
            raise ValueError("respondent set references options outside the registry")
        if any((cov.names if cov is not None else ()) != self.schema for cov in cells.covariates):
            raise ValueError("respondent covariates do not match the survey schema")
        total = math.fsum(chain.from_iterable(cells.set_weights))
        if self.respondents and total <= 0:
            raise ValueError("total weight must be positive")
        object.__setattr__(self, "total_weight", total)
        object.__setattr__(self, "cells", cells)

    def __len__(self) -> int:
        return len(self.respondents)

    @property
    def n_undecided(self) -> int:
        cells = self.cells
        return sum(len(ws) for ps, ws in zip(cells.sets, cells.set_weights) if not ps.is_singleton)

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
    """Each CSV record of ``text`` with the physical line it starts on.

    A quoted field may span lines, so a record's line is counted in
    physical lines, not records.  Strict mode rejects a quote left open
    at the end of the document instead of reading the rest of the file
    into one field; a malformed document raises SurveyFormatError
    naming the line the malformed record starts on, which for an open
    quote is where the quote opened, not the end of the file.
    """
    reader = csv.reader(io.StringIO(text), strict=True)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", line=start) from None


def _parse_parties(cell: str, registry: PartyRegistry, lineno: int) -> PartySet | None:
    """The set a parties cell names, or None if it names a code outside the registry."""
    codes = [c.strip() for c in cell.split(";") if c.strip()]
    if not codes:
        raise SurveyFormatError("empty parties cell", line=lineno)
    if len(set(codes)) != len(codes):
        raise SurveyFormatError(f"party code repeated in {cell!r}", line=lineno)
    if any(code not in registry for code in codes):
        return None
    return registry.set_of(codes)


def _parse_covariates(cells: tuple[str, ...], schema: tuple[str, ...], lineno: int) -> Covariates | None:
    if not schema:
        return None
    for label, cell in zip(schema, cells):
        if cell not in ("0", "1"):
            raise SurveyFormatError(f"covariate {label!r} must be 0 or 1, got {cell!r}", line=lineno)
    return Covariates(tuple(int(cell) for cell in cells), schema)


def parse_survey(text: str, registry: PartyRegistry, schema) -> Survey:
    """Parse a survey CSV document.

    Expected header: ``weight,parties,<one column per schema label>``.
    The ``parties`` cell holds semicolon-separated registry codes.  Rows
    naming a code outside the registry are dropped and counted (the
    analysis is restricted to the registered options, and truncating a
    consideration set would change its meaning).  Structural problems
    (malformed CSV such as an unterminated quote, bad weight,
    non-binary covariate, empty parties cell, a code repeated within one
    cell) raise SurveyFormatError with the physical line the offending
    row starts on (a quoted field may span lines).  A leading UTF-8
    byte order mark, as spreadsheet exports write it, is skipped.

    Each distinct parties cell and each distinct tuple of covariate
    cells is validated once, at its first row, and the resulting
    PartySet and Covariates objects are shared by every row repeating
    it, so the survey's cell table groups the rows by identity.  There
    is one memo per field, not one per whole row: sets and covariate
    patterns repeat far more often than whole rows do.
    """
    schema = tuple(schema)
    reader = _csv_rows(text.removeprefix("\ufeff"))
    try:
        _, header = next(reader)
    except StopIteration:
        raise SurveyFormatError("empty document, expected a header row") from None
    expected = ["weight", "parties", *schema]
    if header != expected:
        raise SurveyFormatError(f"header {header!r} does not match expected {expected!r}", line=1)

    width = len(expected)
    # Parties cell -> its set, or None to drop the row.  Spellings of one
    # set (``A;B``, ``B;A``) share the object kept in by_mask.
    parties: dict[str, PartySet | None] = {}
    by_mask: dict[int, PartySet] = {}
    # Covariate cells -> their Covariates.
    patterns: dict[tuple[str, ...], Covariates | None] = {}
    respondents: list[Respondent] = []
    dropped = 0
    for lineno, row in reader:
        if not row:
            continue
        if len(row) != width:
            raise SurveyFormatError(f"expected {width} columns, got {len(row)}", line=lineno)
        try:
            weight = float(row[0])
        except ValueError:
            raise SurveyFormatError(f"weight {row[0]!r} is not a number", line=lineno) from None
        if not (math.isfinite(weight) and weight > 0):
            raise SurveyFormatError(f"weight must be positive and finite, got {row[0]}", line=lineno)
        try:
            ps = parties[row[1]]
        except KeyError:
            ps = _parse_parties(row[1], registry, lineno)
            ps = parties[row[1]] = None if ps is None else by_mask.setdefault(ps.mask, ps)
        if ps is None:
            dropped += 1
            continue
        key = tuple(row[2:])
        try:
            cov = patterns[key]
        except KeyError:
            cov = patterns[key] = _parse_covariates(key, schema, lineno)
        respondents.append(Respondent(weight, ps, cov))
    return Survey(registry, schema, respondents, dropped_rows=dropped)


def survey_to_csv(s: Survey) -> str:
    """Serialize back to the parse_survey CSV format."""
    cells = s.cells
    parties = [";".join(s.registry.codes_of(ps)) for ps in cells.sets]
    # "01"[int(v)] reuses the interpreter's one-character strings, where
    # str(v) would allocate one per value, and writes 1.0 or True as 1.
    values = [["01"[int(v)] for v in cov.values] if s.schema else [] for cov in cells.covariates]
    cell_set = cells.cell_set.tolist()
    cell_covariates = cells.cell_covariates.tolist()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["weight", "parties", *s.schema])
    writer.writerows(
        [repr(r.weight), parties[cell_set[g]], *values[cell_covariates[g]]]
        for r, g in zip(s.respondents, cells.index.tolist())
    )
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
    cells = s.cells
    undecided = [ws for ps, ws in zip(cells.sets, cells.set_weights) if not ps.is_singleton]
    n_und = sum(map(len, undecided))
    w_und = math.fsum(chain.from_iterable(undecided))
    return n_und / len(s.respondents), w_und / s.total_weight


def group_counts(s: Survey, top: int | None = None) -> dict[PartySet, tuple[int, float]]:
    """Distinct consideration sets with (count, total weight), biggest first.

    Ties in count are ordered by the registry-index lexicographic order
    of the set, so output is deterministic across runs.
    """
    cells = s.cells
    groups = sorted(zip(cells.sets, cells.set_weights), key=lambda g: (-len(g[1]), g[0].sort_key()))
    if top is not None:
        groups = groups[:top]
    return {ps: (len(ws), math.fsum(ws)) for ps, ws in groups}


def validate(s: Survey) -> SurveyDiagnostics:
    """Compute a diagnostics report; never mutates and never raises."""
    n = len(s.respondents)
    if n:
        unw, wgt = undecided_share(s)
    else:
        unw = wgt = 0.0
    cells = s.cells
    option_counts = {
        code: sum(len(ws) for ps, ws in zip(cells.sets, cells.set_weights) if ps.contains_index(i))
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
