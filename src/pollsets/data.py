"""Survey data model for set-valued poll responses.

A respondent either names a single party (decided) or the full set of
parties they are still pondering between (undecided).  Sets are stored
as bitmasks over a fixed party registry, so a whole consideration set
fits in one machine word and subset/intersection tests are single AND
operations.

A survey is stored as its cell table (``Survey.cells``, a
``CellTable``): the distinct (consideration set, covariate pattern)
cells, each respondent's cell and weight as float64 columns in
respondent order, and each set's count and exact weight sum.
Covariates are binary and sets are bitmasks, so a survey has at most
2^p x (2^K - 1) cells and usually far fewer than respondents; a bound or a forecast costs one step per
distinct set or cell plus one exactly rounded sum, not one Python step
per respondent.  The distinct covariate patterns are the rows of one
read-only 0/1 ``uint8`` matrix (``CellTable.patterns``), so a design
matrix is that matrix behind an intercept column.  Every producer of a
survey hands ``CellTable.build`` its rows as columns (weights, set
bitmasks, 0/1 covariate rows), and ``build`` alone numbers the sets,
covariate patterns and cells; no object is made per row or per
covariate pattern.  A clean file, with any number of covariates, is
read by a columnar scan: numpy finds each block's newlines and commas,
the covariates come out as one 0/1 matrix, parties cells are numbered
by integer keys, and each distinct parties cell is validated once.
Anything else goes through the row parser, a ``csv.reader`` loop with
one memo per field, which stays the reference for the format's
semantics, error messages and line numbers.

Weighted totals are exactly rounded, as ``math.fsum`` rounds them.
``exact_sums`` adds float64 weights per group into Python integers
without rounding (every finite float64 is an integer multiple of
2**-1126), and ``rounded`` turns the sum of any union of groups into a
float by one correctly rounded integer division.  The result does not
depend on the order of the respondents, so a total summed per set
carries the same bits as one summed respondent by respondent; the
table keeps each set's exact sum for that reason, not a rounded total.
``weighted_total`` rounds a sum of such sums times factors in [0, 1]
once, so an estimator counting each set at a fraction of its weight
never goes back to the respondents.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_REGISTRY = 32
_BINARY = frozenset((0, 1))


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
class Respondent:
    """One weighted survey answer: a consideration set, plus 0/1 covariate values in schema order.

    ``covariates`` is None for a survey without a covariate schema.
    """

    weight: float
    set: PartySet
    covariates: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be positive and finite, got {self.weight}")


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in order of first appearance.

    Returns each element's number and, for each number, the position of
    the first element holding it.  Integer keys whose range is no wider
    than their count are numbered through a table with one slot per value
    in that range, in linear time; any other keys are sorted.
    """
    n = len(keys)
    if n and keys.dtype.kind in "iu":
        low = keys.min()
        if int(keys.max()) - int(low) < n:
            slot = (keys - low).astype(np.intp)
            span = int(slot.max()) + 1
            first = np.full(span, n)
            np.minimum.at(first, slot, np.arange(n))
            is_first = np.zeros(n, dtype=bool)
            is_first[first[first < n]] = True
            first = np.flatnonzero(is_first)
            number = np.empty(span, dtype=np.intp)
            number[slot[first]] = np.arange(len(first))
            return number[slot], first
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, inverse, np.arange(len(keys)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


# Exact sums.  A nonzero finite float64 is M * 2**(e - 53), where M is
# its frexp mantissa scaled to an integer below 2**53 and e >= -1073 (the
# smallest subnormal, 2**-1074, has e = -1073).  So every float64 is an
# integer number of units of 2**-1126, and a sum of them is a Python int.
_UNIT_EXP = 1126
_HALF_BITS = 26
# bincount adds its weights as float64, exactly while every partial sum
# is an integer below 2**53: the high halves are below 2**27, so one
# pass takes fewer than 2**26 values.
_EXACT_ROWS = 1 << 25


def exact_sums(values: np.ndarray, groups: np.ndarray | None = None, n_groups: int = 1) -> list[int]:
    """Each group's exact sum of the finite float64 ``values``, in units of 2**-1126.

    Value i belongs to group ``groups[i]`` (group 0 if ``groups`` is
    None).  Each mantissa is split into halves of at most 27 bits, which
    ``np.bincount`` adds exactly per (group, exponent); the buckets are
    then shifted into place as Python ints.  ``rounded`` of the sum over
    any union of groups equals ``math.fsum`` of their values bit for bit.
    """
    values = np.asarray(values, dtype=float)
    groups = np.zeros(len(values), np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    sums = [0] * n_groups
    for start in range(0, len(values), _EXACT_ROWS):
        mantissa, exponent = np.frexp(values[start : start + _EXACT_ROWS])
        scaled = np.ldexp(mantissa, 53).astype(np.int64)
        low = int(exponent.min())
        span = int(exponent.max()) - low + 1
        key = groups[start : start + _EXACT_ROWS] * span + (exponent - low)
        buckets = None
        if n_groups * span > 2 * len(key):
            buckets, key = np.unique(key, return_inverse=True)
        bins = n_groups * span if buckets is None else len(buckets)
        high = np.bincount(key, weights=scaled >> _HALF_BITS, minlength=bins)
        low_half = np.bincount(key, weights=scaled & ((1 << _HALF_BITS) - 1), minlength=bins)
        used = np.flatnonzero((high != 0) | (low_half != 0))
        for b, h, l in zip(used.tolist(), high[used].tolist(), low_half[used].tolist()):
            g, e = divmod(b if buckets is None else int(buckets[b]), span)
            sums[g] += ((int(h) << _HALF_BITS) + int(l)) << (e + low + _UNIT_EXP - 53)
    return sums


def rounded(total: int) -> float:
    """The float nearest an exact sum from ``exact_sums`` (ties to even), as math.fsum rounds.

    Raises OverflowError if it lies beyond the largest float.
    """
    return total / (1 << _UNIT_EXP)


_FACTOR_EXP = 1074


def weighted_total(sums, factors) -> float:
    """The float nearest the exact total of ``factors[j] * sums[j]`` (ties to even).

    ``sums`` are exact sums from ``exact_sums``.  A factor, a float in
    [0, 1], is num / 2**d with d <= 1074, so each product is a whole
    number of units of 2**-(1126 + 1074), and the total is rounded once.
    Raises OverflowError, as ``rounded`` does.
    """
    whole = part = 0
    for total, f in zip(sums, factors):
        if f == 1.0:
            whole += total
        elif f:
            num, den = f.as_integer_ratio()
            part += total * num << (_FACTOR_EXP + 1 - den.bit_length())
    if not part:
        return rounded(whole)
    return ((whole << _FACTOR_EXP) + part) / (1 << (_UNIT_EXP + _FACTOR_EXP))


@dataclass(frozen=True, eq=False)
class CellTable:
    """A survey's distinct (consideration set, covariate pattern) cells.

    ``sets`` holds each distinct set once and ``patterns`` each distinct
    covariate pattern once, as the rows of a read-only (n_patterns, p)
    ``uint8`` 0/1 matrix (p = 0 for a survey without a covariate
    schema), both in order of first appearance.  Cell g pairs
    ``sets[cell_set[g]]`` with ``patterns[cell_pattern[g]]``; cells are
    numbered in order of first appearance too.  Respondent i
    falls in cell ``index[i]`` and weighs ``weights[i]``, so a cell's
    weights in respondent order are ``weights[index == g]``.
    ``set_counts[j]`` respondents hold ``sets[j]``, and their weights'
    exact sum (see ``exact_sums``) is ``set_sums[j]``.  Two tables are
    equal when they describe equal respondents in the same order.
    """

    sets: tuple[PartySet, ...]
    patterns: np.ndarray
    cell_set: np.ndarray
    cell_pattern: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    set_counts: np.ndarray
    set_sums: tuple[int, ...]

    def __post_init__(self):
        for name, dtype in (
            ("patterns", np.uint8),
            ("cell_set", np.intp),
            ("cell_pattern", np.intp),
            ("index", np.intp),
            ("weights", float),
            ("set_counts", np.intp),
        ):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("sets", "set_sums"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @classmethod
    def build(cls, weights: np.ndarray, masks: np.ndarray, patterns: np.ndarray) -> CellTable:
        """Number the sets, covariate patterns and cells of rows, and group the rows into cells.

        Row i weighs ``weights[i]`` (a float64 column), holds the set
        whose bitmask is ``masks[i]`` (an int64 column) and has covariate
        values ``patterns[i]``, a row of an (n, p) 0/1 ``uint8`` matrix.
        This is the one place that numbers sets, patterns and cells, each
        in order of first appearance among the rows.  A pattern is keyed
        by its bits packed into one int64 when they fit, else by its bytes.
        """
        weights = np.asarray(weights, dtype=float)
        masks = np.asarray(masks, dtype=np.int64)
        set_id, first = first_appearance(masks)
        sets = [PartySet(mask) for mask in masks[first].tolist()]
        del masks
        patterns = np.ascontiguousarray(patterns, dtype=np.uint8)
        p = patterns.shape[1]
        if p < 64:
            keys = patterns @ (1 << np.arange(p, dtype=np.int64))
        else:
            keys = patterns.view(np.dtype((np.void, p))).ravel()
        pattern_id, first = first_appearance(keys)
        del keys
        patterns = patterns[first]
        index, first = first_appearance(set_id * len(patterns) + pattern_id)
        return cls(
            sets,
            patterns,
            set_id[first],
            pattern_id[first],
            index,
            weights,
            np.bincount(set_id, minlength=len(sets)),
            exact_sums(weights, set_id, len(sets)),
        )

    def __eq__(self, other):
        if not isinstance(other, CellTable):
            return NotImplemented
        return self.sets == other.sets and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("patterns", "cell_set", "cell_pattern", "index", "weights")
        )

    def rows(self):
        """Each respondent's (weight, set, covariate values), in respondent order."""
        patterns = list(map(tuple, self.patterns.tolist()))
        cells = [(self.sets[j], patterns[c]) for j, c in zip(self.cell_set.tolist(), self.cell_pattern.tolist())]
        for w, g in zip(self.weights.tolist(), self.index.tolist()):
            yield (w, *cells[g])

    def design_rows(self, category_of_set):
        """Design arrays of the respondents whose set has a category, in respondent order.

        ``category_of_set[j]`` is the category of ``sets[j]``, or -1 to
        leave its respondents out.  Returns ``x`` (an intercept column,
        then the covariate values), ``y`` (the category) and ``w`` (the
        weight).
        """
        cell_category = np.asarray(category_of_set, dtype=np.intp)[self.cell_set]
        keep = np.flatnonzero(cell_category[self.index] >= 0)
        cells = self.index[keep]
        x = self.pattern_rows()[self.cell_pattern[cells]]
        return x, cell_category[cells], self.weights[keep]

    def pattern_rows(self) -> np.ndarray:
        """One design row per covariate pattern: 1.0, then its values."""
        return np.hstack((np.ones((len(self.patterns), 1)), self.patterns))


def _group_by_value(rows, schema: tuple[str, ...]) -> CellTable:
    """The cell table of (weight, set, covariates) rows.

    Covariates are a sequence of 0/1 values in schema order, or None
    for a survey without a schema.  This is where covariates that do not
    come from a parser are checked, once per distinct value.
    """
    patterns: dict[tuple, int] = {}
    weights, masks = array("d"), array("q")
    pattern_ids = []
    for weight, ps, cov in rows:
        weights.append(weight)
        try:
            masks.append(ps.mask)
        except OverflowError:  # no registry holds a 64th option
            raise ValueError("respondent set references options outside the registry") from None
        try:
            pattern_ids.append(patterns.setdefault(() if cov is None else tuple(cov), len(patterns)))
        except TypeError:  # an unhashable or scalar value is not 0 or 1 either
            raise ValueError("covariates must be binary 0/1") from None
    for values in patterns:
        if len(values) != len(schema):
            raise ValueError("respondent covariates do not match the survey schema")
        if not set(values) <= _BINARY:
            raise ValueError("covariates must be binary 0/1")
    matrix = np.array(list(patterns), dtype=np.uint8).reshape(len(patterns), len(schema))
    return CellTable.build(weights, masks, matrix[pattern_ids])


@dataclass(frozen=True, init=False)
class Survey:
    """One poll wave: a registry, a covariate schema, and weighted respondents.

    The survey stores its respondents as a cell table (``cells``), which
    every estimator reads.  Schema labels are unique, and the table's
    covariate patterns have one column per label; construction checks
    this once, so no estimator has to.
    """

    registry: PartyRegistry
    schema: tuple[str, ...]
    cells: CellTable = field(repr=False)
    wave: str = ""
    dropped_rows: int = 0
    total_weight: float = field(compare=False)

    def __init__(self, registry: PartyRegistry, schema, respondents, wave: str = "", dropped_rows: int = 0):
        """A survey of ``respondents``, whose equal sets and covariates share one cell-table entry."""
        schema = tuple(schema)
        cells = _group_by_value(((r.weight, r.set, r.covariates) for r in respondents), schema)
        self._store(registry, schema, cells, wave, dropped_rows)

    @classmethod
    def from_cells(
        cls, registry: PartyRegistry, schema, cells: CellTable, wave: str = "", dropped_rows: int = 0
    ) -> Survey:
        """A survey stored as ``cells``, with the same checks as the constructor."""
        survey = object.__new__(cls)
        survey._store(registry, schema, cells, wave, dropped_rows)
        return survey

    def _store(self, registry, schema, cells, wave, dropped_rows):
        schema = tuple(schema)
        repeated = [label for label, count in Counter(schema).items() if count > 1]
        if repeated:
            raise ValueError(f"schema labels must be unique, got {repeated[0]!r} more than once")
        if not all(ps.fits(registry) for ps in cells.sets):
            raise ValueError("respondent set references options outside the registry")
        if cells.patterns.shape[1] != len(schema):
            raise ValueError("respondent covariates do not match the survey schema")
        try:
            total = rounded(sum(cells.set_sums))
        except OverflowError:
            raise ValueError("total weight exceeds the largest float") from None
        if len(cells.weights) and total <= 0:
            raise ValueError("total weight must be positive")
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "wave", wave)
        object.__setattr__(self, "dropped_rows", dropped_rows)
        object.__setattr__(self, "total_weight", total)

    def __len__(self) -> int:
        return len(self.cells.weights)

    @property
    def n_undecided(self) -> int:
        cells = self.cells
        return sum(n for ps, n in zip(cells.sets, cells.set_counts.tolist()) if not ps.is_singleton)

    @property
    def n_decided(self) -> int:
        return len(self) - self.n_undecided


@dataclass(frozen=True)
class SurveyDiagnostics:
    """Read-only summary emitted by validate()."""

    n: int
    total_weight: float
    undecided_unweighted: float
    undecided_weighted: float
    dropped_rows: int
    option_counts: dict[str, int]


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


_BITS = {"0": 0, "1": 1}


def _parse_covariates(cells: tuple[str, ...], schema: tuple[str, ...], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(map(_BITS.__getitem__, cells))
    except KeyError:
        label, cell = next((label, cell) for label, cell in zip(schema, cells) if cell not in _BITS)
        raise SurveyFormatError(f"covariate {label!r} must be 0 or 1, got {cell!r}", line=lineno) from None


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

    A clean document, with no quote, carriage return or blank line and
    every row well formed, is read by a columnar scan over its bytes
    (``_parse_clean``).  Any other document, and any document that scan
    declines, goes through the row parser (``_parse_rows``), which
    defines the format: its semantics, its error messages and their line
    numbers.  Both give equal surveys wherever the scan accepts.
    """
    schema = tuple(schema)
    survey = _parse_clean(text, registry, schema)
    if survey is None:
        survey = _parse_rows(text, registry, schema)
    return survey


def _parse_rows(text: str, registry: PartyRegistry, schema: tuple[str, ...]) -> Survey:
    """Parse a survey CSV document row by row through ``csv.reader``.

    Each kept row appends its weight, its set's bitmask and an id of
    its tuple of covariate cells, and ``CellTable.build`` numbers the
    rows' sets and patterns.  Each distinct parties cell and each
    distinct tuple of covariate cells is validated once, at its first
    row; there is one memo per field, not one per whole row, since sets
    and covariate patterns repeat far more often than whole rows do.
    """
    expected = ["weight", "parties", *schema]
    width = len(expected)
    # Parties cell -> its set's bitmask, or 0 to drop the row.
    parties: dict[str, int] = {}
    # Covariate cells -> id; values[id] holds their 0/1 values.
    patterns: dict[tuple[str, ...], int] = {}
    values: list[tuple[int, ...]] = []
    weights, masks = array("d"), array("q")
    pattern_ids: list[int] = []
    dropped = 0
    # Strict mode rejects a quote left open at the end of the document
    # instead of reading the rest of the file into one field.  A record
    # is reported at the physical line it starts on: for an open quote,
    # where the quote opened, not the end of the file.
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")), strict=True)
    start = 1
    try:
        header = next(reader, None)
        if header is None:
            raise SurveyFormatError("empty document, expected a header row")
        if header != expected:
            raise SurveyFormatError(f"header {header!r} does not match expected {expected!r}", line=1)
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != width:
                raise SurveyFormatError(f"expected {width} columns, got {len(row)}", line=lineno)
            try:
                weight = float(row[0])
            except ValueError:
                raise SurveyFormatError(f"weight {row[0]!r} is not a number", line=lineno) from None
            if not 0.0 < weight < math.inf:
                raise SurveyFormatError(f"weight must be positive and finite, got {row[0]}", line=lineno)
            try:
                mask = parties[row[1]]
            except KeyError:
                ps = _parse_parties(row[1], registry, lineno)
                mask = parties[row[1]] = 0 if ps is None else ps.mask
            if not mask:
                dropped += 1
                continue
            key = tuple(row[2:])
            try:
                ci = patterns[key]
            except KeyError:
                values.append(_parse_covariates(key, schema, lineno))
                ci = patterns[key] = len(values) - 1
            weights.append(weight)
            masks.append(mask)
            pattern_ids.append(ci)
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", line=start) from None
    matrix = np.array(values, dtype=np.uint8).reshape(len(values), len(schema))
    cells = CellTable.build(weights, masks, matrix[pattern_ids])
    return Survey.from_cells(registry, schema, cells, dropped_rows=dropped)


# The columnar scan reads a document in blocks of whole lines of about
# this many characters, so its per-block index arrays stay small beside
# the survey it builds.
_BLOCK_CHARS = 1 << 18
# A padded column of weight or parties cells may hold at most this many
# bytes per byte of its block; a block with one far longer cell declines.
_PAD_RATIO = 8


def _parse_clean(text: str, registry: PartyRegistry, schema: tuple[str, ...]) -> Survey | None:
    """Parse a clean survey CSV in one columnar pass over its bytes, or return None.

    ``_scan_block`` finds the cells of each block of lines with numpy;
    each distinct parties cell goes through ``_parse_parties`` once.
    The kept rows' weights, set bitmasks and covariate rows go to
    ``CellTable.build``, as the row parser's do.

    Returns a survey equal to ``_parse_rows``'s, or None wherever the
    document is not clean (a quote, a carriage return, a NUL, a blank
    line, a wrong column count, any cell the row parser would reject,
    a non-binary covariate even on a dropped row, a field over
    ``csv.field_size_limit()``, no data rows) or its shape does not
    suit the scan.  It reports no fault in the rows: the row parser is
    the one place that explains one.  Only ``Survey``'s own checks on the
    finished table (unique schema labels, a finite total weight) raise,
    with the error the row parser's survey would raise.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    text = text.removeprefix("\ufeff")
    head = text.find("\n")
    if head < 0 or text[:head].split(",") != ["weight", "parties", *schema]:
        return None
    limit = csv.field_size_limit()
    if any(len(label) > limit for label in schema):
        return None
    # Parties cell -> its set's bitmask, or 0 to drop the row.
    parties: dict[bytes, int] = {}
    weights, masks, bits = [], [], []
    rows = 0
    pos = head + 1
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        scanned = _scan_block(text[pos:end], len(schema), limit)
        pos = end
        if scanned is None:
            return None
        row_weights, distinct, number, row_bits = scanned
        for cell in distinct:
            if cell not in parties:
                try:
                    # The line is never reported: a fault declines the scan.
                    ps = _parse_parties(cell.decode(), registry, 0)
                except (UnicodeDecodeError, SurveyFormatError):
                    return None
                parties[cell] = 0 if ps is None else ps.mask
        mask = np.array([parties[cell] for cell in distinct], dtype=np.int64)[number]
        keep = mask != 0
        if not keep.all():
            row_weights, mask, row_bits = row_weights[keep], mask[keep], row_bits[keep]
        rows += len(number)
        weights.append(row_weights)
        masks.append(mask)
        bits.append(row_bits)
    if not rows:
        return None
    # The joined columns replace the blocks' arrays before the table is built.
    weights, masks, bits = map(np.concatenate, (weights, masks, bits))
    cells = CellTable.build(weights, masks, bits)
    return Survey.from_cells(registry, schema, cells, dropped_rows=rows - len(weights))


def _scan_block(chunk: str, p: int, limit: int) -> tuple[np.ndarray, list[bytes], np.ndarray, np.ndarray] | None:
    """Each data row's weight, parties cell and covariate values, or None.

    ``chunk`` holds whole lines of rows with ``p`` covariates.  Every
    row must have exactly ``p + 1`` commas, a weight that ``float``
    takes and that is positive and finite, and each covariate cell one
    byte ``0`` or ``1``.  Weight and parties cells come from padded
    ``S`` arrays.  Returns the weights, the distinct parties cells in
    order of first appearance, each row's number into them, and the
    covariates as an (rows, p) 0/1 ``uint8`` matrix.
    """
    try:
        data = chunk.encode()
    except UnicodeEncodeError:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(buf == 44)
    rows = len(ends)
    if len(commas) != rows * (p + 1):
        return None
    # Commas are sorted, so a row whose first comma follows its start and
    # whose last comma precedes its end holds exactly its p + 1 commas.
    commas = commas.reshape(rows, p + 1)
    if not (np.all(commas[:, 0] > starts) and np.all(commas[:, -1] < ends)):
        return None
    field_ends = np.concatenate((commas[:, 1:], ends[:, None]), axis=1)
    if not np.all(field_ends[:, 1:] - commas[:, 1:] == 2):
        return None
    bits = buf[commas[:, 1:] + 1] - 48  # "0" -> 0, "1" -> 1; any other byte wraps above 1
    if not np.all(bits <= 1):
        return None
    weight_len = commas[:, 0] - starts
    parties_len = field_ends[:, 0] - commas[:, 0] - 1
    if max(weight_len.max(), parties_len.max()) > limit:
        return None
    weight_cells = _padded(buf, starts, weight_len)
    parties_cells = _padded(buf, commas[:, 0] + 1, parties_len, word=8)
    if weight_cells is None or parties_cells is None:
        return None
    try:
        weights = np.fromiter(map(float, weight_cells.tolist()), float, rows)
    except ValueError:
        return None
    if not np.all((weights > 0.0) & (weights < math.inf)):
        return None
    number, first = _number_cells(parties_cells)
    return weights, parties_cells[first].tolist(), number, bits


def _padded(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, word: int = 1) -> np.ndarray | None:
    """The cells ``buf[starts[i]:starts[i] + lengths[i]]`` as one NUL-padded ``S`` array.

    Its width is a multiple of ``word`` bytes, so each cell is a whole
    number of ``word``-byte words.  None if the padded array would exceed
    ``_PAD_RATIO`` bytes per byte of ``buf``.
    """
    width = -(-int(lengths.max()) // word) * word
    if width == 0 or len(starts) * width > _PAD_RATIO * len(buf):
        return None
    windows = sliding_window_view(np.concatenate((buf, np.zeros(width, np.uint8))), width)
    out = windows[starts]
    out *= np.arange(width) < lengths[:, None]
    return out.view(f"S{width}").ravel()


def _number_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``first_appearance`` of the padded cells of an ``S`` array, keyed by integers.

    A cell of one 8-byte word is its own key.  Longer cells are keyed by
    ``_cell_hash`` of their words, and every cell is compared with the
    first cell of its key; if a hash collision made any of them differ,
    the cells are numbered by their bytes instead.
    """
    words = cells.view(np.uint64).reshape(len(cells), -1)
    if words.shape[1] == 1:
        return first_appearance(words[:, 0])
    number, first = first_appearance(_cell_hash(words))
    if not np.array_equal(words, words[first[number]]):
        return first_appearance(cells)
    return number, first


def _cell_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a 2-D ``uint64`` array."""
    key = words[:, 0].copy()
    for column in words.T[1:]:
        key ^= column
        key *= np.uint64(0x9E3779B97F4A7C15)
    return key


def survey_to_csv(s: Survey) -> str:
    """Serialize back to the parse_survey CSV format."""
    cells = s.cells
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(["weight", "parties", *s.schema])
    # Each cell's text after the weight is built once: its parties cell,
    # quoted as csv.writer quotes it, and its pattern as "0,1,...", made
    # for all patterns at once as one byte matrix with the bits at even columns.
    cell_text = [_csv_field(";".join(s.registry.codes_of(ps))) for ps in cells.sets]
    cell_text = [cell_text[j] for j in cells.cell_set.tolist()]
    p = cells.patterns.shape[1]
    if p:
        text = np.full((len(cells.patterns), 2 * p - 1), ord(","), np.uint8)
        text[:, ::2] = cells.patterns + ord("0")
        values = [v.decode() for v in text.view(f"S{2 * p - 1}").ravel().tolist()]
        cell_text = [f"{t},{values[c]}" for t, c in zip(cell_text, cells.cell_pattern.tolist())]
    if len(cells.weights):
        rows = map("{!r},{}".format, cells.weights.tolist(), map(cell_text.__getitem__, cells.index.tolist()))
        out.write("\n".join(rows) + "\n")
    return out.getvalue()


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


def survey_to_json(s: Survey) -> str:
    """Serialize to JSON; covariates are written as 0/1 integers, or null without a schema."""
    cells = s.cells
    parties = [list(s.registry.codes_of(ps)) for ps in cells.sets]
    covariates = cells.patterns.tolist() if s.schema else [None] * len(cells.patterns)
    cell_set = cells.cell_set.tolist()
    cell_pattern = cells.cell_pattern.tolist()
    doc = {
        "registry": list(s.registry.options),
        "schema": list(s.schema),
        "respondents": [
            {"weight": w, "parties": parties[cell_set[g]], "covariates": covariates[cell_pattern[g]]}
            for w, g in zip(cells.weights.tolist(), cells.index.tolist())
        ],
        "wave": s.wave,
    }
    return json.dumps(doc, indent=2) + "\n"


def survey_from_json(text: str) -> Survey:
    """Read a survey_to_json document; equal sets and covariate patterns share one table entry."""
    doc = json.loads(text)
    registry = PartyRegistry(tuple(doc["registry"]))
    schema = tuple(doc["schema"])

    def rows():
        for rec in doc["respondents"]:
            weight = float(rec["weight"])
            ps = registry.set_of(rec["parties"])
            if not 0.0 < weight < math.inf:
                raise ValueError(f"weight must be positive and finite, got {weight}")
            yield weight, ps, rec.get("covariates")

    return Survey.from_cells(registry, schema, _group_by_value(rows(), schema), wave=doc.get("wave", ""))


def undecided_share(s: Survey) -> tuple[float, float]:
    """Unweighted and weighted fraction of undecided respondents."""
    if not len(s):
        raise ValueError("undecided_share of an empty survey")
    cells = s.cells
    w_und = rounded(sum(total for ps, total in zip(cells.sets, cells.set_sums) if not ps.is_singleton))
    return s.n_undecided / len(s), w_und / s.total_weight


def group_counts(s: Survey, top: int | None = None) -> dict[PartySet, tuple[int, float]]:
    """Distinct consideration sets with (count, total weight), biggest first.

    Ties in count are ordered by the registry-index lexicographic order
    of the set, so output is deterministic across runs.  ``top`` keeps
    the first ``top`` groups and must be nonnegative.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    cells = s.cells
    counts = cells.set_counts.tolist()
    groups = sorted(range(len(cells.sets)), key=lambda j: (-counts[j], cells.sets[j].sort_key()))
    if top is not None:
        groups = groups[:top]
    return {cells.sets[j]: (counts[j], rounded(cells.set_sums[j])) for j in groups}


def validate(s: Survey) -> SurveyDiagnostics:
    """Compute a diagnostics report; never mutates and never raises."""
    n = len(s)
    if n:
        unw, wgt = undecided_share(s)
    else:
        unw = wgt = 0.0
    cells = s.cells
    option_counts = {
        code: sum(n for ps, n in zip(cells.sets, cells.set_counts.tolist()) if ps.contains_index(i))
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
