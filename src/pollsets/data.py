"""Survey data model for set-valued poll responses.

A respondent either names a single party (decided) or the full set of
parties they are still pondering between (undecided).  Sets are stored
as bitmasks over a fixed party registry, so a whole consideration set
fits in one machine word and subset/intersection tests are single AND
operations.

A survey is its cell table: ``Survey`` stores the distinct
(consideration set, covariate pattern) cells, each respondent's cell
and weight as columns in respondent order, and each set's count and
exact weight sum.  Covariates are binary and sets are bitmasks, so a
survey has at most 2^p x (2^K - 1) cells and usually far fewer than
respondents; a bound or a forecast costs one step per distinct set or
cell plus one exactly rounded sum, not one Python step per respondent.
The distinct covariate patterns are the rows of one read-only 0/1
``uint8`` matrix (``Survey.patterns``).  Every producer of a survey
hands ``Survey.build`` its rows as columns (weights, set bitmasks, 0/1
covariate rows), and ``build`` alone numbers the sets, covariate
patterns and cells, in key order (``key_order``); a model design keeps
those pattern numbers (``Survey.design_groups``).  No object is made
per row or per covariate pattern.  A clean file, with any number of
covariates, is read by a columnar scan: one numpy pass finds each
block's commas and newlines, the covariates come out as one
0/1 matrix, a plain decimal weight (at most 16 bytes of ASCII digits,
1 to 15 of them, and at most one ".") is decoded by array passes into
the float ``float`` gives, any other weight goes through ``float`` on
its bytes, parties cells are numbered by integer keys, and each
distinct parties cell is validated once.
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


class UnknownPartyError(ValueError):
    """Raised when a list of party codes names a code outside the registry."""


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

    def index(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise KeyError(f"unknown party code {code!r}") from None

    def set_of(self, codes) -> PartySet:
        """The set a list of party codes names; the one check on such a list, wherever it comes from.

        Codes are stripped and empty ones skipped; those left must be
        nonempty, distinct and registered.  A fault raises ValueError
        (UnknownPartyError for an unregistered code) that does not say
        where the list came from: each reader adds that.
        """
        codes = [code for code in map(str.strip, codes) if code]
        repeated = [code for code, count in Counter(codes).items() if count > 1]
        unknown = [code for code in codes if code not in self._index]
        if not codes:
            raise ValueError("no party codes")
        if repeated:
            raise ValueError(f"party code {repeated[0]!r} repeated")
        if unknown:
            raise UnknownPartyError(f"unknown party code {unknown[0]!r}")
        return PartySet(sum(1 << self._index[code] for code in codes))

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


def key_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's number among the distinct values of the 1-D ``keys``, in increasing order, and those values.

    Integer keys whose range is smaller than their count are numbered
    through a presence table, in linear time; any others by ``np.unique``.
    """
    n = len(keys)
    if n and keys.dtype.kind in "iu":
        smallest = int(np.argmin(keys))
        if int(keys.max()) - int(keys[smallest]) < n:
            # Differences modulo 2**64 are exact below the range.
            wide = keys.astype(np.uint64)
            slot = (wide - wide[smallest]).astype(np.intp)
            present = np.zeros(n, dtype=bool)
            present[slot] = True
            distinct = (wide[smallest] + np.flatnonzero(present).astype(np.uint64)).astype(keys.dtype)
            return np.cumsum(present, dtype=np.intp)[slot] - 1, distinct
    distinct, number = np.unique(keys, return_inverse=True)
    return number, distinct


def number_patterns(bits) -> tuple[np.ndarray, np.ndarray]:
    """``key_order`` of the rows of an (n, p) 0/1 matrix: each row's number, and the distinct rows as ``uint8``.

    A row is keyed by its bits packed into one int64, first column
    highest, or by its bytes when p >= 64: key order is lexicographic order.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    p = bits.shape[1]
    if p < 64:
        place = np.arange(p - 1, -1, -1, dtype=np.int64)
        number, distinct = key_order(bits @ (1 << place))
        return number, (distinct[:, None] >> place & 1).astype(np.uint8)
    number, distinct = key_order(bits.view(np.dtype((np.void, p))).ravel())
    return number, distinct.view(np.uint8).reshape(len(distinct), p)


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


def _columns(rows, schema: tuple[str, ...]) -> tuple[array, array, np.ndarray]:
    """The weights, set bitmasks and 0/1 covariate matrix of (weight, set, covariates) rows.

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
    return weights, masks, matrix[pattern_ids]


# Survey's array fields and their dtypes; equal surveys have equal arrays.
_ARRAYS = (
    ("patterns", np.uint8),
    ("cell_set", np.intp),
    ("cell_pattern", np.intp),
    ("index", np.intp),
    ("weights", float),
    ("set_counts", np.intp),
)


@dataclass(frozen=True, init=False, eq=False)
class Survey:
    """One poll wave: a registry, a covariate schema, and its distinct (consideration set, covariate pattern) cells.

    ``sets`` holds each distinct set once, by increasing bitmask, and
    ``patterns`` each distinct covariate pattern once, as the rows of a
    read-only (n_patterns, p) ``uint8`` 0/1 matrix (p = 0 for a survey
    without a covariate schema) in lexicographic order.  Cell g pairs
    ``sets[cell_set[g]]`` with ``patterns[cell_pattern[g]]``; cells are
    ordered by set, then pattern.  Respondent i falls in cell
    ``index[i]`` and weighs ``weights[i]``, so a cell's weights in
    respondent order are ``weights[index == g]``.  ``set_counts[j]``
    respondents hold ``sets[j]``, and their weights' exact sum (see
    ``exact_sums``) is ``set_sums[j]``.  The arrays are read-only.

    Schema labels are unique, and ``patterns`` has one column per label;
    construction checks this once, so no estimator has to.  Two surveys
    are equal when they have equal registries, schemas, waves and dropped
    rows, and describe equal respondents in the same order.
    """

    registry: PartyRegistry
    schema: tuple[str, ...]
    sets: tuple[PartySet, ...] = field(repr=False)
    patterns: np.ndarray = field(repr=False)
    cell_set: np.ndarray = field(repr=False)
    cell_pattern: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    set_counts: np.ndarray = field(repr=False)
    set_sums: tuple[int, ...] = field(repr=False)
    wave: str = ""
    dropped_rows: int = 0
    total_weight: float

    def __init__(self, registry: PartyRegistry, schema, respondents, wave: str = "", dropped_rows: int = 0):
        """A survey of ``respondents``: their ``_columns``, then ``Survey.build``."""
        schema = tuple(schema)
        columns = _columns(((r.weight, r.set, r.covariates) for r in respondents), schema)
        # Frozen: the built survey's fields are taken over whole.
        self.__dict__.update(Survey.build(registry, schema, *columns, wave, dropped_rows).__dict__)

    @classmethod
    def build(
        cls, registry: PartyRegistry, schema, weights, masks, patterns, wave: str = "", dropped_rows: int = 0
    ) -> Survey:
        """The survey of rows given as columns; the one place that numbers sets, covariate patterns and cells.

        Row i weighs ``weights[i]`` (a float64 column), holds the set
        whose bitmask is ``masks[i]`` (an int64 column) and has covariate
        values ``patterns[i]``, a row of an (n, p) 0/1 ``uint8`` matrix.
        Each is numbered in key order (``key_order``): a set by its
        bitmask, a pattern by ``number_patterns``, and a cell by set
        number x n_patterns + pattern number.
        """
        schema = tuple(schema)
        weights = np.asarray(weights, dtype=float)
        set_id, masks = key_order(np.asarray(masks, dtype=np.int64))
        pattern_id, patterns = number_patterns(patterns)
        index, cells = key_order(set_id * len(patterns) + pattern_id)
        sets = tuple(PartySet(mask) for mask in masks.tolist())
        repeated = [label for label, count in Counter(schema).items() if count > 1]
        if repeated:
            raise ValueError(f"schema labels must be unique, got {repeated[0]!r} more than once")
        if not all(ps.fits(registry) for ps in sets):
            raise ValueError("respondent set references options outside the registry")
        if patterns.shape[1] != len(schema):
            raise ValueError("respondent covariates do not match the survey schema")
        set_sums = tuple(exact_sums(weights, set_id, len(masks)))
        try:
            total = rounded(sum(set_sums))
        except OverflowError:
            raise ValueError("total weight exceeds the largest float") from None
        if len(weights) and total <= 0:
            raise ValueError("total weight must be positive")
        survey = object.__new__(cls)
        arrays = (patterns, *np.divmod(cells, max(len(patterns), 1)), index, weights, np.bincount(set_id))
        for (name, dtype), values in zip(_ARRAYS, arrays):
            survey.__dict__[name] = values = np.array(values, dtype=dtype)
            values.flags.writeable = False
        survey.__dict__.update(
            registry=registry, schema=schema, sets=sets, set_sums=set_sums, wave=wave, dropped_rows=dropped_rows,
            total_weight=total,
        )
        return survey

    def __eq__(self, other):
        if not isinstance(other, Survey):
            return NotImplemented
        names = ("registry", "schema", "wave", "dropped_rows", "sets")
        return all(getattr(self, name) == getattr(other, name) for name in names) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in _ARRAYS
        )

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def n_undecided(self) -> int:
        return sum(n for ps, n in zip(self.sets, self.set_counts.tolist()) if not ps.is_singleton)

    @property
    def n_decided(self) -> int:
        return len(self) - self.n_undecided

    def rows(self):
        """Each respondent's (weight, set, covariate values), in respondent order."""
        patterns = list(map(tuple, self.patterns.tolist()))
        cells = [(self.sets[j], patterns[c]) for j, c in zip(self.cell_set.tolist(), self.cell_pattern.tolist())]
        for w, g in zip(self.weights.tolist(), self.index.tolist()):
            yield (w, *cells[g])

    def design_groups(self, category_of_set):
        """The respondents whose set has a category, in respondent order, by covariate pattern.

        ``category_of_set[j]`` is the category of ``sets[j]``, or -1 to
        leave its respondents out.  Returns each kept respondent's number
        among the patterns the kept hold, those patterns in key order,
        and each kept respondent's category and weight.
        """
        cell_category = np.asarray(category_of_set, dtype=np.intp)[self.cell_set]
        keep = np.flatnonzero(cell_category[self.index] >= 0)
        cells = self.index[keep]
        group, used = key_order(self.cell_pattern[cells])
        return group, self.patterns[used], cell_category[cells], self.weights[keep]

    def pattern_rows(self) -> np.ndarray:
        """One design row per covariate pattern: 1.0, then its values."""
        return np.hstack((np.ones((len(self.patterns), 1)), self.patterns))


@dataclass(frozen=True)
class SurveyDiagnostics:
    """Read-only summary emitted by validate()."""

    n: int
    total_weight: float
    undecided_unweighted: float
    undecided_weighted: float
    dropped_rows: int
    option_counts: dict[str, int]


def _parse_parties(cell: str, registry: PartyRegistry, lineno: int) -> int:
    """The bitmask of the set a parties cell names, or 0 if it names a code outside the registry."""
    try:
        return registry.set_of(cell.split(";")).mask
    except UnknownPartyError:
        return 0
    except ValueError as exc:
        raise SurveyFormatError(str(exc), line=lineno) from None


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
    non-binary covariate, a parties cell ``PartyRegistry.set_of`` rejects
    other than for an unregistered code) raise SurveyFormatError with the
    physical line the offending row starts on (a quoted field may span
    lines).  A leading UTF-8 byte order mark, as spreadsheet exports
    write it, is skipped.

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
    its tuple of covariate cells, and ``Survey.build`` numbers the
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
                mask = parties[row[1]] = _parse_parties(row[1], registry, lineno)
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
    return Survey.build(registry, schema, weights, masks, matrix[pattern_ids], dropped_rows=dropped)


# The columnar scan reads a document in blocks of whole lines of about
# this many characters, so its per-block index arrays stay small beside
# the survey it builds.
_BLOCK_CHARS = 1 << 18
# A padded column of cells may hold at most this many bytes per byte of
# its block; a block with one far longer cell declines.
_PAD_RATIO = 8
# A weight cell of at most _DECIMAL_BYTES bytes that holds only ASCII
# digits, 1 to _DECIMAL_DIGITS of them, and at most one "." is decoded by
# array passes (``_decimals``); every other weight cell goes through
# ``float``.  Below 10**15 < 2**53 the digits are an exact float64, and
# so is 10.0**k for k <= 22, so their one correctly rounded quotient is
# the float nearest the decimal, which is what ``float`` returns
# (Clinger, "How to read floating point numbers accurately", 1990).
_DECIMAL_BYTES = 16  # two 64-bit words
_DECIMAL_DIGITS = 15
_CELL = np.dtype((np.void, _DECIMAL_BYTES))
_WORD = np.dtype("<u8")
# _LAST_BYTES[n] keeps the last n bytes of a row.
_LAST_BYTES = np.frombuffer(
    b"".join(bytes(_DECIMAL_BYTES - n) + b"\xff" * n for n in range(_DECIMAL_BYTES + 1)), _CELL
)
_ONES = np.uint64(0x0101010101010101)
_TOP = np.uint64(56)
# Word 0 of a row holds its bytes 0-7, word 1 bytes 8-15.  Byte m of word
# w's factor is k + 1 for a "." at byte 7 - m of word w, k digits from
# the right: a product's top byte is the factor's byte 7 - (the "."'s byte).
_RANK = (np.uint64(0x100F0E0D0C0B0A09), np.uint64(0x0807060504030201))
# Digits -> 2-digit bytes -> 4-digit 16-bit lanes -> one 8-digit number per word.
_SWAR_STEPS = tuple(
    (np.uint64(10**n), np.uint64(8 * n), np.uint64(mask))
    for n, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))
)
# Indexed by k + 1 for a "." k digits from the right: the place
# 10**(k + 1) above the ".", 9 * 10**k, and the divisor 10.0**k.  Index 0,
# for no ".", holds a place above any row's integer, 0 and 1.0.
_SPLIT = np.array([10**_DECIMAL_BYTES] + [10**r for r in range(1, _DECIMAL_BYTES + 1)], dtype=np.int64)
_NINES = np.array([0] + [9 * 10 ** (r - 1) for r in range(1, _DECIMAL_BYTES + 1)], dtype=np.int64)
_SCALE = np.array([1.0] + [10.0 ** (r - 1) for r in range(1, _DECIMAL_BYTES + 1)])


def _parse_clean(text: str, registry: PartyRegistry, schema: tuple[str, ...]) -> Survey | None:
    """Parse a clean survey CSV in one columnar pass over its bytes, or return None.

    ``_scan_block`` finds the cells of each block of lines with numpy;
    each distinct parties cell goes through ``_parse_parties`` once.
    The kept rows' weights, set bitmasks and covariate rows go to
    ``Survey.build``, as the row parser's do.

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
                    parties[cell] = _parse_parties(cell.decode(), registry, 0)
                except (UnicodeDecodeError, SurveyFormatError):
                    return None
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
    # The joined columns replace the blocks' arrays before the survey is built.
    weights, masks, bits = map(np.concatenate, (weights, masks, bits))
    return Survey.build(registry, schema, weights, masks, bits, dropped_rows=rows - len(weights))


def _scan_block(chunk: str, p: int, limit: int) -> tuple[np.ndarray, list[bytes], np.ndarray, np.ndarray] | None:
    """Each data row's weight, parties cell and covariate values, or None.

    ``chunk`` holds whole lines of rows with ``p`` covariates.  One pass
    finds every comma and newline; each row must hold exactly ``p + 1``
    commas before its newline, a weight that ``float`` takes and that is
    positive and finite, and each covariate cell one byte ``0`` or ``1``.
    A plain decimal weight cell is decoded by ``_decimals``, and any
    other goes through ``float`` on its bytes, taken from a padded ``S``
    array as the parties cells are.  Returns the weights, the distinct parties cells
    (numbered by ``_number_cells``), each row's number into them, and the
    covariates as an (rows, p) 0/1 ``uint8`` matrix.
    """
    try:
        data = chunk.encode()
    except UnicodeEncodeError:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    newline = buf == 10
    seps = np.flatnonzero(newline | (buf == 44))
    rows = np.count_nonzero(newline)
    if len(seps) != rows * (p + 2):
        return None
    # Row i's separators: p + 1 commas, then its newline.  When every
    # row's last separator is a newline, the others are the commas, as the
    # block holds no other newline.
    seps = seps.reshape(rows, p + 2)
    if not np.all(newline[seps[:, -1]]):
        return None
    bits = buf[seps[:, 1:-1] + 1] - 48  # "0" -> 0, "1" -> 1; any other byte wraps above 1
    if not np.all(bits <= 1):
        return None
    # Each covariate cell starts with a bit, so it holds at least one byte;
    # together they hold p bytes only if each holds one.
    if not np.all(seps[:, -1] - seps[:, 1] == 2 * p):
        return None
    starts = np.concatenate(([0], seps[:-1, -1] + 1))
    weight_len = seps[:, 0] - starts
    parties_len = seps[:, 1] - seps[:, 0] - 1
    if max(weight_len.max(), parties_len.max()) > limit:
        return None
    parties_cells = _padded(buf, seps[:, 0] + 1, parties_len)
    if parties_cells is None:
        return None
    weights, decoded = _decimals(buf, seps[:, 0], weight_len)
    rest = np.flatnonzero(~decoded)
    if len(rest):
        cells = _padded(buf, starts[rest], weight_len[rest])
        if cells is None:
            return None
        try:
            weights[rest] = np.fromiter(map(float, cells.tolist()), float, len(rest))
        except ValueError:
            return None
    if not np.all((weights > 0.0) & (weights < math.inf)):
        return None
    number, distinct = _number_cells(parties_cells)
    return weights, distinct.tolist(), number, bits


def _decimals(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode the plain decimal cells ``buf[ends[i] - lengths[i]:ends[i]]`` in array passes.

    Returns each cell's value and whether it was decoded.  A cell is
    decoded when it has at most ``_DECIMAL_BYTES`` bytes, only ASCII
    digits, 1 to ``_DECIMAL_DIGITS`` of them, and at most one "."; its
    value is then bit for bit ``float`` of the cell.  The value of any
    other cell is undefined.

    Each cell of at most 16 bytes is read right-aligned into a 16-byte
    row, two little-endian 64-bit words, with the bytes before the cell
    and its "." cleared to digit 0.  Combining adjacent digits, then
    pairs, then quads within each word (SWAR) gives the row's 16-digit
    integer ``a``.  A "." with k digits after it left a 0 at 10**k, so
    the cell's digits are the integer ``a - 9 * (a // 10**(k + 1)) *
    10**k``, and the value is that integer divided once by ``10.0**k``.
    """
    values, decoded = np.zeros(len(ends)), np.zeros(len(ends), bool)
    short = np.flatnonzero(lengths <= _DECIMAL_BYTES)
    ends, lengths = ends[short], lengths[short]
    # Row e of windows is buf[e - 16:e], behind 16 bytes of padding.
    padded = np.concatenate((np.zeros(_DECIMAL_BYTES, np.uint8), buf))
    windows = np.ndarray((len(buf) + 1,), _CELL, padded, 0, (1,))
    digits = windows[ends].view(np.uint8).reshape(len(ends), _DECIMAL_BYTES)
    digits -= np.uint8(48)  # ASCII digits -> 0..9, "." -> 254, any other byte above 9
    words = digits.view(_WORD)
    words &= _LAST_BYTES[lengths].view(_WORD).reshape(-1, 2)
    dot = digits == 254
    other = digits > 9
    other ^= dot
    dot, other = dot.view(_WORD), other.view(_WORD)
    words &= ~(dot * np.uint64(0xFF))
    for factor, shift, mask in _SWAR_STEPS:
        words = (words * factor + (words >> shift)) & mask
    words = words.astype(np.int64)
    a = words[:, 0] * 10**8 + words[:, 1]
    # Byte j of a dot word is 1 where a "." is.  Times 0x0101...01, the
    # top byte adds them up; times _RANK, it holds k + 1 for one ".".
    dots = ((dot[:, 0] + dot[:, 1]) * _ONES >> _TOP).astype(np.intp)
    rank = (dot[:, 0] * _RANK[0] >> _TOP) + (dot[:, 1] * _RANK[1] >> _TOP)
    rank = np.minimum(rank, _DECIMAL_BYTES).astype(np.intp)  # several "." add up past 16
    a -= a // _SPLIT[rank] * _NINES[rank]
    count = lengths - dots
    values[short] = a / _SCALE[rank]
    decoded[short] = ((other[:, 0] | other[:, 1]) == 0) & (dots <= 1) & (count >= 1) & (count <= _DECIMAL_DIGITS)
    return values, decoded


def _padded(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The cells ``buf[starts[i]:starts[i] + lengths[i]]`` as one NUL-padded ``S`` array.

    Its width is a multiple of 8 bytes, so each cell is a whole number of
    8-byte words.  None if the padded array would exceed ``_PAD_RATIO``
    bytes per byte of ``buf``.
    """
    width = -(-int(lengths.max()) // 8) * 8
    if width == 0 or len(starts) * width > _PAD_RATIO * len(buf):
        return None
    windows = sliding_window_view(np.concatenate((buf, np.zeros(width, np.uint8))), width)
    out = windows[starts]
    # Row r of keep is edge[r:r + width], so row width - n holds n bytes
    # 0xff, then zeros: each cell is masked by one gathered row.
    edge = np.repeat(np.array([0xFF, 0], np.uint8), width)
    keep = np.ndarray((width + 1,), f"V{width}", edge, 0, (1,))
    out &= keep[width - lengths].view(np.uint8).reshape(out.shape)
    return out.view(f"S{width}").ravel()


def _number_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``key_order`` of the padded cells of an ``S`` array, keyed by integers.

    A cell is keyed by ``_cell_hash`` of its 8-byte words (a cell of one
    word is its own key), and every cell is compared with one cell of
    its key; if a hash collision made any of them differ, the cells are
    numbered by their bytes instead.
    """
    words = cells.view(np.uint64).reshape(len(cells), -1)
    number, distinct = key_order(_cell_hash(words))
    some = np.empty(len(distinct), np.intp)
    some[number] = np.arange(len(cells))
    if not np.array_equal(words, words[some[number]]):
        return key_order(cells)
    return number, cells[some]


def _cell_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a 2-D ``uint64`` array."""
    key = words[:, 0].copy()
    for column in words.T[1:]:
        key ^= column
        key *= np.uint64(0x9E3779B97F4A7C15)
    return key


def csv_table(header, rows) -> str:
    """A CSV table: the ``header`` row, then ``rows``, each line ended by a bare newline.

    A cell that is not a string is written as its ``repr``, so a float
    reads back as the same float.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell if isinstance(cell, str) else repr(cell) for cell in row] for row in rows)
    return out.getvalue()


# survey_to_csv composes and writes this many rows at a time.
_CSV_BLOCK_ROWS = 4096


def survey_to_csv(s: Survey) -> str:
    """Serialize back to the parse_survey CSV format."""
    out = io.StringIO()
    out.write(csv_table(["weight", "parties", *s.schema], ()))
    # Each set's parties cell, quoted as csv.writer quotes it, and each
    # pattern's "0,1,..." are made once; the patterns' text comes from one
    # byte matrix with the bits at even columns.
    parties = [csv_table([";".join(s.registry.codes_of(ps))], ())[:-1] for ps in s.sets]
    p = s.patterns.shape[1]
    text = np.full((len(s.patterns), 2 * p), ord(","), np.uint8)
    text[:, 1::2] = s.patterns + ord("0")
    values = [v.decode() for v in text.view(f"S{2 * p}").ravel().tolist()] if p else [""] * len(s.patterns)
    # Rows are composed and written a block at a time, so no list of every
    # row's text is held.
    for start in range(0, len(s.weights), _CSV_BLOCK_ROWS):
        index = s.index[start : start + _CSV_BLOCK_ROWS]
        rows = map(
            "{!r},{}{}\n".format,
            s.weights[start : start + _CSV_BLOCK_ROWS].tolist(),
            map(parties.__getitem__, s.cell_set[index].tolist()),
            map(values.__getitem__, s.cell_pattern[index].tolist()),
        )
        out.write("".join(rows))
    return out.getvalue()


def survey_to_json(s: Survey) -> str:
    """Serialize to JSON; covariates are written as 0/1 integers, or null without a schema."""
    parties = [list(s.registry.codes_of(ps)) for ps in s.sets]
    covariates = s.patterns.tolist() if s.schema else [None] * len(s.patterns)
    cell_set = s.cell_set.tolist()
    cell_pattern = s.cell_pattern.tolist()
    doc = {
        "registry": list(s.registry.options),
        "schema": list(s.schema),
        "respondents": [
            {"weight": w, "parties": parties[cell_set[g]], "covariates": covariates[cell_pattern[g]]}
            for w, g in zip(s.weights.tolist(), s.index.tolist())
        ],
        "wave": s.wave,
    }
    return json.dumps(doc, indent=2) + "\n"


def survey_from_json(text: str) -> Survey:
    """Read a survey_to_json document; equal sets and covariate patterns share one table entry.

    A weight must be a JSON number and ``parties`` a list of codes that
    ``PartyRegistry.set_of`` takes; anything else raises ValueError
    naming the respondent's index.
    """
    doc = json.loads(text)
    registry = PartyRegistry(tuple(doc["registry"]))
    schema = tuple(doc["schema"])

    def rows():
        for i, rec in enumerate(doc["respondents"]):
            weight, codes = rec["weight"], rec["parties"]
            try:
                if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                    raise ValueError(f"weight must be a number, got {weight!r}")
                if not (isinstance(codes, list) and all(isinstance(code, str) for code in codes)):
                    raise ValueError(f"parties must be a list of codes, got {codes!r}")
                ps = registry.set_of(codes)
                try:
                    weight = float(weight)
                except OverflowError:  # an integer past the largest float
                    weight = math.inf if weight > 0 else -math.inf
                if not 0.0 < weight < math.inf:
                    raise ValueError(f"weight must be positive and finite, got {weight}")
            except ValueError as exc:
                raise ValueError(f"respondent {i}: {exc}") from None
            yield weight, ps, rec.get("covariates")

    return Survey.build(registry, schema, *_columns(rows(), schema), wave=doc.get("wave", ""))


def undecided_share(s: Survey) -> tuple[float, float]:
    """Unweighted and weighted fraction of undecided respondents."""
    if not len(s):
        raise ValueError("undecided_share of an empty survey")
    w_und = rounded(sum(total for ps, total in zip(s.sets, s.set_sums) if not ps.is_singleton))
    return s.n_undecided / len(s), w_und / s.total_weight


def group_counts(s: Survey, top: int | None = None) -> dict[PartySet, tuple[int, float]]:
    """Distinct consideration sets with (count, total weight), biggest first.

    Ties in count are ordered by the registry-index lexicographic order
    of the set, so output is deterministic across runs.  ``top`` keeps
    the first ``top`` groups and must be nonnegative.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    counts = s.set_counts.tolist()
    groups = sorted(range(len(s.sets)), key=lambda j: (-counts[j], s.sets[j].sort_key()))
    if top is not None:
        groups = groups[:top]
    return {s.sets[j]: (counts[j], rounded(s.set_sums[j])) for j in groups}


def validate(s: Survey) -> SurveyDiagnostics:
    """Compute a diagnostics report; never mutates and never raises."""
    n = len(s)
    if n:
        unw, wgt = undecided_share(s)
    else:
        unw = wgt = 0.0
    option_counts = {
        code: sum(n for ps, n in zip(s.sets, s.set_counts.tolist()) if ps.contains_index(i))
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
