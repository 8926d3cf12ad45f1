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
covariate rows).  ``build`` checks them and numbers the sets; the
covariate patterns and cells are numbered by one step, on the first
read of any of their fields, so a command that reads only the sets'
counts and sums never builds them.  All are numbered in key order
(``key_order``); a model design keeps the pattern numbers
(``Survey.design_groups``).  No object is made per row or per
covariate pattern.  A clean file, with any number of
covariates, is read by a columnar scan of its bytes, in place when it
is given as bytes with ``\\n`` newlines (a ``str`` is encoded once, and
``\\r\\n`` and ``\\r`` are made ``\\n`` in a copy): one numpy pass
finds each block's commas and newlines, and every fixed-width run of
bytes it reads (a row's covariate bits, a weight's last 8 or 16 bytes,
a padded parties cell) is one item of one view of the document's bytes
(``_items``).  The header line puts at least 15 bytes before the first
row, so no block is copied but the document's last rows, where a window
would run past its end or the last line lacks its newline.  A plain
decimal weight (1 to 15 ASCII digits and at most one ".") is decoded by
array passes into the float ``float`` gives, any other weight goes
through ``float`` on its bytes, and each distinct parties cell,
numbered by hashing without a sort, is checked once.
Anything else goes through the row parser, a ``csv.reader`` loop with
one memo per field, which stays the reference for the format's
semantics, error messages and line numbers.  The writer,
``survey_to_csv``, is the scan run backwards: each weight's shortest
round-trip digits come from a vectorized Schubfach (``_shortest``), and
a block of rows is one byte matrix of [``repr`` text | parties cell |
covariates] that one mask compacts, so it writes ``csv.writer``'s bytes
with no Python object per row.  This CSV format is the one serialization.

Weighted totals are exactly rounded, as ``math.fsum`` rounds them.
``exact_sums`` adds float64 weights per group into Python integers
without rounding (every finite float64 is an integer multiple of
2**-1126), and ``rounded`` turns the sum of any union of groups into a
float by one correctly rounded integer division.  It splits each of n
values v at one grid (Rump, Ogita & Oishi, "Accurate floating-point
summation", SIAM J. Sci. Comput. 31(1), 2008): for E and e the largest
and smallest binary exponents of the values, sigma = 3 * 2**(E + 26),
hi = (sigma + v) - sigma and lo = v - hi are exact, hi is at most 2**26
units of 2**(E - 25), and lo at most 2**(E - e + 26) units of
2**(e - 52).  So one plain ``np.bincount`` of the hi parts and one of
the lo parts add them exactly per group, every partial sum a whole
number of units below 2**53, whenever ceil(log2 n) + (E - e) <= 27;
weights in [0.5, 2] have E - e = 2.  Values farther apart, a zero or a
negative value are split into bands of exponents that narrow, each
scaled exactly onto one grid.  The result does not depend on the order
of the respondents, so a total summed per set carries the same bits as
one summed respondent by respondent; the table keeps each set's exact
sum for that reason, not a rounded total.
``weighted_total`` rounds a sum of such sums times exact rational factors
once, so an estimator counting each set at a fraction of its weight
never goes back to the respondents.

All types are immutable after construction and safe to share across
threads: two threads that both read a survey's cell table first both
number it and store equal arrays.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

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
            if "\r" in code:  # survey_to_csv leaves it unquoted, and the CLI reads it as a newline
                raise ValueError(f"registry code {code!r} contains a carriage return")
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
    """Nonempty set of registry options, stored as a bitmask.

    Intersections and the registry fit are plain arithmetic on ``mask``:
    ``(a.mask & b.mask).bit_count()`` parties are in both sets, and a set
    fits a registry of K parties when its mask is below ``1 << K``.
    """

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
    through a presence table over that range, in linear time; any others
    by ``np.unique``.
    """
    n = len(keys)
    if n and keys.dtype.kind in "iu":
        low = keys.min()
        span = int(keys.max()) - int(low) + 1
        if span <= n:
            # Differences in the unsigned type of the keys' width are exact below the range.
            unsigned = np.dtype(f"u{keys.itemsize}")
            low = low.view(unsigned)
            slot = keys.view(unsigned) - low
            # A view, where the widths match, skips numpy's slow unsigned-to-signed cast.
            slot = slot.view(np.intp) if slot.dtype == np.uintp else slot.astype(np.intp)
            present = np.zeros(span, dtype=bool)
            present[slot] = True
            distinct = (np.flatnonzero(present).astype(unsigned) + low).view(keys.dtype)
            return np.cumsum(present, dtype=np.intp)[slot] - 1, distinct
    distinct, number = np.unique(keys, return_inverse=True)
    return number, distinct


def number_patterns(bits) -> tuple[np.ndarray, np.ndarray]:
    """``key_order`` of the rows of an (n, p) 0/1 matrix: each row's number, and the distinct rows as ``uint8``.

    A row is keyed by its bits shifted into one int64 a column at a time,
    first column highest, or by its bytes when p >= 64: key order is
    lexicographic order.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    p = bits.shape[1]
    if p < 64:
        key = np.zeros(len(bits), np.int64)
        for column in bits.T:
            key <<= 1
            key |= column
        number, distinct = key_order(key)
        place = np.arange(p - 1, -1, -1, dtype=np.int64)
        return number, (distinct[:, None] >> place & 1).astype(np.uint8)
    number, distinct = key_order(bits.view(np.dtype((np.void, p))).ravel())
    return number, distinct.view(np.uint8).reshape(len(distinct), p)


# Exact sums.  Every finite float64 is an integer number of units of
# 2**-1074, so a sum of them is a Python int in units of 2**-1126.
_UNIT_EXP = 1126
# A pass adds at most this many values, so ceil(log2 n) <= 25.
_EXACT_ROWS = 1 << 25
# A pass of n values is split exactly on one grid when E - e < 28 - ceil(log2 n).
_GRID_BITS = 28
# The largest exponent field whose grid 3 * 2**(field - 997), and the sum
# of a pass's high parts, stay finite.
_TOP_FIELD = 2019


def _field(x) -> int:
    """The exponent field of a positive float64, 1 for the subnormals (which share its spacing)."""
    return max(int(np.float64(x).view(np.int64)) >> 52, 1)


def _units(x: float, shift: int = 0) -> int:
    """``x * 2**shift`` in units of 2**-1126, for a float that makes it whole."""
    num, den = x.as_integer_ratio()
    return num << (_UNIT_EXP + shift + 1 - den.bit_length())


def exact_sums(values: np.ndarray, groups: np.ndarray | None = None, n_groups: int = 1) -> list[int]:
    """Each group's exact sum of the finite float64 ``values``, in units of 2**-1126.

    Value i belongs to group ``groups[i]`` (group 0 if ``groups`` is
    None).  A pass of values is split at one grid into high and low
    parts, which two ``np.bincount`` calls add exactly per group (see
    the module docstring); values too far apart for one grid are split
    per band of exponents (``_exponent_bands``).  ``rounded`` of the sum
    over any union of groups equals ``math.fsum`` of their values bit for bit.
    """
    values = np.asarray(values, dtype=float)
    groups = np.zeros(len(values), np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    sums = [0] * n_groups
    for start in range(0, len(values), _EXACT_ROWS):
        v, key = values[start : start + _EXACT_ROWS], groups[start : start + _EXACT_ROWS]
        width = _GRID_BITS - (len(v) - 1).bit_length()
        least, top, shifts = v.min(), _field(v.max()), [0]
        if not (least > 0 and top - _field(least) < width and top <= _TOP_FIELD):
            v, key, shifts = _exponent_bands(v, key, width)
            top = 1023
        bins, buckets = n_groups * len(shifts), None
        if bins > 2 * len(key):
            key, buckets = key_order(key)
            bins = len(buckets)
        grid = math.ldexp(3.0, top - 997)
        high = v + grid
        high -= grid
        high, low = np.bincount(key, high, bins), np.bincount(key, v - high, bins)
        used = np.flatnonzero((high != 0) | (low != 0))
        for b, h, l in zip(used.tolist(), high[used].tolist(), low[used].tolist()):
            g, band = divmod(b if buckets is None else int(buckets[b]), len(shifts))
            sums[g] += _units(h, shifts[band]) + _units(l, shifts[band])
    return sums


def _exponent_bands(values: np.ndarray, groups: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Values split into bands of ``width`` exponents and scaled to one grid: the scaled values, their keys and each band's scale.

    Band b holds the values whose exponent field (1 for zero and the
    subnormals) lies ``b * width`` to ``b * width + width - 1`` above the
    smallest.  Each is scaled by ``np.ldexp``, exactly, so that its
    band's top field is 1023, and keyed by group x bands + band; band b's
    sums are 2**shifts[b] times those of its scaled values.
    """
    fields = np.maximum(values.view(np.int64) >> 52 & 0x7FF, 1)
    base = int(fields.min())
    band = (fields - base) // width
    tops = base + width - 1 + width * np.arange(int(band.max()) + 1)
    return np.ldexp(values, (1023 - tops)[band]), groups * len(tops) + band, (tops - 1023).tolist()


def rounded(total: int) -> float:
    """The float nearest an exact sum from ``exact_sums`` (ties to even), as math.fsum rounds.

    Raises OverflowError if it lies beyond the largest float.
    """
    return total / (1 << _UNIT_EXP)


def weighted_total(sums, factors) -> float:
    """The float nearest the exact total of ``factors[j] * sums[j]`` (ties to even).

    ``sums`` are exact sums from ``exact_sums``, and each factor is an
    int, a float or a ``fractions.Fraction``, read as the rational it is.
    The products are added exactly, as integers per denominator and then
    over the denominators' least common multiple, and the total is
    rounded once.  Raises OverflowError, as ``rounded`` does.
    """
    parts: dict[int, int] = {}
    for total, f in zip(sums, factors):
        if f:
            num, den = f.as_integer_ratio()
            parts[den] = parts.get(den, 0) + total * num
    common = math.lcm(*parts)
    return sum(part * (common // den) for den, part in parts.items()) / (common << _UNIT_EXP)


# Survey's array fields and their dtypes; equal surveys have equal arrays.
# The first two are made at construction, the cell table's on first read.
_ARRAYS = (
    ("weights", float),
    ("set_counts", np.intp),
    ("patterns", np.uint8),
    ("cell_set", np.intp),
    ("cell_pattern", np.intp),
    ("index", np.intp),
)
_CELL_FIELDS = frozenset(name for name, _ in _ARRAYS[2:])


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``."""
    values = np.array(values, dtype=dtype)
    values.flags.writeable = False
    return values


def _kept(values: np.ndarray, dtype) -> np.ndarray:
    """``values`` itself if it is a read-only ``dtype`` array that owns its data, else a read-only copy."""
    if values.dtype == dtype and values.flags.owndata and not values.flags.writeable:
        return values
    return _frozen(values, dtype)


def _cell_table(set_id: np.ndarray, bits: np.ndarray) -> dict[str, np.ndarray]:
    """The cell table's fields of a survey whose row i holds set ``set_id[i]`` and covariate row ``bits[i]``.

    Patterns are numbered by ``number_patterns``, and a cell by set
    number x n_patterns + pattern number, in key order.  This cannot
    fail: its inputs were checked when the survey was built.
    """
    pattern_id, patterns = number_patterns(bits)
    index, cells = key_order(set_id * len(patterns) + pattern_id)
    arrays = (patterns, *np.divmod(cells, max(len(patterns), 1)), index)
    return {name: _frozen(values, dtype) for (name, dtype), values in zip(_ARRAYS[2:], arrays)}


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

    The sets are numbered at construction; the patterns and cells
    (``patterns``, ``cell_set``, ``cell_pattern``, ``index``) by one
    step, ``_cell_table``, the first time any of them is read.  So the
    bounds, ``validate``, ``group_counts`` and the conventional forecast,
    which read only ``sets``, ``set_counts``, ``set_sums``, ``weights``
    and ``total_weight``, never build the cell table.  If two threads
    read it first at once, both number it and store equal arrays, so
    the race is harmless.

    Schema labels are unique, and ``patterns`` has one column per label;
    construction checks this once, so no estimator has to.  Two surveys
    are equal when they have equal registries, schemas and dropped rows,
    and describe equal respondents in the same order, all of which
    ``survey_to_csv`` writes.  The bounds read only ``registry``,
    ``sets`` and ``set_sums``.
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
    dropped_rows: int = 0
    total_weight: float

    def __init__(self, registry: PartyRegistry, schema, respondents, dropped_rows: int = 0):
        """A survey of ``respondents``, handed to ``Survey.build`` as columns.

        This is where covariates that do not come from a parser are
        checked, once per distinct covariate tuple.
        """
        schema = tuple(schema)
        weights, masks, pattern_ids, patterns = array("d"), array("q"), [], {}
        for r in respondents:
            weights.append(r.weight)
            try:
                masks.append(r.set.mask)
            except OverflowError:  # no registry holds a 64th option
                raise ValueError("respondent set references options outside the registry") from None
            try:
                cov = () if r.covariates is None else tuple(r.covariates)
                pattern_ids.append(patterns.setdefault(cov, len(patterns)))
            except TypeError:  # an unhashable or scalar value is not 0 or 1 either
                raise ValueError("covariates must be binary 0/1") from None
        for values in patterns:
            if len(values) != len(schema):
                raise ValueError("respondent covariates do not match the survey schema")
            if not set(values) <= _BINARY:
                raise ValueError("covariates must be binary 0/1")
        bits = np.array(list(patterns), dtype=np.uint8).reshape(len(patterns), len(schema))[pattern_ids]
        # Frozen: the built survey's fields are taken over whole.
        self.__dict__.update(Survey.build(registry, schema, weights, masks, bits, dropped_rows).__dict__)

    @classmethod
    def build(cls, registry: PartyRegistry, schema, weights, masks, patterns, dropped_rows: int = 0) -> Survey:
        """The survey of rows given as columns; the one place that checks them and numbers their sets.

        Row i weighs ``weights[i]`` (a float64 column, positive and finite),
        holds the set whose bitmask is ``masks[i]`` (a whole number in
        [1, 2^K) for K registry options) and has covariate values
        ``patterns[i]``, a row of an (n, p) 0/1 matrix.
        Sets are numbered here, in key order of their bitmasks
        (``key_order``); the survey keeps each row's set number and its
        covariate row until ``_cell_table`` numbers the patterns and cells
        from them, on first read.  A read-only float64 weight column or
        ``uint8`` covariate matrix that owns its data, as the columnar scan
        hands them, is kept as it is; any other column is copied.
        """
        schema = tuple(schema)
        weights, masks, bits = np.asarray(weights, dtype=float), np.asarray(masks), np.asarray(patterns)
        if not (weights.ndim == masks.ndim == 1 and bits.ndim == 2 and len(weights) == len(masks) == len(bits)):
            raise ValueError("columns must hold one weight, one set and one covariate row per respondent")
        # Before the int64 cast, so 0, 1.5, 2**63, True and "1" fail too; NaN fails every comparison.
        whole = masks.dtype.kind in "iu" or masks.dtype.kind == "f" and np.all(masks == np.floor(masks))
        if not (whole and masks.min(initial=1) >= 1 and masks.max(initial=1) < 1 << len(registry)):
            raise ValueError(f"set bitmasks must be whole numbers in [1, 2^{len(registry)})")
        # Before the uint8 cast, so 0.5, 2 and -1 fail too.
        binary = bits.max(initial=0) <= 1 if bits.dtype == np.uint8 else np.all((bits == 0) | (bits == 1))
        if not binary:
            raise ValueError("covariates must be binary 0/1")
        if not (weights.min(initial=1.0) > 0.0 and weights.max(initial=1.0) < math.inf):  # NaN fails too
            raise ValueError("weights must be positive and finite")
        set_id, masks = key_order(masks.astype(np.int64, copy=False))
        sets = tuple(PartySet(mask) for mask in masks.tolist())
        repeated = [label for label, count in Counter(schema).items() if count > 1]
        if repeated:
            raise ValueError(f"schema labels must be unique, got {repeated[0]!r} more than once")
        for label in schema:
            if "\r" in label:  # survey_to_csv leaves it unquoted, and the CLI reads it as a newline
                raise ValueError(f"schema label {label!r} contains a carriage return")
        if bits.shape[1] != len(schema):
            raise ValueError("respondent covariates do not match the survey schema")
        set_sums = tuple(exact_sums(weights, set_id, len(masks)))
        try:
            total = rounded(sum(set_sums))
        except OverflowError:
            raise ValueError("total weight exceeds the largest float") from None
        survey = object.__new__(cls)
        survey.__dict__.update(
            registry=registry, schema=schema, sets=sets, weights=_kept(weights, float),
            set_counts=_frozen(np.bincount(set_id), np.intp), set_sums=set_sums, dropped_rows=dropped_rows,
            total_weight=total, _rows=(set_id, _kept(bits, np.uint8)),
        )
        return survey

    def __getattr__(self, name: str):
        # Python calls this only for a name the instance lacks: the cell table's before its first read.
        if name not in _CELL_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = self.__dict__.get("_rows")
        if rows is not None:  # else another thread numbered the table first
            self.__dict__.update(_cell_table(*rows))
            self.__dict__.pop("_rows", None)
        return self.__dict__[name]

    def __eq__(self, other):
        if not isinstance(other, Survey):
            return NotImplemented
        names = ("registry", "schema", "dropped_rows", "sets")
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


def parse_survey(document: str | bytes, registry: PartyRegistry, schema) -> Survey:
    """Parse a survey CSV document, given as text or as UTF-8 bytes.

    Expected header: ``weight,parties,<one column per schema label>``.
    The ``parties`` cell holds semicolon-separated registry codes.  Rows
    naming a code outside the registry are dropped and counted (the
    analysis is restricted to the registered options, and truncating a
    consideration set would change its meaning).  Structural problems
    (malformed CSV such as an unterminated quote, bad weight,
    non-binary covariate, a parties cell ``PartyRegistry.set_of`` rejects
    other than for an unregistered code) raise SurveyFormatError with the
    physical line the offending row starts on (a quoted field may span
    lines).  ``\\r\\n`` and ``\\r`` read as ``\\n``, in a copy of a document
    that holds them.  A leading UTF-8 byte order mark, as spreadsheet
    exports write it, is skipped.  Bytes parse as their UTF-8 text does;
    bytes that are not UTF-8 raise SurveyFormatError with the line of the
    first bad byte.

    A clean document, with no quote or blank line and every row well
    formed, is read by a columnar scan over its bytes (``_parse_clean``),
    in place when it is given as bytes.  Any other document, and any
    document that scan declines, goes through the row parser
    (``_parse_rows``) as text, which defines the format: its semantics,
    its error messages and their line numbers.  Both give equal surveys
    wherever the scan accepts.
    """
    schema = tuple(schema)
    cr, lf = ("\r", "\n") if isinstance(document, str) else (b"\r", b"\n")
    if cr in document:
        document = document.replace(cr + lf, lf).replace(cr, lf)
    survey = _parse_clean(document, registry, schema)
    if survey is None:
        text = document if isinstance(document, str) else _utf8_text(document)
        survey = _parse_rows(text, registry, schema)
    return survey


class _NotUTF8(SurveyFormatError):
    """Raised by ``_utf8_text`` for bytes that are not UTF-8 text."""


def _utf8_text(data: bytes) -> str:
    """``data`` decoded as UTF-8; bytes that are not UTF-8 raise ``_NotUTF8`` with the line of the first bad one.

    Lines break at ``\\n``, ``\\r`` and ``\\r\\n``, the newlines a text
    reader takes, so a line number means the same as the row parser's.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())
        raise _NotUTF8(f"not UTF-8 text ({exc.reason})", line=line) from None


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
# this many bytes, so its per-block index arrays stay small beside the
# survey it builds.
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
_WORD = np.dtype("<u8")
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
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
# 2**64 divided by the golden ratio, odd: the multiplier of Fibonacci hashing.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _parse_clean(document: str | bytes, registry: PartyRegistry, schema: tuple[str, ...]) -> Survey | None:
    """Parse a clean survey CSV in one columnar pass over its bytes, or return None.

    A ``str`` document is encoded once, and a ``bytes`` document is read
    in place.  ``_scan_block`` finds the cells of each block of lines
    with numpy.  Each distinct parties cell goes through
    ``_parse_parties`` once.  The kept rows' weights, set bitmasks and
    covariate rows go to ``Survey.build``, as the row parser's do.

    Returns a survey equal to ``_parse_rows``'s of the document's text,
    or None wherever the document is not clean (a quote, a carriage
    return, a NUL, a blank line, a wrong column count, any cell the row
    parser would reject, a non-binary covariate even on a dropped row, a
    field over ``csv.field_size_limit()``, no data rows, bytes that are
    not UTF-8, text that has no UTF-8 encoding) or its shape does not
    suit the scan.  It reports no fault in the rows: the row parser is
    the one place that explains one.  Only ``Survey``'s own checks on
    the finished table (unique schema labels, a finite total weight)
    raise, with the error the row parser's survey would raise.
    """
    if isinstance(document, str):
        try:
            document = document.encode()
        except UnicodeEncodeError:
            return None
    if any(c in document for c in b'"\r\0'):  # a byte of bytes is an int, which ``in`` takes
        return None
    pos = 3 if document.startswith(b"\xef\xbb\xbf") else 0
    head = document.find(b"\n", pos)
    if head < 0:
        return None
    try:
        header = document[pos:head].decode()
    except UnicodeDecodeError:
        return None
    if header.split(",") != ["weight", "parties", *schema]:
        return None
    limit = csv.field_size_limit()
    if any(len(label) > limit for label in schema):
        return None
    # Parties cell -> its set's bitmask, or 0 to drop the row.
    parties: dict[bytes, int] = {}
    weights, masks, bits = [], [], []
    rows = 0
    whole = np.frombuffer(document, np.uint8)
    pos = head + 1
    while pos < len(document):
        end = document.find(b"\n", pos + _BLOCK_CHARS)
        end = len(document) if end < 0 else end + 1
        if document[end - 1] == 10:
            buf, start, stop = whole, pos, end
        else:
            # A last line without its newline gets one, in a copy of the block.
            buf = np.frombuffer(document[pos:end] + b"\n", np.uint8)
            start, stop = 0, len(buf)
        scanned = _scan_block(buf, start, stop, len(schema), limit)
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
        codes = [parties[cell] for cell in distinct]
        mask = np.array(codes, dtype=np.int64)[number]
        if 0 in codes:  # rows naming a code outside the registry are dropped
            keep = mask != 0
            row_weights, mask, row_bits = row_weights[keep], mask[keep], row_bits[keep]
        rows += len(number)
        weights.append(row_weights)
        masks.append(mask)
        bits.append(row_bits)
    if not rows:
        return None
    # The joined columns replace the blocks' arrays before the survey is built, which keeps them.
    weights, masks, bits = map(np.concatenate, (weights, masks, bits))
    weights.flags.writeable = bits.flags.writeable = False
    return Survey.build(registry, schema, weights, masks, bits, dropped_rows=rows - len(weights))


def _scan_block(
    buf: np.ndarray, start: int, stop: int, p: int, limit: int
) -> tuple[np.ndarray, list[bytes], np.ndarray, np.ndarray] | None:
    """Each data row's weight, parties cell and covariate values, or None.

    ``buf[start:stop]`` holds the bytes of whole lines of rows with ``p``
    covariates, each ended by a newline; ``buf`` may hold more bytes on
    either side, and cells are read from it in place.  One pass finds
    every comma and newline; each row must hold exactly ``p + 1`` commas
    before its newline, a weight that ``float`` takes and that is
    positive and finite, and each covariate cell one byte ``0`` or ``1``,
    read from the row's ``_items`` tail.  A plain decimal weight is decoded
    by ``_decimals``, any other goes through ``float`` on its bytes, taken
    from a ``_padded`` array as the parties cells are.  Returns the weights,
    the distinct parties cells (numbered by ``_number_cells``), each row's
    number into them, and the covariates as an (rows, p) 0/1 ``uint8`` matrix.
    """
    block = buf[start:stop]
    newline = block == 10
    seps = np.flatnonzero(newline | (block == 44))
    rows = np.count_nonzero(newline)
    if len(seps) != rows * (p + 2):
        return None
    # Row i's separators: p + 1 commas, then its newline.  With 2p bytes
    # from its second to its last, its tail (2p + 1 bytes from its second)
    # lies in the block.  If every tail ends in a newline, the other
    # separators are the commas, as the block holds no other newline.  If a
    # tail's odd bytes are bits, each of its cells is one byte: a cell of
    # any other length puts a separator at an odd offset.
    seps = seps.reshape(rows, p + 2)
    if not np.all(seps[:, -1] - seps[:, 1] == 2 * p):
        return None
    tail = _items(block, 2 * p + 1)[seps[:, 1]].view(np.uint8).reshape(rows, 2 * p + 1)
    bits = tail[:, 1::2] - 48  # "0" -> 0, "1" -> 1; any other byte wraps above 1
    if not (np.all(tail[:, -1] == 10) and bits.max(initial=0) <= 1):
        return None
    starts = np.concatenate(([0], seps[:-1, -1] + 1))
    weight_len = seps[:, 0] - starts
    parties_len = seps[:, 1] - seps[:, 0] - 1
    if max(weight_len.max(), parties_len.max()) > limit:
        return None
    parties_cells = _padded(buf, seps[:, 0] + (start + 1), parties_len, stop - start)
    if parties_cells is None:
        return None
    weights, decoded = _decimals(buf, seps[:, 0] + start, weight_len)
    if not decoded.all():
        rest = np.flatnonzero(~decoded)
        cells = _padded(buf, starts[rest] + start, weight_len[rest], stop - start)
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
    other cell is undefined.  ``ends`` ascend.

    Each cell of at most 16 bytes is read in place as the ``_items`` item
    of one or two little-endian 64-bit words that ends with it (one word
    when every such cell has at most 8 bytes), with the bytes before the
    cell and its "." cleared to digit 0; only if ``buf`` holds fewer bytes
    before the first cell is it read from a padded copy.  Combining
    adjacent digits, then pairs, then quads within each word (SWAR) gives
    the row's 8- or 16-digit integer ``a``.  A "." with k digits after it
    left a 0 at 10**k, so the cell's digits are the integer ``a - 9 * (a
    // 10**(k + 1)) * 10**k``, and the value is that integer divided once
    by ``10.0**k``.  Below 10**8 < 2**53, ``a // 10**(k + 1)`` is the floor
    of the correctly rounded float quotient, which is cheaper.
    """
    n, short = len(ends), None
    longest = lengths.max(initial=0)
    if longest > _DECIMAL_BYTES:
        short = np.flatnonzero(lengths <= _DECIMAL_BYTES)
        ends, lengths = ends[short], lengths[short]
        longest = lengths.max(initial=0)
    width = 8 if longest <= 8 else _DECIMAL_BYTES
    if len(ends) and ends[0] < width:
        buf = np.concatenate((np.zeros(width, np.uint8), buf))
        ends = ends + width
    # Item e - width of the windows is buf[e - width:e].
    digits = _items(buf, width)[ends - width].view(np.uint8).reshape(len(ends), width)
    words = digits.view(_WORD)
    words ^= _ZEROS  # ASCII digits -> 0..9, "." -> 0x1E, any other byte above 9
    # Word w, bytes 8w to 8w + 7 of the window, drops the bytes before the cell.
    before = (width - lengths) * 8
    for w, word in enumerate(words.T):
        word &= _FULL << np.clip(before - 64 * w, 0, 64).view(np.uint64)
    dot = digits == 0x1E
    other = digits > 9
    other ^= dot
    dot, other = dot.view(_WORD), other.view(_WORD)
    words &= ~(dot * np.uint64(0xFF))
    for factor, shift, mask in _SWAR_STEPS:
        words = (words * factor + (words >> shift)) & mask
    words = words.view(np.int64)  # 8 digits per word fit
    # Byte j of a dot word is 1 where a "." is.  Times 0x0101...01, the
    # top byte adds them up; times _RANK, it holds k + 1 for one ".".  The
    # one word of a cell read as one word is the last word of two.
    dots = sum(word * _ONES >> _TOP for word in dot.T).view(np.intp)
    rank = sum(word * place >> _TOP for word, place in zip(dot.T, _RANK[-len(dot.T) :]))
    rank = np.minimum(rank, _DECIMAL_BYTES).view(np.intp)  # several "." add up past 16
    if width > 8:
        a = words[:, 0] * 10**8 + words[:, 1]
        a -= a // _SPLIT[rank] * _NINES[rank]
    else:
        a = words[:, 0].astype(float)
        a -= np.floor(a / _SPLIT[rank]) * _NINES[rank]
    values = a / _SCALE[rank]
    count = lengths - dots
    decoded = ~other.any(axis=1) & (dots <= 1) & (count >= 1) & (count <= _DECIMAL_DIGITS)
    if short is None:
        return values, decoded
    all_values, all_decoded = np.zeros(n), np.zeros(n, bool)
    all_values[short], all_decoded[short] = values, decoded
    return all_values, all_decoded


# Shortest round-trip digits (Schubfach: R. Giulietti, "The Schubfach way
# to render doubles", 2020).  A positive finite float64 is c * 2**q; its
# decimal neighbours at 10**k come from vb, vbl and vbr, which are 4 times
# it and its rounding interval's ends in units of 10**k, each the top bits
# of c * 2**(q + 2 + h) times a 126-bit g(k) ~ 10**-k, rounded to odd.
_U64 = np.uint64
_LOW32, _LOW63 = _U64(0xFFFFFFFF), _U64((1 << 63) - 1)
_MANTISSA, _EXPONENT_SHIFT = _U64((1 << 52) - 1), _U64(52)
_SHIFT1, _SHIFT32, _SHIFT63, _SHIFT64 = _U64(1), _U64(32), _U64(63), _U64(64)
_HIDDEN = 1 << 52
_Q_MIN = -1074  # q of the subnormals
# floor(q log10 2), floor(log10(3/4 * 2**q)) and floor(e log2 10) as
# (x * multiplier + offset) >> shift, exact over every float64's range.
_LOG10_2, _LOG10_3_4, _LOG2_10 = 661971961083, -274743187321, 913124641741
# repr's notation: fixed while -4 < (the decimal point's place) <= 16, else d.ddde+XX.
_FIXED_LOW, _FIXED_HIGH = -4, 16
# A row of the digit buffer: 8 words of "0", the 17 digits from byte _LEAD on.
_LEAD = 23


def _g_table(kmin: int, kmax: int) -> np.ndarray:
    """Schubfach's g(k) for k in [kmin, kmax], as 6 rows of ``uint64``: g1 = g >> 63 and g0 = g mod 2**63, then the 32-bit halves of each.

    g(k) = floor(10**-k / 2**r) + 1, for the r that puts 10**-k / 2**r in
    [2**125, 2**126); made from Python ints, for the k asked only.
    """
    rows = []
    for k in range(kmin, kmax + 1):
        power = 10 ** abs(k)
        if k <= 0:  # 2**(L - 1) <= 10**-k < 2**L for L = bit_length, so r = L - 126
            shift = 126 - power.bit_length()
            beta = power << shift if shift >= 0 else power >> -shift
        else:  # 2**-L < 10**-k < 2**(1 - L), so r = -L - 125
            beta = (1 << 125 + power.bit_length()) // power
        g1, g0 = divmod(beta + 1, 1 << 63)
        rows.append((g1, g0, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32))
    return np.array(rows, dtype=np.uint64).T.copy()


def _product_high(a_low, a_high, b_low, b_high) -> np.ndarray:
    """The high 64 bits of the 128-bit products of two ``uint64`` arrays, each given as its 32-bit halves."""
    low = a_low * b_low
    cross = a_high * b_low
    middle = (low >> _SHIFT32) + (cross & _LOW32) + a_low * b_high  # at most 2**64 - 1
    return a_high * b_high + (cross >> _SHIFT32) + (middle >> _SHIFT32)


def _round_to_odd(y0: np.ndarray, y1: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Schubfach's rop: floor(g * cp / 2**127), its lowest bit set if the quotient is not whole.

    g1 * cp is the 128-bit (y1, y0), and x1 the high word of g0 * cp.
    """
    z = (y0 >> _SHIFT1) + x1
    return (y1 + (z >> _SHIFT63) | ((z & _LOW63) + _LOW63) >> _SHIFT63).view(np.int64)


def _moved(low: np.ndarray, high: np.ndarray, g: np.ndarray, t: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit (low, high) plus ``sign`` (1 or -1) times g * 2**t, for 0 < t < 64, wrapping."""
    if sign > 0:
        moved = low + (g << t)
        return moved, high + (g >> (_SHIFT64 - t)) + (moved < low)
    moved = low - (g << t)
    return moved, high - (g >> (_SHIFT64 - t)) - (moved > low)


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each positive finite float64 as f * 10**e, with the fewest digits that read back as it, closest to it on a tie.

    These are the digits ``repr`` writes.  Schubfach (see above) picks
    them from the candidates s and s + 1, where s = floor(vb / 4), or
    from their multiples of 10 when one of those alone lies in the
    rounding interval.  That shorter pair is tried whenever s >= 10 (Java,
    which wants two digits, tries it from s >= 100), and the two smallest
    subnormals are worked at 10 c with e one lower on both branches.
    Against v's 4c, the interval's ends are 4c - 2 (4c - 1 at a power of
    two) and 4c + 2, all shifted left by h, so their products with g are
    v's moved by g * 2**t, for t = h + 1 (h at a power of two's lower end).
    """
    bits = values.view(_U64)
    biased = (bits >> _EXPONENT_SHIFT).view(np.int64)
    c = (bits & _MANTISSA).view(np.int64) | (biased > 0).astype(np.int64) << 52
    q = np.maximum(biased, 1) - 1075
    tiny = c < 3  # 5e-324 and 1e-323
    c = np.where(tiny, 10 * c, c)
    irregular = (c == _HIDDEN) & (q != _Q_MIN)  # a power of two: its interval's lower half is half as wide
    k = (q * _LOG10_2 + irregular * _LOG10_3_4) >> 41
    h = q + ((-k * _LOG2_10) >> 38) + 2  # in [1, 4]
    low, high = int(k.min()), int(k.max())
    g = _g_table(low, high)
    if high > low:  # else g's one column broadcasts
        g = g[:, k - low]
    cp = (c << 2 << h).view(_U64)
    cp_low, cp_high = cp & _LOW32, cp >> _SHIFT32
    y = g[0] * cp, _product_high(g[2], g[3], cp_low, cp_high)  # g1 * cp
    x = g[1] * cp, _product_high(g[4], g[5], cp_low, cp_high)  # g0 * cp
    t = (h + 1).view(_U64)
    odd = c & 1  # an even c's interval holds its ends
    vb = _round_to_odd(*y, x[1])
    t_low = t - irregular
    vbl = _round_to_odd(*_moved(*y, g[0], t_low, -1), _moved(*x, g[1], t_low, -1)[1]) + odd
    vbr = _round_to_odd(*_moved(*y, g[0], t, 1), _moved(*x, g[1], t, 1)[1]) - odd
    s = vb >> 2
    short = s - s % 10
    up = vbl <= short << 2
    shorter = (s >= 10) & (up != ((short + 10) << 2 <= vbr))
    inside = vbl <= s << 2
    above = (s + 1) << 2 <= vbr
    nearer = vb - (s << 2) - 2  # vb against 4 s + 2, the middle of s and s + 1
    keep_s = np.where(inside != above, inside, (nearer < 0) | (nearer == 0) & (s & 1 == 0))
    f = np.where(shorter, short + 10 * ~up, s + ~keep_s)
    return f, k - tiny


@functools.cache
def _quads() -> np.ndarray:
    """The 4 ASCII digits of each number below 10**4, zero-padded, first digit in the lowest byte of a ``uint32``; made on first use, read-only."""
    numbers = np.arange(10**4, dtype=np.uint32)
    text = np.full(10**4, 0x30303030, np.uint32)
    for place, shift in ((1000, 0), (100, 8), (10, 16), (1, 24)):
        text |= numbers // np.uint32(place) % np.uint32(10) << np.uint32(shift)
    text.flags.writeable = False
    return text


def _repr_text(values: np.ndarray, tail: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
    """``repr`` of each positive finite float64, as the rows of a ``uint8`` matrix and the bounds of each row's runs of bytes.

    A row reads [integer digits | "." | fraction digits | "e", sign and
    exponent digits], the exponent field only if some value needs it,
    then ``tail`` columns left to the caller.  Its bytes in the runs
    between the bounds (``_runs``) are ``repr`` of the value: one run, or
    two with an exponent, ending before the tail.  Each value's 17
    digits, zero-padded, sit in one row of a digit buffer from byte
    ``_LEAD`` on, and the digits on either side of the point are one
    ``_items`` window of it, around the point's place in the digits.
    """
    f, e = _shortest(values)
    n = len(values)
    powers = 10 ** np.arange(18, dtype=np.int64)  # a float64's digits number at most 17
    count = np.searchsorted(powers, f, side="right")  # f's digits
    point = e + count  # value = 0.ddd * 10**point
    top, rest = np.divmod(f * powers[17 - count], 10**8)
    first, middle = np.divmod(top, 10**8)
    quads = np.empty((n, 2, 2), np.int64)  # digits 1-4, 5-8, 9-12, 13-16
    np.divmod(np.stack((middle, rest), axis=1), 10**4, out=(quads[..., 0], quads[..., 1]))
    words = _quads()[quads].view(_U64).reshape(n, 2)
    # Less its "0"s, a word's top set bit lies in the byte of its last
    # nonzero digit; a digit is below 16, so float's rounding stays in that byte.
    last = (np.frexp((words - _ZEROS).astype(float))[1] + 7) // 8  # 1 + that byte, 0 for no digit
    significant = np.where(last[:, 1] > 0, 9 + last[:, 1], 1 + last[:, 0])
    buffer = np.full((n, 8), _ZEROS)
    buffer[:, (_LEAD + 1) // 8 : (_LEAD + 17) // 8] = words
    digits = buffer.view(np.uint8)
    digits[:, _LEAD] += first.astype(np.uint8)
    fixed = (point > _FIXED_LOW) & (point <= _FIXED_HIGH)
    lead = np.where(fixed, point, 1)  # digits before the point
    whole = np.maximum(lead, 1)
    fraction = np.where(fixed, np.maximum(significant - lead, 1), significant - 1)
    wide_whole, wide_fraction = int(whole.max()), int(fraction.max())
    width = wide_whole + 1 + wide_fraction
    exponent = not fixed.all()
    text = np.empty((n, width + 5 * exponent + tail), np.uint8)
    starts = np.arange(0, 64 * n, 64) + (_LEAD - wide_whole) + lead
    window = _items(digits.ravel(), width - 1)[starts].view(np.uint8).reshape(n, -1)
    text[:, :wide_whole] = window[:, :wide_whole]
    text[:, wide_whole] = ord(".")
    text[:, wide_whole + 1 : width] = window[:, wide_whole:]
    # From the integer digits to the last fraction digit; an exponent row of one digit drops the ".".
    bounds = [wide_whole - whole, wide_whole + (fixed | (significant > 1)) + fraction]
    if exponent:
        # Right-aligned before the tail: "e", the sign, then two or three digits.
        power = np.abs(point - 1)
        big = power >= 100
        sign = np.where(point > 0, ord("+"), ord("-"))
        text[:, width] = ord("e")
        text[:, width + 1] = np.where(big, sign, ord("e"))
        text[:, width + 2] = np.where(big, power // 100 + ord("0"), sign)
        text[:, width + 3] = power // 10 % 10 + ord("0")
        text[:, width + 4] = power % 10 + ord("0")
        bounds += [np.where(fixed, width + 5, width + 1 - big), np.full(n, width + 5)]
    return text, bounds


def _runs(bounds: list[np.ndarray], width: int) -> np.ndarray:
    """An (n, width) bool matrix, true in row i from column ``bounds[0][i]`` to ``bounds[1][i]``, and so on.

    Runs pair the bounds in order (the second runs from ``bounds[2][i]``
    to ``bounds[3][i]``).  A row's bounds ascend; with an odd number of
    them, the last run ends at the row's end.  Each run is the XOR of two
    rows of an ``_items`` view of [width zeros | width ones], true from a
    column on.
    """
    ramp = _items(np.repeat(np.array([0, 1], np.uint8), width), width)
    runs = np.zeros((len(bounds[0]), width), np.uint8)
    for bound in bounds:
        runs ^= ramp[width - bound].view(np.uint8).reshape(runs.shape)
    return runs.view(bool)


def _padded(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, size: int) -> np.ndarray | None:
    """The cells ``buf[starts[i]:starts[i] + lengths[i]]`` as one NUL-padded ``S`` array.

    Its width is a multiple of 8 bytes, so each cell is a whole number of
    8-byte words: the ``_items`` item at its start, read in place, with the
    bytes past it cleared.  ``starts`` ascend; only if the last cell's
    words run past the end of ``buf`` are the cells read from a padded
    copy.  None if the array would exceed ``_PAD_RATIO`` bytes per byte of
    the ``size`` bytes the cells come from.
    """
    width = -(-int(lengths.max()) // 8) * 8
    if width == 0 or len(starts) * width > _PAD_RATIO * size:
        return None
    if starts[-1] + width > len(buf):
        buf = np.concatenate((buf[starts[0] :], np.zeros(width, np.uint8)))
        starts = starts - starts[0]
    # Item i of the windows is buf[i:i + width]; item width - n of first keeps a row's first n bytes.
    out = _items(buf, width)[starts].view(np.uint8)
    first = _items(np.repeat(np.array([0xFF, 0], np.uint8), width), width)
    out &= first[width - lengths].view(np.uint8)
    return out.view(f"S{width}")


def _items(buf: np.ndarray, width: int) -> np.ndarray:
    """A view of the 1-D ``uint8`` array ``buf`` whose item i is ``buf[i:i + width]``, as one ``V{width}``."""
    return np.ndarray((len(buf) - width + 1,), f"V{width}", buf, 0, (1,))


def _number_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each padded cell's number among the distinct cells of an ``S`` array, and those cells.

    A cell is keyed by ``_cell_hash`` of its 8-byte words (a cell of one
    word is its own key), and its ``_table_slots`` slot in a table of
    at least 2n slots records the last row written there: that row, the
    slot's representative, stands for every row of the slot, itself
    included.  The representatives are numbered by row, so distinct
    cells come in representative-row order.  Every cell is compared
    with its representative's; if two distinct cells shared a slot, the
    cells are numbered in key order by their hashes, and if two distinct
    cells shared a hash, by their bytes.
    """
    n = len(cells)
    words = cells.view(np.uint64).reshape(n, -1)
    hashes = _cell_hash(words)
    bits = max(1, (2 * n - 1).bit_length())
    slots = _table_slots(hashes, bits)
    rows = np.arange(n)
    table = np.empty(1 << bits, np.intp)
    table[slots] = rows
    representative = table[slots]
    some = np.flatnonzero(representative == rows)
    place = np.empty(n, np.intp)
    place[some] = np.arange(len(some))
    number = place[representative]
    # np.take gathers whole rows far faster than indexing does.
    if not np.array_equal(words, np.take(words, representative, axis=0)):
        number, distinct = key_order(hashes)
        some = np.empty(len(distinct), np.intp)
        some[number] = rows
        if not np.array_equal(words, np.take(words, some[number], axis=0)):
            return key_order(cells)
    return number, cells[some]


def _table_slots(hashes: np.ndarray, bits: int) -> np.ndarray:
    """Each 64-bit hash's slot in a table of 2**bits: the top bits of its product with 2**64 / golden ratio (Knuth's multiplicative hashing)."""
    return (hashes * _GOLDEN >> np.uint64(64 - bits)).view(np.intp)


def _cell_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a 2-D ``uint64`` array, in which the order of its words counts."""
    key = words[:, 0].copy()
    for column in words.T[1:]:
        key *= _GOLDEN
        key ^= column
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


# survey_to_csv composes this many rows at a time.
_CSV_BLOCK_ROWS = 4096


def survey_to_csv(s: Survey) -> str:
    """Serialize back to the parse_survey CSV format, as ``csv.writer`` writes each row with its weight's ``repr``.

    Each set's parties cell (quoted as ``csv.writer`` quotes it) and each
    covariate pattern's text are made once.  A block of rows is one
    ``uint8`` matrix, [the weights' ``_repr_text`` | "," and the set's
    cell, padded | the pattern's ",0,1,...\\n"], and one mask of its bytes
    compacts it into the block's text, so no object is made per row.
    """
    cells = [("," + csv_table([";".join(s.registry.codes_of(ps))], ())[:-1]).encode() for ps in s.sets]
    width = max(map(len, cells), default=1)
    # Right-aligned, so a row's bytes from its cell on are one run.
    parties = np.frombuffer(b"".join(cell.rjust(width, b"\0") for cell in cells), np.uint8).reshape(-1, width)
    pad = width - np.array(list(map(len, cells)), dtype=np.intp)
    p = s.patterns.shape[1]
    patterns = np.full((len(s.patterns), 2 * p + 1), ord(","), np.uint8)
    patterns[:, 1::2] = s.patterns + ord("0")
    patterns[:, -1] = ord("\n")
    tail = width + patterns.shape[1]
    chunks = [csv_table(["weight", "parties", *s.schema], ())]
    for start in range(0, len(s.weights), _CSV_BLOCK_ROWS):
        index = s.index[start : start + _CSV_BLOCK_ROWS]
        sets = s.cell_set[index]
        rows, bounds = _repr_text(s.weights[start : start + _CSV_BLOCK_ROWS], tail)
        w = rows.shape[1] - tail
        rows[:, w : w + width] = np.take(parties, sets, axis=0)
        rows[:, w + width :] = np.take(patterns, s.cell_pattern[index], axis=0)
        chunks.append(str(rows[_runs([*bounds, w + pad[sets]], rows.shape[1])], "utf-8"))
    return "".join(chunks)


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
    groups = sorted(range(len(s.sets)), key=lambda j: (-counts[j], s.sets[j].indices()))
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
