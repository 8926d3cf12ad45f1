import csv
import io
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pollsets import (
    PartyRegistry,
    PartySet,
    Respondent,
    Survey,
    SurveyFormatError,
    group_counts,
    parse_survey,
    survey_from_json,
    survey_to_csv,
    survey_to_json,
    undecided_share,
    validate,
)
from pollsets import data
from pollsets.simulate import SimConfig, default_true_coefficients, generate_population

REG6 = PartyRegistry(("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE"))
WAVE3_SCHEMA = ("female", "age_65plus", "east", "high_income", "urban")


class TestParse:
    def test_undecided_row(self):
        s = parse_survey("weight,parties,east\n1.0,SPD;GRUENE,1\n", REG6, ("east",))
        assert len(s) == 1
        [(_, ps, cov)] = s.cells.rows()
        assert not ps.is_singleton
        assert REG6.codes_of(ps) == ("SPD", "GRUENE")
        assert cov == (1,)

    def test_decided_singleton(self):
        s = parse_survey("weight,parties,east\n1.0,SPD,0\n", REG6, ("east",))
        [(_, ps, _)] = s.cells.rows()
        assert ps.is_singleton

    def test_unknown_code_drops_row(self):
        text = "weight,parties,east\n1.0,SPD,0\n1.0,SPD;TIERSCHUTZ,0\n"
        s = parse_survey(text, REG6, ("east",))
        assert len(s) == 1
        assert s.dropped_rows == 1
        assert validate(s).dropped_rows == 1

    def test_bad_weight_reports_line(self):
        with pytest.raises(SurveyFormatError, match="line 3"):
            parse_survey("weight,parties\n1.0,SPD\n-2,SPD\n", REG6, ())
        with pytest.raises(SurveyFormatError, match="not a number"):
            parse_survey("weight,parties\nx,SPD\n", REG6, ())

    def test_empty_parties_rejected(self):
        with pytest.raises(SurveyFormatError, match="empty parties"):
            parse_survey("weight,parties\n1.0,\n", REG6, ())

    def test_non_binary_covariate_rejected(self):
        with pytest.raises(SurveyFormatError, match="east"):
            parse_survey("weight,parties,east\n1.0,SPD,2\n", REG6, ("east",))

    def test_header_mismatch(self):
        with pytest.raises(SurveyFormatError, match="header"):
            parse_survey("w,parties\n1.0,SPD\n", REG6, ())

    def test_empty_document(self):
        with pytest.raises(SurveyFormatError):
            parse_survey("", REG6, ())


class TestUndecidedShare:
    def test_wave3_counts(self, wave3_path):
        s = parse_survey(wave3_path.read_text(), REG6, ("female", "age_65plus", "east", "high_income", "urban"))
        unweighted, _ = undecided_share(s)
        assert unweighted == 533 / 4730
        assert abs(unweighted - 0.1127) < 1e-4

    def test_all_decided(self):
        s = parse_survey("weight,parties\n1.0,SPD\n2.0,FDP\n", REG6, ())
        assert undecided_share(s) == (0.0, 0.0)

    def test_weighted_hand_example(self):
        reg = PartyRegistry(("A", "B"))
        s = Survey(
            reg,
            (),
            (Respondent(3.0, reg.set_of(["A", "B"])), Respondent(1.0, reg.singleton("A"))),
        )
        assert undecided_share(s) == (0.5, 0.75)

    def test_empty_survey_errors(self):
        s = Survey(REG6, (), ())
        with pytest.raises(ValueError):
            undecided_share(s)


class TestGroupCounts:
    def test_basic_counting(self, abc_registry):
        reg = abc_registry
        s = Survey(
            reg,
            (),
            (
                Respondent(1.0, reg.singleton("A")),
                Respondent(2.0, reg.singleton("A")),
                Respondent(1.0, reg.set_of(["A", "B"])),
            ),
        )
        counts = group_counts(s)
        keys = list(counts)
        assert keys[0] == reg.singleton("A")
        assert counts[keys[0]] == (2, 3.0)
        assert counts[reg.set_of(["A", "B"])][0] == 1

    def test_empty_survey(self):
        assert group_counts(Survey(REG6, (), ())) == {}

    def test_tie_order_is_registry_lexicographic(self, abc_registry):
        reg = abc_registry
        s = Survey(
            reg,
            (),
            (
                Respondent(1.0, reg.singleton("B")),
                Respondent(1.0, reg.set_of(["A", "B"])),
                Respondent(1.0, reg.singleton("A")),
            ),
        )
        keys = [reg.codes_of(ps) for ps in group_counts(s)]
        assert keys == [("A",), ("A", "B"), ("B",)]

    def test_counts_sum_to_n(self, abc_survey):
        counts = group_counts(abc_survey)
        assert sum(c for c, _ in counts.values()) == len(abc_survey)

    def test_top_k_truncation(self, abc_survey):
        assert len(group_counts(abc_survey, top=2)) == 2


class TestValidate:
    def test_clean_fixture(self, abc_survey):
        report = validate(abc_survey)
        assert report.n == 5
        assert report.dropped_rows == 0
        assert report.option_counts == {"A": 3, "B": 2, "C": 1}

    def test_total_weight_matches_naive_sum(self, wave3_path):
        s = parse_survey(wave3_path.read_text(), REG6, ("female", "age_65plus", "east", "high_income", "urban"))
        naive = 0.0
        for w, _, _ in s.cells.rows():
            naive += w
        assert abs(validate(s).total_weight - naive) < 1e-9

    def test_never_raises_on_empty(self):
        report = validate(Survey(REG6, (), ()))
        assert report.n == 0
        assert report.undecided_unweighted == 0.0


class TestTypes:
    def test_registry_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PartyRegistry(("A", "A"))

    @pytest.mark.parametrize(
        "code,reason",
        [("A,B", "separate"), ("A;B", "separate"), (" A", "whitespace"), ("A ", "whitespace"), ("A\t", "whitespace")],
    )
    def test_registry_rejects_unmatchable_codes(self, code, reason):
        # A code holding a separator or edge whitespace can never match a parsed cell.
        with pytest.raises(ValueError, match=reason):
            PartyRegistry((code, "C"))

    def test_registry_size_limits(self):
        with pytest.raises(ValueError):
            PartyRegistry(("A",))
        with pytest.raises(ValueError):
            PartyRegistry(tuple(f"P{i}" for i in range(33)))

    def test_party_set_nonempty(self):
        with pytest.raises(ValueError):
            PartySet(0)

    def test_weight_positive(self, abc_registry):
        with pytest.raises(ValueError):
            Respondent(0.0, abc_registry.singleton("A"))
        with pytest.raises(ValueError):
            Respondent(float("nan"), abc_registry.singleton("A"))

    def test_covariates_binary(self, abc_registry):
        a = abc_registry.singleton("A")

        def from_json(values, schema):
            doc = {"registry": ["A", "B", "C"], "schema": list(schema), "wave": ""}
            doc["respondents"] = [{"weight": 1.0, "parties": ["A"], "covariates": list(values)}]
            return survey_from_json(json.dumps(doc))

        schema = ("east", "urban")
        for values in ((0, 1), (True, False), (1.0, 0.0)):
            for s in (Survey(abc_registry, schema, (Respondent(1.0, a, values),)), from_json(values, schema)):
                assert s.cells.patterns.dtype == np.uint8
                assert s.cells.patterns.tolist() == [[int(v) for v in values]]
        for bad in (2, -1, float("nan"), 0.5, "1", [0]):
            with pytest.raises(ValueError, match="binary"):
                Survey(abc_registry, ("east",), (Respondent(1.0, a, (bad,)),))
            with pytest.raises(ValueError, match="binary"):
                from_json((bad,), ("east",))

    def test_covariates_must_carry_the_schema_names(self, abc_registry):
        # Missing covariates under a schema are covered in test_forecast.
        a = abc_registry.singleton("A")
        with pytest.raises(ValueError, match="schema"):
            Survey(abc_registry, (), (Respondent(1.0, a, (1,)),))

    def test_set_must_fit_registry(self, abc_registry):
        with pytest.raises(ValueError):
            Survey(abc_registry, (), (Respondent(1.0, PartySet(1 << 5)),))

    def test_set_wider_than_any_registry_rejected(self, abc_registry):
        with pytest.raises(ValueError, match="^respondent set references options outside the registry$"):
            Survey(abc_registry, (), (Respondent(1.0, PartySet(1 << 70)),))


def _survey_strategy():
    codes = st.sampled_from(["A", "B", "C", "D"])

    @st.composite
    def build(draw):
        k = draw(st.integers(2, 4))
        registry = PartyRegistry(tuple("ABCD"[:k]))
        n = draw(st.integers(1, 8))
        respondents = []
        for _ in range(n):
            weight = draw(st.floats(0.1, 10, allow_nan=False))
            members = draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k))
            mask = 0
            for m in members:
                mask |= 1 << m
            respondents.append(Respondent(weight, PartySet(mask), (draw(st.integers(0, 1)),)))
        return Survey(registry, ("x1",), tuple(respondents))

    return build()


@settings(max_examples=60, deadline=None)
@given(_survey_strategy())
def test_round_trip_csv_and_json(s):
    again = parse_survey(survey_to_csv(s), s.registry, s.schema)
    assert again == s
    assert survey_from_json(survey_to_json(s)) == s


@settings(max_examples=60, deadline=None)
@given(_survey_strategy())
def test_undecided_share_bounds(s):
    unweighted, weighted = undecided_share(s)
    assert 0.0 <= unweighted <= 1.0
    assert 0.0 <= weighted <= 1.0


@settings(max_examples=60, deadline=None)
@given(_survey_strategy())
def test_group_counts_sum(s):
    counts = group_counts(s)
    assert sum(c for c, _ in counts.values()) == len(s)
    weights = math.fsum(w for _, w in counts.values())
    assert abs(weights - s.total_weight) < 1e-9


def test_unit_weight_shares_agree(abc_survey):
    unweighted, weighted = undecided_share(abc_survey)
    assert unweighted == weighted


def test_json_field_names(abc_survey):
    import json

    doc = json.loads(survey_to_json(abc_survey))
    assert set(doc) == {"registry", "schema", "respondents", "wave"}


def test_json_float_covariates_write_csv():
    doc = (
        '{"registry": ["A", "B"], "schema": ["x1", "x2"], "wave": "",'
        ' "respondents": [{"weight": 1.0, "parties": ["A"], "covariates": [1.0, 0.0]},'
        ' {"weight": 2.0, "parties": ["A", "B"], "covariates": [true, 0]}]}'
    )
    s = survey_from_json(doc)
    text = survey_to_csv(s)
    assert text == "weight,parties,x1,x2\n1.0,A,1,0\n2.0,A;B,1,0\n"
    assert parse_survey(text, s.registry, s.schema) == s


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["clean-scan", "row-parser"])
def test_weight_total_past_the_largest_float_rejected(newline):
    text = newline.join(["weight,parties,x1,x2", "1e308,A,0,1", "1e308,B,1,0", ""])
    with pytest.raises(ValueError, match="^total weight exceeds the largest float$"):
        parse_survey(text, DIFF_REGISTRY, DIFF_SCHEMA)
    doc = {"registry": ["A", "B"], "schema": [], "wave": ""}
    doc["respondents"] = [{"weight": 1e308, "parties": ["A"], "covariates": None}] * 2
    with pytest.raises(ValueError, match="^total weight exceeds the largest float$"):
        survey_from_json(json.dumps(doc))


def test_json_null_covariates_under_schema_rejected():
    doc = (
        '{"registry": ["A", "B"], "schema": ["x1"], "wave": "",'
        ' "respondents": [{"weight": 1.0, "parties": ["A"], "covariates": null}]}'
    )
    with pytest.raises(ValueError, match="schema"):
        survey_from_json(doc)


# Differential check of the memoized parser against a plain per-row parser.

DIFF_REGISTRY = PartyRegistry(("A", "B", "C"))
DIFF_SCHEMA = ("x1", "x2")


def _reference_parse(text):
    """Per-row parse with no memo: (rows of (weight, mask, values), dropped) or (message, line).

    A row's line is the physical line its record starts on.
    """
    import csv
    import io

    reader = csv.reader(io.StringIO(text), strict=True)
    lines = iter(reader)
    start = 1
    try:
        next(lines)
        start = reader.line_num + 1
        rows, dropped = [], 0
        for row in lines:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 2 + len(DIFF_SCHEMA):
                return ("error", f"expected {2 + len(DIFF_SCHEMA)} columns, got {len(row)}", lineno)
            try:
                weight = float(row[0])
            except ValueError:
                return ("error", f"weight {row[0]!r} is not a number", lineno)
            if not (math.isfinite(weight) and weight > 0):
                return ("error", f"weight must be positive and finite, got {row[0]}", lineno)
            codes = [c.strip() for c in row[1].split(";") if c.strip()]
            if not codes:
                return ("error", "empty parties cell", lineno)
            if len(set(codes)) != len(codes):
                return ("error", f"party code repeated in {row[1]!r}", lineno)
            if any(code not in DIFF_REGISTRY for code in codes):
                dropped += 1
                continue
            for label, cell in zip(DIFF_SCHEMA, row[2:]):
                if cell not in ("0", "1"):
                    return ("error", f"covariate {label!r} must be 0 or 1, got {cell!r}", lineno)
            mask = sum(1 << DIFF_REGISTRY.index(code) for code in codes)
            rows.append((weight, mask, tuple(int(cell) for cell in row[2:])))
    except csv.Error as exc:
        return ("error", f"malformed CSV: {exc}", start)
    return ("ok", rows, dropped)


# A record spanning lines 2-3, then a fault on line 4 (record 3).
MULTILINE_THEN_FAULT = 'weight,parties,x1,x2\n1.0,"A;\nB",0,0\n1.0,A\n'


@st.composite
def _survey_documents(draw):
    weights = st.sampled_from(["1.0", "2.5", "0.25", "1e-3"]) | st.sampled_from(["0", "-1", "x", "inf", ""])
    # '"A;\nB"' is a closed quoted field spanning two physical lines.
    parties = st.sampled_from(["A", "B", "C", "A;B", "B;A", " A ; C ", "A;B;C", '"A;\nB"']) | st.sampled_from(
        ["A;A", "Z", "A;Z", "", ";", "C;C;B", '"A']
    )
    cells = st.sampled_from(["0", "1"]) | st.sampled_from(["2", "", " 1", "01"])
    repeat_pool = draw(st.lists(st.tuples(parties, cells, cells), min_size=1, max_size=4))
    lines = ["weight,parties,x1,x2"]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(",".join([draw(weights), draw(parties)]))
        elif kind <= 5:
            party, c1, c2 = draw(st.sampled_from(repeat_pool))
            lines.append(",".join([draw(weights), party, c1, c2]))
        else:
            lines.append(",".join([draw(weights), draw(parties), draw(cells), draw(cells)]))
    return "\n".join(lines) + "\n"


# Cells in order of first appearance differ from cells sorted by (set, pattern).
CELL_ORDER = "weight,parties,x1,x2\n1.0,B,0,0\n1.0,A,1,0\n1.0,B,1,0\n1.0,A,0,0\n"


def _weights_by_set(cells):
    """Each set's weights in respondent order, read from the table's weight column."""
    set_of_row = cells.cell_set[cells.index]
    return [cells.weights[set_of_row == j].tolist() for j in range(len(cells.sets))]


@settings(max_examples=300, deadline=None)
@given(_survey_documents())
@example(MULTILINE_THEN_FAULT)
@example(CELL_ORDER)
def test_parse_matches_per_row_reference(text):
    want = _reference_parse(text)
    try:
        s = parse_survey(text, DIFF_REGISTRY, DIFF_SCHEMA)
    except SurveyFormatError as exc:
        assert want[0] == "error"
        assert exc.line == want[2]
        assert str(exc) == f"line {want[2]}: {want[1]}"
        return
    assert want[0] == "ok"
    got = [(w, ps.mask, cov) for w, ps, cov in s.cells.rows()]
    assert got == want[1]
    assert s.dropped_rows == want[2]
    # Rows repeating a set share one object.
    shared_sets = {}
    for _, ps, _ in s.cells.rows():
        assert shared_sets.setdefault(ps.mask, ps) is ps
    # The survey's cell table must describe the same rows.
    cells = s.cells
    patterns = list(dict.fromkeys(v for _, _, v in want[1]))
    assert cells.patterns.dtype == np.uint8
    assert cells.patterns.shape == (len(patterns), len(DIFF_SCHEMA))
    assert cells.weights.tolist() == [w for w, _, _ in want[1]]
    assert [
        (cells.sets[cells.cell_set[g]].mask, tuple(cells.patterns[cells.cell_pattern[g]].tolist()))
        for g in cells.index.tolist()
    ] == [(mask, values) for _, mask, values in want[1]]
    assert {ps.mask: ws for ps, ws in zip(cells.sets, _weights_by_set(cells))} == {
        mask: [w for w, m, _ in want[1] if m == mask] for mask in {m for _, m, _ in want[1]}
    }
    assert cells.set_counts.tolist() == [len(ws) for ws in _weights_by_set(cells)]
    assert [data.rounded(total) for total in cells.set_sums] == [math.fsum(ws) for ws in _weights_by_set(cells)]
    assert len(set(zip(cells.cell_set.tolist(), cells.cell_pattern.tolist()))) == len(cells.cell_set)
    # Sets, covariate patterns and cells are numbered by first appearance.
    assert [ps.mask for ps in cells.sets] == list(dict.fromkeys(m for _, m, _ in want[1]))
    assert cells.patterns.tolist() == [list(v) for v in patterns]
    assert [
        (cells.sets[j].mask, tuple(cells.patterns[c].tolist()))
        for j, c in zip(cells.cell_set.tolist(), cells.cell_pattern.tolist())
    ] == list(dict.fromkeys((m, v) for _, m, v in want[1]))
    # The public constructor, given the reference rows as Respondents, must
    # store the same table.
    rows = tuple(Respondent(w, PartySet(mask), values) for w, mask, values in want[1])
    built = Survey(DIFF_REGISTRY, DIFF_SCHEMA, rows, dropped_rows=want[2])
    assert built == s
    other = built.cells
    assert cells.sets == other.sets
    for name in ("patterns", "cell_set", "cell_pattern", "index"):
        assert getattr(cells, name).tolist() == getattr(other, name).tolist()
    assert other.patterns.dtype == np.uint8 and other.patterns.shape == cells.patterns.shape
    assert cells.weights.tobytes() == other.weights.tobytes()
    assert [[w.hex() for w in ws] for ws in _weights_by_set(cells)] == [
        [w.hex() for w in ws] for ws in _weights_by_set(other)
    ]
    assert cells.set_sums == other.set_sums
    assert [(w, ps.mask, cov) for w, ps, cov in built.cells.rows()] == want[1]


def test_readers_build_no_respondent_per_row(monkeypatch, wave3_path):
    made = []
    init = Respondent.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Respondent, "__init__", counting_init)
    s = parse_survey(wave3_path.read_text(), REG6, WAVE3_SCHEMA)
    survey_from_json(survey_to_json(s))
    config = SimConfig(REG6, 300, default_true_coefficients(6, 2), ("u", "v"), coarsen_prob=0.3, seed=1)
    simulated, _ = generate_population(config)
    survey_to_csv(simulated)
    assert made == []


def _first_appearance_reference(keys):
    number, first = {}, []
    for i, key in enumerate(keys.tolist()):
        if key not in number:
            number[key] = len(first)
            first.append(i)
    return [number[key] for key in keys.tolist()], first


@st.composite
def _keys_about_as_wide_as_many(draw):
    """Integer keys whose range, max - min + 1, lies within a factor of two of their count."""
    n = draw(st.integers(1, 40))
    span = draw(st.integers(max(1, n // 2), 2 * n))
    dtype = np.dtype(draw(st.sampled_from(["int64", "int32", "uint8", "uint64"])))
    info = np.iinfo(dtype)
    if span > int(info.max) - int(info.min) + 1:
        span = int(info.max) - int(info.min) + 1
    low = draw(st.integers(int(info.min), int(info.max) - span + 1))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    # Both ends of the range appear, so the range is exactly ``span``.
    offsets[draw(st.integers(0, n - 1))] = 0
    offsets[draw(st.integers(0, n - 1))] = span - 1
    return np.array([low + v for v in offsets], dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(_keys_about_as_wide_as_many())
@example(np.array([5, 3, 5, 4], dtype=np.int64))  # range 3 of 4 keys: the slot table
@example(np.array([7, 3, 7, 4], dtype=np.int64))  # range 5 of 4 keys: the sort
@example(np.array([-(2**63), 2**63 - 1], dtype=np.int64))
def test_first_appearance_slot_table_matches_the_sort(keys):
    expected = _first_appearance_reference(keys)
    number, first = data.first_appearance(keys)
    assert (number.tolist(), first.tolist()) == expected
    # Byte-string keys are always sorted.
    number, first = data.first_appearance(keys.view(np.dtype((np.void, keys.itemsize))))
    assert (number.tolist(), first.tolist()) == expected


# Differential check of the columnar scan against the row parser.


def _parse_or_error(parse, text, schema=DIFF_SCHEMA):
    try:
        return parse(text, DIFF_REGISTRY, schema)
    except SurveyFormatError as exc:
        return str(exc)


def _assert_same_survey(got, want):
    assert got == want
    for survey in (got, want):
        patterns = survey.cells.patterns
        assert patterns.dtype == np.uint8
        assert patterns.shape == (len(set(survey.cells.cell_pattern.tolist())), len(survey.schema))
    assert got.dropped_rows == want.dropped_rows
    assert got.total_weight == want.total_weight
    assert got.cells.weights.tobytes() == want.cells.weights.tobytes()
    assert [[w.hex() for w in ws] for ws in _weights_by_set(got.cells)] == [
        [w.hex() for w in ws] for ws in _weights_by_set(want.cells)
    ]
    assert got.cells.set_sums == want.cells.set_sums


@st.composite
def _clean_documents(draw):
    """(document, schema) pairs the columnar scan may take: no quote, CR or blank line, mostly clean rows."""
    schema = draw(st.sampled_from([DIFF_SCHEMA, ()]))
    width = 2 + len(schema)
    weights = st.sampled_from(["1.0", "2.5", "0.25", "3", "1_0", " 1.5", "1e-3"])
    parties = st.sampled_from(["A", "B", "C", "A;B", " B ; A ", "B;A", "A;B;C", "A\x0b", "Z", "A;Z", "\u00c9"])
    bits = st.sampled_from(["0", "1"])
    header = ",".join(["weight", "parties", *schema])
    lines = ["\ufeff" + header if draw(st.booleans()) else header]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(weights), draw(parties), draw(bits), draw(bits)][:width]
        fault = draw(st.integers(0, 39))
        if fault == 0:
            # An unknown code drops the row, and its covariates go unchecked.
            row[1:3] = [draw(st.sampled_from(["Z", "A;Z"])), "2"][: width - 1]
        elif fault == 1:
            row[0] = draw(st.sampled_from(["inf", "0", "\u0661", "-1", "nan", "", "x"]))
        elif fault == 2:
            row[1] = draw(st.sampled_from(["A;A", "", ";"]))
        elif fault == 3 and schema:
            row[3] = draw(st.sampled_from(["2", "", "01", " 1"]))
        elif fault == 4:
            row = row[: draw(st.integers(1, width - 1))]
        elif fault == 5:
            row.append(draw(bits))
        lines.append(",".join(row))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else ""), schema


@settings(max_examples=300, deadline=None)
@given(_clean_documents(), st.sampled_from([8, 32, data._BLOCK_CHARS]))
@example(("weight,parties,x1,x2\n1.0,Z,2,0\n1.0,B;A,1,0\n2.0, A ; B ,0,1\n1.0,C,1,0", DIFF_SCHEMA), 8)
def test_clean_scan_matches_row_parser(document, block_chars):
    text, schema = document
    want = _parse_or_error(data._parse_rows, text, schema)
    # Small blocks number sets and patterns across many blocks.
    with mock.patch.object(data, "_BLOCK_CHARS", block_chars):
        fast = data._parse_clean(text, DIFF_REGISTRY, schema)
        got = _parse_or_error(parse_survey, text, schema)
    if fast is not None:
        _assert_same_survey(fast, want)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_survey(got, want)


def _assert_scanned(text, registry, schema):
    fast = data._parse_clean(text, registry, tuple(schema))
    assert fast is not None
    _assert_same_survey(fast, data._parse_rows(text, registry, tuple(schema)))
    return fast


def test_clean_scan_takes_the_fixture(wave3_path):
    _assert_scanned(wave3_path.read_text(), REG6, WAVE3_SCHEMA)


def test_clean_scan_takes_simulated_output():
    config = SimConfig(REG6, 2000, default_true_coefficients(6, 2), ("u", "v"), coarsen_prob=0.3, seed=3)
    simulated, _ = generate_population(config)
    assert _assert_scanned(survey_to_csv(simulated), REG6, ("u", "v")).cells == simulated.cells


def test_clean_scan_spans_blocks():
    # C, the spelling "B;A" and the pattern (1, 1) first appear after the first block.
    head = ["1.0,A,0,1", "2.5,B,1,0", "0.5,A;Z,0,0"] * (data._BLOCK_CHARS // 25)
    tail = ["1.0,B;A,1,1", "2.0,C,0,0", "1.0,A;B,0,1", "3.0,Z,1,1"] * 100
    assert sum(map(len, head)) > data._BLOCK_CHARS
    text = "weight,parties,x1,x2\n" + "\n".join(head + tail)
    s = _assert_scanned(text, DIFF_REGISTRY, DIFF_SCHEMA)
    assert [ps.mask for ps in s.cells.sets] == [0b001, 0b010, 0b011, 0b100]
    assert s.dropped_rows == len(head) // 3 + 100


@pytest.mark.parametrize(
    "text",
    [
        'weight,parties,x1,x2\n1.0,"A;B",0,1\n',
        "weight,parties,x1,x2\r\n1.0,A,0,1\r\n",
        "weight,parties,x1,x2\n1.0,A,0,1\n\n2.0,B,1,0\n",
        "weight,parties,x1,x2\n",
    ],
    ids=["quoted", "crlf", "blank-line", "no-rows"],
)
def test_clean_scan_declines_and_the_row_parser_reads(text):
    assert data._parse_clean(text, DIFF_REGISTRY, DIFF_SCHEMA) is None
    want = data._parse_rows(text, DIFF_REGISTRY, DIFF_SCHEMA)
    _assert_same_survey(parse_survey(text, DIFF_REGISTRY, DIFF_SCHEMA), want)


def test_clean_scan_takes_more_covariates_than_an_int64_key_holds():
    schema = tuple(f"c{j}" for j in range(70))
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, (4, 70))
    heads = [("1.0", "A"), ("2.5", "B;A"), ("0.5", "Z"), ("1.0", "A;B"), ("2.0", "C"), ("1.5", "A")] * 3
    rows = [f"{w},{parties},{','.join(map(str, bits[r % 4]))}" for r, (w, parties) in enumerate(heads)]
    text = f"weight,parties,{','.join(schema)}\n" + "\n".join(rows) + "\n"
    s = _assert_scanned(text, DIFF_REGISTRY, schema)
    assert s.cells.patterns.shape == (4, 70)
    assert s.dropped_rows == 3


def test_clean_scan_declines_a_field_over_the_csv_limit():
    limit = csv.field_size_limit()
    at_limit = "weight,parties,x1,x2\n" + "0" * (limit - 1) + "1,A,0,1\n"
    _assert_scanned(at_limit, DIFF_REGISTRY, DIFF_SCHEMA)
    over = "weight,parties,x1,x2\n" + "0" * limit + "1,A,0,1\n"
    assert data._parse_clean(over, DIFF_REGISTRY, DIFF_SCHEMA) is None
    with pytest.raises(SurveyFormatError, match="line 2: malformed CSV: field larger than field limit"):
        parse_survey(over, DIFF_REGISTRY, DIFF_SCHEMA)


# Exact sums: every union of groups must round as math.fsum rounds it.

_MAX = np.finfo(float).max
_TINY = np.finfo(float).tiny


@st.composite
def _exact_sum_values(draw):
    """Nonnegative finite floats: subnormal, zero, anywhere in the exponent range, near max / n, and w * factor."""
    n = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(["any", "subnormal", "near-max", "products", "mixed"]))
    anywhere = st.floats(0.0, _MAX)
    subnormal = st.floats(0.0, _TINY, exclude_max=True)
    near_max = st.floats(_MAX / max(n, 1) * 0.99, _MAX / max(n, 1))
    weights = st.floats(0.0, 1e300)
    factors = st.floats(0.0, 1.0) | st.sampled_from([0.5, 1 / 3, 2 / 3, 0.25, 0.7])
    products = st.builds(lambda w, f: w * f, weights, factors)
    pick = {
        "any": anywhere,
        "subnormal": subnormal,
        "near-max": near_max,
        "products": products,
        "mixed": anywhere | subnormal | near_max | products | st.just(0.0),
    }[kind]
    return draw(st.lists(pick, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(
    _exact_sum_values(),
    st.integers(1, 4),
    st.data(),
    st.sampled_from([1, 3, data._EXACT_ROWS]),
)
@example([_MAX, _MAX], 1, None, data._EXACT_ROWS)
@example([5e-324, 5e-324, 1e-308], 2, None, 1)
@example([1.0, 2.0**-53, 2.0**-53 * (1 + 2.0**-52)], 1, None, data._EXACT_ROWS)
def test_exact_sums_round_as_fsum_over_any_union_of_groups(values, n_groups, draw, rows_per_pass):
    if draw is None:
        groups = [i % n_groups for i in range(len(values))]
        union = list(range(n_groups))
    else:
        groups = draw.draw(st.lists(st.integers(0, n_groups - 1), min_size=len(values), max_size=len(values)))
        union = draw.draw(st.lists(st.integers(0, n_groups - 1), unique=True))
    with mock.patch.object(data, "_EXACT_ROWS", rows_per_pass):
        sums = data.exact_sums(np.array(values, dtype=float), np.array(groups, dtype=np.intp), n_groups)
    assert len(sums) == n_groups
    selected = [v for v, g in zip(values, groups) if g in union]
    try:
        want = math.fsum(selected)
    except OverflowError:
        with pytest.raises(OverflowError):
            data.rounded(sum(sums[g] for g in union))
        return
    assert data.rounded(sum(sums[g] for g in union)).hex() == want.hex()


def test_exact_sums_of_one_group_by_default():
    values = np.array([0.1, 0.2, 0.3])
    assert data.exact_sums(values) == data.exact_sums(values, np.zeros(3, np.intp), 1)
    assert data.rounded(data.exact_sums(values)[0]) == math.fsum(values.tolist()) != sum(values.tolist())


@settings(max_examples=300, deadline=None)
@given(_exact_sum_values(), st.data())
@example([_MAX, _MAX], None)
@example([5e-324, 0.1, 0.1, 0.1], None)
def test_weighted_total_rounds_the_exact_weighted_sum(values, draw):
    if draw is None:
        factors = [1.0, 0.2, 0.2, 0.2][: len(values)]
    else:
        factor = st.sampled_from([0.0, 1.0, 0.2, 0.8, 1 / 3]) | st.floats(0.0, 1.0)
        factors = draw.draw(st.lists(factor, min_size=len(values), max_size=len(values)))
    sums = data.exact_sums(np.array(values, dtype=float), np.arange(len(values)), len(values))
    try:
        want = float(sum(Fraction(v) * Fraction(f) for v, f in zip(values, factors)))
    except OverflowError:
        with pytest.raises(OverflowError):
            data.weighted_total(sums, factors)
        return
    assert data.weighted_total(sums, factors).hex() == want.hex()


def test_scan_numbers_long_cells_when_every_hash_collides(monkeypatch):
    cells = ["SPD;GRUENE", "GRUENE;SPD", "CDU_CSU;FDP", "SPD", "AFD;LINKE;SPD", "FDP;CDU_CSU", "SPD;XYZ;FDP"]
    rng = np.random.default_rng(0)
    rows = [f"{rng.integers(1, 9) / 4},{cells[i]},{i % 2}" for i in rng.integers(0, len(cells), 300)]
    text = "weight,parties,x\n" + "\n".join(rows) + "\n"
    want = data._parse_rows(text, REG6, ("x",))
    hashed = []

    def colliding_hash(words):
        hashed.append(words.shape)
        return np.zeros(len(words), np.uint64)

    monkeypatch.setattr(data, "_cell_hash", colliding_hash)
    with mock.patch.object(data, "_BLOCK_CHARS", 256):
        got = data._parse_clean(text, REG6, ("x",))
    assert hashed and all(width > 1 for _, width in hashed)
    assert got is not None
    _assert_same_survey(got, want)
    assert got.dropped_rows > 0


def _csv_writer_reference(s):
    """survey_to_csv as one csv.writer row per respondent."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["weight", "parties", *s.schema])
    for w, ps, cov in s.cells.rows():
        writer.writerow([repr(w), ";".join(s.registry.codes_of(ps)), *map(str, cov)])
    return out.getvalue()


def _writer_survey(name):
    if name == "schema":
        config = SimConfig(
            REG6, 500, default_true_coefficients(6, 3), ("u", "v", "w"), coarsen_prob=0.4, seed=2,
            weight_range=(0.1, 3.0),
        )
        return generate_population(config)[0]
    if name == "no-schema":
        return Survey(REG6, (), [Respondent(1.5, REG6.set_of(["SPD", "FDP"])), Respondent(1.0, REG6.singleton("AFD"))])
    if name == "quoted":
        # A code holding a quote or a newline, and labels holding a quote or a comma, must be quoted.
        quoted = PartyRegistry(('A"1', "B", "C\nD"))
        respondents = [
            Respondent(0.1 * (i + 1), quoted.set_of(codes), (i % 2, i // 2 % 2))
            for i, codes in enumerate([['A"1'], ["B", 'A"1'], ["C\nD"], ["B"], ['A"1'], ["C\nD", "B"]])
        ]
        return Survey(quoted, ('x"1', "y,2"), respondents)
    return Survey(REG6, ("u",), [])


@pytest.mark.parametrize("name", ["schema", "no-schema", "quoted", "empty"])
def test_survey_to_csv_matches_csv_writer(name):
    s = _writer_survey(name)
    assert survey_to_csv(s).encode() == _csv_writer_reference(s).encode()
