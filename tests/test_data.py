import csv
import io
import json
import math
import re
from argparse import Namespace
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
from pollsets.bounds import parse_coalitions
from pollsets.cli import _seats
from pollsets.simulate import SimConfig, default_true_coefficients, generate_population

REG6 = PartyRegistry(("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE"))
WAVE3_SCHEMA = ("female", "age_65plus", "east", "high_income", "urban")


class TestParse:
    def test_undecided_row(self):
        s = parse_survey("weight,parties,east\n1.0,SPD;GRUENE,1\n", REG6, ("east",))
        assert len(s) == 1
        [(_, ps, cov)] = s.rows()
        assert not ps.is_singleton
        assert REG6.codes_of(ps) == ("SPD", "GRUENE")
        assert cov == (1,)

    def test_decided_singleton(self):
        s = parse_survey("weight,parties,east\n1.0,SPD,0\n", REG6, ("east",))
        [(_, ps, _)] = s.rows()
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
        with pytest.raises(SurveyFormatError, match="^line 2: no party codes$"):
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
        for w, _, _ in s.rows():
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
                assert s.patterns.dtype == np.uint8
                assert s.patterns.tolist() == [[int(v) for v in values]]
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("parties", "AB", "parties must be a list of codes, got 'AB'"),
        ("parties", ["A", 1], "parties must be a list of codes, got ['A', 1]"),
        ("parties", ["A", "A"], "party code 'A' repeated"),
        ("parties", ["A", "XX"], "unknown party code 'XX'"),
        ("parties", [], "no party codes"),
        ("weight", True, "weight must be a number, got True"),
        ("weight", "2.5", "weight must be a number, got '2.5'"),
    ],
)
def test_json_misread_fields_rejected(field, value, message):
    doc = {"registry": ["A", "B"], "schema": [], "wave": ""}
    doc["respondents"] = [{"weight": 1.0, "parties": ["A"], "covariates": None} for _ in range(2)]
    doc["respondents"][1][field] = value
    with pytest.raises(ValueError, match=f"^respondent 1: {re.escape(message)}$"):
        survey_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "weight, shown",
    [(10**400, "inf"), (-(10**400), "-inf"), (0, "0.0"), (-1.5, "-1.5")],
    ids=["huge-int", "huge-negative-int", "zero", "negative"],
)
def test_json_weight_out_of_range_names_the_respondent(weight, shown):
    # An integer past the largest float once escaped as OverflowError.
    doc = {"registry": ["A", "B"], "schema": [], "wave": ""}
    doc["respondents"] = [{"weight": 1.0, "parties": ["A"], "covariates": None} for _ in range(2)]
    doc["respondents"][1]["weight"] = weight
    message = f"respondent 1: weight must be positive and finite, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        survey_from_json(json.dumps(doc))


# Every reader of a list of party codes takes it through PartyRegistry.set_of.
# Codes hold no separator (",", ";") and no quote, so each reader's format
# can carry them unquoted.
_CODES = st.sampled_from(["A", "B", "C", "D", "XX", " A", "B  ", "\tC", "", " "])


def _outcome(read, prefix):
    """("ok", mask) for the set ``read()`` returns, or ("error", its message less ``prefix``)."""
    try:
        return ("ok", read().mask)
    except ValueError as exc:
        assert str(exc).startswith(prefix), (str(exc), prefix)
        return ("error", str(exc).removeprefix(prefix))


@settings(max_examples=300, deadline=None)
@given(codes=st.lists(_CODES, max_size=4))
def test_code_list_readers_agree(codes):
    registry = PartyRegistry(("A", "B", "C"))
    want = _outcome(lambda: registry.set_of(codes), "")
    cell = ";".join(codes)
    doc = {"registry": list(registry.options), "schema": [], "wave": ""}
    doc["respondents"] = [{"weight": 1.0, "parties": codes, "covariates": None}]
    readers = {
        "coalition line": _outcome(lambda: parse_coalitions(f"X,{cell}\n", registry)[0].members, "coalition line 1: "),
        "JSON respondent": _outcome(lambda: next(survey_from_json(json.dumps(doc)).rows())[1], "respondent 0: "),
        "--seats": _outcome(lambda: _seats(Namespace(seats=",".join(codes)), registry), "--seats: "),
    }
    assert readers == dict.fromkeys(readers, want)
    # A survey parties cell: the row parser rejects as the others do, and the
    # columnar scan declines, except that a row naming an unregistered code
    # is dropped and counted.  Where the row parser accepts, so does the scan.
    text = f"weight,parties\n1.0,{cell}\n"
    try:
        rows = data._parse_rows(text, registry, ())
    except SurveyFormatError as exc:
        assert str(exc).startswith("line 2: ") and want == ("error", str(exc).removeprefix("line 2: "))
        assert data._parse_clean(text, registry, ()) is None
        return
    if want[0] == "ok":
        assert (rows.dropped_rows, [ps.mask for _, ps, _ in rows.rows()]) == (0, [want[1]])
    else:
        assert want[1].startswith("unknown party code ") and (rows.dropped_rows, len(rows)) == (1, 0)
    assert data._parse_clean(text, registry, ()) == rows


def test_json_integer_weight_read_as_float():
    doc = {"registry": ["A", "B"], "schema": [], "wave": ""}
    doc["respondents"] = [{"weight": 2, "parties": ["B", "A"], "covariates": None}]
    s = survey_from_json(json.dumps(doc))
    assert [(w, ps.mask) for w, ps, _ in s.rows()] == [(2.0, 3)]


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
                return ("error", "no party codes", lineno)
            if len(set(codes)) != len(codes):
                repeated = next(code for code in codes if codes.count(code) > 1)
                return ("error", f"party code {repeated!r} repeated", lineno)
            if any(code not in DIFF_REGISTRY.options for code in codes):
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


# Cells in key order, sorted by (set, pattern), differ from cells in order of first appearance.
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
    got = [(w, ps.mask, cov) for w, ps, cov in s.rows()]
    assert got == want[1]
    assert s.dropped_rows == want[2]
    # Rows repeating a set share one object.
    shared_sets = {}
    for _, ps, _ in s.rows():
        assert shared_sets.setdefault(ps.mask, ps) is ps
    # The survey's cells must describe the same rows.
    patterns = sorted({v for _, _, v in want[1]})
    assert s.patterns.dtype == np.uint8
    assert s.patterns.shape == (len(patterns), len(DIFF_SCHEMA))
    assert s.weights.tolist() == [w for w, _, _ in want[1]]
    assert [
        (s.sets[s.cell_set[g]].mask, tuple(s.patterns[s.cell_pattern[g]].tolist()))
        for g in s.index.tolist()
    ] == [(mask, values) for _, mask, values in want[1]]
    assert {ps.mask: ws for ps, ws in zip(s.sets, _weights_by_set(s))} == {
        mask: [w for w, m, _ in want[1] if m == mask] for mask in {m for _, m, _ in want[1]}
    }
    assert s.set_counts.tolist() == [len(ws) for ws in _weights_by_set(s)]
    assert [data.rounded(total) for total in s.set_sums] == [math.fsum(ws) for ws in _weights_by_set(s)]
    assert len(set(zip(s.cell_set.tolist(), s.cell_pattern.tolist()))) == len(s.cell_set)
    # Sets are numbered by increasing bitmask, covariate patterns in
    # lexicographic order, and cells by set, then pattern.
    assert [ps.mask for ps in s.sets] == sorted({m for _, m, _ in want[1]})
    assert s.patterns.tolist() == [list(v) for v in patterns]
    assert [
        (s.sets[j].mask, tuple(s.patterns[c].tolist()))
        for j, c in zip(s.cell_set.tolist(), s.cell_pattern.tolist())
    ] == sorted({(m, v) for _, m, v in want[1]})
    # The public constructor, given the reference rows as Respondents, must
    # store the same table.
    rows = tuple(Respondent(w, PartySet(mask), values) for w, mask, values in want[1])
    built = Survey(DIFF_REGISTRY, DIFF_SCHEMA, rows, dropped_rows=want[2])
    assert built == s
    assert s.sets == built.sets
    for name in ("patterns", "cell_set", "cell_pattern", "index"):
        assert getattr(s, name).tolist() == getattr(built, name).tolist()
    assert built.patterns.dtype == np.uint8 and built.patterns.shape == s.patterns.shape
    assert s.weights.tobytes() == built.weights.tobytes()
    assert [[w.hex() for w in ws] for ws in _weights_by_set(s)] == [
        [w.hex() for w in ws] for ws in _weights_by_set(built)
    ]
    assert s.set_sums == built.set_sums
    assert [(w, ps.mask, cov) for w, ps, cov in built.rows()] == want[1]


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


_INTEGER_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")


@st.composite
def _keys_about_as_wide_as_many(draw):
    """Integer keys whose range, max - min, lies within a factor of two of their count.

    Keys whose range is smaller than their count take ``key_order``'s
    presence table, and the others the sort, so both paths are drawn.
    """
    n = draw(st.integers(1, 40))
    dtype = np.dtype(draw(st.sampled_from(_INTEGER_DTYPES)))
    info = np.iinfo(dtype)
    span = min(draw(st.integers(max(1, n // 2), 2 * n)), int(info.max) - int(info.min) + 1)
    low = draw(st.sampled_from([int(info.min), int(info.max) - span + 1]) | st.integers(int(info.min), int(info.max) - span + 1))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    # Both ends of the range appear, so the range is exactly ``span - 1``.
    offsets[draw(st.integers(0, n - 1))] = 0
    offsets[draw(st.integers(0, n - 1))] = span - 1
    return np.array([low + v for v in offsets], dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(_keys_about_as_wide_as_many())
@example(np.array([5, 3, 5, 4], dtype=np.int64))  # range 2 of 4 keys: the presence table
@example(np.array([7, 3, 7, 4], dtype=np.int64))  # range 4 of 4 keys: the sort
@example(np.array([-(2**63), 2**63 - 1], dtype=np.int64))
@example(np.array([-128, 127] + [0] * 254, dtype=np.int8))  # range 255 of 256 keys: the presence table
@example(np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64))
def test_key_order_matches_np_unique(keys):
    distinct, inverse = np.unique(keys, return_inverse=True)
    number, got = data.key_order(keys)
    assert number.tolist() == inverse.tolist()
    assert got.dtype == keys.dtype and got.tolist() == distinct.tolist()
    # Byte-string keys are always sorted, as np.unique sorts them.
    for view in (np.dtype((np.void, keys.itemsize)), np.dtype(f"S{keys.itemsize}")):
        byte_keys = keys.view(view)
        distinct, inverse = np.unique(byte_keys, return_inverse=True)
        number, got = data.key_order(byte_keys)
        assert number.tolist() == inverse.tolist()
        assert got.dtype == view and got.tobytes() == distinct.tobytes()


# Differential check of the columnar scan against the row parser.


def _parse_or_error(parse, text, schema=DIFF_SCHEMA):
    try:
        return parse(text, DIFF_REGISTRY, schema)
    except SurveyFormatError as exc:
        return str(exc)


def _assert_same_survey(got, want):
    assert got == want
    for survey in (got, want):
        patterns = survey.patterns
        assert patterns.dtype == np.uint8
        assert patterns.shape == (len(set(survey.cell_pattern.tolist())), len(survey.schema))
    assert got.dropped_rows == want.dropped_rows
    assert got.total_weight == want.total_weight
    assert got.weights.tobytes() == want.weights.tobytes()
    assert [[w.hex() for w in ws] for ws in _weights_by_set(got)] == [
        [w.hex() for w in ws] for ws in _weights_by_set(want)
    ]
    assert got.set_sums == want.set_sums


# Weight cells at the edges of the scan's decimal decode: plain decimals it
# takes, and cells it leaves to float() (too many digits or bytes, "_", a
# sign, a space, an exponent, "nan", two "." or no digit).
_DECIMAL_EDGES = [
    "1.", ".5", "007.50", "00000000000000001.5", "123456789012345", "9007199254740993",
    "0.30000000000000004", "1_0", "+1", " 1.5", "1e-3", "nan", "0.000", "1.2.3", ".",
]
# Edge cells no parser takes as a weight.
_NOT_WEIGHTS = ["nan", "0.000", "1.2.3", "."]
# 16 and 17 significant digits whose integer, divided by 10**k in float64,
# rounds twice and misses float(): a decode that took them would fail.
_DOUBLE_ROUNDED = ["95142426273599.37", "1.0164697501428709"]


@st.composite
def _clean_documents(draw):
    """(document, schema) pairs the columnar scan may take: no quote, CR or blank line, mostly clean rows."""
    schema = draw(st.sampled_from([DIFF_SCHEMA, ()]))
    width = 2 + len(schema)
    weights = st.sampled_from(["1.0", "2.5", "0.25", "3", "1_0", " 1.5", "1e-3", *_DECIMAL_EDGES, *_DOUBLE_ROUNDED])
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
    assert list(_assert_scanned(survey_to_csv(simulated), REG6, ("u", "v")).rows()) == list(simulated.rows())


def test_clean_scan_spans_blocks():
    # C, the spelling "B;A" and the pattern (1, 1) first appear after the first block.
    head = ["1.0,A,0,1", "2.5,B,1,0", "0.5,A;Z,0,0"] * (data._BLOCK_CHARS // 25)
    tail = ["1.0,B;A,1,1", "2.0,C,0,0", "1.0,A;B,0,1", "3.0,Z,1,1"] * 100
    assert sum(map(len, head)) > data._BLOCK_CHARS
    text = "weight,parties,x1,x2\n" + "\n".join(head + tail)
    s = _assert_scanned(text, DIFF_REGISTRY, DIFF_SCHEMA)
    assert [ps.mask for ps in s.sets] == [0b001, 0b010, 0b011, 0b100]
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
    assert s.patterns.shape == (4, 70)
    assert s.dropped_rows == 3


def test_clean_scan_declines_a_field_over_the_csv_limit():
    limit = csv.field_size_limit()
    at_limit = "weight,parties,x1,x2\n" + "0" * (limit - 1) + "1,A,0,1\n"
    _assert_scanned(at_limit, DIFF_REGISTRY, DIFF_SCHEMA)
    over = "weight,parties,x1,x2\n" + "0" * limit + "1,A,0,1\n"
    assert data._parse_clean(over, DIFF_REGISTRY, DIFF_SCHEMA) is None
    with pytest.raises(SurveyFormatError, match="line 2: malformed CSV: field larger than field limit"):
        parse_survey(over, DIFF_REGISTRY, DIFF_SCHEMA)


@st.composite
def _decimal_cells(draw):
    """1 to 20 ASCII digits, leading zeros included, with an optional "." anywhere."""
    digits = draw(st.text("0123456789", min_size=1, max_size=20))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(digits)))
        digits = digits[:at] + "." + digits[at:]
    return digits


@settings(max_examples=300, deadline=None)
@given(st.lists(_decimal_cells() | st.sampled_from(_DECIMAL_EDGES + _DOUBLE_ROUNDED), min_size=1, max_size=6))
@example([cell for cell in _DECIMAL_EDGES if cell not in _NOT_WEIGHTS])
@example(["1.5", "nan"])
@example(["1.5", "0.000"])
@example(["1.5", "1.2.3"])
@example(["1.5", "."])
@example(_DOUBLE_ROUNDED)
def test_clean_scan_decodes_weights_as_float_does(cells):
    # The decode takes exactly the plain decimals within its caps, and gives float()'s bits.
    buf = np.frombuffer("".join(f"{cell}\n" for cell in cells).encode(), np.uint8)
    ends = np.flatnonzero(buf == 10)
    values, decoded = data._decimals(buf, ends, ends - np.concatenate(([0], ends[:-1] + 1)))
    for cell, value, was_decoded in zip(cells, values.tolist(), decoded.tolist()):
        digits = len(cell) - cell.count(".")
        plain = set(cell) <= set("0123456789.") and cell.count(".") <= 1 and len(cell) <= 16 and 1 <= digits <= 15
        assert was_decoded == plain, cell
        if plain:
            assert value.hex() == float(cell).hex(), cell
    text = "weight,parties\n" + "".join(f"{cell},A\n" for cell in cells)
    fast = data._parse_clean(text, DIFF_REGISTRY, ())
    if fast is not None:
        assert [w.hex() for w in fast.weights.tolist()] == [float(cell).hex() for cell in cells]
    want = _parse_or_error(data._parse_rows, text, ())
    got = _parse_or_error(parse_survey, text, ())
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_survey(got, want)


def test_double_rounded_cells_miss_float():
    for cell in _DOUBLE_ROUNDED:
        whole, frac = cell.split(".")
        assert float(int(whole + frac)) / 10.0 ** len(frac) != float(cell)


# Codes that make parties cells of 7, 8, 9, 16 and 17 bytes: one 64-bit
# word less, exactly, more, two words exactly, and more.
_LONG_CODES = PartyRegistry(tuple(letter * n for letter, n in zip("ABCDE", (7, 8, 9, 16, 17))))


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("last", _LONG_CODES.options)
def test_clean_scan_finds_separators_around_long_parties_cells(last, p, final_newline):
    schema = DIFF_SCHEMA[:p]
    codes = [*_LONG_CODES.options, last]
    rows = [",".join([f"{i % 4 + 1}.25", code, *(str((i + j) % 2) for j in range(p))]) for i, code in enumerate(codes * 3)]
    header = ",".join(["weight", "parties", *schema])
    text = "\n".join([header, *rows]) + ("\n" if final_newline else "")
    extra = rows[4] + ",1"
    missing = rows[6].rpartition(",")[0] if p else rows[6].replace(",", "")
    # A line break one cell late leaves a line a comma over and the next a
    # comma short, with as many commas in all and each cell well formed.
    moved = rows[4] + "," + rows[5].replace(",", "\n", 1)
    faulty = [[*rows[:4], extra, *rows[5:]], [*rows[:6], missing, *rows[7:]], [*rows[:4], moved, *rows[6:]]]
    if p:
        faulty.append([*rows[:6], rows[6] + "1", *rows[7:]])  # a two-byte covariate cell
    for block_chars in (1, 30, data._BLOCK_CHARS):
        with mock.patch.object(data, "_BLOCK_CHARS", block_chars):
            s = _assert_scanned(text, _LONG_CODES, schema)
            for lines in faulty:
                assert data._parse_clean("\n".join([header, *lines]) + "\n", _LONG_CODES, schema) is None
    assert [_LONG_CODES.label_of(ps) for ps in s.sets] == list(_LONG_CODES.options)


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
    for w, ps, cov in s.rows():
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
