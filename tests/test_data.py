import contextlib
import csv
import io
import math
import sys
import threading
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
    survey_to_csv,
    undecided_share,
    validate,
)
from pollsets import bounds, data, forecast
from pollsets.bounds import parse_coalitions
from pollsets.cli import _seats
from pollsets.simulate import CoarsenStyle, SimConfig, default_true_coefficients, generate_population, truth_to_csv

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

    def test_header_not_utf8(self):
        document = b"weig\xfft,parties\n1.0,A\n"
        # The scan declines a header it cannot decode; the row parser names its line.
        assert data._parse_clean(document, REG6, ()) is None
        with pytest.raises(SurveyFormatError, match=r"^line 1: not UTF-8 text \(invalid start byte\)$"):
            parse_survey(document, REG6, ())


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
        [
            ("A,B", "separate"), ("A;B", "separate"), (" A", "whitespace"), ("A ", "whitespace"), ("A\t", "whitespace"),
            pytest.param("", "^registry codes must be nonempty$", id="empty"),
            pytest.param("A\rB", r"^registry code 'A\\rB' contains a carriage return$", id="carriage-return"),
        ],
    )
    def test_registry_rejects_unmatchable_codes(self, code, reason):
        # A code holding a separator or edge whitespace, or none, can never match a parsed cell;
        # survey_to_csv would write a carriage return unquoted, and the CLI reads it as a newline.
        with pytest.raises(ValueError, match=reason):
            PartyRegistry((code, "C"))

    def test_registry_size_limits(self):
        with pytest.raises(ValueError):
            PartyRegistry(("A",))
        with pytest.raises(ValueError):
            PartyRegistry(tuple(f"P{i}" for i in range(33)))

    def test_unregistered_code_has_no_index(self, abc_registry):
        with pytest.raises(KeyError, match="unknown party code 'Z'"):
            abc_registry.singleton("Z")

    def test_survey_equals_only_surveys(self, abc_survey):
        assert abc_survey.__eq__(list(abc_survey.rows())) is NotImplemented
        assert abc_survey != list(abc_survey.rows())

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
        schema = ("east", "urban")
        for values in ((0, 1), (True, False), (1.0, 0.0)):
            s = Survey(abc_registry, schema, (Respondent(1.0, a, values),))
            assert s.patterns.dtype == np.uint8
            assert s.patterns.tolist() == [[int(v) for v in values]]
            # Covariates spelled 1.0 or True are written back as 1.
            text = survey_to_csv(s)
            assert text == "weight,parties,east,urban\n1.0,A,{},{}\n".format(*map(int, values))
            assert parse_survey(text, abc_registry, schema) == s
        for bad in (2, -1, float("nan"), 0.5, "1", [0]):
            with pytest.raises(ValueError, match="^covariates must be binary 0/1$"):
                Survey(abc_registry, ("east",), (Respondent(1.0, a, (bad,)),))

    def test_schema_label_with_carriage_return_rejected(self, abc_registry):
        # survey_to_csv would write it unquoted, and the CLI reads it as a newline.
        message = r"^schema label 'a\\rb' contains a carriage return$"
        with pytest.raises(ValueError, match=message):
            Survey.build(abc_registry, ("a\rb",), [1.0], [1], [[1]])
        with pytest.raises(ValueError, match=message):
            Survey(abc_registry, ("a\rb",), (Respondent(1.0, abc_registry.singleton("A"), (1,)),))

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


ABC = PartyRegistry(("A", "B", "C"))
_COLUMNS = "^columns must hold one weight, one set and one covariate row per respondent$"
_BINARY = "^covariates must be binary 0/1$"
_WEIGHTS = "^weights must be positive and finite$"
_MASKS = r"^set bitmasks must be whole numbers in \[1, 2\^3\)$"


@pytest.mark.parametrize(
    "weights,masks,patterns,message",
    [
        ([1.0, 2.0], [1, 2], [[0]], _COLUMNS),
        ([1.0], [1, 2], [[0], [1]], _COLUMNS),
        ([1.0, 2.0], [1], [[0], [1]], _COLUMNS),
        ([1.0, 2.0], [1, 2], [0, 1], _COLUMNS),
        (1.0, [1], [[0]], _COLUMNS),
        ([1.0, 1.0, 1.0], [1, 2, 4], [[2], [3], [255]], _BINARY),
        ([1.0], [1], [[0.5]], _BINARY),
        ([1.0], [1], [[-1]], _BINARY),
        ([1.0], [1], [[0, 1]], "^respondent covariates do not match the survey schema$"),
        ([1.0, -1.0], [1, 2], [[0], [1]], _WEIGHTS),
        ([1.0, 0.0], [1, 2], [[0], [1]], _WEIGHTS),
        ([1.0, math.nan], [1, 2], [[0], [1]], _WEIGHTS),
        ([1.0, math.inf], [1, 2], [[0], [1]], _WEIGHTS),
        ([1.0], [1.5], [[0]], _MASKS),
        ([1.0], [0], [[0]], _MASKS),
        ([1.0], [2**63], [[0]], _MASKS),
        ([1.0], [8], [[0]], _MASKS),
        ([1.0], ["1"], [[0]], _MASKS),
        ([1.0], [True], [[0]], _MASKS),
    ],
    ids=[
        "one-row-for-two", "one-weight-for-two", "one-set-for-two", "flat-patterns", "scalar-weight",
        "covariates-2-3-255", "covariate-half", "covariate-minus-one", "two-covariates-for-one-label",
        "weight-negative", "weight-zero", "weight-nan", "weight-inf",
        "mask-half", "mask-zero", "mask-2**63", "mask-past-the-registry", "mask-text", "mask-bool",
    ],
)
def test_build_rejects_malformed_columns(weights, masks, patterns, message):
    # Nothing is broadcast or cast away: a NaN weight raises no RuntimeWarning on the way either.
    with pytest.raises(ValueError, match=message):
        Survey.build(ABC, ("x",), weights, masks, np.array(patterns))


@st.composite
def _column_sets(draw):
    p = draw(st.integers(0, 2))
    weights = draw(st.lists(st.floats() | st.sampled_from([0.5, 1.0, 2.5]), max_size=3))
    masks = draw(st.lists(st.integers(-1, 9), max_size=3))
    rows = draw(st.lists(st.lists(st.sampled_from([0, 1, 0, 1, 2, 255, -1, 0.5]), min_size=p, max_size=p), max_size=3))
    return p, weights, masks, np.array(rows).reshape(len(rows), p)


@settings(max_examples=200, deadline=None)
@given(_column_sets())
def test_build_keeps_its_columns_or_raises(columns):
    p, weights, masks, patterns = columns
    try:
        s = Survey.build(ABC, tuple(f"x{j}" for j in range(p)), weights, masks, patterns)
    except ValueError:
        return
    assert len(weights) == len(masks) == len(patterns)
    assert all(0.0 < w < math.inf for w in weights)
    assert list(s.rows()) == [(w, PartySet(m), tuple(row)) for w, m, row in zip(weights, masks, patterns.tolist())]


def test_bounds_and_summaries_leave_the_cell_table_unnumbered(monkeypatch, wave3_path):
    def refuse(bits):
        raise AssertionError("the cell table was numbered")

    document = wave3_path.read_bytes()
    box = bounds.AllocationConstraint(0.2, 0.8)
    specs = parse_coalitions((wave3_path.parent / "coalitions_2021.csv").read_text(), REG6)
    with monkeypatch.context() as patched:
        patched.setattr(data, "number_patterns", refuse)
        s = parse_survey(document, REG6, WAVE3_SCHEMA)
        validate(s)
        group_counts(s)
        forecast.conventional_forecast(s)
        bounds.dempster_bounds(s)
        bounds.constrained_bounds(s, box)
        bounds.seat_bounds(s, REG6.set_of(["SPD", "CDU_CSU", "GRUENE"]), box)
        bounds.coalition_report(s, specs, box)
        with pytest.raises(AssertionError, match="numbered"):
            s.index
    # The first read after the patch numbers the whole table, read-only, with the eager build's dtypes.
    assert len(s.index) == len(s)
    for name, dtype in (("patterns", np.uint8), ("cell_set", np.intp), ("cell_pattern", np.intp), ("index", np.intp)):
        values = getattr(s, name)
        assert values.dtype == dtype and not values.flags.writeable
    assert s.patterns.shape[1] == len(WAVE3_SCHEMA)


@pytest.mark.parametrize("first", ["parsed", "adapter", "neither"])
def test_first_read_numbers_as_the_adapter_does(wave3_path, first):
    document = wave3_path.read_bytes()
    respondents = [Respondent(*row) for row in parse_survey(document, REG6, WAVE3_SCHEMA).rows()]
    parsed, built = parse_survey(document, REG6, WAVE3_SCHEMA), Survey(REG6, WAVE3_SCHEMA, respondents)
    if first != "neither":
        (parsed if first == "parsed" else built).cell_pattern
    assert parsed == built and built == parsed
    assert [s.patterns.tobytes() for s in (parsed, built)] == [parsed.patterns.tobytes()] * 2


def test_first_reads_from_many_threads_see_one_cell_table(wave3_path):
    names = ("patterns", "cell_set", "cell_pattern", "index")
    document = wave3_path.read_bytes()
    reference = parse_survey(document, REG6, WAVE3_SCHEMA)
    want = [getattr(reference, name).tobytes() for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            s = parse_survey(document, REG6, WAVE3_SCHEMA)
            start, seen = threading.Barrier(4), []

            def read(first):
                start.wait(timeout=10)
                order = names[first:] + names[:first]
                got = {name: getattr(s, name).tobytes() for name in order}
                seen.append([got[name] for name in names])

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [want] * 4
    finally:
        sys.setswitchinterval(interval)


def test_build_copies_the_covariate_rows_it_numbers_later():
    bits = np.array([[0], [1], [1]], dtype=np.uint8)
    s = Survey.build(ABC, ("x",), [1.0, 1.0, 1.0], [1, 3, 3], bits)
    bits[:] = 0
    assert list(s.rows()) == [(1.0, PartySet(1), (0,)), (1.0, PartySet(3), (1,)), (1.0, PartySet(3), (1,))]


def test_build_keeps_read_only_owned_columns_and_copies_any_other():
    weights, bits = np.array([1.0, 2.5, 0.5]), np.array([[0], [1], [1]], dtype=np.uint8)
    weights.flags.writeable = bits.flags.writeable = False
    s = Survey.build(ABC, ("x",), weights, [1, 3, 3], bits)
    assert s.weights is weights and vars(s)["_rows"][1] is bits
    # A writable column, a view and another dtype are copied, read-only.
    for w, b in ((weights.copy(), bits.copy()), (weights[::1], bits[::1]), (weights.astype(np.float32), bits.astype(bool))):
        s = Survey.build(ABC, ("x",), w, [1, 3, 3], b)
        kept = vars(s)["_rows"][1]
        assert s.weights is not w and kept is not b and not (s.weights.flags.writeable or kept.flags.writeable)
        assert (s.weights.dtype, kept.dtype) == (np.float64, np.uint8)
    assert list(s.rows()) == [(1.0, PartySet(1), (0,)), (2.5, PartySet(3), (1,)), (0.5, PartySet(3), (1,))]


def test_parse_hands_build_columns_it_keeps(monkeypatch, wave3_path):
    built = []
    build = Survey.build.__func__
    monkeypatch.setattr(Survey, "build", classmethod(lambda cls, *args, **kw: built.append(args) or build(cls, *args, **kw)))
    s = parse_survey(wave3_path.read_bytes(), REG6, WAVE3_SCHEMA)
    (_, _, weights, _, bits), = built
    assert s.weights is weights and vars(s)["_rows"][1] is bits


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
def test_round_trip_csv(s):
    _assert_round_trip(s)


def _assert_round_trip(s):
    again = parse_survey(survey_to_csv(s), s.registry, s.schema)
    assert again == s
    assert again.weights.tobytes() == s.weights.tobytes() and again.set_sums == s.set_sums


# Codes a CSV cell must quote, and one outside ASCII.
_QUOTED_CODES = PartyRegistry(('A"B', "C\nD", "Ä", "E"))


@pytest.mark.parametrize("registry", [PartyRegistry(("A", "B", "C")), _QUOTED_CODES], ids=["plain", "quoted"])
@pytest.mark.parametrize(
    "weights", [(1.0, 1.0), (0.5, 2.0), (1e-320, 1e-310), (1e15, 1e17)], ids=["unit", "half-to-two", "subnormal", "big"]
)
@pytest.mark.parametrize("style", list(CoarsenStyle), ids=lambda style: style.value)
def test_round_trip_csv_of_simulated_surveys(registry, weights, style):
    schema = ("x1", "x2")
    coef = default_true_coefficients(len(registry), len(schema))
    config = SimConfig(registry, 300, coef, schema, coarsen_prob=0.5, style=style, seed=3, weight_range=weights)
    s, truth = generate_population(config)
    _assert_round_trip(s)
    rows = list(csv.reader(io.StringIO(truth_to_csv(s, truth))))
    assert rows == [["vote"], *([registry.options[v]] for v in truth.votes.tolist())]


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


# Blank lines send the document to the row parser, which skips them.
@pytest.mark.parametrize("newline", ["\n", "\n\n"], ids=["clean-scan", "row-parser"])
def test_weight_total_past_the_largest_float_rejected(newline):
    text = newline.join(["weight,parties,x1,x2", "1e308,A,0,1", "1e308,B,1,0", ""])
    with pytest.raises(ValueError, match="^total weight exceeds the largest float$"):
        parse_survey(text, DIFF_REGISTRY, DIFF_SCHEMA)
    respondents = [Respondent(1e308, PartySet(1), (0, 1)), Respondent(1e308, PartySet(2), (1, 0))]
    with pytest.raises(ValueError, match="^total weight exceeds the largest float$"):
        Survey(DIFF_REGISTRY, DIFF_SCHEMA, respondents)


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
    readers = {
        "coalition line": _outcome(lambda: parse_coalitions(f"X,{cell}\n", registry)[0].members, "coalition line 1: "),
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
    parse_survey(wave3_path.read_text(), REG6, WAVE3_SCHEMA)
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
@example(np.array([-(2**63), -(2**63) + 1, -(2**63)], dtype=np.int64))  # the presence table at the int64 floor
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
# sign, a space, an exponent, "nan", two "." or no digit).  The 8-byte cells
# are the largest digit integers of the one-word float path.
_EIGHT_BYTE_EDGES = ["99999999", "9999999.", ".9999999", "10000000"]
_DECIMAL_EDGES = [
    "1.", ".5", "007.50", "00000000000000001.5", "123456789012345", "9007199254740993",
    "0.30000000000000004", "1_0", "+1", " 1.5", "1e-3", "nan", "0.000", "1.2.3", ".",
    *_EIGHT_BYTE_EDGES, "0.0000001",
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
@example(("\ufeffweight,parties,x1,x2\n1.0,A;B,0,1\n2.5,C,1,1\n0.25,B,1,0", DIFF_SCHEMA), 8)  # BOM bytes
@example((b"weight,parties,x1,x2\n1.0,A,0,1\n2.5,C,1,1\n1.0,\xc9,1,0\n", DIFF_SCHEMA), 8)  # not UTF-8
@example((b"weight,parties\n1.0,A\n2.5,C\xff\n", ()), data._BLOCK_CHARS)  # not UTF-8, scanned whole
def test_clean_scan_matches_row_parser(document, block_chars):
    source, schema = document
    raw = source.encode() if isinstance(source, str) else source
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        # Only bytes parse; they name the line of the first bad byte (these documents hold no CR).
        line = raw[: exc.start].count(b"\n") + 1
        text, want = None, f"line {line}: not UTF-8 text ({exc.reason})"
    else:
        want = _parse_or_error(data._parse_rows, text, schema)
    # Small blocks number sets and patterns across many blocks.  Bytes parse as their text does.
    for document in (text, raw) if text is not None else (raw,):
        with mock.patch.object(data, "_BLOCK_CHARS", block_chars):
            fast = data._parse_clean(document, DIFF_REGISTRY, schema)
            got = _parse_or_error(parse_survey, document, schema)
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
        "weight,parties,x1,x2\n1.0,A,0,1\n2.0,B\ud800,1,0\n",
        # 21 weights go through float(); padded to the longest, they would take over 8 bytes per byte of the block.
        "weight,parties,x1,x2\n" + "1e0,A,0,1\n" * 20 + "0" * 199 + "1,B,1,0\n",
    ],
    ids=["quoted", "crlf", "blank-line", "no-rows", "not-utf8-encodable", "float-weights-too-wide-to-pad"],
)
def test_clean_scan_declines_and_the_row_parser_reads(text):
    assert data._parse_clean(text, DIFF_REGISTRY, DIFF_SCHEMA) is None
    want = data._parse_rows(text, DIFF_REGISTRY, DIFF_SCHEMA)
    _assert_same_survey(parse_survey(text, DIFF_REGISTRY, DIFF_SCHEMA), want)


@pytest.mark.parametrize("kind", ["str", "bytes"])
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_any_newline_parses_as_lf(monkeypatch, kind, newline):
    text = "\ufeffweight,parties,x1,x2\n1.0,A,0,1\n2.5,B;A,1,0\n0.5,Z,1,1\n1.0,\u00c9,0,0\n"
    want = data._parse_rows(text, DIFF_REGISTRY, DIFF_SCHEMA)
    document = text.replace("\n", newline)
    parse_rows = data._parse_rows
    calls = []
    monkeypatch.setattr(data, "_parse_rows", lambda *args: calls.append(args) or parse_rows(*args))
    got = parse_survey(document if kind == "str" else document.encode(), DIFF_REGISTRY, DIFF_SCHEMA)
    _assert_same_survey(got, want)
    # The columnar scan reads the document with its newlines made "\n".
    assert calls == []


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
    label = "x" * (limit + 1)
    long_label = f"weight,parties,{label}\n1.0,A,0\n"
    assert data._parse_clean(long_label, DIFF_REGISTRY, (label,)) is None
    with pytest.raises(SurveyFormatError, match="^line 1: malformed CSV: field larger than field limit"):
        parse_survey(long_label, DIFF_REGISTRY, (label,))


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
@example(_EIGHT_BYTE_EDGES)
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


@pytest.mark.parametrize("block_chars", [8, data._BLOCK_CHARS])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_clean_scan_reads_windows_in_place_at_the_document_edges(monkeypatch, kind, final_newline, block_chars):
    # The shortest header leaves 15 bytes before the first weight, a 1-byte
    # cell read through a 16-byte window, since another weight has 16 bytes;
    # the widest parties cell is on the last row, so its 8-byte words run
    # past the document's end.
    rows = ["1,A", "0.00000000000001,B", "1.23456789012345,A;B", "2.5,C", "3,C;A;B"]
    text = "weight,parties\n" + "\n".join(rows) + ("\n" if final_newline else "")
    document = text if kind == "str" else text.encode()
    buffers = []
    decimals = data._decimals
    monkeypatch.setattr(data, "_decimals", lambda buf, *args: buffers.append(buf) or decimals(buf, *args))
    monkeypatch.setattr(data, "_BLOCK_CHARS", block_chars)
    fast = data._parse_clean(document, DIFF_REGISTRY, ())
    assert fast is not None
    _assert_same_survey(fast, data._parse_rows(text, DIFF_REGISTRY, ()))
    assert [w.hex() for w in fast.weights.tolist()] == [float(row.split(",")[0]).hex() for row in rows]
    # Bytes are read in place, but for a last line that needs its newline.
    in_place = [buf.base is document for buf in buffers]
    assert in_place == [kind == "bytes" and (final_newline or i < len(buffers) - 1) for i in range(len(buffers))]


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


# Eight values, the largest just below 2 (E = 0) and seven with full
# mantissas 24 or 25 binades lower: ceil(log2 n) + (E - e) is 27, the grid's
# bound, or 28, one past it.
_LARGEST = 2.0 - 2.0**-52
_AT_GRID_BOUND = [_LARGEST] + [_LARGEST * 2.0**-24] * 7
_PAST_GRID_BOUND = [_LARGEST] + [_LARGEST * 2.0**-25] * 7


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
@example(_AT_GRID_BOUND, 2, None, data._EXACT_ROWS)
@example(_PAST_GRID_BOUND, 2, None, data._EXACT_ROWS)
@example([1.5, 0.0, 2.5], 4, None, data._EXACT_ROWS)  # a zero, and a group with no rows
@example([_TINY / 3, 5e-324, _TINY], 1, None, data._EXACT_ROWS)  # subnormals
@example([_MAX / 2, _MAX / 3, 1.0], 2, None, data._EXACT_ROWS)  # near the largest float
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


@pytest.mark.parametrize(
    "values, banded",
    [
        (_AT_GRID_BOUND, False),
        (_PAST_GRID_BOUND, True),
        ([_TINY / 3, 5e-324, _TINY * 4], False),
        ([5e-324, 1.0], True),
        ([1.0, 0.0], True),
        ([_MAX / 2, _MAX / 4], True),
        ([-1.0, 2.0], True),
    ],
    ids=["at-the-bound", "past-the-bound", "subnormals", "subnormal-and-one", "zero", "near-max", "negative"],
)
def test_exact_sums_split_on_one_grid_within_its_bound(monkeypatch, values, banded):
    bands = []
    split = data._exponent_bands
    monkeypatch.setattr(data, "_exponent_bands", lambda *args: bands.append(args) or split(*args))
    sums = data.exact_sums(np.array(values), np.arange(len(values)) % 2, 3)
    assert bool(bands) == banded
    assert sums[2] == 0
    for groups in ([0], [1], [0, 1]):
        want = math.fsum(v for i, v in enumerate(values) if i % 2 in groups)
        assert data.rounded(sum(sums[g] for g in groups)).hex() == want.hex()


def test_exact_sums_split_benchmark_weights_on_one_grid(monkeypatch):
    # 200,000 four-decimal weights in [0.5, 2] over 41 sets, as the 200k-row benchmark wave holds.
    rng = np.random.default_rng(5)
    weights, groups = np.round(rng.uniform(0.5, 2.0, 200_000), 4), rng.integers(0, 41, 200_000)
    monkeypatch.setattr(data, "_exponent_bands", mock.Mock(side_effect=AssertionError("split per band")))
    sums = data.exact_sums(weights, groups, 41)
    for g in range(41):
        assert data.rounded(sums[g]).hex() == math.fsum(weights[groups == g].tolist()).hex()


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


def test_scan_numbers_cells_that_share_a_table_slot(monkeypatch):
    cells = ["SPD", "FDP", "SPD;GRUENE", "GRUENE;SPD", "AFD;LINKE;SPD", "SPD;XYZ;FDP"]
    rng = np.random.default_rng(1)
    rows = [f"{rng.integers(1, 9) / 4},{cells[i]},{i % 2}" for i in rng.integers(0, len(cells), 300)]
    text = "weight,parties,x\n" + "\n".join(rows) + "\n"
    want = data._parse_rows(text, REG6, ("x",))
    hashed = []
    key_order = data.key_order

    def hash_order(keys):
        hashed.append(keys.dtype == np.uint64)
        return key_order(keys)

    # Every cell in slot 0: the representatives disagree, so the cells are numbered by their hashes.
    monkeypatch.setattr(data, "_table_slots", lambda hashes, bits: np.zeros(len(hashes), np.intp))
    monkeypatch.setattr(data, "key_order", hash_order)
    with mock.patch.object(data, "_BLOCK_CHARS", 256):
        got = data._parse_clean(text, REG6, ("x",))
    assert any(hashed)
    assert got is not None
    _assert_same_survey(got, want)


def test_cells_of_the_same_words_in_another_order_hash_apart(monkeypatch):
    # Two 7-byte codes: "ABCDEFG;" + "HIJKLMN\0" and "HIJKLMN;" + "ABCDEFG\0" hold the same bytes at each place.
    registry = PartyRegistry(("ABCDEFG", "HIJKLMN"))
    cells = np.array([b"ABCDEFG;HIJKLMN", b"HIJKLMN;ABCDEFG"], dtype="S16")
    hashes = data._cell_hash(cells.view(np.uint64).reshape(2, 2))
    assert hashes[0] != hashes[1]
    rows = [f"{1 + i % 4}.5,{'ABCDEFG;HIJKLMN' if i % 3 else 'HIJKLMN;ABCDEFG'},{i % 2}" for i in range(200)]
    text = "weight,parties,x\n" + "\n".join(rows) + "\n"
    ordered = []
    key_order = data.key_order
    monkeypatch.setattr(data, "key_order", lambda keys: ordered.append(keys.dtype.kind) or key_order(keys))
    got = data._parse_clean(text, registry, ("x",))
    assert got is not None and "S" not in ordered
    _assert_same_survey(got, data._parse_rows(text, registry, ("x",)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([b"A", b"B;A", b"", b"A" * 8, b"A" * 9, b"B" * 20, b"\xff" * 8]), min_size=1, max_size=60),
    st.sampled_from([None, "_table_slots", "_cell_hash"]),
)
def test_number_cells_numbers_each_distinct_cell_once(values, clash):
    """Each path, the hashed table, a shared slot and a shared hash, numbers the same partition of the rows."""
    width = max(8, -(-max(map(len, values)) // 8) * 8)
    cells = np.array(values, dtype=f"S{width}")
    patches = {
        "_table_slots": lambda hashes, bits: np.zeros(len(hashes), np.intp),
        "_cell_hash": lambda words: np.zeros(len(words), np.uint64),
    }
    with mock.patch.object(data, clash, patches[clash]) if clash else contextlib.nullcontext():
        number, distinct = data._number_cells(cells)
    assert distinct.dtype == cells.dtype
    assert distinct[number].tobytes() == cells.tobytes()
    assert sorted(set(number.tolist())) == list(range(len(distinct)))
    assert len(set(distinct.tolist())) == len(distinct)


def _repr_texts(values) -> list[str]:
    """data._repr_text of a float64 column, each row's kept bytes as a string."""
    text, bounds = data._repr_text(np.asarray(values, dtype=float))
    keep = data._runs(bounds, text.shape[1])
    return [row[mask].tobytes().decode() for row, mask in zip(text, keep)]


_SMALLEST_NORMAL = 2.2250738585072014e-308
# Subnormals at Schubfach's 10 c path, the normal floor, the largest float,
# each side of both notation switches, the exactly representable 1e22 and
# its inexact neighbour 1e23, integers past 2**53, and a tie broken to even.
_REPR_EDGES = [
    5e-324, 1e-323, 8e-323,
    _SMALLEST_NORMAL, math.nextafter(_SMALLEST_NORMAL, 0.0), 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
    1e22, 1e23, 2.0**53, 2.0**53 + 2,
    2.0**50 + 0.25,
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=1, max_size=8))
@example(_REPR_EDGES)
@example([5e-324])
@example([1e-323])
@example([8e-323])
@example([_SMALLEST_NORMAL])
@example([math.nextafter(_SMALLEST_NORMAL, 0.0)])
@example([1.7976931348623157e308])
@example([1e16])
@example([9999999999999998.0])
@example([1e-4])
@example([9.999999999999999e-05])
@example([1e22])
@example([1e23])
@example([2.0**53])
@example([2.0**53 + 2])
def test_repr_text_is_repr(values):
    assert _repr_texts(values) == list(map(repr, values))


def test_repr_text_is_repr_on_a_seeded_sweep():
    # 2e5 random positive finite bit patterns, every power of two, and each power of ten with its neighbours.
    rng = np.random.default_rng(20201)
    bits = rng.integers(1, 0x7FF0000000000000, size=200_000, dtype=np.uint64)
    tens = 10.0 ** np.arange(-323, 309)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate((bits.view(float), powers, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)))
    for start in range(0, len(values), 4096):
        block = values[start : start + 4096]
        assert _repr_texts(block) == list(map(repr, block.tolist()))


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
    if name == "subnormal":
        config = SimConfig(
            REG6, 300, default_true_coefficients(6, 2), ("u", "v"), coarsen_prob=0.4, seed=3,
            weight_range=(1e-320, 1e-310),
        )
        return generate_population(config)[0]
    if name == "exponent":
        # repr switches to d.ddde+XX from 1e16 up and below 1e-4.
        weights = [1e16, 1.5e16, 2.5e17, 1e22, 1e23, 1e300, 9.999999999999999e-05, 1e-05, 1.2345e-100, 5e-324, 0.5]
        return Survey(REG6, ("u",), [Respondent(w, REG6.singleton("SPD"), (i % 2,)) for i, w in enumerate(weights)])
    if name == "non-ascii":
        accents = PartyRegistry(("GRÜNE", "Ø", "日本", "B"))
        respondents = [
            Respondent(1.25, accents.set_of(codes), (i % 2,))
            for i, codes in enumerate([["GRÜNE"], ["Ø", "日本"], ["B", "GRÜNE"], ["日本"]])
        ]
        return Survey(accents, ("é",), respondents)
    if name == "weighted-50k":
        config = SimConfig(
            REG6, 50_000, default_true_coefficients(6, 4), ("u", "v", "w", "x"), coarsen_prob=0.5, seed=5,
            weight_range=(0.5, 2.0),
        )
        return generate_population(config)[0]
    return Survey(REG6, ("u",), [])


@pytest.mark.parametrize(
    "name", ["schema", "no-schema", "quoted", "empty", "subnormal", "exponent", "non-ascii", "weighted-50k"]
)
def test_survey_to_csv_matches_csv_writer(name):
    s = _writer_survey(name)
    assert survey_to_csv(s).encode() == _csv_writer_reference(s).encode()
