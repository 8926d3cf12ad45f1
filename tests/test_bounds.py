import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pollsets import (
    AllocationConstraint,
    CoalitionSpec,
    Interval,
    Majority,
    PartyRegistry,
    PartySet,
    Respondent,
    Survey,
    coalition_report,
    constrained_bounds,
    conventional_forecast,
    dempster_bounds,
    effective_allocation_limits,
    event_bounds,
    group_counts,
    homogeneity_forecast,
    majority_classification,
    mnl,
    seat_bounds,
    share_bounds,
    transition_probabilities,
    validate,
)
from pollsets.bounds import IntervalForecast, _contribution_limits, parse_coalitions
from pollsets.data import exact_sums
from pollsets.forecast import decided_design
from conftest import random_event, random_survey
from oracles import boxed_share_bounds, completion_bounds, seat_oracle, set_weights


class TestDempster:
    def test_worked_fixture(self, abc_survey):
        f = dempster_bounds(abc_survey)
        assert (f["A"].lower, f["A"].upper) == (0.4, 0.6)
        assert (f["B"].lower, f["B"].upper) == (0.2, 0.4)
        assert (f["C"].lower, f["C"].upper) == (0.2, 0.2)

    def test_all_decided_degenerate(self, abc_registry):
        reg = abc_registry
        s = Survey(reg, (), (Respondent(2.0, reg.singleton("A")), Respondent(1.0, reg.singleton("B"))))
        f = dempster_bounds(s)
        conv = conventional_forecast(s)
        for code in reg.options:
            assert f[code].lower == f[code].upper == conv[code]

    def test_full_ambiguity(self, abc_registry):
        s = Survey(abc_registry, (), (Respondent(1.0, abc_registry.full_set()),))
        f = dempster_bounds(s)
        for code in abc_registry.options:
            assert (f[code].lower, f[code].upper) == (0.0, 1.0)

    def test_empty_survey_errors(self, abc_registry):
        with pytest.raises(ValueError):
            dempster_bounds(Survey(abc_registry, (), ()))


class TestEventBounds:
    def test_event_ab_dissolves_ambiguity(self, abc_survey, abc_registry):
        iv = event_bounds(abc_survey, abc_registry.set_of(["A", "B"]))
        assert (iv.lower, iv.upper) == (0.8, 0.8)

    def test_constrained_singleton(self, abc_survey, abc_registry):
        iv = event_bounds(abc_survey, abc_registry.singleton("A"), AllocationConstraint(0.2, 0.8))
        assert abs(iv.lower - 0.44) < 1e-12
        assert abs(iv.upper - 0.56) < 1e-12

    def test_full_registry_event(self, abc_survey, abc_registry):
        iv = event_bounds(abc_survey, abc_registry.full_set())
        assert (iv.lower, iv.upper) == (1.0, 1.0)


class TestEffectiveLimits:
    def test_pair_keeps_raw_box(self):
        # fl(0.2) + fl(0.8) > 1, so the other party's least share caps beta just below fl(0.8).
        assert effective_allocation_limits(2, AllocationConstraint(0.2, 0.8)) == (Fraction(0.2), 1 - Fraction(0.2))

    def test_singleton_votes_itself(self):
        limits = effective_allocation_limits(1, AllocationConstraint(0.3, 0.4))
        assert limits == (1, 1) and all(type(x) is int for x in limits)

    def test_five_way_fully_forced(self):
        assert effective_allocation_limits(5, AllocationConstraint(0.2, 0.8)) == (Fraction(1, 5), Fraction(1, 5))

    @given(st.integers(1, 8), st.floats(0, 1), st.floats(0, 1))
    def test_box_always_reaches_simplex(self, k, a, b):
        alpha, beta = min(a, b), max(a, b)
        alpha_eff, beta_eff = effective_allocation_limits(k, AllocationConstraint(alpha, beta))
        assert alpha_eff <= Fraction(1, k) <= beta_eff
        assert (k - 1) * alpha_eff + beta_eff <= 1


class TestConstrainedBounds:
    def test_worked_fixture(self, abc_survey):
        f = constrained_bounds(abc_survey, AllocationConstraint(0.2, 0.8))
        assert abs(f["A"].lower - 0.44) < 1e-12 and abs(f["A"].upper - 0.56) < 1e-12
        assert abs(f["B"].lower - 0.24) < 1e-12 and abs(f["B"].upper - 0.36) < 1e-12
        assert (f["C"].lower, f["C"].upper) == (0.2, 0.2)

    def test_vacuous_constraint_is_dempster_exactly(self, abc_survey):
        loose = constrained_bounds(abc_survey, AllocationConstraint(0.0, 1.0))
        demp = dempster_bounds(abc_survey)
        for code in abc_survey.registry.options:
            assert (loose[code].lower, loose[code].upper) == (demp[code].lower, demp[code].upper)

    def test_all_decided_any_constraint(self, abc_registry):
        reg = abc_registry
        s = Survey(reg, (), (Respondent(1.5, reg.singleton("A")), Respondent(0.5, reg.singleton("C"))))
        f = constrained_bounds(s, AllocationConstraint(0.3, 0.6))
        conv = conventional_forecast(s)
        for code in reg.options:
            assert f[code].lower == f[code].upper == conv[code]


class TestMajority:
    @pytest.mark.parametrize(
        "interval,expected",
        [
            (Interval(0.52, 0.60), Majority.GUARANTEED),
            (Interval(0.45, 0.55), Majority.POSSIBLE),
            (Interval(0.50, 0.50), Majority.EXCLUDED),
        ],
    )
    def test_classification(self, interval, expected):
        assert majority_classification(interval) is expected

    def test_threshold_parameter(self):
        assert majority_classification(Interval(0.35, 0.45), threshold=0.3) is Majority.GUARANTEED


class TestCoalitionReport:
    def test_worked_fixture(self, abc_survey, abc_registry):
        reg = abc_registry
        specs = [
            CoalitionSpec("AB", reg.set_of(["A", "B"])),
            CoalitionSpec("C_ALONE", reg.singleton("C")),
            CoalitionSpec("ALL", reg.full_set()),
        ]
        report = coalition_report(abc_survey, specs)
        assert [name for name, _, _ in report] == ["AB", "C_ALONE", "ALL"]
        assert report[0][1].lower == 0.8 and report[0][2] is Majority.GUARANTEED
        assert report[1][1].upper == 0.2 and report[1][2] is Majority.EXCLUDED
        assert report[2][1].lower == 1.0 and report[2][2] is Majority.GUARANTEED


class TestParseCoalitions:
    def test_names_and_members_in_order(self, abc_registry):
        specs = parse_coalitions("# comment\n\nAB, A ; B\nC_ALONE,C\n", abc_registry)
        assert specs == [CoalitionSpec("AB", abc_registry.set_of("AB")), CoalitionSpec("C_ALONE", abc_registry.singleton("C"))]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("AB,A;B\nX,A;XX\n", "coalition line 2: unknown party code 'XX'"),
            ("# c\nX,A;A\n", "coalition line 2: party code 'A' repeated"),
            ("X, B ; A;B \n", "coalition line 1: party code 'B' repeated"),
            ("X\n", "coalition line 1: expected 'name,CODE;CODE;...'"),
            ("X, ;\n", "coalition line 1: no party codes"),
        ],
        ids=["unknown-code", "repeated-code", "repeated-code-spaced", "no-comma", "no-members"],
    )
    def test_bad_line_named(self, abc_registry, text, message):
        # Unknown codes used to raise without a line number; repeated ones were accepted.
        with pytest.raises(ValueError) as info:
            parse_coalitions(text, abc_registry)
        assert str(info.value) == message


class TestSeatBounds:
    def test_interval_full_registry_identity(self, abc_survey, abc_registry):
        f = dempster_bounds(abc_survey)
        out = seat_bounds(abc_survey, abc_registry.full_set())
        for code in abc_registry.options:
            assert abs(out[code].lower - f[code].lower) < 1e-12
            assert abs(out[code].upper - f[code].upper) < 1e-12

    def test_interval_case_matches_completion_enumeration(self, abc_registry):
        reg = abc_registry
        s = Survey(
            reg,
            (),
            (
                Respondent(1.0, reg.singleton("A")),
                Respondent(1.0, reg.singleton("A")),
                Respondent(1.0, reg.singleton("B")),
                Respondent(1.0, reg.set_of(["A", "B"])),
                Respondent(1.0, reg.singleton("C")),
                Respondent(1.0, reg.set_of(["B", "C"])),
            ),
        )
        included = reg.set_of(["A", "B"])
        out = seat_bounds(s, included)

        rows = list(s.rows())
        undecided = [ps for _, ps, _ in rows if not ps.is_singleton]
        extremes = {code: [1.0, 0.0] for code in ("A", "B")}
        for combo in itertools.product(*(ps.indices() for ps in undecided)):
            votes = []
            it = iter(combo)
            for _, ps, _ in rows:
                votes.append(next(it) if not ps.is_singleton else ps.indices()[0])
            mass = {c: 0.0 for c in reg.options}
            for (w, _, _), v in zip(rows, votes):
                mass[reg.options[v]] += w
            total_inc = mass["A"] + mass["B"]
            for code in ("A", "B"):
                seats = mass[code] / total_inc
                extremes[code][0] = min(extremes[code][0], seats)
                extremes[code][1] = max(extremes[code][1], seats)
        for code in ("A", "B"):
            assert abs(out[code].lower - extremes[code][0]) < 1e-12
            assert abs(out[code].upper - extremes[code][1]) < 1e-12

    def test_sharper_than_renormalized_intervals(self):
        # Renormalizing the per-party intervals gives C [0, 1]: A and B may
        # each get no votes, but not both, as one voter chooses between them.
        reg = PartyRegistry(("A", "B", "C", "D"))
        s = Survey(reg, (), (Respondent(1.0, reg.set_of("AB")), Respondent(1.0, reg.set_of("CD"))))
        out = seat_bounds(s, reg.set_of("ABC"))
        assert out.intervals == {"A": Interval(0.0, 1.0), "B": Interval(0.0, 1.0), "C": Interval(0.0, 0.5)}

    def test_undefined_share_errors(self, abc_registry):
        reg = abc_registry
        s = Survey(reg, (), (Respondent(1.0, reg.singleton("A")), Respondent(1.0, reg.set_of("BC"))))
        with pytest.raises(ValueError, match="^seat share of B is undefined: a completion gives the included parties no votes$"):
            seat_bounds(s, reg.singleton("B"))
        # Shares stay defined while some completion gives B or A votes.
        assert seat_bounds(s, reg.set_of("AB"))["B"] == Interval(0.0, 0.5)
        # A survey with no respondents has no shares at all.
        with pytest.raises(ValueError, match="^the survey has no respondents$"):
            seat_bounds(Survey(reg, (), ()), reg.full_set())

    def test_included_must_fit_registry(self, abc_survey):
        with pytest.raises(ValueError, match="outside the registry"):
            seat_bounds(abc_survey, PartySet(1 << 5))


class TestShareBounds:
    def test_event_must_lie_inside_included(self, abc_survey, abc_registry):
        with pytest.raises(ValueError, match="^event references options outside the included parties$"):
            share_bounds(abc_survey, abc_registry.set_of("AC"), abc_registry.set_of("AB"))

    @pytest.mark.parametrize(
        "event, included", [(1 << 5, 0b111), (0b001, 1 << 5 | 0b001), (1 << 3, 0b111), (0b001, 1 << 3 | 0b001)]
    )
    def test_event_and_included_must_fit_registry(self, abc_survey, event, included):
        with pytest.raises(ValueError, match="^event or included parties reference options outside the registry$"):
            share_bounds(abc_survey, PartySet(event), PartySet(included))

    def test_empty_survey_errors(self, abc_registry):
        with pytest.raises(ValueError, match="^the survey has no respondents$"):
            share_bounds(Survey(abc_registry, (), ()), abc_registry.singleton("A"), abc_registry.set_of("AB"))


class TestProperties:
    def test_duality_and_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            s = random_survey(rng, max_n=14, max_undecided=6)
            full = s.registry.full_set().mask
            event = random_event(rng, s)
            if event.mask != full:
                complement = PartySet(full & ~event.mask)
                assert abs(event_bounds(s, event).upper - (1.0 - event_bounds(s, complement).lower)) <= 1e-12
            f = dempster_bounds(s)
            lowers = math.fsum(iv.lower for iv in f.intervals.values())
            uppers = math.fsum(iv.upper for iv in f.intervals.values())
            assert lowers <= 1.0 + 1e-12 <= uppers + 2e-12

    def test_constrained_nested_in_dempster(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            s = random_survey(rng, max_n=14, max_undecided=6)
            alpha = float(rng.uniform(0, 0.5))
            beta = float(rng.uniform(alpha, 1))
            narrow = constrained_bounds(s, AllocationConstraint(alpha, beta))
            wide = dempster_bounds(s)
            for code in s.registry.options:
                assert narrow[code].lower >= wide[code].lower - 1e-12
                assert narrow[code].upper <= wide[code].upper + 1e-12

    def test_singleton_event_equals_dempster(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_survey(rng, max_n=12, max_undecided=5)
            f = dempster_bounds(s)
            for code in s.registry.options:
                iv = event_bounds(s, s.registry.singleton(code))
                assert (iv.lower, iv.upper) == (f[code].lower, f[code].upper)

    def test_every_completion_lies_inside(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            s = random_survey(rng, max_n=10, max_undecided=5, completion_limit=200)
            f = dempster_bounds(s)
            rows = list(s.rows())
            undecided = [i for i, (_, ps, _) in enumerate(rows) if not ps.is_singleton]
            for combo in itertools.product(*(rows[i][1].indices() for i in undecided)):
                chosen = dict(zip(undecided, combo))
                for i_opt, code in enumerate(s.registry.options):
                    share = math.fsum(
                        w for i, (w, ps, _) in enumerate(rows) if chosen.get(i, ps.indices()[0]) == i_opt
                    ) / s.total_weight
                    assert f[code].contains(share, slack=1e-15)

    def test_allocation_mixtures_lie_inside(self):
        # Random feasible within-set allocations (convex mixtures of the
        # uniform point and a box extreme) must stay inside the intervals.
        rng = np.random.default_rng(19)
        for _ in range(15):
            s = random_survey(rng, max_n=10, max_undecided=5)
            alpha = float(rng.choice([0.0, 0.1, 0.2]))
            beta = float(rng.choice([0.7, 0.8, 1.0]))
            c = AllocationConstraint(alpha, beta)
            f = constrained_bounds(s, c)
            for code in s.registry.options:
                idx = s.registry.index(code)
                total = 0.0
                for w, ps, _ in s.rows():
                    k = ps.size
                    if not ps.contains_index(idx):
                        continue
                    if k == 1:
                        total += w
                        continue
                    a_eff, b_eff = effective_allocation_limits(k, c)
                    t = float(rng.random())
                    extreme = min(b_eff, 1.0 - (k - 1) * a_eff)
                    share = (1 - t) / k + t * extreme
                    total += w * share
                value = total / s.total_weight
                assert f[code].lower - 1e-9 <= value <= f[code].upper + 1e-9


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(0.6, 0.4)
    with pytest.raises(ValueError):
        Interval(-0.1, 0.5)


def test_interval_forecast_must_hold_one():
    with pytest.raises(ValueError, match=r"^per-option intervals must satisfy sum\(lower\) <= 1 <= sum\(upper\)$"):
        IntervalForecast({"A": Interval(0.6, 0.7), "B": Interval(0.6, 0.7)})
    with pytest.raises(ValueError, match=r"^per-option intervals must satisfy"):
        IntervalForecast({"A": Interval(0.2, 0.3), "B": Interval(0.2, 0.3)})


def test_allocation_limits_need_a_set():
    with pytest.raises(ValueError, match="^set size must be >= 1$"):
        effective_allocation_limits(0, AllocationConstraint(0.0, 1.0))


@pytest.mark.parametrize(
    "k,m,alpha,beta,limit",
    [(25, 5, 0.19, 0.31, Fraction(1, 5)), (25, 11, 0.28, 0.39, Fraction(11, 25))],
    ids=["5-of-25", "11-of-25"],
)
def test_contribution_limits_of_a_pinched_box_are_exactly_m_over_k(k, m, alpha, beta, limit):
    # The repaired box is the uniform allocation, 1/25 each, where float limits rounded a few ulps apart.
    assert _contribution_limits(k, m, AllocationConstraint(alpha, beta)) == (limit, limit)


def test_event_must_fit_registry(abc_survey):
    with pytest.raises(ValueError):
        event_bounds(abc_survey, PartySet(1 << 10))


# Differential checks of the cell-table estimators against per-respondent sums.

_SET_POOL = (0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)


_WIDE_WEIGHTS = st.floats(1e-6, 1e6) | st.sampled_from([0.1, 0.2, 0.3, 1e-12, 1e12])


@st.composite
def _weighted_surveys(draw, weight=_WIDE_WEIGHTS, min_decided=0):
    """Random weighted surveys with repeated cells, some sharing set objects and some not.

    At least ``min_decided`` distinct singleton sets each hold a respondent.
    """
    reg = PartyRegistry(("A", "B", "C"))
    schema = ("x1", "x2")
    shared = {mask: PartySet(mask) for mask in _SET_POOL}
    decided = draw(st.lists(st.sampled_from(_SET_POOL[:3]), min_size=min_decided, max_size=min_decided, unique=True))
    forced = [(mask, draw(st.integers(0, 3))) for mask in decided]
    cells = forced + draw(st.lists(st.tuples(st.sampled_from(_SET_POOL), st.integers(0, 3)), min_size=1, max_size=6))
    n = draw(st.integers(max(1, min_decided), 40))
    picks = forced + [draw(st.sampled_from(cells)) for _ in range(n - min_decided)]
    respondents = []
    for mask, pattern in draw(st.permutations(picks)):
        ps = shared[mask] if draw(st.booleans()) else PartySet(mask)
        respondents.append(Respondent(draw(weight), ps, (pattern & 1, pattern >> 1)))
    return Survey(reg, schema, tuple(respondents))


def _reference_event_bounds(s, event, c=None):
    """Per-respondent bounds: the counted weights' ``math.fsum``, or with a
    constraint the exact sum of each weight times its factor, rounded once."""
    rows = list(s.rows())
    total = math.fsum(w for w, _, _ in rows)
    if c is None:
        lo = math.fsum(w for w, ps, _ in rows if ps.issubset(event))
        hi = math.fsum(w for w, ps, _ in rows if ps.mask & event.mask)
    else:
        limits = [(w, _contribution_limits(ps.size, (ps.mask & event.mask).bit_count(), c)) for w, ps, _ in rows]
        lo = float(sum(Fraction(w) * Fraction(f) for w, (f, _) in limits))
        hi = float(sum(Fraction(w) * Fraction(f) for w, (_, f) in limits))
    return min(lo / total, 1.0), min(hi / total, 1.0)


def test_constrained_bounds_sum_exact_products():
    # 3 x 0.1 x 0.2 rounds to a different float than the sum of the three
    # rounded products 0.1 x 0.2 does; the bounds take the exact sum.
    reg = PartyRegistry(("A", "B", "C"))
    s = Survey(reg, (), (*[Respondent(0.1, reg.set_of("AB"))] * 3, Respondent(1.0, reg.singleton("C"))))
    f = constrained_bounds(s, AllocationConstraint(0.2, 0.8))
    for code in "AB":
        assert (f[code].lower.hex(), f[code].upper.hex()) == ("0x1.7a17a17a17a18p-5", "0x1.7a17a17a17a18p-3")


@settings(max_examples=150, deadline=None)
@given(_weighted_surveys(), st.sampled_from([(0.2, 0.8), (0.0, 1.0), (0.3, 0.4), (0.1, 0.5)]))
def test_bounds_bit_identical_to_per_respondent_fsum(s, box):
    c = AllocationConstraint(*box)
    dempster = dempster_bounds(s)
    constrained = constrained_bounds(s, c)
    for i, code in enumerate(s.registry.options):
        event = PartySet(1 << i)
        assert (dempster[code].lower, dempster[code].upper) == _reference_event_bounds(s, event)
        assert (constrained[code].lower, constrained[code].upper) == _reference_event_bounds(s, event, c)
    for mask in _SET_POOL:
        iv = event_bounds(s, PartySet(mask), c)
        assert (iv.lower, iv.upper) == _reference_event_bounds(s, PartySet(mask), c)


@settings(max_examples=150, deadline=None)
@given(_weighted_surveys())
def test_counts_and_conventional_bit_identical_to_per_respondent_fsum(s):
    rows = list(s.rows())
    by_set = {}
    for w, ps, _ in rows:
        by_set.setdefault(ps.mask, []).append(w)
    ordered = sorted(by_set, key=lambda mask: (-len(by_set[mask]), PartySet(mask).indices()))
    want_groups = [(mask, len(by_set[mask]), math.fsum(by_set[mask])) for mask in ordered]
    assert [(ps.mask, n, w) for ps, (n, w) in group_counts(s).items()] == want_groups

    report = validate(s)
    undecided = [w for w, ps, _ in rows if not ps.is_singleton]
    assert report.n == len(rows)
    assert report.total_weight == math.fsum(w for w, _, _ in rows)
    assert report.undecided_unweighted == len(undecided) / len(rows)
    assert report.undecided_weighted == math.fsum(undecided) / report.total_weight
    assert report.option_counts == {
        code: sum(1 for _, ps, _ in rows if ps.contains_index(i)) for i, code in enumerate(s.registry.options)
    }
    assert s.n_undecided == len(undecided)

    decided = [(w, ps) for w, ps, _ in rows if ps.is_singleton]
    if not decided:
        with pytest.raises(ValueError):
            conventional_forecast(s)
        return
    w_decided = math.fsum(w for w, _ in decided)
    want = {
        code: math.fsum(w for w, ps in decided if ps.contains_index(i)) / w_decided
        for i, code in enumerate(s.registry.options)
    }
    assert conventional_forecast(s).shares == want


@settings(max_examples=40, deadline=None)
@given(_weighted_surveys(weight=st.floats(0.2, 5.0), min_decided=2))
def test_homogeneity_matches_per_respondent_transition_rows(s):
    rows = list(s.rows())
    assert len({ps.mask for _, ps, _ in rows if ps.is_singleton}) >= 2
    model, _ = mnl.fit(decided_design(s), mnl.PenaltySpec.none(), mnl.Constraint.symmetric())
    table = transition_probabilities(model, s)
    assert len(table.rows) == len(rows)
    for (_, ps, cov), row in zip(rows, table.rows):
        members = ps.indices()
        probs = mnl.predict_proba(model, np.array([1.0, *cov]))
        denom = float(np.sum(probs[list(members)]))
        want = {s.registry.options[i]: float(probs[i]) / denom for i in members}
        assert list(row) == list(want)
        assert all(abs(row[code] - want[code]) <= 1e-12 for code in want)

    shares, table, _ = homogeneity_forecast(s)
    per_respondent = {
        code: math.fsum(w * row.get(code, 0.0) for (w, _, _), row in zip(rows, table.rows)) / s.total_weight
        for code in s.registry.options
    }
    total = math.fsum(per_respondent.values())
    for code in s.registry.options:
        assert abs(shares[code] - per_respondent[code] / total) <= 1e-12


_BOXES = st.none() | st.lists(st.integers(0, 20), min_size=2, max_size=2).map(
    lambda box: AllocationConstraint(min(box) / 20, max(box) / 20)
)


@st.composite
def _seat_cases(draw, boxes=_BOXES):
    """A small survey over 2-4 parties, an included set, and a box from ``boxes`` (no box or one on a 1/20 grid)."""
    k = draw(st.integers(2, 4))
    reg = PartyRegistry(tuple("ABCD"[:k]))
    full = (1 << k) - 1
    decided = draw(st.lists(st.integers(0, k - 1).map(lambda i: 1 << i), max_size=4))
    undecided = draw(st.lists(st.integers(3, full).filter(lambda m: m & (m - 1)), max_size=4))
    assume(decided or undecided)
    weight = st.sampled_from([0.1, 0.2, 0.3, 1.0]) | st.floats(0.1, 10.0)
    s = Survey(reg, (), tuple(Respondent(draw(weight), PartySet(m)) for m in draw(st.permutations(decided + undecided))))
    included = draw(st.integers(1, full) | st.just(full))
    return s, PartySet(included), draw(boxes)


@settings(max_examples=200, deadline=None)
@given(_seat_cases())
def test_seat_bounds_match_exact_oracles(case):
    s, included, c = case
    want = {s.registry.options[i]: seat_oracle(s, PartySet(1 << i), included, c) for i in included.indices()}
    if None in want.values():
        with pytest.raises(ValueError, match="is undefined"):
            seat_bounds(s, included, c)
        return
    got = seat_bounds(s, included, c)
    assert list(got.intervals) == list(want)
    for code, (lower, upper) in want.items():
        assert abs(got[code].lower - lower) <= 1e-12 and abs(got[code].upper - upper) <= 1e-12, (code, got[code])


@settings(max_examples=200, deadline=None)
@given(_seat_cases(), st.data())
def test_share_bounds_match_exact_oracles(case, data):
    s, included, c = case
    event = PartySet(sum(1 << i for i in data.draw(st.sets(st.sampled_from(included.indices()), min_size=1))))
    want = seat_oracle(s, event, included, c)
    if want is None:
        with pytest.raises(ValueError, match="is undefined"):
            share_bounds(s, event, included, c)
        return
    got = share_bounds(s, event, included, c)
    assert abs(got.lower - want[0]) <= 1e-12 and abs(got.upper - want[1]) <= 1e-12, got


# One-decimal boxes, and boxes whose beta is the float nearest 1/k: a k-party set's box pinches to the uniform
# allocation there, or misses it by an ulp of beta.
_EXACT_BOXES = st.lists(st.integers(0, 10), min_size=2, max_size=2).map(
    lambda box: AllocationConstraint(min(box) / 10, max(box) / 10)
) | st.builds(lambda a, k: AllocationConstraint(min(a / 10, 1 / k), 1 / k), st.integers(0, 10), st.integers(2, 4))


@st.composite
def _exact_box_cases(draw):
    """A ``_seat_cases`` survey and included set, an event among its included parties, and an ``_EXACT_BOXES`` box."""
    s, included, c = draw(_seat_cases(_EXACT_BOXES))
    event = PartySet(sum(1 << i for i in draw(st.sets(st.sampled_from(included.indices()), min_size=1))))
    return s, event, included, c


_ABCD = PartyRegistry(tuple("ABCD"))
_ABCDEF = PartyRegistry(tuple("ABCDEF"))


@settings(max_examples=300, deadline=None)
@given(_exact_box_cases())
# Float limits put a pair's lower factor at 0.07000000000000006, not alpha.
@example((Survey(_ABCD, (), (Respondent(1.0, _ABCD.set_of("AB")),)), _ABCD.singleton("A"), _ABCD.full_set(),
          AllocationConstraint(0.07, 0.96)))
# 1 - 5 * fl(1/6) rounds above fl(1/6), so float limits missed that a six-party set is pinched to 1/6 each.
@example((Survey(_ABCDEF, (), (Respondent(1.0, _ABCDEF.full_set()),)), _ABCDEF.singleton("F"), _ABCDEF.full_set(),
          AllocationConstraint(0.2, 0.8)))
def test_boxed_bounds_equal_the_vertex_oracle_bit_for_bit(case):
    s, event, included, c = case
    weights = set_weights(s)
    want = boxed_share_bounds(weights, event, included, c)
    if want is None:
        with pytest.raises(ValueError, match="is undefined"):
            share_bounds(s, event, included, c)
    else:
        assert _outcome(share_bounds, s, event, included, c) == [("", want[0].hex(), want[1].hex())]
    seats = [(code, boxed_share_bounds(weights, PartySet(1 << i), included, c)) for code, i in
             zip(s.registry.codes_of(included), included.indices())]
    if any(bounds is None for _, bounds in seats):
        with pytest.raises(ValueError, match="is undefined"):
            seat_bounds(s, included, c)
    else:
        assert _outcome(seat_bounds, s, included, c) == [(code, lo.hex(), hi.hex()) for code, (lo, hi) in seats]



@settings(max_examples=150, deadline=None)
@given(_weighted_surveys(), _BOXES)
# Per-party denominators summed over the sets miss the total weight by rounding here.
@example(
    Survey(_ABCD, (), tuple(Respondent(w, _ABCD.set_of(codes)) for w, codes in ((3.0, "BD"), (0.1, "B"), (1.0, "BCD")))),
    AllocationConstraint(0.1, 1.0),
)
def test_seat_bounds_over_full_registry_bit_identical_to_dempster(s, c):
    got = seat_bounds(s, s.registry.full_set(), c)
    want = constrained_bounds(s, c) if c else dempster_bounds(s)
    assert [(iv.lower.hex(), iv.upper.hex()) for iv in got.intervals.values()] == [
        (iv.lower.hex(), iv.upper.hex()) for iv in want.intervals.values()
    ]
    assert list(got.intervals) == list(want.intervals)


class SetMasses(NamedTuple):
    """Distinct consideration sets and their exact weight sums: all that the bounds read of a survey."""

    registry: PartyRegistry
    sets: tuple[PartySet, ...]
    set_sums: tuple[int, ...]


def _outcome(bound, *args):
    """Each interval ``bound(*args)`` returns, as (option, lower hex, upper hex), or the message of its ValueError."""
    try:
        result = bound(*args)
    except ValueError as exc:
        return str(exc)
    items = result.intervals.items() if isinstance(result, IntervalForecast) else [("", result)]
    return [(code, iv.lower.hex(), iv.upper.hex()) for code, iv in items]


@settings(max_examples=150, deadline=None)
@given(_weighted_surveys(), st.integers(0, 1), _BOXES, st.integers(1, 7))
def test_subgroup_set_mass_tables_bound_as_subgroup_surveys(s, column, c, included):
    set_id = s.cell_set[s.index]
    patterns = s.patterns[s.cell_pattern[s.index]]
    # One pass splits every set's mass by the covariate's value.
    sums = exact_sums(s.weights, set_id * 2 + patterns[:, column], 2 * len(s.sets))
    masks = np.array([ps.mask for ps in s.sets])[set_id]
    for value in (0, 1):
        kept = [(ps, total) for ps, total in zip(s.sets, sums[value::2]) if total]
        table = SetMasses(s.registry, tuple(ps for ps, _ in kept), tuple(total for _, total in kept))
        rows = patterns[:, column] == value
        half = Survey.build(s.registry, s.schema, s.weights[rows], masks[rows], patterns[rows])
        assert table == (half.registry, half.sets, half.set_sums)
        events = [(event_bounds, PartySet(mask), c) for mask in _SET_POOL]
        bounds = [(seat_bounds, PartySet(included), c), (constrained_bounds, c or AllocationConstraint(0.2, 0.8))]
        for bound, *args in events + bounds:
            assert _outcome(bound, table, *args) == _outcome(bound, half, *args)
        if len(half) and math.prod(ps.size ** n for ps, n in zip(half.sets, half.set_counts.tolist())) <= 4096:
            for mask in _SET_POOL:
                oracle = completion_bounds(half, PartySet(mask))
                assert _outcome(event_bounds, table, PartySet(mask)) == [("", oracle.lower.hex(), oracle.upper.hex())]
