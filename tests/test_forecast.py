import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pollsets import (
    PartyRegistry,
    PartySet,
    ProbabilityVector,
    Respondent,
    Survey,
    TransitionTable,
    conventional_forecast,
    dempster_bounds,
    homogeneity_forecast,
    mnl,
    seat_share,
    transition_probabilities,
)
from pollsets.forecast import decided_design
from conftest import random_survey


def intercept_model(shares, registry):
    """Intercept-only model whose predictions equal the given shares exactly."""
    coef = np.log(np.array([shares[c] for c in registry.options]))[:, None]
    coef -= coef.mean()
    return mnl.MnlModel(coef, mnl.Constraint.symmetric(), mnl.PenaltySpec.none())


def underflow_model():
    """Intercept-only model over A, B, C whose predictions for A and B, exp(-1200), underflow to 0."""
    coef = np.array([[-400.0], [-400.0], [800.0]])
    return mnl.MnlModel(coef, mnl.Constraint.symmetric(), mnl.PenaltySpec.none())


class TestConventional:
    def test_worked_fixture(self, abc_survey):
        p = conventional_forecast(abc_survey)
        assert p.shares == {"A": 0.5, "B": 0.25, "C": 0.25}

    def test_all_decided_plain_shares(self, abc_registry):
        reg = abc_registry
        s = Survey(reg, (), (Respondent(3.0, reg.singleton("A")), Respondent(1.0, reg.singleton("C"))))
        assert conventional_forecast(s).shares == {"A": 0.75, "B": 0.0, "C": 0.25}

    def test_weight_scale_invariance(self, abc_registry):
        reg = abc_registry
        base = (Respondent(1.0, reg.singleton("A")), Respondent(2.0, reg.singleton("B")))
        doubled = tuple(Respondent(2 * r.weight, r.set) for r in base)
        a = conventional_forecast(Survey(reg, (), base))
        b = conventional_forecast(Survey(reg, (), doubled))
        assert a.shares == b.shares

    def test_no_decided_errors(self, abc_registry):
        s = Survey(abc_registry, (), (Respondent(1.0, abc_registry.set_of(["A", "B"])),))
        with pytest.raises(ValueError):
            conventional_forecast(s)


class TestTransitionProbabilities:
    def test_pair_restriction_hand_computed(self, abc_registry):
        reg = abc_registry
        model = intercept_model({"A": 0.5, "B": 0.25, "C": 0.25}, reg)
        s = Survey(reg, (), (Respondent(1.0, reg.set_of(["A", "B"])),))
        table = transition_probabilities(model, s)
        assert abs(table.rows[0]["A"] - 2 / 3) < 1e-12
        assert abs(table.rows[0]["B"] - 1 / 3) < 1e-12
        assert "C" not in table.rows[0]

    def test_singleton_degenerate(self, abc_registry):
        model = intercept_model({"A": 0.5, "B": 0.25, "C": 0.25}, abc_registry)
        s = Survey(abc_registry, (), (Respondent(1.0, abc_registry.singleton("A")),))
        assert transition_probabilities(model, s).rows[0] == {"A": 1.0}

    def test_full_set_row_equals_model_prediction(self, abc_registry):
        model = intercept_model({"A": 0.5, "B": 0.25, "C": 0.25}, abc_registry)
        s = Survey(abc_registry, (), (Respondent(1.0, abc_registry.full_set()),))
        row = transition_probabilities(model, s).rows[0]
        predicted = mnl.predict_proba(model, np.array([1.0]))
        for i, code in enumerate(abc_registry.options):
            assert abs(row[code] - predicted[i]) < 1e-12

    def test_rows_sum_to_one_and_respect_sets(self, abc_registry):
        model = intercept_model({"A": 0.6, "B": 0.3, "C": 0.1}, abc_registry)
        s = Survey(
            abc_registry,
            (),
            (
                Respondent(1.0, abc_registry.set_of(["A", "C"])),
                Respondent(1.0, abc_registry.singleton("B")),
            ),
        )
        for (_, ps, _), row in zip(s.rows(), transition_probabilities(model, s).rows):
            assert abs(math.fsum(row.values()) - 1.0) < 1e-12
            member_codes = set(abc_registry.codes_of(ps))
            assert set(row) <= member_codes

    def test_vanished_restricted_mass_is_degenerate(self, abc_registry):
        model = underflow_model()
        s = Survey(abc_registry, (), (Respondent(1.0, abc_registry.set_of(["A", "B"])),))
        with pytest.raises(ValueError, match="model is degenerate"):
            transition_probabilities(model, s)

    def test_decided_row_ignores_an_underflowing_prediction(self, abc_registry, monkeypatch):
        reg = abc_registry
        model = underflow_model()
        s = Survey(
            reg,
            (),
            tuple(Respondent(1.0, reg.set_of(codes)) for codes in (["A"], ["B"], ["C"], ["B", "C"])),
        )
        fit = mnl.fit
        monkeypatch.setattr(mnl, "fit", lambda *args: (model, fit(*args)[1]))
        shares, table, _ = homogeneity_forecast(s)
        assert table.rows == ({"A": 1.0}, {"B": 1.0}, {"C": 1.0}, {"B": 0.0, "C": 1.0})
        assert shares.shares == {"A": 0.25, "B": 0.25, "C": 0.5}

    def test_row_not_summing_to_one_names_first_respondent_of_its_cell(self, abc_registry):
        reg = abc_registry
        sets = (["A"], ["C"], ["A"], ["A", "B"], ["A", "B"])
        s = Survey(reg, (), tuple(Respondent(1.0, reg.set_of(codes)) for codes in sets))
        cell_sets = [s.sets[j] for j in s.cell_set.tolist()]
        # Each cell's row spreads its mass evenly over its set.
        good = np.array([[ps.contains_index(k) / ps.size for k in range(len(reg))] for ps in cell_sets])

        def scaled(factors):
            return good * np.array([[factors.get(reg.label_of(ps), 1.0)] for ps in cell_sets])

        table = TransitionTable(s, good)
        assert not table.probs.flags.writeable
        assert table.rows[4] == {"A": 0.5, "B": 0.5}
        # The A+B cell starts at respondent 3.
        with pytest.raises(ValueError, match="^transition row 3 does not sum to 1$"):
            TransitionTable(s, scaled({"A+B": 0.9}))
        # Respondent 1, in the C cell, is named whatever the order of the failing cells.
        with pytest.raises(ValueError, match="^transition row 1 does not sum to 1$"):
            TransitionTable(s, scaled({"C": np.nan, "A+B": 0.9}))
        with pytest.raises(ValueError, match="one row per cell"):
            TransitionTable(s, good[:2])

    def test_missing_covariates_rejected_by_survey(self):
        # Covariates are required exactly when the schema is nonempty, so
        # no transition row is ever predicted without them.
        reg = PartyRegistry(("A", "B"))
        schema = ("x1",)
        with_cov = Respondent(1.0, reg.singleton("A"), (1,))
        without = Respondent(1.0, reg.set_of(["A", "B"]), None)
        with pytest.raises(ValueError, match="schema"):
            Survey(reg, schema, (with_cov, without))

    def test_schema_mismatch_is_hard_error(self, abc_registry):
        model = intercept_model({"A": 0.5, "B": 0.25, "C": 0.25}, abc_registry)
        s = Survey(
            abc_registry,
            ("x1",),
            (Respondent(1.0, abc_registry.singleton("A"), (1,)),),
        )
        with pytest.raises(ValueError, match="schema"):
            transition_probabilities(model, s)


class TestHomogeneity:
    def test_worked_fixture(self, abc_survey):
        p, table, report = homogeneity_forecast(abc_survey)
        assert abs(p["A"] - (2 + 2 / 3) / 5) < 1e-6
        assert abs(p["B"] - (1 + 1 / 3) / 5) < 1e-6
        assert abs(p["C"] - 0.2) < 1e-6
        assert report.converged

    def test_no_undecided_equals_conventional(self, abc_registry):
        reg = abc_registry
        s = Survey(
            reg,
            (),
            (Respondent(1.0, reg.singleton("A")), Respondent(2.0, reg.singleton("B"))),
        )
        hom, _, _ = homogeneity_forecast(s)
        conv = conventional_forecast(s)
        for code in reg.options:
            assert abs(hom[code] - conv[code]) < 1e-12

    def test_inside_dempster_intervals(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            s = random_survey(rng, max_n=16, max_undecided=6, with_covariates=True)
            hom, _, _ = homogeneity_forecast(s)
            bounds = dempster_bounds(s)
            for code in s.registry.options:
                assert bounds[code].contains(hom[code], slack=1e-9)

    def test_weight_scale_invariance(self, abc_survey):
        scaled = Survey(
            abc_survey.registry,
            abc_survey.schema,
            tuple(Respondent(7.0 * w, ps, cov) for w, ps, cov in abc_survey.rows()),
        )
        base, _, _ = homogeneity_forecast(abc_survey)
        rescaled, _, _ = homogeneity_forecast(scaled)
        for code in abc_survey.registry.options:
            assert abs(base[code] - rescaled[code]) < 1e-8

    def test_set_of_unchosen_parties_splits_evenly(self):
        # B and C have no decided respondent, so their rows stay at the fit's
        # start; at x = 1 the decided favour A about 20 to 1, and B's and C's
        # probabilities there sum to less than 1e-12.
        reg = PartyRegistry(("A", "B", "C", "D"))
        rows = [("A", 1)] * 20 + [("D", 0)] * 20 + [("D", 1), ("A", 0)]
        respondents = [Respondent(1.0, reg.singleton(code), (x,)) for code, x in rows]
        s = Survey(reg, ("x",), (*respondents, Respondent(1.0, reg.set_of(["B", "C"]), (1,))))
        shares, table, report = homogeneity_forecast(s)
        assert report.converged and table.rows[-1] == {"B": 0.5, "C": 0.5}
        assert shares.shares == {
            "A": 0.4883720930232558, "B": 0.011627906976744186, "C": 0.011627906976744186, "D": 0.4883720930232558,
        }


@pytest.mark.parametrize(
    "unchosen,constraint",
    [
        ("DE", mnl.Constraint.symmetric()),  # the last category: the eliminated free row is C, not E
        ("AC", mnl.Constraint.symmetric()),  # the first and a middle one
        ("CE", mnl.Constraint.reference(1)),  # beside a reference
    ],
)
def test_newton_holds_the_rows_of_unchosen_parties(unchosen, constraint):
    reg = PartyRegistry(tuple("ABCDE"))
    rng = np.random.default_rng(11)
    respondents = [
        Respondent(float(rng.uniform(0.5, 2.0)), reg.singleton(code), (a, b))
        for a in (0, 1)
        for b in (0, 1)
        for code in reg.options
        if code not in unchosen
        for _ in range(rng.integers(1, 4))
    ]
    s = Survey(reg, ("a", "b"), (*respondents, Respondent(1.0, reg.set_of(list(unchosen)), (1, 0))))
    d = decided_design(s)
    start = mnl.initial_coefficients(d, constraint)
    x, report = mnl._fit_newton(d, mnl.RIDGE_FLOOR, constraint, mnl.FitOptions(), start)
    assert report.converged
    held = [reg.options.index(code) for code in unchosen] + ([constraint.ref] if constraint.kind == "reference" else [])
    free = [i for i in range(len(reg)) if i not in held]
    assert np.all(x[held] == start[held])
    # First-order optimal in the free rows, centred among themselves under the symmetric constraint.
    grad = mnl._smooth_parts(x, d, mnl.RIDGE_FLOOR)[1][free]
    if constraint.kind == "symmetric":
        grad -= grad.mean(axis=0)
    assert np.max(np.abs(grad)) <= 1e-8 * d.w.sum()
    model = mnl.MnlModel(mnl.project_constraint(x, constraint), constraint, mnl.PenaltySpec.none())
    assert transition_probabilities(model, s).rows[-1] == dict.fromkeys(unchosen, 0.5)


@st.composite
def _homogeneity_surveys(draw):
    """Weighted surveys over 2-5 parties in which every party has a decided respondent."""
    k = draw(st.integers(2, 5))
    reg = PartyRegistry(tuple("ABCDE"[:k]))
    forced = [(1 << i, draw(st.integers(0, 3))) for i in range(k)]
    cells = forced + draw(st.lists(st.tuples(st.integers(1, (1 << k) - 1), st.integers(0, 3)), min_size=1, max_size=8))
    picks = forced + draw(st.lists(st.sampled_from(cells), max_size=30))
    weight = st.floats(1e-3, 1e3) | st.sampled_from([0.1, 0.2, 0.3])
    picks = draw(st.permutations(picks))
    respondents = [Respondent(draw(weight), PartySet(mask), (p & 1, p >> 1)) for mask, p in picks]
    return Survey(reg, ("x1", "x2"), tuple(respondents))


def _reference_homogeneity(s, model):
    """Per-cell dict rows with an fsum denominator each, then one fsum of w * row per party."""
    options = s.registry.options
    probs = mnl.predict_proba(model, s.pattern_rows())
    rows = []
    for j, c in zip(s.cell_set.tolist(), s.cell_pattern.tolist()):
        member = s.sets[j].indices()
        if len(member) == 1:
            rows.append({options[member[0]]: 1.0})
            continue
        p = probs[c].tolist()
        denom = math.fsum(p[i] for i in member)
        rows.append({options[i]: p[i] / denom for i in member})
    cell_weights = np.bincount(s.index, weights=s.weights, minlength=len(rows)).tolist()
    shares = {
        code: math.fsum(w * row[code] for w, row in zip(cell_weights, rows) if code in row) / s.total_weight
        for code in options
    }
    total = math.fsum(shares.values())
    return {code: v / total for code, v in shares.items()}, tuple(rows[g] for g in s.index.tolist())


@settings(max_examples=60, deadline=None)
@given(_homogeneity_surveys())
def test_homogeneity_bit_identical_to_per_cell_fsum_rows(s):
    model, _ = mnl.fit(decided_design(s), mnl.PenaltySpec.none(), mnl.Constraint.symmetric())
    want_shares, want_rows = _reference_homogeneity(s, model)
    shares, table, _ = homogeneity_forecast(s)
    assert shares.shares == want_shares
    assert table.rows == want_rows


@pytest.mark.parametrize(
    "shares,message",
    [
        ({"A": math.nan, "B": 1.0}, "^shares sum to nan, expected 1$"),
        ({"A": 0.5, "B": math.nan, "C": 0.5}, "^shares sum to nan, expected 1$"),
        ({"A": 1.5, "B": -0.5}, r"^shares must lie in \[0, 1\]$"),
    ],
    ids=["nan-first", "nan-middle", "outside-unit"],
)
def test_probability_vector_rejects_bad_shares(shares, message):
    with pytest.raises(ValueError, match=message):
        ProbabilityVector(shares)


class TestSeatShare:
    def test_point_full_registry_identity(self, abc_registry):
        p = ProbabilityVector({"A": 0.5, "B": 0.3, "C": 0.2})
        out = seat_share(p, abc_registry.full_set(), abc_registry)
        assert out.shares == p.shares

    def test_point_symmetric_pair(self, abc_registry):
        p = ProbabilityVector({"A": 0.4, "B": 0.4, "C": 0.2})
        out = seat_share(p, abc_registry.set_of(["A", "B"]), abc_registry)
        assert out.shares == {"A": 0.5, "B": 0.5}

    def test_zero_denominator_errors(self, abc_registry):
        p = ProbabilityVector({"A": 0.0, "B": 0.0, "C": 1.0})
        with pytest.raises(ValueError):
            seat_share(p, abc_registry.set_of(["A", "B"]), abc_registry)
