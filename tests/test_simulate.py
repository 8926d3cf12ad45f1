import math

import numpy as np
import pytest

from pollsets import (
    AllocationConstraint,
    CoalitionSpec,
    PartyRegistry,
    PartySet,
    Respondent,
    Survey,
    constrained_bounds,
    coverage_check,
    dempster_bounds,
    event_bounds,
    generate_population,
    oracle_completion_bounds,
    oracle_constrained_bounds,
    survey_to_csv,
)
from pollsets import data, simulate
from pollsets.simulate import CoarsenStyle, SimConfig, default_true_coefficients, truth_to_csv
from conftest import random_event, random_survey

REG = PartyRegistry(("A", "B", "C", "D"))


def config(**overrides):
    base = dict(
        registry=REG,
        n=80,
        coefficients=default_true_coefficients(4, 2),
        covariate_names=("u", "v"),
        coarsen_prob=0.3,
        style=CoarsenStyle.ADD_RANDOM,
        seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestGeneratePopulation:
    def test_no_coarsening_matches_truth(self):
        s, g = generate_population(config(coarsen_prob=0.0, seed=1))
        assert s.n_undecided == 0
        f = dempster_bounds(s)
        for code in REG.options:
            assert f[code].lower == f[code].upper == g.shares[code]

    def test_full_coarsening_all_undecided(self):
        s, _ = generate_population(config(coarsen_prob=1.0, seed=2))
        assert all(ps.size >= 2 for _, ps, _ in s.rows())

    def test_same_seed_byte_identical(self):
        a, ga = generate_population(config(seed=9))
        b, gb = generate_population(config(seed=9))
        assert survey_to_csv(a) == survey_to_csv(b)
        assert truth_to_csv(a, ga) == truth_to_csv(b, gb)

    def test_reported_set_contains_latent_vote(self):
        s, g = generate_population(config(coarsen_prob=0.8, seed=3, style=CoarsenStyle.NEIGHBOR))
        assert g.votes.dtype == np.intp and not g.votes.flags.writeable
        for (_, ps, _), vote in zip(s.rows(), g.votes):
            assert ps.contains_index(vote)

    @pytest.mark.parametrize("style", list(CoarsenStyle))
    def test_extra_party_frequencies_match_exact_inclusion(self, style):
        # One vote-probability row for every respondent, K = 5.
        p = np.array([0.4, 0.25, 0.17, 0.11, 0.07])
        m, k = 200_000, len(p)
        rng = np.random.default_rng(2024)
        votes = rng.integers(0, k, m)
        extras = simulate._extra_parties(rng, votes, np.tile(p, (m, 1)), np.arange(m), style)
        included = (extras[:, None] >> np.arange(k)) & 1
        n_extra = included.sum(axis=1)
        assert not included[np.arange(m), votes].any()
        assert set(n_extra.tolist()) == {1, 2}
        for vote in range(k):
            others = [j for j in range(k) if j != vote]
            q = p[others] / p[others].sum()
            if style is CoarsenStyle.ADD_RANDOM:
                q = np.full(len(others), 1.0 / len(others))
            # Drawn one at a time in proportion to q, without replacement.
            second = np.array([sum(q[i] * q[j] / (1.0 - q[i]) for i in range(len(q)) if i != j) for j in range(len(q))])
            for size, exact in ((1, q), (2, q + second)):
                here = (votes == vote) & (n_extra == size)
                freq = included[here][:, others].mean(axis=0)
                # Five binomial standard errors, fixed before the run.
                tolerance = 5.0 * np.sqrt(exact * (1.0 - exact) / here.sum())
                assert np.all(np.abs(freq - exact) <= tolerance), (vote, size, freq, exact)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(n=0)
        with pytest.raises(ValueError):
            config(coarsen_prob=1.5)
        with pytest.raises(ValueError):
            config(coefficients=((0.0, 0.0),))
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            config(seed=-1)

    @pytest.mark.parametrize(
        "coefficients,message",
        [
            (((0.0, 0.0, math.nan),) * 4, "^coefficients must be finite$"),
            (((0.0, 0.0, math.inf),) * 4, "^coefficients must be finite$"),
            (((0.0, 0.0, 0.0),) * 3 + ((0.0, 0.0),), r"^coefficient matrix must be \(registry size\)"),
            ((1.0, 2.0, 3.0, 4.0), "^coefficients must be a matrix of numbers$"),
            ((("1.5", 0.0, 0.0),) + ((0.0, 0.0, 0.0),) * 3, "^coefficients must be a matrix of numbers$"),
            (("100",) * 4, "^coefficients must be a matrix of numbers$"),
            (((True, 0.0, 0.0),) + ((0.0, 0.0, 0.0),) * 3, "^coefficients must be a matrix of numbers$"),
            (np.zeros((4, 3), dtype=bool), "^coefficients must be a matrix of numbers$"),
        ],
        ids=["nan", "inf", "short-row", "not-a-matrix", "string", "string-rows", "boolean", "numpy-booleans"],
    )
    def test_config_rejects_bad_coefficients(self, coefficients, message):
        with pytest.raises(ValueError, match=message):
            config(coefficients=coefficients)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_config_takes_numpy_numbers(self, dtype):
        coefficients = np.array(default_true_coefficients(4, 2)).astype(dtype)
        want = tuple(tuple(float(v) for v in row) for row in coefficients.tolist())
        assert config(coefficients=coefficients).coefficients == want

    def test_overflowing_choice_scores_rejected(self):
        huge = ((1e308, 1e308, 1e308),) * 2 + ((-1e308, -1e308, -1e308),) * 2
        with pytest.raises(ValueError, match="^choice scores overflow"):
            generate_population(config(coefficients=huge))

    def test_config_requires_finite_weights(self):
        with pytest.raises(ValueError, match="weight_range must be finite"):
            config(weight_range=(1.0, math.inf))

    def test_weight_total_past_the_largest_float_rejected(self):
        with pytest.raises(ValueError, match="^total weight exceeds the largest float$"):
            generate_population(config(n=20, weight_range=(1.0, 1e308)))

    @pytest.mark.parametrize("p", [0, 2, 63, 64, 70])
    def test_patterns_numbered_in_key_order(self, p):
        # From p = 63 on every row's pattern is distinct.  At p = 63 its
        # packed key uses bit 62; from p = 64 patterns are keyed by their bytes.
        names = tuple(f"c{j}" for j in range(p))
        s, _ = generate_population(config(n=300, covariate_names=names, coefficients=default_true_coefficients(4, p)))
        patterns = s.patterns
        assert patterns.dtype == np.uint8
        assert patterns.shape[1] == p
        # Distinct rows, in lexicographic order.
        assert list(map(tuple, patterns.tolist())) == sorted({tuple(row) for _, _, row in s.rows()})
        # The row parser numbers the written rows the same way.
        assert list(data._parse_rows(survey_to_csv(s), REG, names).rows()) == list(s.rows())


class TestCompletionOracle:
    def test_worked_fixture(self, abc_survey, abc_registry):
        iv = oracle_completion_bounds(abc_survey, abc_registry.singleton("A"))
        assert (iv.lower, iv.upper) == (0.4, 0.6)

    def test_all_decided_degenerate(self, abc_registry):
        s = Survey(abc_registry, (), (Respondent(1.0, abc_registry.singleton("B")),))
        iv = oracle_completion_bounds(s, abc_registry.singleton("B"))
        assert iv.lower == iv.upper == 1.0

    def test_matches_closed_form_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            s = random_survey(rng, max_n=12, max_undecided=6, completion_limit=400)
            event = random_event(rng, s)
            oracle = oracle_completion_bounds(s, event)
            closed = event_bounds(s, event)
            assert (oracle.lower, oracle.upper) == (closed.lower, closed.upper)

    def test_budget_guard(self):
        reg = PartyRegistry(("A", "B"))
        many = tuple(Respondent(1.0, reg.full_set()) for _ in range(21))
        s = Survey(reg, (), many)
        with pytest.raises(ValueError, match="budget"):
            oracle_completion_bounds(s, reg.singleton("A"))


class TestConstrainedOracle:
    def test_worked_fixture_within_one_step(self, abc_survey, abc_registry):
        iv = oracle_constrained_bounds(abc_survey, abc_registry.singleton("A"), AllocationConstraint(0.2, 0.8))
        assert abs(iv.lower - 0.44) <= 0.01
        assert abs(iv.upper - 0.56) <= 0.01

    def test_vacuous_box_matches_completion_oracle(self, abc_survey, abc_registry):
        event = abc_registry.set_of(["A", "B"])
        free = oracle_constrained_bounds(abc_survey, event, AllocationConstraint(0.0, 1.0))
        completions = oracle_completion_bounds(abc_survey, event)
        assert abs(free.lower - completions.lower) <= 0.01
        assert abs(free.upper - completions.upper) <= 0.01

    def test_five_way_forced_interval_is_thin(self):
        reg = PartyRegistry(("A", "B", "C", "D", "E"))
        s = Survey(reg, (), (Respondent(1.0, reg.full_set()), Respondent(1.0, reg.singleton("A"))))
        iv = oracle_constrained_bounds(s, reg.singleton("A"), AllocationConstraint(0.2, 0.8))
        assert iv.width <= 0.01 + 1e-12

    def test_matches_closed_form_within_step(self):
        rng = np.random.default_rng(43)
        alphas = [0.0, 0.05, 0.1, 0.15, 0.2]
        betas = [0.6, 0.7, 0.8, 0.9, 1.0]
        for _ in range(15):
            s = random_survey(rng, max_n=10, max_undecided=5)
            c = AllocationConstraint(float(rng.choice(alphas)), float(rng.choice(betas)))
            closed = constrained_bounds(s, c)
            for code in s.registry.options:
                oracle = oracle_constrained_bounds(s, s.registry.singleton(code), c)
                assert abs(oracle.lower - closed[code].lower) <= 0.01 + 1e-9
                assert abs(oracle.upper - closed[code].upper) <= 0.01 + 1e-9

    def test_step_validation(self, abc_survey, abc_registry):
        with pytest.raises(ValueError):
            oracle_constrained_bounds(abc_survey, abc_registry.singleton("A"), AllocationConstraint(0.2, 0.8), step=0.7)


class TestCoverage:
    def test_generated_population_never_violates(self):
        for seed in range(10):
            s, g = generate_population(config(seed=seed, coarsen_prob=0.4))
            report = coverage_check(s, g)
            assert report.ok

    def test_no_coarsening_margins_are_zero(self):
        s, g = generate_population(config(coarsen_prob=0.0, seed=8))
        report = coverage_check(s, g)
        assert all(abs(m) < 1e-15 for m in report.margins.values())

    def test_coalitions_checked_too(self):
        s, g = generate_population(config(seed=12, coarsen_prob=0.5))
        specs = [CoalitionSpec("AB", REG.set_of(["A", "B"])), CoalitionSpec("CD", REG.set_of(["C", "D"]))]
        report = coverage_check(s, g, coalitions=specs)
        assert report.ok
        for spec in specs:
            votes = zip(s.weights.tolist(), g.votes.tolist())
            share = min(math.fsum(w for w, v in votes if spec.members.contains_index(v)) / s.total_weight, 1.0)
            iv = event_bounds(s, spec.members)
            assert report.margins[spec.name] == min(share - iv.lower, iv.upper - share)

    @pytest.mark.parametrize("bad_vote", [-1, 3])
    def test_vote_outside_registry_errors(self, abc_survey, bad_vote):
        from pollsets import GroundTruth

        truth = GroundTruth((0, 0, 1, 0, bad_vote), {"A": 0.6, "B": 0.2, "C": 0.2})
        with pytest.raises(ValueError, match="outside the registry"):
            truth_to_csv(abc_survey, truth)
        with pytest.raises(ValueError, match="outside the registry"):
            coverage_check(abc_survey, truth)

    def test_misaligned_truth_errors(self, abc_survey):
        from pollsets import GroundTruth

        truth = GroundTruth((0,), {"A": 1.0, "B": 0.0, "C": 0.0})
        with pytest.raises(ValueError, match="does not align"):
            coverage_check(abc_survey, truth)
        with pytest.raises(ValueError, match="does not align"):
            truth_to_csv(abc_survey, truth)
