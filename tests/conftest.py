"""Shared fixtures: the worked mini survey and seeded random survey corpora."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from pollsets import PartyRegistry, PartySet, Respondent, Survey

# CI runs with --hypothesis-profile=ci, so a failure there draws the same
# examples on every rerun; local runs keep drawing new ones.
settings.register_profile("ci", derandomize=True)

LETTERS = "ABCDEF"
WAVE3_SCHEMA = ("female", "age_65plus", "east", "high_income", "urban")


@pytest.fixture
def abc_registry():
    return PartyRegistry(("A", "B", "C"))


@pytest.fixture
def abc_survey(abc_registry):
    """Unit-weight survey [A], [A], [B], [{A,B}], [C] used across the suite."""
    reg = abc_registry
    respondents = (
        Respondent(1.0, reg.singleton("A")),
        Respondent(1.0, reg.singleton("A")),
        Respondent(1.0, reg.singleton("B")),
        Respondent(1.0, reg.set_of(["A", "B"])),
        Respondent(1.0, reg.singleton("C")),
    )
    return Survey(reg, (), respondents)


@pytest.fixture(scope="session")
def wave3_path():
    from pathlib import Path

    return Path(__file__).resolve().parents[1] / "data" / "wave3_synthetic.csv"


def random_survey(
    rng: np.random.Generator,
    max_n: int = 30,
    max_undecided: int = 12,
    max_set_size: int = 3,
    completion_limit: int = 1500,
    with_covariates: bool = False,
    ensure_decided: bool = True,
    all_decided: bool = False,
) -> Survey:
    """A small random survey with a bounded completion count."""
    k = int(rng.integers(3, len(LETTERS) + 1))
    registry = PartyRegistry(tuple(LETTERS[:k]))
    n = int(rng.integers(3, max_n + 1))
    n_undecided = 0 if all_decided else int(rng.integers(0, max_undecided + 1))
    if ensure_decided:
        # Keep two decided respondents on distinct options so choice models fit.
        n_undecided = min(n_undecided, n - 2)
    schema = ("x1", "x2") if with_covariates else ()

    rows = []
    budget = 1
    for i in range(n):
        weight = float(rng.uniform(0.2, 3.0))
        if i < n_undecided:
            size = int(rng.integers(2, max_set_size + 1))
            if budget * size > completion_limit:
                size = 2
            if budget * size > completion_limit:
                size = 1
            budget *= max(size, 1)
            members = rng.choice(k, size=max(size, 1), replace=False) if size > 1 else [int(rng.integers(0, k))]
            mask = 0
            for m in members:
                mask |= 1 << int(m)
        else:
            mask = 1 << int(rng.integers(0, k))
        cov = None
        if schema:
            cov = tuple(int(v) for v in rng.integers(0, 2, len(schema)))
        rows.append(Respondent(weight, PartySet(mask), cov))
    if ensure_decided or all_decided:
        decided_span = {r.set.mask for r in rows[n_undecided:]}
        if len(decided_span) < 2:
            other = 2 if rows[-1].set.mask == 1 else 1
            rows[-1] = Respondent(rows[-1].weight, PartySet(other), rows[-1].covariates)
    order = rng.permutation(n)
    return Survey(registry, schema, tuple(rows[i] for i in order))


def survey_corpus(n_surveys: int, seed: int, **kwargs) -> list[Survey]:
    return [random_survey(np.random.default_rng(seed + i), **kwargs) for i in range(n_surveys)]


def random_event(rng: np.random.Generator, survey: Survey) -> PartySet:
    k = len(survey.registry)
    size = int(rng.integers(1, k + 1))
    members = rng.choice(k, size=size, replace=False)
    mask = 0
    for m in members:
        mask |= 1 << int(m)
    return PartySet(mask)
