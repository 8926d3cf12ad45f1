"""Interval-valued vote share bounds from set-valued responses.

The lower bound of an event counts only respondents whose whole
consideration set lies inside the event; the upper bound counts every
respondent whose set touches it.  Between those extremes lies every
share reachable by assigning each undecided respondent to one member of
their set, so the intervals cover all completions by construction.

An optional allocation constraint narrows the intervals: within every
consideration set, each option is assumed to receive at least ``alpha``
and at most ``beta`` of that group's eventual votes.  The per-set box
is repaired to stay feasible for any set size (see
``effective_allocation_limits``), and per-respondent extremes then have
a closed form because the constraint never couples different sets.

A bound depends on each distinct consideration set only through its
total weight, so it is computed per set from the survey's cell table
(see ``pollsets.data``): each set's exact weight sum times the fraction
of it the bound counts, added exactly and rounded once
(``data.weighted_total``).  Results are therefore correctly rounded and
independent of respondent order.  Seat shares over a subset of parties
(``seat_bounds``) are ratios of two such sums.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .data import PartyRegistry, PartySet, Survey, weighted_total


@dataclass(frozen=True)
class Interval:
    """A [lower, upper] share pair, both in [0, 1]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack


@dataclass(frozen=True)
class IntervalForecast:
    """Per-option intervals."""

    intervals: dict[str, Interval]

    def __post_init__(self):
        lowers = math.fsum(iv.lower for iv in self.intervals.values())
        uppers = math.fsum(iv.upper for iv in self.intervals.values())
        if lowers > 1.0 + 1e-9 or uppers < 1.0 - 1e-9:
            raise ValueError("per-option intervals must satisfy sum(lower) <= 1 <= sum(upper)")

    def __getitem__(self, option: str) -> Interval:
        return self.intervals[option]


@dataclass(frozen=True)
class AllocationConstraint:
    """Within-set share box: each option gets between alpha and beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= self.beta <= 1.0):
            raise ValueError(f"need 0 <= alpha <= beta <= 1, got ({self.alpha}, {self.beta})")


@dataclass(frozen=True)
class CoalitionSpec:
    """A named union of parties whose joint share is of interest."""

    name: str
    members: PartySet


class Majority(enum.Enum):
    GUARANTEED = "guaranteed"
    POSSIBLE = "possible"
    EXCLUDED = "excluded"


def effective_allocation_limits(k: int, c: AllocationConstraint) -> tuple[float, float]:
    """Feasible within-set box for a consideration set of size k.

    A raw (alpha, beta) box can be infeasible for some set sizes
    (k * alpha > 1, or beta leaving too little mass for the others).
    The repaired limits keep the k = 2 case exact and always satisfy
    alpha_eff <= 1/k <= beta_eff, so allocations summing to one exist.
    Decided respondents (k = 1) vote their singleton: (1, 1).
    """
    if k < 1:
        raise ValueError("set size must be >= 1")
    if k == 1:
        return 1.0, 1.0
    alpha_eff = min(c.alpha, 1.0 / k)
    beta_eff = min(c.beta, 1.0 - (k - 1) * alpha_eff)
    beta_eff = max(beta_eff, 1.0 / k)
    return alpha_eff, beta_eff


def _contribution_limits(k: int, m: int, c: AllocationConstraint) -> tuple[float, float]:
    """Extremal in-event mass per unit weight for a set of size k with m members in the event."""
    alpha_eff, beta_eff = effective_allocation_limits(k, c)
    if k * beta_eff <= 1.0:
        # Box pinched to the uniform allocation (beta at or below 1/k).
        forced = m / k
        return forced, forced
    lo = max(m * alpha_eff, 1.0 - (k - m) * beta_eff)
    hi = min(m * beta_eff, 1.0 - (k - m) * alpha_eff)
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    if lo > hi:
        # The two expressions agree in exact arithmetic; reconcile float ties.
        lo = hi = min(lo, hi)
    return lo, hi


def _limits(s: Survey, mask: int, c: AllocationConstraint | None) -> tuple[list[float], list[float]]:
    """Per distinct set, the least and the most of a unit of its weight that can fall in the parties of ``mask``.

    Without a constraint: whether the set lies inside them, and whether it touches them (0 for an empty ``mask``).
    A survey with no respondents has no shares, so it raises ValueError.
    """
    if not len(s):
        raise ValueError("the survey has no respondents")
    masks = [ps.mask for ps in s.sets]
    if c is None:
        return [float(m & ~mask == 0) for m in masks], [float(m & mask != 0) for m in masks]
    limits = [_contribution_limits(m.bit_count(), (m & mask).bit_count(), c) for m in masks]
    return [lo for lo, _ in limits], [hi for _, hi in limits]


def event_bounds(s: Survey, event: PartySet, c: AllocationConstraint | None = None) -> Interval:
    """Lower/upper bounds for the share of votes falling inside `event`.

    Without a constraint these are the belief/plausibility sums: sets
    fully inside the event versus sets intersecting it.  With a
    constraint each set counts at its closed-form extremal in-event
    mass per unit weight instead.  Both loop over distinct sets and
    round the exact sum of each set's weight times that factor once:
    without a constraint the factors are 0 or 1, so the result equals a
    per-respondent ``math.fsum`` bit for bit.
    """
    if not event.fits(s.registry):
        raise ValueError("event references options outside the registry")
    sums = s.set_sums
    lo_factors, hi_factors = _limits(s, event.mask, c)
    lower = min(weighted_total(sums, lo_factors) / s.total_weight, 1.0)
    upper = min(weighted_total(sums, hi_factors) / s.total_weight, 1.0)
    return Interval(lower, upper)


def _per_option_forecast(s: Survey, c: AllocationConstraint | None) -> IntervalForecast:
    return IntervalForecast({code: event_bounds(s, s.registry.singleton(code), c) for code in s.registry.options})


def dempster_bounds(s: Survey) -> IntervalForecast:
    """Per-option intervals covering every completion of the undecided."""
    return _per_option_forecast(s, None)


def constrained_bounds(s: Survey, c: AllocationConstraint) -> IntervalForecast:
    """Per-option intervals narrowed by the within-set allocation box."""
    return _per_option_forecast(s, c)


def seat_bounds(s: Survey, included: PartySet, c: AllocationConstraint | None = None) -> IntervalForecast:
    """Each included party's share of the included parties' votes, sharp over every completion.

    For party j and the other included parties R, some allocation gives
    j its least mass and R its most in every set at once, and
    j / (j + R) rises in j and falls in R.  So the lower bound is
    sum(lo_j) / sum(lo_j + hi_R) over the sets' extremal factors and the
    upper bound is sum(hi_j) / sum(hi_j + lo_R), each sum exact and
    rounded once (Fagin & Halpern 1991 without a constraint).  Without a
    constraint over the full registry, this is ``dempster_bounds`` bit for bit.
    """
    if not included.fits(s.registry):
        raise ValueError("included set references options outside the registry")
    sums = s.set_sums
    intervals = {}
    for i in included.indices():
        code = s.registry.options[i]
        j_lo, j_hi = _limits(s, 1 << i, c)
        rest_lo, rest_hi = _limits(s, included.mask & ~(1 << i), c)
        # Concatenated factor lists give the exact sum of both terms, rounded once.
        denominators = weighted_total(sums * 2, j_lo + rest_hi), weighted_total(sums * 2, j_hi + rest_lo)
        if not all(denominators):
            raise ValueError(f"seat share of {code} is undefined: a completion gives the included parties no votes")
        lower = weighted_total(sums, j_lo) / denominators[0]
        upper = weighted_total(sums, j_hi) / denominators[1]
        # Separately rounded sums can cross the two ratios by an ulp where the exact ones are that close.
        intervals[code] = Interval(min(lower, upper), upper)
    return IntervalForecast(intervals)


def majority_classification(i: Interval, threshold: float = 0.5) -> Majority:
    """Classify an interval against a majority threshold.

    A share exactly at the threshold does not count as a majority, so
    [t, t] is EXCLUDED.
    """
    if i.lower > threshold:
        return Majority.GUARANTEED
    if i.upper > threshold:
        return Majority.POSSIBLE
    return Majority.EXCLUDED


def coalition_report(
    s: Survey,
    coalitions,
    c: AllocationConstraint | None = None,
    threshold: float = 0.5,
) -> list[tuple[str, Interval, Majority]]:
    """Event bounds plus majority classification for each coalition, input order kept.

    ``threshold`` is a vote share in [0, 1): a share can exceed no
    threshold of 1 or more, so every coalition would be excluded.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"majority threshold must lie in [0, 1), got {threshold}")
    report = []
    for spec in coalitions:
        interval = event_bounds(s, spec.members, c)
        report.append((spec.name, interval, majority_classification(interval, threshold)))
    return report


def parse_coalitions(text: str, registry: PartyRegistry) -> list[CoalitionSpec]:
    """Parse a coalition list: one `name,CODE;CODE;...` line each.

    Blank lines and lines starting with '#' are skipped.  The codes are
    checked by ``PartyRegistry.set_of``; a fault raises ValueError naming
    the line.
    """
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, members = line.partition(",")
        if not sep or not name.strip():
            raise ValueError(f"coalition line {lineno}: expected 'name,CODE;CODE;...'")
        try:
            specs.append(CoalitionSpec(name.strip(), registry.set_of(members.split(";"))))
        except ValueError as exc:
            raise ValueError(f"coalition line {lineno}: {exc}") from None
    return specs
