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

Every weight sum is exact until one final rounding (``data.exact_sums``
and ``data.rounded``), so results are correctly rounded, as math.fsum
would round them, and independent of respondent order.  Each bound is
computed per distinct consideration set from the survey's cell table
(see ``pollsets.data``): a set counted at full weight adds its cached
exact sum, and only a set counted at a fraction of its weight is summed
again, over its slice of the table's by-set weight column.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import PartyRegistry, PartySet, Survey, exact_sums, rounded


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
    """Per-option intervals plus the total weight they were computed from."""

    intervals: dict[str, Interval]
    total_weight: float

    def __post_init__(self):
        lowers = math.fsum(iv.lower for iv in self.intervals.values())
        uppers = math.fsum(iv.upper for iv in self.intervals.values())
        if lowers > 1.0 + 1e-9 or uppers < 1.0 - 1e-9:
            raise ValueError("per-option intervals must satisfy sum(lower) <= 1 <= sum(upper)")

    def __getitem__(self, option: str) -> Interval:
        return self.intervals[option]

    def options(self) -> tuple[str, ...]:
        return tuple(self.intervals)


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


def event_bounds(s: Survey, event: PartySet, c: AllocationConstraint | None = None) -> Interval:
    """Lower/upper bounds for the share of votes falling inside `event`.

    Without a constraint these are the belief/plausibility sums: sets
    fully inside the event versus sets intersecting it.  With a
    constraint each respondent contributes its closed-form extremal
    in-event mass instead.  Both loop over distinct sets and sum the
    matching respondents' weights (or the same per-weight products)
    exactly before one rounding, so the result equals a per-respondent
    ``math.fsum`` bit for bit.
    """
    if not len(s):
        raise ValueError("event_bounds of an empty survey")
    if not event.fits(s.registry):
        raise ValueError("event references options outside the registry")
    w_total = s.total_weight
    cells = s.cells
    # Per bound: the exact sums of sets counted at full weight, and the
    # weights of sets counted at a fraction, times that fraction.
    lo_sums: list[int] = []
    hi_sums: list[int] = []
    lo_parts: list[np.ndarray] = []
    hi_parts: list[np.ndarray] = []
    start = 0
    for ps, count, total in zip(cells.sets, cells.set_counts.tolist(), cells.set_sums):
        if c is None:
            lo_c = 1.0 if ps.issubset(event) else 0.0
            hi_c = 1.0 if ps.intersects(event) else 0.0
        else:
            lo_c, hi_c = _contribution_limits(ps.size, ps.intersection_size(event), c)
        for sums, parts, factor in ((lo_sums, lo_parts, lo_c), (hi_sums, hi_parts, hi_c)):
            if factor == 1.0:
                sums.append(total)
            elif factor:
                parts.append(cells.by_set[start : start + count] * factor)
        start += count
    lower = min(_rounded_sum(lo_sums, lo_parts) / w_total, 1.0)
    upper = min(_rounded_sum(hi_sums, hi_parts) / w_total, 1.0)
    return Interval(lower, upper)


def _rounded_sum(sums: list[int], parts: list[np.ndarray]) -> float:
    """The correctly rounded total of exact sums and of float arrays."""
    total = sum(sums)
    if parts:
        total += exact_sums(np.concatenate(parts))[0]
    return rounded(total)


def _per_option_forecast(s: Survey, c: AllocationConstraint | None) -> IntervalForecast:
    intervals = {
        code: event_bounds(s, s.registry.singleton(code), c) for code in s.registry.options
    }
    return IntervalForecast(intervals, s.total_weight)


def dempster_bounds(s: Survey) -> IntervalForecast:
    """Per-option intervals covering every completion of the undecided."""
    return _per_option_forecast(s, None)


def constrained_bounds(s: Survey, c: AllocationConstraint) -> IntervalForecast:
    """Per-option intervals narrowed by the within-set allocation box."""
    return _per_option_forecast(s, c)


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

    Blank lines and lines starting with '#' are skipped.
    """
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, members = line.partition(",")
        if not sep or not name.strip():
            raise ValueError(f"coalition line {lineno}: expected 'name,CODE;CODE;...'")
        codes = [c.strip() for c in members.split(";") if c.strip()]
        if not codes:
            raise ValueError(f"coalition line {lineno}: no member codes")
        specs.append(CoalitionSpec(name.strip(), registry.set_of(codes)))
    return specs
