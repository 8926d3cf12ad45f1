"""Interval-valued vote share bounds from set-valued responses.

Every interval is one quantity, ``share_bounds``: the share of the
included parties' votes that falls in an event C, over every completion
of the undecided.  Per unit of a consideration set's weight, lo_C and
hi_C are the least and the most that can fall in C.  Some completion
gives C its least and the rest R of the included parties their most in
every set at once, and C / (C + R) rises in C and falls in R, so the
sharp bounds are sum(lo_C) / sum(lo_C + hi_R) and sum(hi_C) /
sum(hi_C + lo_R): Bel(C | I) = Bel(C) / (Bel(C) + Pl(I - C)) (Fagin &
Halpern 1991).  Over the full registry lo_C + hi_R = 1 in every set, so
both denominators are the total weight and the bounds are belief and
plausibility (Shafer 1976).  Over fewer parties they are seat shares.

An optional allocation constraint narrows the intervals: within every
consideration set, each option receives at least ``alpha`` and at most
``beta`` of that group's eventual votes, read as the binary fractions
the two floats are.  The box is repaired to stay feasible for any set
size k (``effective_allocation_limits``): alpha_e = min(alpha, 1/k) and
beta_e = max(min(beta, 1 - (k - 1) * alpha_e), 1/k).  It never couples
different sets, so the factors of a set with m members in C have a
closed form, lo = max(m * alpha_e, 1 - (k - m) * beta_e) and hi =
min(m * beta_e, 1 - (k - m) * alpha_e), computed as exact rationals
(``fractions.Fraction``).  No constraint is the vacuous box (0, 1),
whose factors are the ints 0 or 1: whether a set lies inside C, and
whether it touches C.

Each sum weighs each distinct set's exact weight sum (see
``pollsets.data``) by its exact factor, added exactly and rounded once
(``data.weighted_total``), so each sum is correctly rounded; the ratio
is rounded once more.  Both are independent of respondent order.  The
bounds read only a survey's ``registry``, ``sets`` and ``set_sums``; a
subgroup's table serves too.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .data import PartyRegistry, PartySet, Survey, rounded, weighted_total


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


def effective_allocation_limits(k: int, c: AllocationConstraint) -> tuple[Fraction | int, Fraction | int]:
    """Feasible within-set box for a consideration set of size k, as exact ``Fraction``s.

    A raw (alpha, beta) box can be infeasible for some set sizes
    (k * alpha > 1, or beta leaving too little mass for the others).
    The repaired limits, alpha_e and beta_e of the module docstring,
    satisfy alpha_e <= 1/k <= beta_e, so allocations summing to one
    exist.  Since fl(0.2) + fl(0.8) > 1, a pair's limits at the box
    (0.2, 0.8) are (alpha, 1 - alpha).  Decided respondents (k = 1) vote
    their singleton: (1, 1).
    """
    if k < 1:
        raise ValueError("set size must be >= 1")
    if k == 1:
        return 1, 1
    alpha_eff = min(Fraction(c.alpha), Fraction(1, k))
    beta_eff = max(min(Fraction(c.beta), 1 - (k - 1) * alpha_eff), Fraction(1, k))
    return alpha_eff, beta_eff


@functools.cache
def _contribution_limits(k: int, m: int, c: AllocationConstraint) -> tuple[Fraction | int, Fraction | int]:
    """Exact extremal in-event mass per unit weight for a set of size k with m members in the event."""
    alpha_eff, beta_eff = effective_allocation_limits(k, c)
    lo = max(m * alpha_eff, 1 - (k - m) * beta_eff)
    hi = min(m * beta_eff, 1 - (k - m) * alpha_eff)
    # Whole factors as ints, which weighted_total adds without a Fraction.
    return tuple(int(f) if f.denominator == 1 else f for f in (lo, hi))


def _limits(s: Survey, mask: int, factors) -> tuple[tuple[Fraction | int, ...], tuple[Fraction | int, ...]]:
    """Per distinct set, the least and the most of a unit of its weight that can fall in the parties of ``mask``."""
    return tuple(zip(*(factors(ps.mask.bit_count(), (ps.mask & mask).bit_count()) for ps in s.sets)))


def share_bounds(s: Survey, event: PartySet, included: PartySet, c: AllocationConstraint | None = None) -> Interval:
    """The least and the greatest share of the ``included`` parties' votes that falls in ``event``.

    Over every allocation in the box ``c``, None being the vacuous box.
    Raises ValueError if the event or ``included`` names options outside
    the registry, if the event is not inside ``included``, if the survey
    has no respondents, or if the share is undefined: a completion gives
    the included parties no votes.
    """
    if (event.mask | included.mask) >= 1 << len(s.registry):
        raise ValueError("event or included parties reference options outside the registry")
    if not event.issubset(included):
        raise ValueError("event references options outside the included parties")
    if not s.sets:
        raise ValueError("the survey has no respondents")
    box = c or AllocationConstraint(0.0, 1.0)
    factors = functools.cache(lambda k, m: _contribution_limits(k, m, box))
    sums = s.set_sums
    lo_c, hi_c = _limits(s, event.mask, factors)
    if included == s.registry.full_set():
        # lo_C + hi_R = hi_C + lo_R = 1 exactly in every set: both denominators are the total weight.
        denominators = (rounded(sum(sums)),) * 2
    else:
        lo_r, hi_r = _limits(s, included.mask & ~event.mask, factors)
        # Concatenated factor lists give the exact sum of both terms, rounded once.
        denominators = weighted_total(sums * 2, lo_c + hi_r), weighted_total(sums * 2, hi_c + lo_r)
    if not all(denominators):
        label = s.registry.label_of(event)
        raise ValueError(f"seat share of {label} is undefined: a completion gives the included parties no votes")
    lower = weighted_total(sums, lo_c) / denominators[0]
    upper = weighted_total(sums, hi_c) / denominators[1]
    # Separately rounded sums can cross the two ratios by an ulp where the exact ones are that close.
    return Interval(min(lower, upper), upper)


def event_bounds(s: Survey, event: PartySet, c: AllocationConstraint | None = None) -> Interval:
    """Lower/upper bounds for the share of all votes falling inside ``event``: belief and plausibility without ``c``."""
    return share_bounds(s, event, s.registry.full_set(), c)


def seat_bounds(s: Survey, included: PartySet, c: AllocationConstraint | None = None) -> IntervalForecast:
    """Each included party's share of the included parties' votes, sharp over every completion.

    Over the full registry this is ``dempster_bounds``, or with ``c``
    ``constrained_bounds``, bit for bit.
    """
    bounds = [share_bounds(s, PartySet(1 << i), included, c) for i in included.indices()]
    return IntervalForecast(dict(zip(s.registry.codes_of(included), bounds)))


def dempster_bounds(s: Survey) -> IntervalForecast:
    """Per-option intervals covering every completion of the undecided."""
    return seat_bounds(s, s.registry.full_set())


def constrained_bounds(s: Survey, c: AllocationConstraint) -> IntervalForecast:
    """Per-option intervals narrowed by the within-set allocation box."""
    return seat_bounds(s, s.registry.full_set(), c)


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
