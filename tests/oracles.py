"""Brute-force oracles for the bounds: exact enumeration, independent of their closed forms.

Each computes in rationals (``fractions.Fraction``) what a bound should
be, by listing the completions or the vertices of an allocation box.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from pollsets import AllocationConstraint, Interval, PartySet, Survey


def box_vertices(k: int, c: AllocationConstraint) -> set[tuple[Fraction | int, ...]]:
    """Vertices of {x in [alpha_eff, beta_eff]^k : sum(x) = 1}: every coordinate at a limit but at most one.

    The limits are the box's repair for k parties, with alpha and beta
    read as the rationals the two floats are: alpha_eff = min(alpha, 1/k)
    and beta_eff = max(min(beta, 1 - (k - 1) * alpha_eff), 1/k).
    """
    a = min(Fraction(c.alpha), Fraction(1, k))
    b = max(min(Fraction(c.beta), 1 - (k - 1) * a), Fraction(1, k))
    vertices = set()
    for free in range(k):
        for fixed in itertools.product((a, b), repeat=k - 1):
            x = 1 - sum(fixed)
            if a <= x <= b:
                vertices.add((*fixed[:free], x, *fixed[free:]))
    return vertices


@functools.cache
def box_limits(k: int, m: int, c: AllocationConstraint) -> tuple[Fraction | int, Fraction | int]:
    """The least and the most of a unit of a size-k set's weight that can fall on m of its members.

    The in-event mass is linear, so its extremes over the box lie at its
    vertices; the box is symmetric, so the members can be any m of the k.
    """
    masses = [sum(x[:m]) for x in box_vertices(k, c)]
    return min(masses), max(masses)


def set_weights(s: Survey) -> dict[PartySet, Fraction]:
    """Each distinct set's exact weight sum, added respondent by respondent in rationals."""
    by_set: dict[PartySet, Fraction] = {}
    for w, ps, _ in s.rows():
        by_set[ps] = by_set.get(ps, 0) + Fraction(w)
    return by_set


def boxed_share_bounds(weights: dict[PartySet, Fraction], event: PartySet, included: PartySet, c: AllocationConstraint):
    """``share_bounds(s, event, included, c)`` from ``box_limits``, or None if the share is undefined.

    ``weights`` is ``set_weights(s)``.  Per distinct set, w is its exact
    weight sum, lo_C and hi_C are the least and the most of it in
    ``event``, and lo_R and hi_R those in the rest R of the included
    parties.  Each sum is rounded once, then the
    ratio: float(sum(w * lo_C)) / float(sum(w * (lo_C + hi_R))) for the
    lower end, the mirror for the upper, and the lower end no higher than
    the upper.  Undefined means a denominator is zero.
    """
    rest = included.mask & ~event.mask
    lo_c = hi_c = lo_r = hi_r = 0
    for ps, w in weights.items():
        in_c = box_limits(ps.size, (ps.mask & event.mask).bit_count(), c)
        in_r = box_limits(ps.size, (ps.mask & rest).bit_count(), c)
        lo_c, hi_c = lo_c + w * in_c[0], hi_c + w * in_c[1]
        lo_r, hi_r = lo_r + w * in_r[0], hi_r + w * in_r[1]
    if not (lo_c + hi_r and hi_c + lo_r):
        return None
    upper = float(hi_c) / float(hi_c + lo_r)
    return min(float(lo_c) / float(lo_c + hi_r), upper), upper


def seat_oracle(s: Survey, event: PartySet, included: PartySet, c: AllocationConstraint | None = None):
    """The exact least and greatest share of the included parties' votes in ``event``, or None if undefined.

    Without ``c`` every completion is enumerated: each respondent votes
    for one member of their set.  With ``c`` each distinct set's weight
    is split at every vertex of its allocation box, where a ratio of
    linear functions attains its extremes.  A share is undefined where
    it has no least or no greatest value: the event or the rest of the
    included parties never get votes, and some split gives the included
    parties none.
    """
    rows = list(s.rows())
    if c is None:
        units = [(Fraction(w), [{i: 1} for i in ps.indices()]) for w, ps, _ in rows]
    else:
        weights = set_weights(s).items()
        units = [(w, [dict(zip(ps.indices(), x)) for x in box_vertices(ps.size, c)]) for ps, w in weights]
    rest = [i for i in included.indices() if not event.contains_index(i)]
    # Every (votes of the event, votes of the rest) pair over the units' choices, built unit by unit.
    points = {(Fraction(0), Fraction(0))}
    for w, splits in units:
        steps = {(sum(x.get(i, 0) for i in event.indices()), sum(x.get(i, 0) for i in rest)) for x in splits}
        points = {(a + w * dc, b + w * dr) for a, b in points for dc, dr in steps}
    mine, others = [a for a, _ in points], [b for _, b in points]
    if (min(mine) == max(others) == 0) or (max(mine) == min(others) == 0):
        return None
    shares = [a / (a + b) for a, b in points if a + b]
    return min(shares), max(shares)


def completion_bounds(s: Survey, event: PartySet) -> Interval:
    """``event_bounds(s, event)`` by enumerating every completion.

    With T the exact total weight, the least and the greatest share lo
    and hi come from ``seat_oracle`` over the full registry.  Each exact
    extreme sum is rounded once, then the ratio: float(lo * T) / float(T)
    and float(hi * T) / float(T).
    """
    total = sum(set_weights(s).values())
    lo, hi = seat_oracle(s, event, s.registry.full_set())
    return Interval(float(lo * total) / float(total), float(hi * total) / float(total))
