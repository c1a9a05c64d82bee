"""Reorder a feasible solution's active sensors by pairwise interval swaps.

A crossing pair is two active sensors whose positions are in the opposite
order from their starting order.  When their intervals overlap (or touch),
swapping them inside the union of the two intervals fixes their order while
covering exactly the same part of the barrier, so coverage is preserved
swap by swap until the active set is order-preserving.

``untangle`` runs its swap loop and its final order check on the integer
grid of ``model.on_grid``: every coordinate is multiplied by the lcm d of
the instance's and the solution's denominators, so the swap targets
u1 + r_i and u2 - r_j stay integral, and the result is converted back to
Fractions once.  Scaling by d > 0 keeps every comparison, so the schedule
and the result are exactly those of the loop on Fractions.

After each swap the loop re-checks only the two sensors it moved;
``untangle``'s docstring shows why that suffices.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    ActiveSet,
    InfeasibleError,
    Instance,
    Number,
    ScalarLike,
    Solution,
    _clipped_spans,
    _covers,
    _minimal_cover,
    _to_grid,
    as_solution,
    on_grid,
)


@dataclass(frozen=True)
class CrossingPair:
    """Sensor indices i < j whose positions satisfy y_i > y_j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError("need 0 <= i < j")


def crossing_pairs(
    instance: Instance,
    solution: Sequence[ScalarLike],
    active: Sequence[int],
) -> tuple[CrossingPair, ...]:
    """All crossing pairs within the active set, overlapping or not."""
    y = as_solution(instance, solution)
    idx = sorted(active)
    return tuple(
        CrossingPair(a, b)
        for k, a in enumerate(idx)
        for b in idx[k + 1 :]
        if y[a] > y[b]
    )


def _union_span(yi: Number, ri: Number, yj: Number, rj: Number) -> Optional[tuple[Number, Number]]:
    """Union [u1, u2] of the intervals of a crossing pair (yi > yj), or None if disjoint."""
    lo_i, hi_j = yi - ri, yj + rj
    if lo_i > hi_j:  # y_i > y_j, so only this side can separate them
        return None
    return min(lo_i, yj - rj), max(yi + ri, hi_j)


def _swap_targets(span: tuple[Number, Number], ri: Number, rj: Number) -> tuple[Number, Number]:
    """New centers of a swapped pair: i at the left end of the union, j at the right end."""
    u1, u2 = span
    return u1 + ri, u2 - rj


def swap_pair(
    instance: Instance,
    solution: Sequence[ScalarLike],
    pair: CrossingPair,
) -> Solution:
    """Swap an overlapping crossing pair inside the union of its intervals.

    The lower-index sensor moves to the left end of the union and the other
    to the right end; the union (hence coverage) is unchanged and the pair
    ends up in order.  Raises if the pair is not crossing or not contiguous.
    """
    y = as_solution(instance, solution)
    if not y[pair.i] > y[pair.j]:
        raise ValueError(f"pair {pair} is not crossing under this solution")
    ri, rj = instance.sensors[pair.i].r, instance.sensors[pair.j].r
    span = _union_span(y[pair.i], ri, y[pair.j], rj)
    if span is None:
        raise ValueError(f"pair {pair} has disjoint intervals; swap would tear them")
    out = list(y)
    out[pair.i], out[pair.j] = _swap_targets(span, ri, rj)
    return tuple(out)


def untangle(
    instance: Instance,
    solution: Sequence[ScalarLike],
) -> tuple[Solution, ActiveSet]:
    """Swap crossing overlapping pairs until the active set is in order.

    Schedule: always swap the pair whose interval union starts leftmost
    (ties: the union that ends leftmost, then the smaller indices); after
    each swap the active set is re-minimized (within itself) and any sensor
    dropped as redundant returns to its starting position.  Coverage is
    checked after every swap, and a run is bounded by n^2 swaps; either
    failing is a schedule bug, not a property of the input.

    Re-minimizing after a swap of (i, j) tests only i and j, yet yields the
    active set of the full drop rule (candidates in decreasing radius, ties
    to the higher index, each dropped if the rest still cover [0, L]):

    * The pair overlaps, so its two intervals have the same union [u1, u2]
      before and after the swap.  For every other active sensor k, the part
      of [0, L] that A - {k} covers is therefore unchanged.
    * A was minimal before the swap: the rule keeps a sensor only when its
      removal uncovers a point, and each set it tests later is smaller.  So
      A - {k} still misses a point, and the full rule, which tests k
      against a subset of A - {k}, keeps k.
    * Hence only i or j can be dropped, and the full rule tests each of
      them against A less itself (and less the other, if that one went
      first).  These are the two checks below, made in the rule's order.

    The active spans are kept sorted, and a swap replaces only the pair's
    two entries, so each swap costs one ``_covers`` sweep (the schedule-bug
    guard) and at most two drop checks.
    """
    y = as_solution(instance, solution)
    scale, length, home, radii = on_grid(instance, *y)
    pos = [_to_grid(v, scale) for v in y]
    # sorted clipped spans of the active sensors (of all sensors until the
    # first settle); unplace runs before a sensor moves, so it finds its span
    spans = sorted(_clipped_spans(radii, pos, length, range(instance.n)))

    def unplace(k: int) -> None:
        for span in _clipped_spans(radii, pos, length, (k,)):
            del spans[bisect_left(spans, span)]

    def settle(old: Sequence[int], new: ActiveSet) -> ActiveSet:
        for k in set(old).difference(new):
            unplace(k)
            pos[k] = home[k]
        return new

    active = _minimal_cover(radii, pos, length, range(instance.n))
    if active is None:
        raise InfeasibleError("cannot untangle a solution that does not cover")
    active = settle(range(instance.n), active)
    keep = set(active)
    last: Optional[CrossingPair] = None
    for _ in range(instance.n * instance.n + 1):
        crossing = False
        best = None
        for k, a in enumerate(active):
            ya, ra = pos[a], radii[a]
            for b in active[k + 1 :]:
                if ya > pos[b]:
                    crossing = True
                    span = _union_span(ya, ra, pos[b], radii[b])
                    if span is not None and (best is None or (span, a, b) < best):
                        best = (span, a, b)
        if not crossing:
            break
        if best is None:
            raise RuntimeError("crossing pairs remain but none overlap; schedule bug")
        span, i, j = best
        pair = CrossingPair(i, j)
        if pair == last:
            raise RuntimeError(f"pair {pair} selected twice in a row; schedule bug")
        last = pair
        unplace(i)
        unplace(j)
        pos[i], pos[j] = _swap_targets(span, radii[i], radii[j])
        for span in _clipped_spans(radii, pos, length, (i, j)):
            insort(spans, span)
        if not _covers(spans, keep, length):
            raise RuntimeError(f"swap of {pair} broke coverage; swap rule bug")
        for k in (i, j) if radii[i] > radii[j] else (j, i):
            keep.remove(k)
            if not _covers(spans, keep, length):
                keep.add(k)
        if len(keep) < len(active):
            active = settle(active, tuple(sorted(keep)))
    else:
        raise RuntimeError("untangling exceeded its n^2 swap bound")
    if not all(pos[a] < pos[b] for a, b in zip(active, active[1:])):
        raise RuntimeError("untangling finished with an out-of-order active set")
    return tuple(Fraction(v, scale) for v in pos), active
