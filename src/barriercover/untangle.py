"""Reorder a feasible solution's active sensors by pairwise interval swaps.

A crossing pair is two active sensors whose positions are in the opposite
order from their starting order.  When their intervals overlap (or touch),
swapping them inside the union of the two intervals fixes their order while
covering exactly the same part of the barrier, so coverage is preserved
swap by swap until the active set is order-preserving.

``untangle`` runs its swap loop and its final order check on the integer
grid of ``model._solution_on_grid``: every coordinate is multiplied by the
lcm d of the instance's and the solution's denominators, so the swap
targets u1 + r_i and u2 - r_j stay integral, and the result is converted
back to Fractions once, through ``model._from_grid``.  Scaling by d > 0
keeps every comparison, so the schedule and the result are exactly those
of the loop on Fractions.

The loop keeps the active sensors' spans in one list sorted by their left
end.  It finds the next pair among that list's neighbours, resuming one
entry left of the last swap, and after each swap it checks coverage and
drops only on the swapped pair and the entry right of it, from the reach of
the entry left of it; ``untangle``'s docstring shows why these suffice.  So
a swap reads a constant number of entries besides its bisections, and one
full coverage sweep checks the result at the end.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional, Sequence

from .model import (
    ActiveSet,
    InfeasibleError,
    Instance,
    Number,
    ScalarLike,
    Solution,
    _covers,
    _from_grid,
    _minimal_cover,
    _set,
    _solution_on_grid,
    _Value,
    as_solution,
)


class CrossingPair(_Value):
    """Sensor indices i < j whose positions satisfy y_i > y_j."""

    __slots__ = _fields = ("i", "j")
    i: int
    j: int

    def __init__(self, i: int, j: int) -> None:
        if not 0 <= i < j:
            raise ValueError("need 0 <= i < j")
        _set(self, "i", i)
        _set(self, "j", j)


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


def _next_swap(
    spans: Sequence[tuple[Number, Number, int]],
    pos: Sequence[Number],
    start: int = 0,
) -> Optional[tuple[tuple[Number, Number], int, int, int]]:
    """The first pair of neighbouring spans that overlap and cross, as ``((u1, u2), i, j, p)``, or None.

    ``spans`` are ``(y - r, y + r, k)`` sorted by (lo, hi, k), unclipped, and
    ``pos`` holds each sensor's center; any exact number type works.  The
    scan starts at the pair of entries ``start`` and ``start + 1``, and p is
    the list position of the pair's first entry: the pair is
    ``spans[p : p + 2]``.  On the spans of a minimal cover, with no hit left
    of ``start``, ``((u1, u2), i, j)`` is the least such triple over every
    overlapping crossing pair (``untangle``'s docstring shows why).
    """
    for p in range(start, len(spans) - 1):
        lo, hi, a = spans[p]
        lo_b, hi_b, b = spans[p + 1]
        if lo_b <= hi:
            i, j = (a, b) if a < b else (b, a)
            if pos[i] > pos[j]:
                return (lo, max(hi, hi_b)), i, j, p
    return None


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

    The first active set is ``model._minimal_cover``'s.  Its one pass keeps
    every sensor that alone covers a stretch and drops every sensor that
    meets the barrier in one point or not at all; only the rest pay a
    sweep (its docstring shows why).

    The active sensors' unclipped spans ``(y - r, y + r, k)`` are kept in
    one list sorted by (lo, hi, k); a swap replaces only its pair's two
    entries.  Whenever ``_next_swap`` runs, the active set is an
    inclusion-minimal cover of [0, L] (shown below), and it picks the next
    pair from neighbouring entries of that list:

    * No span of a minimal cover contains another, since the inner one
      would be redundant.  So lo order equals hi order and every lo is
      distinct: lo_a < lo_b gives hi_a < hi_b.
    * No point lies in three spans: with lo_a < lo_b < lo_c, the middle
      span lies inside the union [lo_a, hi_c] of the other two.
    * So two spans meet only if they are neighbours in lo order: if a and
      c meet with b between them, then lo_c lies in all three.  A
      crossing pair (i < j, y_i > y_j) can only be separated by
      lo_i > hi_j, so for it "meet" is ``_union_span``'s test, and the
      candidates of the schedule are exactly the neighbour pairs a, b with
      lo_b <= hi_a whose indices cross.
    * Each such pair's union is [lo_a, max(hi_a, hi_b)], which starts at
      its first span's lo, and those lo values strictly increase along the
      list.  The first crossing neighbour pair therefore has the least
      ``((u1, u2), i, j)``, and no tie-break can arise.
    * When no overlapping crossing pair exists, any crossing pair left is a
      descent pos[a] > pos[b] between neighbours of the active tuple; one
      is a schedule bug, none means the set is in order.

    Should minimality ever break, each pair picked still overlaps and
    crosses, so each swap stays inside its union, and the final coverage
    sweep and order check still hold the result to an ordered cover.

    ``_covers`` answers on these unclipped spans as on the clipped ones of
    ``_minimal_cover``: its sweep is right for any order in which the
    clipped lo, max(lo, 0), never falls, and max(lo, 0) is monotone in lo.
    Clipping lo to 0 changes no test, since reach starts at 0 or more; a
    span with hi <= 0 never raises reach; a hi past L ends the sweep as L
    would; and a span with lo > L is only met with reach < L, after a gap
    that the clipped sweep finds as well.

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

    So the active set is a minimal cover at every ``_next_swap``.  Let its
    pick sit at list positions p and p + 1, with P = ``spans[p - 1]`` and
    Q = ``spans[p + 2]`` where they exist.  The scan resumes at p - 1:

    * Entries left of p do not move.  Their lo values are below u1 and the
      pair's new spans lie inside [u1, u2], so both land at p or later; a
      drop removes only i or j.
    * So every pair of neighbours left of p - 1 is one the previous scans
      passed without a hit, and the scan from max(p - 1, 0) still returns
      the first crossing neighbour pair of the whole list.

    Coverage and drops are checked on the three entries from p alone:

    * The spans from p on start at u1 or later, right of lo_P.  So the
      spans before p cover [0, hi_P] with no gap (a point they miss lies
      left of lo_P, where the cover had nothing else), and hi_P is their
      greatest hi.
    * Every entry R past Q meets neither of the pair (it is no neighbour
      of theirs), so lo_R > u2.  The entries at p, p + 1 and p + 2 after
      the swap are therefore i, j and Q in some order.
    * Only i and j moved, from spans inside [u1, u2] to spans inside
      [u1, u2], and the set covered [0, L] before.  So it still covers
      [0, L] iff it covers [0, min(u2, L)]: iff a sweep of the three
      entries from reach hi_P (0 when p = 0) reaches min(u2, L) with no
      gap, since a gap it finds lies right of hi_P and left of every later
      lo.  That is the coverage guard.
    * Dropping k of the pair uncovers nothing outside k's span, which ends
      at hi_k <= u2.  The same argument makes the drop check the same
      sweep with target min(hi_k, L), and it holds when i went first.

    Both checks are exact, so the loop makes the choices of full sweeps,
    and one full ``_covers`` sweep after the loop checks the result end to
    end.  A swap reads O(1) entries beyond its bisections, and since each
    scan resumes one entry left of where the last one stopped, all the
    scans of a run read O(|A| + swaps) entries together.
    """
    scale, length, home, radii, pos = _solution_on_grid(instance, solution)
    active = _minimal_cover(radii, pos, length, range(instance.n))
    if active is None:
        raise InfeasibleError("cannot untangle a solution that does not cover")
    for k in set(range(instance.n)).difference(active):
        pos[k] = home[k]

    def entry(k: int) -> tuple[int, int, int]:
        return pos[k] - radii[k], pos[k] + radii[k], k

    # sorted unclipped spans of the active sensors; unplace runs before a
    # sensor moves, so it finds its span
    spans = sorted(entry(k) for k in active)

    def unplace(k: int) -> None:
        del spans[bisect_left(spans, entry(k))]

    keep = set(active)
    last: Optional[tuple[int, int]] = None
    start = 0
    for _ in range(instance.n * instance.n + 1):
        best = _next_swap(spans, pos, start)
        if best is None:
            break
        span, i, j, p = best
        if (i, j) == last:
            raise RuntimeError(f"pair {(i, j)} selected twice in a row; schedule bug")
        last = i, j
        del spans[p : p + 2]
        pos[i], pos[j] = _swap_targets(span, radii[i], radii[j])
        insort(spans, entry(i))
        insort(spans, entry(j))
        near = spans[p : p + 3]
        reach = spans[p - 1][1] if p else 0
        if not _covers(near, keep, min(span[1], length), reach):
            raise RuntimeError(f"swap of {(i, j)} broke coverage; swap rule bug")
        for k in (i, j) if radii[i] > radii[j] else (j, i):
            keep.remove(k)
            if _covers(near, keep, min(pos[k] + radii[k], length), reach):
                unplace(k)
                pos[k] = home[k]
            else:
                keep.add(k)
        start = p - 1 if p else 0
    else:
        raise RuntimeError("untangling exceeded its n^2 swap bound")
    if not _covers(spans, keep, length):
        raise RuntimeError("untangling finished with a gap in its cover; swap rule bug")
    active = tuple(sorted(keep))
    if not all(pos[a] < pos[b] for a, b in zip(active, active[1:])):
        if any(pos[a] > pos[b] for a, b in zip(active, active[1:])):
            raise RuntimeError("crossing pairs remain but none overlap; schedule bug")
        raise RuntimeError("untangling finished with an out-of-order active set")
    return tuple([_from_grid(v, scale) for v in pos]), active
