"""Reference untangle: the Fraction loop that re-sorts every span per candidate.

``barriercover.untangle.untangle`` must give the very same ``(solution,
active)``, or raise the same exception with the same message, on every
input.  This is the loop as it stood before it moved onto the integer grid,
together with the coverage sweep, the active-set drop rule and the swap
step it called then, copied verbatim.  Every swap costs a full
``verify_coverage`` per active sensor, so it lives here as the test oracle
and not in the library.

``walk_next_swap`` is the pair choice the integer-grid loop made before it
read only neighbouring spans: it finds the least overlapping crossing pair
on any spans, nested or crowded ones included, where the library's
``_next_swap`` is right only on the spans of a minimal cover.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from barriercover.model import (
    ActiveSet,
    CoverageReport,
    InfeasibleError,
    Instance,
    Number,
    Scalar,
    ScalarLike,
    Solution,
    as_solution,
    is_order_preserving,
)
from barriercover.untangle import CrossingPair, crossing_pairs


def _merged_spans(spans: Iterable[tuple[Scalar, Scalar]]) -> list[tuple[Scalar, Scalar]]:
    """Merge closed intervals; touching intervals coalesce (no zero gaps)."""
    merged: list[tuple[Scalar, Scalar]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _clipped_spans(
    instance: Instance,
    solution: Solution,
    indices: Optional[Iterable[int]] = None,
) -> list[tuple[Scalar, Scalar]]:
    """Covered intervals clipped to the barrier; degenerate points are kept."""
    idx = range(instance.n) if indices is None else indices
    spans = []
    for i in idx:
        r = instance.sensors[i].r
        lo = max(solution[i] - r, Fraction(0))
        hi = min(solution[i] + r, instance.length)
        if lo <= hi:
            spans.append((lo, hi))
    return spans


def verify_coverage(
    instance: Instance,
    solution: Sequence[ScalarLike],
    indices: Optional[Iterable[int]] = None,
) -> CoverageReport:
    """Sweep the clipped intervals and report every maximal uncovered gap.

    Intervals are closed, so touching endpoints leave no gap.  ``indices``
    restricts the check to a subset of sensors (used for active-set work).
    An empty barrier (L = 0) counts as covered.
    """
    y = as_solution(instance, solution)
    if instance.length == 0:
        return CoverageReport(covered=True, gaps=())
    gaps: list[tuple[Scalar, Scalar]] = []
    cursor = Fraction(0)
    for lo, hi in _merged_spans(_clipped_spans(instance, y, indices)):
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < instance.length:
        gaps.append((cursor, instance.length))
    return CoverageReport(covered=not gaps, gaps=tuple(gaps))


def minimal_active_set(
    instance: Instance,
    solution: Sequence[ScalarLike],
    within: Optional[Iterable[int]] = None,
) -> ActiveSet:
    """Inclusion-minimal set of sensors that still covers the barrier.

    Deterministic rule: scan candidates in decreasing radius (ties: higher
    index first) and drop any sensor whose removal keeps [0, L] covered.
    A single pass is enough: once a removal fails it fails for every
    smaller surviving set as well.
    """
    y = as_solution(instance, solution)
    keep = set(range(instance.n) if within is None else within)
    if not verify_coverage(instance, y, keep).covered:
        raise InfeasibleError("solution does not cover the barrier")
    order = sorted(keep, key=lambda i: (-instance.sensors[i].r, -i))
    for i in order:
        keep.discard(i)
        if not verify_coverage(instance, y, keep).covered:
            keep.add(i)
    return tuple(sorted(keep))


def walk_next_swap(
    spans: Sequence[tuple[Number, Number, int]],
    pos: Sequence[Number],
) -> Optional[tuple[tuple[Number, Number], int, int]]:
    """The least ``((u1, u2), i, j)`` over the crossing pairs whose spans overlap, or None.

    ``spans`` are ``(y - r, y + r, k)`` sorted by (lo, hi, k), unclipped, and
    ``pos`` holds each sensor's center; any exact number type works.  Each
    entry is paired only with the later entries that start inside it, and
    the walk stops once an entry starts right of the best union's start:

    * Sort order puts one sensor a of an overlapping pair {a, b} first, so
      lo_a <= lo_b, and the two overlap exactly when lo_b <= hi_a.  Every
      entry between them has lo_a <= lo <= lo_b <= hi_a, so the walk from
      a, which stops at the first entry with lo > hi_a, reaches b; each
      entry it reaches does overlap a.  So each overlapping pair is seen
      once, from its lower-lo end, and no disjoint pair is seen.  Its
      union is [lo_a, max(hi_a, hi_b)].
    * A crossing pair (i < j, y_i > y_j) can only be separated by
      lo_i > hi_j, so for it "overlapping" is ``_union_span``'s test.
    * Every pair seen from an entry has union start lo of that entry, and
      entries come in increasing lo.  Once an entry's lo passes the best
      u1 found, no later pair can beat it, so the walk stops there.
    """
    best = None
    count = len(spans)
    for n in range(count):
        lo, hi, a = spans[n]
        if best is not None and lo > best[0][0]:
            break
        for m in range(n + 1, count):
            lo_b, hi_b, b = spans[m]
            if lo_b > hi:
                break
            i, j = (a, b) if a < b else (b, a)
            if pos[i] > pos[j]:
                found = ((lo, max(hi, hi_b)), i, j)
                if best is None or found < best:
                    best = found
    return best


def _union_span(instance: Instance, y: Solution, pair: CrossingPair):
    r_i, r_j = instance.sensors[pair.i].r, instance.sensors[pair.j].r
    lo_i, hi_i = y[pair.i] - r_i, y[pair.i] + r_i
    lo_j, hi_j = y[pair.j] - r_j, y[pair.j] + r_j
    if lo_i > hi_j:  # y_i > y_j, so only this side can separate them
        return None
    return min(lo_i, lo_j), max(hi_i, hi_j)


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
    span = _union_span(instance, y, pair)
    if span is None:
        raise ValueError(f"pair {pair} has disjoint intervals; swap would tear them")
    u1, u2 = span
    out = list(y)
    out[pair.i] = u1 + instance.sensors[pair.i].r
    out[pair.j] = u2 - instance.sensors[pair.j].r
    return tuple(out)


def untangle(
    instance: Instance,
    solution: Sequence[ScalarLike],
) -> tuple[Solution, ActiveSet]:
    """Swap crossing overlapping pairs until the active set is in order.

    Schedule: always swap the pair whose interval union starts leftmost;
    after each swap the active set is re-minimized (within itself) and any
    sensor dropped as redundant returns to its starting position.  Coverage
    is checked after every swap, and a run is bounded by n^2 swaps; either
    failing is a schedule bug, not a property of the input.
    """
    y = as_solution(instance, solution)
    if not verify_coverage(instance, y).covered:
        raise InfeasibleError("cannot untangle a solution that does not cover")

    def reset_outside(y: Solution, active: ActiveSet) -> Solution:
        keep = set(active)
        return tuple(
            yi if i in keep else instance.sensors[i].x for i, yi in enumerate(y)
        )

    active = minimal_active_set(instance, y)
    y = reset_outside(y, active)
    last: Optional[CrossingPair] = None
    for _ in range(instance.n * instance.n + 1):
        crossings = crossing_pairs(instance, y, active)
        if not crossings:
            break
        swappable = []
        for pair in crossings:
            span = _union_span(instance, y, pair)
            if span is not None:
                swappable.append((span, pair))
        if not swappable:
            raise RuntimeError("crossing pairs remain but none overlap; schedule bug")
        _, pair = min(swappable, key=lambda item: (item[0], item[1].i, item[1].j))
        if pair == last:
            raise RuntimeError(f"pair {pair} selected twice in a row; schedule bug")
        last = pair
        y = swap_pair(instance, y, pair)
        if not verify_coverage(instance, y, active).covered:
            raise RuntimeError(f"swap of {pair} broke coverage; swap rule bug")
        active = minimal_active_set(instance, y, within=active)
        y = reset_outside(y, active)
    else:
        raise RuntimeError("untangling exceeded its n^2 swap bound")
    if not is_order_preserving(instance, y, active):
        raise RuntimeError("untangling finished with an out-of-order active set")
    return y, active
