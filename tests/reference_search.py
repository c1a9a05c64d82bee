"""Reference oracle search: ``brute_force`` before its dead-child lookahead.

``barriercover.exact.brute_force`` (and ``oracle_optimal``, which is its
budget-free call) must return the very ``(solution, cost)`` this search
returns on every input and budget.  This is the search as it stood before
it learned to skip, in the parent node, the children its own hole checks
would kill at entry; copied verbatim, it makes every such child a node of
its own, about n^2 / 2 of them on a tiling, so it lives here as the test
oracle and not in the library.

``gap_candidates`` is ``fpt_solve``'s candidate list as it stood when it
returned the left and right edge groups as two dicts; the library's tuple
must equal the sorted union of its groups.

``_transport_bound`` is ``brute_force``'s transport bound computed afresh
from the sensors and holes given, as it stood before the search kept one
sorted list of its home breakpoints; the search's bound must equal it.
It sweeps with ``_transport_sweep``, the sweep as it stood when it closed
a piece at every distinct t; ``exact._transport_sweep``, which closes one
only where G's slope changes, must return its total, and pass a cap
exactly when it does.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Container, Iterable, Iterator, Optional, Sequence

from barriercover.exact import DEFAULT_NODE_CAP, _anchored_cover, _Search
from barriercover.model import (
    Instance,
    Scalar,
    ScalarLike,
    Solution,
    grid_units,
    is_feasible,
    on_grid,
)
from barriercover.order_dp import greedy_cover

_Span = tuple[int, int]


def _merge(spans: Iterable[tuple]) -> list[tuple]:
    """The union of ``(lo, hi)`` or ``(lo, hi, i)`` spans, sorted and disjoint.

    Touching spans join, keeping the index of the last one that extended them.
    """
    out: list[tuple] = []
    for span in sorted(spans):
        if out and span[0] <= out[-1][1]:
            if span[1] > out[-1][1]:
                out[-1] = (out[-1][0],) + span[1:]
        else:
            out.append(span)
    return out


def _uncovered_two(length: int, a: list[_Span], b: list[_Span]) -> tuple[int, int]:
    """Uncovered measure of [0, length] under two merged span lists.

    Returns (total uncovered, start of the first hole; -1 when covered).
    Walking both lists by a two-pointer sweep keeps the hot search loop free
    of sorting and list allocation.
    """
    cursor = 0
    total = 0
    first = -1
    ia = ib = 0
    na, nb = len(a), len(b)
    while cursor < length:
        while ia < na and a[ia][1] < cursor:
            ia += 1
        while ib < nb and b[ib][1] < cursor:
            ib += 1
        lo_a = a[ia][0] if ia < na else None
        lo_b = b[ib][0] if ib < nb else None
        if lo_a is not None and lo_a <= cursor:
            cursor = a[ia][1]
            ia += 1
            continue
        if lo_b is not None and lo_b <= cursor:
            cursor = b[ib][1]
            ib += 1
            continue
        nxt = length
        if lo_a is not None and lo_a < nxt:
            nxt = lo_a
        if lo_b is not None and lo_b < nxt:
            nxt = lo_b
        if first < 0:
            first = cursor
        total += nxt - cursor
        cursor = nxt
    return total, first


def brute_force(
    instance: Instance,
    budget: Optional[ScalarLike] = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[tuple[Solution, Scalar]]:
    """Cheapest covering solution with grid movements summing to <= budget.

    Exhausts movement vectors (positions limited to the useful window
    [min(-r, x), max(L + r, x)]) with admissible pruning, so the returned
    cost is the exact optimum within the budget; None means no solution
    exists, never that the search gave up (that raises ResourceLimitError).
    The budget defaults to the greedy tiling cost, which is always enough.
    """
    d, length, xs, rs = on_grid(instance)
    limit = None if budget is None else grid_units(budget, d)
    n = len(xs)
    if not is_feasible(instance):
        return None

    suffix_home: list[list[_Span]] = [[] for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        suffix_home[i] = _merge(suffix_home[i + 1] + [(xs[i] - rs[i], xs[i] + rs[i])])
    slack = sum(2 * r for r in rs) - length
    # Equal intervals may be assumed uncrossed (swapping their targets never
    # raises the cost): ``floors[r]`` is where the latest sensor of radius r
    # went, and later ones stay at or right of it.  A class's indices and
    # homes both ascend (``Instance`` sorts by (x, r)), as min_reach needs.
    members = {r: [j for j in range(n) if rs[j] == r] for r in dict.fromkeys(rs)}
    classes = [(r, js, [xs[j] for j in js]) for r, js in members.items()]
    floors: dict[int, Optional[int]] = dict.fromkeys(members)

    greedy_y, greedy_cost = greedy_cover(instance)
    search = _Search(node_cap, int(greedy_cost * d) if limit is None else limit, d)
    search.offer(int(greedy_cost * d), [int(v * d) for v in greedy_y])
    anchored = _anchored_cover(length, xs, rs)
    if anchored is not None:
        search.offer(sum(abs(y - x) for y, x in zip(anchored, xs)), anchored)

    positions = list(xs)

    def contribution(span: _Span, merged: list[_Span]) -> int:
        """Length ``span`` adds to the barrier beyond what ``merged`` covers."""
        lo, hi = max(span[0], 0), min(span[1], length)
        total = 0
        for mlo, mhi in merged:
            if mhi <= lo:
                continue
            if mlo >= hi:
                break
            if mlo > lo:
                total += mlo - lo
            lo = max(lo, mhi)
            if lo >= hi:
                break
        if hi > lo:
            total += hi - lo
        return total

    def min_reach(i: int, p: int) -> Optional[int]:
        """Cheapest movement for any sensor i.. to cover [p, p+1].

        Radius r covers it from y in [p - r, p + r] at or above the class
        floor.  The class's members still to place are a suffix, and the two
        of their homes around the window's low end are the nearest.  None
        means no remaining sensor can ever cover the point: a dead branch.
        """
        best: Optional[int] = None
        for r, js, homes in classes:
            lo_y, hi_y, f = p - r, p + r, floors[r]
            if f is not None:
                if f > hi_y:
                    continue
                if f > lo_y:
                    lo_y = f
            start = bisect_left(js, i)
            k = bisect_left(homes, lo_y, start)
            if k < len(homes):
                c = homes[k] - hi_y
                if c <= 0:
                    return 0
                if best is None or c < best:
                    best = c
            if k > start:
                c = lo_y - homes[k - 1]
                if best is None or c < best:
                    best = c
        return best

    def visit(i: int, spent: int, placed: list[_Span], waste: int) -> Iterator[tuple]:
        uncovered, first_hole = _uncovered_two(length, placed, suffix_home[i])
        if i == n:
            if uncovered == 0:
                search.offer(spent, positions)
            return
        lower = uncovered
        if first_hole >= 0:
            reach = min_reach(i, first_hole)
            if reach is None:
                return
            if reach > lower:
                lower = reach
        # A hole the suffix homes still cover can nevertheless be dead when
        # the uncrossing floors keep every remaining sensor to its right.
        _, placed_hole = _uncovered_two(length, placed, [])
        if placed_hole >= 0 and placed_hole != first_hole:
            reach = min_reach(i, placed_hole)
            if reach is None:
                return
            if reach > lower:
                lower = reach
        bnd = search.limit
        if spent + lower > bnd:
            return
        lo_pos = min(-rs[i], xs[i])
        hi_pos = max(length + rs[i], xs[i])
        floor = floors[rs[i]]
        two_r = 2 * rs[i]
        d = 0
        while spent + d <= bnd:
            for y in ((xs[i],) if d == 0 else (xs[i] + d, xs[i] - d)):
                if y < lo_pos or y > hi_pos:
                    continue
                if floor is not None and y < floor:
                    continue
                span = (y - rs[i], y + rs[i])
                # Waste (overlap + off-barrier spill) only ever grows; more
                # than the global slack means no completion can cover.
                child_waste = waste + two_r - contribution(span, placed)
                if child_waste > slack:
                    continue
                positions[i] = floors[rs[i]] = y
                yield i + 1, spent + d, _merge(placed + [span]), child_waste
                positions[i], floors[rs[i]] = xs[i], floor
            d += 1
            bnd = search.limit

    return search.run(visit, 0, 0, [], 0)


def oracle_optimal(
    instance: Instance,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[tuple[Solution, Scalar]]:
    """Unrestricted optimum; None iff infeasible."""
    return brute_force(instance, node_cap=node_cap)


def gap_candidates(
    xs: list[int], rs: list[int], gap_lo: int, gap_hi: int, limit: int, banned: Container[int]
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Sensors worth moving into the gap (gap_lo, gap_hi), keyed by their facing edge.

    All on the grid 1/d of ``model.on_grid``, with ``limit`` the movement
    still affordable.  The left groups map each grid point p in
    [gap_lo - limit, gap_lo] to the sensors whose home right edge is p; the
    right groups map each p in [gap_hi, gap_hi + limit] to those whose home
    left edge is p.  Sensors in ``banned`` are left out.  Each point keeps
    only the limit+1 longest sensors (ties to the lower index): with at
    most ``limit`` movers, a discarded shorter sensor can be replaced at
    equal cost by a kept unmoved one, whose own home stays covered by a
    second kept one.  The exchange moves the kept sensor in place of the
    discarded one, which then stays home, so it keeps the number of movers
    too: the trim is just as valid under ``fpt_solve``'s mover cap.
    """
    left: dict[int, list[int]] = {}
    right: dict[int, list[int]] = {}
    for j in range(len(xs)):
        if j in banned:
            continue
        edge = xs[j] + rs[j]
        if gap_lo - limit <= edge <= gap_lo:
            left.setdefault(edge, []).append(j)
        edge = xs[j] - rs[j]
        if gap_hi <= edge <= gap_hi + limit:
            right.setdefault(edge, []).append(j)

    def trim(groups: dict[int, list[int]]) -> dict[int, tuple[int, ...]]:
        kept = {}
        for p, members in groups.items():
            members.sort(key=lambda j: (-rs[j], j))
            kept[p] = tuple(members[: limit + 1])
        return kept

    return trim(left), trim(right)


def _transport_bound(
    centers: Sequence[int], radii: Sequence[int], holes: Iterable[tuple[int, int]], spare: int
) -> int:
    """⌈∫ (|G(t)| - spare)₊ dt / 2r⌉ over the line, in ints: ``exact.brute_force``'s transport bound.

    G(t) is the length of the spans [x - r, x + r] left of t (overlaps
    counted once per span, nothing clipped) less that of ``holes``, and r
    the largest radius; no spans give 0.  ``brute_force``'s docstring has
    the proof.  G is piecewise linear with breakpoints at the ends, which
    the sweep reads as 2t + 1 where G's slope rises and 2t where it falls.
    The sweep itself is ``_transport_sweep``.
    """
    steps = []
    r_max = 0
    for x, r in zip(centers, radii):
        steps += (2 * (x - r) + 1, 2 * (x + r))
        if r > r_max:
            r_max = r
    for lo, hi in holes:
        steps += (2 * lo, 2 * hi + 1)
    steps.sort()
    return -(-_transport_sweep(steps, spare) // (4 * r_max)) if r_max else 0


def _transport_sweep(steps: Iterable[int], spare: int, cap: Optional[int] = None) -> int:
    """Twice ∫ (|G(t)| - spare)₊ dt over the sorted ``steps``: ``brute_force``'s transport sweep.

    G(t) is the length of the home spans [x - r, x + r] left of t (overlaps
    counted once per span, nothing clipped) less that of the holes.  G is
    piecewise linear with breakpoints at the ends, encoded as 2t + 1 where
    G's slope rises (a home's lo, a hole's hi) and 2t where it falls (a
    home's hi, a hole's lo).  On a piece of length l from g0 to g1,
    |G| - spare is linear wherever it is positive: with u = G - spare (and
    likewise -G - spare), a piece wholly above the level adds l·(u0 + u1)
    to twice the integral, and one that crosses it adds its triangle,
    p²·l / |g1 - g0| for its peak p, rounded down, which keeps the bound
    admissible.  Every piece adds at least 0, so the running total only
    rises: given a ``cap``, the sweep returns the partial total as soon as
    it passes the cap, and the result exceeds the cap iff the whole total
    does.  Steps at one t may come in any order, as G moves only between
    distinct t.
    """
    total = g = slope = prev = 0
    for step in steps:
        t = step >> 1
        if t != prev:
            g1 = g + slope * (t - prev)
            top, low = (g, g1) if g > g1 else (g1, g)
            if top > spare or -low > spare:
                for p, q in ((top - spare, low - spare), (-low - spare, -top - spare)):
                    if q >= 0:
                        total += (t - prev) * (p + q)
                    elif p > 0:  # so top > low: the piece crosses the level
                        total += p * p * (t - prev) // (top - low)
                if cap is not None and total > cap:
                    return total
            g, prev = g1, t
        slope += 1 if step & 1 else -1
    return total
