"""Ground-truth solvers: exhaustive oracles and budget-parameterized branching.

Every solver takes any rational instance and searches it on its integer
grid 1/d, read from ``Instance._grid``: scaled by d, the data is integral,
and integer data admits integer-position optima, so searching the grid is
exhaustive.  Budgets are given in input units and become floor(budget * d)
grid units; positions and costs come back as Fractions of d through
``model._from_grid``.  Internals run on plain ints for speed.  Like the
other solver modules, this one imports from ``model`` alone: the greedy
tiling that gives ``brute_force`` its first incumbent and
``brute_force_order_preserving`` its default budget lives there too.

The searches are depth-first with admissible pruning only (budget, current
incumbent, permanently wasted length, uncovered measure, reachability of the
leftmost hole, and in ``brute_force`` a transport bound), so results are
exact.  The transport bound's test costs O(n + holes) a node, and
O(holes + slope changes) on a tiling: one sorted list of the unplaced
sensors' home breakpoints, net of those that cancel where one home ends
and the next begins, follows the search path, the sweep ends a piece of
G only where its slope changes, and it stops once the bound passes the
limit.
``fpt_solve`` takes its holes from the one coverage sweep,
``model._gaps``, as ``verify_coverage`` does.  A
``brute_force`` node instead carries the holes its placed sensors leave, cut
by each child's span in O(holes) with ``_cut``, which also builds, once per
call, the holes the unplaced sensors' homes leave.  Each node lists what its
holes and those leave open, and takes each child's uncovered measure and
first open point from that list less the child's span.  With them it runs
the child's entry tests (bound, reachability) itself, so a child they kill
is never made a node; dominated states are skipped too, a child being
dominated when its holes and uncrossing floors were entered before at no
higher spend (its docstring has the proofs).  Its reach tests read only the
live radius classes, ``alive[i]``: those with a sensor at index i or later,
as a class with none left can cover nothing.  The three branch-and-bound
searches, ``brute_force``, ``brute_force_order_preserving`` and
``fpt_solve`` (which, given a mover cap, also decides the k-mover variant),
run on one driver, ``_Search.run``, which keeps its own stack: depth costs
nothing.  ``brute_force`` may run it twice on one ``_Search``: a probe at
its root's transport bound, then, if that finds nothing, the full search.
Every node of either pass counts against the one node cap, and so does
every child ``brute_force`` cuts on its entry test, so a search aborts with
``ResourceLimitError`` rather than ever reporting "no solution".  The
placements a node skips uncounted lie in its window of at most 2(B + 1) grid
positions for a budget of B grid units.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .model import (
    DEFAULT_NODE_CAP,
    Instance,
    ResourceLimitError,
    Scalar,
    ScalarLike,
    Solution,
    _clipped_spans,
    _from_grid,
    _gaps,
    _greedy_tiling,
    # Not called here: perfbench's tracer self-test and test_one_greedy_cover_object read exact.greedy_cover.
    greedy_cover,
    grid_units,
    is_feasible,
)

# Most entries ``brute_force``'s dominance memo records per call.
_MEMO_CAP = 1 << 16


class _Search:
    """Incumbent bookkeeping and the one depth-first driver on the grid 1/d.

    A search is a generator function ``visit(*args)`` for one node: it
    yields each child's argument tuple in order and is resumed once that
    child's subtree is done, so after each ``yield`` it re-reads ``limit``
    (the largest total cost still worth exploring: the budget, or below the
    incumbent) and undoes whatever it changed in place for that child.
    Open nodes live on an explicit stack, so depth costs no interpreter
    stack.  Every node, the root included, counts against the node cap,
    and so does every child a parent cuts on its entry test (``cut``): it
    stands for the node it would have been.  ``check_cap`` is the one test
    of the cap.  ``nodes`` and ``pruned`` (early returns and skipped
    children, by rule, as the search counts them) stay readable after
    ``run``.
    """

    def __init__(self, node_cap: int, budget: int, d: int) -> None:
        if node_cap < 0:
            raise ValueError(f"node cap must be >= 0, got {node_cap}")
        self.node_cap = node_cap
        self.d = d
        self.nodes = 0
        self.cuts = 0
        self.pruned: Counter[str] = Counter()
        self.best_cost: Optional[int] = None
        self.best: Optional[list[int]] = None
        self.limit = budget

    def offer(self, cost_value: int, positions: list[int]) -> None:
        if cost_value <= self.limit:
            self.best_cost = cost_value
            self.best = list(positions)
            self.limit = cost_value - 1

    def cut(self, rule: str) -> None:
        """Count a child cut on its entry test under ``rule``, and against the node cap."""
        self.pruned[rule] += 1
        self.cuts += 1
        self.check_cap(0)

    def check_cap(self, ahead: int) -> None:
        """Raise ``ResourceLimitError`` if nodes plus cuts plus ``ahead`` nodes still to come pass the cap."""
        if self.nodes + self.cuts + ahead > self.node_cap:
            raise ResourceLimitError(f"search explored more than {self.node_cap} states")

    def run(self, visit: Callable[..., Iterator[tuple]], *root: object) -> Optional[tuple[Solution, Scalar]]:
        """Search depth-first from ``visit(*root)``; the best cover found, in input units."""
        stack = [iter((root,))]
        while stack:
            args = next(stack[-1], None)
            if args is None:
                stack.pop()
                continue
            self.nodes += 1
            self.check_cap(0)
            stack.append(visit(*args))
        return self.result()

    def result(self) -> Optional[tuple[Solution, Scalar]]:
        """The best cover offered so far, in input units."""
        if self.best_cost is None:
            return None
        assert self.best is not None
        return tuple([_from_grid(v, self.d) for v in self.best]), _from_grid(self.best_cost, self.d)


def _anchored_cover(length: int, xs: Sequence[int], rs: Sequence[int]) -> Optional[list[int]]:
    """Lazy right-to-left tiling: cover [0, L] anchored at the right end.

    Walking sensors in reverse order, each either already reaches the
    uncovered frontier from home or is pulled right to touch it.  A good
    incumbent for instances whose cheap solutions nudge sensors rightward.
    """
    y = list(xs)
    frontier = length
    for i in range(len(xs) - 1, -1, -1):
        if frontier <= 0:
            break
        if xs[i] - rs[i] > frontier:
            continue
        y[i] = max(xs[i], frontier - rs[i])
        frontier = y[i] - rs[i]
    if frontier > 0:
        return None
    return y


def _open_stretches(holes: list[tuple[int, int]], other: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The stretches open both in ``holes`` and in ``other``, each sorted and disjoint."""
    out = []
    for a, b in holes:
        j = bisect_right(other, a, key=itemgetter(1))
        for k in range(j, bisect_left(other, b, j, key=itemgetter(0))):
            lo, hi = other[k]
            out.append((a if a > lo else lo, b if b < hi else hi))
    return out


def _cut(holes: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    """The holes left once the span [lo, hi] (lo < hi) is covered too."""
    out = []
    for a, b in holes:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if b > hi:
            out.append((hi, b))
    return out


def _home_holes(length: int, xs: Sequence[int], rs: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Entry i: the holes the homes of sensors i.. leave in [0, L], cut span by span from the right.

    ``_cut`` takes each hole less the span, so a home reaching past 0 or L,
    or missing the barrier, needs no clipping; radii are positive, as its
    lo < hi needs.
    """
    holes = _gaps([], length)
    out = [holes]
    for i in range(len(xs) - 1, -1, -1):
        holes = _cut(holes, xs[i] - rs[i], xs[i] + rs[i])
        out.append(holes)
    return out[::-1]


def _transport_sweep(steps: Iterable[int], spare: int, cap: Optional[int] = None) -> int:
    """Twice ∫ (|G(t)| - spare)₊ dt over the sorted ``steps``: ``brute_force``'s transport sweep.

    G(t) is the length of the home spans [x - r, x + r] left of t (overlaps
    counted once per span, nothing clipped) less that of the holes.  G is
    piecewise linear with breakpoints at the ends, encoded as 2t + 1 where
    G's slope rises (a home's lo, a hole's hi) and 2t where it falls (a
    home's hi, a hole's lo).  On a piece of length l and slope s from g0 to
    g1, |G| - spare is linear wherever it is positive: with u = G - spare
    (and likewise -G - spare), a piece wholly above the level adds
    l·(u0 + u1) to twice the integral, and one that crosses it adds its
    triangle, p²·l / |g1 - g0| = p² / |s| for its peak p, rounded down,
    which keeps the bound admissible.  Every piece adds at least 0, so the
    running total only rises: given a ``cap``, the sweep returns the
    partial total as soon as it passes the cap, and the result exceeds the
    cap iff the whole total does.  Steps at one t may come in any order, as
    G moves only between distinct t.

    A piece ends only where the slope changes, not at every distinct t:
    abutting homes give a t where a fall and a rise cancel.  Two adjacent
    pieces [a, b] and [b, c] of one slope s add what [a, c] adds.  Take
    u = G - spare, linear on [a, c] (the other side is alike).  If u >= 0
    on both, the trapezoids add exactly, and if u <= 0 on both, both add 0.
    Otherwise u_a < 0 < u_c, say, for s > 0 (s < 0 is the mirror image),
    and [a, c] crosses the level with peak u_c, adding floor(u_c² / s).
    If u_b <= 0, [a, b] adds 0 and [b, c] adds the same: it crosses with
    the same peak and slope, or, at u_b = 0, it is the trapezoid
    (c - b)·u_c = u_c² / s.  If u_b > 0, [a, b] crosses with peak u_b and
    [b, c] is a trapezoid, and u_c² - u_b² = (u_c - u_b)(u_c + u_b)
    = s·(c - b)·(u_b + u_c), so floor(u_c² / s) = floor(u_b² / s)
    + (c - b)·(u_b + u_c): the two pieces' terms.  So the total is the one
    a piece per distinct t gives, and as running totals still only rise,
    ``> cap`` decides as before.  The last piece is closed after the loop,
    whatever its slope.
    """
    total = g = slope = s = a = prev = 0
    for step in steps:
        t = step >> 1
        if t != prev:
            if slope != s:
                # Close the piece [a, prev] of slope s; slope is G's slope after prev.
                g1 = g + s * (prev - a)
                top, low = (g, g1) if g > g1 else (g1, g)
                if top > spare:
                    q = low - spare
                    total += (prev - a) * (top - spare + q) if q >= 0 else (top - spare) ** 2 // abs(s)
                if -low > spare:
                    q = -top - spare
                    total += (prev - a) * (q - low - spare) if q >= 0 else (low + spare) ** 2 // abs(s)
                if cap is not None and total > cap:
                    return total
                g, a, s = g1, prev, slope
            prev = t
        slope += 1 if step & 1 else -1
    g1 = g + s * (prev - a)
    top, low = (g, g1) if g > g1 else (g1, g)
    if top > spare:
        q = low - spare
        total += (prev - a) * (top - spare + q) if q >= 0 else (top - spare) ** 2 // abs(s)
    if -low > spare:
        q = -top - spare
        total += (prev - a) * (q - low - spare) if q >= 0 else (low + spare) ** 2 // abs(s)
    return total


def _take_step(steps: list[int], step: int) -> None:
    """Take ``step`` out of the net list ``steps``; ``_take_step(steps, step ^ 1)`` puts it back.

    ``steps`` is sorted and holds, at each t, only rises (2t + 1) or only
    falls (2t), as many as the rises less the falls there: a net count, so
    a rise and a fall at one t cancel.  If the list holds ``step``, it is
    deleted.  Otherwise the list holds none of its kind at t, so the
    opposite step goes in at ``step``'s bisect position, which keeps the
    list sorted: for a rise 2t + 1 every element before it is at most 2t and
    none after it is 2t + 1; for a fall 2t none is 2t, so every element
    from it on is at least 2t + 1.  One bisect either way, and taking steps
    out and putting them back in any order leaves the net list of what is
    still in.
    """
    k = bisect_left(steps, step)
    if k < len(steps) and steps[k] == step:
        del steps[k]
    else:
        steps.insert(k, step ^ 1)


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
    The budget defaults to the greedy tiling cost, which is always enough;
    that tiling, on the grid (``model._greedy_tiling``), is the first
    incumbent.

    Each child's entry test runs in its parent, so only a child that passes
    it becomes a node.  Let ``ahead`` be the stretches of the placed holes
    that the homes of sensors i + 1.. leave open, and ``base`` their
    measure.  A child placing span [lo, hi] leaves open ``ahead`` less the
    span, so its uncovered measure is ``base`` less their overlap and its
    first open point is the first point of ``ahead`` outside the span: what
    its entry read from its holes and ``home_holes[i + 1]``.  With class r's
    floor at y, ``min_reach(i + 1, first)`` is the child's own call, and
    ``search.limit`` is its entry's.  A child is cut and counted in
    ``pruned`` as ``"bound-cut"`` when ``spent + d`` plus its uncovered
    measure exceeds the limit; then, after the memo, as ``"dead-hole-cut"``
    when that reach is None (as for every leaf with holes) and as
    ``"reach-cut"`` when ``spent + d`` plus it exceeds the limit.  Each
    would return at entry, offering nothing, so no incumbent moves.  The
    last two count against the node cap (``_Search.cut``) as the nodes they
    would have been: nodes plus those cuts is the count from when they were
    nodes.  The root is tested so too, before it becomes a node, and only
    as ``"reach-cut"``: its reach is never None, as no floor is set yet and
    every class has a member, so each class yields a candidate (see below).
    A node returns at entry on its placed hole p (its holes' first point)
    unless p is its first open point (with no placed holes both are -1):
    as ``"dead-placed-hole"`` when ``min_reach(i, p)`` is None (the floors
    can keep every sensor left to its right), as ``"bound"`` when ``spent``
    plus that reach exceeds the limit.

    ``min_reach(i, p)`` reads only the classes in ``alive[i]``, those with a
    member at index i or later; a class with none yields no candidate.
    Every p it receives starts a stretch [p, p+1] open in the holes it was
    taken from.  A floor y is where a placed sensor of its class r sits,
    and that sensor's span, clipped to [0, L], was cut from those holes; if
    p - r < y <= p + r, that clipped span would hold [p, p+1].  So each
    floor lies at or below p - r or above p + r: it never narrows the
    window [p - r, p + r], it only empties it.  A class with no sensor
    placed has the floor ``low``, one below the smallest min(-r, x), which
    lies below every window and every p - r (p >= 0), so no floor is None.

    Some children are skipped uncounted.  With r the radius of sensor i,
    placing it at y > p + r leaves [p, p+1] open, so p stays the child's
    placed hole, and it lifts class r's floor to y, beyond every center
    that covers p.  The child's own test of p is then
    ``min_reach(i + 1, p)`` with class r excluded, and it is None iff every
    other class c in ``alive[i + 1]`` has its floor above p + c: then no
    such y is tried.  A class whose floor is past p + c has no center
    covering p, so it yields nothing.  A class c whose floor is at most
    p + c always yields a candidate: its range [p - c, p + c] is not empty,
    and the bisect of p - c among the homes of its members from i + 1 on
    (at least one) lands on one of them, a home at or right of p - c, or
    past the first, a home left of p - c.
    So the lookahead needs only the floors.  The waste test (``"waste"``)
    admits a span only when its overlap with the placed holes is at least
    ``need = waste + 2r - slack``.  That overlap is at most the span's
    overlap with the holes' hull [a, b], which is at most y + r - a and
    b - (y - r); so with need > 0, every y below a - r + need or above
    b + r - need fails the test, and the d loop skips those y without
    testing them.  The hull exists then: waste is the placed
    lengths less the measure they cover, so need is the placed holes'
    measure less the lengths of sensors i + 1.., and is at most the former.
    The d loop starts at the window, so it tests the same y in the same order.

    Dominated children are skipped.  The subtree below a node depends only
    on its state (i, holes, floors), on ``spent`` and on ``search.limit``: its
    waste is sum(2 r_j, j < i) - (L - |holes|), by induction from the root,
    and ``positions`` only feeds ``offer``.  A child whose state was entered
    before at a spend s1 <= s2, its spend now, is skipped.  Indices rise
    along a path, so the first visit is no ancestor, and its subtree is
    done.  Take any completion C of
    cost c.  Either that subtree offered C, so the incumbent is at most
    s1 + c <= s2 + c and ``offer`` rejects it now; or a rule cut C.  A rule
    that reads the state alone (holes, waste, floors, lookahead) cuts it
    again, and a bound rule cut it at a bound no lower than today's, as
    the limit only falls.  So no incumbent, solution or cost changes.
    Each skip is counted as ``dominated``.  A child the entry test cuts
    after its lookup is still recorded: its subtree is empty and done.  The
    memo maps each state to the least spend it was entered with.  It is
    consulted only when the child's waste is positive: a state with none
    has disjoint on-barrier spans and recurs only when unequal radii are
    permuted over a tiled stretch, so an instance with no slack pays
    nothing for it.  It stops recording at ``_MEMO_CAP`` entries but keeps
    answering, which is sound (a missing entry only loses a skip), so its
    size is bounded whatever the node cap.

    The transport bound charges for moving length onto the holes.  At a
    node with index i, holes H and waste w, sensors i.. may still waste
    R = slack - w.  Let mu be their home spans (unclipped, overlaps added)
    and nu the holes, G(t) = mu(-inf, t] - nu(-inf, t], and r_max the
    largest radius among them; then T = ceil(int (|G| - R)+ dt / 2 r_max)
    (the closure ``transport``) is at most the cost C of any completion.
    Assign each hole point to one sensor covering it: sensor j carries at
    most 2 r_j of hole length over |y_j - x_j|, so some sigma <= mu of
    mass |H|, translated piece by piece, lands on nu at cost at most
    2 r_max C.  On a line that transport costs at least
    int |F_sigma - F_nu|, and as mu - sigma has mass R (the lengths of
    sensors i.. are |H| + R), 0 <= F_mu - F_sigma <= R, so
    |F_sigma - F_nu| >= (|G| - R)+.  C is a whole number of grid units,
    hence the ceiling.  A node returns at entry, as ``"transport"``, when
    spent + T exceeds the limit.  T reads only i, the holes and the waste,
    which the holes fix, so the memo's proof covers this rule as it does
    the other bound rules.  The root's T0 bounds every cover, so when
    T0 < limit a probe runs first with the limit set to T0: a cover it
    finds costs T0 and is optimal.  If it finds none it offered nothing,
    so the incumbent is unchanged; the limit is restored and the full
    search runs.  The memo is cleared in between, as its bound cuts were
    made under the probe's lower limit, and its proof needs a limit that
    only falls.

    The root's own test reads T0, as its holes are the whole barrier and
    its waste 0.  Below it the test costs O(|steps| + |H|) a node, where
    |steps| <= 2(n - i).  The breakpoints of all the homes are put once
    per call, at the gate, into one sorted list (``home_steps``) that
    follows the path, net of the rises and falls that cancel at one t
    (``_take_step``): where one home ends and the next begins, as on a
    tiling, it holds no step, so on fig5 it holds at most four steps where
    the homes hold 2(n - i).  A node past its own tests takes its
    sensor's two out (one bisect each) before its children and puts them
    back after them, as it sets and restores ``positions`` and
    ``floors``.  So a node at depth i sees the net steps of sensors i..,
    and a call holds O(n) ints for them however deep it goes.  The sweep
    of the net list equals that of the full one.  A cancelled t is never
    the first or the last t: the home that ends there started earlier,
    and the one that starts there ends later.  At an interior t where the
    slope does not change no piece of G closes (``_transport_sweep``), so
    dropping its steps changes neither the total nor any running total.
    Each pass of ``_Search.run`` ends with its stack empty, every node
    done, so the full search starts from the whole list again; a
    ``ResourceLimitError`` abandons the call.  T0 and every node's bound
    come from one closure, ``transport``, which copies the list, appends
    the holes' breakpoints in hole order, sorts the copy in place (the
    sort merges the two runs in one pass) and sweeps it with
    ``_transport_sweep``.  A node's sweep stops once its running total
    passes c = k·4 r_max, with k = limit - spent.  That stop cuts exactly
    where spent + T > limit does.  Let S be the whole total (twice
    the integral, triangles rounded down), so T = ceil(S / b) with
    b = 4 r_max >= 4.  For every integer k, ceil(S / b) > k iff S / b > k
    (ceil(S / b) < S / b + 1), iff S > c; for k < 0 both hold, as S >= 0.
    Every piece adds at least 0 to the total, so a partial total passes c
    iff S does.  Where homes do not abut the sweep costs O(n) a node all
    the same, so the rule and the probe run only in a call whose T0
    exceeds the root's uncovered measure (the bound the search has
    anyway); otherwise the search is as
    without them, node for node.  On random data the slack is large and T0
    is 0 or 1, so this gate is mostly shut.  On fig5 T0 is the optimum and
    the probe proves it; on fig6 it is about half of it, and the rule does
    the work.
    """
    d, length, xs, rs = instance._grid
    limit = None if budget is None else grid_units(budget, d)
    n = len(xs)
    if not is_feasible(instance):
        return None

    # ``home_holes[i]``: the holes the homes of sensors i.. leave.
    home_holes = _home_holes(length, xs, rs)
    slack = sum(2 * r for r in rs) - length
    # Equal intervals may be assumed uncrossed (swapping their targets never
    # raises the cost): ``floors[r]`` is where the latest sensor of radius r
    # went, and later ones stay at or right of it.  A class's indices and
    # homes both ascend (``Instance`` sorts by (x, r)), as min_reach needs.
    members = {r: [j for j in range(n) if rs[j] == r] for r in dict.fromkeys(rs)}
    # ``alive[i]``: each class with a member at index i or later, as r, the
    # list position of its first such member, and its homes.
    homes = {r: [xs[j] for j in js] for r, js in members.items()}
    alive = [[(r, bisect_left(js, i), homes[r]) for r, js in members.items() if js[-1] >= i]
             for i in range(n + 1)]
    # A class with no sensor placed has the floor ``low``, below every window and every p - r.
    low = min((min(-r, x) for x, r in zip(xs, rs)), default=0) - 1
    floors = dict.fromkeys(members, low)

    tiled, greedy_cost = _greedy_tiling(length, xs, rs)
    search = _Search(node_cap, greedy_cost if limit is None else limit, d)
    pruned = search.pruned
    search.offer(greedy_cost, tiled + list(xs[len(tiled):]))
    anchored = _anchored_cover(length, xs, rs)
    if anchored is not None:
        search.offer(sum(abs(y - x) for y, x in zip(anchored, xs)), anchored)

    positions = list(xs)
    # Child state (i, holes, *floors) -> the least spend it was entered with.
    seen: dict[tuple, int] = {}

    def min_reach(i: int, p: int) -> Optional[int]:
        """Cheapest movement for any sensor i.. to cover [p, p+1].

        Radius r covers it from y in [p - r, p + r] at or above the class
        floor, which is at most p - r or past p + r (``brute_force``): it
        keeps the whole window or empties it.  The class's members still to
        place are a suffix, and the two of their homes around the window's
        low end are the nearest.  None means no remaining sensor can ever
        cover the point: a dead branch.
        """
        best: Optional[int] = None
        for r, start, homes in alive[i]:
            lo_y, hi_y = p - r, p + r
            if floors[r] > hi_y:
                continue
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

    # ``r_max[i]``: the largest radius of sensors i..; ``home_steps``: the
    # unplaced sensors' home breakpoints, as ``_transport_sweep`` encodes them,
    # net of the rises and falls that cancel at one t (``_take_step``).  It
    # starts empty and every home's two steps are put back.  A node takes out
    # its own sensor's two for its children.
    r_max = list(accumulate(reversed(rs), max))[::-1]
    home_steps: list[int] = []
    for x, r in zip(xs, rs):
        _take_step(home_steps, 2 * (x - r))
        _take_step(home_steps, 2 * (x + r) + 1)

    def transport(holes: list[tuple[int, int]], spare: int, cap: Optional[int] = None) -> int:
        """The transport sweep of the unplaced sensors' homes against ``holes``."""
        # Two runs in one list: ``list.sort`` merges them in one pass.
        steps = home_steps.copy()
        for lo, hi in holes:
            steps.append(2 * lo)
            steps.append(2 * hi + 1)
        steps.sort()
        return _transport_sweep(steps, spare, cap)

    def visit(i: int, spent: int, holes: list[tuple[int, int]], waste: int, first: int) -> Iterator[tuple]:
        # ``holes``: the placed sensors' holes, sorted and disjoint; ``first``:
        # the first point they and the homes of sensors i.. leave open (-1: none).
        if i == n:
            search.offer(spent, positions)  # a leaf with holes fails its entry test
            return
        bnd = search.limit
        placed_hole = holes[0][0] if holes else -1
        if placed_hole != first:
            reach = min_reach(i, placed_hole)
            if reach is None:
                pruned["dead-placed-hole"] += 1
                return
            if spent + reach > bnd:
                pruned["bound"] += 1
                return
        x, r = xs[i], rs[i]
        if sweep:
            cap = (bnd - spent) * 4 * r_max[i]
            if t0 > bnd if i == 0 else transport(holes, slack - waste, cap) > cap:
                pruned["transport"] += 1
                return
            # Sensor i's two steps are out while its children run.
            _take_step(home_steps, 2 * (x - r) + 1)
            _take_step(home_steps, 2 * (x + r))
        two_r = 2 * r
        floor = floors[r]
        lo_y = max(min(-r, x), floor)
        hi_y = max(length + r, x)
        need = waste + two_r - slack
        if need > 0:
            # Only a span overlapping the holes' hull by need can pass the waste test.
            lo_y = max(lo_y, placed_hole - r + need)
            hi_y = min(hi_y, holes[-1][1] + r - need)
        if placed_hole >= 0:
            # The children right of placed_hole + r, checked at once (see above).
            for c, _, _ in alive[i + 1]:
                if c != r and floors[c] <= placed_hole + c:
                    break
            else:
                hi_y = min(hi_y, placed_hole + r)
        # What the suffix homes from i + 1 leave of the holes: a child's open
        # stretches are ``ahead`` less its span.
        ahead = _open_stretches(holes, home_holes[i + 1])
        base = 0
        for lo, hi in ahead:
            base += hi - lo
        d = max(0, lo_y - x, x - hi_y)
        while spent + d <= bnd and (x + d <= hi_y or x - d >= lo_y):
            for y in ((x,) if d == 0 else (x + d, x - d)):
                if y < lo_y or y > hi_y:
                    continue
                lo = y - r if y > r else 0
                hi = y + r if y + r < length else length
                # Waste (overlap + off-barrier spill: the span's length less
                # its overlap with the placed holes) only ever grows; more
                # than the global slack means no completion can cover.
                child_waste = waste + two_r
                for h_lo, h_hi in holes:
                    if h_hi <= lo:
                        continue
                    if h_lo >= hi:
                        break
                    child_waste -= (hi if hi < h_hi else h_hi) - (lo if lo > h_lo else h_lo)
                if child_waste > slack:
                    pruned["waste"] += 1
                    continue
                uncovered = base
                for h_lo, h_hi in ahead:
                    if h_hi <= lo:
                        continue
                    if h_lo >= hi:
                        break
                    uncovered -= (hi if hi < h_hi else h_hi) - (lo if lo > h_lo else h_lo)
                if spent + d + uncovered > bnd:
                    pruned["bound-cut"] += 1
                    continue
                positions[i] = floors[r] = y
                child_holes = _cut(holes, lo, hi) if lo < hi else holes
                if child_waste > 0:
                    key = (i, tuple(child_holes), *floors.values())
                    entered = seen.get(key)
                    if entered is not None and entered <= spent + d:
                        pruned["dominated"] += 1
                        positions[i], floors[r] = x, floor
                        continue
                    if entered is not None or len(seen) < _MEMO_CAP:
                        seen[key] = spent + d
                child_first = -1
                for h_lo, h_hi in ahead:
                    if h_lo < lo or h_lo >= hi:
                        child_first = h_lo
                        break
                    if h_hi > hi:
                        child_first = hi
                        break
                # The rest of the child's entry test (uncovered passed above).
                reach = 0 if child_first < 0 else min_reach(i + 1, child_first)
                if reach is None or spent + d + reach > bnd:
                    search.cut("dead-hole-cut" if reach is None else "reach-cut")
                else:
                    yield i + 1, spent + d, child_holes, child_waste, child_first
                    bnd = search.limit
                positions[i], floors[r] = x, floor
            d += 1
        if sweep:
            _take_step(home_steps, 2 * (x - r))
            _take_step(home_steps, 2 * (x + r) + 1)

    # The root's entry test, as its parent would run it: its ``ahead`` is
    # what all the homes leave open.
    ahead = home_holes[0]
    first = ahead[0][0] if ahead else -1
    reach = 0 if first < 0 else min_reach(0, first)
    uncovered = sum(hi - lo for lo, hi in ahead)
    if max(reach, uncovered) > search.limit:
        search.cut("reach-cut")
        return search.result()
    root = (0, 0, home_holes[n], 0, first)  # nothing placed: the whole barrier
    t0 = -(-transport(home_holes[n], slack) // (4 * r_max[0])) if n else 0
    sweep = t0 > uncovered
    if sweep and t0 < search.limit:
        limit, search.limit = search.limit, t0
        search.run(visit, *root)
        if search.best_cost == t0:
            return search.result()
        search.limit = limit
        seen.clear()
    return search.run(visit, *root)


def brute_force_order_preserving(
    instance: Instance,
    budget: Optional[ScalarLike] = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[tuple[Solution, Scalar]]:
    """Cheapest order-preserving cover by enumerating increasing active chains.

    Independent check for the DP: walks sensors in index order, each either
    staying home (inactive) or joining the chain at an integer position that
    extends coverage without leaving a gap.  The budget defaults to the
    greedy tiling's cost on the grid (``model._greedy_tiling``), which is
    always enough.  A given budget is converted before the feasibility
    test, as in the other searches, so a negative one raises ValueError
    even where no cover exists.
    """
    d, length, xs, rs = instance._grid
    n = len(xs)
    limit = _greedy_tiling(length, xs, rs)[1] if budget is None else grid_units(budget, d)
    if not is_feasible(instance):
        return None

    suffix_len = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_len[i] = suffix_len[i + 1] + 2 * rs[i]

    search = _Search(node_cap, limit, d)
    pruned = search.pruned
    positions = list(xs)

    def visit(i: int, spent: int, reach: int, last_y: Optional[int]) -> Iterator[tuple]:
        if reach >= length:
            search.offer(spent, positions)
            return
        if reach + suffix_len[i] < length:  # also every i == n: suffix_len[n] is 0
            pruned["short"] += 1
            return
        yield i + 1, spent, reach, last_y  # sensor i stays home, inactive
        lo = reach - rs[i] + 1
        if last_y is not None:
            lo = max(lo, last_y + 1)
        for y in range(lo, reach + rs[i] + 1):
            move = abs(y - xs[i])
            if spent + move > search.limit:
                pruned["bound"] += 1
                continue
            positions[i] = y
            yield i + 1, spent + move, max(reach, y + rs[i]), y
            positions[i] = xs[i]

    return search.run(visit, 0, 0, 0, None)


def gap_candidates(
    xs: Sequence[int], rs: Sequence[int], gap_lo: int, gap_hi: int, limit: int, banned: Container[int]
) -> tuple[int, ...]:
    """Sensors worth moving into the gap (gap_lo, gap_hi): ``fpt_solve``'s branch list, in index order.

    All on the instance's grid 1/d (``Instance._grid``), with ``limit`` the
    movement still affordable.  A sensor is grouped by its facing edge p:
    its home right edge when p is in [gap_lo - limit, gap_lo], else its home
    left edge when p is in [gap_hi, gap_hi + limit].  One dict holds both sides,
    as left keys are <= gap_lo < gap_hi <= right keys, and no sensor has
    both edges in range: a right edge at most gap_lo puts the left edge
    below gap_hi.  Sensors in ``banned`` are left out.  Each point keeps
    only the limit+1 longest sensors (ties to the lower index): with at
    most ``limit`` movers, a discarded shorter sensor can be replaced at
    equal cost by a kept unmoved one, whose own home stays covered by a
    second kept one.  The exchange moves the kept sensor in place of the
    discarded one, which then stays home, so it keeps the number of movers
    too: the trim is just as valid under ``fpt_solve``'s mover cap.
    """
    groups: dict[int, list[int]] = {}
    for j in range(len(xs)):
        if j in banned:
            continue
        right, left = xs[j] + rs[j], xs[j] - rs[j]
        if gap_lo - limit <= right <= gap_lo:
            groups.setdefault(right, []).append(j)
        elif gap_hi <= left <= gap_hi + limit:
            groups.setdefault(left, []).append(j)
    kept: list[int] = []
    for members in groups.values():
        kept += sorted(members, key=lambda j: (-rs[j], j))[: limit + 1]
    return tuple(sorted(kept))


def fpt_solve(
    instance: Instance,
    budget: ScalarLike,
    node_cap: int = DEFAULT_NODE_CAP,
    movers: Optional[int] = None,
) -> Optional[tuple[Solution, Scalar]]:
    """Budget-parameterized branching: who closes the leftmost gap, and where.

    A branch dies once its gaps total more than the remaining budget.
    Otherwise some still-unmoved sensor must cover the first unit of the
    leftmost gap (endpoints are integral, so an interval meeting the gap's
    interior covers that whole unit); we branch over the sensors
    ``gap_candidates`` lists for that gap, and over every grid center
    covering the unit within the remaining budget.  Every move costs at
    least one grid unit, so the depth is bounded by the budget.  No center
    tried is the sensor's home: an unmoved sensor's home span never meets
    the open leftmost gap, yet every center tried covers [gap_lo,
    gap_lo + 1], which lies inside that gap.

    ``movers=k`` decides the k-mover variant: covers moving at most k
    sensors.  A node with holes and k sensors moved returns unbranched, and
    the search stays complete.  Take a cover T with at most k movers that
    agrees with the node on every sensor in ``moved`` (each other sensor is
    still home).  T covers the first unit of the leftmost gap with some
    sensor j; j is not in ``moved`` (those sit where T puts them, and leave
    the unit open) and not home in T (its home leaves the unit open too).
    So j is a mover of T outside ``moved``, and ``len(moved) < k``.  The
    candidate trim stays valid under the cap: its exchange swaps one mover
    for another, so T keeps its mover count (see gap_candidates).

    A candidate whose centres alone would take the search past the node
    cap raises ``ResourceLimitError`` before its first centre: each centre
    becomes a node and the count never falls, so the cap would fire within
    that step anyway.  The count comes from the window's endpoints, which
    on a fine grid can be too large for ``len(range(...))``.
    """
    if movers is not None and movers < 0:
        raise ValueError(f"mover bound must be >= 0, got {movers}")
    d, length, xs, rs = instance._grid
    limit = grid_units(budget, d)
    if not is_feasible(instance):
        return None

    search = _Search(node_cap, limit, d)
    pruned = search.pruned
    positions = list(xs)
    moved: set[int] = set()

    def visit(spent: int) -> Iterator[tuple]:
        holes = _gaps(sorted(_clipped_spans(rs, positions, length, range(len(xs)))), length)
        if not holes:
            search.offer(spent, positions)
            return
        if movers is not None and len(moved) >= movers:
            pruned["movers"] += 1
            return
        room = search.limit - spent
        if sum(hi - lo for lo, hi in holes) > room:
            pruned["gap-measure"] += 1
            return
        gap_lo, gap_hi = holes[0]
        for j in gap_candidates(xs, rs, gap_lo, gap_hi, room, moved):
            lo, hi = max(gap_lo + 1 - rs[j], xs[j] - room), min(gap_lo + rs[j], xs[j] + room)
            search.check_cap(hi - lo + 1)
            moved.add(j)
            for y in range(lo, hi + 1):
                positions[j] = y
                yield (spent + abs(y - xs[j]),)
            positions[j] = xs[j]
            moved.discard(j)

    return search.run(visit, 0)


def oracle_optimal(
    instance: Instance,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[tuple[Solution, Scalar]]:
    """Unrestricted optimum; None iff infeasible."""
    return brute_force(instance, node_cap=node_cap)
