"""Order-preserving solutions via dynamic programming over movement budgets.

The table entry at (i, b) is the rightmost point of the barrier
coverable by an order-preserving solution that uses only the first ``i``
sensors and moves them a total of at most ``b`` budget units.  With unit
size 1 on integer instances the DP is exact; with unit size q it optimizes
the rounded cost sum(ceil(|y_i - x_i| / q)) instead, which is what the
(1 + eps) approximation runs on.

Each row is filled in O(U) for U budget units, so a table costs O(n*U).
Cell (i, b) reads row i-1 only at budgets <= b, so a table grows without
a refill (``DpTable.grow``): ``dp_optimal`` grows one table through all its
budget doublings, and a call fills O(n*W) cells for its final width W.
``dp_eps`` does the same with the guesses whose unit q is no coarser than
the instance's grid 1/d (the two share ``_grown_cover``): there the exact
table is the narrower one, and its hit is OPT_op.
A one-shot table (``_dp_within``: ``dp_exact`` and each ``dp_eps`` guess
with q > 1/d) is filled row by row and stops at the first row that proves
it cannot cover: its reach at the full budget plus twice the radii of the
sensors still to come falls short of L.
The doublings (``cheapest_first``) start at the largest power of two at
most G, the home solution's total gap (``model._home_gaps``): every cover
costs at least G, so no smaller budget can hit.
The best split of budget b between the first i-1 sensors and sensor i has
two candidate cases: right-bound splits (the sensor moves right as far as
its budget allows, found by one pointer per row) and left-bound splits
(the sensor abuts prior coverage, found by bucketing each budget at which
that placement becomes affordable and keeping a running maximum).  Each
case's value is recomputed only when its pointer moves.  Ties go to
skipping the sensor, then to the smaller split.  The arithmetic is
exact: the instance and the unit are put on one integer grid by
``model.on_grid``, and the fill, the scan for the cheapest covering budget
and the reconstruction all run on Python ints.  A cell's choice is one int,
the k units its sensor moves (-1: skipped), and the reconstruction
recomputes the position from k as the fill did.  Only the answer, the n
positions of the solution, is converted back to Fractions.  The exact
solvers run the DP with unit 1/d on the instance's own grid, so they take
any rational instance and a budget in input units.  A call pays for that
grid once: it is computed on first use and kept on the ``Instance``, and
a table with unit 1/d takes it as it is (``Instance._grid``), with no
lcm.  The feasibility test, the greedy tiling that caps the budget
(``model.greedy_cover``) and the coverage check of the home solution run
on its ints in ``model``, the package's one grid layer, from which this
module imports all it uses; the reconstruction walks the choices once, choosing the active chain and checking its cover as it goes.  A
Fraction is made only where one is returned, without a gcd on the grid 1
(``model._from_grid``), and ``cheapest_first`` hands budgets on the grid 1
over as ints.
``dp_eps`` takes its home gaps from ``model._home_gaps``, as
``cheapest_first`` does, derives its first guess and skip floor from them
and runs its acceptance test in grid units; only each guess's unit q is a
Fraction.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .model import (
    ActiveSet,
    InfeasibleError,
    Instance,
    Number,
    ResourceLimitError,
    Scalar,
    ScalarLike,
    Solution,
    _from_grid,
    _home_gaps,
    _to_grid,
    _Value,
    as_scalar,
    greedy_cover,
    grid_units,
    integral_scale_factor,
    is_feasible,
    minimal_active_set,
    on_grid,
    verify_coverage,
)

#: Largest table ``budget_table`` fills or ``DpTable.grow`` widens, in cells: (n + 1) * (budget_units + 1).
DEFAULT_CELL_CAP = 500_000


class DpTable(_Value):
    """Budget-indexed coverage table plus the choices that produced it, on the grid 1/scale.

    ``rows[i][b]`` is the reach of the first i sensors with b units of
    ``unit``, times ``scale``: an int, clamped at L*scale and nondecreasing
    in both indices.  ``choices[i][b]`` is one int: -1 when sensor i-1 is
    skipped, else the k budget units it moves.  Its grid position is then
    min(xs[i-1] + k*step, rows[i-1][b-k] + rs[i-1]), input position over
    ``scale``; ``length``, ``xs``, ``rs`` and ``step`` (the unit) are the
    instance on the table's grid.  ``fills`` resume the rows' fills.

    Unlike the other records the table is mutable and unhashable; its
    ``==`` and ``repr`` cover every field but ``fills``, and it copies as
    a plain object (a deep copy or pickle fails on the fills).
    """

    _fields = ("unit", "scale", "length", "xs", "rs", "step", "rows", "choices")
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __reduce__ = object.__reduce__
    unit: Scalar
    scale: int
    length: int
    xs: list[int]
    rs: list[int]
    step: int
    rows: list[list[int]]
    choices: list[list[int]]
    fills: list[Iterator[None]]

    def __init__(self, *fields: object, fills: list[Iterator[None]], **named: object) -> None:
        _Value.__init__(self, *fields, **named)
        self.fills = fills

    def grow(self, budget_units: int) -> None:
        """Widen to budgets 0..budget_units; each row resumes its fill, so no column is filled twice.

        The cell cap is checked first.
        """
        self._widen_base(budget_units)
        for fill in self.fills:
            next(fill)

    def _widen_base(self, budget_units: int) -> None:
        """Check the cell cap and widen row 0; resuming ``fills`` in order then widens rows 1..n."""
        if budget_units + 1 < len(self.rows[0]):
            raise ValueError(f"cannot shrink a DP table from budget {len(self.rows[0]) - 1} to {budget_units}")
        cells = len(self.rows) * (budget_units + 1)
        if cells > DEFAULT_CELL_CAP:
            # Past 4,300 digits str() itself raises ValueError, so a huge count is given by its bit length.
            count = cells if cells.bit_length() <= 64 else f"a {cells.bit_length():,}-bit number of"
            raise ResourceLimitError(f"DP table of {count} cells exceeds the cap {DEFAULT_CELL_CAP}")
        self.rows[0][:] = [0] * (budget_units + 1)
        self.choices[0][:] = [-1] * (budget_units + 1)


def budget_table(instance: Instance, budget_units: int, unit: ScalarLike = 1) -> DpTable:
    """Fill the DP table for budgets 0..budget_units in steps of ``unit``.

    Placing sensor i with k units on top of prior coverage t puts it at
    min(x_i + k*unit, t + r_i): as far right as the budget and the no-gap
    constraint (left edge <= t) allow.  That position is reachable iff
    t >= x_i - k*unit - r_i.  Ties prefer skipping, then smaller k, which
    keeps reconstruction free of pointless placements.

    Each row costs O(budget_units) rather than one try per split k <= b.
    With t = prev[b-k], split k is right-bound when x + k*unit <= t + r
    (value x + k*unit + r), left-bound otherwise (value t + 2r), or out of
    reach.  Right-bound splits form a prefix [0, K_b], and K_b never
    decreases in b, so one pointer per row finds it; clamped at L, its
    smallest k is max(0, ceil((L - x - r) / unit)).  The pointer rises at
    most one step per column: if split k + 1 is right-bound at b, then
    x + k*unit < x + (k+1)*unit <= prev[b-k-1] + r, so split k is
    right-bound at b - 1, as the row above is nondecreasing.  Hence
    K_b <= K_{b-1} + 1, and the pointer is at K_{b-1} <= b - 1 when column
    b tests it.  Left-bound j = b - k becomes available at budget
    j + ceil(|prev[j] + r - x| / unit) and stays so; the previous row is
    nondecreasing, so the largest available j gives both the best value
    and the smallest k.  A tie between the two cases
    goes to the right-bound split, whose k is never the larger.  Unclamped,
    the tie says prev[j] + r - x = K*unit for the right-bound split K, so j
    became available at j + K or later and k = b - j >= K.  Clamped at L,
    prev[j] + 2r >= L, so k*unit >= prev[j] + r - x >= L - x - r and k is
    at least the clamped smallest k.  The fill runs on exact ints,
    every coordinate and the unit put on one grid by ``model.on_grid``, and
    the table stays on that grid: nothing is converted back to Fractions
    here, only the answer that ``_dp_within`` reconstructs from it.

    A table of more than ``DEFAULT_CELL_CAP`` cells raises
    ``ResourceLimitError`` before any cell is allocated.
    """
    table = _empty_table(instance, budget_units, unit)
    table.grow(budget_units)
    return table


def _empty_table(instance: Instance, budget_units: int, unit: ScalarLike) -> DpTable:
    """A ``budget_table`` with no column yet: its arguments checked, the instance on the grid, each row's fill made.

    With the unit 1/d the grid is the instance's own, read as it is from
    ``Instance._grid``; any other unit goes through ``model.on_grid``.
    """
    unit = as_scalar(unit)
    if unit.numerator <= 0:
        raise ValueError("budget unit must be positive")
    if budget_units < 0:
        raise ValueError("budget must be >= 0")
    scale, length, xs, rs = instance._grid
    if unit.numerator != 1 or unit.denominator != scale:  # else the unit is the grid's own step 1/d
        scale, length, xs, rs = on_grid(instance, unit)
    step = _to_grid(unit, scale)
    rows: list[list[int]] = [[] for _ in range(instance.n + 1)]
    choices: list[list[int]] = [[] for _ in rows]
    fills = [_fill_row(prev, row, chosen, x, r, step, length)
             for prev, row, chosen, x, r in zip(rows, rows[1:], choices[1:], xs, rs)]
    return DpTable(unit, scale, length, list(xs), list(rs), step, rows, choices, fills=fills)


def _fill_row(
    prev: list[int], row: list[int], chosen: list[int], x: int, r: int, u: int, length: int
) -> Iterator[None]:
    """One ``budget_table`` row on the integer grid, widened to len(prev) at each resume.

    Each resume fills columns len(row) .. len(prev) - 1 in one pass.
    Column b first files its own left-bound j = b in ``pending``, keyed by
    the budget b + ceil(|prev[b] + r - x| / u) at which it becomes
    available, then pops the j filed under b and raises the running left
    maximum to it.  A later j filed under a taken key replaces the earlier,
    smaller one, and a key past the filled width waits in ``pending`` for a
    later resume.  The right pointer, the running left maximum and
    ``pending`` carry over.  Each split's value is recomputed
    only when its pointer moves: ``cut``, the next right split's threshold
    x + (right+1)*u - r, makes the right test one comparison per cell, and
    the pointer stops once its value reaches L, where it stays.  The
    pointer rises at most once per column and is below b when column b
    tests it (``budget_table``), so that test needs no loop and its index
    b - right - 1 is never negative.  The left-bound split wins only when
    strictly larger than both the skip and the right-bound split: on a tie
    with the right its k is no smaller (``budget_table`` again).  Otherwise
    the right-bound split wins when strictly larger than the skip.
    """
    clamp_k = max(0, -((x + r - length) // u))
    xr, rx, r2 = x + r, r - x, 2 * r
    right = left = -1
    cut = x - r
    right_value = right_k = left_value = -1  # below every reach: no split wins before it exists
    pending: dict[int, int] = {}
    append, choose, pop = row.append, chosen.append, pending.pop
    while True:
        for b in range(len(row), len(prev)):
            best = prev[b]
            pending[b - (-abs(best + rx) // u)] = b
            j = pop(b, -1)
            if j > left:
                left = j
                left_value = prev[left] + r2
                if left_value > length:
                    left_value = length
            if cut <= prev[b - right - 1]:
                right += 1
                cut += u
                right_value = xr + right * u
                if right_value >= length:
                    right_value, right_k = length, clamp_k
                    cut = length + 1  # above every reach
                else:
                    right_k = right
            # Ties go to the skip, then to the right-bound split (its k is no larger).
            if left_value > right_value and left_value > best:
                append(left_value)
                choose(b - left)
            elif right_value > best:
                append(right_value)
                choose(right_k)
            else:
                append(best)
                choose(-1)
        yield


def _reconstruct(instance: Instance, table: DpTable, b: int) -> tuple[Solution, ActiveSet]:
    """Walk the choices from (n, b) back to row 0, keeping the active chain and checking its cover on the grid.

    Each placed sensor's position is recomputed from its k as the fill
    placed it, and only that position becomes a Fraction.  The walk meets
    the placed sensors in decreasing index.  One placed at or right of a
    later one is redundant: on a sound table each placed sensor reaches
    further right than all before it, so the later one's interval holds
    its interval.  The active chain is thus the placed sensors left of
    every later one, and its positions increase with its indices: the
    solution is order-preserving by construction.  Consecutive members
    then overlap, so the chain covers [0, L] if its last member reaches L,
    each member reaches the left edge of the next, and the first starts at
    or left of 0.  On a sound table all three hold: each placed sensor
    starts at or left of the reach before it, and the sensors dropped
    between two members lie inside the later one.  The walk checks the
    three in the same pass, on ints, and a table that fails them is corrupt.
    """
    scale, length, xs, rs, step, rows, choices = (
        table.scale, table.length, table.xs, table.rs, table.step, table.rows, table.choices)
    y = [s.x for s in instance.sensors]
    active = []
    need = length  # the chain found so far covers [need, L]; left of it lies the next member's job
    for i in range(instance.n - 1, -1, -1):
        k = choices[i + 1][b]
        if k >= 0:
            b -= k
            pos = min(xs[i] + k * step, rows[i][b] + rs[i])
            y[i] = _from_grid(pos, scale)
            if not active or pos < low:
                if pos + rs[i] < need:
                    raise RuntimeError("DP reconstruction lost coverage; table is corrupt")
                need, low = pos - rs[i], pos
                active.append(i)
    if need > 0:
        raise RuntimeError("DP reconstruction lost coverage; table is corrupt")
    active.reverse()
    return tuple(y), tuple(active)


def dp_exact(instance: Instance, budget: ScalarLike) -> Optional[tuple[Solution, ActiveSet]]:
    """Cheapest order-preserving cover of cost <= budget, or None.

    Movements are searched on the instance's grid 1/d (``model.on_grid``),
    which loses nothing: on integral data the DP is exact.  The budget is
    capped at the greedy cover's cost: greedy tiles in index order, so it
    is an order-preserving cover the DP can express, and the cheapest one
    never costs more.
    """
    d = integral_scale_factor(instance)
    units = grid_units(budget, d)
    if not is_feasible(instance):
        return None
    _, upper = greedy_cover(instance)
    return _dp_within(instance, min(units, _to_grid(upper, d)), Fraction(1, d))


def _dp_within(instance: Instance, units: int, unit: Scalar) -> Optional[tuple[Solution, ActiveSet]]:
    """The DP's cover at the smallest budget of ``units`` steps of ``unit`` that covers, or None.

    The table is ``budget_table(instance, units, unit)``, filled row by row
    and given up at the first row i with rows[i][units] + 2*(r_i + ... +
    r_{n-1}) < L (on the grid), since then no budget covers.  No cell of
    row i+1 exceeds the cell of row i at the same budget b by more than
    2r_i: a skip keeps prev[b]; a left-bound split gives prev[j] + 2r_i
    with j <= b; a right-bound split k needs x_i + k*unit <= prev[b-k] +
    r_i, so its value x_i + k*unit + r_i is at most prev[b-k] + 2r_i <=
    prev[b] + 2r_i.  The last row thus stays below L at budget ``units``,
    and, being nondecreasing, at every budget.  The cell cap is checked
    before any cell is allocated, as in ``budget_table``.
    """
    table = _empty_table(instance, units, unit)
    table._widen_base(units)
    rest = 2 * sum(table.rs)
    for fill, row, r in zip(table.fills, table.rows[1:], table.rs):
        next(fill)
        rest -= 2 * r
        if row[units] + rest < table.length:
            return None
    return _cheapest_cover(instance, table)


def _cheapest_cover(instance: Instance, table: DpTable) -> Optional[tuple[Solution, ActiveSet]]:
    """The cover at the table's smallest covering budget, or None.

    The last row is nondecreasing and clamped at L, so the smallest covering
    budget is where L*scale would be inserted into it.
    """
    winner = bisect_left(table.rows[instance.n], table.length)
    return None if winner == len(table.rows[0]) else _reconstruct(instance, table, winner)


def cheapest_first(instance: Instance, solve: Callable[[Number], Optional[tuple]]) -> tuple:
    """First hit of ``solve(budget)`` over budgets 2^m/d, 2^(m+1)/d, ... (input units).

    d is the instance's grid and 2^m the largest power of two at most G,
    the home solution's total gap in grid units (m = 0 when G = 0).  Every
    cover costs at least G, so the powers of two below 2^m, which the
    doubling would otherwise try from 1/d, cannot hit: starting at 2^m
    skips only misses.  Budgets are capped at the greedy cover's cost,
    where an exact solver must hit; one that returns its cheapest cover
    within the budget thus yields the optimum.  Budgets never decrease, so
    ``solve`` may widen one table from call to call, as ``dp_optimal``
    does.  Each budget below the cap is an int on the grid 1 (d = 1), a
    Fraction otherwise, so ``model._to_grid(budget, d)`` takes it back to
    grid steps on either.  Raises InfeasibleError when no cover exists.
    """
    d = integral_scale_factor(instance)
    _, upper = greedy_cover(instance)
    top = _to_grid(upper, d)
    units = 1 << max(0, sum(hi - lo for lo, hi in _home_gaps(instance)).bit_length() - 1)
    while True:
        found = solve((units if d == 1 else Fraction(units, d)) if units < top else upper)
        if found is not None:
            return found
        if units >= top:
            raise RuntimeError("budget doubling found nothing at the greedy cost")
        units *= 2


def dp_optimal(instance: Instance) -> tuple[Solution, ActiveSet]:
    """Optimal order-preserving solution by doubling the budget until the DP hits.

    The first successful table already contains the optimum: each step scans
    for the smallest feasible budget row, and a solution's exact movements
    are themselves a valid budget split.  The doublings start at the
    largest power of two at most the home gap bound G (``cheapest_first``)
    and grow one table, so a call fills O(n*W) cells for its final width W,
    the first power of two at or past OPT_op or the greedy cost.
    """
    if verify_coverage(instance, instance.home()).covered:
        return instance.home(), minimal_active_set(instance, instance.home())
    d = integral_scale_factor(instance)
    tables: list[DpTable] = []
    return cheapest_first(instance, lambda budget: _grown_cover(instance, tables, _to_grid(budget, d), d))


def _grown_cover(
    instance: Instance, tables: list[DpTable], units: int, d: int
) -> Optional[tuple[Solution, ActiveSet]]:
    """The cheapest cover within ``units`` steps of 1/d, or None, on one table kept in ``tables``.

    The first call fills ``budget_table(instance, units, 1/d)`` into the
    empty list; each later call widens that table with ``DpTable.grow``,
    so ``units`` must not decrease from call to call.
    """
    if tables:
        tables[0].grow(units)
    else:
        tables.append(budget_table(instance, units, Fraction(1, d)))
    return _cheapest_cover(instance, tables[0])


def dp_eps(instance: Instance, eps: ScalarLike) -> tuple[Solution, ActiveSet]:
    """Order-preserving cover of true cost within (1 + eps) of the best one.

    Runs the budget DP on a rounded cost grid, unit q = (eps/2) * guess / n,
    and guesses the optimum by doubling.  Internally the scheme runs at
    eps/2: a guess may overshoot the optimum by up to 2x before the
    acceptance test fires, and halving eps absorbs that factor so the
    advertised bound survives.  The first
    guess, half the widest uncovered gap, can never overshoot (covering a
    gap costs at least its width).

    A guess whose table must come back empty is doubled unfilled.  Moving a
    sensor by δ covers at most δ of new length, so every cover costs at
    least G, the home solution's total gap.  A cover in the table moves each
    placed sensor by at most its k steps of q, so it costs at most units*q.
    While units*q < G, i.e. guess < G*n / (units*eps/2), the table is empty.

    Everything but the DP's unit runs on ints: with eps = p/s and the
    instance's grid 1/d, the home gaps come from the grid, a guess is
    g/(2d), and a cover is accepted when its cost on the grid 1/(4sdn),
    which holds every position a table places, is at most (2s + p)*g*n.

    A guess whose q is no coarser than the instance's grid, q <= 1/d, runs
    no rounded table.  With f = 4sn, q = p*g / (f*d), so that is p*g <= f.
    Such a guess widens the call's one exact table, unit 1/d as in
    ``dp_optimal``, to units*p*g // f steps, the floor of units*q in grid
    units, and a hit there is returned without the acceptance test: it is
    an OPT_op cover, so it meets the (1 + eps) bound.  Three facts make
    this safe:

    (a) It hits no later.  A cover the rounded table finds at a guess costs
    at most units*q, as above.  The DP on the 1/d grid is exact, so OPT_op
    is a whole number of grid steps, at most that cost, and hence at most
    units*p*g // f: the exact table hits at that guess or an earlier one,
    never at a later one.  So every guess the call reaches was reached
    before, and the skip floor above (units*q < G) covers both kinds of
    table, since G is a whole number of grid steps too.

    (b) It is never larger.  The widths units*p*g // f never decrease with
    g, so one table grows through them (``DpTable.grow``), and none passes
    units: the exact table has at most (n+1)*(units+1) cells, the size of
    the rounded table at the same guess.  By (a) that guess was filled
    before, so the cell cap never fires where it did not fire before.

    (c) Past the grid, nothing changes.  Once q > 1/d, each guess runs the
    rounded ``_dp_within`` and its acceptance test as before, and by (a)
    the guesses it reaches are the ones it reached before.

    The answer is not scale-equivariant: an integer factor c keeps d and
    scales every guess, so a guess exact at one scale can be rounded at
    another (``gen_random(4, 8, 1, 3, (-4, 12), 27)`` at eps = 1/2 costs
    4, 8 and 99/8 at c = 1, 2, 3, where OPT_op is 4, 8 and 12).
    """
    eps = as_scalar(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not is_feasible(instance):
        raise InfeasibleError("instance cannot cover the barrier")
    d, _, xs, _ = instance._grid
    n = instance.n
    gaps = _home_gaps(instance)
    if not gaps:
        return instance.home(), minimal_active_set(instance, instance.home())
    p, s = eps.numerator, eps.denominator
    f = 4 * s * n
    units = -(-2 * n * s // p) + n
    g = max(hi - lo for lo, hi in gaps)
    floor = f * sum(hi - lo for lo, hi in gaps)
    _, upper = greedy_cover(instance)
    top = 4 * _to_grid(upper, d)
    tables: list[DpTable] = []
    while True:
        if g * units * p >= floor:
            if p * g <= f:
                found = _grown_cover(instance, tables, units * p * g // f, d)
                if found is not None:
                    return found
            else:
                found = _dp_within(instance, units, Fraction(p * g, f * d))
                if found is not None:
                    moved = sum(abs(_to_grid(y, f * d) - x * f) for y, x in zip(found[0], xs))
                    if moved <= (2 * s + p) * g * n:
                        return found
        if g > top:
            raise RuntimeError("guess doubling escaped its upper bound")
        g *= 2
