"""Reference budget DP: the original quadratic fill and the Fraction reconstruction.

``barriercover.order_dp.budget_table`` must reproduce this table exactly,
``reach`` and ``parent`` alike.  The loop tries every split k <= b for
every cell, O(n * U^2) Fraction operations, so it lives here as the test
oracle for the O(n * U) fill and not in the library.  ``fraction_reach``
and ``fraction_parent`` read a ``DpTable``, whose fill stays on the integer
grid, as that same pair of Fraction tables in input units.

``reference_dp_within`` is ``order_dp._dp_within`` as it stood before the
scan and the reconstruction moved onto the integer grid, copied verbatim
with its ``_reconstruct`` and ``_chain_active``: it reads the table's
Fraction views (``fraction_reach``, ``fraction_parent``) and checks the
cover with ``verify_coverage``.  Put in place of ``order_dp._dp_within``,
it must leave ``dp_exact``, ``dp_optimal`` and ``dp_eps`` returning the
very same ``(solution, active)``.

``reference_dp_optimal`` and ``reference_dp_eps`` are ``order_dp.dp_optimal``
and ``order_dp.dp_eps`` as they stood before ``dp_optimal`` grew one table
through its doublings and ``dp_eps`` skipped guesses below the gap bound:
every budget refills a table from column 0 through ``_dp_within``, and
every guess fills its table.  ``reference_dp_eps`` also follows the
library's per-guess unit rule: a guess whose unit q is at most the
instance's grid 1/d fills an exact table (unit 1/d, floor(units*q*d)
steps) and returns its hit without the acceptance test, where
``order_dp.dp_eps`` grows one such table through its guesses.  They look
``_dp_within`` up in this module, so a test can swap it here too.

``EpsParams`` and ``rounded_cost`` are the (1 + eps) scheme's rounding grid
and rounded cost, as they stood in ``order_dp`` before ``dp_eps`` computed
its unit q itself; ``reference_dp_eps`` still takes q from ``EpsParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from barriercover import Instance
from barriercover.model import (
    ActiveSet,
    InfeasibleError,
    Scalar,
    ScalarLike,
    Solution,
    as_scalar,
    cost,
    integral_scale_factor,
    is_feasible,
    is_order_preserving,
    minimal_active_set,
    verify_coverage,
)
from barriercover.order_dp import (
    DpTable,
    _dp_within,
    budget_table,
    cheapest_first,
    greedy_cover,
)

#: The reference tables' choice for a skipped sensor.
_SKIP = (-1, None)


def _exact(scale: int, values: set[int]) -> dict[int, Scalar]:
    return {v: Fraction(v, scale) for v in values}


def fraction_reach(table: DpTable) -> list[list[Scalar]]:
    """``table.rows`` in input units: the reach of the first i sensors with b units, as Fractions."""
    exact = _exact(table.scale, {v for row in table.rows for v in row})
    return [[exact[v] for v in row] for row in table.rows]


def fraction_parent(table: DpTable) -> list[list[tuple[int, Optional[Scalar]]]]:
    """``table.choices`` in input units: the skip marker or (k, position), positions as Fractions.

    A choice k >= 0 for sensor i-1 at budget b places it at grid position
    min(x + k*step, rows[i-1][b-k] + r), as the fill does.
    """
    parent = [[_SKIP] * len(table.choices[0])]
    for i, row in enumerate(table.choices[1:], start=1):
        x, r, prev = table.xs[i - 1], table.rs[i - 1], table.rows[i - 1]
        parent.append([
            _SKIP if k < 0 else (k, Fraction(min(x + k * table.step, prev[b - k] + r), table.scale))
            for b, k in enumerate(row)
        ])
    return parent


@dataclass(frozen=True)
class EpsParams:
    """Rounding grid for the (1 + eps) scheme: unit q = eps * guess / n."""

    eps: Scalar
    opt_guess: Scalar
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", as_scalar(self.eps))
        object.__setattr__(self, "opt_guess", as_scalar(self.opt_guess))
        if self.eps <= 0 or self.opt_guess <= 0 or self.n <= 0:
            raise ValueError("eps, guess and n must all be positive")

    @property
    def q(self) -> Scalar:
        return self.eps * self.opt_guess / self.n


def rounded_cost(instance: Instance, solution: Solution, q: ScalarLike) -> int:
    """Movement cost in grid units: sum of ceil(|y_i - x_i| / q)."""
    q = as_scalar(q)
    if q <= 0:
        raise ValueError("grid unit must be positive")
    y = tuple(as_scalar(v) for v in solution)
    return sum(math.ceil(abs(yi - s.x) / q) for s, yi in zip(instance.sensors, y))


@dataclass
class FractionTable:
    """The reference fill's table, in input units: what ``fraction_reach``/``fraction_parent`` must return."""

    unit: Scalar
    reach: list[list[Scalar]]
    parent: list[list[tuple[int, Optional[Scalar]]]]


def reference_budget_table(instance: Instance, budget_units: int, unit: ScalarLike = 1) -> FractionTable:
    """Fill the DP table for budgets 0..budget_units in steps of ``unit``.

    Placing sensor i with k units on top of prior coverage t puts it at
    min(x_i + k*unit, t + r_i): as far right as the budget and the no-gap
    constraint (left edge <= t) allow.  That position is reachable iff
    t >= x_i - k*unit - r_i.  Ties prefer skipping, then smaller k, which
    keeps reconstruction free of pointless placements.
    """
    unit = as_scalar(unit)
    if unit <= 0:
        raise ValueError("budget unit must be positive")
    if budget_units < 0:
        raise ValueError("budget must be >= 0")
    zero = Fraction(0)
    length = instance.length
    reach = [[zero] * (budget_units + 1)]
    parent = [[_SKIP] * (budget_units + 1)]
    for i, sensor in enumerate(instance.sensors, start=1):
        prev = reach[i - 1]
        row = []
        choices = []
        for b in range(budget_units + 1):
            best = prev[b]
            chosen = _SKIP
            for k in range(b + 1):
                t = prev[b - k]
                move = k * unit
                if t < sensor.x - move - sensor.r:
                    continue
                y = min(sensor.x + move, t + sensor.r)
                value = min(y + sensor.r, length)
                if value > best:
                    best = value
                    chosen = (k, y)
            row.append(best)
            choices.append(chosen)
        reach.append(row)
        parent.append(choices)
    return FractionTable(unit=unit, reach=reach, parent=parent)


def _chain_active(placed: list[tuple[int, Scalar]]) -> list[int]:
    """Reduce placed sensors to an increasing active chain.

    A later sensor placed at or left of earlier chain members makes those
    members redundant (its interval reaches further right and starts no
    later than the coverage they were responsible for), so they are popped.
    """
    stack: list[tuple[int, Scalar]] = []
    for i, y in placed:
        while stack and stack[-1][1] >= y:
            stack.pop()
        stack.append((i, y))
    return [i for i, _ in stack]


def _reconstruct(instance: Instance, table: DpTable, b: int) -> tuple[Solution, ActiveSet]:
    """Walk parent pointers from (n, b) back to row 0."""
    parent = fraction_parent(table)
    y = list(instance.home())
    placed: list[tuple[int, Scalar]] = []
    for i in range(instance.n, 0, -1):
        k, pos = parent[i][b]
        if k >= 0:
            assert pos is not None
            y[i - 1] = pos
            placed.append((i - 1, pos))
            b -= k
    placed.reverse()
    solution = tuple(y)
    active = tuple(_chain_active(placed))
    if not verify_coverage(instance, solution, active).covered:
        raise RuntimeError("DP reconstruction lost coverage; table is corrupt")
    if not is_order_preserving(instance, solution, active):
        raise RuntimeError("DP reconstruction is not order-preserving")
    return solution, active


def reference_dp_within(instance: Instance, units: int, unit: Scalar) -> Optional[tuple[Solution, ActiveSet]]:
    """The DP's cover at the smallest budget of ``units`` steps of ``unit`` that covers, or None."""
    table = budget_table(instance, units, unit)
    final = fraction_reach(table)[instance.n]
    winner = next((b for b in range(units + 1) if final[b] >= instance.length), None)
    if winner is None:
        return None
    return _reconstruct(instance, table, winner)


def reference_dp_optimal(instance: Instance) -> tuple[Solution, ActiveSet]:
    """Optimal order-preserving solution by doubling the budget until the DP hits.

    The first successful table already contains the optimum: each step scans
    for the smallest feasible budget row, and a solution's exact movements
    are themselves a valid budget split.
    """
    if verify_coverage(instance, instance.home()).covered:
        return instance.home(), minimal_active_set(instance, instance.home())
    d = integral_scale_factor(instance)
    return cheapest_first(instance, lambda budget: _dp_within(instance, int(budget * d), Fraction(1, d)))


def reference_dp_eps(instance: Instance, eps: ScalarLike) -> tuple[Solution, ActiveSet]:
    """Order-preserving cover of true cost within (1 + eps) of the best one.

    Runs the budget DP on a rounded cost grid and guesses the optimum by
    doubling.  Internally the scheme runs at eps/2: a guess may overshoot
    the optimum by up to 2x before the acceptance test fires, and halving
    eps absorbs that factor so the advertised bound survives.  The first
    guess, half the widest uncovered gap, can never overshoot (covering a
    gap costs at least its width).  A guess with q <= 1/d runs the exact
    DP at floor(units*q) grid steps instead, and its hit is OPT_op.
    """
    eps = as_scalar(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not is_feasible(instance):
        raise InfeasibleError("instance cannot cover the barrier")
    report = verify_coverage(instance, instance.home())
    if report.covered:
        return instance.home(), minimal_active_set(instance, instance.home())
    half = eps / 2
    guess = max(hi - lo for lo, hi in report.gaps) / 2
    _, upper = greedy_cover(instance)
    units = math.ceil(instance.n / half) + instance.n
    d = integral_scale_factor(instance)
    while True:
        params = EpsParams(eps=half, opt_guess=guess, n=instance.n)
        if params.q * d <= 1:
            found = _dp_within(instance, math.floor(units * params.q * d), Fraction(1, d))
            if found is not None:
                return found
        else:
            found = _dp_within(instance, units, params.q)
            if found is not None and cost(instance, found[0]) <= (1 + half) * guess:
                return found
        if guess > 2 * upper:
            raise RuntimeError("guess doubling escaped its upper bound")
        guess *= 2
