"""Reference budget-DP fill: the original quadratic split loop.

``barriercover.order_dp.budget_table`` must reproduce this table exactly,
``reach`` and ``parent`` alike.  The loop tries every split k <= b for
every cell, O(n * U^2) Fraction operations, so it lives here as the test
oracle for the O(n * U) fill and not in the library.
"""

from __future__ import annotations

from fractions import Fraction

from barriercover import Instance
from barriercover.model import ScalarLike, as_scalar
from barriercover.order_dp import _SKIP, DpTable


def reference_budget_table(instance: Instance, budget_units: int, unit: ScalarLike = 1) -> DpTable:
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
    return DpTable(unit=unit, reach=reach, parent=parent)
