"""Reference k-mover search: the subset-by-position enumeration it replaced.

``barriercover.exact.fpt_solve(instance, budget, movers=k)`` must decide
every input the way ``kmove_brute_force(instance, KMoveQuery(budget, k))``
does.  This search enumerates mover subsets and, for each mover, every grid
position, with its own recursion off the shared search driver and only an
up-front state estimate to bound it; copied verbatim, it lives here as the
test oracle and not in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from barriercover.exact import DEFAULT_NODE_CAP
from barriercover.model import (
    Instance,
    ResourceLimitError,
    Scalar,
    Solution,
    as_scalar,
    grid_units,
    on_grid,
    verify_coverage,
)


@dataclass(frozen=True)
class KMoveQuery:
    """Budget plus a bound on how many sensors may move at all."""

    budget: Scalar
    movers: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "budget", as_scalar(self.budget))
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.movers < 0:
            raise ValueError("mover bound must be >= 0")


def kmove_brute_force(
    instance: Instance,
    query: KMoveQuery,
    state_cap: int = DEFAULT_NODE_CAP,
) -> Optional[Solution]:
    """Any covering solution moving at most k sensors at total cost <= budget.

    Enumerates mover subsets and, for each mover, grid positions in
    [-r, L + r]; refuses up front (resource error) when the state estimate
    blows past the cap.
    """
    d, length, xs, rs = on_grid(instance)
    limit = grid_units(query.budget, d)
    n = len(xs)
    k = min(query.movers, n)

    widest = max((length + 2 * r + 2 for r in rs), default=1)
    estimate = sum(math.comb(n, size) * widest**size for size in range(k + 1))
    if estimate > state_cap:
        raise ResourceLimitError(f"k-move estimate {estimate} exceeds cap {state_cap}")

    home = instance.home()
    if verify_coverage(instance, home).covered:
        return home

    for size in range(1, k + 1):
        for movers in combinations(range(n), size):

            def assign(idx: int, spent: int, current: list[int]) -> Optional[Solution]:
                if idx == size:
                    candidate = list(xs)
                    for j, y in zip(movers, current):
                        candidate[j] = y
                    sol = tuple(Fraction(v, d) for v in candidate)
                    if verify_coverage(instance, sol).covered:
                        return sol
                    return None
                j = movers[idx]
                for y in range(-rs[j], length + rs[j] + 1):
                    if y == xs[j]:
                        continue
                    step = abs(y - xs[j])
                    if spent + step > limit:
                        continue
                    found = assign(idx + 1, spent + step, current + [y])
                    if found is not None:
                        return found
                return None

            found = assign(0, 0, [])
            if found is not None:
                return found
    return None
