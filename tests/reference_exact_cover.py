"""Reference exact-cover decider: enumeration of every small subfamily.

C7 checks ``reduce_exact_cover`` against the exact-cover answer this gives.
No solver, CLI path or benchmark calls it, so it lives here as the test
oracle, copied verbatim from ``barriercover.generators``, and not in the
library.

``reduce_exact_cover`` below is ``barriercover.generators.reduce_exact_cover``
as it stood when it built every element's two weights as Fractions and
summed them, copied verbatim.  The library's version builds only the
weights the subsets use and sums L and B in closed form; wherever its B
prints, it must return exactly what this one does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from barriercover.generators import ExactCoverInstance, ReductionOutput
from barriercover.model import Instance, ResourceLimitError, Sensor


def solve_exact_cover_brute(ec: ExactCoverInstance, subset_cap: int = 10**8) -> bool:
    """Decide exact cover by enumerating subfamilies of size <= k."""
    n = len(ec.sets)
    if 2**n > subset_cap:
        raise ResourceLimitError(f"2^{n} subfamilies exceed the cap {subset_cap}")
    universe = frozenset(range(1, ec.universe_size + 1))
    for size in range(min(ec.max_sets, n) + 1):
        for chosen in combinations(range(n), size):
            covered: set[int] = set()
            total = 0
            for i in chosen:
                covered |= ec.sets[i]
                total += len(ec.sets[i])
            if covered == universe and total == ec.universe_size:
                return True
    return False


def reduce_exact_cover(ec: ExactCoverInstance) -> ReductionOutput:
    """Encode an exact-cover question as a barrier instance plus (B, k) bounds.

    With n subsets and base b = n + 1: element j contributes b^(j-1) to the
    diameter of each sensor whose subset contains it and b^(j+m) to that
    sensor's distance from the barrier; L sums the element weights and the
    budget allows hauling k chosen sensors to the barrier and arranging them.
    """
    m, n = ec.universe_size, len(ec.sets)
    base = n + 1
    elem_weight = {j: Fraction(base) ** (j - 1) for j in range(1, m + 1)}
    dist_weight = {j: Fraction(base) ** (j + m) for j in range(1, m + 1)}
    sensors = []
    for subset in ec.sets:
        radius = sum((elem_weight[j] for j in subset), start=Fraction(0)) / 2
        offset = sum((dist_weight[j] for j in subset), start=Fraction(0))
        sensors.append(Sensor(-radius - offset, radius))
    length = sum(elem_weight.values(), start=Fraction(0))
    budget = sum(dist_weight.values(), start=Fraction(0)) + ec.max_sets * length
    instance = Instance(length=length, sensors=tuple(sensors))
    # ``Instance`` sorts its sensors stably by (x, r); the same stable sort of
    # the set indices gives each sorted sensor's set.
    order = sorted(range(n), key=lambda i: (sensors[i].x, sensors[i].r))
    return ReductionOutput(
        instance=instance,
        budget=budget,
        movers=ec.max_sets,
        source_sets=tuple(order),
    )
