"""Reference exact-cover decider: enumeration of every small subfamily.

C7 checks ``reduce_exact_cover`` against the exact-cover answer this gives.
No solver, CLI path or benchmark calls it, so it lives here as the test
oracle, copied verbatim from ``barriercover.generators``, and not in the
library.
"""

from __future__ import annotations

from itertools import combinations

from barriercover.generators import ExactCoverInstance
from barriercover.model import ResourceLimitError


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
