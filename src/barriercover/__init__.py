"""Min-sum barrier coverage: move line sensors of mixed radii to cover [0, L].

Exact rational arithmetic throughout; see the README for the solver lineup
(order-preserving DP, budget-branching exact search, brute-force oracles),
the instance generators and the benchmarking harness.
"""

from .model import (
    ActiveSet,
    CoverageReport,
    InfeasibleError,
    Instance,
    ResourceLimitError,
    Scalar,
    Sensor,
    Solution,
    as_scalar,
    cost,
    integral_scale_factor,
    is_feasible,
    is_order_preserving,
    minimal_active_set,
    moved_indices,
    radius_ratio,
    scale_instance,
    verify_coverage,
)
from .exact import (
    GapCandidateSet,
    brute_force,
    brute_force_order_preserving,
    fpt_solve,
    oracle_optimal,
)
from .generators import (
    ExactCoverInstance,
    ReductionOutput,
    gen_fig5,
    gen_fig6,
    gen_random,
    reduce_exact_cover,
    solve_exact_cover_brute,
)
from .order_dp import (
    DpTable,
    budget_table,
    dp_eps,
    dp_exact,
    dp_optimal,
    greedy_cover,
)
from .untangle import CrossingPair, crossing_pairs, swap_pair, untangle

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "CoverageReport",
    "CrossingPair",
    "DpTable",
    "ExactCoverInstance",
    "GapCandidateSet",
    "InfeasibleError",
    "Instance",
    "ReductionOutput",
    "ResourceLimitError",
    "Scalar",
    "Sensor",
    "Solution",
    "as_scalar",
    "brute_force",
    "brute_force_order_preserving",
    "budget_table",
    "cost",
    "crossing_pairs",
    "dp_eps",
    "dp_exact",
    "dp_optimal",
    "fpt_solve",
    "gen_fig5",
    "gen_fig6",
    "gen_random",
    "greedy_cover",
    "integral_scale_factor",
    "is_feasible",
    "is_order_preserving",
    "minimal_active_set",
    "moved_indices",
    "oracle_optimal",
    "radius_ratio",
    "reduce_exact_cover",
    "scale_instance",
    "solve_exact_cover_brute",
    "swap_pair",
    "untangle",
    "verify_coverage",
]
