"""Min-sum barrier coverage: move line sensors of mixed radii to cover [0, L].

Exact rational arithmetic throughout; see the README for the solver lineup
(order-preserving DP, budget-branching exact search, brute-force oracles),
the instance generators and the benchmarking harness.

``import barriercover`` loads ``model`` and ``untangle`` only; the names
from ``exact``, ``order_dp`` and ``generators`` load their module on first
access.  ``untangle`` stays eager: the package exports a function of that
name, and a lazy one would let a prior ``import barriercover.untangle``
bind the package attribute to the submodule instead.

The record classes (``Sensor``, ``Instance``, ``CoverageReport``,
``CrossingPair``, ``RunRecord``, ``DpTable``, ``ExactCoverInstance``,
``ReductionOutput``) derive from ``model._Value``, a small value-type base,
so neither the package nor any CLI command imports the standard library's
class generator and the ``inspect`` machinery it loads.
"""

from importlib import import_module as _import_module

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
    greedy_cover,
    integral_scale_factor,
    is_feasible,
    is_order_preserving,
    minimal_active_set,
    moved_indices,
    radius_ratio,
    scale_instance,
    verify_coverage,
)
from .untangle import CrossingPair, crossing_pairs, swap_pair, untangle

__version__ = "0.1.0"

#: Exported names resolved on first access, by the submodule that defines them.
_LAZY = {
    "brute_force": "exact",
    "brute_force_order_preserving": "exact",
    "fpt_solve": "exact",
    "oracle_optimal": "exact",
    "ExactCoverInstance": "generators",
    "ReductionOutput": "generators",
    "gen_fig5": "generators",
    "gen_fig6": "generators",
    "gen_random": "generators",
    "reduce_exact_cover": "generators",
    "DpTable": "order_dp",
    "budget_table": "order_dp",
    "dp_eps": "order_dp",
    "dp_exact": "order_dp",
    "dp_optimal": "order_dp",
}

__all__ = sorted([
    "ActiveSet",
    "CoverageReport",
    "CrossingPair",
    "InfeasibleError",
    "Instance",
    "ResourceLimitError",
    "Scalar",
    "Sensor",
    "Solution",
    "as_scalar",
    "cost",
    "crossing_pairs",
    "greedy_cover",
    "integral_scale_factor",
    "is_feasible",
    "is_order_preserving",
    "minimal_active_set",
    "moved_indices",
    "radius_ratio",
    "scale_instance",
    "swap_pair",
    "untangle",
    "verify_coverage",
    *_LAZY,
])


def __getattr__(name: str):
    # Not cached in the package: every access reads the home module, so a
    # patch there (a tracer's wrapper, say) is what the caller gets.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*__all__, *globals()})
