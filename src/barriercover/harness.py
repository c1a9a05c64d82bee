"""Ratio experiments: run solvers against a reference and emit CSV records.

``SOLVERS`` is the one registry of named solvers, shared with the CLI.
Every solver takes any rational instance (the grid-bound ones put it on the
integer grid themselves) and a budget in input units, or None for the
optimum, and returns None when no cover exists within the budget or at
all.  Each solver imports its modules when called, so naming the registry
(as the CLI does for ``--algo``) loads no solver module.  Solver failures
become record statuses; a batch never dies because one point was
infeasible or hit a resource cap.

``compare`` rates named solvers against a reference on one instance.
``fig5_sweep`` and ``fig6_sweep`` run the paper's two ratio experiments
over a list of L or m values with rho (and fig6's delta) fixed; the
parameters are plain arguments with no defaults, which the CLI supplies.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .fileio import format_scalar
from .model import (
    DEFAULT_NODE_CAP,
    InfeasibleError,
    Instance,
    ResourceLimitError,
    Scalar,
    ScalarLike,
    Solution,
    _Value,
    as_scalar,
    cost,
    is_feasible,
)

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_RESOURCE = "resource-limit"


class RunRecord(_Value):
    """One solver run on one instance; ratio = cost / reference when both exist."""

    __slots__ = _fields = ("instance", "algo", "status", "cost", "ref_cost", "ratio", "time_ms")
    instance: str
    algo: str
    status: str
    cost: Optional[Scalar]
    ref_cost: Optional[Scalar]
    ratio: Optional[Scalar]
    time_ms: int

    def csv_row(self) -> str:
        """The fields in ``CSV_HEADER``'s order: None empty, a str as it is, a number by ``format_scalar``."""
        return ",".join("" if v is None else v if isinstance(v, str) else format_scalar(v) for v in self._values())


CSV_HEADER = ",".join(RunRecord._fields)


#: A budget in input units, or None for the optimum.
Budget = Optional[ScalarLike]
#: ``(instance, budget, eps, node_cap) -> solution``; None means no cover within the budget.
Solver = Callable[[Instance, Budget, ScalarLike, int], Optional[Solution]]


def _first(found: Optional[tuple]) -> Optional[Solution]:
    return None if found is None else found[0]


def _oracle(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from . import exact

    return _first(exact.brute_force(instance, budget, node_cap=node_cap))


def _fpt(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from . import exact, order_dp

    if budget is not None:
        return _first(exact.fpt_solve(instance, budget, node_cap=node_cap))
    if not is_feasible(instance):
        return None
    return _first(order_dp.cheapest_first(instance, lambda b: exact.fpt_solve(instance, b, node_cap)))


def _dp_exact(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from . import order_dp

    if budget is not None:
        return _first(order_dp.dp_exact(instance, budget))
    if not is_feasible(instance):
        return None
    return order_dp.dp_optimal(instance)[0]


def _dp_eps(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from . import order_dp

    # ``dp_eps`` checks eps before feasibility, so a bad eps is refused on any instance.
    try:
        return order_dp.dp_eps(instance, eps)[0]
    except InfeasibleError:
        return None


def _untangle_oracle(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from .untangle import untangle

    found = _oracle(instance, budget, eps, node_cap)
    return None if found is None else untangle(instance, found)[0]


#: Every named solver.  ``dp-eps`` ignores the budget (the CLI refuses one); ``dp-exact`` and
#: ``dp-optimal`` are one solver under two names.
SOLVERS: Mapping[str, Solver] = {
    "oracle": _oracle,
    "fpt": _fpt,
    "dp-exact": _dp_exact,
    "dp-optimal": _dp_exact,
    "dp-eps": _dp_eps,
    "untangle-oracle": _untangle_oracle,
}


def _run_one(
    instance: Instance, name: str, eps: ScalarLike, node_cap: int
) -> tuple[str, Optional[Scalar], int]:
    """``(status, cost, time_ms)`` of one solver run; the cost is None unless a cover was found."""
    start = time.perf_counter()
    try:
        solution = SOLVERS[name](instance, None, eps, node_cap)
        status = STATUS_INFEASIBLE if solution is None else STATUS_OK
    except ResourceLimitError:
        solution, status = None, STATUS_RESOURCE
    elapsed = int((time.perf_counter() - start) * 1000)
    return status, None if solution is None else cost(instance, solution), elapsed


def check_names(names: Iterable[str]) -> None:
    """Raise ValueError for the first name, in sorted order, that ``SOLVERS`` does not hold."""
    unknown = sorted(set(names).difference(SOLVERS))
    if unknown:
        raise ValueError(f"unknown algorithm {unknown[0]!r}; pick from {sorted(SOLVERS)}")


def compare(
    instance: Instance,
    algorithms: Sequence[str],
    reference: str,
    instance_id: str = "instance",
    eps: ScalarLike = Fraction(1, 2),
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[RunRecord]:
    """Run every algorithm on one instance, rating each against the reference.

    The reference is run once; its cost (when available and positive)
    becomes every record's ``ref_cost`` and the ratio is cost/ref_cost.
    """
    check_names([reference, *algorithms])
    # Load the solver modules before any run is timed, so no time_ms counts an import.
    from . import exact, order_dp

    ref_run = _run_one(instance, reference, eps, node_cap)
    ref_status, ref_cost, _ = ref_run
    records = []
    for name in algorithms:
        status, value, elapsed = ref_run if name == reference else _run_one(instance, name, eps, node_cap)
        rated = ref_cost if status == STATUS_OK else None
        if ref_status != STATUS_OK:
            status = ref_status
        records.append(
            RunRecord(instance_id, name, status, value, rated, value / rated if rated else None, elapsed)
        )
    return sorted(records, key=lambda r: (r.instance, r.algo))


def _against_oracle(points: Iterable[tuple[str, Instance]], algo: str, node_cap: int) -> list[RunRecord]:
    """The oracle and ``algo`` on each ``(instance_id, instance)`` point, rated against the oracle."""
    records: list[RunRecord] = []
    for instance_id, instance in points:
        records += compare(instance, ["oracle", algo], "oracle", instance_id, node_cap=node_cap)
    return records


def fig5_sweep(
    lengths: Sequence[ScalarLike], rho: ScalarLike, node_cap: int = DEFAULT_NODE_CAP
) -> list[RunRecord]:
    """fig5's ratio experiment: the optimal order-preserving cost against the optimum, for each L."""
    from .generators import gen_fig5

    rho = as_scalar(rho)
    points = ((f"fig5:rho={rho}:L={L}", gen_fig5(rho, L)) for L in map(as_scalar, lengths))
    return _against_oracle(points, "dp-optimal", node_cap)


def fig6_sweep(
    ms: Sequence[int], rho: ScalarLike, delta: ScalarLike, node_cap: int = DEFAULT_NODE_CAP
) -> list[RunRecord]:
    """fig6's ratio experiment: the cost of untangling the optimum against the optimum, for each m."""
    from .generators import gen_fig6

    rho, delta = as_scalar(rho), as_scalar(delta)
    points = ((f"fig6:rho={rho}:m={m}:delta={delta}", gen_fig6(rho, m, delta)) for m in ms)
    return _against_oracle(points, "untangle-oracle", node_cap)


def records_to_csv(records: Sequence[RunRecord]) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"
