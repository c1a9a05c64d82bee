"""Ratio experiments: run solvers against a reference and emit CSV records.

``SOLVERS`` is the one registry of named solvers, shared with the CLI.
Every solver takes any rational instance (the grid-bound ones put it on the
integer grid themselves) and a budget in input units, or None for the
optimum, and returns None when no cover exists within the budget or at
all.  Each solver imports its modules when called, so naming the registry
(as the CLI does for ``--algo``) loads no solver module.  Solver failures
become record statuses; a batch never dies because one point was
infeasible or hit a resource cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .fileio import format_scalar
from .model import (
    DEFAULT_NODE_CAP,
    Instance,
    ResourceLimitError,
    Scalar,
    ScalarLike,
    Solution,
    as_scalar,
    cost,
    is_feasible,
)

CSV_HEADER = "instance,algo,status,cost,ref_cost,ratio,time_ms"

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_RESOURCE = "resource-limit"


@dataclass(frozen=True)
class RunRecord:
    """One solver run on one instance; ratio = cost / reference when both exist."""

    instance: str
    algo: str
    status: str
    cost: Optional[Scalar]
    ref_cost: Optional[Scalar]
    ratio: Optional[Scalar]
    time_ms: int

    def csv_row(self) -> str:
        def fmt(v: Optional[Scalar]) -> str:
            return "" if v is None else format_scalar(v)

        return (
            f"{self.instance},{self.algo},{self.status},"
            f"{fmt(self.cost)},{fmt(self.ref_cost)},{fmt(self.ratio)},{self.time_ms}"
        )


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

    if not is_feasible(instance):
        return None
    if budget is None:
        return _first(order_dp.cheapest_first(instance, lambda b: exact.fpt_solve(instance, b, node_cap)))
    return _first(exact.fpt_solve(instance, budget, node_cap=node_cap))


def _dp_exact(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from . import order_dp

    if not is_feasible(instance):
        return None
    if budget is None:
        return order_dp.dp_optimal(instance)[0]
    return _first(order_dp.dp_exact(instance, budget))


def _dp_eps(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from . import order_dp

    return order_dp.dp_eps(instance, eps)[0] if is_feasible(instance) else None


def _untangle_oracle(instance: Instance, budget: Budget, eps: ScalarLike, node_cap: int) -> Optional[Solution]:
    from .untangle import untangle

    found = _oracle(instance, budget, eps, node_cap)
    return None if found is None else untangle(instance, found)[0]


#: Every named solver.  ``dp-eps`` ignores the budget; ``dp-exact`` and
#: ``dp-optimal`` are one solver under two names.
SOLVERS: Mapping[str, Solver] = {
    "oracle": _oracle,
    "fpt": _fpt,
    "dp-exact": _dp_exact,
    "dp-optimal": _dp_exact,
    "dp-eps": _dp_eps,
    "untangle-oracle": _untangle_oracle,
}


def _run_one(instance_id: str, instance: Instance, name: str, eps: ScalarLike, node_cap: int) -> RunRecord:
    start = time.perf_counter()
    try:
        solution = SOLVERS[name](instance, None, eps, node_cap)
        status = STATUS_INFEASIBLE if solution is None else STATUS_OK
    except ResourceLimitError:
        solution, status = None, STATUS_RESOURCE
    elapsed = int((time.perf_counter() - start) * 1000)
    value = None if solution is None else cost(instance, solution)
    return RunRecord(
        instance=instance_id,
        algo=name,
        status=status,
        cost=value,
        ref_cost=None,
        ratio=None,
        time_ms=elapsed,
    )


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
    unknown = sorted({reference, *algorithms}.difference(SOLVERS))
    if unknown:
        raise ValueError(f"unknown algorithm {unknown[0]!r}; pick from {sorted(SOLVERS)}")
    # Load the solver modules before any run is timed, so no time_ms counts an import.
    from . import exact, order_dp

    ref_record = _run_one(instance_id, instance, reference, eps, node_cap)
    records = []
    for name in algorithms:
        if name == reference:
            record = ref_record
        else:
            record = _run_one(instance_id, instance, name, eps, node_cap)
        ref_cost = ref_record.cost if record.status == STATUS_OK else None
        ratio = None
        if record.cost is not None and ref_cost is not None and ref_cost > 0:
            ratio = record.cost / ref_cost
        records.append(
            RunRecord(
                instance=record.instance,
                algo=record.algo,
                status=record.status if ref_record.status == STATUS_OK else ref_record.status,
                cost=record.cost,
                ref_cost=ref_cost,
                ratio=ratio,
                time_ms=record.time_ms,
            )
        )
    return sorted(records, key=lambda r: (r.instance, r.algo))


#: family -> its swept grid key, then the keys it fixes to one value
_SWEEP_KEYS = {"fig5": ("L", "rho"), "fig6": ("m", "rho", "delta")}


def ratio_sweep(
    family: str,
    grid: Mapping[str, Sequence],
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[RunRecord]:
    """Run a family's ratio experiment over a parameter grid.

    fig5 measures the optimal order-preserving cost against the unrestricted
    optimum; fig6 measures the cost of untangling the oracle's optimum
    against that optimum.  The grid sweeps ``L`` (fig5) or ``m`` (fig6);
    ``rho`` (default 2) and fig6's ``delta`` (default 1/8) take one value.
    A grid that lacks the swept key, or holds a key the family does not
    read, is refused before any run.
    """
    from .generators import gen_fig5, gen_fig6

    if family not in _SWEEP_KEYS:
        raise ValueError(f"unknown sweep family {family!r}")
    keys = _SWEEP_KEYS[family]
    for key in grid:
        if key not in keys:
            raise ValueError(f"{family} sweep does not read grid[{key!r}]")
    if keys[0] not in grid:
        raise ValueError(f"{family} sweep needs grid[{keys[0]!r}]")

    def single(key: str, default: ScalarLike) -> Scalar:
        values = grid.get(key, [default])
        if len(values) != 1:
            raise ValueError(f"grid[{key!r}] must hold exactly one value, got {len(values)}")
        return as_scalar(values[0])

    records: list[RunRecord] = []
    if family == "fig5":
        rho = single("rho", 2)
        for length in grid["L"]:
            instance = gen_fig5(rho, as_scalar(length))
            instance_id = f"fig5:rho={rho}:L={as_scalar(length)}"
            records += compare(
                instance, ["oracle", "dp-optimal"], "oracle", instance_id, node_cap=node_cap
            )
    else:
        rho = single("rho", 2)
        delta = single("delta", Fraction(1, 8))
        for m in grid["m"]:
            instance = gen_fig6(rho, int(m), delta)
            instance_id = f"fig6:rho={rho}:m={int(m)}:delta={delta}"
            records += compare(
                instance,
                ["oracle", "untangle-oracle"],
                "oracle",
                instance_id,
                node_cap=node_cap,
            )
    return records


def records_to_csv(records: Sequence[RunRecord]) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"
