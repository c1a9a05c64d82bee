"""Reference Fraction paths of the model: the coverage sweep, feasibility and the greedy tiling.

``barriercover.model.verify_coverage``, ``model.is_feasible`` and
``model.greedy_cover`` run on the instance's integer grid and convert
only what they return to Fractions.  The first three functions below are
those three as they stood before, when every coordinate stayed a Fraction,
copied verbatim; the library's versions must return exactly what these do,
Fraction types included.

``minimal_cover`` is ``model._minimal_cover`` as it stood when every
candidate paid one ``_covers`` sweep, copied verbatim; the library's
version skips the sweeps whose answer is known and must return exactly
what this one does, None included.

``max_stab_count`` and ``scale_solution`` are test helpers that no solver
calls; they left ``barriercover.model`` and are kept here verbatim for the
acceptance gate C8 and the untangle scaling test.  ``_radii``, which the
Fraction paths above read, left it verbatim too, once every coverage check
in the library ran on the grid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from barriercover.model import (
    ActiveSet,
    CoverageReport,
    InfeasibleError,
    Instance,
    Number,
    Scalar,
    ScalarLike,
    Solution,
    _clipped_spans,
    _covers,
    _gaps,
    as_scalar,
    as_solution,
)


def _radii(instance: Instance) -> tuple[Scalar, ...]:
    return tuple(s.r for s in instance.sensors)


def verify_coverage(
    instance: Instance,
    solution: Sequence[ScalarLike],
    indices: Optional[Iterable[int]] = None,
) -> CoverageReport:
    """Sweep the clipped intervals and report every maximal uncovered gap.

    Intervals are closed, so touching endpoints leave no gap.  ``indices``
    restricts the check to a subset of sensors (used for active-set work).
    An empty barrier (L = 0) counts as covered.
    """
    y = as_solution(instance, solution)
    idx = range(instance.n) if indices is None else indices
    gaps = _gaps(sorted(_clipped_spans(_radii(instance), y, instance.length, idx)), instance.length)
    return CoverageReport(covered=not gaps, gaps=tuple(gaps))


def is_feasible(instance: Instance) -> bool:
    """Sensors may move anywhere, so total interval length is the only obstruction."""
    return sum(2 * s.r for s in instance.sensors) >= instance.length


def greedy_cover(instance: Instance) -> tuple[Solution, Scalar]:
    """Left-to-right tiling; a cheap order-preserving upper bound, not optimal.

    Sensors are stacked edge to edge from 0 until the barrier is covered;
    the rest stay home.
    """
    if not is_feasible(instance):
        raise InfeasibleError("total sensor length is below the barrier length")
    y = list(instance.home())
    reach = moved = Fraction(0)
    for i, s in enumerate(instance.sensors):
        if reach >= instance.length:
            break
        y[i] = reach + s.r
        moved += abs(y[i] - s.x)
        reach += 2 * s.r
    return tuple(y), moved


def minimal_cover(
    radii: Sequence[Number],
    centers: Sequence[Number],
    length: Number,
    within: Iterable[int],
) -> Optional[ActiveSet]:
    """The drop rule of ``minimal_active_set`` on any exact number type.

    Returns None when the sensors in ``within`` do not cover [0, length].
    The spans are clipped and sorted once; each candidate then costs one
    ``_covers`` sweep.
    """
    keep = set(within)
    spans = sorted(_clipped_spans(radii, centers, length, keep))
    if not _covers(spans, keep, length):
        return None
    for i in sorted(keep, key=lambda i: (-radii[i], -i)):
        keep.discard(i)
        if not _covers(spans, keep, length):
            keep.add(i)
    return tuple(sorted(keep))


def max_stab_count(
    instance: Instance,
    solution: Sequence[ScalarLike],
    indices: Iterable[int],
) -> int:
    """Largest number of the chosen intervals sharing one point of [0, L].

    With closed intervals the maximum is attained at an interval endpoint,
    so checking clipped endpoints is exhaustive.
    """
    y = as_solution(instance, solution)
    spans = _clipped_spans(_radii(instance), y, instance.length, sorted(indices))
    points = {p for lo, hi, _ in spans for p in (lo, hi)}
    best = 0
    for p in points:
        best = max(best, sum(1 for lo, hi, _ in spans if lo <= p <= hi))
    return best


def scale_solution(solution: Sequence[ScalarLike], factor: ScalarLike) -> Solution:
    """Multiply every position by ``factor`` (same grid change as the instance)."""
    c = as_scalar(factor)
    return tuple(as_scalar(v) * c for v in solution)
