"""Exact-arithmetic domain model for barrier coverage on a line.

A barrier is the segment [0, L].  Each sensor covers a closed interval of
radius r around a movable center; a solution assigns every sensor a new
center, and its cost is the total distance moved.  All coordinates are
`fractions.Fraction`, so coverage and cost comparisons are decided exactly;
nothing in this module (or its tests) may rely on floating-point tolerance.

Exact comparisons need not be Fraction comparisons.  Every instance has
one integer grid 1/d, d the lcm of its denominators; it is computed once
per ``Instance`` and kept on it (``Instance._grid``).  Scaled by d every
coordinate is an int and every comparison keeps its outcome.  This module
is the one grid layer of the package, and each solver module (``exact``,
``order_dp``, ``untangle``) imports from it alone:

* A solver reads the instance's own grid from ``Instance._grid``;
  ``on_grid`` rescales it for extras with other denominators (a budget
  unit, a solution's positions), and ``_solution_on_grid`` puts a solution
  on the grid with its instance.
* The feasibility test, the greedy tiling (``greedy_cover``,
  ``_greedy_tiling``), the home gaps and every coverage check
  (``verify_coverage``, ``minimal_active_set``, ``untangle``'s sweeps) run
  on Python ints.
* An answer goes back to Fractions one way, ``_from_grid``, which takes
  no gcd on the grid 1.

All types are immutable values and all operations are pure functions, so
everything here is safe to share across threads.  The record classes of
every module derive from ``_Value``, defined here: a constructor over the
fields named in ``_fields``, equality, hashing and ``repr`` over their
tuple, pickling by constructor arguments, and no assignment after
``__init__``.  It is written out rather than generated by the standard
library, whose generator costs a small CLI call more import time than its
solve (the README gives the numbers).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Container, Iterable, Optional, Sequence, Union

Scalar = Fraction

ScalarLike = Union[Scalar, int, str]

#: An exact number: a Fraction, or an int on a scaled integer grid.
Number = Union[Scalar, int]

#: Positions of all sensors, index-aligned with ``Instance.sensors``.
Solution = tuple[Scalar, ...]

#: Sorted sensor indices whose intervals alone cover the barrier.
ActiveSet = tuple[int, ...]


class InfeasibleError(Exception):
    """The barrier cannot be covered (or a covering solution was required)."""


class ResourceLimitError(Exception):
    """A search exceeded its configured resource cap; not a 'no solution'."""


#: The exhaustive searches' default node cap; kept here so the CLI and harness
#: can default to it without importing ``exact``.
DEFAULT_NODE_CAP = 10**8


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce to an exact rational; floats are refused to keep arithmetic exact.

    A plain ``Fraction`` is returned as it is (it is immutable).
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int or 'p/q' string")
    return Fraction(value)


#: Sets a field in ``__init__``, past ``_Value.__setattr__``'s refusal.
_set = object.__setattr__


class _Value:
    """Base of the package's immutable records.

    A subclass names its fields once, in ``_fields``.  ``__init__`` binds
    them by position or keyword, raising ``TypeError`` on a missing,
    unknown or repeated argument, and ``_values`` returns them in order.
    A record writes its own ``__init__``, setting the fields with ``_set``,
    only to validate or normalise them (``Sensor``, ``Instance``,
    ``CrossingPair``, ``ExactCoverInstance``).  ``DpTable.__init__`` calls
    this one and only adds the keyword ``fills``, kept outside the fields.
    Instances of one class are equal when their field tuples are, the hash
    is the field tuple's, and ``repr`` prints ``Class(name=value, ...)``.
    Pickle and copy rebuild through the constructor, so a cache kept
    outside the fields (``Instance._grid``) is recomputed, not carried.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        for name, value in zip(fields, args):
            _set(self, name, value)
        if kwargs or len(args) != len(fields):
            who = f"{self.__class__.__qualname__}()"
            if len(args) > len(fields):
                raise TypeError(f"{who} takes {len(fields)} arguments, got {len(args)}")
            rest = fields[len(args) :]
            for name in kwargs:
                if name not in rest:
                    problem = "multiple values for" if name in fields else "an unexpected"
                    raise TypeError(f"{who} got {problem} argument {name!r}")
            for name in rest:
                if name not in kwargs:
                    raise TypeError(f"{who} missing argument {name!r}")
                _set(self, name, kwargs[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Sensor(_Value):
    """One mobile sensor: initial center ``x`` and fixed radius ``r > 0``."""

    __slots__ = _fields = ("x", "r")
    x: Scalar
    r: Scalar

    def __init__(self, x: ScalarLike, r: ScalarLike) -> None:
        x, r = as_scalar(x), as_scalar(r)
        if r <= 0:
            raise ValueError(f"sensor radius must be positive, got {r}")
        _set(self, "x", x)
        _set(self, "r", r)


class Instance(_Value):
    """A barrier ``[0, length]`` plus sensors, kept sorted by (x, r).

    The constructor normalizes: sensors are re-sorted (stably) so that index
    ``i`` always means position ``i`` in (x, r)-ascending order.  No
    ``__slots__``: the instance's ``__dict__`` holds ``_grid``.
    """

    _fields = ("length", "sensors")
    length: Scalar
    sensors: tuple[Sensor, ...]

    def __init__(self, length: ScalarLike, sensors: Iterable[Sensor]) -> None:
        length = as_scalar(length)
        if length < 0:
            raise ValueError(f"barrier length must be >= 0, got {length}")
        _set(self, "length", length)
        _set(self, "sensors", tuple(sorted(sensors, key=lambda s: (s.x, s.r))))

    @property
    def n(self) -> int:
        return len(self.sensors)

    def home(self) -> Solution:
        """The no-movement solution."""
        return tuple([s.x for s in self.sensors])

    @cached_property
    def _grid(self) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
        """``(d, L*d, xs*d, rs*d)`` on the instance's own grid 1/d, d the lcm of its denominators.

        Computed on first read and kept in the instance's ``__dict__``; it is
        not a field, so equality, hashing and ``repr`` ignore it.  A solver
        that needs only this grid reads it here, and must not change it (the
        two sequences are tuples); ``on_grid`` is the one function that
        rescales it for extras, and returns fresh lists.
        """
        dens = [self.length.denominator]
        for s in self.sensors:
            dens.append(s.x.denominator)
            dens.append(s.r.denominator)
        d = math.lcm(*dens)
        return (
            d,
            _to_grid(self.length, d),
            tuple(_to_grid(s.x, d) for s in self.sensors),
            tuple(_to_grid(s.r, d) for s in self.sensors),
        )


class CoverageReport(_Value):
    """Result of checking a solution: covered flag plus all maximal gaps.

    Gaps are the open uncovered sub-intervals of [0, L], pairwise disjoint
    and sorted; ``covered`` holds exactly when there are none.
    """

    __slots__ = _fields = ("covered", "gaps")
    covered: bool
    gaps: tuple[tuple[Scalar, Scalar], ...]


def as_solution(instance: Instance, values: Iterable[ScalarLike]) -> Solution:
    """Coerce positions to Fractions, enforcing one position per sensor."""
    out = tuple(map(as_scalar, values))
    if len(out) != instance.n:
        raise ValueError(f"expected {instance.n} positions, got {len(out)}")
    return out


def cost(instance: Instance, solution: Sequence[ScalarLike]) -> Scalar:
    """Total movement: sum over sensors of |new center - initial center|."""
    y = as_solution(instance, solution)
    return sum((abs(yi - s.x) for s, yi in zip(instance.sensors, y)), start=Fraction(0))


def moved_indices(instance: Instance, solution: Sequence[ScalarLike]) -> tuple[int, ...]:
    """Indices of sensors whose position differs from their initial one."""
    y = as_solution(instance, solution)
    return tuple(i for i, (s, yi) in enumerate(zip(instance.sensors, y)) if yi != s.x)


def _clipped_spans(
    radii: Sequence[Number],
    centers: Sequence[Number],
    length: Number,
    indices: Iterable[int],
) -> list[tuple[Number, Number, int]]:
    """Covered intervals as ``(lo, hi, i)``, clipped to the barrier [0, length].

    Intervals that miss the barrier are left out; degenerate points are
    kept.  Works on any exact number type: the package passes grid ints,
    the tests' Fraction references pass Fractions.  Radii are positive and
    length is not negative, so an interval meets the barrier iff
    lo <= length and hi >= 0; each end is then clipped as ``max(lo, 0)``
    and ``min(hi, length)`` would clip it, by comparisons, which cost a
    third of those calls.
    """
    spans = []
    for i in indices:
        c, r = centers[i], radii[i]
        lo, hi = c - r, c + r
        if lo <= length and hi >= 0:
            spans.append((lo if lo >= 0 else 0, hi if hi <= length else length, i))
    return spans


def _covers(
    spans: Sequence[tuple[Number, Number, int]],
    keep: Container[int],
    length: Number,
    reach: Number = 0,
) -> bool:
    """Do the spans whose index is in ``keep`` cover [0, length]?

    ``spans`` come from ``_clipped_spans``, sorted by (lo, hi, i); ``untangle``
    passes them unclipped, which gives the same answer (its docstring shows
    why).  One pass, returning at the first gap; any exact number type works.
    The sweep starts at ``reach``, which the caller vouches is covered up to:
    ``untangle`` passes a slice of its spans and the reach of those before it.
    """
    for lo, hi, i in spans:
        if reach >= length:
            return True
        if i in keep:
            if lo > reach:
                return False
            if hi > reach:
                reach = hi
    return reach >= length


def _gaps(spans: Iterable[tuple[Number, Number, int]], length: Number) -> list[tuple[Number, Number]]:
    """Every maximal uncovered stretch of [0, length], in order.

    ``spans`` come from ``_clipped_spans``, sorted by lo.  Intervals are
    closed, so touching endpoints leave no gap; any exact number type works.
    """
    gaps = []
    cursor = 0 * length  # zero of the caller's number type
    for lo, hi, _ in spans:
        if lo > cursor:
            gaps.append((cursor, lo))
        if hi > cursor:
            cursor = hi
    if cursor < length:
        gaps.append((cursor, length))
    return gaps


def _home_gaps(instance: Instance) -> list[tuple[int, int]]:
    """The home solution's gaps on the instance's grid 1/d, swept afresh on every call.

    Their total G is a lower bound on every cover's cost, in grid units:
    moving a sensor by δ covers at most δ of new length.
    """
    _, length, xs, rs = instance._grid
    return _gaps(sorted(_clipped_spans(rs, xs, length, range(instance.n))), length)


def _minimal_cover(
    radii: Sequence[Number],
    centers: Sequence[Number],
    length: Number,
    within: Iterable[int],
) -> Optional[ActiveSet]:
    """The drop rule of ``minimal_active_set`` on any exact number type; the package passes grid ints.

    Returns None when the sensors in ``within`` do not cover [0, length].
    The rule takes candidates in decreasing radius (ties: higher index
    first) and drops each whose removal keeps [0, length] covered.  Only
    the candidates whose check can go either way pay a ``_covers`` sweep:

    * A candidate whose clipped span has no positive length (it misses the
      barrier, or meets it in one point) is dropped without one.  At its
      turn the others cover [0, length] but for at most that point, and a
      finite union of closed spans is closed, so they cover it too; and
      ``_covers`` counts [0, 0] as covered with no span at all.
    * A sole cover is kept without one: a candidate whose clipped span has
      a stretch of positive length that no other candidate covers.  Drops
      only shrink the set, so without it that stretch is uncovered at its
      turn, and its check fails.

    One pass over the lo-sorted spans finds the sole covers and the gaps.
    It keeps the two largest hi seen so far, from different spans (a tie
    counts twice), and the owner of the largest.  Between two consecutive
    distinct lo values, and from the last one to length, a point x is
    covered by exactly the spans seen with hi >= x.  So the open stretch
    (max(prev_lo, second), min(top, lo)) is covered by the owner alone,
    and a lo above top leaves a gap.  At length 0 no span has positive
    length, so no candidate needs a sweep.  A call costs O(n log n + m·n),
    m the candidates with a span of positive length that are not sole
    covers.
    """
    spans = sorted(_clipped_spans(radii, centers, length, set(within)))
    sole = set()
    top = second = last = 0
    owner = None
    for lo, hi, i in spans + [(length, length, None)]:
        if lo > top:
            return None
        if lo != last:
            if max(last, second) < min(top, lo):
                sole.add(owner)
            last = lo
        if hi > top:
            second, top, owner = top, hi, i
        elif hi > second:
            second = hi
    keep = {i for lo, hi, i in spans if lo < hi}
    for i in sorted(keep - sole, key=lambda i: (-radii[i], -i)):
        keep.discard(i)
        if not _covers(spans, keep, length):
            keep.add(i)
    return tuple(sorted(keep))


def _checked_indices(instance: Instance, indices: Iterable[int]) -> list[int]:
    """``indices`` as a list, refused unless every one names a sensor of ``instance``.

    A negative index would otherwise read a sensor from the end, and one
    past the last would fail deep inside a sweep.
    """
    idx = list(indices)
    if idx and not (0 <= min(idx) and max(idx) < instance.n):
        raise ValueError("active set indices out of range")
    return idx


def verify_coverage(
    instance: Instance,
    solution: Sequence[ScalarLike],
    indices: Optional[Iterable[int]] = None,
) -> CoverageReport:
    """Sweep the clipped intervals and report every maximal uncovered gap.

    Intervals are closed, so touching endpoints leave no gap.  ``indices``
    restricts the check to a subset of sensors (used for active-set work);
    an index outside range(n) raises ValueError.  An empty barrier (L = 0)
    counts as covered.  The sweep runs on the grid of
    ``_solution_on_grid``; only the gaps it finds are turned back into
    Fractions.
    """
    idx = range(instance.n) if indices is None else _checked_indices(instance, indices)
    d, length, _, radii, centers = _solution_on_grid(instance, solution)
    gaps = _gaps(sorted(_clipped_spans(radii, centers, length, idx)), length)
    return CoverageReport(not gaps, tuple([(_from_grid(lo, d), _from_grid(hi, d)) for lo, hi in gaps]))


def is_feasible(instance: Instance) -> bool:
    """Sensors may move anywhere, so total interval length is the only obstruction.

    Decided on the instance's grid: 2 * sum(r*d) >= L*d.
    """
    _, length, _, radii = instance._grid
    return 2 * sum(radii) >= length


def greedy_cover(instance: Instance) -> tuple[Solution, Scalar]:
    """Left-to-right tiling; a cheap order-preserving upper bound, not optimal.

    Sensors are stacked edge to edge from 0 until the barrier is covered;
    the rest stay home.  The tiling runs on the instance's grid
    (``_greedy_tiling``); only the tiled positions and the cost become
    Fractions.
    """
    if not is_feasible(instance):
        raise InfeasibleError("total sensor length is below the barrier length")
    d, length, xs, rs = instance._grid
    centers, moved = _greedy_tiling(length, xs, rs)
    y = [s.x for s in instance.sensors]
    for i, center in enumerate(centers):
        y[i] = _from_grid(center, d)
    return tuple(y), _from_grid(moved, d)


def _greedy_tiling(length: int, xs: Sequence[int], rs: Sequence[int]) -> tuple[list[int], int]:
    """``greedy_cover`` on the grid: the centers of the sensors it tiles, a prefix, and its cost.

    Every sensor past the prefix stays home.  ``exact.brute_force`` takes
    its incumbent from here, and ``brute_force_order_preserving``,
    ``dp_exact`` and ``dp_eps`` their budget cap, with no Fraction made.
    """
    centers = []
    reach = moved = 0
    for x, r in zip(xs, rs):
        if reach >= length:
            break
        center = reach + r
        centers.append(center)
        moved += abs(center - x)
        reach += 2 * r
    return centers, moved


def minimal_active_set(
    instance: Instance,
    solution: Sequence[ScalarLike],
    within: Optional[Iterable[int]] = None,
) -> ActiveSet:
    """Inclusion-minimal set of sensors that still covers the barrier.

    Deterministic rule: scan candidates in decreasing radius (ties: higher
    index first) and drop any sensor whose removal keeps [0, L] covered.
    A single pass is enough: once a removal fails it fails for every
    smaller surviving set as well.  ``_minimal_cover`` applies the rule on
    the grid of ``_solution_on_grid`` and sweeps only for the candidates it
    cannot decide in one pass (its docstring shows why).  An index of
    ``within`` outside range(n) raises ValueError.
    """
    within = range(instance.n) if within is None else _checked_indices(instance, within)
    _, length, _, radii, centers = _solution_on_grid(instance, solution)
    active = _minimal_cover(radii, centers, length, within)
    if active is None:
        raise InfeasibleError("solution does not cover the barrier")
    return active


def is_order_preserving(
    instance: Instance,
    solution: Sequence[ScalarLike],
    active_set: Iterable[int],
) -> bool:
    """True iff positions restricted to the active set strictly increase.

    ``active_set`` is read as a set, as ``minimal_active_set`` reads
    ``within``: a repeated index is one sensor, not a descent.
    """
    idx = sorted(set(_checked_indices(instance, active_set)))
    y = as_solution(instance, solution)
    return all(y[a] < y[b] for a, b in zip(idx, idx[1:]))


def radius_ratio(instance: Instance) -> Scalar:
    """Largest radius divided by smallest radius."""
    if instance.n == 0:
        raise ValueError("radius ratio of an empty instance is undefined")
    radii = [s.r for s in instance.sensors]
    return max(radii) / min(radii)


def integral_scale_factor(instance: Instance) -> int:
    """Smallest positive integer c making L and every x and r integral once scaled by c."""
    return instance._grid[0]


def on_grid(instance: Instance, *extra: Number) -> tuple[int, int, list[int], list[int]]:
    """The instance on the integer grid: ``(d, L*d, [x*d], [r*d])``.

    d is the lcm of ``integral_scale_factor(instance)`` and the denominators
    of ``extra`` (a budget unit, solution positions).  Scaling by d > 0 keeps
    every comparison and multiplies every cost by d, so a solver may run on
    these ints and divide its answer by d.

    The instance's own grid is computed once per ``Instance`` and kept on
    it; an extra with a new denominator rescales it by the int factor
    lcm(d, extras) / d.  The lists are fresh on every call, so a caller may
    change them.
    """
    d, length, xs, rs = instance._grid
    f = math.lcm(d, *(v.denominator for v in extra)) // d
    if f == 1:
        return d, length, list(xs), list(rs)
    return d * f, length * f, [x * f for x in xs], [r * f for r in rs]


def _solution_on_grid(
    instance: Instance, solution: Sequence[ScalarLike]
) -> tuple[int, int, list[int], list[int], list[int]]:
    """``on_grid(instance, *y)`` and the positions y on that grid: ``(d, L*d, [x*d], [r*d], [y*d])``.

    y is ``as_solution(instance, solution)``, so a wrong count or a float
    raises as there.  Every list is fresh.
    """
    y = as_solution(instance, solution)
    d, length, xs, rs = on_grid(instance, *y)
    return d, length, xs, rs, [_to_grid(v, d) for v in y]


def _to_grid(value: Number, d: int) -> int:
    """``value * d`` as an int, for a grid d that is a multiple of value's denominator.

    Exact, and cheaper than the Fraction product: no gcd is taken.
    """
    return value.numerator * (d // value.denominator)


def _from_grid(value: int, d: int) -> Scalar:
    """``value / d`` as a Fraction, by the cheapest exact route: on the grid 1 no gcd is taken."""
    return Fraction(value) if d == 1 else Fraction(value, d)


def grid_units(budget: ScalarLike, d: int) -> int:
    """A budget in input units as whole steps of the grid 1/d: floor(budget * d).

    Exact for the grid solvers, whose costs on the grid are integers.
    """
    b = as_scalar(budget)
    if b < 0:
        raise ValueError(f"budget must be >= 0, got {b}")
    return math.floor(b * d)


def scale_instance(instance: Instance, factor: ScalarLike) -> Instance:
    """Multiply every coordinate (length, centers, radii) by ``factor``."""
    c = as_scalar(factor)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return Instance(
        length=instance.length * c,
        sensors=tuple(Sensor(s.x * c, s.r * c) for s in instance.sensors),
    )
