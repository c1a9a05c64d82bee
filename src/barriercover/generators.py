"""Instance families, the exact-cover reduction, and seeded random instances.

The two named families ("fig5" and "fig6" in the CLI) both put a single large
sensor at the left end of a row of unit sensors.  In fig5 the row tiles the
barrier exactly, so any solution that keeps index order must shuffle the whole
row instead of sending the large sensor across it.  fig6 does not force that:
its optimum is the order-preserving nudge described in ``gen_fig6``, where the
large sensor's spare length absorbs the row's gaps.

Every generator refuses more than ``SENSOR_CAP`` sensors (``ResourceLimitError``,
CLI exit 3) from the closed-form count, before it builds a sensor.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable

from .model import (
    Instance,
    ResourceLimitError,
    Scalar,
    ScalarLike,
    Sensor,
    _set,
    _Value,
    as_scalar,
)

_MASK64 = (1 << 64) - 1

#: Most sensors a generated instance may hold.
SENSOR_CAP = 100_000


def _check_size(n: int) -> None:
    if n > SENSOR_CAP:
        raise ResourceLimitError(f"{n} sensors exceed the generator cap {SENSOR_CAP}")


class RandomStream:
    """Self-contained splitmix64 stream; fixed algorithm, stable across runs.

    The output sequence is part of the golden-file contract: changing the
    constants or the draw order breaks recorded instances.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_raw(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_raw() % (hi - lo + 1)


class ExactCoverInstance(_Value):
    """Set-cover-with-disjointness input: universe {1..m}, subsets, size bound."""

    __slots__ = _fields = ("universe_size", "sets", "max_sets")
    universe_size: int
    sets: tuple[frozenset[int], ...]
    max_sets: int

    def __init__(self, universe_size: int, sets: Iterable[Iterable[int]], max_sets: int) -> None:
        if universe_size < 0:
            raise ValueError("universe size must be >= 0")
        if max_sets < 0:
            raise ValueError("solution size bound must be >= 0")
        sets = tuple(frozenset(s) for s in sets)
        for s in sets:
            if not s:
                raise ValueError("subsets must be nonempty")
            if not all(isinstance(j, int) and 1 <= j <= universe_size for j in s):
                raise ValueError(f"subset {sorted(s)} leaves the universe")
        _set(self, "universe_size", universe_size)
        _set(self, "sets", sets)
        _set(self, "max_sets", max_sets)


class ReductionOutput(_Value):
    """Barrier instance encoding an exact-cover question as a k-mover budget query.

    ``source_sets[i]`` is the index of the subset that sensor ``i`` (in the
    instance's sorted order) encodes.  Radii are half-integers, which the
    solvers put on their grid (``model.on_grid``) themselves.
    """

    __slots__ = _fields = ("instance", "budget", "movers", "source_sets")
    instance: Instance
    budget: Scalar
    movers: int
    source_sets: tuple[int, ...]


def gen_fig5(rho: ScalarLike, length: ScalarLike) -> Instance:
    """Large sensor at 0 plus unit sensors tiling [0, L - 2*rho] exactly.

    Total interval length equals L, so every feasible solution is a perfect
    tiling of the barrier.  Requires L > 2*rho and (L - 2*rho)/2 integral.
    """
    rho = as_scalar(rho)
    length = as_scalar(length)
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if length <= 2 * rho:
        raise ValueError("barrier must be longer than the large sensor")
    count = (length - 2 * rho) / 2
    if count.denominator != 1 or count <= 0:
        raise ValueError(f"(L - 2*rho)/2 must be a positive integer, got {count}")
    _check_size(int(count) + 1)
    sensors = [Sensor(0, rho)]
    sensors += [Sensor(2 * i + 1, 1) for i in range(int(count))]
    return Instance(length=length, sensors=tuple(sensors))


def gen_fig6(rho: ScalarLike, m: int, delta: ScalarLike) -> Instance:
    """Large sensor at 0 plus m unit sensors spaced 2 + delta apart.

    The unit row starts at 1 and its last interval ends exactly at
    L = 2m + (m-1)*delta, leaving m-1 thin gaps of width delta between
    consecutive unit intervals.  Requires m*delta < 2*rho so the large
    sensor's spare length exceeds the total gap width.

    The optimum is the order-preserving nudge: the large sensor stays home
    and its spare length absorbs the gaps, while unit sensor i (0-based)
    slides (m-1-i)*delta right to close the gaps after it, for a total cost
    of delta*m*(m-1)/2.  Untangling it changes nothing.  The exact oracle
    confirms this for rho=2, delta=1/8 and m <= 12.
    """
    rho = as_scalar(rho)
    delta = as_scalar(delta)
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if m < 1:
        raise ValueError("need at least one unit sensor")
    if delta <= 0:
        raise ValueError("gap width must be positive")
    if m * delta >= 2 * rho:
        raise ValueError("m*delta must stay below 2*rho")
    _check_size(m + 1)
    sensors = [Sensor(0, rho)]
    sensors += [Sensor(1 + i * (2 + delta), 1) for i in range(m)]
    return Instance(length=2 * m + (m - 1) * delta, sensors=tuple(sensors))


def reduce_exact_cover(ec: ExactCoverInstance) -> ReductionOutput:
    """Encode an exact-cover question as a barrier instance plus (B, k) bounds.

    With n subsets and base b = n + 1: element j contributes b^(j-1) to the
    diameter of each sensor whose subset contains it and b^(j+m) to that
    sensor's distance from the barrier; L sums the element weights and the
    budget allows hauling k chosen sensors to the barrier and arranging them.

    Only the weights the subsets use are built.  The sums have closed
    forms: L = b^0 + ... + b^(m-1), the distance weights sum to b^(m+1)*L,
    so B = L*(b^(m+1) + k), and a sensor's distance weight is b^(m+1) times
    its diameter.  These hold at b = 1 (no subsets) too.

    A B with more digits than the interpreter prints
    (``sys.get_int_max_str_digits``, none when 0) raises
    ``ResourceLimitError`` before any sensor is built: no file could hold it,
    as ``fileio.parse_scalar`` refuses such a number on input.  As there, a
    B far past the limit is refused on bit length alone, before it is
    computed: for m >= 1, B >= b^(m-1) * b^(m+1) = b^(2m) >= 2^(2m*(t-1))
    for b of t bits, and 2^(4c) > 10^c.  Any other B is computed, its size
    bounded by that test and by k's, and compared with 10^c once.
    """
    m, n = ec.universe_size, len(ec.sets)
    base = n + 1
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = f"the reduction's budget B has more than {cap:,} digits"
    if cap and 2 * m * (base.bit_length() - 1) >= 4 * cap:
        raise ResourceLimitError(too_long)
    lift = base ** (m + 1)
    length = m if base == 1 else (base**m - 1) // (base - 1)
    budget = length * (lift + ec.max_sets)
    if cap and budget >= 10**cap:
        raise ResourceLimitError(too_long)
    # A sensor's diameter w sums its subset's element weights, and its distance weight is w * lift.
    widths = [sum(base ** (j - 1) for j in subset) for subset in ec.sets]
    sensors = [Sensor(-Fraction(w, 2) - w * lift, Fraction(w, 2)) for w in widths]
    instance = Instance(length=length, sensors=tuple(sensors))
    # ``Instance`` sorts its sensors stably by (x, r); the same stable sort of
    # the set indices gives each sorted sensor's set.
    order = sorted(range(n), key=lambda i: (sensors[i].x, sensors[i].r))
    return ReductionOutput(
        instance=instance,
        budget=Fraction(budget),
        movers=ec.max_sets,
        source_sets=tuple(order),
    )


def gen_random(
    n: int,
    length: ScalarLike,
    r_min: int,
    r_max: int,
    x_range: tuple[int, int],
    seed: int,
) -> Instance:
    """Seeded instance with integer centers and radii; draw order is frozen.

    For each sensor the center is drawn before the radius.  Output is sorted
    by the Instance invariant, so equal seeds give identical instances.
    """
    if n < 0:
        raise ValueError("sensor count must be >= 0")
    if not (0 < r_min <= r_max):
        raise ValueError("need 0 < r_min <= r_max")
    _check_size(n)
    stream = RandomStream(seed)
    sensors = []
    for _ in range(n):
        x = stream.next_int(x_range[0], x_range[1])
        r = stream.next_int(r_min, r_max)
        sensors.append(Sensor(x, r))
    return Instance(length=as_scalar(length), sensors=tuple(sensors))
