from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barriercover import (
    CrossingPair,
    InfeasibleError,
    Instance,
    Sensor,
    cost,
    crossing_pairs,
    is_order_preserving,
    oracle_optimal,
    radius_ratio,
    swap_pair,
    untangle,
    verify_coverage,
)
from barriercover.model import _minimal_cover
from barriercover.untangle import _next_swap, _union_span
from reference_untangle import untangle as reference_untangle
from reference_untangle import walk_next_swap

from conftest import random_corpus

TANGLED = Instance(6, (Sensor(0, 1), Sensor(10, 2)))
I2 = Instance(12, (Sensor(0, 2), Sensor(1, 1), Sensor(3, 1), Sensor(5, 1), Sensor(7, 1)))


class TestCrossingPairs:
    def test_detects_the_cross(self):
        assert crossing_pairs(TANGLED, (5, 2), (0, 1)) == (CrossingPair(0, 1),)

    def test_ordered_solution_has_none(self):
        assert crossing_pairs(TANGLED, (1, 4), (0, 1)) == ()

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            CrossingPair(2, 1)


class TestSwapPair:
    def test_reference_swap(self):
        # Sensor 0 covers [4, 6], sensor 1 covers [0, 4]; swapping inside the
        # union [0, 6] puts them in order and drops the cost from 13 to 7.
        swapped = swap_pair(TANGLED, (5, 2), CrossingPair(0, 1))
        assert swapped == (1, 4)
        assert verify_coverage(TANGLED, swapped).covered
        assert cost(TANGLED, (5, 2)) == 13
        assert cost(TANGLED, swapped) == 7

    def test_identical_radii_exchange_spans(self):
        inst = Instance(4, (Sensor(0, 1), Sensor(4, 1)))
        swapped = swap_pair(inst, (3, 1), CrossingPair(0, 1))
        assert swapped == (1, 3)

    def test_ordered_pair_is_rejected(self):
        with pytest.raises(ValueError):
            swap_pair(TANGLED, (1, 4), CrossingPair(0, 1))

    def test_disjoint_pair_is_rejected(self):
        inst = Instance(9, (Sensor(0, 1), Sensor(1, 1)))
        with pytest.raises(ValueError):
            swap_pair(inst, (8, 1), CrossingPair(0, 1))

    def test_touching_pair_is_swappable(self):
        inst = Instance(4, (Sensor(0, 1), Sensor(4, 1)))
        swapped = swap_pair(inst, (3, 1), CrossingPair(0, 1))
        assert verify_coverage(inst, swapped).covered


class TestUntangle:
    def test_already_ordered_is_a_fixpoint(self):
        solution, active = untangle(TANGLED, (1, 4))
        assert solution == (1, 4)
        assert active == (0, 1)

    def test_inactive_sensors_return_home(self):
        inst = Instance(2, (Sensor(1, 1), Sensor(9, 1)))
        solution, active = untangle(inst, (1, 5))
        assert active == (0,)
        assert solution == (1, 9)

    def test_single_swap_case(self):
        solution, active = untangle(TANGLED, (5, 2))
        assert solution == (1, 4)
        assert active == (0, 1)

    def test_big_sensor_walks_back_across_the_row(self):
        optimum = oracle_optimal(I2)
        assert optimum is not None and optimum[1] == 10
        solution, active = untangle(I2, optimum[0])
        assert solution == (2, 5, 7, 9, 11)
        assert cost(I2, solution) == 18
        assert is_order_preserving(I2, solution, active)

    def test_requires_coverage(self):
        with pytest.raises(InfeasibleError):
            untangle(TANGLED, TANGLED.home())

    def test_corpus_invariants(self):
        checked = 0
        for _, inst, _ in random_corpus(60):
            found = oracle_optimal(inst)
            if found is None:
                continue
            optimum, value = found
            solution, active = untangle(inst, optimum)
            assert verify_coverage(inst, solution, active).covered
            assert is_order_preserving(inst, solution, active)
            for i in range(inst.n):
                if i not in active:
                    assert solution[i] == inst.sensors[i].x
            if value > 0:
                bound = (3 * radius_ratio(inst) + 4) * value
                assert cost(inst, solution) <= bound
            checked += 1
        assert checked >= 20


def brute_next_swap(inst, y, active):
    """The least ((u1, u2), i, j) over every overlapping crossing pair in ``active``."""
    found = []
    for pair in crossing_pairs(inst, y, active):
        span = _union_span(y[pair.i], inst.sensors[pair.i].r, y[pair.j], inst.sensors[pair.j].r)
        if span is not None:
            found.append((span, pair.i, pair.j))
    return min(found, default=None)


def spans_of(inst, y, active):
    return sorted((y[k] - inst.sensors[k].r, y[k] + inst.sensors[k].r, k) for k in active)


def next_swap(inst, y, active):
    """The reference walk's pick, which is the least pair on any spans."""
    return walk_next_swap(spans_of(inst, y, active), y)


def scan_next_swap(inst, y, active):
    """The library's neighbour scan, which is the least pair on a minimal cover's spans.

    Its list position is left out here; ``test_position_holds_the_pair`` checks it.
    """
    found = _next_swap(spans_of(inst, y, active), y)
    return None if found is None else found[:3]


#: Three mutually overlapping spans whose leftmost-union pair, (0, 1) with
#: union [4, 11], is not adjacent in position order (1 at 7, 2 at 9, 0 at 10).
THREE_OVERLAP = Instance(20, (Sensor(0, 1), Sensor(1, 3), Sensor(2, 1)))

_q = st.sampled_from([1, 2, 3])


@st.composite
def crowded_spans(draw):
    """Positions with three or more sensors covering one shared point, and an active subset.

    Nothing asks the spans to cover a barrier or to be minimal, so several
    spans may overlap at once, nest, or coincide.
    """
    n = draw(st.integers(3, 8))
    point = F(draw(st.integers(-8, 8)), draw(_q))
    sensors, y = [], []
    for k in range(n):
        r = F(draw(st.integers(1, 8)), draw(_q))
        if k < 3:
            y.append(point + r * F(draw(st.integers(-4, 4)), 4))
        else:
            y.append(F(draw(st.integers(-24, 24)), draw(_q)))
        sensors.append(Sensor(0, r))
    order = draw(st.permutations(range(n)))
    inst = Instance(1, tuple(sensors[k] for k in order))
    y = tuple(y[k] for k in order)
    shared = {order.index(k) for k in range(3)}
    extra = draw(st.sets(st.integers(0, n - 1)))
    return inst, y, tuple(sorted(shared | extra))


class TestNextSwap:
    """The reference walk agrees with a brute-force minimum, on spans that need not be minimal covers."""

    def test_leftmost_union_pair_need_not_be_position_adjacent(self):
        y = (F(10), F(7), F(9))
        assert next_swap(THREE_OVERLAP, y, (0, 1, 2)) == ((4, 11), 0, 1)
        assert brute_next_swap(THREE_OVERLAP, y, (0, 1, 2)) == ((4, 11), 0, 1)

    def test_no_overlapping_crossing_pair(self):
        assert next_swap(TANGLED, (F(9), F(2)), (0, 1)) is None  # crossing but disjoint
        assert next_swap(TANGLED, (F(1), F(4)), (0, 1)) is None  # in order

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(crowded_spans())
    def test_matches_brute_force(self, case):
        inst, y, active = case
        assert next_swap(inst, y, active) == brute_next_swap(inst, y, active)


@st.composite
def minimal_covers(draw):
    """A drawn cover of [0, L], minimized by the library's drop rule, with its positions.

    Sensors are laid left to right in a drawn index order from a start at or
    left of 0, each overlapping the previous one by a drawn amount that is
    0 (touching) about half the time; a few more go anywhere.  Positions and
    radii are integers or rationals.  The drop rule then leaves a minimal
    cover whose index order is crossed wherever the drawn order was.
    """
    n = draw(st.integers(2, 9))
    radii = [F(draw(st.integers(1, 6)), draw(_q)) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    chained = draw(st.integers(2, n))
    y = [F(0)] * n
    edge = F(-draw(st.integers(0, 4)), draw(_q))
    for k in order[:chained]:
        overlap = draw(st.sampled_from([0, 0, 0, 1, 2])) * radii[k] / 3
        y[k] = edge - overlap + radii[k]
        edge = y[k] + radii[k]
    for k in order[chained:]:
        y[k] = F(draw(st.integers(-12, 36)), draw(_q))
    length = max(edge - F(draw(st.integers(0, 4)), draw(_q)), F(1, 3))
    active = _minimal_cover(radii, y, length, range(n))
    assume(active is not None)
    inst = Instance(length, tuple(Sensor(k, r) for k, r in enumerate(radii)))  # homes keep index order
    return inst, tuple(y), active


#: Unit sensors tiled in reverse index order: both neighbour pairs cross and touch.
REVERSED = Instance(6, (Sensor(0, 1), Sensor(0, 1), Sensor(0, 1)))


class TestNeighbourScan:
    """On a minimal cover, the first crossing neighbour pair is the least pair of the walk and of brute force."""

    def test_touching_neighbours_cross(self):
        assert scan_next_swap(TANGLED, (F(5), F(2)), (0, 1)) == ((0, 6), 0, 1)

    def test_first_of_several_crossing_pairs(self):
        y = (F(5), F(3), F(1))
        assert scan_next_swap(REVERSED, y, (0, 1, 2)) == ((0, 4), 1, 2)
        assert brute_next_swap(REVERSED, y, (0, 1, 2)) == ((0, 4), 1, 2)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(minimal_covers())
    def test_matches_walk_and_brute_force(self, case):
        inst, y, active = case
        want = brute_next_swap(inst, y, active)
        assert scan_next_swap(inst, y, active) == want
        assert next_swap(inst, y, active) == want

    def test_position_of_the_first_of_several_pairs(self):
        spans = spans_of(REVERSED, (F(5), F(3), F(1)), (0, 1, 2))
        assert _next_swap(spans, (F(5), F(3), F(1))) == ((0, 4), 1, 2, 0)
        assert _next_swap(spans, (F(5), F(3), F(1)), 1) == ((2, 6), 0, 1, 1)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(minimal_covers(), st.integers(0, 8))
    def test_position_holds_the_pair(self, case, start):
        """The returned p is the pair's list position, ``spans[p]`` and ``spans[p + 1]``, from any start."""
        inst, y, active = case
        spans = spans_of(inst, y, active)
        found = _next_swap(spans, y, start)
        if found is not None:
            span, i, j, p = found
            assert p >= start
            assert sorted((spans[p][2], spans[p + 1][2])) == [i, j]
            assert span[0] == spans[p][0]


def untangled(inst, y):
    """``untangle``'s result, checked against the reference loop's."""
    y = tuple(F(v) for v in y)
    got = untangle(inst, y)
    assert got == reference_untangle(inst, y)
    return got


class TestLocalChecks:
    """Each swap checks coverage and drops on the entries from the pair's to the one right of it.

    P is the entry left of the swapped pair and Q the one right of it; the
    sweep starts at P's reach.  In each case the first pick is the named
    one, and the result must equal the reference loop's.
    """

    def test_pair_at_the_front_has_no_left_neighbour(self):
        inst = Instance(8, (Sensor(0, 1), Sensor(1, 2), Sensor(2, 1)))
        y = (F(5), F(2), F(7))
        assert scan_next_swap(inst, y, (0, 1, 2)) == ((0, 6), 0, 1)
        assert untangled(inst, y) == ((1, 4, 7), (0, 1, 2))

    def test_pair_at_the_end_has_no_right_neighbour(self):
        """The big sensor swaps with the last unit, then with the first from the list's front."""
        inst = Instance(8, (Sensor(0, 2), Sensor(1, 1), Sensor(2, 1)))
        y = (F(6), F(1), F(3))
        assert scan_next_swap(inst, y, (0, 1, 2)) == ((2, 8), 0, 2)
        assert scan_next_swap(inst, (F(4), F(1), F(7)), (0, 1, 2)) == ((0, 6), 0, 1)
        assert untangled(inst, y) == ((2, 5, 7), (0, 1, 2))

    def test_right_moved_sensor_inside_right_neighbour_is_dropped(self):
        inst = Instance(19, (Sensor(0, 5), Sensor(1, 1), Sensor(2, 7)))
        y = (F(6), F(1), F(12))  # j = 1 lands on [9, 11], inside Q = [5, 19]
        assert scan_next_swap(inst, y, (0, 1, 2)) == ((0, 11), 0, 1)
        assert untangled(inst, y) == ((5, 1, 12), (0, 2))

    def test_right_moved_sensor_covered_by_touching_spans_is_dropped(self):
        """j lands on [5, 7] ahead of Q = [6, 12] in the list; i's new [0, 6] touches Q."""
        inst = Instance(12, (Sensor(0, 3), Sensor(1, 1), Sensor(2, 3)))
        y = (F(4), F(1), F(9))
        assert scan_next_swap(inst, y, (0, 1, 2)) == ((0, 7), 0, 1)
        assert untangled(inst, y) == ((3, 1, 9), (0, 2))

    def test_left_moved_sensor_inside_left_neighbours_reach_is_dropped(self):
        """i lands on [10, 12], which P = [0, 12] already reaches; j keeps [11, 17]."""
        inst = Instance(17, (Sensor(0, 6), Sensor(1, 1), Sensor(2, 3)))
        y = (F(6), F(16), F(13))
        assert scan_next_swap(inst, y, (0, 1, 2)) == ((10, 17), 1, 2)
        assert untangled(inst, y) == ((6, 1, 14), (0, 2))
