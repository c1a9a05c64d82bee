import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barriercover import (
    Instance,
    InfeasibleError,
    Sensor,
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

from barriercover.model import _covers, grid_units, on_grid
from conftest import random_corpus

_rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))

I1 = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
I2 = Instance(12, (Sensor(0, 2), Sensor(1, 1), Sensor(3, 1), Sensor(5, 1), Sensor(7, 1)))


def small_instances():
    return st.builds(
        Instance,
        st.integers(min_value=0, max_value=10),
        st.lists(
            st.builds(
                Sensor,
                st.integers(min_value=-8, max_value=12),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=0,
            max_size=5,
        ).map(tuple),
    )


class TestTypes:
    def test_sensor_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Sensor(0, 0)
        with pytest.raises(ValueError):
            Sensor(0, -1)

    def test_floats_are_rejected_everywhere(self):
        with pytest.raises(TypeError):
            Sensor(0.5, 1)
        with pytest.raises(TypeError):
            Instance(4.0, (Sensor(0, 1),))
        with pytest.raises(TypeError):
            as_scalar(0.25)

    def test_instance_sorts_sensors_by_x_then_r(self):
        inst = Instance(4, (Sensor(3, 1), Sensor(0, 2), Sensor(0, 1)))
        assert [(s.x, s.r) for s in inst.sensors] == [(0, 1), (0, 2), (3, 1)]

    def test_instance_rejects_negative_length(self):
        with pytest.raises(ValueError):
            Instance(-1, ())

    def test_rational_strings_parse(self):
        s = Sensor("1/2", "5/2")
        assert s.x == F(1, 2) and s.r == F(5, 2)


class TestAsScalar:
    def test_a_fraction_comes_back_as_it_is(self):
        value = F(7, 3)
        assert as_scalar(value) is value

    def test_a_fraction_subclass_becomes_a_plain_fraction(self):
        class Tagged(F):
            pass

        got = as_scalar(Tagged(7, 3))
        assert type(got) is F and got == F(7, 3)

    @pytest.mark.parametrize("value, want", [(0, F(0)), (-4, F(-4)), ("5/2", F(5, 2)), ("-3/6", F(-1, 2)), ("7", F(7))])
    def test_ints_and_strings_convert(self, value, want):
        got = as_scalar(value)
        assert type(got) is F and got == want

    @pytest.mark.parametrize("value", [0.25, 2.0, float("inf")])
    def test_floats_raise(self, value):
        with pytest.raises(TypeError):
            as_scalar(value)


class TestCost:
    def test_two_sensor_example(self):
        assert cost(I1, (1, 3)) == 3

    def test_no_movement_costs_nothing(self):
        assert cost(I1, I1.home()) == 0

    def test_moving_only_the_big_sensor(self):
        assert cost(I2, (10, 1, 3, 5, 7)) == 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cost(I1, (1, 2, 3))


class TestCoverage:
    def test_covering_solution(self):
        report = verify_coverage(I1, (1, 3))
        assert report.covered and report.gaps == ()

    def test_home_positions_leave_one_gap(self):
        report = verify_coverage(I1, I1.home())
        assert not report.covered
        assert report.gaps == ((F(1), F(4)),)

    def test_empty_barrier_is_covered(self):
        assert verify_coverage(Instance(0, ()), ()).covered
        inst = Instance(0, (Sensor(100, 1),))
        assert verify_coverage(inst, inst.home()).covered

    def test_touching_intervals_leave_no_gap(self):
        inst = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
        assert verify_coverage(inst, inst.home()).covered

    def test_no_sensors_one_gap(self):
        report = verify_coverage(Instance(5, ()), ())
        assert report.gaps == ((F(0), F(5)),)

    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.lists(st.integers(-8, 14), min_size=0, max_size=5))
    def test_gap_report_matches_pointwise_check(self, inst, moves):
        y = tuple(s.x + (moves[i] if i < len(moves) else 0) for i, s in enumerate(inst.sensors))
        report = verify_coverage(inst, y)
        if inst.length == 0:
            assert report.covered
            return
        quarter = F(1, 4)
        p = F(0)
        while p <= inst.length:
            in_open_gap = any(lo < p < hi for lo, hi in report.gaps)
            on_gap_closure = any(lo <= p <= hi for lo, hi in report.gaps)
            in_interval = any(
                yi - s.r <= p <= yi + s.r for s, yi in zip(inst.sensors, y)
            )
            if in_interval:
                assert not in_open_gap
            else:
                assert on_gap_closure
            p += quarter

    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.lists(st.integers(-3, 3), min_size=0, max_size=5))
    def test_zero_cost_means_home(self, inst, moves):
        y = tuple(s.x + (moves[i] if i < len(moves) else 0) for i, s in enumerate(inst.sensors))
        assert (cost(inst, y) == 0) == (y == inst.home())


class TestIndexArguments:
    """Every index argument must name a sensor; the error comes before any other work."""

    @pytest.mark.parametrize("bad", [[-1], [0, 2], [-1, 0, 1], [5]])
    def test_out_of_range_is_refused(self, bad):
        inst = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
        for call in (lambda: verify_coverage(inst, inst.home(), indices=bad),
                     lambda: minimal_active_set(inst, inst.home(), within=bad),
                     lambda: is_order_preserving(inst, inst.home(), bad)):
            with pytest.raises(ValueError, match="active set indices out of range"):
                call()

    def test_refused_before_the_solution_is_read(self):
        inst = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
        for call in (lambda: verify_coverage(inst, (1,), indices=[2]),
                     lambda: minimal_active_set(inst, (1,), within=[-1]),
                     lambda: is_order_preserving(inst, (1,), [2])):
            with pytest.raises(ValueError, match="active set indices out of range"):
                call()

    def test_in_range_indices_keep_their_answers(self):
        inst = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
        assert minimal_active_set(inst, inst.home(), within=iter([0, 1])) == (0, 1)
        assert verify_coverage(inst, inst.home(), indices=iter([1])).gaps == ((0, 2),)
        assert verify_coverage(inst, inst.home(), indices=[]).gaps == ((0, 4),)


class TestFeasibility:
    def test_boundary_equality(self):
        assert is_feasible(I1)

    def test_short_sensor(self):
        assert not is_feasible(Instance(10, (Sensor(0, 1),)))

    def test_reference_family(self):
        assert is_feasible(I2)


class TestMinimalActiveSet:
    def test_both_needed(self):
        assert minimal_active_set(I1, (1, 3)) == (0, 1)

    def test_duplicate_sensor_dropped(self):
        inst = Instance(2, (Sensor(1, 1), Sensor(1, 1)))
        active = minimal_active_set(inst, inst.home())
        assert active == (0,)  # ties drop the higher index first

    def test_big_sensor_dropped_first(self):
        # The drop rule scans by decreasing radius, so the radius-2 sensor
        # goes as soon as the two unit sensors alone cover [0, 4].
        inst = Instance(4, (Sensor(1, 1), Sensor(2, 2), Sensor(3, 1)))
        assert minimal_active_set(inst, inst.home()) == (0, 2)

    def test_requires_coverage(self):
        with pytest.raises(InfeasibleError):
            minimal_active_set(I1, I1.home())

    def test_result_is_minimal(self):
        for _, inst, _ in random_corpus(40):
            y = inst.home()
            if not verify_coverage(inst, y).covered:
                continue
            active = minimal_active_set(inst, y)
            for drop in active:
                rest = [i for i in active if i != drop]
                assert not verify_coverage(inst, y, rest).covered


#: Two spans on [0, 8] with a gap (2, 5) between them.
GAPPED = [(0, 2, 0), (5, 8, 1)]


class TestCoversFromReach:
    """``_covers`` sweeps from a given reach, taking [0, reach] as covered."""

    def test_start_past_a_gap(self):
        assert not _covers(GAPPED, {0, 1}, 8)
        assert not _covers(GAPPED, {0, 1}, 8, 4)  # (4, 5) is still open
        assert _covers(GAPPED, {0, 1}, 8, 5)
        assert _covers(GAPPED[1:], {1}, 8, 5)
        assert not _covers(GAPPED, {0}, 8, 5)  # the span that closes it is not kept

    def test_start_at_or_past_length(self):
        for reach in (8, 9):
            assert _covers(GAPPED, {0, 1}, 8, reach)
            assert _covers(GAPPED, set(), 8, reach)
            assert _covers([(10, 12, 0)], {0}, 8, reach)  # a span past L is never read
        assert not _covers([(10, 12, 0)], {0}, 8, 7)

    def test_empty_span_list(self):
        assert _covers([], set(), 0)
        assert not _covers([], set(), 8)
        assert not _covers([], set(), 8, 3)
        assert _covers([], set(), 8, 8)


class TestOrderPreserving:
    def test_ordered_pair(self):
        assert is_order_preserving(I1, (1, 3), (0, 1))

    def test_crossed_pair(self):
        inst = Instance(6, (Sensor(0, 1), Sensor(10, 2)))
        assert not is_order_preserving(inst, (5, 2), (0, 1))

    def test_singleton_is_vacuous(self):
        inst = Instance(6, (Sensor(0, 1), Sensor(10, 2)))
        assert is_order_preserving(inst, (5, 2), (1,))

    def test_equal_positions_are_not_order_preserving(self):
        inst = Instance(2, (Sensor(0, 1), Sensor(3, 1)))
        assert not is_order_preserving(inst, (1, 1), (0, 1))

    def test_repeated_index_is_one_sensor(self):
        inst = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
        for active in ([0, 0, 1], [0, 1, 1, 0], iter([1, 0, 1])):
            assert is_order_preserving(inst, inst.home(), active)
        assert not is_order_preserving(inst, (3, 1), [1, 0, 0])
        with pytest.raises(ValueError, match="active set indices out of range"):
            is_order_preserving(inst, inst.home(), [0, 0, 2])


class TestRadiusRatio:
    def test_reference_family(self):
        assert radius_ratio(I2) == 2

    def test_uniform(self):
        assert radius_ratio(I1) == 1

    def test_fractional(self):
        inst = Instance(1, (Sensor(0, F(1, 2)), Sensor(0, F(5, 2))))
        assert radius_ratio(inst) == 5

    def test_empty_instance(self):
        with pytest.raises(ValueError):
            radius_ratio(Instance(1, ()))


class TestHelpers:
    def test_moved_indices(self):
        assert moved_indices(I1, (0, 3)) == (1,)

    def test_scale_round_trip(self):
        inst = Instance(F(5), (Sensor(F(-129, 2), F(1, 2)), Sensor(F(-258), F(2))))
        factor = integral_scale_factor(inst)
        assert factor == 2
        scaled = scale_instance(inst, factor)
        assert integral_scale_factor(scaled) == 1
        back = scale_instance(scaled, F(1, factor))
        assert back == inst

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            scale_instance(I1, 0)

    def test_grid_scaling(self):
        inst = Instance(F(5, 2), (Sensor(F(-1, 3), F(1, 2)), Sensor(2, 1)))
        assert on_grid(inst) == (6, 15, [-2, 12], [3, 6])
        assert on_grid(inst, F(1, 4), 1) == (12, 30, [-4, 24], [6, 12])
        assert grid_units(F(7, 6), 6) == 7 and grid_units(F(7, 6), 4) == 4
        with pytest.raises(ValueError):
            grid_units(-1, 6)

    def test_grid_lists_are_fresh(self):
        """The grid is kept on the instance, but a caller changing the lists it got changes nothing."""
        inst = Instance(F(5, 2), (Sensor(F(-1, 3), F(1, 2)), Sensor(2, 1)))
        for extra in ((), (F(1, 4),)):
            first = on_grid(inst, *extra)
            first[2].append(99)
            first[3][0] = -7
            assert on_grid(inst, *extra) == on_grid(Instance(inst.length, inst.sensors), *extra)
        assert on_grid(inst) == (6, 15, [-2, 12], [3, 6])
        assert is_feasible(inst) and verify_coverage(inst, (F(1, 2), F(3, 2))).covered

    def test_grid_cache_keeps_equality_and_hash(self):
        """Reading the grid of one of two equal instances leaves them equal, with equal hashes."""
        a = Instance(F(5, 2), (Sensor(F(-1, 3), F(1, 2)), Sensor(2, 1)))
        b = Instance(F(5, 2), (Sensor(2, 1), Sensor(F(-1, 3), F(1, 2))))
        on_grid(a)
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert repr(a) == repr(b)

    @pytest.mark.parametrize("read_grid", [False, True])
    def test_grid_cache_survives_pickle_and_copy(self, read_grid):
        inst = Instance(F(5, 2), (Sensor(F(-1, 3), F(1, 2)), Sensor(2, 1)))
        if read_grid:
            on_grid(inst)
        for twin in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
            assert twin == inst and hash(twin) == hash(inst)
            assert on_grid(twin) == on_grid(inst) == (6, 15, [-2, 12], [3, 6])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(_rationals, _rationals.map(abs).filter(bool)), max_size=6),
        _rationals.map(abs),
        st.lists(_rationals, max_size=3),
    )
    def test_grid_scaling_is_the_fraction_product(self, sensors, length, extra):
        """``on_grid``'s numerator scaling equals int(v * d) for every value."""
        inst = Instance(length, tuple(Sensor(x, r) for x, r in sensors))
        d, grid_length, xs, rs = on_grid(inst, *extra)
        assert grid_length == int(inst.length * d)
        assert xs == [int(s.x * d) for s in inst.sensors]
        assert rs == [int(s.r * d) for s in inst.sensors]
        assert all((v * d).denominator == 1 for v in extra)

    def test_scale_factor_half_radii(self):
        inst = Instance(F(5), (Sensor(F(-3), F(1, 2)),))
        assert integral_scale_factor(inst) == 2
