import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import (
    InfeasibleError,
    Instance,
    ResourceLimitError,
    Sensor,
    brute_force_order_preserving,
    budget_table,
    cost,
    dp_eps,
    dp_exact,
    dp_optimal,
    gen_fig5,
    gen_random,
    greedy_cover,
    integral_scale_factor,
    is_order_preserving,
    oracle_optimal,
    scale_instance,
    verify_coverage,
)

from barriercover import order_dp
from barriercover.model import _home_gaps
from conftest import random_corpus
import reference_dp
from reference_dp import fraction_reach, reference_dp_eps, rounded_cost

I1 = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
I2 = Instance(12, (Sensor(0, 2), Sensor(1, 1), Sensor(3, 1), Sensor(5, 1), Sensor(7, 1)))
COVERING = Instance(4, (Sensor(1, 1), Sensor(3, 1)))


class TestDpExact:
    def test_two_sensor_optimum(self):
        found = dp_exact(I1, 3)
        assert found is not None
        solution, active = found
        assert solution == (1, 3)
        assert cost(I1, solution) == 3
        assert is_order_preserving(I1, solution, active)

    def test_budget_too_small(self):
        assert dp_exact(I1, 2) is None

    def test_zero_budget_on_covered_instance(self):
        found = dp_exact(COVERING, 0)
        assert found is not None and cost(COVERING, found[0]) == 0

    def test_returns_cheapest_within_budget(self):
        found = dp_exact(I1, 8)
        assert found is not None and cost(I1, found[0]) == 3

    def test_rejects_non_integral_centers(self):
        """Fractional input is solved on its own grid: the scaled answer divided by d."""
        lone = Instance(4, (Sensor(F(1, 3), 1),))
        assert dp_exact(lone, 3) is None and dp_exact(scale_instance(lone, 3), 9) is None
        inst = Instance(4, (Sensor(F(1, 3), 2),))
        solution, active = dp_exact(inst, 3)
        scaled_solution, scaled_active = dp_exact(scale_instance(inst, 3), 9)
        assert solution == tuple(v / 3 for v in scaled_solution) == (2,)
        assert cost(inst, solution) == F(5, 3) and active == scaled_active == (0,)
        assert dp_exact(inst, F(4, 3)) is None
        assert dp_exact(I1, F(1, 2)) is None
        assert dp_exact(I1, F(7, 2))[0] == (1, 3)

    def test_huge_budget_is_capped_at_the_greedy_cost(self):
        # The table is filled to the greedy cover's cost, not to 10**12 columns.
        found = dp_exact(I1, 10**12)
        assert found is not None
        solution, active = found
        assert solution == (1, 3) and cost(I1, solution) == 3
        assert is_order_preserving(I1, solution, active)

    def test_infeasible_is_absent_at_any_budget(self):
        assert dp_exact(Instance(10, (Sensor(0, 1),)), 10**12) is None

    def test_half_integer_radii_are_scaled_internally(self):
        inst = Instance(3, (Sensor(0, F(1, 2)), Sensor(4, F(5, 2))))
        found = dp_exact(inst, 4)
        assert found is not None
        solution, active = found
        assert verify_coverage(inst, solution, active).covered


class TestDpOptimal:
    def test_two_sensor_optimum(self):
        solution, active = dp_optimal(I1)
        assert cost(I1, solution) == 3

    def test_order_costs_more_with_mixed_radii(self):
        solution, active = dp_optimal(I2)
        assert cost(I2, solution) == 18
        assert verify_coverage(I2, solution, active).covered
        assert is_order_preserving(I2, solution, active)

    def test_covered_instance_is_free(self):
        solution, _ = dp_optimal(COVERING)
        assert cost(COVERING, solution) == 0

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            dp_optimal(Instance(10, (Sensor(0, 1),)))

    def test_one_greedy_tiling_per_call(self, monkeypatch):
        calls = []

        def counted(instance):
            calls.append(instance)
            return greedy_cover(instance)

        monkeypatch.setattr(order_dp, "greedy_cover", counted)
        solution, _ = dp_optimal(gen_fig5(2, 24))
        assert cost(gen_fig5(2, 24), solution) == 42
        assert len(calls) == 1

    def test_budgets_double_from_one_grid_step(self, monkeypatch):
        """The budgets tried double from the home gap bound's power of two, and one table grows through them all.

        fig5's home gaps total G = 4 grid steps, so the doubling starts at
        4, not at one grid step.  ``budget_table`` fills the first budget
        and ``DpTable.grow`` widens that table to every budget (the first
        one included).  Each row is filled once per column: 43 columns up
        to the final budget 42, not the 107 of a fresh table per budget.
        """
        tables = []
        widths = []
        columns = []
        real_table, real_grow, real_fill = budget_table, order_dp.DpTable.grow, order_dp._fill_row

        def recorded_table(instance, budget_units, unit=1):
            tables.append((budget_units, unit))
            return real_table(instance, budget_units, unit)

        def recorded_grow(table, budget_units):
            widths.append((budget_units, table.unit))
            real_grow(table, budget_units)

        def counted_fill(prev, row, *rest):
            filled = []
            columns.append(filled)
            for _ in real_fill(prev, row, *rest):
                filled.append(len(row) - sum(filled))
                yield

        monkeypatch.setattr(order_dp, "budget_table", recorded_table)
        monkeypatch.setattr(order_dp.DpTable, "grow", recorded_grow)
        monkeypatch.setattr(order_dp, "_fill_row", counted_fill)
        # fig5 L=24: OPT_op and the greedy cap are both 42.  Halved, it sits
        # on the grid 1/2: the same steps, of half the size.
        for inst, unit in ((gen_fig5(2, 24), 1), (scale_instance(gen_fig5(2, 24), F(1, 2)), F(1, 2))):
            tables.clear()
            widths.clear()
            columns.clear()
            solution, _ = dp_optimal(inst)
            assert cost(inst, solution) == 42 * unit
            assert tables == [(4, unit)]
            assert widths == [(2**k, unit) for k in range(2, 6)] + [(42, unit)]
            assert columns == [[5, 4, 8, 16, 10]] * inst.n
            assert sum(map(sum, columns)) == 43 * inst.n

    def test_covered_instance_never_reaches_the_doubling(self, monkeypatch):
        """The home test answers a covered instance before any budget is tried."""

        def refused(instance, solve):
            raise AssertionError("cheapest_first ran on a covered instance")

        monkeypatch.setattr(order_dp, "cheapest_first", refused)
        solution, active = dp_optimal(COVERING)
        assert solution == COVERING.home() and active == (0, 1)

    def test_matches_order_preserving_oracle_on_corpus(self):
        for _, inst, _ in random_corpus(60):
            expected = brute_force_order_preserving(inst)
            try:
                solution, active = dp_optimal(inst)
                got = cost(inst, solution)
            except InfeasibleError:
                got = None
            assert got == (None if expected is None else expected[1])


class TestTableInvariants:
    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(order_dp, "DEFAULT_CELL_CAP", 3 * 5)
        assert len(fraction_reach(budget_table(I1, 4))) == 3
        with pytest.raises(ResourceLimitError, match="18 cells exceeds the cap 15"):
            budget_table(I1, 5)

    def test_grow_checks_the_cell_cap_first(self, monkeypatch):
        monkeypatch.setattr(order_dp, "DEFAULT_CELL_CAP", 3 * 5)
        table = budget_table(I1, 2)
        table.grow(4)
        filled = budget_table(I1, 4)
        with pytest.raises(ResourceLimitError, match="18 cells exceeds the cap 15"):
            table.grow(5)
        assert (table.rows, table.choices) == (filled.rows, filled.choices)

    def test_cell_cap_message_past_the_int_str_limit(self):
        """A cell count past 4,300 digits is given by its bit length: str() of it would raise ValueError."""
        with pytest.raises(ResourceLimitError, match=r"^DP table of a 14,618-bit number of cells exceeds the cap 500000$"):
            budget_table(Instance(4, (Sensor(1, 1),)), 10**4400, 1)

    def test_grow_never_shrinks(self):
        table = budget_table(I1, 4)
        table.grow(4)
        with pytest.raises(ValueError, match="cannot shrink a DP table from budget 4 to 3"):
            table.grow(3)
        assert [len(row) for row in table.rows] == [5, 5, 5]

    @pytest.mark.parametrize("args, message", [
        ((3, 0), "budget unit must be positive"),
        ((-1,), "budget must be >= 0"),
    ])
    def test_argument_checks(self, args, message):
        with pytest.raises(ValueError, match=message):
            budget_table(I1, *args)

    def test_base_row_is_zero(self):
        table = budget_table(I1, 6)
        assert all(v == 0 for v in fraction_reach(table)[0])

    def test_monotone_and_clamped(self):
        for _, inst, budget in random_corpus(30):
            table = budget_table(inst, budget + 4)
            rows = fraction_reach(table)
            for i in range(len(rows)):
                for b in range(len(rows[i])):
                    assert rows[i][b] <= inst.length
                    if i > 0:
                        assert rows[i][b] >= rows[i - 1][b]
                    if b > 0:
                        assert rows[i][b] >= rows[i][b - 1]

    def test_reconstruction_cost_matches_minimal_budget(self):
        for _, inst, _ in random_corpus(30):
            found = None
            try:
                found = dp_optimal(inst)
            except InfeasibleError:
                continue
            solution, active = found
            value = cost(inst, solution)
            assert verify_coverage(inst, solution, active).covered
            if value > 0:
                assert dp_exact(inst, value - 1) is None

    def test_grown_column_by_column_equals_filled_on_corpus(self):
        """Each resume of a row's fill may add one column: the table still equals the one filled at once."""
        for _, inst, _ in random_corpus(200):
            for unit in (F(1), F(1, 2), F(5, 7)):
                grown = budget_table(inst, 0, unit)
                for units in range(1, 34):
                    grown.grow(units)
                filled = budget_table(inst, 33, unit)
                assert (grown.rows, grown.choices) == (filled.rows, filled.choices), f"{inst} unit={unit}"

    def test_memory_per_cell(self):
        """``dp_optimal`` at n = 160 peaks near 29 bytes per cell of its final table.

        The peak reads about 4.7 MB.  A per-row list with one slot per
        column for the pending left-bound splits read 9.2 MB.
        """
        inst = gen_random(160, 320, 1, 3, (-160, 480), 7)
        tracemalloc.start()
        try:
            dp_optimal(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5e6


#: Home gaps: G = 5 grid steps ((2, 7)) and G = 1 ((2, 3)); a far spare makes each feasible.
GAP5 = Instance(9, (Sensor(1, 1), Sensor(8, 1), Sensor(20, 5)))
GAP1 = Instance(5, (Sensor(1, 1), Sensor(4, 1), Sensor(10, 2)))


class TestCheapestFirst:
    """The doubling starts at the largest power of two at most G, the home gap bound in grid steps."""

    @staticmethod
    def budgets(instance):
        tried = []

        def solve(budget):
            tried.append(budget)
            return dp_exact(instance, budget)

        order_dp.cheapest_first(instance, solve)
        return tried

    def test_home_gaps_are_on_the_grid(self):
        assert _home_gaps(GAP5) == _home_gaps(scale_instance(GAP5, F(1, 2))) == [(2, 7)]
        assert _home_gaps(GAP1) == [(2, 3)]
        assert _home_gaps(COVERING) == []

    @pytest.mark.parametrize("instance, tried", [(GAP5, [4, 8, 16]), (GAP1, [1, 2, 4, 5])])
    def test_first_budget(self, instance, tried):
        """G = 5 starts at 4 and G = 1 at 1; each doubles up to the greedy cost (16 and 5)."""
        assert self.budgets(instance) == tried

    @pytest.mark.parametrize("instance", [GAP5, GAP1])
    def test_half_grid_starts_at_the_same_grid_steps(self, instance):
        assert [b * 2 for b in self.budgets(scale_instance(instance, F(1, 2)))] == self.budgets(instance)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call adds one to the returned one-item list."""
    calls = [0]
    real = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def rows_per_table(monkeypatch, instance, call):
    """``call()``'s result and the rows each of its tables filled, counted by a ``_fill_row`` wrapper.

    A table makes one fill per sensor, so its fills come in runs of n.
    """
    resumed = []
    real_fill = order_dp._fill_row

    def counted_fill(*args):
        resumed.append(False)
        at = len(resumed) - 1

        def fill():
            for _ in real_fill(*args):
                resumed[at] = True
                yield

        return fill()

    monkeypatch.setattr(order_dp, "_fill_row", counted_fill)
    found = call()
    monkeypatch.setattr(order_dp, "_fill_row", real_fill)
    return found, [sum(resumed[k:k + instance.n]) for k in range(0, len(resumed), instance.n)]


class TestDpWithin:
    """A one-shot table stops at the first row whose reach plus 2·(the radii left) falls short of L."""

    def test_equals_the_full_table_and_stops_at_many_rows(self, monkeypatch):
        """Same cover and active set, or None from both, at unit 1/d and at each ``dp_eps`` guess unit."""
        instances = [gen_random(n, 2 * n, 1, 3, (-n, 3 * n), seed) for n in range(3, 13) for seed in range(3)]
        instances += [gen_fig5(2, length) for length in range(8, 25, 2)]
        stops = set()
        for inst in instances:
            try:
                _, upper = greedy_cover(inst)
            except InfeasibleError:
                continue
            d = integral_scale_factor(inst)
            guesses = []
            real_within = order_dp._dp_within

            def recorded(instance, units, unit):
                guesses.append((units, unit))
                return real_within(instance, units, unit)

            monkeypatch.setattr(order_dp, "_dp_within", recorded)
            dp_eps(inst, F(1, 2))
            monkeypatch.setattr(order_dp, "_dp_within", real_within)
            for units, unit in [(b, F(1, d)) for b in range(int(upper * d) + 1)] + guesses:
                full = order_dp._cheapest_cover(inst, budget_table(inst, units, unit))
                found, rows = rows_per_table(monkeypatch, inst, lambda: order_dp._dp_within(inst, units, unit))
                assert found == full, f"{inst} units={units} unit={unit}"
                if rows[0] < inst.n:
                    assert found is None
                    stops.add(rows[0])
        assert len(stops) >= 5, stops

    @pytest.mark.parametrize("length, rows", [(12, [5]), (18, [8])])
    def test_dp_eps_rows_on_fig5(self, monkeypatch, length, rows):
        """Every fig5 guess has q <= 1/d, so ``dp_eps`` grows one exact table, which fills every row."""
        inst = gen_fig5(2, length)
        assert rows_per_table(monkeypatch, inst, lambda: dp_eps(inst, F(1, 2)))[1] == rows

    def test_dp_exact_rows_on_fig5_l18(self, monkeypatch):
        """OPT_op is 30: each 4 units below it buys one more row, and 28 to 30 fill all 8."""
        inst = gen_fig5(2, 18)
        for budget, rows in [(4 * k, k + 1) for k in range(7)] + [(28, 8), (29, 8), (30, 8)]:
            found, filled = rows_per_table(monkeypatch, inst, lambda: dp_exact(inst, budget))
            assert filled == [rows], budget
            assert (found is None) == (budget < 30)
        assert cost(inst, found[0]) == 30


class TestRoundedCost:
    def test_example(self):
        assert rounded_cost(I1, (1, 3), F(1, 2)) == 6
        assert rounded_cost(I1, (1, 3), 2) == 2  # ceil(1/2) + ceil(2/2)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        st.fractions(min_value=F(1, 7), max_value=F(4)),
    )
    def test_rounding_sandwich(self, moves, q):
        inst = Instance(
            10, tuple(Sensor(3 * i, 1) for i in range(len(moves)))
        )
        y = tuple(s.x + m for s, m in zip(inst.sensors, moves))
        true_cost = cost(inst, y)
        rounded = rounded_cost(inst, y, q)
        assert true_cost <= q * rounded <= true_cost + q * inst.n


class TestDpEps:
    def test_two_sensor_bounds(self):
        solution, active = dp_eps(I1, F(1, 2))
        value = cost(I1, solution)
        assert 3 <= value <= F(9, 2)
        assert is_order_preserving(I1, solution, active)

    def test_covered_instance_is_free(self):
        solution, _ = dp_eps(COVERING, F(1, 2))
        assert cost(COVERING, solution) == 0

    def test_reference_family_bound(self):
        solution, _ = dp_eps(I2, F(1, 4))
        assert 18 <= cost(I2, solution) <= F(45, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dp_eps(I1, 0)
        with pytest.raises(InfeasibleError):
            dp_eps(Instance(10, (Sensor(0, 1),)), F(1, 2))

    def test_dominance_on_corpus(self):
        for _, inst, _ in random_corpus(25):
            try:
                best, _ = dp_optimal(inst)
            except InfeasibleError:
                continue
            opt = cost(inst, best)
            for eps in (F(1), F(1, 2)):
                solution, active = dp_eps(inst, eps)
                value = cost(inst, solution)
                assert opt <= value <= (1 + eps) * opt
                assert verify_coverage(inst, solution, active).covered

    def test_guesses_below_the_gap_bound_fill_no_table(self, monkeypatch):
        """fig5 L=18: the first guess, 2 exact steps, cannot pay for the home gaps, so it fills nothing.

        The guesses' units q = 2^k/16 are at most 1/d = 1, so each runs on
        the exact grid at floor(40q) steps: one table grows through 5, 10,
        20 and 40 steps, where the reference refills a table at each of 2,
        5, 10, 20 and 40.
        """
        inst = gen_fig5(2, 18)
        units = []
        real_within, real_grow = reference_dp._dp_within, order_dp.DpTable.grow

        def recorded(instance, budget_units, unit):
            units.append((budget_units, unit))
            return real_within(instance, budget_units, unit)

        def grown(table, budget_units):
            units.append((budget_units, table.unit))
            real_grow(table, budget_units)

        monkeypatch.setattr(order_dp, "_dp_within", recorded)
        monkeypatch.setattr(order_dp.DpTable, "grow", grown)
        tables = count_calls(monkeypatch, order_dp, "budget_table")
        assert cost(inst, dp_eps(inst, F(1, 2))[0]) == 30
        assert (tables, units) == ([1], [(b, 1) for b in (5, 10, 20, 40)])
        units.clear()
        monkeypatch.setattr(reference_dp, "_dp_within", recorded)
        assert cost(inst, reference_dp_eps(inst, F(1, 2))[0]) == 30
        assert units == [(b, 1) for b in (2, 5, 10, 20, 40)]

    def test_not_scale_equivariant(self):
        """Scaling an instance by c need not scale ``dp_eps``'s cost by c; each answer keeps its bound.

        An integer factor leaves the grid 1/d as it is, so a guess that runs
        on the exact grid at one scale is rounded at another: here OPT_op is
        4, 8 and 12, and the ×3 answer is 99/8.
        """
        inst = gen_random(4, 8, 1, 3, (-4, 12), 27)
        eps = F(1, 2)
        for c, expected in ((1, 4), (2, 8), (3, F(99, 8))):
            scaled = scale_instance(inst, c)
            value = cost(scaled, dp_eps(scaled, eps)[0])
            opt_op = cost(scaled, dp_optimal(scaled)[0])
            assert (value, opt_op) == (expected, 4 * c)
            assert opt_op <= value <= (1 + eps) * opt_op

    def test_acceptance_rejects_an_overshooting_cover(self, monkeypatch):
        """A rounded guess's cover costing more than (1 + eps/2)·guess is refused, and the next guess runs.

        At eps = 3/4 the first rounded guess is 6 (unit 9/8): its cover moves
        the left sensor 9, above 11/8·6 = 33/4.  The next guess, 12 (unit
        9/4), accepts a cover of the same cost, which is OPT_op.
        """
        inst = Instance(12, (Sensor(-3, 6), Sensor(3, 3)))
        found, tables, made, exact = eps_tables(monkeypatch, inst, F(3, 4))
        assert tables == [("within", 8, F(9, 8)), ("within", 8, F(9, 4))]
        assert (made, exact) == (0, False)
        assert cost(inst, found[0]) == cost(inst, dp_optimal(inst)[0]) == 9

    def test_fractional_instance(self):
        # No integrality requirement: eighth-grid coordinates work directly.
        inst = Instance(
            F(33, 8),
            (Sensor(0, 2), Sensor(1, 1), Sensor(F(25, 8), 1)),
        )
        solution, active = dp_eps(inst, F(1, 2))
        assert verify_coverage(inst, solution, active).covered


def eps_tables(monkeypatch, instance, eps):
    """``dp_eps(instance, eps)``, the tables it filled, and whether its cover came from the exact table.

    A table is ("within", units, unit) for a rounded one-shot ``_dp_within``
    call, or ("exact", width) for each width the exact table is filled or
    grown to; ``made`` counts the exact tables made by ``budget_table``.
    """
    tables = []
    real_within, real_grow = order_dp._dp_within, order_dp.DpTable.grow

    def within(inst, units, unit):
        tables.append(("within", units, unit))
        return real_within(inst, units, unit)

    def grow(table, units):
        tables.append(("exact", units))
        real_grow(table, units)

    with monkeypatch.context() as patch:
        patch.setattr(order_dp, "_dp_within", within)
        patch.setattr(order_dp.DpTable, "grow", grow)
        made = count_calls(patch, order_dp, "budget_table")
        found = dp_eps(instance, eps)
    return found, tables, made[0], bool(tables) and tables[-1][0] == "exact"


def grid_unit_instances():
    """fig5 L = 8..24, random n = 10/20/40 (seed 7), and the n = 20 one scaled by 100 and 1000."""
    yield from (gen_fig5(2, length) for length in range(8, 25, 2))
    yield from (gen_random(n, 2 * n, 1, 3, (-n, 3 * n), 7) for n in (10, 20, 40))
    yield from (scale_instance(gen_random(20, 40, 1, 3, (-20, 60), 7), c) for c in (100, 1000))


class TestDpEpsGridUnit:
    """A ``dp_eps`` guess with q <= 1/d grows the call's one exact table instead of a rounded one."""

    def test_tables_never_finer_than_the_grid_nor_wider_than_units(self, monkeypatch):
        hits = {True: 0, False: 0}
        for inst in grid_unit_instances():
            d = integral_scale_factor(inst)
            for eps in (F(1), F(1, 2), F(1, 4)):
                found, tables, made, exact = eps_tables(monkeypatch, inst, eps)
                units = -(-2 * inst.n // eps) + inst.n
                assert all(t[2] * d > 1 for t in tables if t[0] == "within"), (inst, eps)
                assert all(t[1] <= units for t in tables), (inst, eps)
                assert made <= 1 and made == any(t[0] == "exact" for t in tables), (inst, eps)
                if exact:
                    assert found == dp_optimal(inst), (inst, eps)
                hits[exact] += 1
        assert hits == {True: 24, False: 18}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(2, 12),
        st.lists(st.tuples(st.integers(-6, 16), st.integers(1, 3)), min_size=1, max_size=5),
        st.sampled_from([F(2), F(1), F(2, 3), F(1, 2), F(1, 4)]),
    )
    @example(4, [(0, 1), (5, 1)], F(1, 2))
    def test_an_exact_hit_is_dp_optimal(self, length, sensors, eps):
        """A cover from the exact table is ``dp_optimal``'s own; any cover is within (1 + eps) of it."""
        inst = Instance(length, tuple(Sensor(x, r) for x, r in sensors))
        try:
            best = dp_optimal(inst)
        except InfeasibleError:
            return
        with pytest.MonkeyPatch.context() as monkeypatch:
            found, _, _, exact = eps_tables(monkeypatch, inst, eps)
        if exact:
            assert found == best
        assert cost(inst, found[0]) <= (1 + eps) * cost(inst, best[0])


class TestLargeInstances:
    """Oracle-free checks at sizes the exhaustive searches cannot reach."""

    def test_eps_sandwich_against_dp_optimal(self):
        for n in (20, 40):
            for seed in (7, 8, 9):
                inst = gen_random(n, 2 * n, 1, 3, (-n, 3 * n), seed)
                best, _ = dp_optimal(inst)
                opt = cost(inst, best)
                assert opt > 0
                for eps in (F(1), F(1, 2), F(1, 4)):
                    solution, active = dp_eps(inst, eps)
                    value = cost(inst, solution)
                    assert opt <= value <= (1 + eps) * opt, (n, seed, eps, value, opt)
                    assert verify_coverage(inst, solution, active).covered
                    assert is_order_preserving(inst, solution, active)

    def test_eps_cost_scales_past_the_exact_cell_cap(self):
        """Scaling the coordinates by c scales dp_eps's cost by c once its guesses' q pass 1/d.

        At c = 1 the guess that hits has q <= 1/d, so it runs on the exact
        grid and returns OPT_op = 23.  At c = 100, 1000 and 1000/7 it has
        q > 1/d and returns c * 117/5 as before.  At c = 1000 (and 1000/7)
        ``dp_optimal`` on this instance hits the cell cap; ``dp_eps``'s grid
        follows its guess, so its table does not grow.
        """
        base = gen_random(20, 40, 1, 3, (-20, 60), 7)
        for c, want in ((F(1), 23), (F(100), 2340), (F(1000), 23400), (F(1000, 7), F(23400, 7))):
            inst = scale_instance(base, c)
            solution, active = dp_eps(inst, F(1, 2))
            assert cost(inst, solution) == want == (23 if c == 1 else c * F(117, 5)), c
            assert verify_coverage(inst, solution, active).covered

    def test_fig5_order_preserving_optimum_at_l40(self):
        inst = gen_fig5(2, 40)
        solution, active = dp_optimal(inst)
        assert verify_coverage(inst, solution, active).covered
        assert is_order_preserving(inst, solution, active)
        _, opt = oracle_optimal(inst)
        assert cost(inst, solution) >= opt
        assert (cost(inst, solution), opt) == (74, 38)


class TestGreedyCover:
    def test_upper_bound_is_a_cover(self):
        for _, inst, _ in random_corpus(30):
            try:
                solution, value = greedy_cover(inst)
            except InfeasibleError:
                continue
            assert verify_coverage(inst, solution).covered
            assert cost(inst, solution) == value

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            greedy_cover(Instance(10, (Sensor(0, 1),)))
