import json
from fractions import Fraction as F

import pytest

from barriercover import (
    ExactCoverInstance,
    gen_fig5,
    gen_fig6,
    gen_random,
    is_feasible,
    reduce_exact_cover,
)
from barriercover import generators
from barriercover.generators import SENSOR_CAP, RandomStream
from barriercover.fileio import parse_instance, serialize_instance
from barriercover.model import ResourceLimitError
from reference_exact_cover import solve_exact_cover_brute

from pathlib import Path

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


class TestFig5:
    def test_reference_shape(self):
        inst = gen_fig5(2, 12)
        assert [(s.x, s.r) for s in inst.sensors] == [(0, 2), (1, 1), (3, 1), (5, 1), (7, 1)]
        assert inst.length == 12

    def test_smallest_member(self):
        inst = gen_fig5(1, 4)
        assert [(s.x, s.r) for s in inst.sensors] == [(0, 1), (1, 1)]

    def test_total_length_identity(self):
        for rho, length in ((2, 12), (3, 20), (F(3, 2), 9)):
            inst = gen_fig5(rho, length)
            assert sum(2 * s.r for s in inst.sensors) == inst.length

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_fig5(2, 13)  # odd small count
        with pytest.raises(ValueError):
            gen_fig5(2, 4)  # barrier not longer than the big sensor
        with pytest.raises(ValueError):
            gen_fig5(F(1, 2), 8)  # rho below 1


class TestFig6:
    def test_reference_shape(self):
        inst = gen_fig6(2, 4, F(1, 8))
        smalls = [s.x for s in inst.sensors if s.r == 1]
        assert smalls == [1, F(25, 8), F(21, 4), F(59, 8)]
        assert inst.length == 8 + 3 * F(1, 8)
        # unit row ends exactly at the barrier's right end
        last = inst.sensors[-1]
        assert last.x + last.r == inst.length

    def test_single_unit_degenerates(self):
        inst = gen_fig6(2, 1, F(1, 8))
        assert inst.length == 2
        assert len(inst.sensors) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_fig6(2, 4, 0)
        with pytest.raises(ValueError):
            gen_fig6(2, 32, F(1, 8))  # m*delta reaches 2*rho
        with pytest.raises(ValueError):
            gen_fig6(2, 0, F(1, 8))

    def test_rho_below_one(self):
        with pytest.raises(ValueError, match="rho must be >= 1"):
            gen_fig6(F(1, 2), 3, F(1, 8))


class TestReduction:
    def test_reference_instance_values(self):
        ec = ExactCoverInstance(2, (frozenset({1}), frozenset({1, 2}), frozenset({2})), 2)
        red = reduce_exact_cover(ec)
        assert red.instance.length == 5
        assert red.budget == 330
        assert red.movers == 2
        by_source = {
            src: red.instance.sensors[i] for i, src in enumerate(red.source_sets)
        }
        assert (by_source[0].x, by_source[0].r) == (F(-129, 2), F(1, 2))
        assert (by_source[1].x, by_source[1].r) == (F(-645, 2), F(5, 2))
        assert (by_source[2].x, by_source[2].r) == (F(-258), F(2))

    def test_element_weights_in_diameter_and_distance(self):
        # Universe of 5, three subsets; the middle one holds elements 1, 3, 4.
        ec = ExactCoverInstance(
            5, (frozenset({1, 2}), frozenset({1, 3, 4}), frozenset({2, 5})), 2
        )
        red = reduce_exact_cover(ec)
        sensor = red.instance.sensors[red.source_sets.index(1)]
        assert 2 * sensor.r == 4**0 + 4**2 + 4**3 == 81
        assert -sensor.x - sensor.r == 4**6 + 4**8 + 4**9

    def test_empty_set_system(self):
        red = reduce_exact_cover(ExactCoverInstance(3, (), 1))
        assert red.instance.n == 0
        assert red.instance.length == 3  # base is 1 when there are no sets
        assert not is_feasible(red.instance)

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            ExactCoverInstance(2, (frozenset(),), 1)
        with pytest.raises(ValueError):
            ExactCoverInstance(2, (frozenset({3}),), 1)


class TestReductionForwardDirection:
    """Chosen sets' sensors, tiled onto the barrier, stay within (B, k)."""

    @staticmethod
    def _witnesses(ec):
        from itertools import combinations

        universe = frozenset(range(1, ec.universe_size + 1))
        for size in range(ec.max_sets + 1):
            for chosen in combinations(range(len(ec.sets)), size):
                union = frozenset().union(*(ec.sets[i] for i in chosen)) if chosen else frozenset()
                total = sum(len(ec.sets[i]) for i in chosen)
                if union == universe and total == ec.universe_size:
                    yield chosen

    def test_tiled_witness_meets_budget_and_mover_bounds(self):
        from itertools import combinations
        from barriercover import cost as solution_cost, moved_indices, verify_coverage

        checked = 0
        for m in (1, 2, 3):
            subsets = [
                frozenset(c)
                for size in (1, 2, 3)
                for c in combinations(range(1, m + 1), size)
                if size <= m
            ]
            for n_sets in (1, 2, 3, 4):
                for k in (1, 2):
                    # a small deterministic slice of the full product space
                    sets = tuple(subsets[(i * 2 + k) % len(subsets)] for i in range(n_sets))
                    ec = ExactCoverInstance(m, sets, k)
                    red = reduce_exact_cover(ec)
                    for chosen in self._witnesses(ec):
                        by_source = {src: i for i, src in enumerate(red.source_sets)}
                        y = list(red.instance.home())
                        edge = F(0)
                        for set_idx in chosen:
                            i = by_source[set_idx]
                            y[i] = edge + red.instance.sensors[i].r
                            edge += 2 * red.instance.sensors[i].r
                        assert edge == red.instance.length
                        assert verify_coverage(red.instance, y).covered
                        assert solution_cost(red.instance, y) <= red.budget
                        assert len(moved_indices(red.instance, y)) <= red.movers
                        checked += 1
        assert checked >= 10


class TestExactCoverBrute:
    def test_reference_yes_instance(self):
        ec = ExactCoverInstance(2, (frozenset({1}), frozenset({1, 2}), frozenset({2})), 2)
        assert solve_exact_cover_brute(ec)

    def test_duplicate_sets(self):
        ec = ExactCoverInstance(1, (frozenset({1}), frozenset({1})), 1)
        assert solve_exact_cover_brute(ec)

    def test_overlap_forces_smaller_family(self):
        ec = ExactCoverInstance(2, (frozenset({1, 2}), frozenset({2})), 2)
        assert solve_exact_cover_brute(ec)  # the first set alone covers exactly

    def test_uncoverable_element(self):
        ec = ExactCoverInstance(2, (frozenset({1}), frozenset({1})), 2)
        assert not solve_exact_cover_brute(ec)

    def test_cap(self):
        sets = tuple(frozenset({1}) for _ in range(8))
        with pytest.raises(ResourceLimitError):
            solve_exact_cover_brute(ExactCoverInstance(1, sets, 1), subset_cap=100)


class TestRandom:
    def test_determinism(self):
        a = gen_random(5, 10, 1, 3, (-5, 15), 7)
        b = gen_random(5, 10, 1, 3, (-5, 15), 7)
        assert a == b
        c = gen_random(5, 10, 1, 3, (-5, 15), 8)
        assert a != c

    def test_empty(self):
        inst = gen_random(0, 10, 1, 3, (-5, 15), 0)
        assert inst.n == 0 and not is_feasible(inst)

    def test_sorted_and_in_range(self):
        inst = gen_random(30, 10, 1, 3, (-5, 15), 3)
        xs = [s.x for s in inst.sensors]
        assert xs == sorted(xs)
        assert all(-5 <= s.x <= 15 and 1 <= s.r <= 3 for s in inst.sensors)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_random(3, 10, 0, 3, (-5, 15), 0)
        with pytest.raises(ValueError):
            gen_random(-1, 10, 1, 3, (-5, 15), 0)

    def test_golden_file(self):
        golden = (CORPORA / "random_seed42.bc").read_text()
        inst = gen_random(5, 10, 1, 3, (-5, 15), 42)
        assert serialize_instance(inst) == golden
        assert parse_instance(golden) == inst


class TestRandomStream:
    def test_pinned_sequence(self):
        # Frozen alongside the golden files; changing the generator is a
        # breaking change.
        stream = RandomStream(42)
        assert [stream.next_int(0, 99) for _ in range(5)] == [13, 91, 58, 64, 50]

    def test_empty_range(self):
        with pytest.raises(ValueError):
            RandomStream(0).next_int(3, 2)


# Each family at n sensors: fig5 has one large and n - 1 unit sensors, and
# so does fig6, whose gaps total (n - 1)/n < 2*rho.
SIZED = [
    lambda n: gen_fig5(1, 2 * n),
    lambda n: gen_fig6(2, n - 1, F(1, n)),
    lambda n: gen_random(n, 12, 1, 3, (-6, 18), 0),
]


class TestSensorCap:
    """Each generator refuses more than ``SENSOR_CAP`` sensors before building one."""

    @pytest.mark.parametrize("make", SIZED, ids=["fig5", "fig6", "random"])
    def test_cap_plus_one_is_refused(self, make):
        with pytest.raises(ResourceLimitError, match=f"{SENSOR_CAP + 1} sensors exceed the generator cap {SENSOR_CAP}$"):
            make(SENSOR_CAP + 1)

    @pytest.mark.parametrize("make", SIZED, ids=["fig5", "fig6", "random"])
    def test_the_cap_itself_is_built(self, monkeypatch, make):
        monkeypatch.setattr(generators, "SENSOR_CAP", 5)
        assert make(5).n == 5
        with pytest.raises(ResourceLimitError, match="6 sensors exceed the generator cap 5"):
            make(6)


class TestReductionAtTheDigitLimit:
    """b = 3, k = 2: at m = 4,506 the budget B prints but a sensor position does not; at m = 4,505 both print."""

    @staticmethod
    def _gen(m, tmp_path):
        from barriercover.cli import main

        spec = tmp_path / "ec.json"
        spec.write_text(json.dumps({"m": m, "sets": [[1, m], [m]], "k": 2}))
        out = tmp_path / "ec.bc"
        return main(["gen", "--family", "exact-cover", "--spec", str(spec), "--out", str(out)]), spec, out

    def test_unprintable_position_exits_3_writing_neither_file(self, tmp_path, capsys):
        code, spec, _ = self._gen(4506, tmp_path)
        assert code == 3
        assert "cannot print a 14,285-bit number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [spec]

    def test_one_element_less_writes_both_files_that_parse_back(self, tmp_path):
        code, _, out = self._gen(4505, tmp_path)
        assert code == 0
        reduced = reduce_exact_cover(ExactCoverInstance(4505, [[1, 4505], [4505]], 2))
        assert parse_instance(out.read_text()) == reduced.instance
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        assert F(meta["B"]) == reduced.budget and meta["k"] == 2
        assert meta["source_sets"] == list(reduced.source_sets)
