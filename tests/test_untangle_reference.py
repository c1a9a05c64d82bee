"""The integer-grid untangle against the verbatim Fraction reference loop.

``untangle`` must return the very ``(solution, active)`` the reference
returns, or raise the same exception type with the same message, on every
input.  The oracle-free checks at the end reach sizes the reference (and
the exhaustive oracles) cannot: the scaling invariant and fig5 at n = 79.
"""

import importlib
import time
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_untangle as ref
from barriercover import (
    InfeasibleError,
    Instance,
    Sensor,
    cost,
    crossing_pairs,
    gen_fig5,
    gen_random,
    is_order_preserving,
    minimal_active_set,
    oracle_optimal,
    scale_instance,
    swap_pair,
    untangle,
    verify_coverage,
)
from barriercover.generators import RandomStream

from conftest import random_corpus
from reference_model import scale_solution

_FAILURES = (InfeasibleError, RuntimeError, ValueError, TypeError, IndexError)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except _FAILURES as exc:
        return type(exc), str(exc)


def _assert_same(inst, y):
    got, want = _outcome(untangle, inst, y), _outcome(ref.untangle, inst, y)
    assert got == want, f"{inst} y={y}"
    return got


def fig5_moved(length):
    """fig5 with the large sensor moved to L - 2: it crosses the whole unit row."""
    inst = gen_fig5(2, length)
    return inst, (F(length - 2),) + inst.home()[1:]


def tiling(inst, order, edge=F(0)):
    """Sensors laid edge to edge from ``edge``, in ``order``."""
    y = [F(0)] * inst.n
    for i in order:
        y[i] = edge + inst.sensors[i].r
        edge += 2 * inst.sensors[i].r
    return tuple(y)


def shuffled_tilings(sizes, seed):
    """Random instances with a cover laid edge to edge in a shuffled order.

    Built like the benchmark's tilings: ``gen_random(n, 2n, 1, 3, (-n, 3n), s)``
    with s from a seeded stream (instances covered at home are skipped), and
    a Fisher-Yates order from a second stream.
    """
    stream = RandomStream(seed)
    for n in sizes:
        while True:
            inst = gen_random(n, 2 * n, 1, 3, (-n, 3 * n), stream.next_raw())
            if not verify_coverage(inst, inst.home()).covered:
                break
        shuffle = RandomStream(stream.next_raw())
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = shuffle.next_int(0, i)
            order[i], order[j] = order[j], order[i]
        yield inst, tiling(inst, order)


def corpus_optima(count):
    for _, inst, _ in random_corpus(count):
        found = oracle_optimal(inst)
        if found is not None:
            yield inst, found[0]


HALF_GRID = Instance(
    9, (Sensor(0, F(1, 2)), Sensor(2, F(3, 2)), Sensor(4, F(5, 2)), Sensor(F(11, 2), F(1, 2)))
)
THIRD_GRID = Instance(
    5, (Sensor(F(1, 3), F(2, 3)), Sensor(F(2, 3), F(1, 3)), Sensor(2, F(4, 3)), Sensor(F(10, 3), 1))
)

#: Tilings in these orders, started at -1/6, cover both grid instances.
GRID_ORDERS = ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1))


class TestMatchesReference:
    def test_corpus_optima(self):
        checked = 0
        for inst, y in corpus_optima(60):
            _assert_same(inst, y)
            for within in (None, tuple(range(0, inst.n, 2))):
                assert _outcome(minimal_active_set, inst, y, within) == _outcome(
                    ref.minimal_active_set, inst, y, within
                )
            checked += 1
        assert checked >= 20

    def test_fig5_moved(self):
        for length in range(12, 42, 2):
            kind, _ = _assert_same(*fig5_moved(length))
            assert kind == "ok"

    def test_shuffled_tilings(self):
        for seed in range(6):
            for inst, y in shuffled_tilings((8, 10, 20), seed):
                kind, _ = _assert_same(inst, y)
                assert kind == "ok"

    def test_fractional_grids(self):
        for inst in (HALF_GRID, THIRD_GRID):
            for order in GRID_ORDERS:
                kind, _ = _assert_same(inst, tiling(inst, order, F(-1, 6)))
                assert kind == "ok"
            _assert_same(inst, inst.home())

    def test_failures_match(self):
        inst, y = fig5_moved(12)
        _assert_same(inst, y[1:])  # wrong length
        _assert_same(inst, inst.home())  # does not cover
        _assert_same(inst, (12.0,) + y[1:])  # floats are refused
        _assert_same(Instance(0, ()), ())
        _assert_same(Instance(3, ()), ())


_q = st.sampled_from([1, 2, 3, 4])


@st.composite
def near_covers(draw):
    """A small fractional instance and a shuffled tiling of it, jittered.

    The tiling covers [edge, edge + total] with no slack inside; the barrier
    is at most that long, and the jitter tears or overlaps it, so the
    solutions range from covering to just missing.
    """
    n = draw(st.integers(1, 6))
    sensors = tuple(
        Sensor(F(draw(st.integers(-20, 30)), draw(_q)), F(draw(st.integers(1, 8)), draw(_q)))
        for _ in range(n)
    )
    total = sum(2 * s.r for s in sensors)
    length = max(F(0), total - F(draw(st.integers(0, 4)), draw(_q)))
    inst = Instance(length, sensors)
    y = list(tiling(inst, draw(st.permutations(range(n))), F(draw(st.integers(-2, 1)), draw(_q))))
    for i in range(n):
        y[i] += F(draw(st.integers(-1, 1)), draw(_q)) * draw(st.booleans())
    return inst, tuple(y)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_covers())
def test_matches_reference_on_random_near_covers(case):
    inst, y = case
    _assert_same(inst, y)
    assert verify_coverage(inst, y) == ref.verify_coverage(inst, y)
    for pair in crossing_pairs(inst, y, range(inst.n)):
        assert _outcome(swap_pair, inst, y, pair) == _outcome(ref.swap_pair, inst, y, pair)


class TestOracleFree:
    def test_scaling_invariant(self):
        cases = [fig5_moved(length) for length in (16, 40, 80)]
        cases += list(shuffled_tilings((8, 10, 20), 0))
        cases += list(corpus_optima(20))
        cases += [(inst, tiling(inst, (3, 2, 1, 0), F(-1, 6))) for inst in (HALF_GRID, THIRD_GRID)]
        for inst, y in cases:
            solution, active = untangle(inst, y)
            for c in (F(2), F(3), F(1, 2)):
                scaled = untangle(scale_instance(inst, c), scale_solution(y, c))
                assert scaled == (scale_solution(solution, c), active), f"{inst} y={y} c={c}"

    def test_fig5_n79_is_fast_and_valid(self):
        inst, y = fig5_moved(160)
        assert inst.n == 79
        start = time.process_time()
        solution, active = untangle(inst, y)
        elapsed = time.process_time() - start
        assert verify_coverage(inst, solution, active).covered
        assert is_order_preserving(inst, solution, active)
        assert all(solution[i] == inst.sensors[i].x for i in range(inst.n) if i not in active)
        assert elapsed < 1, f"untangle took {elapsed:.2f} s of CPU time at n = 79"

    def test_fig5_closed_form_up_to_n319(self):
        """The large sensor ends at 2 and each unit sensor 4 right of home: cost 2L - 6."""
        for length, n, want in ((12, 5, 18), (16, 7, 26), (640, 319, 1274)):
            inst, y = fig5_moved(length)
            assert inst.n == n
            start = time.process_time()
            solution, active = untangle(inst, y)
            elapsed = time.process_time() - start
            assert solution == (2,) + tuple(s.x + 4 for s in inst.sensors[1:])
            assert active == tuple(range(n))
            assert cost(inst, solution) == 2 * length - 6 == want
            assert elapsed < 1, f"untangle took {elapsed:.2f} s of CPU time at n = {n}"


def jittered_tiling(n, seed):
    """A shuffled tiling of ``gen_random(n, 2n, 1, 3, (-n, 3n), s)`` that overlaps, jittered.

    One seeded stream draws the instance seed s, a Fisher-Yates order, an
    overlap of 0, 1/2 or 1 after each sensor, and a jitter of -1/4, 0 or
    1/4 per center.  The overlaps leave sensors that a swap can make
    redundant; the jitter tears some covers, which both loops must refuse.
    """
    stream = RandomStream(seed)
    inst = gen_random(n, 2 * n, 1, 3, (-n, 3 * n), stream.next_raw())
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.next_int(0, i)
        order[i], order[j] = order[j], order[i]
    y, edge = [F(0)] * n, F(0)
    for i in order:
        y[i] = edge + inst.sensors[i].r
        edge += 2 * inst.sensors[i].r - F(stream.next_int(0, 2), 2)
    return inst, tuple(v + F(stream.next_int(-1, 1), 4) for v in y)


def reference_drops(monkeypatch, inst, y):
    """Run the reference loop; return its outcome and (pair, dropped sensors) per swap."""
    swaps = []

    def swap(instance, solution, pair):
        swaps.append((pair, frozenset()))
        return ref_swap_pair(instance, solution, pair)

    def minimize(instance, solution, within=None):
        kept = ref_minimal_active_set(instance, solution, within)
        if within is not None:
            swaps[-1] = (swaps[-1][0], frozenset(within) - frozenset(kept))
        return kept

    ref_swap_pair, ref_minimal_active_set = ref.swap_pair, ref.minimal_active_set
    with monkeypatch.context() as patch:
        patch.setattr(ref, "swap_pair", swap)
        patch.setattr(ref, "minimal_active_set", minimize)
        outcome = _outcome(ref.untangle, inst, y)
    return outcome, swaps


#: (n, seed) of jittered tilings where some swap drops the pair's left-moved
#: sensor i, and where some swap drops its right-moved sensor j.
DROPS_LEFT = ((10, 70), (10, 73), (8, 85), (8, 90))
DROPS_RIGHT = ((10, 0), (6, 2), (8, 6), (8, 10))


class TestPairOnlyDrops:
    """A swap can make only its own pair redundant, so ``untangle`` re-checks only i and j."""

    def _check(self, monkeypatch, n, seed, moved):
        inst, y = jittered_tiling(n, seed)
        want, swaps = reference_drops(monkeypatch, inst, y)
        assert want[0] == "ok"
        assert _outcome(untangle, inst, y) == want
        assert any(dropped == {moved(pair)} for pair, dropped in swaps)

    def test_left_moved_sensor_dropped(self, monkeypatch):
        for n, seed in DROPS_LEFT:
            self._check(monkeypatch, n, seed, lambda pair: pair.i)

    def test_right_moved_sensor_dropped(self, monkeypatch):
        for n, seed in DROPS_RIGHT:
            self._check(monkeypatch, n, seed, lambda pair: pair.j)

    def test_reference_drops_at_most_one_of_the_pair(self, monkeypatch):
        counts = {"swaps": 0, "drops": 0}
        for seed in range(60):
            for n in (6, 8, 10, 12):
                inst, y = jittered_tiling(n, seed)
                want, swaps = reference_drops(monkeypatch, inst, y)
                assert _outcome(untangle, inst, y) == want, f"n={n} seed={seed}"
                for pair, dropped in swaps:
                    assert dropped in ({pair.i}, {pair.j}, set()), f"n={n} seed={seed} {pair}"
                    counts["swaps"] += 1
                    counts["drops"] += bool(dropped)
        assert counts["swaps"] >= 500 and counts["drops"] >= 20, counts

    def test_three_sweeps_per_swap_on_fig5_n79(self, monkeypatch):
        """Each swap sweeps at most three entries three times; one sweep after the loop reads them all."""
        module = importlib.import_module("barriercover.untangle")
        calls = {"swaps": 0, "sweeps": []}

        def swap_targets(*args):
            calls["swaps"] += 1
            return targets(*args)

        def covers(spans, *args):
            calls["sweeps"].append(len(spans))
            return sweep(spans, *args)

        targets, sweep = module._swap_targets, module._covers
        monkeypatch.setattr(module, "_swap_targets", swap_targets)
        monkeypatch.setattr(module, "_covers", covers)
        inst, y = fig5_moved(160)
        solution, active = untangle(inst, y)
        assert is_order_preserving(inst, solution, active)
        assert calls["swaps"] == 78
        local = [size for size in calls["sweeps"] if size <= 3]
        assert len(local) <= 3 * calls["swaps"], calls
        assert calls["sweeps"][:-1] == local and calls["sweeps"][-1] == len(active) == 79, calls
