"""The O(n*U) budget fill against the quadratic reference fill.

``budget_table`` must return the very table the reference builds: every
``reach`` value and every ``parent`` choice, tie-breaks included, so that
reconstruction (and with it dp_exact, dp_optimal and dp_eps) is unchanged.
A table grown budget by budget must equal the table filled at once.

The corpus check runs the quadratic Fraction reference 1,200 times, so its
instances are spread over a few worker processes.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from barriercover import Instance, Sensor, budget_table, gen_fig5

from conftest import random_corpus
from reference_dp import fraction_parent, fraction_reach, reference_budget_table

CORPUS_UNITS = (F(1), F(1, 2), F(1, 3), F(2), F(5, 7), F(3, 2))
CORPUS_BUDGETS = (0, 1, 3, 8, 17, 33)


def _assert_same(instance, units, unit, reference):
    """The fill at ``units`` equals the first units+1 columns of ``reference``.

    Cell (i, b) depends only on row i-1 at budgets <= b, so a reference
    table filled to a larger budget holds the smaller tables as prefixes.
    """
    got = budget_table(instance, units, unit)
    where = f"{instance} U={units} unit={unit}"
    assert got.unit == reference.unit, where
    assert fraction_reach(got) == [row[: units + 1] for row in reference.reach], where
    assert fraction_parent(got) == [row[: units + 1] for row in reference.parent], where


def _matches_reference_at_every_unit(inst):
    top = max(CORPUS_BUDGETS)
    for unit in CORPUS_UNITS:
        reference = reference_budget_table(inst, top, unit)
        for units in CORPUS_BUDGETS:
            _assert_same(inst, units, unit, reference)


def test_matches_reference_on_corpus():
    instances = [inst for _, inst, _ in random_corpus(200)]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, 4), mp_context=spawn) as pool:
        assert len(list(pool.map(_matches_reference_at_every_unit, instances, chunksize=10))) == 200


def test_matches_reference_on_fig5():
    for length in range(6, 20, 2):
        inst = gen_fig5(2, length)
        for unit, units in ((F(1), 2 * length), (F(1, 2), 3 * length)):
            _assert_same(inst, units, unit, reference_budget_table(inst, units, unit))


def _assert_grown_equals_filled(instance, units, unit):
    """Grown 1, 2, 4, ... up to ``units``, the table equals ``budget_table(instance, units, unit)``.

    The Fraction views are read at every width and must span it.
    """
    grown = budget_table(instance, 1, unit)
    while len(grown.rows[0]) <= units:
        assert len(fraction_reach(grown)[0]) == len(fraction_parent(grown)[-1]) == len(grown.rows[0])
        grown.grow(min(2 * (len(grown.rows[0]) - 1), units))
    filled = budget_table(instance, units, unit)
    where = f"{instance} U={units} unit={unit}"
    assert (grown.rows, grown.choices) == (filled.rows, filled.choices), where
    views = (fraction_reach(grown), fraction_parent(grown))
    assert views == (fraction_reach(filled), fraction_parent(filled)), where


def test_grown_table_equals_filled_table_on_corpus():
    for _, inst, _ in random_corpus(200):
        for unit in CORPUS_UNITS:
            _assert_grown_equals_filled(inst, max(CORPUS_BUDGETS), unit)


def test_grown_table_equals_filled_table_on_fig5():
    for length in range(6, 42, 2):
        inst = gen_fig5(2, length)
        for unit, units in ((F(1), 2 * length), (F(1, 2), 3 * length), (F(1, 3), 5 * length)):
            _assert_grown_equals_filled(inst, units, unit)


def test_matches_reference_with_half_integral_radii():
    inst = Instance(
        9, (Sensor(0, F(1, 2)), Sensor(2, F(3, 2)), Sensor(4, F(5, 2)), Sensor(11, F(1, 2)))
    )
    for unit in (F(1), F(1, 2), F(3, 4)):
        _assert_same(inst, 24, unit, reference_budget_table(inst, 24, unit))


_coords = st.builds(F, st.integers(-24, 36), st.sampled_from([1, 2, 3, 4]))
_radii = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_coords, _radii), max_size=5),
    st.builds(F, st.integers(0, 48), st.sampled_from([1, 2, 3])),
    st.builds(F, st.integers(1, 12), st.integers(1, 7)),
    st.integers(0, 16),
)
def test_matches_reference_on_random_instances(sensors, length, unit, units):
    inst = Instance(length, tuple(Sensor(x, r) for x, r in sensors))
    _assert_same(inst, units, unit, reference_budget_table(inst, units, unit))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_coords, _radii), max_size=4),
    st.builds(F, st.integers(0, 48), st.sampled_from([1, 2, 3])),
    st.builds(F, st.integers(1, 12), st.integers(1, 7)),
    st.lists(st.integers(0, 40), min_size=2, max_size=4),
)
def test_grown_on_a_random_schedule_equals_filled_and_reference(sensors, length, unit, steps):
    """Grown by ``steps`` (repeats are zero-column resumes), the table equals the one filled at once.

    Left-bound splits due past a width wait across one or more resumes.
    """
    inst = Instance(length, tuple(Sensor(x, r) for x, r in sensors))
    grown = budget_table(inst, steps[0], unit)
    for step in steps[1:]:
        grown.grow(len(grown.rows[0]) - 1 + step)
    units = len(grown.rows[0]) - 1
    filled = budget_table(inst, units, unit)
    where = f"{inst} steps={steps} unit={unit}"
    assert (grown.rows, grown.choices) == (filled.rows, filled.choices), where
    reference = reference_budget_table(inst, units, unit)
    assert (fraction_reach(grown), fraction_parent(grown)) == (reference.reach, reference.parent), where
