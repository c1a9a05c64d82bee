"""The oracle search against the verbatim search it replaced.

``brute_force`` skips, in the parent node, every child whose own hole
checks or bound test would kill it at entry.  A skipped child never offers
a cover, so the incumbents and bounds follow the same sequence as before:
the search must return the very ``(solution, cost)`` the reference returns,
budget-free (``oracle_optimal``) and at budgets 0, 1 and 2 alike.  Its node
state, the placed sensors' holes, must measure what the merged-span sweep
measures.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_search as ref
from barriercover import brute_force, gen_fig5, gen_fig6, gen_random, oracle_optimal
from barriercover.exact import _cut, _home_holes, _open_stretches
from barriercover.model import _clipped_spans, _gaps
from reference_search import _merge

from conftest import random_corpus

BUDGETS = (0, 1, 2)


def _assert_same(instance):
    assert oracle_optimal(instance) == ref.oracle_optimal(instance), instance
    for budget in BUDGETS:
        assert brute_force(instance, budget) == ref.brute_force(instance, budget), (instance, budget)


def test_matches_reference_on_corpus():
    for _, inst, _ in random_corpus(200):
        _assert_same(inst)


@pytest.mark.parametrize("rho, lengths", [(2, range(6, 45, 2)), (3, range(8, 25, 2))])
def test_matches_reference_on_fig5(rho, lengths):
    for length in lengths:
        _assert_same(gen_fig5(rho, length))


def test_matches_reference_on_random_family():
    """The benchmark's random oracle instances, on every seed it can draw from."""
    for seed in range(200):
        _assert_same(gen_random(6, 12, 1, 3, (-6, 18), seed))


def test_matches_reference_on_fig6():
    for m in range(2, 9):
        _assert_same(gen_fig6(2, m, F(1, 8)))


def test_matches_reference_on_fig6_rho3():
    for m in range(2, 9):
        _assert_same(gen_fig6(3, m, F(1, 8)))


_spans = st.lists(
    st.tuples(st.integers(-4, 30), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1], 0)),
    max_size=6,
)


def _clip(spans, length):
    return [(max(lo, 0), min(hi, length), i) for lo, hi, i in spans if lo < length and hi > 0]


_homes = st.lists(st.tuples(st.integers(-8, 34), st.integers(1, 6)), max_size=6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(placed=_spans, home=_spans, length=st.integers(0, 26), sensors=_homes)
# Homes touching the barrier at 0 or L in a single point, and an empty barrier.
@example(placed=[], home=[], length=10, sensors=[(-2, 2), (3, 1), (13, 3)])
@example(placed=[], home=[], length=0, sensors=[(-1, 1), (0, 2), (4, 1)])
def test_bisected_holes_match_the_sweep(placed, home, length, sensors):
    """Holes cut span by span, bisected against the home holes, equal one sweep of both.

    At each cut, what the child's holes leave open of the home holes is
    what its parent's left, less the span: the stretches the parent reads
    the child's uncovered measure and first open point from.  The oracle's
    per-suffix home holes, cut from the right, equal a sweep of each
    suffix's merged homes clipped to [0, L], point spans at 0 or L included.
    """
    placed, home = _clip(placed, length), _clip(home, length)
    index = _gaps(_merge(home), length)
    holes = _gaps([], length)
    for lo, hi, _ in placed:
        ahead = _cut(_open_stretches(holes, index), lo, hi)
        holes = _cut(holes, lo, hi)
        assert _open_stretches(holes, index) == ahead
    assert holes == _gaps(_merge(placed), length)
    swept = _gaps(sorted(placed + _merge(home)), length)
    assert _open_stretches(holes, index) == swept

    xs, rs = [x for x, _ in sensors], [r for _, r in sensors]
    suffix = _home_holes(length, xs, rs)
    assert len(suffix) == len(sensors) + 1
    for i, holes in enumerate(suffix):
        homes = _merge(_clipped_spans(rs, xs, length, range(i, len(sensors))))
        assert holes == _gaps(homes, length)
