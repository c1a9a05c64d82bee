"""The model's integer-grid paths against the verbatim Fraction ones.

``verify_coverage``, ``is_feasible`` and ``greedy_cover`` now run on the
instance's grid and convert only their answers to Fractions.  Each must
return exactly what ``reference_model``'s Fraction copy returns, with the
same types: Fractions in every gap, position and cost.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import InfeasibleError, Instance, Sensor, greedy_cover, is_feasible, scale_instance, verify_coverage
from barriercover.model import CoverageReport

import reference_model
from conftest import random_corpus

_rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
_radii = st.builds(F, st.integers(1, 30), st.integers(1, 12))
#: Denominators up to 30, most of them foreign to an instance drawn with denominators up to 12.
_positions = st.builds(F, st.integers(-300, 300), st.integers(1, 30))


def _assert_identical(got, want):
    """Equal values, and the same type at every level of nesting."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            _assert_identical(g, w)
    elif isinstance(want, CoverageReport):
        assert got.covered is want.covered
        _assert_identical(got.gaps, want.gaps)
    else:
        assert got == want


def _greedy(fn, inst):
    try:
        return fn(inst)
    except InfeasibleError as exc:
        return str(exc)


def _assert_same(inst, solutions, subsets):
    assert is_feasible(inst) is reference_model.is_feasible(inst)
    _assert_identical(_greedy(greedy_cover, inst), _greedy(reference_model.greedy_cover, inst))
    for y in solutions:
        for indices in subsets:
            _assert_identical(
                verify_coverage(inst, y, indices),
                reference_model.verify_coverage(inst, y, indices),
            )


def _solutions(inst):
    """Home, the greedy tiling when there is one, and home shifted by thirds and sevenths."""
    home = inst.home()
    out = [home, tuple(x + F(i + 1, 3) for i, x in enumerate(home)), tuple(x - F(2 * i, 7) for i, x in enumerate(home))]
    if reference_model.is_feasible(inst):
        out.append(reference_model.greedy_cover(inst)[0])
    return out


def test_matches_reference_on_corpus():
    feasible = 0
    for _, inst, _ in random_corpus(200):
        feasible += reference_model.is_feasible(inst)
        n = inst.n
        subsets = [None, [], list(range(0, n, 2)), list(range(n // 2, n)), list(range(n - 1, -1, -1))]
        for scaled in (inst, scale_instance(inst, F(2, 3))):
            _assert_same(scaled, _solutions(scaled), subsets)
    assert 0 < feasible < 200


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_rationals, _radii), max_size=6),
    _rationals.map(abs),
    st.booleans(),
    st.data(),
)
@example([], F(0), False, None)
@example([], F(3), False, None)
@example([(F(1), F(1))], F(0), False, None)
@example([(F(1, 2), F(3, 4)), (F(5), F(1, 3))], F(0), True, None)
def test_matches_reference_property(sensors, length, tight, data):
    """Foreign position denominators, index subsets, L = 0, n = 0 and sum(2r) == L."""
    if tight:
        length = sum((2 * r for _, r in sensors), start=F(0))
    inst = Instance(length, tuple(Sensor(x, r) for x, r in sensors))
    if data is None:
        solutions, subsets = [inst.home()], [None, []]
    else:
        solutions = [data.draw(st.lists(_positions, min_size=inst.n, max_size=inst.n)), inst.home()]
        subsets = [None, data.draw(st.sets(st.sampled_from(range(inst.n))) if inst.n else st.just(set()))]
    _assert_same(inst, solutions, subsets)
    assert is_feasible(inst) or not tight

