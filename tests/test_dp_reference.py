"""The DP solvers against their verbatim earlier forms.

``order_dp._dp_within`` finds the cheapest covering budget on the table's
int last row and walks its int choices.  Swapping in the reference
``reference_dp_within``, which reads the Fraction views and checks through
``verify_coverage``, and running the pre-growth ``reference_dp_optimal``
and ``reference_dp_eps`` on it, must leave every solver's
``(solution, active)``, or its exception, exactly as it was.

``dp_optimal`` grows one table through its budget doublings and ``dp_eps``
skips the guesses that cannot pay for the home gaps; against the verbatim
refill-per-budget and fill-per-guess forms, on the library's own
``_dp_within``, outputs and errors must be identical too.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import (
    Instance,
    InfeasibleError,
    ResourceLimitError,
    Sensor,
    cost,
    dp_eps,
    dp_exact,
    dp_optimal,
    gen_fig5,
    gen_random,
    scale_instance,
)
from barriercover import order_dp

import reference_dp
from conftest import random_corpus
from reference_dp import reference_dp_eps, reference_dp_optimal, reference_dp_within

EPS = (F(1), F(1, 2))
#: Scaled by 1, 100 and 1/3 below (x100, dp_optimal tries 13 budgets), and by 1000 past the cell cap.
SCALED = gen_random(20, 40, 1, 3, (-20, 60), 7)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InfeasibleError, ResourceLimitError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def _runs(inst, optimal=dp_optimal, eps_solver=dp_eps, eps_values=EPS):
    """Every DP solver's outcome on ``inst``: dp_optimal, dp_exact at its cost, dp_eps."""
    best = _outcome(optimal, inst)
    runs = [best]
    if best[0] == "ok":
        runs.append(_outcome(dp_exact, inst, cost(inst, best[1][0])))
    runs += [_outcome(eps_solver, inst, eps) for eps in eps_values]
    return runs


def _assert_same(inst, eps_values=EPS):
    got = _runs(inst, eps_values=eps_values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dp, "_dp_within", reference_dp_within)
        patch.setattr(reference_dp, "_dp_within", reference_dp_within)
        want = _runs(inst, reference_dp_optimal, reference_dp_eps, eps_values)
    assert got == want, f"{inst}"
    return got


def test_matches_reference_on_corpus():
    solved = 0
    for _, inst, _ in random_corpus(200):
        runs = _assert_same(inst)
        solved += runs[0][0] == "ok"
    assert solved >= 100


def test_matches_reference_on_fig5():
    for length in range(6, 26, 2):
        runs = _assert_same(gen_fig5(2, length))
        assert all(kind == "ok" for kind, _ in runs)


def test_reference_is_what_the_solvers_call(monkeypatch):
    """The swap reaches every reference solver, so the comparisons above are not vacuous."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return reference_dp_within(*args)

    monkeypatch.setattr(order_dp, "_dp_within", recorded)
    monkeypatch.setattr(reference_dp, "_dp_within", recorded)
    inst = gen_fig5(2, 12)
    solution, _ = reference_dp_optimal(inst)
    assert len(calls) >= 2
    calls.clear()
    dp_exact(inst, cost(inst, solution))
    assert len(calls) == 1
    reference_dp_eps(inst, F(1, 2))
    assert len(calls) >= 2


def _growth_instances():
    """251 instances: the corpus, fig5 L=6..40, a scaled n=20 instance, and n=10/20/40 over ten seeds."""
    yield from (inst for _, inst, _ in random_corpus(200))
    yield from (gen_fig5(2, length) for length in range(6, 42, 2))
    yield from (scale_instance(SCALED, c) for c in (F(1), F(100), F(1, 3)))
    yield from (gen_random(n, 2 * n, 1, 3, (-n, 3 * n), seed) for n in (10, 20, 40) for seed in range(10))


def test_growth_and_skipped_guesses_match_the_refilling_solvers():
    count = solved = 0
    for inst in _growth_instances():
        best = _outcome(dp_optimal, inst)
        assert best == _outcome(reference_dp_optimal, inst), f"{inst}"
        for eps in (F(1), F(1, 2), F(1, 4)):
            assert _outcome(dp_eps, inst, eps) == _outcome(reference_dp_eps, inst, eps), f"{inst} eps={eps}"
        count += 1
        solved += best[0] == "ok"
    assert (count, solved) == (251, 191)


def test_growth_hits_the_cell_cap_at_the_same_budget():
    """x1000, dp_optimal outgrows the cell cap at the same doubling, with the same message."""
    inst = scale_instance(SCALED, 1000)
    got = _outcome(dp_optimal, inst)
    assert got == _outcome(reference_dp_optimal, inst)
    assert got == (ResourceLimitError, "DP table of 688149 cells exceeds the cap 500000")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.lists(st.tuples(st.integers(-6, 16), st.integers(1, 3)), min_size=1, max_size=4),
    st.sampled_from([F(2), F(1), F(2, 3), F(1, 2)]),
)
@example(9, [(5, 3), (5, 3), (16, 2)], F(1))
@example(2, [(3, 2)], F(2))
def test_skipped_guesses_match_at_the_bound(length, sensors, eps):
    """When n/(eps/2) is whole, units*q can equal the home gap; that guess must still be filled.

    On the first example, skipping it as well would return a cover of cost
    10/3 instead of 3.
    """
    inst = Instance(length, tuple(Sensor(x, r) for x, r in sensors))
    assert _outcome(dp_eps, inst, eps) == _outcome(reference_dp_eps, inst, eps)


def _mixed(lo, hi):
    return st.builds(F, st.integers(lo, hi), st.sampled_from([1, 2, 3, 7]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mixed(6, 42), st.lists(st.tuples(_mixed(-12, 48), _mixed(1, 14)), min_size=2, max_size=5))
def test_matches_reference_on_mixed_denominators(length, sensors):
    """Coordinates over halves, thirds and sevenths, so a table's grid 1/scale is finer than the instance's.

    ``dp_eps``'s unit q then has its own denominator, the table's positions
    sit on a grid the instance's does not hold, and the int choices and the
    grid-unit acceptance test must still give what the Fraction forms give.
    """
    _assert_same(Instance(length, tuple(Sensor(x, r) for x, r in sensors)), (F(1), F(1, 2), F(1, 3)))
