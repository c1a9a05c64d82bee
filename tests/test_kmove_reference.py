"""The capped ``fpt_solve`` against the k-mover enumeration it replaced.

``fpt_solve(instance, budget, movers=k)`` must decide exactly as the
verbatim ``kmove_brute_force`` does, and every cover it returns must be a
witness: it covers, costs at most the budget and moves at most k sensors.
"""

import reference_kmove as ref
from barriercover import cost, fpt_solve, moved_indices, reduce_exact_cover, scale_instance, verify_coverage

from conftest import random_corpus
from test_acceptance import _exact_cover_enumeration


def _assert_same(instance, budget, movers):
    expected = ref.kmove_brute_force(instance, ref.KMoveQuery(budget, movers))
    found = fpt_solve(instance, budget, movers=movers)
    assert (found is None) == (expected is None), (instance, budget, movers)
    if found is not None:
        solution, value = found
        assert verify_coverage(instance, solution).covered
        assert cost(instance, solution) == value <= budget
        assert len(moved_indices(instance, solution)) <= movers


def test_matches_reference_on_exact_cover_reductions():
    checked = 0
    for ec in _exact_cover_enumeration():
        reduced = reduce_exact_cover(ec)
        _assert_same(scale_instance(reduced.instance, 2), reduced.budget * 2, reduced.movers)
        checked += 1
    assert checked == 108


def test_matches_reference_on_corpus():
    checked = 0
    for _, inst, budget in random_corpus(60):
        for movers in range(min(inst.n, 3) + 1):
            _assert_same(inst, budget, movers)
            checked += 1
    assert checked == 204
