"""The oracle search against the verbatim search it replaced.

``brute_force`` skips, in the parent node, every child whose own hole
checks would kill it at entry.  A skipped child never offers a cover, so
the incumbents and bounds follow the same sequence as before: the search
must return the very ``(solution, cost)`` the reference returns, budget-free
(``oracle_optimal``) and at budgets 0, 1 and 2 alike.
"""

from fractions import Fraction as F

import pytest

import reference_search as ref
from barriercover import brute_force, gen_fig5, gen_fig6, oracle_optimal

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


def test_matches_reference_on_fig6():
    for m in range(2, 9):
        _assert_same(gen_fig6(2, m, F(1, 8)))
