"""The integer-grid scan and reconstruction against the verbatim Fraction ones.

``order_dp._dp_within`` finds the cheapest covering budget on the table's
int last row and walks its int choices.  Swapping in the reference
``reference_dp_within``, which reads the Fraction views and checks through
``verify_coverage``, must leave every solver's ``(solution, active)``, or
its exception, exactly as it was.
"""

from fractions import Fraction as F

import pytest

from barriercover import InfeasibleError, cost, dp_eps, dp_exact, dp_optimal, gen_fig5
from barriercover import order_dp

from conftest import random_corpus
from reference_dp import reference_dp_within

EPS = (F(1), F(1, 2))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InfeasibleError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def _runs(inst):
    """Every DP solver's outcome on ``inst``: dp_optimal, dp_exact at its cost, dp_eps."""
    optimal = _outcome(dp_optimal, inst)
    runs = [optimal]
    if optimal[0] == "ok":
        runs.append(_outcome(dp_exact, inst, cost(inst, optimal[1][0])))
    runs += [_outcome(dp_eps, inst, eps) for eps in EPS]
    return runs


def _assert_same(inst):
    got = _runs(inst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_dp, "_dp_within", reference_dp_within)
        want = _runs(inst)
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
    """The swap reaches every solver, so the comparisons above are not vacuous."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return reference_dp_within(*args)

    monkeypatch.setattr(order_dp, "_dp_within", recorded)
    inst = gen_fig5(2, 12)
    solution, _ = dp_optimal(inst)
    dp_exact(inst, cost(inst, solution))
    dp_eps(inst, F(1, 2))
    assert len(calls) >= 3
