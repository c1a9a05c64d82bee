"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.  All
comparisons are exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction as F

from barriercover import (
    ExactCoverInstance,
    InfeasibleError,
    Instance,
    Sensor,
    brute_force,
    brute_force_order_preserving,
    cost,
    dp_eps,
    dp_optimal,
    fpt_solve,
    gen_fig5,
    gen_fig6,
    integral_scale_factor,
    is_order_preserving,
    minimal_active_set,
    oracle_optimal,
    reduce_exact_cover,
    scale_instance,
    untangle,
    verify_coverage,
)
from barriercover.generators import RandomStream

from conftest import random_corpus
from reference_dp import EpsParams, rounded_cost
from reference_exact_cover import solve_exact_cover_brute
from reference_model import max_stab_count

CORPUS_SIZE = 200


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_c1_oracle_fpt_agreement():
    """Exhaustive oracle and budget branching agree on decision and cost."""
    start = time.perf_counter()
    agree = 0
    for _, inst, budget in random_corpus(CORPUS_SIZE):
        expected = brute_force(inst, budget)
        got = fpt_solve(inst, budget)
        assert (expected is None) == (got is None), f"decision differs at B={budget}"
        if expected is not None:
            assert expected[1] == got[1], f"cost differs: {expected[1]} vs {got[1]}"
        agree += 1
    elapsed = time.perf_counter() - start
    _report(
        "C1",
        agree == CORPUS_SIZE and elapsed < 300,
        f"oracle/fpt agree on {agree}/{CORPUS_SIZE} instances in {elapsed:.1f}s",
    )


def test_c2_order_preserving_optimality():
    """Budget DP equals the order-preserving restricted brute force exactly."""
    agree = 0
    feasible = 0
    for _, inst, _ in random_corpus(CORPUS_SIZE):
        expected = brute_force_order_preserving(inst)
        try:
            solution, _ = dp_optimal(inst)
            got = cost(inst, solution)
        except InfeasibleError:
            got = None
        assert got == (None if expected is None else expected[1])
        agree += 1
        if got is not None:
            feasible += 1
    _report(
        "C2",
        agree == CORPUS_SIZE,
        f"dp-optimal matches the restricted oracle on {agree}/{CORPUS_SIZE} "
        f"instances ({feasible} feasible), exact equality",
    )


def test_c3_eps_guarantee():
    """Approximate DP lands in [OPT_op, (1+eps)*OPT_op] for every eps tried."""
    checked = 0
    for _, inst, _ in random_corpus(CORPUS_SIZE):
        try:
            best, _ = dp_optimal(inst)
        except InfeasibleError:
            continue
        opt = cost(inst, best)
        for eps in (F(1), F(1, 2), F(1, 4)):
            solution, _ = dp_eps(inst, eps)
            value = cost(inst, solution)
            assert opt <= value <= (1 + eps) * opt, (
                f"eps={eps}: cost {value} outside [{opt}, {(1 + eps) * opt}]"
            )
        checked += 1
    _report(
        "C3",
        checked > 0,
        f"(1+eps) guarantee holds for eps in {{1, 1/2, 1/4}} on {checked} "
        f"feasible instances",
    )


def test_c4_rounding_sandwich():
    """cost(y) <= q*cost'(y) <= cost(y) + q*n, exactly, on 1000 random pairs."""
    stream = RandomStream(424242)
    checked = 0
    for case in range(1000):
        n = stream.next_int(1, 6)
        inst = Instance(
            stream.next_int(4, 12),
            tuple(
                Sensor(stream.next_int(-10, 15), stream.next_int(1, 3))
                for _ in range(n)
            ),
        )
        y = tuple(
            s.x + F(stream.next_int(-12, 12), stream.next_int(1, 4))
            for s in inst.sensors
        )
        params = EpsParams(
            eps=F(stream.next_int(1, 4), stream.next_int(1, 4)),
            opt_guess=stream.next_int(1, 20),
            n=inst.n,
        )
        q = params.q
        true_cost = cost(inst, y)
        rounded = rounded_cost(inst, y, q)
        assert true_cost <= q * rounded <= true_cost + q * inst.n
        checked += 1
    _report("C4", checked == 1000, f"rounding sandwich exact on {checked} pairs")


def test_c5_fig5_trend():
    """Order-preserving cost climbs toward rho times the unrestricted optimum."""
    rho = F(2)
    ratios = []
    for length in (8, 12, 16, 20, 40):
        inst = gen_fig5(rho, length)
        found = oracle_optimal(inst)
        assert found is not None
        _, opt = found
        assert opt == length - rho, f"unrestricted optimum {opt} != L - rho"
        solution, _ = dp_optimal(inst)
        ratios.append(cost(inst, solution) / opt)
    ok = all(a <= b for a, b in zip(ratios, ratios[1:])) and ratios[-1] >= F(9, 5)
    _report(
        "C5",
        ok,
        "fig5 ratios " + ", ".join(f"{r} ({float(r):.3f})" for r in ratios)
        + " nondecreasing with >= 1.8 at L=40",
    )


def test_c6_fig6_trend():
    """Untangling the fig6 optimum is exact: the optimum is already in order.

    On gen_fig6(2, m, 1/8) the cheapest cover leaves the large sensor home
    and slides each unit sensor right to close the gaps after it, so unit i
    (0-based) moves (m-1-i)*delta and OPT = delta*m*(m-1)/2.  That cover keeps
    index order on its minimal active set, so OPT_op = OPT and untangling it
    costs nothing: the ratio is exactly 1 at every m.  Per m this checks the
    closed form, that the oracle's optimum is order-preserving, and that
    untangle's output is order-preserving, costs exactly OPT and stays within
    (3*rho+4)*OPT; the ratios must be nondecreasing.  brute_force (at OPT and
    OPT-1) and dp_optimal agree with the closed form for m <= 8; they are
    left out here because of their running time.
    """
    rho = F(2)
    delta = F(1, 8)
    ms = (2, 4, 8, 12)
    ratios = []
    for m in ms:
        inst = gen_fig6(rho, m, delta)
        factor = integral_scale_factor(inst)
        work = scale_instance(inst, factor)
        found = oracle_optimal(work)
        assert found is not None
        scaled_y, scaled_opt = found
        opt = scaled_opt / factor
        y = tuple(v / factor for v in scaled_y)
        assert opt == delta * m * (m - 1) / 2, f"m={m}: OPT {opt} != delta*m*(m-1)/2"
        assert is_order_preserving(
            inst, y, minimal_active_set(inst, y)
        ), f"m={m}: the oracle's optimum crosses"
        hat, active = untangle(inst, y)
        value = cost(inst, hat)
        assert is_order_preserving(inst, hat, active), f"m={m}: untangle left a crossing"
        assert value <= (3 * rho + 4) * opt, f"m={m}: {value} exceeds (3*rho+4)*OPT"
        assert value == opt, f"m={m}: untangling an in-order optimum cost {value} != {opt}"
        ratios.append(value / opt)
    _report(
        "C6",
        all(a <= b for a, b in zip(ratios, ratios[1:])),
        "fig6 OPT = delta*m*(m-1)/2, in order, untangle ratios "
        + ", ".join(f"m={m}:{r}" for m, r in zip(ms, ratios)),
    )


def _exact_cover_enumeration():
    for m in (1, 2):
        universe = range(1, m + 1)
        subsets = [
            frozenset(c)
            for size in (1, 2)
            for c in itertools.combinations(universe, size)
        ]
        for n_sets in (1, 2, 3):
            for sets in itertools.product(subsets, repeat=n_sets):
                for k in range(1, n_sets + 1):
                    yield ExactCoverInstance(m, tuple(sets), k)


def test_c7_reduction_cross_validation():
    """k-mover search on the reduced instance decides exactly like set cover."""
    checked = 0
    for ec in _exact_cover_enumeration():
        truth = solve_exact_cover_brute(ec)
        reduced = reduce_exact_cover(ec)
        doubled = scale_instance(reduced.instance, 2)
        got = (
            fpt_solve(doubled, reduced.budget * 2, movers=reduced.movers)
            is not None
        )
        assert truth == got, f"reduction disagrees on {ec}"
        checked += 1
    # Pinned numeric check: the middle subset {1, 3, 4} over a 5-universe
    # with 3 subsets gets diameter 4^0 + 4^2 + 4^3.
    ec = ExactCoverInstance(
        5, (frozenset({1, 2}), frozenset({1, 3, 4}), frozenset({2, 5})), 2
    )
    reduced = reduce_exact_cover(ec)
    sensor = reduced.instance.sensors[reduced.source_sets.index(1)]
    assert 2 * sensor.r == 81
    _report(
        "C7",
        checked >= 30,
        f"reduction equivalence on {checked} enumerated instances; "
        f"diameter check 2r = 81 reproduced",
    )


def test_c8_integrality_and_stabbing():
    """Exact solvers stay on the grid; minimal active sets never triple-stab."""
    solved = 0
    for _, inst, budget in random_corpus(CORPUS_SIZE):
        found = oracle_optimal(inst)
        if found is None:
            continue
        solution, value = found
        assert all(v.denominator == 1 for v in solution), "oracle left the grid"
        active = minimal_active_set(inst, solution)
        assert max_stab_count(inst, solution, active) <= 2, "triple-stabbed point"
        got = fpt_solve(inst, value)
        assert got is not None
        assert all(v.denominator == 1 for v in got[0]), "fpt left the grid"
        assert verify_coverage(inst, got[0]).covered
        solved += 1
    _report(
        "C8",
        solved > 0,
        f"grid-integral outputs and <= 2-stab minimal active sets on "
        f"{solved} solvable instances",
    )
