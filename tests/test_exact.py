import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barriercover import (
    ExactCoverInstance,
    Instance,
    ResourceLimitError,
    Sensor,
    brute_force,
    brute_force_order_preserving,
    cost,
    fpt_solve,
    gen_fig5,
    gen_fig6,
    gen_random,
    oracle_optimal,
    reduce_exact_cover,
    scale_instance,
    verify_coverage,
)
from barriercover import exact
from barriercover.exact import _transport_sweep, gap_candidates
from barriercover.order_dp import cheapest_first, dp_exact

import reference_search as ref
from reference_search import _transport_bound
from conftest import near_tiling, random_corpus

I1 = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
COVERING = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
# Only the exact tiling covers (total length = L), at cost 1,100: one DFS
# level per sensor, deeper than the interpreter's default recursion limit.
DEEP = Instance(2200, tuple(Sensor(2 * i + 2, 1) for i in range(1100)))
# The same sensors on L = 2,199: one unit of slack, so the transport bound
# reads 0 at the root and the search still goes one level per sensor.
DEEP_SPARE = Instance(2199, DEEP.sensors)


class TestBruteForce:
    def test_two_sensor_optimum(self):
        found = brute_force(I1, 5)
        assert found is not None
        solution, value = found
        assert value == 3
        assert verify_coverage(I1, solution).covered
        assert cost(I1, solution) == 3

    def test_budget_excludes_solution(self):
        assert brute_force(I1, 2) is None

    def test_already_covered_at_zero_budget(self):
        found = brute_force(COVERING, 0)
        assert found is not None and found[1] == 0

    def test_infeasible_is_absent(self):
        assert brute_force(Instance(10, (Sensor(0, 1),)), 50) is None

    def test_node_cap_is_an_error_not_absent(self):
        inst = Instance(11, tuple(Sensor(-8 + 3 * i, 1) for i in range(6)))
        with pytest.raises(ResourceLimitError):
            brute_force(inst, 40, node_cap=5)

    def test_negative_node_cap_is_refused(self):
        inst = Instance(12, tuple(Sensor(-8 + 3 * i, 1) for i in range(6)))
        with pytest.raises(ValueError, match="node cap must be >= 0"):
            brute_force(inst, 40, node_cap=-1)

    def test_rejects_fractional_input(self):
        """Fractional input is solved on its own grid: the scaled answer divided by d."""
        inst = Instance(4, (Sensor(F(1, 2), 1), Sensor(3, 1)))
        solution, value = brute_force(inst, 3)
        scaled_solution, scaled_value = brute_force(scale_instance(inst, 2), 6)
        assert value == scaled_value / 2 == F(1, 2)
        assert solution == tuple(v / 2 for v in scaled_solution) == (1, 3)
        assert brute_force(inst, F(49, 100)) is None
        assert brute_force(COVERING, F(1, 2)) == (COVERING.home(), 0)


class TestOrderPreservingBruteForce:
    def test_matches_unrestricted_when_order_free(self):
        found = brute_force_order_preserving(I1)
        assert found is not None and found[1] == 3

    def test_charges_for_order(self):
        # Unrestricted can send the big sensor across; order-preserving cannot.
        inst = Instance(12, (Sensor(0, 2), Sensor(1, 1), Sensor(3, 1), Sensor(5, 1), Sensor(7, 1)))
        unrestricted = brute_force(inst, 30)
        ordered = brute_force_order_preserving(inst)
        assert unrestricted is not None and unrestricted[1] == 10
        assert ordered is not None and ordered[1] == 18

    def test_absent_when_infeasible(self):
        assert brute_force_order_preserving(Instance(10, (Sensor(0, 1),))) is None


class TestGapCandidates:
    def test_edge_groups(self):
        # Home coverage is empty within [0, 10]: one gap (0, 10).  Sensors 0
        # and 1 face it from the left (right edges -2 and 0), sensor 2 from
        # the right (left edge 11).
        assert gap_candidates([-3, -2, 13], [1, 2, 2], 0, 10, 4, ()) == (0, 1, 2)

    def test_longest_trim_and_tie_break(self):
        # Four sensors share the edge point 0; budget 1 keeps the two longest.
        rs = [1, 2, 3, 4]
        assert gap_candidates([-r for r in rs], rs, 0, 8, 1, ()) == (2, 3)
        # Equal lengths break ties toward the lower index.
        assert gap_candidates([-2, -2, -2], [2, 2, 2], 0, 8, 1, ()) == (0, 1)

    def test_excluded_sensors_are_skipped(self):
        assert gap_candidates([-1, -1], [1, 1], 0, 4, 3, {0}) == (1,)

    def test_matches_the_two_group_form(self):
        """The tuple is the sorted union of the old left and right edge groups, on 6,000 seeded inputs."""
        rng = random.Random(20261020)
        for _ in range(6000):
            n = rng.randint(0, 12)
            xs = [rng.randint(-15, 25) for _ in range(n)]
            rs = [rng.randint(1, 4) for _ in range(n)]
            gap_lo = rng.randint(0, 19)
            gap_hi = rng.randint(gap_lo + 1, 20)
            limit = rng.randint(0, 6)
            banned = {j for j in range(n) if rng.random() < 0.25}
            left, right = ref.gap_candidates(xs, rs, gap_lo, gap_hi, limit, banned)
            union = {j for group in (*left.values(), *right.values()) for j in group}
            assert gap_candidates(xs, rs, gap_lo, gap_hi, limit, banned) == tuple(sorted(union))


class TestFpt:
    def test_two_sensor_optimum(self):
        found = fpt_solve(I1, 3)
        assert found is not None and found[1] == 3

    def test_budget_excludes_solution(self):
        assert fpt_solve(I1, 2) is None

    def test_gap_measure_bound_fails_fast(self):
        inst = Instance(10, (Sensor(20, 1),))
        assert fpt_solve(inst, 3) is None
        # Feasible, so only the gap-measure prune answers it, at the root:
        # the gaps (0, 4) measure 4 > 3.
        feasible = Instance(4, (Sensor(-10, 1), Sensor(20, 1)))
        assert fpt_solve(feasible, 3, node_cap=1) is None

    def test_infeasible_is_absent_at_once(self):
        # Total length 32 < 40: no cover exists, and no node is explored.
        inst = Instance(40, tuple(Sensor(5 * i, 2) for i in range(8)))
        assert fpt_solve(inst, 100, node_cap=0) is None

    def test_rejects_fractional_input(self):
        """Fractional input is solved on its own grid: the scaled answer divided by d."""
        lone = Instance(4, (Sensor(F(1, 2), 1),))
        assert fpt_solve(lone, 3) is None and fpt_solve(scale_instance(lone, 2), 6) is None
        inst = Instance(4, (Sensor(F(1, 2), 1), Sensor(3, 1)))
        solution, value = fpt_solve(inst, 3)
        scaled_solution, scaled_value = fpt_solve(scale_instance(inst, 2), 6)
        assert value == scaled_value / 2 == F(1, 2)
        assert solution == tuple(v / 2 for v in scaled_solution) == (1, 3)
        assert fpt_solve(inst, F(49, 100)) is None

    def test_agrees_with_oracle_on_corpus(self):
        for _, inst, budget in random_corpus(60):
            expected = brute_force(inst, budget)
            got = fpt_solve(inst, budget)
            assert (expected is None) == (got is None)
            if expected is not None:
                assert expected[1] == got[1]
                assert verify_coverage(inst, got[0]).covered
                assert cost(inst, got[0]) <= budget

    def test_budget_monotonicity(self):
        for _, inst, budget in random_corpus(30):
            if fpt_solve(inst, budget) is not None:
                assert fpt_solve(inst, budget + 1) is not None


class TestKMove:
    def test_reduction_yes_instance(self):
        ec = ExactCoverInstance(2, (frozenset({1}), frozenset({1, 2}), frozenset({2})), 2)
        red = reduce_exact_cover(ec)
        doubled = scale_instance(red.instance, 2)
        found = fpt_solve(doubled, red.budget * 2, movers=red.movers)
        assert found is not None
        assert verify_coverage(doubled, found[0]).covered

    def test_zero_movers_on_uncovered_instance(self):
        assert fpt_solve(I1, 10, movers=0) is None

    def test_unconstrained_feasible(self):
        found = fpt_solve(I1, 100, movers=I1.n)
        assert found is not None
        assert verify_coverage(I1, found[0]).covered

    def test_node_cap(self):
        """The node cap bounds the capped search; infeasibility needs no search.

        The old subset enumeration refused this infeasible instance (total
        length 32 < 40) up front on its state estimate; it is now proven
        absent without a node.  A feasible search past its cap still raises.
        """
        inst = Instance(40, tuple(Sensor(5 * i, 2) for i in range(8)))
        assert fpt_solve(inst, 100, node_cap=0, movers=8) is None
        assert fpt_solve(PINNED, 13, 175, movers=6)[1] == 13
        with pytest.raises(ResourceLimitError):
            fpt_solve(PINNED, 13, 174, movers=6)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            fpt_solve(I1, -1, movers=0)
        with pytest.raises(ValueError, match="mover bound must be >= 0"):
            fpt_solve(I1, 0, movers=-1)


class TestDeepSearch:
    def test_oracle_too_deep_is_a_resource_limit(self):
        """Depth is free; a deep search stops only at the node cap.

        Every dead placement is pruned in its parent, so each node is one
        level deeper than the last: the cap stops the search 1,000 levels deep.
        """
        with pytest.raises(ResourceLimitError, match="explored more than 1000 states"):
            oracle_optimal(DEEP_SPARE, node_cap=1_000)

    def test_order_preserving_too_deep_is_a_resource_limit(self):
        """The deep tiling is found in exactly 3,300 nodes; one fewer is a resource limit."""
        solution, value = brute_force_order_preserving(DEEP, node_cap=3300)
        assert value == 1100
        assert solution == tuple(s.x - 1 for s in DEEP.sensors)
        with pytest.raises(ResourceLimitError):
            brute_force_order_preserving(DEEP, node_cap=3299)

    def test_oracle_answers_the_deep_instance(self):
        solution, value = oracle_optimal(DEEP)
        assert value == 1100 and cost(DEEP, solution) == 1100
        assert verify_coverage(DEEP, solution).covered

    def test_transport_bound_settles_the_deep_instance_at_its_root(self, monkeypatch):
        """With no slack the bound reads 1,100, the greedy tiling's cost: one node proves it optimal."""
        searches = _record_searches(monkeypatch)
        assert oracle_optimal(DEEP, node_cap=1)[1] == 1100
        (search,) = searches
        assert (search.nodes, search.cuts, search.pruned) == (1, 0, {"transport": 1})

    def test_oracle_memory_stays_linear_on_the_deep_instance(self):
        """The root settles it, and the search holds one home-breakpoint list of O(n) ints.

        The peak reads about 0.9 MB; building a sorted list for each of the
        1,100 suffixes up front holds O(n²) ints, tens of MB.
        """
        tracemalloc.start()
        try:
            assert oracle_optimal(DEEP)[1] == 1100
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_pruned_budget_is_still_proven_absent(self):
        # Every cover moves all 1,100 sensors by one unit, so budget 5 is
        # refuted within a few levels and no deep search runs.
        assert brute_force(DEEP, 5) is None


PINNED = gen_random(6, 12, 1, 3, (-6, 18), 9)
# TestKMove's yes-instance, the reduction of {{1}, {1, 2}, {2}} with k = 2,
# doubled onto the integer grid.
REDUCTION = reduce_exact_cover(
    ExactCoverInstance(2, (frozenset({1}), frozenset({1, 2}), frozenset({2})), 2)
)
DOUBLED_REDUCTION = scale_instance(REDUCTION.instance, 2)


def _record_searches(monkeypatch):
    """Patch ``exact._Search`` so each search made is appended to the list returned."""
    searches = []

    class Recorded(exact._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(exact, "_Search", Recorded)
    return searches


class TestFptNearTiling:
    """The FPT claim: with the total movement fixed, the search tree does not grow with n."""

    @pytest.mark.parametrize("n", [20, 200, 2000])
    def test_same_tree_at_every_n(self, monkeypatch, n):
        inst = near_tiling(n)
        searches = _record_searches(monkeypatch)
        solution, value = cheapest_first(inst, lambda b: fpt_solve(inst, b))
        assert inst.n == n and value == 6 == cost(inst, solution)
        assert verify_coverage(inst, solution).covered
        assert [(s.nodes, dict(s.pruned)) for s in searches] == [
            (1, {"gap-measure": 1}), (35, {"gap-measure": 29})]


# Each oracle row: its nodes plus the children its parents cut on their
# entry test (``dead-hole-cut`` plus ``reach-cut``, each counted against the
# node cap as the node it would have been, so the pin is the cap's
# boundary), those cuts, and the optimum.  Every count but the random
# row's fell with the transport bound (CHANGES.md has the old ones).
ORACLE_PINS = [
    ("oracle-fig5-L24", gen_fig5(2, 24), 32, 1, 22),
    ("oracle-fig5-L32", gen_fig5(2, 32), 44, 1, 30),
    ("oracle-fig5-L36", gen_fig5(2, 36), 50, 1, 34),
    ("oracle-fig5-L40", gen_fig5(2, 40), 56, 1, 38),
    ("oracle-fig5-L44", gen_fig5(2, 44), 62, 1, 42),
    ("oracle-fig6-m6", gen_fig6(2, 6, F(1, 8)), 49, 0, F(15, 8)),
    ("oracle-fig6-m7", gen_fig6(2, 7, F(1, 8)), 93, 0, F(21, 8)),
    ("oracle-fig6-m8", gen_fig6(2, 8, F(1, 8)), 133, 0, F(7, 2)),
    ("oracle-fig6-m10", gen_fig6(2, 10, F(1, 8)), 152, 0, F(45, 8)),
    ("oracle-fig6-m12", gen_fig6(2, 12, F(1, 8)), 174, 0, F(33, 4)),
    ("oracle-fig6-rho3-m8", gen_fig6(3, 8, F(1, 8)), 71, 0, F(21, 8)),
    ("oracle-random", PINNED, 115, 70, 13),
    ("oracle-deep", DEEP, 1, 0, 1100),
]


def _entry_cuts(search):
    return search.pruned["dead-hole-cut"] + search.pruned["reach-cut"]


class TestNodeCounts:
    """Each search's node count, pinned from outside: cap N succeeds, N - 1 raises."""

    @pytest.mark.parametrize(
        "search, nodes, expected",
        [
            *((lambda cap, i=instance: oracle_optimal(i, cap), pin, expected)
              for _, instance, pin, _, expected in ORACLE_PINS),
            (lambda cap: fpt_solve(PINNED, 13, cap), 175, 13),
            (lambda cap: fpt_solve(PINNED, 12, cap), 123, None),
            (lambda cap: fpt_solve(PINNED, 13, cap, movers=2), 83, None),
            (lambda cap: fpt_solve(DOUBLED_REDUCTION, 2 * REDUCTION.budget, cap, movers=REDUCTION.movers),
             40, 650),
            (lambda cap: brute_force_order_preserving(PINNED, node_cap=cap), 155, 13),
        ],
        ids=[*(name for name, *_ in ORACLE_PINS),
             "fpt-at-opt", "fpt-below-opt", "fpt-two-movers", "fpt-reduction-two-movers",
             "order-preserving-random"],
    )
    def test_node_cap_boundary(self, search, nodes, expected):
        found = search(nodes)
        assert (None if found is None else found[1]) == expected
        with pytest.raises(ResourceLimitError, match=f"explored more than {nodes - 1} states"):
            search(nodes - 1)

    def test_node_cap_bounds_the_work_on_a_fine_grid(self, monkeypatch):
        """The random pin scaled by 1,000 stops at its 201st node or entry cut under cap 200.

        Each entry cut counts against the cap as the node it would have
        been, so the work before the abort does not grow with the grid:
        the parents' d loops walk the window a grid unit at a time, and
        every reach-cut they make is counted.
        """
        searches = _record_searches(monkeypatch)
        with pytest.raises(ResourceLimitError, match="explored more than 200 states"):
            brute_force(scale_instance(PINNED, 1000), node_cap=200)
        (search,) = searches
        assert search.nodes + search.cuts == 201
        assert (search.nodes, search.pruned) == (3, {"reach-cut": 198})

    def test_fpt_stops_before_a_branching_step_past_the_cap(self, monkeypatch):
        """A step whose grid centres alone pass the cap raises before its first centre.

        The grid 1/d has d near 10^27, so either candidate's window holds
        about 2*10^18 centres: the search raises at its root, not after
        100,001 nodes.
        """
        inst = Instance(F(1, 1000000007), (Sensor(0, F(1, 1000000009)), Sensor(1, F(1, 1000000021))))
        searches = _record_searches(monkeypatch)
        with pytest.raises(ResourceLimitError, match="explored more than 100000 states"):
            fpt_solve(inst, 1, node_cap=100_000)
        (search,) = searches
        assert (search.nodes, search.cuts) == (1, 0)

    @pytest.mark.parametrize(
        "instance, pin, cut",
        [(instance, pin, cut) for _, instance, pin, cut, _ in ORACLE_PINS],
        ids=[name for name, *_ in ORACLE_PINS],
    )
    def test_entry_cut_children_were_nodes(self, monkeypatch, instance, pin, cut):
        """Each child its parent cuts on the entry test was one node before the cut."""
        searches = _record_searches(monkeypatch)
        oracle_optimal(instance)
        (search,) = searches
        assert _entry_cuts(search) == cut
        assert search.nodes + _entry_cuts(search) == pin

    def test_entry_cuts_on_the_random_family(self, monkeypatch):
        """The benchmark's 200 random oracles: the cut nodes come back, and the memo skips.

        The family is the only pinned case where nodes still return at entry
        on their placed hole (``dead-placed-hole`` and ``bound``).  The
        transport gate opens on five of its seeds.
        """
        searches = _record_searches(monkeypatch)
        for seed in range(200):
            oracle_optimal(gen_random(6, 12, 1, 3, (-6, 18), seed))
        assert sum(search.nodes + _entry_cuts(search) for search in searches) == 10587
        assert sum(search.pruned["dominated"] for search in searches) == 1368
        assert sum((search.pruned for search in searches), Counter()) == {
            "bound-cut": 12247, "reach-cut": 5296, "dominated": 1368, "waste": 963,
            "dead-hole-cut": 49, "bound": 16, "dead-placed-hole": 3, "transport": 348}

    @pytest.mark.parametrize(
        "instance, nodes, expected",
        [
            (gen_fig6(2, 6, F(1, 8)), 49, F(15, 8)),
            (gen_fig6(2, 7, F(1, 8)), 93, F(21, 8)),
            (gen_fig6(2, 8, F(1, 8)), 133, F(7, 2)),
            (PINNED, 220, 13),
        ],
        ids=["fig6-m6", "fig6-m7", "fig6-m8", "random"],
    )
    def test_node_cap_boundary_without_memo(self, monkeypatch, instance, nodes, expected):
        """With the dominance memo off, the oracle's counts, entry cuts included.

        The random row keeps the count pinned before the memo.  On fig6 the
        transport rule leaves the memo nothing to skip, so those rows read
        as with it.
        """
        monkeypatch.setattr(exact, "_MEMO_CAP", 0)
        assert oracle_optimal(instance, nodes)[1] == expected
        with pytest.raises(ResourceLimitError, match=f"explored more than {nodes - 1} states"):
            oracle_optimal(instance, nodes - 1)

    @pytest.mark.parametrize(
        "instance, nodes_before_cut",
        [
            (gen_fig6(2, 6, F(1, 8)), 84),
            (gen_fig6(2, 7, F(1, 8)), 130),
            (gen_fig6(2, 8, F(1, 8)), 154),
            (PINNED, 467),
            (DEEP, 1),
            (gen_fig5(2, 44), 62),
        ],
        ids=["fig6-m6", "fig6-m7", "fig6-m8", "random", "deep", "fig5-L44"],
    )
    def test_bound_cut_children_were_nodes(self, monkeypatch, instance, nodes_before_cut):
        """Each child cut on the bound or its entry test in its parent was one node before the cuts.

        The oracle's counts had those children been nodes: the nodes left
        plus the children cut give them back exactly (fig5 L=44 keeps 61 of
        its 62 nodes and cuts one on its entry test).  The random row is
        its count from before the parent learned the bound cut; the others
        were too (329, 939, 2,454, 1,100 and 632) until the transport rule,
        which returns at entry and so takes whole subtrees with it.  The
        memo is off: a child it skips was never a node, cut or not.
        """
        monkeypatch.setattr(exact, "_MEMO_CAP", 0)
        searches = _record_searches(monkeypatch)
        oracle_optimal(instance)
        (search,) = searches
        assert search.nodes + search.pruned["bound-cut"] + _entry_cuts(search) == nodes_before_cut
        assert set(search.pruned) <= {
            "bound", "dead-placed-hole", "waste", "bound-cut", "dead-hole-cut", "reach-cut", "transport"}
        assert "dominated" not in search.pruned

    @pytest.mark.parametrize(
        "search, nodes, pruned",
        [
            (lambda: oracle_optimal(gen_fig6(2, 8, F(1, 8))), 133, {"transport": 123, "bound-cut": 21}),
            (lambda: oracle_optimal(PINNED), 115 - 70, {"reach-cut": 70, "bound-cut": 153, "dominated": 55}),
            (lambda: fpt_solve(PINNED, 13), 175, {"gap-measure": 120}),
            (lambda: fpt_solve(PINNED, 12), 123, {"gap-measure": 86}),
            (lambda: fpt_solve(PINNED, 13, movers=2), 83, {"movers": 70, "gap-measure": 3}),
            (lambda: brute_force_order_preserving(PINNED, 13), 150, {"short": 70, "bound": 113}),
            (lambda: brute_force_order_preserving(PINNED, 12), 143, {"short": 66, "bound": 112}),
        ],
        ids=["oracle-fig6-m8", "oracle-random", "fpt-at-opt", "fpt-below-opt", "fpt-two-movers",
             "order-preserving-at-opt", "order-preserving-below-opt"],
    )
    def test_prune_counts(self, monkeypatch, search, nodes, pruned):
        """Each early return and skipped placement, counted by rule."""
        searches = _record_searches(monkeypatch)
        search()
        (recorded,) = searches
        assert recorded.nodes == nodes
        assert recorded.pruned == pruned


# Each ``ORACLE_PINS`` oracle's whole tree, recorded with the transport
# bound (the random row's, whose gate is shut, from before the lookahead
# became a floor test and ``min_reach`` read only live classes):
# (nodes, cuts, every ``pruned`` rule).
ORACLE_TREES = {
    "oracle-fig5-L24": (31, 1, [("reach-cut", 1), ("transport", 19)]),
    "oracle-fig5-L32": (43, 1, [("reach-cut", 1), ("transport", 27)]),
    "oracle-fig5-L36": (49, 1, [("reach-cut", 1), ("transport", 31)]),
    "oracle-fig5-L40": (55, 1, [("reach-cut", 1), ("transport", 35)]),
    "oracle-fig5-L44": (61, 1, [("reach-cut", 1), ("transport", 39)]),
    "oracle-fig6-m6": (49, 0, [("bound-cut", 35), ("transport", 42)]),
    "oracle-fig6-m7": (93, 0, [("bound-cut", 37), ("transport", 84)]),
    "oracle-fig6-m8": (133, 0, [("bound-cut", 21), ("transport", 123)]),
    "oracle-fig6-m10": (152, 0, [("bound-cut", 15), ("transport", 142)]),
    "oracle-fig6-m12": (174, 0, [("bound-cut", 18), ("transport", 163)]),
    "oracle-fig6-rho3-m8": (71, 0, [("bound-cut", 29), ("transport", 60)]),
    "oracle-random": (45, 70, [("bound-cut", 153), ("dominated", 55), ("reach-cut", 70)]),
    "oracle-deep": (1, 0, [("transport", 1)]),
}

# ``gen_random(7, 14, 1, 4, (-7, 21), seed)`` mixes four radius classes, so
# one class's floor can block it while another is still free: the first 20
# seeds whose oracle makes two or more nodes, as (seed, nodes, cuts, every
# ``pruned`` rule, OPT), recorded with ``ORACLE_TREES``.
MULTI_CLASS_TREES = [
    (2, 13, 11, [("bound-cut", 36), ("reach-cut", 11)], 7),
    (3, 15, 7, [("bound-cut", 18), ("reach-cut", 7)], 3),
    (5, 143, 442, [("bound-cut", 1023), ("dominated", 91), ("reach-cut", 442), ("waste", 14)], 12),
    (6, 392, 1291, [("bound-cut", 825), ("dead-hole-cut", 5), ("dominated", 120), ("reach-cut", 1286),
                    ("waste", 698)], 13),
    (7, 8, 2, [("bound-cut", 14), ("reach-cut", 2)], 3),
    (8, 17, 26, [("bound-cut", 85), ("reach-cut", 26)], 8),
    (9, 35, 23, [("bound-cut", 187), ("reach-cut", 23), ("waste", 2)], 11),
    (10, 14, 9, [("bound-cut", 43), ("dead-hole-cut", 1), ("reach-cut", 8)], 7),
    (11, 2, 8, [("bound-cut", 15), ("reach-cut", 8)], 8),
    (12, 16, 10, [("bound-cut", 22), ("dominated", 1), ("reach-cut", 10)], 5),
    (13, 14, 20, [("bound-cut", 48), ("dominated", 2), ("reach-cut", 20), ("waste", 1)], 5),
    (14, 18, 6, [("bound-cut", 73), ("reach-cut", 6)], 7),
    (15, 57, 77, [("bound-cut", 121), ("dominated", 43), ("reach-cut", 77)], 7),
    (18, 25, 11, [("bound-cut", 39), ("reach-cut", 11)], 4),
    (20, 17, 31, [("bound-cut", 49), ("reach-cut", 31)], 6),
    (22, 17, 2, [("bound", 1), ("bound-cut", 32), ("reach-cut", 2), ("waste", 1)], 6),
    (24, 8, 3, [("bound-cut", 5), ("reach-cut", 3)], 3),
    (26, 8, 7, [("bound-cut", 19), ("reach-cut", 7)], 7),
    (27, 14, 11, [("bound-cut", 25), ("reach-cut", 11)], 4),
    (29, 11, 4, [("bound-cut", 10), ("reach-cut", 4)], 3),
]


def _tree(monkeypatch, instance):
    """The oracle's optimum and its tree: (nodes, cuts, every ``pruned`` rule, sorted)."""
    searches = _record_searches(monkeypatch)
    found = oracle_optimal(instance)
    (search,) = searches
    return found[1], (search.nodes, search.cuts, sorted(search.pruned.items()))


class TestOracleTrees:
    """The oracle walks the tree it walked when these were recorded: every rule's count, not just the size."""

    @pytest.mark.parametrize(
        "instance, expected, tree",
        [(instance, expected, ORACLE_TREES[name]) for name, instance, _, _, expected in ORACLE_PINS],
        ids=[name for name, *_ in ORACLE_PINS],
    )
    def test_pinned_instances(self, monkeypatch, instance, expected, tree):
        assert _tree(monkeypatch, instance) == (expected, tree)

    @pytest.mark.parametrize(
        "seed, nodes, cuts, pruned, expected", MULTI_CLASS_TREES,
        ids=[f"seed{row[0]}" for row in MULTI_CLASS_TREES],
    )
    def test_multi_class_instances(self, monkeypatch, seed, nodes, cuts, pruned, expected):
        instance = gen_random(7, 14, 1, 4, (-7, 21), seed)
        assert len({s.r for s in instance.sensors}) >= 3
        assert _tree(monkeypatch, instance) == (expected, (nodes, cuts, pruned))


class TestFig5Growth:
    """fig5's oracle grows linearly in L: nodes plus cuts at most 2.5 times per doubling.

    Before the transport bound the count grew about 4.5 times per doubling
    (110, 515, 2,225 and 9,245 at these lengths).
    """

    COUNTS = {20: 26, 40: 56, 80: 116, 160: 236}

    def test_count_per_doubling(self, monkeypatch):
        searches = _record_searches(monkeypatch)
        for length in self.COUNTS:
            assert oracle_optimal(gen_fig5(2, length))[1] == length - 2
        counts = {length: s.nodes + s.cuts for length, s in zip(self.COUNTS, searches)}
        assert counts == self.COUNTS
        for length in (20, 40, 80):
            assert 2 * counts[2 * length] <= 5 * counts[length]

    #: Steps one oracle call hands ``exact._transport_sweep``, holes' steps included.
    #: With every home's two steps kept, these read 406 / 1,816 / 7,636 / 31,276.
    STEPS = {20: 126, 40: 286, 80: 606, 160: 1246}

    def test_sweep_steps_per_doubling(self, monkeypatch):
        """The sweep's work grows linearly too: on fig5 the unplaced homes abut, so their steps cancel.

        fig6's homes lie delta apart and never abut, so its count is what
        every home's two steps give: 2,220 at m = 8.
        """
        sweep = exact._transport_sweep
        steps = []

        def counted(step_list, spare, cap=None):
            steps[-1] += len(step_list)
            return sweep(step_list, spare, cap)

        monkeypatch.setattr(exact, "_transport_sweep", counted)
        for length in self.STEPS:
            steps.append(0)
            assert oracle_optimal(gen_fig5(2, length))[1] == length - 2
        counts = dict(zip(self.STEPS, steps))
        assert counts == self.STEPS
        for length in (20, 40, 80):
            assert 2 * counts[2 * length] <= 5 * counts[length]
        steps.append(0)
        oracle_optimal(gen_fig6(2, 8, F(1, 8)))
        assert steps[-1] == 2220

    def test_memory_stays_linear_along_the_probe(self):
        """The probe walks to depth n, and one home-breakpoint list follows it.

        The peak at L = 480 (n = 239) reads about 0.3 MB.  A sorted list
        kept for every depth the search reaches holds O(n²) ints and
        read 0.83 MB.
        """
        tracemalloc.start()
        try:
            assert oracle_optimal(gen_fig5(2, 480))[1] == 478
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 2**20


class TestDominanceMemo:
    """The memo may stop recording at any size: a missing entry only loses a skip."""

    @pytest.mark.parametrize("memo_cap", [0, 3])
    def test_capped_memo_matches_reference(self, monkeypatch, memo_cap):
        monkeypatch.setattr(exact, "_MEMO_CAP", memo_cap)
        searches = _record_searches(monkeypatch)
        instances = [gen_fig6(rho, m, F(1, 8)) for rho in (2, 3) for m in range(2, 9)]
        instances += [gen_random(6, 12, 1, 3, (-6, 18), seed) for seed in range(50)]
        for instance in instances:
            assert oracle_optimal(instance) == ref.oracle_optimal(instance), instance
        dominated = sum(search.pruned["dominated"] for search in searches)
        # A full memo still answers lookups; an empty one never does.
        assert (dominated > 0) == (memo_cap > 0)


class TestOracleOptimal:
    def test_solution_is_a_witness(self):
        for _, inst, _ in random_corpus(40):
            found = oracle_optimal(inst)
            if found is None:
                continue
            solution, value = found
            assert verify_coverage(inst, solution).covered
            assert cost(inst, solution) == value
            assert all(v.denominator == 1 for v in solution)

    def test_none_only_when_infeasible(self):
        assert oracle_optimal(Instance(10, (Sensor(0, 1),))) is None


def _root_bound(instance):
    """The transport bound T0 at the oracle's root, in grid units."""
    _, length, xs, rs = instance._grid
    slack = sum(2 * r for r in rs) - length
    return _transport_bound(xs, rs, [(0, length)] if length else [], slack)


@st.composite
def _tight_nodes(draw):
    """An integer instance with n <= 5, L <= 12 and little slack, and a prefix placed in its windows."""
    rs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    length = max(1, min(12, sum(2 * r for r in rs) - draw(st.integers(0, 2))))
    xs = draw(st.lists(st.integers(-4, 16), min_size=len(rs), max_size=len(rs)))
    instance = Instance(length, tuple(Sensor(x, r) for x, r in zip(xs, rs)))
    _, length, xs, rs = instance._grid
    n = len(xs)
    i = draw(st.integers(max(0, n - 3), n))
    ys = [draw(st.integers(min(-r, x), max(length + r, x))) for x, r in zip(xs[:i], rs[:i])]
    return length, list(xs), list(rs), ys


def _cheapest_completion(length, xs, rs, holes):
    """Least movement of the sensors left to cover ``holes``, each tried over its whole window."""
    best = None
    windows = [range(min(-r, x), max(length + r, x) + 1) for x, r in zip(xs, rs)]
    for ys in itertools.product(*windows):
        spend = sum(abs(y - x) for y, x in zip(ys, xs))
        if best is not None and spend >= best:
            continue
        left = holes
        for y, r in zip(ys, rs):
            left = exact._cut(left, y - r, y + r)
        if not left:
            best = spend
    return best


class TestTransportBound:
    """The transport bound never exceeds what a node still has to spend."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tight_nodes())
    def test_admissible_at_a_placed_prefix(self, node):
        length, xs, rs, ys = node
        i = len(ys)
        holes = [(0, length)]
        for y, r in zip(ys, rs):
            lo, hi = max(y - r, 0), min(y + r, length)
            if lo < hi:
                holes = exact._cut(holes, lo, hi)
        slack = sum(2 * r for r in rs) - length
        waste = sum(2 * r for r in rs[:i]) - (length - sum(hi - lo for lo, hi in holes))
        completion = _cheapest_completion(length, xs[i:], rs[i:], holes)
        if completion is None:
            return  # no completion: any bound holds
        bound = _transport_bound(xs[i:], rs[i:], holes, slack - waste)
        assert bound <= completion

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(-20, 40), st.integers(1, 6)), min_size=1, max_size=6),
        st.lists(st.integers(-5, 45), max_size=8, unique=True),
        st.integers(-3, 30),
        st.integers(-4, 12),
    )
    def test_early_stop_cuts_where_the_whole_bound_does(self, spans, ends, spare, room):
        """The sweep stopped at cap = room·4·r_max passes it iff spent + T > bnd, with room = bnd - spent."""
        centers, radii = zip(*spans)
        ends.sort()
        holes = list(zip(ends[::2], ends[1::2]))  # sorted and disjoint; none from fewer than two ends
        steps = sorted([step for x, r in spans for step in (2 * (x - r) + 1, 2 * (x + r))]
                       + [step for lo, hi in holes for step in (2 * lo, 2 * hi + 1)])
        cap = room * 4 * max(radii)
        assert (_transport_sweep(steps, spare, cap) > cap) == (_transport_bound(centers, radii, holes, spare) > room)

    @pytest.mark.parametrize(
        "instances",
        [
            [inst for _, inst, _ in random_corpus(200)],
            [gen_random(6, 12, 1, 3, (-6, 18), seed) for seed in range(200)],
            [gen_fig6(2, m, F(1, 8)) for m in range(1, 11)],
            [gen_fig6(3, m, F(1, 8)) for m in range(1, 9)],
        ],
        ids=["corpus", "random-family", "fig6-rho2", "fig6-rho3"],
    )
    def test_root_bound_is_at_most_opt(self, instances):
        for instance in instances:
            found = oracle_optimal(instance)
            if found is not None:
                assert _root_bound(instance) <= found[1] * instance._grid[0], instance

    @pytest.mark.parametrize("rho, lengths", [(2, range(6, 45, 2)), (3, range(8, 25, 2))])
    def test_root_bound_is_opt_on_fig5(self, rho, lengths):
        for length in lengths:
            instance = gen_fig5(rho, length)
            assert _root_bound(instance) == oracle_optimal(instance)[1] * instance._grid[0], length


@pytest.mark.parametrize("instance", [Instance(10, (Sensor(0, 1),)), I1], ids=["infeasible", "feasible"])
@pytest.mark.parametrize(
    "search", [brute_force, brute_force_order_preserving, fpt_solve, dp_exact], ids=lambda f: f.__name__)
def test_every_budgeted_search_refuses_a_negative_budget(search, instance):
    """Each search converts its budget before its feasibility test, so -1 raises whether or not a cover exists."""
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        search(instance, -1)
