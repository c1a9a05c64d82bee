import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barriercover
from barriercover import Instance, Sensor, cost, gen_random, harness, scale_instance
from barriercover.harness import (
    CSV_HEADER,
    SOLVERS,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_RESOURCE,
    compare,
    fig5_sweep,
    fig6_sweep,
    records_to_csv,
)

from conftest import fresh_python, random_corpus

I1 = Instance(4, (Sensor(0, 1), Sensor(5, 1)))
I2 = Instance(12, (Sensor(0, 2), Sensor(1, 1), Sensor(3, 1), Sensor(5, 1), Sensor(7, 1)))
INFEASIBLE = Instance(10, (Sensor(0, 1),))


class TestCompare:
    def test_exact_solvers_all_ratio_one(self):
        records = compare(I1, ["dp-optimal", "fpt", "oracle"], "oracle", instance_id="i1")
        assert len(records) == 3
        assert all(r.status == STATUS_OK for r in records)
        assert all(r.ratio == 1 for r in records)
        assert all(r.cost == 3 for r in records)

    def test_infeasible_instance_marks_every_record(self):
        records = compare(INFEASIBLE, ["dp-optimal", "oracle"], "oracle")
        assert all(r.status == STATUS_INFEASIBLE for r in records)
        assert all(r.cost is None and r.ratio is None for r in records)

    def test_order_preserving_penalty_ratio(self):
        records = compare(I2, ["dp-optimal"], "oracle", instance_id="i2")
        (record,) = records
        assert record.cost == 18 and record.ref_cost == 10
        assert record.ratio == F(9, 5)

    def test_resource_limit_status(self):
        records = compare(
            I2, ["dp-optimal"], "oracle", instance_id="i2", node_cap=3
        )
        (record,) = records
        assert record.status == STATUS_RESOURCE
        assert record.ratio is None

    def test_too_deep_search_is_a_resource_limit(self):
        """A deep search cut 1,000 levels down by the node cap is recorded as resource-limit."""
        deep = Instance(2199, tuple(Sensor(2 * i + 2, 1) for i in range(1100)))
        (record,) = compare(deep, ["oracle"], "oracle", instance_id="deep", node_cap=1_000)
        assert (record.status, record.cost, record.ratio) == (STATUS_RESOURCE, None, None)

    def test_eps_solver_adapter(self):
        solution = SOLVERS["dp-eps"](I1, None, F(1, 2), 10**6)
        assert cost(I1, solution) == 3
        (record,) = compare(I1, ["dp-eps"], "oracle", instance_id="i1", eps=F(1, 2))
        assert (record.status, record.cost, record.ratio) == (STATUS_OK, 3, 1)

    @staticmethod
    def count_runs(monkeypatch, names, clock=None) -> list[str]:
        """Log each registry call by name; with ``clock``, the harness reads that as its timer."""
        runs = []
        for name in names:
            solver = SOLVERS[name]
            monkeypatch.setitem(
                SOLVERS, name, lambda *args, name=name, solver=solver: runs.append(name) or solver(*args)
            )
        if clock is not None:
            monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=clock))
        return runs

    def test_capped_reference_gives_its_status_to_every_record(self):
        """dp-optimal finishes, but with no reference cost its record takes the reference's status."""
        records = compare(I2, ["dp-eps", "dp-optimal", "oracle"], "oracle", instance_id="i2", node_cap=3)
        assert [(r.algo, r.status, r.cost, r.ref_cost, r.ratio) for r in records] == [
            ("dp-eps", STATUS_RESOURCE, 18, None, None),
            ("dp-optimal", STATUS_RESOURCE, 18, None, None),
            ("oracle", STATUS_RESOURCE, None, None, None),
        ]

    def test_listed_reference_reuses_its_run(self, monkeypatch):
        # The fake clock gives the reference run 250 ms and the fpt run 500 ms.
        ticks = iter([0.0, 0.25, 1.0, 1.5])
        runs = self.count_runs(monkeypatch, ["oracle", "fpt"], clock=lambda: next(ticks))
        records = compare(I1, ["fpt", "oracle"], "oracle", instance_id="i1")
        assert runs == ["oracle", "fpt"]
        assert [(r.algo, r.time_ms, r.ratio) for r in records] == [("fpt", 500, 1), ("oracle", 250, 1)]

    def test_repeated_name_runs_each_time(self, monkeypatch):
        runs = self.count_runs(monkeypatch, ["oracle", "fpt"])
        records = compare(I1, ["fpt", "fpt"], "oracle", instance_id="i1")
        assert runs == ["oracle", "fpt", "fpt"]
        assert [(r.algo, r.status, r.cost, r.ratio) for r in records] == [("fpt", STATUS_OK, 3, 1)] * 2

    def test_zero_reference_cost_gives_no_ratio(self):
        covered = Instance(4, (Sensor(1, 1), Sensor(3, 1)))
        records = compare(covered, ["dp-optimal", "oracle"], "oracle", instance_id="c")
        assert [(r.status, r.cost, r.ref_cost, r.ratio) for r in records] == [(STATUS_OK, 0, 0, None)] * 2


class TestRatioSweep:
    def test_fig5_ratios_grow_toward_rho(self):
        records = fig5_sweep([8, 12, 16], 2)
        ratios = [r.ratio for r in records if r.algo == "dp-optimal"]
        assert ratios == [F(5, 3), F(9, 5), F(13, 7)]
        assert all(r >= 1 for r in ratios)
        assert ratios == sorted(ratios)

    def test_fig5_uniform_radii_ratio_one(self):
        records = fig5_sweep([4, 8], 1)
        ratios = [r.ratio for r in records if r.algo == "dp-optimal"]
        assert ratios == [1, 1]

    def test_fig6_untangle_sweep_runs(self):
        records = fig6_sweep([2, 4], 2, F(1, 8))
        measured = [r for r in records if r.algo == "untangle-oracle"]
        assert all(r.status == STATUS_OK for r in measured)
        assert all(r.ratio >= 1 for r in measured)

    SWEEPS = {"fig5": fig5_sweep, "fig6": fig6_sweep}

    @pytest.fixture
    def no_runs(self, monkeypatch):
        monkeypatch.setattr(harness, "compare", lambda *args, **kw: pytest.fail("a malformed sweep ran"))

    @pytest.mark.parametrize(
        "family, grid, key",
        [
            ("fig5", {"lengths": [12], "rho": [2, 3]}, "rho"),
            ("fig5", {"lengths": [12], "rho": []}, "rho"),
            ("fig6", {"ms": [2], "rho": [2, 3], "delta": F(1, 8)}, "rho"),
            ("fig6", {"ms": [2], "rho": 2, "delta": [F(1, 8), F(1, 4)]}, "delta"),
        ],
    )
    def test_fixed_parameter_takes_one_value(self, family, grid, key, no_runs):
        """A sweep fixes rho (and fig6's delta): a list of any length there is refused, not cut to its head."""
        assert type(grid[key]) is list
        with pytest.raises(TypeError):
            self.SWEEPS[family](**grid)

    @pytest.mark.parametrize(
        "family, grid, why",
        [
            ("fig5", {"lengths": [12], "rho": 2, "delta": 1, "ms": [3, 4]}, "fig5 sweep does not read delta or ms"),
            ("fig5", {"Ls": [12], "rho": 2}, "fig5 sweep does not read the misspelt Ls"),
            ("fig6", {"ms": [2], "rho": 2, "delta": F(1, 8), "lengths": [12]}, "fig6 sweep does not read lengths"),
        ],
    )
    def test_grid_keys_match_the_family(self, family, grid, why, no_runs):
        """A keyword the sweep does not take is refused by the signature before any run."""
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            self.SWEEPS[family](**grid)

    @pytest.mark.parametrize(
        "sweep, kwargs",
        [(fig5_sweep, {"rho": 2}), (fig6_sweep, {"rho": 2, "delta": F(1, 8)})],
        ids=["fig5-no-lengths", "fig6-no-ms"],
    )
    def test_malformed_call_is_refused(self, sweep, kwargs, no_runs):
        """A call without its swept list is refused before any run."""
        with pytest.raises(TypeError, match="missing 1 required positional argument"):
            sweep(**kwargs)


class TestCsv:
    def test_header_and_rational_formatting(self):
        records = compare(I2, ["dp-optimal"], "oracle", instance_id="i2")
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "i2"
        assert fields[1] == "dp-optimal"
        assert fields[2] == STATUS_OK
        assert fields[3] == "18"
        assert fields[4] == "10"
        assert fields[5] == "9/5"

    def test_deterministic_ordering(self):
        a = compare(I1, ["oracle", "dp-optimal", "fpt"], "oracle", instance_id="i1")
        b = compare(I1, ["fpt", "dp-optimal", "oracle"], "oracle", instance_id="i1")
        assert [(r.instance, r.algo) for r in a] == [(r.instance, r.algo) for r in b]


CORPUS = list(random_corpus(40))


def solved_cost(name: str, instance: Instance, budget: Optional[F]) -> Optional[F]:
    """Cost of a registry solver's answer; None when no cover fits the budget."""
    solution = SOLVERS[name](instance, budget, F(1, 2), 10**7)
    return None if solution is None else cost(instance, solution)


class TestSolverRegistry:
    def test_names(self):
        assert sorted(SOLVERS) == ["dp-eps", "dp-exact", "dp-optimal", "fpt", "oracle", "untangle-oracle"]
        assert SOLVERS["dp-exact"] is SOLVERS["dp-optimal"]

    @pytest.mark.parametrize("budget", [None, 50])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_infeasible_instance_gives_none(self, name, budget):
        """No cover exists at all: every entry returns None, with or without a budget."""
        assert SOLVERS[name](INFEASIBLE, budget, F(1, 2), 10**6) is None

    @pytest.mark.parametrize("instance", [INFEASIBLE, I1], ids=["infeasible", "feasible"])
    @pytest.mark.parametrize("name", sorted(set(SOLVERS) - {"dp-eps"}))
    def test_negative_budget_is_refused(self, name, instance):
        """Every solver that reads the budget refuses a negative one, whether or not a cover exists."""
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            SOLVERS[name](instance, -1, F(1, 2), 10**6)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from(CORPUS),
        name=st.sampled_from(sorted(SOLVERS)),
        c=st.sampled_from([F(2), F(3), F(1, 2), F(1, 3)]),
        budgeted=st.booleans(),
    )
    def test_cost_scales_with_the_instance(self, case, name, c, budgeted):
        _, inst, budget = case
        budget = F(budget) if budgeted else None
        got = solved_cost(name, inst, budget)
        scaled = solved_cost(name, scale_instance(inst, c), None if budget is None else budget * c)
        assert scaled == (None if got is None else c * got)

    def test_fpt_without_budget_skips_the_budgets_below_the_gap_bound(self, monkeypatch):
        """``fpt`` with no budget returns the cover that doubling from one grid step finds, in fewer calls.

        fig5 L=12 has home gaps G = 4 and OPT = 10: the calls at budgets 1
        and 2 could only miss, so budgets 1, 2, 4, 8, 16 become 4, 8, 16.
        """
        from barriercover import exact, generators, order_dp

        inst = generators.gen_fig5(2, 12)
        top = order_dp.greedy_cover(inst)[1]
        budget, from_one = F(1), []
        while True:
            from_one.append(min(budget, top))
            found = exact.fpt_solve(inst, from_one[-1])
            if found is not None:
                break
            budget *= 2
        calls = []
        real = exact.fpt_solve

        def counted(instance, budget, node_cap):
            calls.append(budget)
            return real(instance, budget, node_cap)

        monkeypatch.setattr(exact, "fpt_solve", counted)
        assert SOLVERS["fpt"](inst, None, None, 10**6) == found[0]
        assert from_one == [1, 2, 4, 8, 16] and calls == [4, 8, 16]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        length=st.integers(2, 14),
        r=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_equal_radii_need_no_reordering(self, n, length, r, seed):
        # With one radius, uncrossing any optimum keeps its cost (swapping equal
        # intervals moves nobody further), so OPT_op equals OPT.
        inst = gen_random(n, length, r, r, (-10, 15), seed)
        assert solved_cost("dp-optimal", inst, None) == solved_cost("oracle", inst, None)


class TestPublicNames:
    """A deleted name that the benchmark traces or the package exports fails here, not in a run."""

    def test_traced_layers_resolve(self, monkeypatch):
        # ``Tracer.install`` calls getattr on every LAYERS entry, so one missing name fails every run.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        traced = [(module, func) for module, funcs in tracer.LAYERS.items() for func in funcs]
        assert len(traced) >= 20
        for module, func in traced:
            assert callable(getattr(importlib.import_module(f"barriercover.{module}"), func, None)), f"{module}.{func}"

    def test_all_names_resolve(self):
        assert [name for name in barriercover.__all__ if not hasattr(barriercover, name)] == []

    def test_lazy_exports_in_a_fresh_interpreter(self):
        # This process has loaded every submodule already, so only a new one takes the lazy path.
        code = """
import sys
import barriercover.untangle
from barriercover import untangle
assert untangle is sys.modules["barriercover.untangle"].untangle, untangle
import barriercover.exact, barriercover.order_dp, barriercover.generators
for name in barriercover.__all__:
    home = barriercover._LAZY.get(name) or ("model" if name in vars(barriercover.model) else "untangle")
    assert getattr(barriercover, name) is getattr(sys.modules["barriercover." + home], name), name
assert set(barriercover.__all__) <= set(dir(barriercover))
print("ok")
"""
        assert fresh_python(code) == "ok\n"
