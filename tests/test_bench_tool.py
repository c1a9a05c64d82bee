"""``tools/bench_dp.py`` never replaces a recorded figure.

A ``rows`` label or a ``pairs`` key and seed that the JSON file already
holds is refused with ``SystemExit`` before anything is timed, and the file
is left as it was.  The timing entry points are replaced by a stub that
raises, so a test that reaches them fails loudly instead of timing.
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_dp.py"


class Timed(Exception):
    """Raised by the stubbed timing entry points."""


@pytest.fixture
def bench_dp(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_dp_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def timed(*args, **kwargs):
        raise Timed

    monkeypatch.setattr(sys, "path", list(sys.path))  # ``rows`` puts its --src first
    monkeypatch.setattr(module, "row_in_child", timed)
    monkeypatch.setattr(module, "perfbench_run", timed)
    return module


def _run(bench_dp, monkeypatch, out, *argv):
    monkeypatch.setattr(sys, "argv", ["bench_dp.py", "--topic", "untangle", "--out", str(out), *argv])
    bench_dp.main()


RECORD = {"topic": "t", "runs": {"before": {}, "old_after": {}}, "untangle_swaps_pairs": {"0": {}}, "k": {"1": {}}}


@pytest.mark.parametrize(
    "argv",
    [
        ("rows", "--label", "old_after"),
        ("rows", "--label", "new_after", "--before", "src"),
        ("rows", "--label", "new_after", "--before", "src", "--before-label", "old_after"),
        ("rows", "--label", "same", "--before", "src", "--before-label", "same"),
        ("pairs", "--before", "."),
        ("pairs", "--before", ".", "--key", "k", "--seed", "1"),
    ],
)
def test_refuses_a_recorded_label_or_key_before_timing(bench_dp, monkeypatch, tmp_path, argv):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps(RECORD))
    with pytest.raises(SystemExit):
        _run(bench_dp, monkeypatch, out, *argv)
    assert json.loads(out.read_text()) == RECORD


@pytest.mark.parametrize(
    "argv",
    [
        ("rows", "--label", "new_after", "--before", "src", "--before-label", "new_before"),
        ("pairs", "--before", ".", "--seed", "1"),
        ("pairs", "--before", ".", "--key", "k", "--seed", "0"),
    ],
)
def test_new_labels_and_keys_reach_the_timing(bench_dp, monkeypatch, tmp_path, argv):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps(RECORD))
    with pytest.raises(Timed):
        _run(bench_dp, monkeypatch, out, *argv)


def test_rows_keep_the_least_child_median(bench_dp, monkeypatch):
    """Each row runs in three children per side, the sides alternating; the least child median is kept.

    Every child median is kept too, in the order the side's children ran,
    with each side's median of them and the after/before ratio of those.
    """
    calls = []
    figures = iter([0.5, 0.2, 0.3, 0.1, 0.4, 0.6] + ["search explored more than 9 states"] * 6)

    def child(topic, src, name, k):
        calls.append((name, src.name))
        return next(figures)

    monkeypatch.setattr(bench_dp, "row_in_child", child)
    monkeypatch.setattr(bench_dp, "load_package", lambda src: None)
    monkeypatch.setitem(bench_dp.ROWS, "untangle", lambda bc: {"fast": None, "limited": None})
    monkeypatch.setattr(bench_dp, "git_sha", lambda path: "sha")
    args = argparse.Namespace(topic="untangle", src="new", label="after", before="old", before_label="before", k=1)
    runs = bench_dp.cmd_rows(args)
    assert calls[:6] == [("fast", "old"), ("fast", "new"), ("fast", "new"), ("fast", "old"),
                         ("fast", "old"), ("fast", "new")]
    assert calls[6:8] == [("limited", "new"), ("limited", "old")]
    assert runs["before"]["rows"] == {"fast": 0.1} and runs["after"]["rows"] == {"fast": 0.2}
    assert runs["before"]["child_medians"] == {"fast": [0.5, 0.1, 0.4]}
    assert runs["after"]["child_medians"] == {"fast": [0.2, 0.3, 0.6]}
    assert runs["before"]["median_child_median"] == {"fast": 0.4}
    assert runs["after"]["median_child_median"] == {"fast": 0.3}
    assert runs["after"]["median_ratio"] == {"fast": 0.75}
    assert "median_ratio" not in runs["before"]
    assert runs["after"]["resource_limit"] == {"limited": "search explored more than 9 states"}


def test_untangle_rows_reach_fig5_L5120_and_a_two_deep_stack(bench_dp):
    """The stack row runs the drop rule's remaining sweeps: each pair of twins keeps its first copy."""
    import barriercover

    rows = bench_dp.untangle_rows(barriercover)
    assert [name for name in rows if name.startswith("untangle.fig5_L")][-2:] == [
        "untangle.fig5_L2560", "untangle.fig5_L5120"]
    y, active = rows["untangle.stack2_n400"]()
    assert len(y) == 400 and active == tuple(range(0, 400, 2))


def test_search_rows_solve_the_near_tiling_at_n200_and_n2000(bench_dp):
    """The FPT rows run ``cheapest_first`` over ``fpt_solve``: OPT is 6 at every n."""
    import barriercover

    rows = bench_dp.search_rows(barriercover)
    assert [name for name in rows if name.startswith("fpt_solve.near_tiling")] == [
        "fpt_solve.near_tiling_n200", "fpt_solve.near_tiling_n2000"]
    y, value = rows["fpt_solve.near_tiling_n200"]()
    assert len(y) == 200 and value == 6


def test_pairs_count_wins_on_every_end_to_end_metric(bench_dp, monkeypatch):
    """A win is a better value by the metric's ``better`` direction in ``BENCHMARK.json``; a tie is no win."""
    def run(ops, p50, rss):
        return {"setup_s": 0.02, "ops_per_s": ops, "op_ms_p50": p50, "op_ms_tail": 0.2, "peak_rss_mb": rss}

    # pair 1 runs before then after, pair 2 after then before
    results = iter([run(100, 1.0, 20), run(110, 0.9, 21), run(120, 0.8, 22), run(105, 1.1, 20)])
    monkeypatch.setattr(bench_dp, "perfbench_run", lambda *args: next(results))
    monkeypatch.setattr(bench_dp, "git_sha", lambda path: "sha")
    args = argparse.Namespace(before="old", after="new", pairs=2, workload="untangle-swaps", seed=0, seconds=1)
    record = bench_dp.cmd_pairs(args)
    assert record["after_wins"] == {"setup_s": 0, "ops_per_s": 2, "op_ms_p50": 2, "op_ms_tail": 0,
                                    "peak_rss_mb": 0}
    assert record["after_wins_ops_per_s"] == 2
    assert record["ops_per_s_runs"] == {"before": [100, 105], "after": [110, 120]}


def test_short_rows_take_their_floor_of_runs_per_child(bench_dp, monkeypatch):
    """A row named in ``MIN_K`` runs at least that many times in each child; a larger ``--k`` wins.

    The floor's rows exist, so a renamed row cannot lose its floor unseen.
    """
    import barriercover

    assert set(bench_dp.MIN_K) <= set(bench_dp.search_rows(barriercover))
    runs_per_child = []

    def child(topic, src, name, k):
        runs_per_child.append((name, k))
        return 0.1

    monkeypatch.setattr(bench_dp, "row_in_child", child)
    monkeypatch.setattr(bench_dp, "load_package", lambda src: None)
    monkeypatch.setitem(bench_dp.ROWS, "search", lambda bc: {"oracle_optimal.random_family_200": None, "fast": None})
    monkeypatch.setattr(bench_dp, "git_sha", lambda path: "sha")
    for k, family_k in ((3, 9), (12, 12)):
        runs_per_child.clear()
        args = argparse.Namespace(topic="search", src="new", label="after", before="old", before_label="before", k=k)
        runs = bench_dp.cmd_rows(args)
        assert runs_per_child == [("oracle_optimal.random_family_200", family_k)] * 6 + [("fast", k)] * 6
        for run in runs.values():
            assert run["k"] == k
            assert run.get("k_rows") == ({"oracle_optimal.random_family_200": 9} if family_k != k else None)


def test_dp_rows_time_each_dp_order_call(bench_dp):
    """Both solvers on each ``dp-order`` instance, 200 calls a row: fig5 L = 8..18 and the seed-0 random n = 3 draw."""
    import barriercover
    from barriercover import Instance, Sensor

    rows = bench_dp.dp_rows(barriercover)
    stems = ["random_n3_seed0"] + [f"fig5_L{length}" for length in range(8, 19, 2)]
    assert [name for name in rows if name.endswith("_x200")] == [
        f"{solver}.{stem}_x200" for stem in stems for solver in ("dp_optimal", "dp_eps_half")]
    drawn = Instance(6, (Sensor(-2, 3), Sensor(6, 1), Sensor(7, 3)))  # perfbench's r0.n3 at seed 0
    answers = rows["dp_optimal.random_n3_seed0_x200"]()
    assert answers == [barriercover.dp_optimal(drawn)] * 200


def test_dp_rows_reach_the_one_shot_row_stop(bench_dp, monkeypatch):
    """``dp_exact`` at fig5's OPT, below OPT_op, gives up a table before its last row on every call."""
    import barriercover
    from barriercover import order_dp

    resumes = []
    fill_row = order_dp._fill_row

    def counted(*args):
        for _ in fill_row(*args):
            resumes.append(None)
            yield

    rows = bench_dp.dp_rows(barriercover)
    assert [name for name in rows if name.startswith(("dp_exact_opt.", "dp_eps_one."))] == [
        "dp_exact_opt.fig5_L40_x250", "dp_exact_opt.fig5_L160_x20", "dp_eps_one.fig6_m12_x50",
        "dp_eps_one.fig6_m15_x50"]
    monkeypatch.setattr(order_dp, "_fill_row", counted)
    assert rows["dp_exact_opt.fig5_L40_x250"]() == [None] * 250
    assert len(resumes) == 250 * 11 < 250 * barriercover.gen_fig5(2, 40).n
