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
