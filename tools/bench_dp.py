"""Time the solver layers and record the figures in BENCH_<topic>.json.

Stdlib only.  Three topics, ``dp`` (the order-preserving budget DP, the
default), ``untangle`` and ``search`` (the exhaustive searches), and two
subcommands, run from the repository root:

    python tools/bench_dp.py rows --label new_after --before ../parent/src --before-label new_before
    python tools/bench_dp.py pairs --before ../parent --after . --pairs 10 --key dp_order_pairs_new
    python tools/bench_dp.py --topic untangle rows --label new_after
    python tools/bench_dp.py --topic untangle pairs --before ../parent --pairs 10 --key untangle_swaps_pairs_new
    python tools/bench_dp.py --topic search rows --label new_after

``rows`` times the topic's baseline rows on the ``barriercover`` in
``--src`` (default: this checkout's ``src``).  The DP rows are the C3 gate
loop, ``dp_eps`` (eps = 1/2) and ``dp_optimal`` on
``gen_random(n, 2n, 1, 3, (-n, 3n), 7)`` for n in {10, 20, 40, 80, 160, 300}
(ROADMAP item 4's instances at 80, 160 and 300),
``dp_optimal`` on the n = 20 instance scaled by 100 (3 budgets, 1,024 to
4,096 grid steps: the doubling starts at the power of two at most the home
gap bound, 1,200 steps),
``dp_optimal`` and ``dp_eps`` (eps = 1/2) over fig5 L = 8, 10, ..., 24 in
one row each, the same two per call on each instance of the ``dp-order``
workload (fig5 L = 8, 10, ..., 18 and its random n = 3 instance at seed 0,
``_x200`` rows of 200 calls each, so a row's figure over 200 is one call),
the one-shot table that ``dp_exact`` and a rounded ``dp_eps`` guess fill
(``order_dp._dp_within``, with its row stop), which no ``dp-order`` op
fills: ``dp_exact`` at OPT on fig5 L = 40 and 160 (250 and 20 calls a
row; OPT comes from ``oracle_optimal`` when the row is built, and is
below OPT_op, so each call returns None once a row proves that no budget
covers) and ``dp_eps`` at eps = 1 on ``gen_fig6(2, m, 1/8)`` for m in
{12, 15} (50 calls a row),
fig5 L=40 ``dp_optimal`` against the exhaustive
``oracle_optimal``, and three ``python -m barriercover`` child runs on
``--src`` (interpreter start and import included): ``solve --algo
dp-optimal corpora/i1.bc``, ``gen --family random --n 6 --length 12`` and
``verify corpora/i1.bc /dev/stdin`` with a covering solution on stdin.  The
untangle rows are ``untangle`` on fig5 L in {40, 80, 160, 320, 640, 1280,
2560, 5120} (n = 19, 39, 79, 159, 319, 639, 1279, 2559) with the large
sensor moved to L - 2, where it crosses the whole unit row, and on a
two-deep stack at home: two unit sensors at each of x = 1, 3, ..., 399 on
L = 400, where no sensor covers a stretch alone, so the drop rule sweeps
once per sensor.
The search rows are ``oracle_optimal`` on fig5 L in {40, 44, 160, 320,
640, 1280}, on ``gen_fig6(2, m, 1/8)`` for m in {8, 12}, on
``gen_fig6(2, m, 1/16)`` for m in {16, 24} and, in one row, on all 200
instances ``gen_random(6, 12, 1, 3, (-6, 18), s)`` for s = 0..199 (the
``exact-oracle`` workload's random family), ``exact._transport_sweep``
alone on fig5 L = 44 and fig6 m = 8 (1/8), each row replaying in one call
every ``(steps, spare, cap)`` that one ``oracle_optimal`` call hands it
(captured when the row is built, outside the timed call, so a change to
what the oracle hands the sweep changes the row's input), and
``oracle_optimal`` and ``brute_force_order_preserving`` on the deep
tiling: L = 2200 with 1,100 sensors at x = 2i + 2, r = 1, whose only
cover moves every sensor, and
``oracle_optimal`` on the same sensors at L = 2199, one unit of slack, and
``fpt_solve`` at budgets OPT and OPT - 1 on ``gen_random(6, 12, 1, 3,
(-6, 18), s)`` for s = 0..14 with OPT > 0 (OPT comes from
``oracle_optimal`` when the row is built, outside the timed call), and
``cheapest_first`` over ``fpt_solve`` on ``near_tiling(n)`` from
``tests/conftest.py`` for n in {200, 2000}: OPT is 6 and the two searches
explore 1 and 35 nodes whatever n, so the rows time what a node costs.
Each row is timed in ``CHILDREN`` (3) child processes per side, each
taking the median of ``--k`` runs in process CPU time (the CPU time of
the row's own finished subprocesses included), or of ``MIN_K[row]`` runs
for a row named there when that is more (those rows' run counts go
under ``k_rows``); the least of those child medians is recorded, to the
microsecond, so one slow child does not move the row, and every child
median goes under ``child_medians``, in the order the children ran, so the
spread between children shows.  The median of
those child medians goes under ``median_child_median``: one lucky fast
child moves the least child but not the median.  A row whose
search raises ``ResourceLimitError`` records the message under
``resource_limit`` instead.  The result goes under
``runs[--label]`` together with the Python version and the git SHA of the
checkout that holds ``--src``.  With ``--before SRC`` every row is also
timed on ``SRC``, the two sides' children alternating, and the side that
runs first alternating from child to child and row to row, so host drift
hits both sides alike; that run goes under ``runs[--before-label]``, and
the ``--label`` run also records, under ``median_ratio``, each row's
after/before ratio of the two sides' median child medians.

``pairs`` runs ``perfbench/run.py --workload W`` (W defaults to the topic's
workload: ``dp-order``, ``untangle-swaps`` or ``exact-oracle``) in the ``--before`` and
``--after`` checkouts, one run of each per pair, with the side that runs
first alternating from pair to pair.  It records each side's median and
quartiles of every end-to-end metric, and how many pairs the after side won
on each end-to-end metric of ``BENCHMARK.json``, by its ``better``
direction, under ``after_wins`` (``after_wins_ops_per_s`` repeats the
``ops_per_s`` count), under ``<W>_pairs[seed]`` (dashes in W become
underscores; ``--key`` replaces ``<W>_pairs``).  Each run is a separate
process and reads only its own checkout.

Every child that ``rows`` and ``pairs`` start compiles the package from
source, as a fresh checkout does.  A side whose ``src`` (or, for ``pairs``,
``perfbench``) holds a ``__pycache__`` is refused before its child starts,
and every child runs with ``PYTHONDONTWRITEBYTECODE=1`` and without
``PYTHONPYCACHEPREFIX``, so it writes none and reads only the checkout's
own.  A cache on one side only would cut that side's import time, which
shows in ``setup_s`` and in every ``cli-small`` metric.  A prefix pointing
at an empty directory is no cure: it moves the standard library's caches
too, so every child would compile ``argparse``, ``fractions`` and the rest
from source (0.07 s against 0.38 s to import five such modules).

Recorded figures are never replaced: a ``rows`` label, or a ``pairs`` key
and seed, that the JSON file already holds is refused before anything is
timed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
#: Child processes that time each row on each side; the least child median is kept.
CHILDREN = 3
#: Least runs per child for rows too short to outlast the host's bursts at the default k.  At k = 3 the
#: 70 ms random family's child medians read 66.9 / 70.5 / 69.4 ms on one side and 111.0 / 70.7 / 94.7 ms
#: on the other on unchanged code; four alternating children of 9 runs each read 69.4 and 65.5 ms.
MIN_K = {"oracle_optimal.random_family_200": 9}
#: topic -> (what it measures, the benchmark workload that loads it)
TOPICS = {
    "dp": ("order-preserving budget DP", "dp-order"),
    "untangle": ("untangling crossing covers", "untangle-swaps"),
    "search": ("exhaustive searches on one explicit-stack driver", "exact-oracle"),
}


def git_sha(path: Path) -> str:
    """HEAD of the checkout holding ``path``, marked ``-dirty`` when its measured code differs.

    Only ``src/`` and ``perfbench/`` count, named from the top of the
    checkout so ``path`` may be its root or its ``src``: the BENCH files
    this tool writes are not what it measures.
    """
    try:
        out = subprocess.run(
            ["git", "-C", str(path), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(path), "status", "--porcelain", "--untracked-files=no",
             "--", ":(top)src", ":(top)perfbench"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out + ("-dirty" if dirty else "")


def cpu_s() -> float:
    """CPU time of this process and of its finished children, in seconds."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def median_cpu_s(fn: Callable[[], object], k: int) -> float:
    times = []
    for _ in range(k):
        start = cpu_s()
        fn()
        times.append(cpu_s() - start)
    return statistics.median(times)


def dp_rows(bc) -> dict[str, Callable[[], object]]:
    """The baseline rows, each a zero-argument callable on package ``bc``."""
    sys.path.insert(0, str(REPO / "tests"))
    from conftest import random_corpus

    def c3_gate() -> None:
        for _, inst, _ in random_corpus(200):
            try:
                best, _ = bc.dp_optimal(inst)
            except bc.InfeasibleError:
                continue
            opt = bc.cost(inst, best)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                value = bc.cost(inst, bc.dp_eps(inst, eps)[0])
                assert opt <= value <= (1 + eps) * opt

    rows: dict[str, Callable[[], object]] = {"c3_gate": c3_gate}
    for n in (10, 20, 40, 80, 160, 300):
        inst = bc.gen_random(n, 2 * n, 1, 3, (-n, 3 * n), 7)
        rows[f"dp_eps_half.random_n{n}"] = lambda i=inst: bc.dp_eps(i, Fraction(1, 2))
        rows[f"dp_optimal.random_n{n}"] = lambda i=inst: bc.dp_optimal(i)
    scaled = bc.scale_instance(bc.gen_random(20, 40, 1, 3, (-20, 60), 7), 100)
    rows["dp_optimal.random_n20_x100"] = lambda: bc.dp_optimal(scaled)
    fig5_small = [bc.gen_fig5(2, length) for length in range(8, 25, 2)]
    rows["dp_optimal.fig5_L8_to_24"] = lambda: [bc.dp_optimal(i) for i in fig5_small]
    rows["dp_eps_half.fig5_L8_to_24"] = lambda: [bc.dp_eps(i, Fraction(1, 2)) for i in fig5_small]
    stream = importlib.import_module(f"{bc.__name__}.generators").RandomStream(0)
    while True:  # the dp-order workload's draw at seed 0: the first instance not covered at home
        random_n3 = bc.gen_random(3, 6, 1, 3, (-3, 9), stream.next_raw())
        if not bc.verify_coverage(random_n3, random_n3.home()).covered:
            break
    for name, inst in [("random_n3_seed0", random_n3)] + [(f"fig5_L{length}", bc.gen_fig5(2, length))
                                                           for length in range(8, 19, 2)]:
        rows[f"dp_optimal.{name}_x200"] = lambda i=inst: [bc.dp_optimal(i) for _ in range(200)]
        rows[f"dp_eps_half.{name}_x200"] = lambda i=inst: [bc.dp_eps(i, Fraction(1, 2)) for _ in range(200)]
    # The one-shot table's row stop (``order_dp._dp_within``), which no dp-order op reaches.
    for length, repeats in ((40, 250), (160, 20)):
        inst = bc.gen_fig5(2, length)
        opt = bc.oracle_optimal(inst)[1]  # below OPT_op: every call returns None at the row stop
        rows[f"dp_exact_opt.fig5_L{length}_x{repeats}"] = lambda i=inst, b=opt, k=repeats: [
            bc.dp_exact(i, b) for _ in range(k)]
    for m in (12, 15):
        rows[f"dp_eps_one.fig6_m{m}_x50"] = lambda i=bc.gen_fig6(2, m, Fraction(1, 8)): [
            bc.dp_eps(i, 1) for _ in range(50)]
    fig5 = bc.gen_fig5(2, 40)
    rows["dp_optimal.fig5_L40"] = lambda: bc.dp_optimal(fig5)
    rows["oracle_optimal.fig5_L40"] = lambda: bc.oracle_optimal(fig5)
    env = {**os.environ, "PYTHONPATH": str(Path(bc.__file__).resolve().parent.parent)}
    i1 = str(REPO / "corpora" / "i1.bc")

    def child(*argv: str, stdin: str = "") -> Callable[[], object]:
        return lambda: subprocess.run([sys.executable, "-m", "barriercover", *argv], env=env,
                                      input=stdin, text=True, stdout=subprocess.DEVNULL, check=True)

    rows["cli.solve_dp_optimal.i1"] = child("solve", "--algo", "dp-optimal", i1)
    rows["cli.gen_random.n6"] = child("gen", "--family", "random", "--n", "6", "--length", "12")
    rows["cli.verify.i1"] = child("verify", i1, "/dev/stdin", stdin="COST 3\n1\n3\n")
    return rows


def untangle_rows(bc) -> dict[str, Callable[[], object]]:
    """fig5 with the large sensor at L - 2, untangled in (L - 4) / 2 swaps, and a two-deep stack."""
    rows: dict[str, Callable[[], object]] = {}
    for length in (40, 80, 160, 320, 640, 1280, 2560, 5120):
        inst = bc.gen_fig5(2, length)
        y = (Fraction(length - 2),) + inst.home()[1:]
        rows[f"untangle.fig5_L{length}"] = lambda i=inst, y=y: bc.untangle(i, y)
    stack = bc.Instance(400, tuple(bc.Sensor(2 * k + 1, 1) for k in range(200) for _ in range(2)))
    rows["untangle.stack2_n400"] = lambda: bc.untangle(stack, stack.home())
    return rows


def sweep_replay(bc, instance) -> Callable[[], object]:
    """Replay every ``(steps, spare, cap)`` one ``oracle_optimal(instance)`` hands ``exact._transport_sweep``.

    The calls are captured here, when the row is built, by running the
    oracle once with the sweep wrapped; the row times the sweep alone.
    """
    exact = importlib.import_module(f"{bc.__name__}.exact")
    sweep = exact._transport_sweep
    calls = []

    def capture(steps, spare, cap=None):
        calls.append((list(steps), spare, cap))
        return sweep(steps, spare, cap)

    exact._transport_sweep = capture
    try:
        bc.oracle_optimal(instance)
    finally:
        exact._transport_sweep = sweep
    return lambda: [sweep(*call) for call in calls]


def search_rows(bc) -> dict[str, Callable[[], object]]:
    """The exact-oracle workload's largest oracles and random family, fig6 m=12, the oracle's sweep
    replayed alone, and the deep and near tilings."""
    rows: dict[str, Callable[[], object]] = {}
    for length in (40, 44, 160, 320, 640, 1280):
        rows[f"oracle_optimal.fig5_L{length}"] = lambda i=bc.gen_fig5(2, length): bc.oracle_optimal(i)
    for m in (8, 12):
        rows[f"oracle_optimal.fig6_m{m}"] = lambda i=bc.gen_fig6(2, m, Fraction(1, 8)): bc.oracle_optimal(i)
    for m in (16, 24):
        rows[f"oracle_optimal.fig6_m{m}_delta16"] = lambda i=bc.gen_fig6(2, m, Fraction(1, 16)): bc.oracle_optimal(i)
    for name, inst in (("fig5_L44", bc.gen_fig5(2, 44)), ("fig6_m8", bc.gen_fig6(2, 8, Fraction(1, 8)))):
        rows[f"transport_sweep.{name}"] = sweep_replay(bc, inst)
    family = [bc.gen_random(6, 12, 1, 3, (-6, 18), s) for s in range(200)]
    rows["oracle_optimal.random_family_200"] = lambda: [bc.oracle_optimal(i) for i in family]
    deep = bc.Instance(2200, tuple(bc.Sensor(2 * i + 2, 1) for i in range(1100)))
    rows["oracle_optimal.deep_n1100"] = lambda: bc.oracle_optimal(deep)
    spare = bc.Instance(2199, deep.sensors)
    rows["oracle_optimal.deep_L2199_n1100"] = lambda: bc.oracle_optimal(spare)
    rows["brute_force_order_preserving.deep_n1100"] = lambda: bc.brute_force_order_preserving(deep)
    optima = []
    for seed in range(15):
        inst = bc.gen_random(6, 12, 1, 3, (-6, 18), seed)
        found = bc.oracle_optimal(inst)
        if found is not None and found[1] > 0:
            optima.append((inst, found[1]))

    def fpt_at_and_below_opt() -> None:
        for inst, opt in optima:
            bc.fpt_solve(inst, opt)
            bc.fpt_solve(inst, opt - 1)

    rows["fpt_solve.random_n6_opt_and_opt_minus_1"] = fpt_at_and_below_opt
    sys.path.insert(0, str(REPO / "tests"))
    from barriercover.order_dp import cheapest_first
    from conftest import near_tiling

    for n in (200, 2000):
        rows[f"fpt_solve.near_tiling_n{n}"] = lambda i=near_tiling(n): cheapest_first(
            i, lambda b: bc.fpt_solve(i, b))
    return rows


ROWS = {"dp": dp_rows, "untangle": untangle_rows, "search": search_rows}


def load_package(src: Path):
    """Import ``barriercover`` from ``src``, refusing any other copy."""
    sys.path.insert(0, str(src))
    bc = importlib.import_module("barriercover")
    if Path(bc.__file__).resolve().parent != src / "barriercover":
        raise SystemExit(f"imported barriercover from {bc.__file__}, not from {src}")
    return bc


def time_row(bc, fn: Callable[[], object], k: int) -> float | str:
    """The median CPU time of ``fn``, or the message of its ``ResourceLimitError``."""
    try:
        return round(median_cpu_s(fn, k), 6)
    except bc.ResourceLimitError as exc:
        return str(exc)


def print_row(topic: str, src: str, name: str, k: str) -> None:
    """The child of ``rows``: time one row of ``src`` and print it as JSON."""
    bc = load_package(Path(src))
    print(json.dumps(time_row(bc, ROWS[topic](bc)[name], int(k))))


def run_child(argv: list[str], *trees: Path, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(argv)`` in a child that compiles ``trees`` from source and writes no bytecode.

    A tree holding a ``__pycache__`` is refused before the child starts.
    """
    for tree in trees:
        cache = next(tree.rglob("__pycache__"), None)
        if cache is not None:
            raise SystemExit(f"{cache} holds compiled bytecode; delete it so the child compiles {tree} from source")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
    return subprocess.run(argv, env={**env, "PYTHONDONTWRITEBYTECODE": "1"}, **kwargs)


def row_in_child(topic: str, src: Path, name: str, k: int) -> float | str:
    """Time one row in a child process; its stderr (a traceback, say) passes through."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import bench_dp; bench_dp.print_row(*sys.argv[2:])"
    child = run_child(
        [sys.executable, "-c", code, str(REPO / "tools"), topic, str(src), name, str(k)], Path(src),
        stdout=subprocess.PIPE, text=True,
    )
    if child.returncode:
        raise SystemExit(f"row {name} on {src} exited with status {child.returncode}")
    return json.loads(child.stdout)


def show(label: str, name: str, figure: float | str) -> None:
    if isinstance(figure, str):
        print(f"{label:10s} {name:40s} resource limit: {figure}", flush=True)
    else:
        print(f"{label:10s} {name:40s} {figure:10.6f} s", flush=True)


def run_record(
    label: str, src: Path, k: int, figures: dict[str, float | str], children: dict[str, list[float]]
) -> dict:
    run = {
        "label": label,
        "sha": git_sha(src),
        "python": platform.python_version(),
        "k": k,
        "unit": f"s (least of {CHILDREN} child processes' median process CPU time, "
                "the row's own subprocesses included)",
        "rows": {name: v for name, v in figures.items() if not isinstance(v, str)},
        "child_medians": children,
        "median_child_median": {name: round(statistics.median(v), 6) for name, v in children.items()},
    }
    limits = {name: v for name, v in figures.items() if isinstance(v, str)}
    if limits:
        run["resource_limit"] = limits
    return run


def cmd_rows(args: argparse.Namespace) -> dict[str, dict]:
    """Time the rows in ``CHILDREN`` children per side, alternating the sides; return each side's run."""
    src = Path(args.src).resolve()
    sides = {args.label: src}
    if args.before is not None:
        sides = {args.before_label: Path(args.before).resolve(), args.label: src}
    labels = list(sides)
    results: dict[str, dict[str, float | str]] = {label: {} for label in labels}
    children: dict[str, dict[str, list[float]]] = {label: {} for label in labels}
    k_rows = {}
    for n, name in enumerate(ROWS[args.topic](load_package(src))):
        k = max(args.k, MIN_K.get(name, 0))
        if k != args.k:
            k_rows[name] = k
        figures: dict[str, list[float | str]] = {label: [] for label in labels}
        for c in range(CHILDREN):
            for label in labels if (n + c) % 2 == 0 else labels[::-1]:
                figures[label].append(row_in_child(args.topic, sides[label], name, k))
        for label in labels:
            limits = [f for f in figures[label] if isinstance(f, str)]
            results[label][name] = limits[0] if limits else min(figures[label])
            if not limits:
                children[label][name] = figures[label]
            show(label, name, results[label][name])
    runs = {
        label: run_record(label, sides[label], args.k, results[label], children[label]) for label in labels
    }
    if k_rows:
        for run in runs.values():
            run["k_rows"] = k_rows
    if len(labels) == 2:
        for label, other in zip(labels, labels[::-1]):
            runs[label]["alternated_with"] = other
        before, after = (runs[label]["median_child_median"] for label in labels)
        runs[args.label]["median_ratio"] = {
            name: round(after[name] / before[name], 4) for name in after if before.get(name)}
    return runs


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    out = run_child(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"], checkout / "src", checkout / "perfbench",
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} run in {checkout} failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def cmd_pairs(args: argparse.Namespace) -> dict:
    before, after = Path(args.before).resolve(), Path(args.after).resolve()
    runs: dict[str, list[dict[str, float]]] = {"before": [], "after": []}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            checkout = before if side == "before" else after
            runs[side].append(perfbench_run(checkout, args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}: ops_per_s {runs['before'][-1]['ops_per_s']:.1f} -> "
              f"{runs['after'][-1]['ops_per_s']:.1f}", flush=True)
    better = {m["name"]: m["better"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    wins = {
        name: sum((a[name] > b[name]) if better[name] == "higher" else (a[name] < b[name])
                  for b, a in zip(runs["before"], runs["after"]))
        for name in better
    }
    return {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds} --trace 0",
        "pairs": args.pairs,
        "python": platform.python_version(),
        "before_sha": git_sha(before),
        "after_sha": git_sha(after),
        "after_wins_ops_per_s": wins["ops_per_s"],
        "after_wins": wins,
        "ops_per_s_runs": {side: [round(r["ops_per_s"], 2) for r in rs] for side, rs in runs.items()},
        "before": {m: summary([r[m] for r in runs["before"]]) for m in runs["before"][0]},
        "after": {m: summary([r[m] for r in runs["after"]]) for m in runs["after"][0]},
    }


def at_least_two(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs for quartiles, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", choices=sorted(TOPICS), default="dp", help="which rows and workload")
    parser.add_argument("--out", help="JSON file to update (default: BENCH_<topic>.json)")
    sub = parser.add_subparsers(dest="cmd", required=True)
    rows = sub.add_parser("rows", help="time the topic's baseline rows")
    rows.add_argument("--label", required=True, help="key under 'runs', e.g. before or after")
    rows.add_argument("--src", default=str(REPO / "src"), help="directory holding barriercover/")
    rows.add_argument("--k", type=int, default=3, help="runs per child (its median is kept)")
    rows.add_argument("--before", help="also time this src directory, alternating row by row")
    rows.add_argument("--before-label", default="before", help="key under 'runs' for --before")
    pairs = sub.add_parser("pairs", help="alternate benchmark runs in two checkouts")
    pairs.add_argument("--before", required=True, help="checkout of the earlier commit")
    pairs.add_argument("--after", default=str(REPO), help="checkout of the later commit")
    pairs.add_argument("--workload", help="perfbench workload (default: the topic's)")
    pairs.add_argument("--pairs", type=at_least_two, default=10)
    pairs.add_argument("--seed", type=int, default=0)
    pairs.add_argument("--seconds", type=int, default=25)
    pairs.add_argument("--key", help="top-level key of the record (default: <workload>_pairs)")
    args = parser.parse_args()

    topic, workload = TOPICS[args.topic]
    out = Path(args.out or REPO / f"BENCH_{args.topic}.json")
    record = json.loads(out.read_text()) if out.exists() else {"topic": topic}
    record["host"] = {"platform": platform.platform(), "machine": platform.machine()}
    if args.cmd == "rows":
        labels = [args.label] if args.before is None else [args.before_label, args.label]
        if len(set(labels)) < len(labels):
            raise SystemExit(f"--before-label and --label are both {args.label!r}")
        taken = [label for label in labels if label in record.get("runs", {})]
        if taken:
            raise SystemExit(f"{out} already holds runs {taken}; choose new labels")
        record.setdefault("runs", {}).update(cmd_rows(args))
    else:
        args.workload = args.workload or workload
        key = args.key or args.workload.replace("-", "_") + "_pairs"
        if str(args.seed) in record.get(key, {}):
            raise SystemExit(f"{out} already holds {key}[{args.seed}]; choose a new --key")
        record.setdefault(key, {})[str(args.seed)] = cmd_pairs(args)
    out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
