#!/usr/bin/env python3
"""barriercover benchmark: timed workloads with exact output checks.

Run from the repository root:

    python3 perfbench/run.py --workload dp-order --seed 0 --seconds 25 --trace 0

The load is a closed loop with one client: one process, no worker threads,
each op starting when the previous one has finished.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` wraps the package's public functions
from outside (see ``tracer.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines above it are the
same figures for people, with the environment they were taken in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter_ns, process_time_ns
from typing import Callable, Optional, Sequence

import tracer as tracing
import workloads

SETUP_REPS = 7
STARTUP_REPS = 5
#: Terms of the calibration sum, and its duration on the reference host.
CAL_TERMS = 300
CAL_REF_MS = 0.7
#: What the ``cli-small`` child calibration takes on the reference host.
CHILD_CAL_REF_MS = 50.0
#: A traced or untraced fixed-work pass stops here even if unfinished.
PASS_CAP_S = 60
TAIL_BEYOND = 10


# -- statistics -------------------------------------------------------------


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile): the sample at rank N - beyond, which has
    exactly ``beyond`` samples after it, as the nearest-rank percentile
    100 * (N - beyond) / N.  With ``beyond`` samples or fewer, no sample
    has that many above it, and the smallest one is returned.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, n - beyond)
    return sorted_values[rank - 1], 100 * rank / n


# -- running ops --------------------------------------------------------------


def calibrate() -> int:
    """The CPU time of a fixed exact-rational sum that uses no barriercover code, in ns.

    The host's speed swings by up to 2x within seconds, and allocation-heavy
    code like barriercover's slows with it while a plain integer loop barely
    does.  Dividing an op's time by this sum's time, taken around it,
    cancels the swing: over six 25 s windows the ratio moved by 2-4% while
    the latencies moved by 50%.
    """
    t0 = process_time_ns()
    total = Fraction(0)
    for i in range(1, CAL_TERMS):
        total += Fraction(1, i)
    return process_time_ns() - t0


def reference_ms(latency_ns: int, cal_ns: int, ref_ms: float = CAL_REF_MS) -> float:
    """A latency in reference milliseconds: milliseconds on a host where the
    calibration takes ``ref_ms``."""
    return latency_ns / cal_ns * ref_ms


@dataclass
class PassResult:
    #: Each op's time on the pass's op clock (see ``run_ops``).
    latencies_ns: list[int] = field(default_factory=list)
    #: Mean of the calibrations timed just before and just after each op.
    cal_ns: list[int] = field(default_factory=list)
    #: What the calibration takes on the reference host, in ms.
    cal_ref_ms: float = CAL_REF_MS
    #: Which op of the workload's cycle each latency belongs to.
    positions: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Wall time of the ops, summed.
    busy_ns: int = 0
    cut: bool = False


def ops_per_s(passes: Sequence[PassResult], calibrated: bool = False) -> float:
    """Ops completed per second of op time: reference time if ``calibrated``,
    else wall time."""
    if calibrated:
        seconds = sum(reference_ms(lat, cal, p.cal_ref_ms) for p in passes
                      for lat, cal in zip(p.latencies_ns, p.cal_ns)) / 1e3
    else:
        seconds = sum(p.busy_ns for p in passes) / 1e9
    return sum(len(p.latencies_ns) for p in passes) / seconds


def run_ops(rounds, *, seconds: Optional[float] = None, count: Optional[int] = None,
            tracer: Optional[tracing.Tracer] = None,
            clock: Callable[[], int] = process_time_ns,
            calibration: Callable[[], int] = calibrate,
            cal_ref_ms: float = CAL_REF_MS) -> PassResult:
    """Run whole rounds, cycling, until ``seconds`` of wall time or ``count`` rounds.

    Each op is timed on ``clock`` around the call alone.  ``calibration``,
    timed on the same clock, runs before the first op and after every op,
    so each op sits between two calibrations and is scaled by their mean.
    The output check runs after the clock stops.  An op that raises, or
    whose check fails, counts as failed.  Stopping at round boundaries
    keeps the op mix exactly that of a cycle.
    """
    result = PassResult(cal_ref_ms=cal_ref_ms)
    budget_ns = (seconds if seconds is not None else PASS_CAP_S) * 1e9
    start = perf_counter_ns()
    starts = [0]
    for ops in rounds:
        starts.append(starts[-1] + len(ops))
    done = 0
    cal_before = calibration()
    while perf_counter_ns() - start < budget_ns and (count is None or done < count):
        k = done % len(rounds)
        for j, op in enumerate(rounds[k]):
            error = None
            w0 = perf_counter_ns()
            t0 = clock()
            try:
                value = tracer.run_op(op.run) if tracer else op.run()
            except Exception as exc:  # the op's failure is a measured outcome
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            w1 = perf_counter_ns()
            if error is None:
                try:
                    error = op.check(value)
                except Exception as exc:  # a malformed output can break a check
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                result.failures.append(f"{op.kind} {op.key}: {error}")
            cal_after = calibration()
            result.cal_ns.append((cal_before + cal_after) // 2)
            result.latencies_ns.append(t1 - t0)
            result.positions.append(starts[k] + j)
            result.busy_ns += w1 - w0
            cal_before = cal_after
        done += 1
    result.cut = count is not None and done < count
    return result


def typical_latencies(run: PassResult) -> list[float]:
    """Each sample replaced by its op's median latency, in reference ms.

    Every op repeats many times in a run; its median over the run is what
    the op costs.
    """
    by_pos: dict[int, list[float]] = {}
    for lat, cal, pos in zip(run.latencies_ns, run.cal_ns, run.positions):
        by_pos.setdefault(pos, []).append(reference_ms(lat, cal, run.cal_ref_ms))
    typical = {pos: statistics.median(values) for pos, values in by_pos.items()}
    return [typical[pos] for pos in run.positions]


def timing(wl) -> dict:
    """How ``run_ops`` times a workload's ops: op clock, calibration, reference ms.

    Ops are timed in CPU time, not wall time: the wall time also holds the
    time the op waited for a CPU that other processes of the host held.
    In-process ops take this process's CPU time and are scaled by the
    in-process sum.  A ``cli-small`` child takes the child's CPU time and
    is scaled by the CPU time of a child that does no barriercover work,
    because process start-up is work the in-process sum does not track.
    """
    if isinstance(wl, workloads.CliSmall) and not wl.in_process:
        return {"clock": workloads.children_cpu_ns, "calibration": wl.calibrate_child,
                "cal_ref_ms": CHILD_CAL_REF_MS}
    return {"clock": process_time_ns, "calibration": calibrate, "cal_ref_ms": CAL_REF_MS}


def setup(name: str, seed: int):
    """Import the package, build the workload; median of several set-ups.

    Each set-up is timed in CPU time and scaled by the calibration before it,
    in reference s.
    """
    times, wl = [], None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        cal = calibrate()
        t0 = process_time_ns()
        bc = workloads.import_package()
        wl = workloads.WORKLOADS[name](bc, seed, workloads.load_refs())
        times.append(reference_ms(process_time_ns() - t0, cal))
    return bc, wl, statistics.median(times) / 1e3


def startup_ms() -> float:
    """Median wall time of ``python -c "import barriercover.cli"``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workloads.SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import barriercover.cli"], env=env, check=True,
                       cwd=workloads.ROOT, timeout=60)
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


# -- the two kinds of run -----------------------------------------------------


def end_to_end(wl, seconds: float, setup_s: float) -> tuple[PassResult, dict, list[str]]:
    clocks = timing(wl)
    run = run_ops(wl.rounds, seconds=seconds, **clocks)
    raw = [ns / 1e6 for ns in run.latencies_ns]
    lat = sorted(typical_latencies(run))
    tail_ms, tail_pct = tail(lat)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-small" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "op_ms_p50": (percentile(lat, 50), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    raw.sort()
    raw_tail, _ = tail(raw)
    notes = [
        f"op_ms_tail is p{tail_pct:.2f} of {len(lat)} samples ({TAIL_BEYOND} beyond it)",
        f"each op ran {min(Counter(run.positions).values())} or more times; each latency is the op's "
        f"median in reference ms (calibration median {statistics.median(run.cal_ns) / 1e6} ms, "
        f"reference {run.cal_ref_ms} ms)",
        f"as measured: wall ops_per_s {ops_per_s([run])} 1/s; op clock "
        f"{'child' if clocks['clock'] is workloads.children_cpu_ns else 'process'} CPU time, "
        f"uncalibrated op_ms_p50 {percentile(raw, 50)} ms, op_ms_tail {raw_tail} ms",
        f"failed_frac {len(run.failures) / len(lat)} ratio ({len(run.failures)} of {len(lat)})",
    ]
    for name, (value, unit) in wl.extra_metrics().items():
        notes.append(f"{name} {value} {unit}")
    by_kind: dict[str, list[float]] = {}
    ops = wl.ops()
    for pos, value in zip(run.positions, run.latencies_ns):
        by_kind.setdefault(ops[pos].kind, []).append(value / 1e6)
    for kind, values in sorted(by_kind.items()):
        values.sort()
        notes.append(f"op {kind}: {len(values)} runs, CPU time min {values[0]:.3f} ms, "
                     f"p50 {percentile(values, 50):.3f} ms, max {values[-1]:.3f} ms")
    return run, metrics, notes


def per_layer(wl, bc) -> tuple[list[PassResult], dict, list[str]]:
    """Untraced and traced passes over the same fixed ops, in the order U T T U.

    Each pass runs ``trace_rounds`` rounds, not a time, so every count
    repeats exactly between runs on one seed.  The overhead is taken in
    reference time, and the symmetric order keeps what drift remains from
    reading as tracing overhead.
    """
    if isinstance(wl, workloads.CliSmall):
        wl.in_process = True
    plain = [run_ops(wl.rounds, count=wl.trace_rounds)]
    with tracing.Tracer(bc) as tr:
        traced = [run_ops(wl.rounds, count=wl.trace_rounds, tracer=tr) for _ in range(2)]
    plain.append(run_ops(wl.rounds, count=wl.trace_rounds))
    passes = plain + traced
    spans = tr.spans()
    agg = tracing.aggregate(spans)

    def row(name):
        return agg.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def calls(name):
        return (row(name)["calls"], "count")

    def self_ms(name):
        return (row(name)["self_ns"] / 1e6, "ms")

    def frac(num, den):
        return num / den if den else 0.0

    dp_eps_calls = row("order_dp.dp_eps")["calls"]
    metrics = {
        "order_dp.budget_table.calls": calls("order_dp.budget_table"),
        "order_dp.budget_table.self_ms": self_ms("order_dp.budget_table"),
        "order_dp.budget_table.cells": (tr.counters["order_dp.budget_table.cells"], "count"),
        "order_dp.dp_eps.tables_per_call": (
            frac(tracing.calls_under(spans, "order_dp.budget_table", "order_dp.dp_eps"), dp_eps_calls),
            "count"),
        "order_dp.dp_eps.ratio_max": (wl.extra_metrics().get("eps_ratio_max", (0.0, ""))[0], "ratio"),
        "order_dp.dp_exact.calls": calls("order_dp.dp_exact"),
        "order_dp.dp_exact.self_ms": self_ms("order_dp.dp_exact"),
        "order_dp.dp_exact.hit_frac": (
            frac(tr.counters["order_dp.dp_exact.hits"], row("order_dp.dp_exact")["calls"]), "ratio"),
        "order_dp.dp_optimal.self_ms": self_ms("order_dp.dp_optimal"),
        "order_dp.greedy_cover.calls": calls("order_dp.greedy_cover"),
        "order_dp.greedy_cover.self_ms": self_ms("order_dp.greedy_cover"),
        "exact.brute_force.calls": calls("exact.brute_force"),
        "exact.brute_force.self_ms": self_ms("exact.brute_force"),
        "exact.oracle_optimal.calls": calls("exact.oracle_optimal"),
        "exact.fpt_solve.calls": calls("exact.fpt_solve"),
        "exact.fpt_solve.self_ms": self_ms("exact.fpt_solve"),
        "exact.fpt_solve.hit_frac": (
            frac(tr.counters["exact.fpt_solve.hits"], row("exact.fpt_solve")["calls"]), "ratio"),
        "exact.gap_candidates.calls": calls("exact.gap_candidates"),
        "exact.gap_candidates.self_ms": self_ms("exact.gap_candidates"),
        "model.verify_coverage.calls": calls("model.verify_coverage"),
        "model.verify_coverage.self_ms": self_ms("model.verify_coverage"),
        "model.minimal_active_set.calls": calls("model.minimal_active_set"),
        "model.minimal_active_set.self_ms": self_ms("model.minimal_active_set"),
        "untangle.untangle.self_ms": self_ms("untangle.untangle"),
        "untangle.crossing_pairs.calls": calls("untangle.crossing_pairs"),
        "untangle.crossing_pairs.self_ms": self_ms("untangle.crossing_pairs"),
        "untangle.swap_pair.calls": calls("untangle.swap_pair"),
        "model.scale_instance.calls": calls("model.scale_instance"),
        "model.scale_instance.self_ms": self_ms("model.scale_instance"),
        "model.integral_scale_factor.calls": calls("model.integral_scale_factor"),
        "harness.compare.calls": calls("harness.compare"),
        "harness.compare.self_ms": self_ms("harness.compare"),
        "fileio.parse_instance.self_ms": self_ms("fileio.parse_instance"),
        "fileio.serialize_solution.self_ms": self_ms("fileio.serialize_solution"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.startup_ms": (startup_ms(), "ms"),
        "trace.overhead": (1 - ops_per_s(traced, True) / ops_per_s(plain, True), "ratio"),
    }
    traced_ops = sum(len(r.latencies_ns) for r in traced)
    notes = [f"traced {traced_ops} ops (2 x {wl.trace_rounds} rounds), {len(spans)} spans; "
             f"untraced {ops_per_s(plain)} ops/s, traced {ops_per_s(traced)} ops/s "
             f"(in reference time {ops_per_s(plain, True)} and {ops_per_s(traced, True)})"]
    if isinstance(wl, workloads.CliSmall):
        op_ms = agg[tracing.OP]["total_ns"] / agg[tracing.OP]["calls"] / 1e6
        startup = metrics["cli.startup_ms"][0]
        notes.append(f"interpreter start and import, {startup:.1f} ms, would be "
                     f"{startup / (startup + op_ms):.4f} of a child op next to the {op_ms:.1f} ms "
                     "an op takes in-process")
    for layer, share in tracing.layer_shares(agg, tracing.LAYERS).items():
        notes.append(f"layer_share {layer} {share:.4f}")
    if any(r.cut for r in passes):
        notes.append(f"a fixed-work pass hit the {PASS_CAP_S} s cap; counts are partial")
    workloads.WORK.mkdir(exist_ok=True)
    path = workloads.WORK / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tr.write_jsonl(path)
    notes.append(f"spans written to {path.relative_to(workloads.ROOT)}")
    return passes, metrics, notes


# -- entry point ----------------------------------------------------------------


def environment() -> str:
    sha = "unknown (not a git checkout)"
    head = workloads.ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = workloads.ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    return (f"env python {platform.python_version()} nproc {os.cpu_count()} "
            f"platform {platform.platform()} git {sha}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "barriercover" / "__init__.py").is_file():
        print(f"error: no barriercover sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))

    bc, wl, setup_s = setup(args.workload, args.seed)
    try:
        if args.trace:
            runs, metrics, notes = per_layer(wl, bc)
        else:
            run, metrics, notes = end_to_end(wl, args.seconds, setup_s)
            runs = [run]
    finally:
        wl.close()

    failures = [f for r in runs for f in r.failures]
    attempted = sum(len(r.latencies_ns) for r in runs)
    print(environment())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    for note in notes:
        print(note)
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
