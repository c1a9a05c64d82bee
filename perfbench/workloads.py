"""The benchmark's workloads: generated inputs, the ops run on them, and checks.

A workload is a list of rounds and a round is a list of ops, run in order.
The random part of every round comes from ``--seed`` (through the
package's own ``RandomStream``), so a seed always gives the same inputs;
the fixed part (fig5/fig6 family members) is the same on every seed.  The
runner cycles through the rounds until its time is up.

Every op's output is checked exactly, outside the timed interval, against
invariants that need no reference answer, and against the committed
reference answers in ``refs.json`` where they exist (the fixed instances on
every seed, the random ones on the pinned seed only).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
WORK = ROOT / ".bench_out"

MODULES = ("model", "order_dp", "exact", "untangle", "harness", "fileio", "cli", "generators")


def import_package() -> dict[str, object]:
    """Import barriercover from scratch; short module name -> module object.

    Earlier imports are dropped first, so every call pays the full import
    (from cached bytecode).  ``"package"`` is the package itself, whose
    ``untangle`` attribute is the re-exported function, not the module.
    """
    for name in [m for m in sys.modules if m == "barriercover" or m.startswith("barriercover.")]:
        del sys.modules[name]
    modules = {"package": importlib.import_module("barriercover")}
    for name in MODULES:
        modules[name] = importlib.import_module(f"barriercover.{name}")
    return modules


def children_cpu_ns() -> int:
    """User plus system CPU time of every child process waited for so far, in ns."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def load_refs() -> dict:
    with open(REFS) as fh:
        return json.load(fh)


@dataclass
class Op:
    """One timed call; ``check`` returns a failure message or None."""

    kind: str
    key: str
    inst: object
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Workload:
    name = ""
    #: Rounds run by the traced and untraced passes of ``--trace 1``.
    trace_rounds = 1

    def __init__(self, bc: dict[str, object], seed: int, refs: dict) -> None:
        self.bc = bc
        self.seed = seed
        self._fixed = refs["fixed"].get(self.name, {})
        seeded = refs["seeded"]
        self._seeded = seeded["workloads"].get(self.name, {}) if seeded["seed"] == seed else {}
        self.rounds: list[list[Op]] = []
        self.m = bc["model"]
        self.gen = bc["generators"]
        self.stream = self.gen.RandomStream(seed)

    def ops(self) -> list[Op]:
        """The ops of one cycle, in order."""
        return [op for r in self.rounds for op in r]

    def ref(self, key: str) -> Optional[dict[str, Fraction]]:
        found = self._fixed.get(key) or self._seeded.get(key)
        return None if found is None else {k: Fraction(v) for k, v in found.items()}

    def random_instance(self, n: int):
        """``gen_random(n, 2n, 1, 3, (-n, 3n), s)`` with s drawn from the seed's stream.

        Radii are at least 1, so the sensors' total length is at least
        L = 2n and every instance is feasible.  Instances the sensors
        already cover at home are skipped: every solver returns them at once.
        """
        while True:
            inst = self.gen.gen_random(n, 2 * n, 1, 3, (-n, 3 * n), self.stream.next_raw())
            if not self.m.verify_coverage(inst, inst.home()).covered:
                return inst

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        return {}

    def close(self) -> None:
        pass

    # -- shared checks ------------------------------------------------------

    def coverage_problem(self, inst, y, active=None) -> Optional[str]:
        if not self.m.verify_coverage(inst, y, active).covered:
            return "solution does not cover the barrier"
        return None

    def order_problem(self, inst, y, active) -> Optional[str]:
        return (
            self.coverage_problem(inst, y, active)
            or (None if self.m.is_order_preserving(inst, y, active) else "active set is out of order")
        )


def _expect(actual, expected, what: str) -> Optional[str]:
    return None if actual == expected else f"{what} {actual} != expected {expected}"


class DpOrder(Workload):
    """The order-preserving budget DP: ``dp_optimal`` and ``dp_eps(eps=1/2)``.

    Nearly all time goes to ``order_dp.budget_table``.  The round runs
    ``dp_optimal`` on fig5 L in {8, 10, 12, 14, 16, 18}, ``dp_eps`` on fig5
    L in {8, 10, 12}, and both on one random instance (n=3) from the seed.
    The random ops are faster than the median op (``dp_eps`` on fig5 L=10)
    on every seed, and ``dp_eps`` on fig5 L=12 is the slowest op.  Sizes are
    small because ``dp_eps`` at n = 20 takes seconds today.
    """

    name = "dp-order"
    trace_rounds = 5
    N = 3
    OPTIMAL = (8, 10, 12, 14, 16, 18)
    EPS_OF = (8, 10, 12)
    EPS = Fraction(1, 2)

    def __init__(self, bc, seed, refs) -> None:
        super().__init__(bc, seed, refs)
        self.opt_op: dict[str, Fraction] = {}
        self.ratio_max: Optional[Fraction] = None
        od = bc["order_dp"]
        cases = [(f"r0.n{self.N}", self.random_instance(self.N), "random")]
        cases += [(f"fig5.L{L}", self.gen.gen_fig5(2, L), f"fig5.L{L}") for L in self.OPTIMAL]
        ops = []
        for key, inst, label in cases:
            ops.append(Op(f"dp_optimal.{label}", key, inst, lambda i=inst: od.dp_optimal(i),
                          lambda v, i=inst, k=key: self.check_optimal(k, i, v)))
            if label == "random" or int(key[len("fig5.L"):]) in self.EPS_OF:
                ops.append(Op(f"dp_eps.{label}", key, inst, lambda i=inst: od.dp_eps(i, self.EPS),
                              lambda v, i=inst, k=key: self.check_eps(k, i, v)))
        self.rounds.append(ops)

    def check_optimal(self, key, inst, value) -> Optional[str]:
        y, active = value
        problem = self.order_problem(inst, y, active)
        if problem:
            return problem
        opt_op = self.m.cost(inst, y)
        self.opt_op[key] = opt_op
        ref = self.ref(key)
        if ref is None:
            return None
        if opt_op < ref["opt"]:
            return f"OPT_op {opt_op} is below OPT {ref['opt']}"
        return _expect(opt_op, ref["opt_op"], "OPT_op")

    def check_eps(self, key, inst, value) -> Optional[str]:
        y, active = value
        problem = self.order_problem(inst, y, active)
        if problem:
            return problem
        if key not in self.opt_op:
            self.opt_op[key] = self.m.cost(inst, self.bc["order_dp"].dp_optimal(inst)[0])
        opt_op, got = self.opt_op[key], self.m.cost(inst, y)
        if not opt_op <= got <= (1 + self.EPS) * opt_op:
            return f"dp_eps cost {got} outside [{opt_op}, {(1 + self.EPS) * opt_op}]"
        if opt_op > 0:
            ratio = got / opt_op
            self.ratio_max = ratio if self.ratio_max is None else max(self.ratio_max, ratio)
        return None

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        return {"eps_ratio_max": (float(self.ratio_max or 1), "ratio")}


class ExactOracle(Workload):
    """The exhaustive DFS in ``exact``: oracle on fig6/fig5, oracle + FPT on random.

    The round runs the harness ``oracle`` solver on fig6 m in {6, 7, 8}
    (1/8 grid, rescaled inside the harness), ``oracle_optimal`` on fig5 L in
    {24, 32, 36, 40, 44}, and on one random instance (n=6) from the seed
    ``oracle_optimal``, then ``fpt_solve`` at budget OPT (must find a
    solution) and at OPT - 1 (must prove there is none).  The random ops are
    faster than the median op (fig6 m=7) on every seed; fig5 L=44 or fig6
    m=8 is the slowest.
    """

    name = "exact-oracle"
    trace_rounds = 10
    N = 6
    FIG6 = (6, 7, 8)
    FIG5 = (24, 32, 36, 40, 44)
    DELTA = Fraction(1, 8)

    def __init__(self, bc, seed, refs) -> None:
        super().__init__(bc, seed, refs)
        self.opt: dict[str, Fraction] = {}
        ex, hs = bc["exact"], bc["harness"]
        inst, key = self.random_instance(self.N), f"r0.n{self.N}"
        ops = [
            Op("oracle.random", key, inst, lambda i=inst: ex.oracle_optimal(i),
               lambda v, i=inst, k=key: self.check_oracle(k, i, v)),
            Op("fpt.at_opt", key, inst, lambda i=inst, k=key: ex.fpt_solve(i, self.opt[k]),
               lambda v, i=inst, k=key: self.check_fpt_hit(k, i, v)),
            Op("fpt.below_opt", key, inst, lambda i=inst, k=key: ex.fpt_solve(i, self.opt[k] - 1),
               lambda v: None if v is None else "fpt found a solution below OPT"),
        ]
        for m in self.FIG6:
            inst, key = self.gen.gen_fig6(2, m, self.DELTA), f"fig6.m{m}"
            ops.append(Op(f"compare.{key}", key, inst,
                          lambda i=inst, k=key: hs.compare(i, ["oracle"], "oracle", instance_id=k),
                          lambda v, k=key: self.check_compare(k, v)))
        for L in self.FIG5:
            inst, key = self.gen.gen_fig5(2, L), f"fig5.L{L}"
            ops.append(Op(f"oracle.{key}", key, inst, lambda i=inst: ex.oracle_optimal(i),
                          lambda v, i=inst, k=key: self.check_oracle(k, i, v)))
        self.rounds.append(ops)

    def check_compare(self, key, records) -> Optional[str]:
        (record,) = records
        if record.status != "ok":
            return f"status {record.status}"
        return _expect(record.cost, self.ref(key)["opt"], "OPT")

    def check_oracle(self, key, inst, value) -> Optional[str]:
        if value is None:
            return "oracle found no solution for a feasible instance"
        y, reported = value
        problem = self.coverage_problem(inst, y) or _expect(self.m.cost(inst, y), reported, "cost")
        if problem:
            return problem
        self.opt[key] = reported
        ref = self.ref(key)
        return None if ref is None else _expect(reported, ref["opt"], "OPT")

    def check_fpt_hit(self, key, inst, value) -> Optional[str]:
        if value is None:
            return "fpt found no solution at budget OPT"
        y, reported = value
        return self.coverage_problem(inst, y) or _expect(self.m.cost(inst, y), self.opt[key], "fpt cost")


class UntangleSwaps(Workload):
    """``untangle`` on crossing covers built without any solver.

    The round untangles shuffled tilings of two random instances (n=8 and
    n=10) from the seed: sensors laid edge to edge from 0 in a seeded
    Fisher-Yates order.  It also untangles fig5, L in {12, 16, 24, 28, 32,
    36, 40}, with the large sensor moved to L - 2, which takes exactly
    (L - 4) / 2 swaps.  Time goes to ``untangle`` and the ``model`` sweeps.
    The tilings are faster than the median op (fig5 L=24) on every seed, and
    fig5 L=40 is the slowest.
    """

    name = "untangle-swaps"
    trace_rounds = 8
    SIZES = (8, 10)
    FIG5 = (12, 16, 24, 28, 32, 36, 40)

    def __init__(self, bc, seed, refs) -> None:
        super().__init__(bc, seed, refs)
        un = bc["untangle"]
        ops = []
        for n in self.SIZES:
            inst, key = self.random_instance(n), f"r0.n{n}"
            y = self.shuffled_tiling(inst)
            ops.append(Op(f"untangle.tiling.n{n}", key, inst, lambda i=inst, y=y: un.untangle(i, y),
                          lambda v, i=inst, k=key: self.check_untangle(k, i, v)))
        for L in self.FIG5:
            inst, key = self.gen.gen_fig5(2, L), f"fig5.L{L}"
            y = (Fraction(L - 2),) + inst.home()[1:]
            ops.append(Op(f"untangle.{key}", key, inst, lambda i=inst, y=y: un.untangle(i, y),
                          lambda v, i=inst, k=key: self.check_untangle(k, i, v)))
        self.rounds.append(ops)

    def shuffled_tiling(self, inst) -> tuple[Fraction, ...]:
        stream = self.gen.RandomStream(self.stream.next_raw())
        order = list(range(inst.n))
        for i in range(inst.n - 1, 0, -1):
            j = stream.next_int(0, i)
            order[i], order[j] = order[j], order[i]
        y = [Fraction(0)] * inst.n
        edge = Fraction(0)
        for i in order:
            r = inst.sensors[i].r
            y[i] = edge + r
            edge += 2 * r
        return tuple(y)

    def check_untangle(self, key, inst, value) -> Optional[str]:
        y, active = value
        problem = self.order_problem(inst, y, active)
        if problem:
            return problem
        ref = self.ref(key)
        return None if ref is None else _expect(self.m.cost(inst, y), ref["cost"], "untangled cost")


class CliSmall(Workload):
    """``python -m barriercover`` subprocesses, one at a time, on small inputs.

    Interpreter start, import, argparse, ``fileio`` and each small solve's
    fixed cost dominate.  Two rounds alternate: one on a random instance
    (n=6) from the seed, one on fig6 m=4 scaled x8 onto the integer grid.
    Each runs ``gen``, five ``solve`` algorithms, ``verify`` on the emitted
    solution and ``bench --dir`` on three corpus files.  With
    ``in_process`` set (the traced run), ops call ``cli.main(argv)`` in this
    process instead, so the tracer sees inside.
    """

    name = "cli-small"
    trace_rounds = 4
    #: The calibration child imports what the CLI imports, but no barriercover.
    CAL_CODE = "import argparse, dataclasses, fractions"
    N = 6
    CORPORA = ("i1", "fig5_rho2_L12", "random_seed42")
    FIG6_M = 4
    BENCH_ALGOS = ("oracle", "dp-optimal")

    def __init__(self, bc, seed, refs) -> None:
        super().__init__(bc, seed, refs)
        self.in_process = False
        WORK.mkdir(exist_ok=True)
        self.dir = WORK / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        fio = bc["fileio"]
        bench_dir = self.dir / "bench"
        bench_dir.mkdir()
        self.bench_expect = {}
        for stem in self.CORPORA:
            inst = fio.parse_instance((ROOT / "corpora" / f"{stem}.bc").read_text())
            (bench_dir / f"{stem}.bc").write_text(fio.serialize_instance(inst))
            opt, opt_op = self.solve(stem, inst)
            self.bench_expect[(stem, "oracle")] = opt
            self.bench_expect[(stem, "dp-optimal")] = opt_op
        # fig6 sits on the 1/8 grid; the grid-only solvers need it scaled.
        fig6 = self.m.scale_instance(self.gen.gen_fig6(2, self.FIG6_M, Fraction(1, 8)), 8)
        self.rounds.append(self.round_ops(0, f"r0.n{self.N}", self.random_instance(self.N), self.N))
        self.rounds.append(self.round_ops(1, f"fig6_m{self.FIG6_M}_x8", fig6, self.N))

    def solve(self, key, inst) -> tuple[Fraction, Fraction]:
        """OPT and OPT_op, computed in-process; checked against refs.json where present."""
        opt = self.bc["exact"].oracle_optimal(inst)[1]
        opt_op = self.m.cost(inst, self.bc["order_dp"].dp_optimal(inst)[0])
        ref = self.ref(key)
        if ref is not None and (ref["opt"], ref["opt_op"]) != (opt, opt_op):
            raise RuntimeError(f"{key}: in-process OPT/OPT_op {opt}/{opt_op} disagree with refs.json")
        return opt, opt_op

    def round_ops(self, k: int, stem: str, inst, n: int) -> list[Op]:
        fio = self.bc["fileio"]
        path = self.dir / f"{k}.bc"
        path.write_text(fio.serialize_instance(inst))
        sol = self.dir / f"{k}.sol"
        opt, opt_op = self.solve(stem, inst)
        inst_arg, budget = str(path), str(opt)

        family = ("random", "fig6")[k % 2]
        if family == "random":
            gen_seed = self.stream.next_raw()
            gen_args = ["--n", str(n), "--length", str(2 * n), "--x-min", str(-n),
                        "--x-max", str(3 * n), "--seed", str(gen_seed)]
            expected = self.gen.gen_random(n, 2 * n, 1, 3, (-n, 3 * n), gen_seed)
        else:
            gen_args = ["--rho", "2", "--m", str(self.FIG6_M), "--delta", "1/8"]
            expected = self.gen.gen_fig6(2, self.FIG6_M, Fraction(1, 8))
        gen_text = fio.serialize_instance(expected)

        def solution(text) -> tuple[Optional[str], Fraction]:
            try:
                y = fio.load_solution(inst, text)
            except ValueError as exc:
                return f"bad solution output: {exc}", Fraction(-1)
            return self.coverage_problem(inst, y), self.m.cost(inst, y)

        def check_exact(out, want):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            problem, got = solution(text)
            return problem or _expect(got, want, "cost")

        def check_oracle(out):
            code, _ = out
            return check_exact((code, sol.read_text() if code == 0 else ""), opt)

        def check_dp_exact(out):
            if opt_op > opt:
                return _expect(out[0], 1, "exit code")
            return check_exact(out, opt)

        def check_range(out, lo, hi=None):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            problem, got = solution(text)
            if problem:
                return problem
            if got < lo or (hi is not None and got > hi):
                return f"cost {got} outside [{lo}, {hi}]"
            return None

        def check_verify(out):
            code, text = out
            lines = set(text.splitlines())
            if code != 0 or "covered: yes" not in lines or f"cost: {opt}" not in lines:
                return f"verify said {text!r} with exit code {code}"
            return None

        def check_bench(out):
            code, text = out
            lines = text.splitlines()
            if code != 0 or not lines or lines[0] != self.bc["harness"].CSV_HEADER:
                return f"bench exit code {code}, header {lines[:1]}"
            rows = [line.split(",") for line in lines[1:]]
            got = {(r[0], r[1]): (r[2], Fraction(r[3])) for r in rows}
            want = {key: ("ok", c) for key, c in self.bench_expect.items()}
            return _expect(got, want, "bench rows")

        def op(kind, argv, check):
            return Op(f"cli.{kind}", stem, inst, lambda: self.invoke(argv), check)

        return [
            op("gen", ["gen", "--family", family, *gen_args],
               lambda out: _expect(out, (0, gen_text), "gen output")),
            op("solve.oracle", ["solve", "--algo", "oracle", "--out", str(sol), inst_arg], check_oracle),
            op("solve.dp_exact", ["solve", "--algo", "dp-exact", "--budget", budget, inst_arg], check_dp_exact),
            op("solve.dp_eps", ["solve", "--algo", "dp-eps", "--eps", "1", inst_arg],
               lambda out: check_range(out, opt_op, 2 * opt_op)),
            op("solve.fpt", ["solve", "--algo", "fpt", "--budget", budget, inst_arg],
               lambda out: check_exact(out, opt)),
            # An untangled cover is order-preserving, so it costs at least OPT_op.
            op("solve.untangle", ["solve", "--algo", "untangle-oracle", inst_arg],
               lambda out: check_range(out, opt_op)),
            op("verify", ["verify", "--max-cost", budget, inst_arg, str(sol)], check_verify),
            op("bench", ["bench", "--dir", str(self.dir / "bench"), "--algos", ",".join(self.BENCH_ALGOS),
                         "--reference", "oracle"], check_bench),
        ]

    def calibrate_child(self) -> int:
        """The CPU time of one calibration child process, in ns."""
        t0 = children_cpu_ns()
        subprocess.run([sys.executable, "-c", self.CAL_CODE], env=self.env, cwd=self.dir,
                       check=True, timeout=60)
        return children_cpu_ns() - t0

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        """Run the CLI once: exit code and standard output."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.bc["cli"].main(argv)
            return code, out.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "barriercover", *argv],
            env=self.env, cwd=self.dir, capture_output=True, text=True, timeout=150,
        )
        return done.returncode, done.stdout

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DpOrder, ExactOracle, UntangleSwaps, CliSmall)}
