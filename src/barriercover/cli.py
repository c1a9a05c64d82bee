"""Command-line front end: generate, solve, verify and benchmark instances.

Exit codes: 0 success / solution found; 1 proven absent or infeasible (or a
failed verification); 2 usage or precondition error; 3 resource limit hit.
A search cutoff is never reported as "no solution".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import harness
from .fileio import (
    format_scalar,
    parse_instance,
    parse_scalar,
    serialize_instance,
    serialize_solution,
    load_solution,
)
from .model import (
    DEFAULT_NODE_CAP,
    Instance,
    InfeasibleError,
    ResourceLimitError,
    Scalar,
    cost,
    moved_indices,
    verify_coverage,
)

EXIT_OK = 0
EXIT_ABSENT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _CliError(Exception):
    """Usage-level problem; maps to exit code 2."""


def _count(text: str) -> int:
    """``--node-cap``, ``--max-movers``: 0 is a bound, a negative number a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cost_bound(text: str) -> Scalar:
    """``--max-cost``, ``--budget``: a rational bound >= 0, as ``_count`` checks a count."""
    try:
        value = parse_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text.strip()}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barriercover",
        description="Min-sum barrier coverage: move line sensors to cover [0, L].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=["fig5", "fig6", "random", "exact-cover"])
    gen.add_argument("--rho", help="large-sensor radius (fig5/fig6)")
    gen.add_argument("--length", help="barrier length (fig5) or L for random")
    gen.add_argument("--m", type=int, help="number of unit sensors (fig6)")
    gen.add_argument("--delta", help="gap width between unit intervals (fig6)")
    gen.add_argument("--n", type=int, help="sensor count (random)")
    gen.add_argument("--r-min", type=int, help="smallest radius (random; default: 1)")
    gen.add_argument("--r-max", type=int, help="largest radius (random; default: 3)")
    gen.add_argument("--x-min", type=int, help="leftmost home (random; default: -10)")
    gen.add_argument("--x-max", type=int, help="rightmost home (random; default: 15)")
    gen.add_argument("--seed", type=int, help="random seed (random; default: 0)")
    gen.add_argument("--spec", help="exact-cover JSON: {m, sets, k}")
    gen.add_argument("--out", help="output path (default: stdout)")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--algo", required=True, choices=sorted(harness.SOLVERS))
    solve.add_argument("--budget", type=_cost_bound, help="movement budget in input units; without it the "
                       "exact solvers return the optimum (refused with dp-eps)")
    solve.add_argument("--eps", help="approximation parameter (dp-eps only; default: 1/2)")
    solve.add_argument("--node-cap", type=_count,
                       help=f"search node cap (oracle, fpt, untangle-oracle; default: {DEFAULT_NODE_CAP})")
    solve.add_argument("--out", help="output path (default: stdout)")
    solve.add_argument("instance", help="instance file path")

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("--max-cost", type=_cost_bound, help="fail unless cost <= this bound")
    verify.add_argument("--max-movers", type=_count, help="fail unless movers <= this bound")
    verify.add_argument("instance", help="instance file path")
    verify.add_argument("solution", help="solution file path")

    bench = sub.add_parser("bench", help="ratio experiments over a family or directory")
    bench.add_argument("--family", choices=["fig5", "fig6"])
    bench.add_argument("--rho", help="large-sensor radius (--family; default: 2)")
    bench.add_argument("--lengths", help="comma list of L values (fig5)")
    bench.add_argument("--ms", help="comma list of unit-sensor counts (fig6)")
    bench.add_argument("--delta", help="gap width between unit intervals (fig6; default: 1/8)")
    bench.add_argument("--dir", help="directory of .bc instance files")
    bench.add_argument("--algos", help="comma list of algorithms (--dir; default: oracle,dp-optimal)")
    bench.add_argument("--reference", help="algorithm rated against (--dir; default: oracle)")
    bench.add_argument("--eps", help="approximation parameter (--dir; default: 1/2)")
    bench.add_argument("--node-cap", type=_count,
                       help="search node cap (--family, or --dir when --algos or --reference names "
                       f"oracle, fpt or untangle-oracle; default: {DEFAULT_NODE_CAP})")
    bench.add_argument("--out", help="output path (default: stdout)")
    return parser


#: Marks an option that a mode cannot run without.
_NEEDED = object()

#: command -> mode -> every option the mode reads, with its default or ``_NEEDED``.
#: A mode refuses its command's other options here; ``--family`` (``--algo``
#: for solve) and ``--out`` are common to every mode of the command.  A
#: default of None leaves the option absent: solve's exact solvers then
#: return the optimum, and ``bench --dir`` takes ``--node-cap`` only when
#: it runs a solver whose solve mode reads it.
_MODES = {
    "gen": {
        "--family fig5": {"rho": _NEEDED, "length": _NEEDED},
        "--family fig6": {"rho": _NEEDED, "m": _NEEDED, "delta": _NEEDED},
        "--family random": {"n": _NEEDED, "length": _NEEDED,
                            "r-min": 1, "r-max": 3, "x-min": -10, "x-max": 15, "seed": 0},
        "--family exact-cover": {"spec": _NEEDED},
    },
    "bench": {
        "--family fig5": {"lengths": _NEEDED, "rho": "2", "node-cap": DEFAULT_NODE_CAP},
        "--family fig6": {"ms": _NEEDED, "rho": "2", "delta": "1/8", "node-cap": DEFAULT_NODE_CAP},
        "--dir": {"dir": _NEEDED, "algos": "oracle,dp-optimal", "reference": "oracle", "eps": "1/2",
                  "node-cap": None},
    },
    "solve": {
        "--algo oracle": {"budget": None, "node-cap": DEFAULT_NODE_CAP},
        "--algo fpt": {"budget": None, "node-cap": DEFAULT_NODE_CAP},
        "--algo untangle-oracle": {"budget": None, "node-cap": DEFAULT_NODE_CAP},
        "--algo dp-exact": {"budget": None},
        "--algo dp-optimal": {"budget": None},
        "--algo dp-eps": {"eps": "1/2"},
    },
}


def _apply_mode(args: argparse.Namespace, mode: str) -> None:
    """Refuse the options ``mode`` does not read, demand the needed ones and fill in the defaults."""
    modes = _MODES[args.command]
    given = {name: getattr(args, name.replace("-", "_")) for name in set().union(*modes.values())}
    for name in sorted(given.keys() - modes[mode]):
        if given[name] is not None:
            raise _CliError(f"--{name} does not go with {mode}")
    for name, default in modes[mode].items():
        if given[name] is None:
            if default is _NEEDED:
                raise _CliError(f"{mode} needs --{name}")
            setattr(args, name.replace("-", "_"), default)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import ExactCoverInstance, gen_fig5, gen_fig6, gen_random, reduce_exact_cover

    _apply_mode(args, f"--family {args.family}")
    if args.family == "fig5":
        instance = gen_fig5(parse_scalar(args.rho), parse_scalar(args.length))
    elif args.family == "fig6":
        instance = gen_fig6(parse_scalar(args.rho), args.m, parse_scalar(args.delta))
    elif args.family == "random":
        instance = gen_random(
            args.n,
            parse_scalar(args.length),
            args.r_min,
            args.r_max,
            (args.x_min, args.x_max),
            args.seed,
        )
    else:  # exact-cover
        if not args.out:
            raise _CliError("--family exact-cover needs --out for the sidecar file")
        import json

        raw = json.loads(_read(args.spec))
        ec = ExactCoverInstance(
            universe_size=raw["m"],
            sets=tuple(frozenset(s) for s in raw["sets"]),
            max_sets=raw["k"],
        )
        reduced = reduce_exact_cover(ec)
        _emit(serialize_instance(reduced.instance), args.out)
        sidecar = {
            "B": format_scalar(reduced.budget),
            "k": reduced.movers,
            "source_sets": list(reduced.source_sets),
        }
        _write(args.out + ".meta.json", json.dumps(sidecar, indent=2) + "\n")
        return EXIT_OK
    _emit(serialize_instance(instance), args.out)
    return EXIT_OK


def _load_instance(path: str) -> Instance:
    text = _read(path)
    try:
        return parse_instance(text)
    except ValueError as exc:
        raise _CliError(f"bad instance file {path}: {exc}") from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    _apply_mode(args, f"--algo {args.algo}")
    instance = _load_instance(args.instance)
    eps = None if args.eps is None else parse_scalar(args.eps)
    solution = harness.SOLVERS[args.algo](instance, args.budget, eps, args.node_cap)
    if solution is None:
        print("no solution within the given bounds", file=sys.stderr)
        return EXIT_ABSENT
    _emit(serialize_solution(instance, solution), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    text = _read(args.solution)
    try:
        solution = load_solution(instance, text)
    except ValueError as exc:
        raise _CliError(f"bad solution file: {exc}") from exc
    report = verify_coverage(instance, solution)
    total = cost(instance, solution)
    movers = moved_indices(instance, solution)
    print(f"covered: {'yes' if report.covered else 'no'}")
    for lo, hi in report.gaps:
        print(f"gap: ({format_scalar(lo)}, {format_scalar(hi)})")
    print(f"cost: {format_scalar(total)}")
    print(f"movers: {len(movers)}")
    ok = report.covered
    if args.max_cost is not None and total > args.max_cost:
        print(f"cost exceeds bound {format_scalar(args.max_cost)}", file=sys.stderr)
        ok = False
    if args.max_movers is not None and len(movers) > args.max_movers:
        print(f"mover count exceeds bound {args.max_movers}", file=sys.stderr)
        ok = False
    return EXIT_OK if ok else EXIT_ABSENT


def _cmd_bench(args: argparse.Namespace) -> int:
    if (args.family is None) == (args.dir is None):
        raise _CliError("bench needs exactly one of --family or --dir")
    _apply_mode(args, f"--family {args.family}" if args.family else "--dir")
    if args.family == "fig5":
        lengths = [parse_scalar(v) for v in args.lengths.split(",")]
        records = harness.fig5_sweep(lengths, parse_scalar(args.rho), node_cap=args.node_cap)
    elif args.family == "fig6":
        ms = [int(v) for v in args.ms.split(",")]
        rho, delta = parse_scalar(args.rho), parse_scalar(args.delta)
        records = harness.fig6_sweep(ms, rho, delta, node_cap=args.node_cap)
    else:
        algos = [a for a in args.algos.split(",") if a]
        if not algos:
            raise _CliError("--algos names no algorithm")
        harness.check_names([args.reference, *algos])
        if args.node_cap is None:
            args.node_cap = DEFAULT_NODE_CAP
        elif not any("node-cap" in _MODES["solve"][f"--algo {name}"] for name in [args.reference, *algos]):
            raise _CliError("--node-cap does not go with --dir unless --algos or --reference names a search")
        eps = parse_scalar(args.eps)
        if not args.dir or not Path(args.dir).is_dir():
            raise _CliError(f"cannot read directory {args.dir}: not an existing directory")
        records = []
        for path in sorted(Path(args.dir).glob("*.bc")):
            records += harness.compare(
                _load_instance(str(path)), algos, args.reference, path.stem, eps, args.node_cap
            )
    _emit(harness.records_to_csv(records), args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return commands[args.command](args)
    except (_CliError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_ABSENT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
