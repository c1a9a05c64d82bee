"""Outside-in tracer for barriercover: spans around its public functions.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces each
wrapped function with a recording wrapper in every module namespace that
holds it (so ``order_dp.verify_coverage`` and ``exact.greedy_cover`` are
traced as well as the defining modules' names), and ``Tracer.restore`` puts
every original back.  Spans are kept in memory as four parallel arrays
(name, parent, start, end) and only recorded while an op is running, so the
benchmark's own output checks never show up in the trace.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Iterable, Mapping, Sequence

#: Wrapped public functions, by the module that defines them.
LAYERS: Mapping[str, tuple[str, ...]] = {
    "order_dp": ("budget_table", "dp_exact", "dp_optimal", "dp_eps", "greedy_cover"),
    "exact": ("brute_force", "oracle_optimal", "fpt_solve", "gap_candidates"),
    "untangle": ("untangle", "crossing_pairs", "swap_pair"),
    "model": ("verify_coverage", "minimal_active_set", "scale_instance", "integral_scale_factor"),
    "harness": ("compare",),
    "fileio": ("parse_instance", "serialize_solution"),
    "cli": ("main",),
}

OP = "op"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _budget_cells(args: tuple, kwargs: dict, result) -> int:
    """DP cells filled: (n + 1) * (U + 1), from the call's arguments."""
    instance = _arg(args, kwargs, 0, "instance")
    units = _arg(args, kwargs, 1, "budget_units")
    return (instance.n + 1) * (units + 1)


def _hit(args: tuple, kwargs: dict, result) -> int:
    return int(result is not None)


#: Counters recorded at a span boundary: span name -> {counter: fn(args, kwargs, result)}.
COUNTERS: Mapping[str, Mapping[str, Callable]] = {
    "order_dp.budget_table": {"cells": _budget_cells},
    "order_dp.dp_exact": {"hits": _hit},
    "exact.fpt_solve": {"hits": _hit},
}


class Tracer:
    """Span recorder that patches barriercover modules while installed."""

    def __init__(self, modules: Mapping[str, object]) -> None:
        """``modules`` maps short names (``"order_dp"``, ...) to module objects.

        Every module given is searched for names bound to a wrapped function;
        include the package itself, which re-exports most of them.
        """
        self.modules = dict(modules)
        self.names = [OP] + [f"{m}.{f}" for m, funcs in LAYERS.items() for f in funcs]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, funcs in LAYERS.items():
            home = self.modules[module_name]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{module_name}.{func}", original)
                for namespace in self.modules.values():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)
        return self

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = COUNTERS.get(name, {})

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            for counter, count in counters.items():
                self.counters[f"{name}.{counter}"] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- ops ----------------------------------------------------------------

    def run_op(self, fn: Callable[[], object]) -> object:
        """Run one op as a root span, recording every wrapped call inside it."""
        idx = self._open(OP)
        self.recording = True
        t0 = perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = perf_counter_ns()
            self.recording = False
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def spans(self) -> list[tuple[str, int, int, int]]:
        """Recorded spans as (name, start_ns, end_ns, parent index)."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for name, s, e, p in self.spans():
                out.write(json.dumps({"name": name, "start": s, "end": e, "parent": p}) + "\n")


def self_times(spans: Sequence[tuple[str, int, int, int]]) -> list[int]:
    """Each span's duration minus the time its child spans cover (their union)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def aggregate(spans: Sequence[tuple[str, int, int, int]]) -> dict[str, dict[str, int]]:
    """Per span name: calls, total_ns and self_ns."""
    agg: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = agg[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += own
    return dict(agg)


def calls_under(spans: Sequence[tuple[str, int, int, int]], name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span somewhere above them."""
    count = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count


def layer_shares(agg: Mapping[str, Mapping[str, int]], layers: Iterable[str]) -> dict[str, float]:
    """Each layer's share of op time, from self times; the rest is ``unwrapped``.

    ``unwrapped`` is op time spent outside every wrapped function (argument
    parsing in the CLI, private helpers called directly, the op's own glue).
    """
    op_ns = agg.get(OP, {}).get("total_ns", 0)
    shares = {}
    for layer in layers:
        own = sum(row["self_ns"] for name, row in agg.items() if name.startswith(layer + "."))
        shares[layer] = own / op_ns if op_ns else 0.0
    shares["unwrapped"] = agg.get(OP, {}).get("self_ns", 0) / op_ns if op_ns else 0.0
    return shares
