#!/usr/bin/env python3
"""Write ``refs.json``: reference answers for the benchmark's output checks.

    python3 perfbench/make_refs.py

Fixed instances (fig5/fig6 members, corpora files) get references that
hold on every seed; random instances get them for the pinned seed only.
Every answer is cross-checked with an independent solver before it is
written:

* OPT from ``oracle_optimal`` must match ``brute_force`` at budget OPT, and
  both ``brute_force`` and ``fpt_solve`` must find nothing at OPT - 1;
* OPT_op from ``dp_optimal`` must match ``brute_force_order_preserving``
  wherever n <= 8, and can never be below OPT;
* an untangled cover must be order-preserving, so it costs at least OPT_op.

Rerun it only when a workload's inputs change, and review the diff.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

import workloads

PINNED_SEED = 0
SMALL_N = 8
SEEDED_KEY = re.compile(r"r\d+\.n\d+(\.\d+)?")


def on_grid(bc, inst):
    factor = bc["model"].integral_scale_factor(inst)
    return factor, (inst if factor == 1 else bc["model"].scale_instance(inst, factor))


def opt_of(bc, inst) -> Fraction:
    ex = bc["exact"]
    factor, work = on_grid(bc, inst)
    _, opt = ex.oracle_optimal(work)
    if ex.brute_force(work, opt)[1] != opt:
        raise AssertionError("brute_force at budget OPT disagrees with oracle_optimal")
    if opt >= 1:
        if ex.brute_force(work, opt - 1) is not None:
            raise AssertionError("brute_force found a cover below OPT")
        if work.n <= SMALL_N and ex.fpt_solve(work, opt - 1) is not None:
            raise AssertionError("fpt_solve found a cover below OPT")
    if work.n <= SMALL_N and ex.fpt_solve(work, opt) is None:
        raise AssertionError("fpt_solve found no cover at OPT")
    return opt / factor


def opt_op_of(bc, inst, opt: Fraction) -> Fraction:
    factor, work = on_grid(bc, inst)
    y, _ = bc["order_dp"].dp_optimal(work)
    opt_op = bc["model"].cost(work, y)
    if work.n <= SMALL_N:
        found = bc["exact"].brute_force_order_preserving(work)
        if found[1] != opt_op:
            raise AssertionError(f"dp_optimal {opt_op} != brute_force_order_preserving {found[1]}")
    if opt_op / factor < opt:
        raise AssertionError("OPT_op below OPT")
    return opt_op / factor


def refs_for(bc, wl) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for op in wl.ops():
        if op.key in out:
            continue
        inst = op.inst
        if wl.name == "untangle-swaps":
            y, active = op.run()
            if op.check((y, active)) is not None:
                raise AssertionError(f"{op.key}: untangle output fails its own checks")
            value = bc["model"].cost(inst, y)
            opt = opt_of(bc, inst) if inst.n <= SMALL_N else Fraction(0)
            if value < opt_op_of(bc, inst, opt):
                raise AssertionError(f"{op.key}: untangled cost below OPT_op")
            out[op.key] = {"cost": str(value)}
        else:
            opt = opt_of(bc, inst)
            out[op.key] = {"opt": str(opt)}
            if wl.name != "exact-oracle":
                out[op.key]["opt_op"] = str(opt_op_of(bc, inst, opt))
    return out


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    bc = workloads.import_package()
    refs = {"fixed": {}, "seeded": {"seed": PINNED_SEED, "workloads": {}}}
    for name, cls in workloads.WORKLOADS.items():
        # Built without references, so nothing is checked against old answers.
        wl = cls(bc, PINNED_SEED, {"fixed": {}, "seeded": {"seed": PINNED_SEED, "workloads": {}}})
        try:
            found = refs_for(bc, wl)
        finally:
            wl.close()
        refs["fixed"][name] = {k: v for k, v in found.items() if not SEEDED_KEY.fullmatch(k)}
        refs["seeded"]["workloads"][name] = {k: v for k, v in found.items() if SEEDED_KEY.fullmatch(k)}
        print(f"{name}: {len(found)} references", flush=True)
    workloads.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
