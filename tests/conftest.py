"""Shared instance corpora, and a fresh-interpreter runner, for the test suite.

The random corpus parameters (n <= 6, x in [-10, 15], r in {1, 2, 3},
L <= 12, B <= 8) are pinned: they keep every instance within easy reach of
the exhaustive oracles while still producing feasible, infeasible, covered
and badly-shuffled cases.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import barriercover
from barriercover import Instance, Sensor, gen_random
from barriercover.generators import RandomStream

CORPUS_SEED = 20260810


def random_corpus(count: int, seed0: int = CORPUS_SEED) -> Iterator[tuple[int, Instance, int]]:
    """Yield (case number, instance, budget) triples, deterministically."""
    meta = RandomStream(seed0)
    for case in range(count):
        n = meta.next_int(1, 6)
        length = meta.next_int(4, 12)
        budget = meta.next_int(0, 8)
        instance = gen_random(n, length, 1, 3, (-10, 15), seed0 + 1000 + case)
        yield case, instance, budget


def near_tiling(n: int) -> Instance:
    """n sensors, of which all but three tile the barrier with four of them nudged: OPT is 6 for n >= 11.

    The first n - 3 have radii 1 + k % 3 and lie edge to edge from 0, L
    being their total length; sensors 1, 3, 5 and 7 are then moved by +1,
    -2, +2 and -1.  Three unit spares sit off the barrier at L + 10, L + 13
    and L + 16.  The cheapest cover moves the nudged ones back, so the total
    movement, and with it ``fpt_solve``'s search, stays the same whatever n.
    """
    radii = [1 + k % 3 for k in range(n - 3)]
    homes = []
    edge = 0
    for r in radii:
        homes.append(edge + r)
        edge += 2 * r
    for k, nudge in zip((1, 3, 5, 7), (1, -2, 2, -1)):
        homes[k] += nudge
    spares = [Sensor(edge + gap, 1) for gap in (10, 13, 16)]
    return Instance(edge, tuple(Sensor(x, r) for x, r in zip(homes, radii)) + tuple(spares))


def fresh_python(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter on this ``barriercover``; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(barriercover.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return child.stdout
