"""The drop rule's shortcuts: the same active sets as one sweep per candidate, and no sweep it can skip.

``model._minimal_cover`` keeps every sole cover and drops every candidate
without a span of positive length, sweeping only for the rest.  It must
return exactly what ``reference_model.minimal_cover``, the rule that
sweeps for every candidate, returns, None included.  The sweeps it still
makes are counted by patching ``model._covers``; in ``model`` only the
drop rule calls it, and ``untangle`` calls its own imported name.  A pass
that marks too few sole covers answers the same, only slower, so the
counts are pinned apart from the answers.
"""

import random
from fractions import Fraction as F

import pytest

from barriercover import Instance, Sensor, gen_fig5, gen_random, model, untangle, verify_coverage
from barriercover.generators import RandomStream
from barriercover.model import _minimal_cover

import reference_model

CASES = 24_000


def _number(rng, lo, hi, ints):
    """An int in [lo, hi], or a Fraction with denominator up to 6 near that range."""
    if ints:
        return rng.randint(lo, hi)
    q = rng.randint(1, 6)
    return F(rng.randint(lo * q, hi * q), q)


def _tiling(rng, length, ints, jitter):
    """(radii, centers) laid edge to edge from at or left of 0 past ``length``.

    With ``jitter`` each sensor overlaps the one before it or leaves a small
    gap; otherwise neighbours touch, so every joint is a single point.
    """
    radii, centers = [], []
    edge = -_number(rng, 0, 2, ints)
    while edge < length:
        r = _number(rng, 1, 4, ints)
        shift = 0
        if jitter and rng.random() < 0.7:
            shift = rng.randint(-1, 1) if ints else _number(rng, -1, 1, ints) * r / 2
        radii.append(r)
        centers.append(edge + r - shift)
        edge = centers[-1] + r
    return radii, centers


def _case(rng):
    """One drawn input of ``_minimal_cover``: radii, centers, length and within."""
    ints = rng.random() < 0.3
    length = 0 if rng.random() < 0.08 else _number(rng, 1, 14, ints)
    kind = rng.randrange(4)
    if kind == 0:  # anywhere, on or off the barrier
        n = rng.randint(1, 9)
        radii = [_number(rng, 1, 4, ints) for _ in range(n)]
        centers = [_number(rng, -5, int(length) + 5, ints) for _ in range(n)]
    else:  # a touching or jittered tiling, stacked two deep for kind 3
        radii, centers = _tiling(rng, length, ints, kind == 2)
        if kind == 3:
            more = _tiling(rng, length, ints, rng.random() < 0.5)
            if rng.random() < 0.3:
                more = radii, centers  # the same layer twice: every hi tied
            radii, centers = radii + more[0], centers + more[1]
    for _ in range(rng.randint(0, 3)):  # spares, often off the barrier
        radii.append(_number(rng, 1, 3, ints))
        centers.append(_number(rng, -12, int(length) + 12, ints))
    n = len(radii)
    within = list(range(n))
    if rng.random() < 0.3:
        within = [i for i in within if rng.random() < 0.8]
        within += rng.sample(within, min(len(within), rng.randint(0, 2)))  # repeats
        rng.shuffle(within)
    return radii, centers, length, within


def test_matches_the_sweep_per_candidate_rule():
    rng = random.Random(20261019)
    answers = {True: 0, False: 0}
    for case in range(CASES):
        radii, centers, length, within = _case(rng)
        got = _minimal_cover(radii, centers, length, within)
        want = reference_model.minimal_cover(radii, centers, length, within)
        assert got == want, (case, radii, centers, length, within)
        answers[want is None] += 1
    assert min(answers.values()) > CASES // 10  # both covers and gaps are exercised


@pytest.mark.parametrize(
    "radii, centers, length, want",
    [
        ([1, 2, 1], [1, 2, 3], 4, (0, 2)),  # the big one goes first; the tie at hi 4 is no sole cover
        ([1, 1], [1, 1], 2, (0,)),  # two equal spans: neither is a sole cover
        ([1, 1, 1], [1, 3, 5], 4, (0, 1)),  # meets the barrier in its end point only
        ([1, 1, 1], [-1, 1, 3], 4, (1, 2)),  # meets it in 0 only
        ([1, 1], [5, 7], 0, ()),  # an empty barrier needs nothing
        ([1, 1], [1, 4], 4, None),  # a gap (2, 3)
        ([2, 1], [0, 3], 4, (0, 1)),  # the first span is clipped to [0, 2]
    ],
)
def test_small_cases(radii, centers, length, want):
    assert _minimal_cover(radii, centers, length, range(len(radii))) == want
    assert reference_model.minimal_cover(radii, centers, length, range(len(radii))) == want


@pytest.fixture
def sweeps(monkeypatch):
    """The number of ``_covers`` sweeps the drop rule has made so far."""
    made = [0]
    covers = model._covers

    def counted(*args, **kwargs):
        made[0] += 1
        return covers(*args, **kwargs)

    monkeypatch.setattr(model, "_covers", counted)
    return made


@pytest.mark.parametrize("length", [640, 1280, 2560, 5120])
def test_no_sweep_on_fig5(sweeps, length):
    """Every sensor is a sole cover; the large one at L - 2 only on the last stretch, from L - 4 to L."""
    inst = gen_fig5(2, length)
    y = (F(length - 2),) + inst.home()[1:]
    untangle(inst, y)
    assert sweeps[0] == 0


def _shuffled_tiling(inst, stream):
    """The ``untangle-swaps`` benchmark's tiling: sensors edge to edge from 0 in a seeded order."""
    draw = RandomStream(stream.next_raw())
    order = list(range(inst.n))
    for i in range(inst.n - 1, 0, -1):
        j = draw.next_int(0, i)
        order[i], order[j] = order[j], order[i]
    y = [F(0)] * inst.n
    edge = F(0)
    for i in order:
        r = inst.sensors[i].r
        y[i] = edge + r
        edge += 2 * r
    return tuple(y)


@pytest.mark.parametrize("seed", range(20))
def test_no_sweep_on_shuffled_tilings(sweeps, seed):
    """The benchmark's tilings at n = 8 and 10; some lay a sensor from L on, which meets [0, L] in one point."""
    stream = RandomStream(seed)
    for n in (8, 10):
        while True:
            inst = gen_random(n, 2 * n, 1, 3, (-n, 3 * n), stream.next_raw())
            if not verify_coverage(inst, inst.home()).covered:
                break
        untangle(inst, _shuffled_tiling(inst, stream))
    assert sweeps[0] == 0


def test_two_deep_stack_sweeps_every_candidate_once(sweeps):
    """Two copies of a 100-sensor tiling: no sensor is a sole cover, so each of the 200 pays one sweep.

    Ties go to the higher index, so each pair's second copy is dropped and
    the first kept.
    """
    inst = Instance(200, tuple(Sensor(2 * k + 1, 1) for k in range(100) for _ in range(2)))
    y, active = untangle(inst, inst.home())
    assert active == tuple(range(0, 200, 2))
    assert sweeps[0] == 200
