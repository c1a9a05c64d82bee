"""``exact._transport_sweep`` against the step-by-step sweep it replaced.

The oracle's sweep ends a piece of G only where G's slope changes; the
reference, ``reference_search._transport_sweep``, ends one at every
distinct t.  ``_transport_sweep``'s docstring proves the two totals equal;
here they are compared on step lists built from random homes and holes,
whose measures differ (so G need not return to 0), whose endpoints are
shared or abutting, and which reach left of 0.  The full totals must be
equal, and for every cap from -4 to the total + 4 one sweep must pass the
cap exactly when the other does.

The oracle also hands the sweep its homes' steps net of the rises and
falls that cancel at one t (``exact._take_step``).  On inputs shaped like
the oracle's, the net list must sweep as the full one does, with and
without a cap, and ``_take_step`` must keep the net list of the steps
still in, whatever order they are taken out and put back in.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover.exact import _take_step, _transport_sweep
from reference_search import _transport_sweep as reference_sweep

_point = st.integers(-9, 16)


def _row(start_lengths):
    """Spans laid edge to edge from ``start``: each one's hi is the next one's lo."""
    start, lengths = start_lengths
    spans = []
    for length in lengths:
        spans.append((start, start + length))
        start += length
    return spans


_spans = st.lists(
    st.one_of(
        st.tuples(_point, st.integers(1, 8)).map(lambda t: [(t[0], t[0] + t[1])]),
        st.tuples(_point, st.lists(st.integers(1, 6), min_size=2, max_size=4)).map(_row),
    ),
    max_size=5,
).map(lambda rows: [span for row in rows for span in row])


def _steps(homes, holes):
    """The sweep's encoding: 2t + 1 where G's slope rises (a home's lo, a hole's hi), 2t where it falls."""
    steps = [step for lo, hi in homes for step in (2 * lo + 1, 2 * hi)]
    steps += [step for lo, hi in holes for step in (2 * lo, 2 * hi + 1)]
    return sorted(steps)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(steps=st.builds(_steps, _spans, _spans), spare=st.integers(0, 6))
# A last piece of slope 0 above the level: its 24 of the total is added only after the loop.
@example(steps=[-9, -2, 1, 6, 12, 13, 16, 17, 20, 21, 23, 24, 25, 26, 29, 32, 36, 37], spare=5)
@example(steps=[], spare=0)
def test_sweep_matches_the_step_by_step_reference(steps, spare):
    total = reference_sweep(steps, spare)
    assert _transport_sweep(steps, spare) == total
    for cap in range(-4, total + 5):
        assert (_transport_sweep(steps, spare, cap) > cap) == (reference_sweep(steps, spare, cap) > cap), cap


def _net(steps):
    """The steps at each t net of those that cancel: only rises (2t + 1) or only falls (2t), sorted."""
    count = Counter()
    for step in steps:
        count[step >> 1] += 1 if step & 1 else -1
    return sorted(2 * t + (c > 0) for t, c in count.items() for _ in range(abs(c)))


def _home_row(start_radii):
    """Homes [x - r, x + r] laid edge to edge from ``start``, as on fig5's unit row."""
    start, radii = start_radii
    homes = []
    for r in radii:
        homes.append((start + r, r))
        start += 2 * r
    return homes


_homes = st.lists(
    st.one_of(
        st.tuples(_point, st.integers(1, 4)).map(lambda t: [t]),
        st.tuples(_point, st.lists(st.integers(1, 3), min_size=2, max_size=5)).map(_home_row),
    ),
    min_size=1,
    max_size=4,
).map(lambda rows: [home for row in rows for home in row])


def _holes(points):
    """Disjoint sorted holes in [0, 16] between consecutive distinct points, paired off."""
    points = sorted(set(points))
    return [(points[k], points[k + 1]) for k in range(0, len(points) - 1, 2)]


def _home_steps(homes):
    return [step for x, r in homes for step in (2 * (x - r) + 1, 2 * (x + r))]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(homes=_homes, points=st.lists(st.integers(0, 16), max_size=8), caps=st.lists(st.integers(-4, 300), max_size=4))
def test_net_steps_sweep_as_the_full_steps(homes, points, caps):
    """spare = the homes' lengths less the holes', at least 0, as at an oracle node (holes dropped till it is)."""
    holes = _holes(points)
    while holes and sum(2 * r for _, r in homes) < sum(hi - lo for lo, hi in holes):
        holes.pop()
    spare = sum(2 * r for _, r in homes) - sum(hi - lo for lo, hi in holes)
    hole_steps = [step for lo, hi in holes for step in (2 * lo, 2 * hi + 1)]
    full = sorted(_home_steps(homes) + hole_steps)
    net = sorted(_net(_home_steps(homes)) + hole_steps)
    total = _transport_sweep(full, spare)
    assert _transport_sweep(net, spare) == total
    for cap in caps + [total - 1, total]:
        assert _transport_sweep(net, spare, cap) == _transport_sweep(full, spare, cap), cap


@settings(max_examples=500, deadline=None, derandomize=True)
@given(homes=_homes, data=st.data())
def test_take_step_keeps_the_net_list(homes, data):
    """Start as the oracle does, every step put back into an empty list, then take out and put back at random."""
    steps = _home_steps(homes)
    net: list[int] = []
    for step in steps:
        _take_step(net, step ^ 1)
    assert net == _net(steps)
    inside = [True] * len(steps)
    for k in data.draw(st.lists(st.integers(0, len(steps) - 1), max_size=3 * len(steps))):
        _take_step(net, steps[k] if inside[k] else steps[k] ^ 1)
        inside[k] = not inside[k]
        assert net == _net([step for step, kept in zip(steps, inside) if kept])
        assert not {step >> 1 for step in net if step & 1} & {step >> 1 for step in net if not step & 1}
