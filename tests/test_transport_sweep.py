"""``exact._transport_sweep`` against the step-by-step sweep it replaced.

The oracle's sweep ends a piece of G only where G's slope changes; the
reference, ``reference_search._transport_sweep``, ends one at every
distinct t.  ``_transport_sweep``'s docstring proves the two totals equal;
here they are compared on step lists built from random homes and holes,
whose measures differ (so G need not return to 0), whose endpoints are
shared or abutting, and which reach left of 0.  The full totals must be
equal, and for every cap from -4 to the total + 4 one sweep must pass the
cap exactly when the other does.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover.exact import _transport_sweep
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
