"""The exact-cover reduction does bounded work: closed-form sums, and a B no file could hold refused first.

``reduce_exact_cover`` used to build the universe {1..m} and two dicts of m
powers of n + 1, and only ``format_scalar`` refused the budget B, at print
time; time and memory grew with m however short the spec.  It now checks
each element's range, builds only the weights the subsets use, and refuses
a B past the interpreter's int-digit limit before it builds a sensor.
Wherever B prints, it must return exactly what
``reference_exact_cover.reduce_exact_cover``, the old version, returns.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from barriercover.cli import main
from barriercover.fileio import format_scalar, serialize_instance
from barriercover.generators import ExactCoverInstance, reduce_exact_cover
from barriercover.model import ResourceLimitError

import reference_exact_cover

CORPORA = Path(__file__).resolve().parent.parent / "corpora"
HUGE = 10**9


def _assert_same(ec):
    got, want = reduce_exact_cover(ec), reference_exact_cover.reduce_exact_cover(ec)
    assert got == want
    assert type(got.budget) is Fraction and type(got.instance.length) is Fraction
    assert format_scalar(got.budget) == format_scalar(want.budget)
    return got, want


def test_matches_the_old_reduction_on_small_specs():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(0, 7)
        sets = [rng.sample(range(1, m + 1), rng.randint(1, m)) for _ in range(rng.randint(0, 5))] if m else []
        got, want = _assert_same(ExactCoverInstance(m, sets, rng.randint(0, 4)))
        assert serialize_instance(got.instance) == serialize_instance(want.instance)


def _prints(b, m, k):
    """Does the old reduction's B = L * (b^(m+1) + k), L = (b^m - 1) / (b - 1), print?"""
    return ((b**m - 1) // (b - 1)) * (b ** (m + 1) + k) < 10 ** sys.get_int_max_str_digits()


def _largest_printable(b, k):
    """The largest m at which ``_prints``, searched up from a little below where B's digits reach the limit."""
    m = int(sys.get_int_max_str_digits() / (2 * math.log10(b))) - 5
    assert _prints(b, m, k)
    while _prints(b, m + 1, k):
        m += 1
    return m


@pytest.mark.parametrize("b, k", [(2, 1), (3, 2)])
def test_matches_the_old_reduction_at_the_digit_limit(b, k):
    """At the largest m whose B prints both agree; one more element and B does not print, so it is refused.

    The instance itself need not print there: a sensor's position can have
    more digits than B.  ``gen`` then exits 3 at print time, before it
    writes a file.
    """
    m = _largest_printable(b, k)
    _assert_same(ExactCoverInstance(m, [[1, m], *[[m]] * (b - 2)], k))
    past = ExactCoverInstance(m + 1, [[1, m + 1], *[[m + 1]] * (b - 2)], k)
    with pytest.raises(ResourceLimitError):
        format_scalar(reference_exact_cover.reduce_exact_cover(past).budget)
    with pytest.raises(ResourceLimitError, match="budget B has more than"):
        reduce_exact_cover(past)


def test_far_past_the_limit_refuses_at_once():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        reduce_exact_cover(ExactCoverInstance(HUGE, [[1]], 1))
    assert time.perf_counter() - start < 1


def test_no_subsets_need_no_weights():
    """b = 1: L = m and B = L * (1 + k), returned at once whatever m is."""
    start = time.perf_counter()
    reduced = reduce_exact_cover(ExactCoverInstance(HUGE, [], 3))
    assert reduced.instance.length == HUGE and reduced.instance.n == 0
    assert reduced.budget == 4 * HUGE and reduced.source_sets == ()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("element", [0, 1.5, "1"])
def test_an_element_outside_the_universe_is_refused(element):
    """The range check stands in for the universe set: the low edge and non-ints are refused as before."""
    with pytest.raises(ValueError, match="leaves the universe"):
        ExactCoverInstance(3, [[element]], 1)


@pytest.mark.parametrize("m", [HUGE, 10_000])
def test_gen_exits_3_writing_neither_file(m, tmp_path, capsys):
    spec = tmp_path / "ec.json"
    spec.write_text(json.dumps({"m": m, "sets": [[1]], "k": 1}))
    out = tmp_path / "ec.bc"
    start = time.perf_counter()
    assert main(["gen", "--family", "exact-cover", "--spec", str(spec), "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1
    assert "budget B has more than" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [spec]


def test_e1_is_unchanged(tmp_path):
    out = tmp_path / "e1.bc"
    assert main(["gen", "--family", "exact-cover", "--spec", str(CORPORA / "e1.json"), "--out", str(out)]) == 0
    assert out.read_text() == (CORPORA / "e1.bc").read_text()
    assert json.loads((tmp_path / "e1.bc.meta.json").read_text()) == json.loads(
        (CORPORA / "e1.bc.meta.json").read_text()
    )
